"""The point-file reader and the index loader at parse speed.

:func:`halfspace.pointfile.read_points` decodes each point line once
with ``raw_decode`` and builds points trusted after its own checks;
:meth:`QuadTree.from_dict` and :meth:`AvdIndex.from_json` check loaded
cells with integers and ``reps`` in C-level passes.  Each must match the
loader it replaced (``tests/reference.py``): equal points or the same
line refused, the same tree or index or the same message.  The cost
guards count one decode per point line and no ``shadow_within`` in a
load.
"""

import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace import avd, pointfile, quadtree
from halfspace.avd import AvdIndex, build_avd
from halfspace.pointfile import PointFileError, read_points
from halfspace.quadtree import QuadTree
from halfspace.sampling import STRATIFIED, sample_continuous, sample_margin_cells
from halfspace.tiling import CellId, HPoint

from reference import avd_from_json_checked, read_points_loads, tree_from_dict_checked

# -- the reader against json.loads per line --------------------------------------

_NUMBERS = [
    "0.5", "1", "0", "-3", "2.5e-300", "-0.0", "1e-400", "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
    "true", "false", "null", '"0.25"', "[]", "{}", "1" + "0" * 400, "7" * 4400,
]
_SPACE = st.text(alphabet=" \t\r", max_size=3)
_BLANK = ["", " ", "\t", "\r", "\u00a0", "\x0b", "\x0c", "\u2003", " \u3000 "]


_INT = st.integers(-(2**70), 2**70).map(str)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD = st.one_of(st.sampled_from(_NUMBERS), _INT, _FLOAT)


@st.composite
def _value(draw, kind, dim):
    """One point line's JSON text: mostly a point of the file's kind
    and dimension, sometimes one with odd numbers or a wrong length, one
    of the other kind, one missing a key, or no object at all."""
    shape = draw(st.sampled_from(["good"] * 6 + ["odd", "length", "other", "missing", "list", "scalar"]))
    continuous = (kind == "continuous") == (shape != "other")
    if shape == "good":
        axes = st.one_of(_FLOAT, _INT) if continuous else _INT
        last = st.floats(min_value=5e-324, allow_infinity=False).map(repr) if continuous else _INT
    else:
        axes = last = _ODD
    n = draw(st.integers(0, 3)) if shape == "length" else dim - 1
    numbers = draw(st.lists(axes, min_size=n, max_size=n))
    one = draw(last)
    if shape == "list":
        return "[" + ", ".join(numbers) + "]"
    if shape == "scalar":
        return one
    keys = ("x", "z") if continuous else ("coords", "level")
    members = {keys[0]: "[" + ", ".join(numbers) + "]", keys[1]: one}
    if shape == "missing":
        del members[draw(st.sampled_from(keys))]
    return "{" + ", ".join(f'"{k}": {v}' for k, v in draw(st.permutations(list(members.items())))) + "}"


@st.composite
def _point_file(draw):
    kind = draw(st.sampled_from(["continuous", "discrete"]))
    dim = draw(st.sampled_from([2, 2, 3]))
    lines = [json.dumps({"dim": dim, "kind": kind})]
    for _ in range(draw(st.integers(0, 6))):
        pick = draw(st.sampled_from(["value"] * 8 + ["blank", "bom", "two"]))
        if pick == "blank":
            lines.append(draw(st.sampled_from(_BLANK)))
            continue
        text = draw(_value(kind, dim))
        if pick == "bom":
            text = "\ufeff" + text
        elif pick == "two":
            text = text + draw(st.sampled_from(["", " ", "\u00a0"])) + draw(_value(kind, dim))
        lines.append(draw(_SPACE) + text + draw(_SPACE))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def _outcome(read, text):
    """The points as (type, repr) pairs, so -0.0 and int or float values
    count, or the refusal's message."""
    try:
        dim, kind, points = read(io.StringIO(text))
    except PointFileError as exc:
        return str(exc)
    return dim, kind, [(type(p), repr(p)) for p in points]


def _line(message: str) -> str | None:
    found = re.match(r"line (\d+)", message)
    return found and found.group(1)


@settings(max_examples=400, deadline=None)
@given(_point_file())
def test_reader_reads_what_json_loads_read(text):
    new, old = _outcome(read_points, text), _outcome(read_points_loads, text)
    if isinstance(old, str):
        assert isinstance(new, str) and _line(new) == _line(old)
        # a line that is no object or lacks a key now says so; every
        # other refusal keeps its message
        if "is no JSON object" not in new and "has no key" not in new:
            assert new == old
    else:
        assert new == old


# -- lines that are JSON but no point object ---------------------------------------


def test_read_points_line_0_3_1_0_says_no_json_object():
    # was "line 2: list indices must be integers or slices, not str"
    with pytest.raises(PointFileError, match=r"^line 2 is no JSON object: \[0\.3, 1\.0\]$"):
        read_points(io.StringIO('{"dim": 2, "kind": "continuous"}\n[0.3, 1.0]\n'))


def test_read_points_null_header_says_no_json_object():
    # was "line 1: bad header: 'NoneType' object is not subscriptable"
    with pytest.raises(PointFileError, match=r"^line 1 is no JSON object: None$"):
        read_points(io.StringIO('null\n{"x": [0.3], "z": 1.0}\n'))


def test_read_points_missing_x_says_no_key_x():
    # was "line 2: 'x'"
    with pytest.raises(PointFileError, match=r"^line 2 has no key 'x'$"):
        read_points(io.StringIO('{"dim": 2, "kind": "continuous"}\n{"z": 1.0}\n'))


# -- the loader against CellId(...) and shadow_within ------------------------------

_INDEXES = [
    json.loads(build_avd(points).to_json())
    for points in (
        [CellId(-2, (1,)), CellId(-3, (3,)), CellId(-4, (5,))],
        [HPoint((0.1,), 1.0), HPoint((0.9,), 0.01), HPoint((0.4,), 0.3)],
        [CellId(-3, (2, 3)), CellId(-4, (5, 4))],
        sample_margin_cells(random.Random(5), 3, 12, min_level=-8),
    )
]
_CELL_EDITS = [[0, [0]], [-1, [1]], [-1, [2]], [-2, [-1]], [1, [0]], [-3, [8]], [-2, [1, 1]], [-2, [True]], [True, [0]],
               [-2, [2]], [-2, [3]], [-3, [2]], [-3, [5]], [-4, [6]], [-2, [2, 3]], [-3, [4, 5]],
               [-2.0, [1]], [-2, [1.0]], [-14285, [0]], [-14284, [0]], [-2, 1], [-2], "ab", {"a": 1, "b": 2}]
_OTHER_EDITS = [None, True, 0, -1, 2, 1.5, "leaf", "compressed", [], [0], [0, 1], [-1], [0.0], [True], [0, 99], 10**30]


def _edit_sites(data):
    """(container, key) of every cell, node field and annotation field."""
    sites = [(data["points"], i) for i in range(len(data["points"]))]
    for node, extra in zip(data["nodes"], data["annotations"]):
        sites += [(node, key) for key in node] + [(extra, key) for key in extra]
    return sites


def _loaded(load, text):
    try:
        return load(text).to_json()
    except ValueError as exc:
        return f"refused: {exc}"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loader_loads_and_refuses_as_the_checked_loader(data):
    edited = json.loads(json.dumps(data.draw(st.sampled_from(_INDEXES))))
    for _ in range(data.draw(st.integers(1, 2))):
        container, key = data.draw(st.sampled_from(_edit_sites(edited)))
        pool = _CELL_EDITS if key == "cell" or container is edited["points"] else _OTHER_EDITS + _CELL_EDITS
        container[key] = json.loads(json.dumps(data.draw(st.sampled_from(pool))))
    text = json.dumps(edited)
    assert _loaded(AvdIndex.from_json, text) == _loaded(avd_from_json_checked, text)
    tree = json.loads(text)
    assert _loaded(QuadTree.from_dict, tree) == _loaded(lambda d: tree_from_dict_checked(d)[0], tree)


_THREE_CELLS = [CellId(-2, (0,)), CellId(-2, (1,)), CellId(-2, (3,))]


@pytest.mark.parametrize(
    "k, cell, message",
    [
        # node 2 is child 0 of ordinary node 1, Cell(-1;[0]): Cell(-2;[2])
        # has its level and its slot's parity, but lies in Cell(-1;[1])
        (2, [-2, [2]], r"^node 2 Cell\(-2;\[2\]\) is not child 0 of ordinary node 1 in children\(\) order$"),
        # node 5 is the lone child of compressed node 4, Cell(-1;[1])
        (5, [-2, [1]], r"^node 5 Cell\(-2;\[1\]\) is no lone child strictly inside the box of compressed node 4$"),
    ],
    ids=["cell_-2_2_under_ordinary_-1_0", "cell_-2_1_under_compressed_-1_1"],
)
def test_loader_refuses_a_child_cell_outside_its_parent(k, cell, message):
    data = QuadTree(2, _THREE_CELLS).to_dict()
    data["nodes"][k]["cell"] = cell
    with pytest.raises(ValueError, match=message):
        QuadTree.from_dict(data)


def test_loader_takes_a_tuple_cell_as_the_checked_loader():
    # from_dict takes data from callers too, and the checked loader's
    # CellId(...) took a tuple cell
    data = build_avd([CellId(-2, (1,)), CellId(-3, (3,))]).tree.to_dict()
    data["points"][0] = tuple(data["points"][0])
    assert QuadTree.from_dict(data).to_json() == tree_from_dict_checked(data)[0].to_json()


# -- cost guards ------------------------------------------------------------------


def test_reader_decodes_each_point_line_once(monkeypatch):
    points = sample_continuous(random.Random(3), 3, 50, mode=STRATIFIED, min_level=-20)
    buf = io.StringIO()
    pointfile.write_points(buf, points)
    calls = []
    decode = pointfile._decode

    def counted(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(pointfile, "_decode", counted)
    assert read_points(io.StringIO(buf.getvalue()))[2] == points
    assert len(calls) == len(points)


def test_index_load_calls_no_shadow_within(monkeypatch):
    text = build_avd(sample_continuous(random.Random(4), 2, 200, mode=STRATIFIED, min_level=-30)).to_json()
    calls = []

    def counted(inner, outer):
        calls.append((inner, outer))
        return quadtree.is_ancestor_or_self(outer, inner)

    monkeypatch.setattr(quadtree, "shadow_within", counted)
    monkeypatch.setattr(avd, "shadow_within", counted)
    assert AvdIndex.from_json(text).to_json() == text
    assert calls == []
