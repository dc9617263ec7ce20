"""Continuous inputs over the whole float range either build or are
rejected with ``ValueError``.

Heights run from the smallest subnormal 5e-324 up to 1e308 and x
coordinates up to +-1e308, with those edge values drawn often.  Every
set goes through the AVD index, the d1 spanner of its embedded cells,
the hyperbolic spanner and the distortion report; any other exception
is a defect.  Over the same range the spanners and the halfspace
distance must match their references in ``tests/reference.py``: the
same ``to_dict()`` (or the same ``ValueError``), and the same distance
bit for bit in either argument order.  ``NormalizeTransform.cell_of``,
which places every input and every query, must give the cell of the
moved point, or raise ``ValueError`` where moving it does.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfspace import hyperbolic
from halfspace.avd import AvdIndex, build_avd, query_hyperbolic
from halfspace.hyperbolic import NormalizeTransform, distortion_report, hyperbolic_distance, normalize, normalize_and_embed
from halfspace.spanner import build_hyperbolic_spanner, build_spanner
from halfspace.tiling import CellId, HPoint, cell_of

from reference import build_hyperbolic_spanner_triples, build_spanner_triples, contains_point, hyperbolic_distance_general

heights = st.one_of(st.sampled_from((5e-324, 1e-323, 1e308)), st.floats(5e-324, 1e308))
coords = st.one_of(st.sampled_from((0.0, 5e-324, 1e-323, 1e308, -1e308)), st.floats(-1e308, 1e308))


def points_of(dim):
    return st.builds(HPoint, st.tuples(*[coords] * (dim - 1)), heights)


@st.composite
def point_sets(draw, dims=(2, 3)):
    dim = draw(st.sampled_from(dims))
    return draw(st.lists(points_of(dim), min_size=1, max_size=6))


def _builds_or_rejects(build, *args):
    """What ``build`` returns, or ``ValueError`` when it raises one."""
    try:
        return build(*args)
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example([HPoint((5e-324,), 5e-324), HPoint((-1e308,), 1e308)])
@example([HPoint((1e308, -1e308), 1e-323), HPoint((1e308, 1e308), 1e-323)])
@example([HPoint((0.0,), 1e308), HPoint((5e-324,), 1e308), HPoint((1e-323,), 1e308)])
def test_full_float_range_builds_or_raises_value_error(points):
    _builds_or_rejects(build_avd, points)
    _builds_or_rejects(lambda p: build_spanner(normalize_and_embed(p)[2]), points)
    _builds_or_rejects(build_hyperbolic_spanner, points, 2)
    _builds_or_rejects(distortion_report, points, 20)


@settings(max_examples=150, deadline=None)
@given(point_sets(), st.sampled_from((1, 2, 3)))
@example([HPoint((0.3,), 1.0), HPoint((0.3,), 5e-324)], 2)
@example([HPoint((-1e308,), 1.0), HPoint((1e308,), 1.0)], 1)
@example([HPoint((1e308, -1e308), 1e-323), HPoint((1e308, 1e308), 1e-323)], 3)
@example([HPoint((5e-324,), 5e-324), HPoint((-1e308,), 1e308)], 2)
def test_spanners_match_triple_set_references(points, k):
    try:
        want = build_hyperbolic_spanner_triples(points, k)
    except ValueError:
        with pytest.raises(ValueError):
            build_hyperbolic_spanner(points, k)
        return
    assert json.dumps(build_hyperbolic_spanner(points, k).to_dict()) == json.dumps(want.to_dict())
    cells = normalize_and_embed(points)[2]
    assert json.dumps(build_spanner(cells).to_dict()) == json.dumps(build_spanner_triples(cells).to_dict())


@st.composite
def point_pairs(draw):
    point = points_of(draw(st.sampled_from((2, 3, 4))))
    return draw(point), draw(point)


@settings(max_examples=1000, deadline=None)
@given(point_pairs())
@example((HPoint((0.3,), 5e-324), HPoint((0.3,), 1e-323)))
@example((HPoint((0.3,), 5e-324), HPoint((0.3,), 5e-324)))
@example((HPoint((1e308,), 1.0), HPoint((-1e308,), 1.0)))
@example((HPoint((0.0,), 5e-324), HPoint((1.0,), 5e-324)))
@example((HPoint((0.0,), 1e-170), HPoint((1.0,), 1e-170)))
@example((HPoint((0.0,), 1e200), HPoint((0.0,), 1e300)))
@example((HPoint((1e308, -1e308), 1e308), HPoint((-1e308, 1e308), 1e-323)))
def test_hyperbolic_distance_matches_general_reference_bit_for_bit(pair):
    p, q = pair
    want = hyperbolic_distance_general(p, q).hex()
    assert hyperbolic_distance_general(q, p).hex() == want
    assert hyperbolic_distance(p, q).hex() == want
    assert hyperbolic_distance(q, p).hex() == want


# pairs whose gap, height product or argument leaves the normal floats
_RESCALED = [
    (HPoint((0.3,), 5e-324), HPoint((0.3,), 1e-323)),
    (HPoint((0.0,), 5e-324), HPoint((1e308,), 1e-320)),
    (HPoint((1e308,), 1.0), HPoint((-1e308,), 1.0)),
    (HPoint((-1e308,), 5e-324), HPoint((1e308,), 1e308)),
    (HPoint((0.0,), 1e200), HPoint((0.0,), 1e300)),
    (HPoint((1e308, -1e308), 1e-320), HPoint((-1e308, 1e308), 5e-324)),
    (HPoint((-1e308, 0.0), 1e308), HPoint((1e308, 5e-324), 1e308)),
]


def test_rescaled_examples_take_the_fallback(monkeypatch):
    taken = []
    monkeypatch.setattr(hyperbolic, "_rescaled_distance", lambda *args: taken.append(args) or 0.0)
    for p, q in _RESCALED:
        hyperbolic_distance(p, q)
    assert len(taken) == len(_RESCALED)


@st.composite
def sets_and_queries(draw):
    points = draw(point_sets(dims=(2, 3, 4)))
    return points, draw(st.lists(points_of(points[0].dim), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(sets_and_queries())
@example(([HPoint((0.0,), 1.0), HPoint((1e300,), 1.0)], [HPoint((0.0,), 1e-30)]))
@example(([HPoint((0.3,), 1.0), HPoint((0.4,), 0.5)], [HPoint((1e308,), 1e308), HPoint((-1e308,), 5e-324)]))
@example(([HPoint((1e308, -1e308, 0.0), 1e-323)], [HPoint((1e308, 1e308, 5e-324), 1e308)]))
def test_transform_cell_of_is_cell_of_the_moved_point(case):
    # builds and queries place points with NormalizeTransform.cell_of;
    # it must agree with cell_of(apply(q)) or raise ValueError with it
    points, queries = case
    try:
        t, moved = normalize(points)
    except ValueError:
        with pytest.raises(ValueError):
            normalize_and_embed(points)
        return
    assert normalize_and_embed(points)[2] == [cell_of(m) for m in moved]
    for q in queries:
        want = _builds_or_rejects(lambda: cell_of(t.apply(q)))
        assert _builds_or_rejects(t.cell_of, q) == want


# hand-made transforms, as a loaded index may hold: int or float scale
# and shift, and int or float coordinates and heights, ints past 2^53
# and up to 10^308 included
numbers = st.one_of(coords, st.integers(-(10**308), 10**308), st.sampled_from((2**53 + 1, -(2**60) - 1, 10**308)))


@st.composite
def hand_made_cases(draw):
    axes = draw(st.sampled_from((1, 2)))
    scale = draw(st.one_of(st.integers(1, 2**64), st.sampled_from((1, 2, 10**308)), st.floats(1e-300, 1e300)))
    shift = tuple(draw(numbers) for _ in range(axes))
    q = HPoint(tuple(draw(numbers) for _ in range(axes)), draw(st.one_of(heights, st.integers(1, 10**308))))
    return NormalizeTransform(scale, shift), q


@settings(max_examples=300, deadline=None)
@given(hand_made_cases())
@example((NormalizeTransform(1, (0,)), HPoint((2**53 + 1,), 1)))
@example((NormalizeTransform(3, (5,)), HPoint((2**60 + 1,), 2.0**-30)))
@example((NormalizeTransform(3, (5, -7)), HPoint((2**60 + 1, -3), 1)))
@example((NormalizeTransform(2**64, (-(2**60) - 1,)), HPoint((-3,), 2**40)))
@example((NormalizeTransform(2, (0,)), HPoint((0.5,), 10**308)))
@example((NormalizeTransform(1, (0,)), HPoint((0,), 2**60 - 1)))
@example((NormalizeTransform(3, (0, 0)), HPoint((0, 0), 2**60 - 1)))
@example((NormalizeTransform(2, (0,)), HPoint((10**308,), 2.0**-1000)))
@example((NormalizeTransform(2, (0.5,)), HPoint((10**308,), 1.0)))
@example((NormalizeTransform(2, (0, 0)), HPoint((0.5, 10**308), 1.0)))
def test_hand_made_transform_cell_of_is_cell_of_the_moved_point(case):
    t, q = case
    want = _builds_or_rejects(lambda: cell_of(t.apply(q)))
    assert _builds_or_rejects(t.cell_of, q) == want


def test_transform_2_cell_of_int_x_2_pow_53_plus_1_stays_exact():
    # x moves to 2^54 + 2 at level 1: ldexp would round the int to a
    # float, and floor_scaled keeps it exact
    assert NormalizeTransform(2, (0,)).cell_of(HPoint((2**53 + 1,), 1)) == CellId(1, (2**53 + 1,))


def test_transform_2_cell_of_height_10_pow_308():
    # the moved int height 2 * 10^308 is past the floats: frexp overflowed
    t = NormalizeTransform(2, (0,))
    q = HPoint((0.5,), 10**308)
    with pytest.raises(ValueError, match=f"^query height {10**308} moves out of the finite floats at scale 2$"):
        t.cell_of(q)
    ix = build_avd([HPoint((0.3,), 1.0), HPoint((0.4,), 0.5)])
    with pytest.raises(ValueError, match="query height"):
        query_hyperbolic(AvdIndex(ix.tree, t, ix.highest_index), q)


@pytest.mark.parametrize("x", [(0,), (0, 0)])
def test_transform_1_cell_of_int_height_2_pow_60_minus_1(x):
    # frexp rounded the int height to the float 2^60, a level too high
    q = HPoint(x, 2**60 - 1)
    t = NormalizeTransform(1, (0,) * len(x))
    assert t.cell_of(q) == CellId(59, (0,) * len(x)) == cell_of(t.apply(q))
    assert contains_point(t.cell_of(q), q)


def test_transform_2_cell_of_x_10_pow_308_height_2_pow_minus_1000():
    # the moved int x 2 * 10^308 is past the floats; it used to give a cell
    t = NormalizeTransform(2, (0,))
    q = HPoint((10**308,), 2.0**-1000)
    with pytest.raises(ValueError, match=re.escape(f"query x = {q.x!r} moves out of the finite floats at scale 2")):
        t.cell_of(q)
    with pytest.raises(ValueError):
        cell_of(t.apply(q))
