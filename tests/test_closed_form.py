"""The closed-form metric kernel and the bit-indexed point location
against the level-by-level references in ``reference.py``, plus
cost guards that count cell constructions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.avd import AvdIndex, refine
from halfspace.metrics import bridge_level, d1, d2, d2_path
from halfspace.quadtree import ORDINARY, QuadTree, build_quadtree, meet
from halfspace.sampling import sample_margin_cells
from halfspace.tiling import CellId, ancestor_at, children, lift_pair

from conftest import random_cell_in_root
from reference import d1_climb, d2_path_climb, meet_climb, smallest_containing_climb

MIN_LEVEL = -1074  # the deepest level a float height reaches


@st.composite
def cell_pairs(draw):
    """Pairs of cells at D = 2..4, levels down to -1074.

    Kinds: equal cells, ancestor pairs, horizontal neighbors, unrelated
    cells at mixed levels over a shared stretch, and pairs whose
    coordinate difference is ``m * 2^e`` plus or minus a little, which
    puts the largest difference just above or below a power of two
    (and around the thresholds 1 and 4 after ``e`` shifts).
    """
    axes = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["equal", "ancestor", "neighbor", "mixed", "near_power"]))
    level = draw(st.integers(MIN_LEVEL, 4))
    bits = draw(st.integers(0, max(0, -level) + 3))
    coord = st.integers(-(1 << bits), 1 << bits)
    p = CellId(level, tuple(draw(coord) for _ in range(axes)))
    if kind == "equal":
        q = CellId(level, p.coords)
    elif kind == "ancestor":
        q = ancestor_at(p, level + draw(st.integers(0, 1100)))
    elif kind == "neighbor":
        q = CellId(level, tuple(k + draw(st.integers(-1, 1)) for k in p.coords))
    elif kind == "mixed":
        top = draw(st.integers(level, 6))
        base = draw(coord)
        q_level = draw(st.integers(level, top))
        shifted = tuple((base + draw(st.integers(-(1 << bits), 1 << bits))) >> (q_level - level) for _ in range(axes))
        q = CellId(q_level, shifted)
    else:
        e = draw(st.integers(0, max(0, -level) + 2))
        offsets = []
        for _ in range(axes):
            m = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
            offsets.append(draw(st.sampled_from([-1, 1])) * ((m << e) + draw(st.integers(-3, 3))))
        q = CellId(level, tuple(k + o for k, o in zip(p.coords, offsets)))
        up = draw(st.sampled_from([0, 0, 1, 2, draw(st.integers(0, 40))]))
        q = ancestor_at(q, level + up)
    if draw(st.booleans()):
        p, q = q, p
    return p, q


@settings(max_examples=400, deadline=None)
@given(cell_pairs())
def test_metric_kernel_matches_climb(pair):
    p, q = pair
    path = d2_path_climb(p, q)
    assert d2_path(p, q) == path
    assert d2(p, q) == path.length
    assert bridge_level(p, q) == path.bridge_level
    assert d1(p, q) == d1_climb(p, q)


@settings(max_examples=300, deadline=None)
@given(cell_pairs())
def test_meet_matches_climb(pair):
    p, q = pair
    _, a, b = lift_pair(p, q)
    if any((x < 0) != (y < 0) for x, y in zip(a, b)):
        # opposite signs in some axis: no common ancestor, and the
        # climb would never stop
        with pytest.raises(ValueError):
            meet(p, q)
        return
    assert meet(p, q) == meet_climb(p, q)


def test_near_power_of_two_examples():
    # differences of 2^e and 2^e + 1 put the bit-length start one level
    # below or at the answer
    for e in (0, 1, 2, 5, 100, 1000):
        for diff in ((1 << e) - 1, 1 << e, (1 << e) + 1, (4 << e) + 1, (5 << e) - 1, 5 << e):
            if diff < 0:
                continue
            p, q = CellId(-1074, (1 << 1073,)), CellId(-1074, ((1 << 1073) + diff,))
            assert d2_path(p, q) == d2_path_climb(p, q), diff
            assert d1(p, q) == d1_climb(p, q), diff
            assert meet(p, q) == meet_climb(p, q), diff


# -- point location ---------------------------------------------------------


@st.composite
def trees_and_boxes(draw):
    """A tree over random boxes (some on nested chains), with a few boxes
    inserted, and boxes to locate at D = 2..4."""
    dim = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [random_cell_in_root(rng, dim, min_level=-draw(st.integers(1, 40))) for _ in range(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        deep = random_cell_in_root(rng, dim, min_level=-60)
        cells.extend(ancestor_at(deep, lev) for lev in range(deep.level, 1, 3))
    tree = build_quadtree(cells)
    for _ in range(draw(st.integers(0, 6))):
        tree.insert_box(random_cell_in_root(rng, dim, min_level=-30))
    boxes = [random_cell_in_root(rng, dim, min_level=-70) for _ in range(20)]
    boxes += [n.cell for n in tree.iter_nodes()][:20]
    return tree, boxes


@settings(max_examples=80, deadline=None)
@given(trees_and_boxes())
def test_smallest_containing_matches_climb(data):
    tree, boxes = data
    for box in boxes:
        assert tree.smallest_containing(box) is smallest_containing_climb(tree, box)


def test_smallest_containing_on_refined_trees(rng):
    for dim in (2, 3, 4):
        tree = refine(build_quadtree(sample_margin_cells(rng, dim, 30, min_level=-12)))
        for _ in range(300):
            box = random_cell_in_root(rng, dim, min_level=-16)
            assert tree.smallest_containing(box) is smallest_containing_climb(tree, box)


# -- children order ----------------------------------------------------------


def _children_in_order(tree: QuadTree) -> bool:
    return all(
        [ch.cell for ch in node.children] == children(node.cell)
        for node in tree.iter_nodes()
        if node.kind == ORDINARY
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_ordinary_children_keep_children_order(dim):
    rng = random.Random(dim)
    base = build_quadtree(sample_margin_cells(rng, dim, 40, min_level=-12))
    assert _children_in_order(base)
    refined = refine(base)
    assert _children_in_order(refined)
    for _ in range(6):
        refined.insert_box(random_cell_in_root(rng, dim, min_level=-14))
        assert _children_in_order(refined)
    back = AvdIndex.from_json(AvdIndex(refined, None, 0, "discrete").to_json()).tree
    assert _children_in_order(back)
    assert [n.cell for n in back.iter_nodes()] == [n.cell for n in refined.iter_nodes()]


# -- cost guards -------------------------------------------------------------


class CellBuilds:
    """Counts :class:`CellId` constructions while installed."""

    def __init__(self, monkeypatch):
        self.n = 0
        original = CellId.__post_init__

        def counted(cell):
            self.n += 1
            original(cell)

        monkeypatch.setattr(CellId, "__post_init__", counted)

    def during(self, fn, *args):
        before = self.n
        fn(*args)
        return self.n - before


def test_metric_kernel_builds_constant_cells_at_depth_1000(monkeypatch):
    """Cost guard: no cell per level, however deep the pair sits."""
    p = CellId(-1000, ((1 << 998) + 12345,))
    q = CellId(-1000, ((1 << 998) + (1 << 990) + 3,))
    up = ancestor_at(q, -400)
    builds = CellBuilds(monkeypatch)
    assert builds.during(d1, p, q) == 0
    assert builds.during(d2, p, q) == 0
    assert builds.during(d2, p, up) == 0
    assert builds.during(bridge_level, p, q) == 0
    assert builds.during(d2_path, p, q) <= 2
    assert builds.during(meet, p, q) <= 1
    # the references climb one level at a time, so the patch is live
    assert builds.during(d1_climb, p, q) > 500
    assert builds.during(meet_climb, p, q) > 500


def test_smallest_containing_builds_no_cells_down_a_400_level_chain(monkeypatch):
    """Cost guard: point location reads coordinate bits, not cells."""
    x = (1 << 399) + 0x5A5A5
    chain = [CellId(-lev, (x >> (400 - lev),)) for lev in range(1, 401)]
    tree = build_quadtree(chain)
    below = CellId(-430, (x << 30,))
    builds = CellBuilds(monkeypatch)
    for box in (chain[-1], chain[200], below):
        n = builds.during(tree.smallest_containing, box)
        assert n == 0, box
    assert tree.smallest_containing(below).cell == chain[-1]
    assert builds.during(smallest_containing_climb, tree, chain[-1]) > 300
