"""The closed-form metric kernel and the bit-indexed point location
against the level-by-level references in ``reference.py`` (and, for
the one- and two-axis steps at D = 2 and 3, against the coordinate
loop), the point location's start table against the climb before and
after rebuilds and loads, the in-place climb against the climb on
lifted tuples, at D = 2..8, plus cost guards that count cell
constructions, lifted copies, descent steps and table fills."""

import inspect
import random
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace import metrics
from halfspace.avd import AvdIndex, build_avd, query, refine
from halfspace.metrics import d1, d2, d2_argmin, d2_path
from halfspace.quadtree import DEEPEST_LEVEL, MAX_DIM, ORDINARY, QuadTree, build_quadtree
from halfspace.sampling import sample_continuous, sample_margin_cells
from halfspace.spanner import build_hyperbolic_spanner
from halfspace.tiling import CellId, ancestor_at, children

from conftest import random_cell_in_root
from reference import _climb, d1_climb, d2_path_climb, lift_pair, smallest_containing_climb, smallest_containing_general

MIN_LEVEL = -1074  # the deepest level a float height reaches


@st.composite
def cell_pairs(draw):
    """Pairs of cells at D = 2..8, levels down to -1074.

    Kinds: equal cells, ancestor pairs, horizontal neighbors, unrelated
    cells at mixed levels over a shared stretch, and pairs whose
    coordinate difference is ``m * 2^e`` plus or minus a little, which
    puts the largest difference just above or below a power of two
    (and around the thresholds 1 and 4 after ``e`` shifts).
    """
    axes = draw(st.integers(1, MAX_DIM - 1))
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
    assert d1(p, q) == d1_climb(p, q)
    _, a, b = lift_pair(p, q)
    gap = q.level - p.level
    for t in (1, 2, 4):
        assert metrics._climb(p.coords, q.coords, max(gap, 0), max(-gap, 0), t) == _climb(a, b, t)


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


# -- point location ---------------------------------------------------------


@st.composite
def trees_and_boxes(draw):
    """A tree over random boxes (some on nested chains down to level
    -1074), with a few boxes inserted, and boxes to locate at D = 2..8:
    random cells down to -1074, nodes, and cells below nodes.  Above
    D = 4, where an ordinary node has 16 or more children, the sets are
    smaller and the chains sparser."""
    dim = draw(st.integers(2, MAX_DIM))
    small = dim > 4
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [random_cell_in_root(rng, dim, min_level=-draw(st.integers(1, 40))) for _ in range(draw(st.integers(1, 6 if small else 12)))]
    if draw(st.booleans()):
        deep = random_cell_in_root(rng, dim, min_level=draw(st.sampled_from([-60, MIN_LEVEL])))
        step = draw(st.integers(3, 6)) * (40 if small else 4 if deep.level < -60 else 1)
        cells.extend(ancestor_at(deep, lev) for lev in range(deep.level, 1, step))
    tree = build_quadtree(cells)
    for _ in range(draw(st.integers(0, 3 if small else 6))):
        tree.insert_box(random_cell_in_root(rng, dim, min_level=-30))
    boxes = [random_cell_in_root(rng, dim, min_level=MIN_LEVEL) for _ in range(20)]
    nodes = [n.cell for n in tree.iter_nodes()]
    boxes += nodes[:20]
    for c in rng.sample(nodes, min(len(nodes), 10)):
        r = rng.randint(1, c.level - MIN_LEVEL)
        boxes.append(CellId(c.level - r, tuple((k << r) + rng.randrange(1 << r) for k in c.coords)))
    return tree, boxes


@settings(max_examples=80, deadline=None)
@given(trees_and_boxes())
def test_smallest_containing_matches_climb(data):
    tree, boxes = data
    climb = smallest_containing_climb(tree)
    for box in boxes:
        want = climb(box)
        assert tree.smallest_containing(box) is want
        assert smallest_containing_general(tree, box) is want


@st.composite
def column_trees_and_boxes(draw, dim):
    """A D = 2 or 3 tree with deep compressed chains (one box every
    ``g`` levels down to level -400), and boxes to locate: every node's
    cell, a cell under every node down to below ``_locate_level``, and
    random cells of the root shadow."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [random_cell_in_root(rng, dim, min_level=-draw(st.integers(1, 40))) for _ in range(draw(st.integers(0, 8)))]
    for chain in range(draw(st.integers(1, 3))):
        level = -rng.randint(20, 400)
        deep = CellId(level, tuple(rng.randrange(1 << -level) for _ in range(dim - 1)))
        g = draw(st.integers(2 if chain == 0 else 1, 5))
        cells.extend(ancestor_at(deep, lev) for lev in range(level, 1, g))
    tree = build_quadtree(cells)
    low = tree._locate_level
    boxes = []
    for node in tree.iter_nodes():
        c = node.cell
        boxes.append(c)
        r = rng.randint(1, c.level - low + 2)
        boxes.append(CellId(c.level - r, tuple((k << r) + rng.randrange(1 << r) for k in c.coords)))
    boxes += [random_cell_in_root(rng, dim, min_level=low - 3) for _ in range(20)]
    return tree, boxes


def check_column_descent(tree, boxes):
    loaded = QuadTree.from_dict(tree.to_dict())
    assert any(node.kind == "compressed" for node in tree.iter_nodes())
    climb = smallest_containing_climb(tree)
    for box in boxes:
        want = climb(box)
        assert tree.smallest_containing(box) is want
        assert smallest_containing_general(tree, box) is want
        assert loaded.smallest_containing(box).cell == want.cell


@settings(max_examples=60, deadline=None)
@given(column_trees_and_boxes(2))
def test_smallest_containing_one_axis_matches_climb(data):
    check_column_descent(*data)


@settings(max_examples=60, deadline=None)
@given(column_trees_and_boxes(3))
def test_smallest_containing_two_axis_matches_climb(data):
    check_column_descent(*data)


def start_table_boxes(rng, tree):
    """Boxes to locate around a tree's start table at level -d: random
    cells above, at and below -d, cells under every node down to below
    the lowest node, and cells at :data:`DEEPEST_LEVEL`."""
    dim, top = tree.dim, -tree._start_depth
    boxes = [random_cell_in_root(rng, dim, min_level=top) for _ in range(10)]
    boxes += [CellId(top, tuple(rng.randrange(1 << -top) for _ in range(dim - 1))) for _ in range(10)]
    boxes += [random_cell_in_root(rng, dim, min_level=tree._locate_level - 3) for _ in range(10)]
    boxes += [random_cell_in_root(rng, dim, min_level=DEEPEST_LEVEL) for _ in range(3)]
    for node in tree.iter_nodes():
        c = node.cell
        r = rng.randint(1, c.level - tree._locate_level + 2)
        boxes.append(c)
        boxes.append(CellId(c.level - r, tuple((k << r) + rng.randrange(1 << r) for k in c.coords)))
        r = c.level - DEEPEST_LEVEL
        boxes.append(CellId(DEEPEST_LEVEL, tuple((k << r) + rng.randrange(1 << r) for k in c.coords)))
    return boxes


def check_start_table(tree, boxes):
    climb = smallest_containing_climb(tree)
    for box in boxes:
        assert tree.smallest_containing(box) is climb(box), box
    # entry i is the lowest node over the level -d cell whose
    # coordinates are i's d-bit fields, first axis most significant
    table, d, axes = tree._start, tree._start_depth, tree.dim - 1
    assert len(table) == 1 << (d * axes) <= len(tree)
    for i, node in enumerate(table):
        cell = CellId(-d, tuple((i >> (d * (axes - 1 - j))) & ((1 << d) - 1) for j in range(axes)))
        assert node is climb(cell), cell


@settings(max_examples=60, deadline=None)
@given(st.integers(2, MAX_DIM), st.sampled_from(["insert_box", "from_dict", "from_json"]), st.integers(0, 2**32))
def test_start_table_matches_climb(dim, how, seed):
    """The start table answers as the climb on a tree located before
    and after it grows by :meth:`QuadTree.insert_box`, and on trees
    loaded through :meth:`QuadTree.from_dict` and
    :meth:`AvdIndex.from_json`, each a tree whose nodes are new: a
    table kept from the old nodes would hand out nodes of no tree."""
    rng = random.Random(seed)
    small = dim > 4
    cells = [random_cell_in_root(rng, dim, min_level=-rng.randint(1, 30)) for _ in range(rng.randint(1, 8 if small else 60))]
    tree = build_quadtree(cells)
    assert tree._start is None
    check_start_table(tree, start_table_boxes(rng, tree))
    if how == "insert_box":
        for _ in range(3):
            box = random_cell_in_root(rng, dim, min_level=-40)
            grown, old = tree.node_for(box) is None, tree._start
            tree.insert_box(box)  # which locates the box after a rebuild
            assert (tree._start is not old) == grown
            check_start_table(tree, start_table_boxes(rng, tree))
        return
    if how == "from_dict":
        back = QuadTree.from_dict(tree.to_dict())
    else:
        back = AvdIndex.from_json(AvdIndex(tree, None, 0).to_json()).tree
    assert back._start is None and back._start_depth == tree._start_depth
    check_start_table(back, start_table_boxes(rng, back))


def test_smallest_containing_on_refined_trees(rng):
    for dim in (2, 3, 4):
        tree = refine(build_quadtree(sample_margin_cells(rng, dim, 30, min_level=-12)))
        climb = smallest_containing_climb(tree)
        for _ in range(300):
            box = random_cell_in_root(rng, dim, min_level=-16)
            assert tree.smallest_containing(box) is climb(box)


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
    back = AvdIndex.from_json(AvdIndex(refined, None, 0).to_json()).tree
    assert _children_in_order(back)
    assert [n.cell for n in back.iter_nodes()] == [n.cell for n in refined.iter_nodes()]


# -- cost guards -------------------------------------------------------------


class CellBuilds:
    """Counts :class:`CellId` constructions while installed, checked
    (``CellId(...)``) and trusted (``CellId.derived``) alike; ``trusted``
    counts the trusted ones alone."""

    def __init__(self, monkeypatch):
        self.n = self.trusted = 0
        original = CellId.__post_init__
        original_derived = CellId.derived

        def counted(cell):
            self.n += 1
            original(cell)

        def counted_derived(level, coords):
            self.n += 1
            self.trusted += 1
            return original_derived(level, coords)

        monkeypatch.setattr(CellId, "__post_init__", counted)
        monkeypatch.setattr(CellId, "derived", staticmethod(counted_derived))

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
    assert builds.during(d2_path, p, q) <= 2
    # the references climb one level at a time, so the patch is live
    assert builds.during(d1_climb, p, q) > 500


def test_metric_kernel_climbs_on_the_cells_own_coordinates(monkeypatch):
    """Cost guard: at D = 3..8 every climb of ``d1``, ``d2``,
    ``d2_path`` and ``d2_argmin`` gets both cells' own coordinate
    tuples, above, below and at the other's level: no lifted copy."""
    seen = []
    original = metrics._climb

    def spy(a, b, *rest):
        seen.append((a, b))
        return original(a, b, *rest)

    monkeypatch.setattr(metrics, "_climb", spy)
    rng = random.Random(31)
    for dim in range(3, MAX_DIM + 1):
        q = random_cell_in_root(rng, dim, min_level=-40)
        cells = [random_cell_in_root(rng, dim, min_level=-40) for _ in range(8)]
        cells += [CellId(q.level, tuple(k ^ 1 for k in q.coords)), ancestor_at(q, q.level + 3), CellId(q.level - 5, tuple(k << 5 for k in q.coords))]
        assert {(c.level > q.level) - (c.level < q.level) for c in cells} == {-1, 0, 1}
        for c in cells:
            for fn in (d1, d2, d2_path):
                seen.clear()
                fn(q, c)
                assert len(seen) == 1 and seen[0][0] is q.coords and seen[0][1] is c.coords, (fn, q, c)
        seen.clear()
        d2_argmin(q, cells, list(range(len(cells))))
        assert len(seen) == len(cells)
        assert all(a is q.coords and b is c.coords for (a, b), c in zip(seen, cells))


def test_smallest_containing_builds_no_cells_down_a_400_level_chain(monkeypatch):
    """Cost guard: point location reads coordinate bits, not cells, and
    so does the first one, which fills the start table (D = 2 and 3)."""
    x = (1 << 399) + 0x5A5A5
    builds = CellBuilds(monkeypatch)
    for axes in (1, 2):
        chain = [CellId(-lev, (x >> (400 - lev),) * axes) for lev in range(1, 401)]
        tree = build_quadtree(chain)
        below = CellId(-430, (x << 30,) * axes)
        assert tree._start is None and tree._start_depth > 1
        for box in (chain[-1], chain[200], below, chain[0]):
            n = builds.during(tree.smallest_containing, box)
            assert n == 0, box
        assert tree._start is not None
        assert tree.smallest_containing(below).cell == chain[-1]
    # the patch is live: an ancestor is one cell
    assert builds.during(ancestor_at, below, 0) == 1


def descent_steps(tree: QuadTree, boxes) -> list[int]:
    """Per box, the iterations of :meth:`QuadTree.smallest_containing`'s
    descent loop, counted as line events on the first line of each
    ``while True:`` body of the method."""
    code = QuadTree.smallest_containing.__code__
    lines, first = inspect.getsourcelines(QuadTree.smallest_containing)
    heads = {first + i + 1 for i, line in enumerate(lines) if line.strip() == "while True:"}
    assert len(heads) == 3
    counts = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in heads:
            counts[-1] += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code is code:
            counts.append(0)
            return local
        return None

    sys.settrace(calls)
    try:
        for box in boxes:
            tree.smallest_containing(box)
    finally:
        sys.settrace(None)
    return counts


def test_location_jumps_past_the_top_of_the_tree():
    """Cost guard: a location descends at most 2 steps at the median on
    a stratified D = 2 index and a D = 3 margin index (about 800 and
    2,500 nodes), where a descent from the root took 10 and 7."""
    rng = random.Random(34)
    ix = build_avd(sample_continuous(rng, 2, 128, mode="stratified", min_level=-24))
    cells = [ix.transform.cell_of(q) for q in sample_continuous(rng, 2, 2000, mode="stratified", min_level=-24)]
    cells = [c for c in cells if ix.tree.in_root(c)]
    assert len(cells) > 1500
    assert statistics.median(descent_steps(ix.tree, cells)) <= 2
    ix = build_avd(sample_margin_cells(rng, 3, 128, min_level=-13))
    assert statistics.median(descent_steps(ix.tree, sample_margin_cells(rng, 3, 2000, min_level=-14))) <= 2
    # the count is live: the boxes above the table's level start at the root
    assert min(descent_steps(ix.tree, [CellId(-1, (0, 0)), CellId(-1, (1, 1))])) >= 2


def test_builds_fill_no_start_table(monkeypatch):
    """Cost guard: the AVD and spanner builds locate nothing, so no tree
    they build fills its start table; the index's first query does."""
    filled = []
    fill = QuadTree._fill_start

    def counted(tree):
        filled.append(tree)
        return fill(tree)

    monkeypatch.setattr(QuadTree, "_fill_start", counted)
    rng = random.Random(35)
    points = sample_continuous(rng, 2, 64, mode="stratified", min_level=-20)
    build_hyperbolic_spanner(points, 2)
    for ix in (build_avd(points), build_avd(sample_margin_cells(rng, 3, 64, min_level=-12))):
        assert filled == [] and ix.tree._start is None
        query(ix, ix.points[0])
        assert filled == [ix.tree]
        filled.clear()


def test_d2_path_cells_of_ancestor_pair():
    # Cell(-1;[1]) is the grandparent of Cell(-3;[5]): no bridge, the
    # path climbs straight up (or down, from the upper end)
    low, mid, high = CellId(-3, (5,)), CellId(-2, (2,)), CellId(-1, (1,))
    assert d2_path(low, high).cells() == [low, mid, high]
    assert d2_path(high, low).cells() == [high, mid, low]
