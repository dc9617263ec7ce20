"""The pruned boundary descent, the neighbor pass, the carried
representative pass and the bridge pass (with its one-axis branch for
D = 2) against the reference scans and loops."""

import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from halfspace import avd, quadtree, spanner, tiling
from halfspace.avd import annotate, refine, select_representatives
from halfspace.quadtree import (
    COMPRESSED,
    QuadTree,
    block_meets,
    box_adjacent,
    build_quadtree,
    compressed_on_boundary,
    meets_boundary,
    shadow_within,
)
from halfspace.hyperbolic import normalize_and_embed
from halfspace.sampling import STRATIFIED, sample_continuous, sample_margin_cells
from halfspace.spanner import Bridge, enumerate_bridges
from halfspace.tiling import CellId, HPoint, ancestor_at, children, horizontal_neighbors

from conftest import random_cell_in_root
from reference import (
    annotate_scan,
    box_adjacent_overlap,
    bridges_scan,
    compressed_on_boundary_from_root,
    enumerate_bridges_general,
    representatives_scan,
    select_representatives_descent,
    select_representatives_per_child,
    touches_boundary,
)
from test_closed_form import MIN_LEVEL, CellBuilds
from test_float_range import coords, heights

DEPTH = 34  # resolution of the drawn x-coordinates, in levels below the root


@st.composite
def stacked_sets(draw, dim, margin):
    """Inputs stacked on a few vertical lines through the root shadow.

    Each line holds one to three boxes, one above another; the first
    may instead hold a chain nested 30 levels deep.  Coordinates snap to
    coarse dyadic grids, or sit one step below a grid line, so boxes
    often share faces and corners.  With ``margin`` every line lies in
    [1/4, 1/2)^(D-1), which puts every box in the refinement's margin.
    """
    lo, hi = (1 << (DEPTH - 2), (1 << (DEPTH - 1)) - 1) if margin else (0, (1 << DEPTH) - 1)
    cells = []
    for j in range(draw(st.integers(1, 8))):
        xs = []
        for _ in range(dim - 1):
            g = draw(st.integers(2, DEPTH))
            x = draw(st.integers(lo >> (DEPTH - g), hi >> (DEPTH - g))) << (DEPTH - g)
            x -= draw(st.integers(0, 1))
            xs.append(min(max(x, lo), hi))
        if j == 0 and draw(st.booleans()):
            levels = list(range(2, 32))
        else:
            levels = draw(st.lists(st.integers(1, DEPTH), min_size=1, max_size=3, unique=True))
        cells.extend(CellId(-lev, tuple(x >> (DEPTH - lev) for x in xs)) for lev in levels)
    return cells


def _check_representatives(cells):
    """The carried pass against the all-pairs scan, the per-region
    descent from the root and the carried pass with one boundary test
    per child that it replaced."""
    base = build_quadtree(cells)
    refined = refine(base)
    annotate(refined)
    select_representatives(refined, base)
    carried = [node.reps for node in refined.iter_nodes()]
    assert carried == representatives_scan(refined, base)
    select_representatives_descent(refined, base)
    assert carried == [node.reps for node in refined.iter_nodes()]
    select_representatives_per_child(refined, base)
    assert carried == [node.reps for node in refined.iter_nodes()]


def _check_bridges(cells):
    tree = build_quadtree(cells)
    assert enumerate_bridges(tree) == bridges_scan(tree)


def _occupied_top(tree, box):
    """The topmost node on or below ``box`` if it holds an input, else None."""
    top = tree.cell_query(box)[0] if tree.in_root(box) else None
    return top if top is not None and top.count else None


def _check_neighbor_rows(tree):
    """Every entry is the topmost node under its box, by point location,
    when that node holds an input, and None otherwise.

    Every row is sliced from a neighbor block, one per ordinary node and
    one per non-empty gap level, so this checks the blocks against
    :meth:`QuadTree.cell_query`, which does not use the pass."""
    gaps = {id(tree.root): 1}
    nodes = []
    for node, rows in tree.neighbor_rows():
        nodes.append(node)
        for ch in node.children:
            gaps[id(ch)] = node.cell.level - ch.cell.level
        assert len(rows) == gaps[id(node)]
        for j, row in enumerate(rows):
            box = ancestor_at(node.cell, node.cell.level + j)
            expected = [_occupied_top(tree, nb) for nb in horizontal_neighbors(box)]
            assert list(row) == expected, (node, j)
    assert nodes == list(tree.iter_nodes())


def _check_annotate(cells):
    base = build_quadtree(cells)
    _check_neighbor_rows(base)
    refined = refine(base)
    _check_neighbor_rows(refined)
    expected = annotate_scan(refined)
    annotate(refined)
    assert [node.n2_index for node in refined.iter_nodes()] == expected


@settings(max_examples=60, deadline=None)
@given(stacked_sets(2, margin=True))
def test_annotate_matches_scan_d2(cells):
    _check_annotate(cells)


@settings(max_examples=40, deadline=None)
@given(stacked_sets(3, margin=True))
def test_annotate_matches_scan_d3(cells):
    _check_annotate(cells)


def test_neighbor_rows_match_cell_query(rng):
    # (dim, trees, most boxes, lowest level): the block plan's bit order
    # depends on the dimension, and the rows grow as 3^(D-1)
    for dim, trees, most, low in ((2, 30, 25, -12), (3, 30, 25, -12), (4, 12, 12, -9), (5, 8, 8, -8)):
        for _ in range(trees):
            tree = build_quadtree([random_cell_in_root(rng, dim, min_level=low) for _ in range(rng.randint(1, most))])
            _check_neighbor_rows(tree)
            for _ in range(6):
                tree.insert_box(random_cell_in_root(rng, dim, min_level=low - 2))
            _check_neighbor_rows(tree)


def test_neighbor_rows_hold_only_occupied_nodes_on_refined_d5_tree():
    """Cost guard: a row entry is a node holding an input or None, so
    the pass never looks below an empty neighbor.  The refined tree of
    four D = 5 margin cells has 723 nodes; its rows hold 286 nodes, where
    listing empty nodes as well made 24,048."""
    tree = refine(build_quadtree(sample_margin_cells(random.Random(1), 5, 4)))
    assert len(tree) == 723
    entries = [t for _, rows in tree.neighbor_rows() for row in rows for t in row if t is not None]
    assert all(t.count for t in entries)
    assert len(entries) <= 286


def _rows_computed(tree) -> tuple[int, int]:
    """Distinct row lists the pass yields, and rows yielded, over all nodes."""
    distinct = total = 0
    for _, rows in tree.neighbor_rows():
        distinct += len({id(row) for row in rows})
        total += len(rows)
    return distinct, total


def test_neighbor_rows_cost_on_deep_gap():
    """Cost guard: below the first empty row of a compressed gap the
    rows are one shared list.  A point at x = 3/10 on level -2000 with
    one box beside its gap's top (level -5) has a 1,996-level gap whose
    second row is empty (the pass computed one row per level)."""
    deep = CellId(-2000, ((3 << 2000) // 10,))
    tree = build_quadtree([deep, CellId(-5, (10,))])
    _check_neighbor_rows(tree)
    rows = {node.cell: rows for node, rows in tree.neighbor_rows()}[deep]
    assert len(rows) == 1996
    assert rows[-1][1] is not None  # the box beside the gap's top
    assert len({id(row) for row in rows}) <= 3


def test_neighbor_rows_and_bridges_on_embedded_sets():
    """Reference checks where the gap cutoff fires: embedded continuous
    sets shaped like the spanner benchmark's, heights down to 2^-40."""
    for dim, seed in ((2, 1), (2, 2), (2, 3), (3, 4), (3, 5)):
        points = sample_continuous(random.Random(seed), dim, 60, STRATIFIED, min_level=-40)
        tree = build_quadtree(normalize_and_embed(points)[2])
        distinct, total = _rows_computed(tree)
        assert distinct < total  # the cutoff fires
        _check_neighbor_rows(tree)
        assert enumerate_bridges(tree) == bridges_scan(tree)


def test_neighbor_rows_and_bridges_on_chains_meeting_at_one_half():
    """Two chains meet at x = 1/2, one box every other level on each
    side, so every gap's rows stay non-empty to its bottom: a cutoff
    that fires early loses bridges."""
    cells = []
    for lev in range(3, 123, 2):
        cells += [CellId(-lev, ((1 << (lev - 1)) - 1,)), CellId(-lev - 1, (1 << lev,))]
    tree = build_quadtree(cells)
    distinct, total = _rows_computed(tree)
    assert distinct == total
    _check_neighbor_rows(tree)
    bridges = enumerate_bridges(tree)
    assert bridges == bridges_scan(tree)
    assert len(bridges) == 119


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda dim: st.lists(st.builds(HPoint, st.tuples(*[coords] * (dim - 1)), heights), min_size=1, max_size=6)))
@example([HPoint((0.3,), 1.0), HPoint((0.3,), 5e-324), HPoint((0.3 + 1e-9,), 1e-300)])
@example([HPoint((0.3, 0.7), 1.0), HPoint((0.3, 0.7), 5e-324), HPoint((0.31, 0.7), 1e-300)])
def test_neighbor_rows_on_float_range_sets(points):
    """Embedded sets over the whole float range, cell levels down to
    -1074: gaps of up to a thousand levels, each level's row from a
    block, on the base tree and the refined one."""
    try:
        cells = normalize_and_embed(points)[2]
    except ValueError:
        assume(False)
    base = build_quadtree(cells)
    _check_neighbor_rows(base)
    _check_neighbor_rows(refine(base))


def test_neighbor_rows_on_refined_d4_tree_with_deep_gaps():
    """D = 4: margin samples, two 300-level-deep neighbors under a long
    gap whose rows turn empty, and two chains on either side of x = 3/8
    whose gap rows stay non-empty to the bottom."""
    cells = sample_margin_cells(random.Random(19), 4, 12, min_level=-6)
    deep = (3 << 300) // 10
    cells += [CellId(-300, (deep, deep, deep)), CellId(-300, (deep + 1, deep, deep))]
    for lev in range(6, 18, 2):
        y = (3 << lev) // 10
        cells += [CellId(-lev, ((3 << (lev - 3)) - 1, y, y)), CellId(-lev - 1, (3 << (lev - 2), 2 * y, 2 * y))]
    base = build_quadtree(cells)
    refined = refine(base)
    distinct, total = _rows_computed(refined)
    assert distinct < total  # some gap stops early
    assert max(len(rows) for _, rows in refined.neighbor_rows()) > 250
    _check_neighbor_rows(base)
    _check_neighbor_rows(refined)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_neighbor_rows_build_no_cells(monkeypatch, dim):
    """Cost guard: a full pass over a refined tree with deep gaps builds
    no cell; the blocks read coordinates, not cells."""
    cells = sample_margin_cells(random.Random(dim), dim, 24, min_level=-12)
    deep = (3 << 200) // 10
    cells.append(CellId(-200, (deep,) * (dim - 1)))
    tree = refine(build_quadtree(cells))
    builds = CellBuilds(monkeypatch)
    assert builds.during(lambda: sum(1 for _ in tree.neighbor_rows())) == 0
    # the patch is live: listing neighbor boxes builds cells
    assert builds.during(lambda: horizontal_neighbors(tree.root.children[0].cell)) > 0


def test_annotate_and_bridges_never_descend_from_root(monkeypatch):
    """Cost guard: the neighbor checks read the pass, not point location."""
    base = build_quadtree(sample_margin_cells(random.Random(11), 3, 128, min_level=-20))
    refined = refine(base)
    calls = []
    descend = QuadTree.smallest_containing

    def counted(self, box):
        calls.append(box)
        return descend(self, box)

    monkeypatch.setattr(QuadTree, "smallest_containing", counted)
    annotate(refined)
    enumerate_bridges(base)
    assert calls == []
    annotate_scan(refined)  # the reference descends, so the patch is live
    assert calls


def _count_boundary_tests(monkeypatch, *modules) -> list:
    """Record every ``meets_boundary`` and ``block_meets`` call made
    through ``modules``."""
    calls = []
    for name in ("meets_boundary", "block_meets"):
        test = getattr(quadtree, name)

        def counted(box, b, test=test):
            calls.append(box)
            return test(box, b)

        for mod in modules:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_bridge_search_cost_on_deep_chain(monkeypatch):
    """Cost guard: on 1,000 boxes around x = 3/10, one every other level,
    the partner search makes at most 4 boundary tests per occupied
    compressed node (the descent from the root per node made 1,001,998
    for 1,000 such nodes)."""
    chain = [CellId(-lev, ((3 << lev) // 10,)) for lev in range(2, 2002, 2)]
    tree = build_quadtree(chain)
    compressed = [n for n in tree.iter_nodes() if n.kind == COMPRESSED and n.count > 0]
    calls = _count_boundary_tests(monkeypatch, quadtree)
    enumerate_bridges(tree)
    assert len(compressed) >= 999
    assert len(calls) <= 4 * len(compressed)
    spent = len(calls)
    compressed_on_boundary_from_root(tree, chain[-1])  # the patch is live
    assert len(calls) > spent


@settings(max_examples=60, deadline=None)
@given(stacked_sets(2, margin=True))
def test_representatives_match_scan_d2(cells):
    _check_representatives(cells)


@settings(max_examples=40, deadline=None)
@given(stacked_sets(3, margin=True))
def test_representatives_match_scan_d3(cells):
    _check_representatives(cells)


def test_representatives_match_scan_margin_samples_d4():
    rng = random.Random(41)
    for n in (8, 24, 48):
        _check_representatives(sample_margin_cells(rng, 4, n, min_level=-7))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40))
def test_representatives_match_descent_sampled_d4(seed, n):
    _check_representatives(sample_margin_cells(random.Random(seed), 4, n, min_level=-7))


def test_representatives_cost_on_deep_chain(monkeypatch):
    """Cost guard: on 2,000 nested boxes around x = 3/10 the carried
    pass makes at most 5 boundary tests per refined node, a test of a
    whole block of children counted as one (the descent per region made
    about 670)."""
    chain = [CellId(-lev, ((3 << lev) // 10,)) for lev in range(2, 2002)]
    base = build_quadtree(chain)
    refined = refine(base)
    annotate(refined)
    # the carried sets test in avd, the descents below a box in quadtree
    calls = _count_boundary_tests(monkeypatch, avd, quadtree)
    select_representatives(refined, base)
    assert 0 < len(calls) <= 5 * len(refined)
    assert refined.node_for(chain[-1]).reps == [len(chain) - 1]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        stacked_sets(2, margin=True),
        stacked_sets(3, margin=True),
        st.tuples(st.integers(0, 2**32), st.integers(1, 64)).map(
            lambda s: sample_margin_cells(random.Random(s[0]), 4, s[1], min_level=-7)
        ),
    )
)
def test_refined_tree_contains_every_base_node(cells):
    """Refinement only adds keys, so every base node is a refined node;
    :func:`select_representatives` relies on it."""
    base = build_quadtree(cells)
    refined = refine(base)
    refined_cells = {node.cell for node in refined.iter_nodes()}
    assert all(node.cell in refined_cells for node in base.iter_nodes())


@settings(max_examples=60, deadline=None)
@given(stacked_sets(2, margin=False))
def test_bridges_match_scan_d2(cells):
    _check_bridges(cells)


@settings(max_examples=40, deadline=None)
@given(stacked_sets(3, margin=False))
def test_bridges_match_scan_d3(cells):
    _check_bridges(cells)


def test_meets_boundary_matches_predicates(rng):
    for dim in (2, 3):
        for _ in range(3000):
            a = random_cell_in_root(rng, dim, min_level=-4)
            b = random_cell_in_root(rng, dim, min_level=-4)
            expected = (
                shadow_within(b, a)
                or box_adjacent(a, b)
                or (shadow_within(a, b) and touches_boundary(a, b))
            )
            assert meets_boundary(a, b) == expected, (a, b)


@st.composite
def boxes_near_a_parent(draw):
    """A parent box at D = 2-5 and a box around its boundary: equal to
    it, containing it, beside it or touching a corner, or inside it on
    or off its faces, at any level down to -60 (below the children's
    level too)."""
    dim = draw(st.integers(2, 5))
    top = draw(st.integers(-59, 0))
    parent = tuple(draw(st.integers(0, (1 << -top) - 1)) for _ in range(dim - 1))
    level = draw(st.integers(-60, 0))
    coords = []
    for k in parent:
        if level <= top:
            lo, hi = k << (top - level), (k + 1) << (top - level)
            c = draw(st.one_of(st.sampled_from((lo - 1, lo, hi - 1, hi)), st.integers(lo - 1, hi)))
        else:
            c = (k >> (level - top)) + draw(st.sampled_from((-1, 0, 1)))
        coords.append(min(max(c, 0), (1 << -level) - 1))
    return CellId(top, parent), CellId(level, tuple(coords))


@settings(max_examples=400, deadline=None)
@given(boxes_near_a_parent())
@example((CellId(-3, (2, 5)), CellId(-3, (2, 5))))  # the parent itself
@example((CellId(-3, (2, 5)), CellId(-1, (0, 1))))  # a box containing it
@example((CellId(-3, (2, 5)), CellId(-3, (3, 5))))  # beside it
@example((CellId(-3, (2, 5)), CellId(-3, (3, 6))))  # at a corner
@example((CellId(-3, (2, 5, 1, 7)), CellId(-7, (47, 80, 16, 127))))  # below the children, on faces
@example((CellId(-59, (1, 2)), CellId(-60, (3, 4))))  # a child, 60 levels down
def test_block_meets_matches_meets_boundary_per_child(case):
    """Bit i of the block mask says whether the box's closed shadow meets
    child i's, by interval overlap, and agrees with ``meets_boundary``
    for every child that does not strictly contain the box."""
    parent, box = case
    m = block_meets(box, parent)
    kids = children(parent)
    assert m >> len(kids) == 0
    for i, child in enumerate(kids):
        met = bool(m >> i & 1)
        assert met == (shadow_within(box, child) or shadow_within(child, box) or box_adjacent_overlap(box, child)), (i, child)
        if box == child or not shadow_within(box, child):
            assert met == meets_boundary(box, child), (i, child)


def test_box_adjacent_matches_interval_overlap(rng):
    for dim in (2, 3):
        for _ in range(3000):
            a = random_cell_in_root(rng, dim, min_level=-4)
            b = random_cell_in_root(rng, dim, min_level=-4)
            assert box_adjacent(a, b) == box_adjacent_overlap(a, b), (a, b)


def test_compressed_on_boundary_matches_filter(rng):
    for dim in (2, 3):
        for _ in range(40):
            tree = build_quadtree([random_cell_in_root(rng, dim, min_level=-9) for _ in range(30)])
            occupied = [n for n in tree.iter_nodes() if n.kind == COMPRESSED and n.count > 0]
            for _ in range(10):
                box = random_cell_in_root(rng, dim, min_level=-9)
                found = []
                compressed_on_boundary(tree.root, box, found)
                expected = [n for n in occupied if meets_boundary(n.cell, box)]
                assert sorted(found, key=id) == sorted(expected, key=id)
                assert sorted(compressed_on_boundary_from_root(tree, box), key=id) == sorted(expected, key=id)


def test_reference_scans_on_sampled_sets():
    rng = random.Random(7)
    for dim in (2, 3, 4):
        cells = [random_cell_in_root(rng, dim, min_level=-10) for _ in range(60)]
        _check_bridges(cells)


# -- the one-axis bridge pass (D = 2) ------------------------------------------


@st.composite
def one_axis_sets(draw):
    """D = 2 cell sets for the one-axis bridge pass.

    Kinds: continuous points over the whole float range, embedded (cell
    levels down to -1074, as in ``test_float_range.py``); clusters of
    boxes around a few points at depths down to 1,074 levels, each box
    an ancestor of its point or up to two boxes beside it, often near
    the bottom of the cluster or beside x = 1/2, with repeated cells;
    and the stacked lines of :func:`stacked_sets`.
    """
    kind = draw(st.sampled_from(["float_range", "clustered", "stacked"]))
    if kind == "float_range":
        points = draw(st.lists(st.builds(HPoint, st.tuples(coords), heights), min_size=1, max_size=12))
        try:
            return normalize_and_embed(points)[2]
        except ValueError:
            assume(False)
    if kind == "stacked":
        return draw(stacked_sets(2, margin=False))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        depth = draw(st.integers(1, -MIN_LEVEL))
        half = 1 << (depth - 1)
        x = draw(st.one_of(st.integers(0, (1 << depth) - 1), st.sampled_from([half - 1, half])))
        for _ in range(draw(st.integers(1, 8))):
            lev = draw(st.one_of(st.integers(1, depth), st.integers(max(1, depth - 6), depth)))
            k = (x >> (depth - lev)) + draw(st.integers(-2, 2))
            if 0 <= k < 1 << lev:
                cells.append(CellId(-lev, (k,)))
    assume(cells)
    cells += draw(st.lists(st.sampled_from(cells), max_size=4))
    return cells


def _check_against_general(cells):
    """The bridge pass against the coordinate loop, and on small trees
    against the all-pairs scan."""
    tree = build_quadtree(cells)
    bridges = enumerate_bridges(tree)
    assert bridges == enumerate_bridges_general(tree)
    if len(tree) <= 120:
        assert bridges == bridges_scan(tree)


@settings(max_examples=200, deadline=None)
@given(one_axis_sets())
@example([CellId(-2, (1,)), CellId(-3, (4,))])  # a stored box beside a lower node
@example([CellId(-5, (27,)), CellId(-5, (12,))])  # a gap bridge after the fix-up shift
@example([CellId(-4, (10,)), CellId(-4, (6,)), CellId(-3, (1,))])  # children exactly 2 apart
@example([CellId(-2, (1,)), CellId(-5, (2,))])  # a stored box with a child
def test_one_axis_bridges_match_general_loop(cells):
    _check_against_general(cells)


@pytest.mark.parametrize("g", [1, 2])
def test_one_axis_bridges_match_general_loop_on_deep_chain(g):
    """1,000 boxes around x = 3/10, one every ``g`` levels."""
    _check_against_general([CellId(-lev, ((3 << lev) // 10,)) for lev in range(2, g * 1000 + 2, g)])


def test_one_axis_bridges_match_general_loop_on_two_chains():
    """Two chains of 250 boxes each meeting at x = 1/2: every box of one
    touches every box of the other."""
    cells = [c for lev in range(3, 503, 2) for c in (CellId(-lev, ((1 << (lev - 1)) - 1,)), CellId(-lev - 1, (1 << lev,)))]
    _check_against_general(cells)
    assert len(enumerate_bridges(build_quadtree(cells))) == 499


# -- the per-axis extents (D >= 3) ---------------------------------------------


@st.composite
def extent_sets(draw):
    """D = 3-5 cell sets for the per-axis extent check: the stacked lines
    of :func:`stacked_sets`, or clusters of boxes around a few points,
    each box an ancestor of its point moved by up to two boxes on each
    axis, so neighbor boxes often hold children 2 apart on some axes
    and not on others."""
    dim = draw(st.integers(3, 5))
    if draw(st.booleans()):
        return draw(stacked_sets(dim, margin=False))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(1, 12))
        xs = [draw(st.integers(0, (1 << depth) - 1)) for _ in range(dim - 1)]
        for _ in range(draw(st.integers(1, 6))):
            lev = draw(st.integers(1, depth))
            ks = tuple((x >> (depth - lev)) + draw(st.integers(-2, 2)) for x in xs)
            if all(0 <= k < 1 << lev for k in ks):
                cells.append(CellId(-lev, ks))
    assume(cells)
    return cells


# The node at box (1, 1) of level -2 holds two children; the filler at
# (0, 0) (and at (3, 3)) leaves no two compressed nodes with inputs
# that touch.  The neighbor box (2, 1) holds one deep leaf in a
# compressed gap, so its topmost node lies below it; the diagonal
# neighbor (2, 2) holds children 2 apart from the node's on the first
# axis and 1 apart on the second.
EXTENT_BELOW = [CellId(-3, (2, 2)), CellId(-3, (3, 2)), CellId(-5, (16, 8)), CellId(-2, (0, 0))]
EXTENT_DIAGONAL = [CellId(-3, (2, 3)), CellId(-3, (3, 3)), CellId(-3, (4, 4)), CellId(-3, (5, 4))]
EXTENT_DIAGONAL += [CellId(-2, (0, 0)), CellId(-2, (3, 3))]


@settings(max_examples=150, deadline=None)
@given(extent_sets())
# a stored box with a lower child beside a stored leaf, and an ordinary
# node beside a stored leaf: the leaf has no children, so no extent
@example([CellId(-2, (1, 1)), CellId(-4, (7, 4)), CellId(-2, (2, 1))])
@example([CellId(-3, (2, 2)), CellId(-3, (3, 3)), CellId(-2, (2, 1))])
# a neighbor node lying below its box
@example(EXTENT_BELOW)
# a diagonal neighbor whose children are 2 apart on the first axis only
@example(EXTENT_DIAGONAL)
@example([CellId(-3, (2, 3, 1)), CellId(-3, (3, 3, 1)), CellId(-3, (4, 4, 2)), CellId(-3, (5, 4, 2))])
def test_bridges_match_general_loop_d3_to_d5(cells):
    _check_against_general(cells)


def test_extent_examples_decide_without_gap_paths(monkeypatch):
    """The bridge between the boxes (1, 1) and (2, 1) or (2, 2) at level
    -2 of the examples comes from the extent rule: no two compressed
    nodes with inputs touch, so no gap path is made."""

    def no_gap_path(*args):
        raise AssertionError("a gap bridge's d2-path")

    monkeypatch.setattr(spanner, "d2_path", no_gap_path)
    a = CellId(-2, (1, 1))
    assert Bridge.of(a, CellId(-2, (2, 1))) in enumerate_bridges(build_quadtree(EXTENT_BELOW))
    assert Bridge.of(a, CellId(-2, (2, 2))) in enumerate_bridges(build_quadtree(EXTENT_DIAGONAL))
    # children 1 apart on every axis: no bridge
    close = [CellId(-3, (3, 2)), CellId(-3, (3, 3)), CellId(-3, (4, 2)), CellId(-3, (4, 3)), CellId(-2, (0, 0))]
    bridges = enumerate_bridges(build_quadtree(close + [CellId(-2, (3, 0))]))
    assert Bridge.of(a, CellId(-2, (2, 1))) not in bridges


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bridges_build_two_cells_per_bridge_and_per_d2_path(monkeypatch, dim):
    """Cost guard: the pass builds the two cells of each kept bridge and
    the two apexes of each gap bridge's d2-path, and no neighbor cell;
    at D = 2 it makes no d2-path either."""
    points = sample_continuous(random.Random(3), dim, 120, STRATIFIED, min_level=-40)
    tree = build_quadtree(normalize_and_embed(points)[2])
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(spanner, "d2_path", counting("d2_path", spanner.d2_path))
    # the reference loop reads horizontal_neighbors from the tiling module
    monkeypatch.setattr(tiling, "horizontal_neighbors", counting("horizontal_neighbors", tiling.horizontal_neighbors))
    builds = CellBuilds(monkeypatch)
    bridges = enumerate_bridges(tree)
    assert builds.n == 2 * len(bridges) + 2 * calls["d2_path"]
    assert len(bridges) > 0 and not calls["horizontal_neighbors"]
    assert (calls["d2_path"] == 0) if dim == 2 else (calls["d2_path"] > 0)
    # both patches are live in the reference loop, which builds more
    calls.clear()
    assert builds.during(enumerate_bridges_general, tree) > 2 * len(bridges) + 2 * calls["d2_path"]
    assert calls["d2_path"] > 0 and calls["horizontal_neighbors"] > 0
