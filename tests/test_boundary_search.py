"""The pruned boundary descent, the neighbor pass and the carried
representative pass against the reference scans."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace import avd
from halfspace.avd import annotate, refine, select_representatives
from halfspace.quadtree import (
    COMPRESSED,
    QuadTree,
    box_adjacent,
    build_quadtree,
    meets_boundary,
    shadow_within,
)
from halfspace.sampling import sample_margin_cells
from halfspace.spanner import enumerate_bridges
from halfspace.tiling import CellId, ancestor_at, horizontal_neighbors

from conftest import random_cell_in_root
from reference import (
    annotate_scan,
    bridges_scan,
    representatives_scan,
    select_representatives_descent,
    touches_boundary,
)

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
    """The carried pass against the all-pairs scan and the per-region
    descent from the root it replaced."""
    base = build_quadtree(cells)
    refined = refine(base)
    annotate(refined)
    select_representatives(refined, base)
    carried = [node.reps for node in refined.iter_nodes()]
    assert carried == representatives_scan(refined, base)
    select_representatives_descent(refined, base)
    assert carried == [node.reps for node in refined.iter_nodes()]


def _check_bridges(cells):
    tree = build_quadtree(cells)
    assert enumerate_bridges(tree) == bridges_scan(tree)


def _check_neighbor_rows(tree):
    """Every entry is the topmost node under its box, by point location."""
    nodes = []
    for node, rows in tree.neighbor_rows():
        nodes.append(node)
        gap = 1 if node.parent is None else node.parent.cell.level - node.cell.level
        assert len(rows) == gap
        for j, row in enumerate(rows):
            box = ancestor_at(node.cell, node.cell.level + j)
            expected = [
                tree.cell_query(nb)[0] if tree.in_root(nb) else None
                for nb in horizontal_neighbors(box)
            ]
            assert row == expected, (node, j)
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
    # (dim, trees, most boxes, lowest level): the parity plan's bit order
    # depends on the dimension, and the rows grow as 3^(D-1)
    for dim, trees, most, low in ((2, 30, 25, -12), (3, 30, 25, -12), (4, 12, 12, -9), (5, 8, 8, -8)):
        for _ in range(trees):
            tree = build_quadtree([random_cell_in_root(rng, dim, min_level=low) for _ in range(rng.randint(1, most))])
            _check_neighbor_rows(tree)
            for _ in range(6):
                tree.insert_box(random_cell_in_root(rng, dim, min_level=low - 2))
            _check_neighbor_rows(tree)


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
    pass makes at most 5 boundary tests per refined node (the descent
    per region made about 670)."""
    chain = [CellId(-lev, ((3 << lev) // 10,)) for lev in range(2, 2002)]
    base = build_quadtree(chain)
    refined = refine(base)
    annotate(refined)
    calls = []
    test = avd.meets_boundary

    def counted(box, b):
        calls.append(box)
        return test(box, b)

    monkeypatch.setattr(avd, "meets_boundary", counted)
    select_representatives(refined, base)
    assert 0 < len(calls) <= 5 * len(refined)
    assert refined.nodes_by_cell[chain[-1]].reps == [len(chain) - 1]


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
    assert all(node.cell in refined.nodes_by_cell for node in base.iter_nodes())


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


def test_compressed_on_boundary_matches_filter(rng):
    for dim in (2, 3):
        for _ in range(40):
            tree = build_quadtree([random_cell_in_root(rng, dim, min_level=-9) for _ in range(30)])
            occupied = [n for n in tree.iter_nodes() if n.kind == COMPRESSED and n.count > 0]
            for _ in range(10):
                box = random_cell_in_root(rng, dim, min_level=-9)
                found = tree.compressed_on_boundary(box)
                expected = [n for n in occupied if meets_boundary(n.cell, box)]
                assert sorted(found, key=id) == sorted(expected, key=id)


def test_reference_scans_on_sampled_sets():
    rng = random.Random(7)
    for dim in (2, 3):
        cells = [random_cell_in_root(rng, dim, min_level=-10) for _ in range(60)]
        _check_bridges(cells)
