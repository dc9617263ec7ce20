"""The Z-order build against the recursive build and the splice
insertion it replaced (``quadtree_reference.py``), and on chains too
deep for them."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.avd import build_avd, query_hyperbolic, refine
from halfspace.hyperbolic import normalize_and_embed
from halfspace.quadtree import COMPRESSED, DEEPEST_LEVEL, LEAF, MAX_DIM, ORDINARY, QuadTree, build_quadtree, root_cell, zorder_key
from halfspace.sampling import sample_margin_cells
from halfspace.spanner import build_hyperbolic_spanner, build_spanner
from halfspace.tiling import CellId, HPoint, ancestor_at

from conftest import random_cell_in_root
from quadtree_reference import ReferenceQuadTree, reference_refine, shape
from reference import meet, vertical_edges_climb, zorder_key_format
from test_boundary_search import stacked_sets
from test_closed_form import CellBuilds


def C(level, *coords):
    return CellId(level, tuple(coords))


@st.composite
def random_sets(draw, max_dim=4):
    """Random boxes at D = 2..``max_dim`` with repeats, often around a
    nested chain (every level, or every few levels, of one deep box).
    Above D = 4, where an ordinary node has 16 or more children, the
    sets are smaller and the chains shallower."""
    dim = draw(st.integers(2, max_dim))
    small = dim > 4
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 6 if small else 14))
    cells = [random_cell_in_root(rng, dim, min_level=-draw(st.integers(1, 12))) for _ in range(n)]
    if draw(st.booleans()):
        deep = random_cell_in_root(rng, dim, min_level=-16 if small else -60)
        cells.extend(ancestor_at(deep, lev) for lev in range(deep.level, 1, draw(st.integers(1, 4))))
    if cells:
        cells.extend(rng.choice(cells) for _ in range(draw(st.integers(0, 3))))
    rng.shuffle(cells)
    return dim, cells, rng


# -- the build ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(random_sets(max_dim=MAX_DIM))
def test_build_matches_reference_on_random_sets(data):
    dim, cells, _ = data
    assert shape(QuadTree(dim, cells)) == shape(ReferenceQuadTree(dim, cells))


def _joined(dim, a, b, join):
    """The tree of inputs ``a`` and ``b``, checked against the recursive
    build, with ``join`` (their lowest common box, worked out by hand)
    a node."""
    assert meet(a, b) == join
    tree = QuadTree(dim, [a, b])
    assert shape(tree) == shape(ReferenceQuadTree(dim, [a, b]))
    assert tree.node_for(join).cell == join
    return tree


@pytest.mark.parametrize(
    "a, b, join",
    [
        # D = 3, two bits per level: the lifted keys' xor has 6 bits
        # (first axis, bit 2), so the join is 6 / 2 levels up; 7 bits
        # (last axis, bit 3) round up to 4 levels
        (C(-6, 40, 9), C(-6, 44, 9), C(-3, 5, 1)),
        (C(-6, 40, 9), C(-6, 40, 1), C(-2, 2, 0)),
        # the same bits with one key higher up, lifted to the lower one
        (C(-6, 40, 9), C(-4, 11, 2), C(-3, 5, 1)),
        (C(-6, 40, 9), C(-5, 20, 0), C(-2, 2, 0)),
        # D = 5, four bits per level: 8 bits (first axis, bit 1) and
        # 9 bits (last axis, bit 2)
        (C(-5, 7, 19, 3, 30), C(-5, 5, 19, 3, 30), C(-3, 1, 4, 0, 7)),
        (C(-5, 7, 19, 3, 30), C(-5, 7, 19, 3, 26), C(-2, 0, 2, 0, 3)),
        # keys differing only in the last axis, in its lowest bit
        (C(-4, 5, 6), C(-4, 5, 7), C(-3, 2, 3)),
        (C(-4, 5, 6, 9, 1), C(-4, 5, 6, 9, 0), C(-3, 2, 3, 4, 0)),
    ],
)
def test_join_at_the_bit_length_ceiling(a, b, join):
    tree = _joined(a.dim, a, b, join)
    assert tree.node_for(join).kind == ORDINARY


@pytest.mark.parametrize("dim", [2, 3])
def test_join_of_an_ancestor_and_its_descendant_is_the_ancestor(dim, monkeypatch):
    up, down = C(-2, *[1] * (dim - 1)), C(-5, *[9] * (dim - 1))
    tree = _joined(dim, up, down, up)
    assert [n.cell for n in tree.iter_nodes()].count(up) == 1
    # the ancestor's child cells and no join node
    builds = CellBuilds(monkeypatch)
    QuadTree(dim, [up, down])
    assert builds.trusted == 1 << (dim - 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_join_of_the_deepest_corners_is_the_root(dim):
    top = (1 << -DEEPEST_LEVEL) - 1
    a, b = C(DEEPEST_LEVEL, *[0] * (dim - 1)), C(DEEPEST_LEVEL, *[top] * (dim - 1))
    tree = _joined(dim, a, b, root_cell(dim))
    assert tree.root.kind == ORDINARY
    kids = tree.root.children
    assert [ch.kind for ch in (kids[0], kids[-1])] == [COMPRESSED, COMPRESSED]
    assert (kids[0].children[0].cell, kids[-1].children[0].cell) == (a, b)


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_joins_at_near_power_of_two_differences(axis):
    """Differences of 2^e and 2^e + 1 put the highest differing bit just
    below or at a level boundary, at D = 2 (``axis`` None) and in either
    axis at D = 3."""
    base = 1 << 1073
    for e in (0, 1, 2, 5, 100, 1000):
        for diff in ((1 << e) - 1, 1 << e, (1 << e) + 1, (4 << e) + 1, (5 << e) - 1, 5 << e):
            if axis is None:
                p, q = C(-1074, base), C(-1074, base + diff)
            else:
                other = [base, base]
                other[axis] += diff
                p, q = C(-1074, base, base), C(-1074, *other)
            _joined(p.dim, p, q, meet(p, q))


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_build_matches_reference_on_stacked_sets(dim, data):
    cells = data.draw(stacked_sets(dim, margin=False))
    assert shape(build_quadtree(cells)) == shape(ReferenceQuadTree(dim, cells))


def _check_edges_against_climb(graph):
    """The spanner's edges are its unit bridges, which join cells of one
    level, plus the edges of the level-by-level climb."""
    levels = [v.cell.level for v in graph.vertices]
    bridges = {(u, v, w) for u, v, w in graph.edges if levels[u] == levels[v] and w == 1.0}
    assert set(graph.edges) == bridges | vertical_edges_climb(graph)


@settings(max_examples=100, deadline=None)
@given(random_sets())
def test_spanner_vertical_edges_match_climb_on_random_sets(data):
    _dim, cells, _ = data
    if cells:
        _check_edges_against_climb(build_spanner(cells))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(-1075, 0), st.integers(0, 2**32), st.integers(1, 10))
def test_zorder_key_matches_format_reference(dim, low, seed, n):
    """The integer interleave orders root-shadow cells down to level
    ``low`` as the string-formatted one did, pair by pair; each cell
    comes with an ancestor (the tie rule) and level ``low`` with both
    extreme corners."""
    rng = random.Random(seed)
    top = (1 << -low) - 1
    cells = [C(low, *[0] * (dim - 1)), C(low, *[top] * (dim - 1))]
    for _ in range(n):
        cell = random_cell_in_root(rng, dim, min_level=low)
        cells += [cell, ancestor_at(cell, rng.randint(cell.level, 0))]
    key, ref = zorder_key(low, dim - 1), zorder_key_format(low, dim - 1)
    assert sorted(cells, key=key) == sorted(cells, key=ref)
    keys, refs = [key(c) for c in cells], [ref(c) for c in cells]
    for a, ra in zip(keys, refs):
        for b, rb in zip(keys, refs):
            assert (a < b, a == b) == (ra < rb, ra == rb)


def test_stored_box_over_stored_box_is_ordinary():
    tree = QuadTree(2, [C(-1, 0), C(-3, 1)])
    assert tree.node_for(C(-1, 0)).kind == ORDINARY
    assert [ch.kind for ch in tree.node_for(C(-1, 0)).children] == [COMPRESSED, LEAF]


def test_stored_box_over_required_box_is_compressed():
    # an input with only boxes that store nothing below it keeps one
    # child, as when a box is hung under a stored leaf
    tree = QuadTree(2, [C(-1, 0)], [C(-3, 1)])
    node = tree.node_for(C(-1, 0))
    assert (node.kind, node.stored_index, node.count) == (COMPRESSED, 0, 1)
    assert [ch.cell for ch in node.children] == [C(-3, 1)]
    assert shape(tree) == shape(_inserted(ReferenceQuadTree(2, [C(-1, 0)]), [C(-3, 1)]))


def test_meets_of_adjacent_keys_become_nodes():
    # no key sits at Cell(-1;[0]), the meet of the two deep boxes
    tree = QuadTree(2, [C(-3, 0), C(-3, 3), C(-1, 1)])
    assert tree.node_for(C(-1, 0)).kind == ORDINARY
    assert shape(tree) == shape(ReferenceQuadTree(2, [C(-3, 0), C(-3, 3), C(-1, 1)]))


def test_boxes_outside_the_root_are_rejected():
    with pytest.raises(ValueError, match="outside"):
        QuadTree(2, [C(-2, 1)], [C(-2, 4)])
    with pytest.raises(ValueError, match="dimension"):
        QuadTree(2, [C(-2, 1)], [C(-2, 1, 1)])


# -- refinement and insertion ---------------------------------------------------


def _inserted(tree, boxes):
    for box in boxes:
        node = tree.insert_box(box)
        assert node is tree.node_for(box)
    return tree


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_refine_matches_reference_insertions(dim, data):
    cells = data.draw(stacked_sets(dim, margin=True))
    base = build_quadtree(cells)
    assert shape(refine(base)) == shape(reference_refine(base))


def test_refine_matches_reference_on_margin_samples(rng):
    for dim in (2, 3, 4):
        for n in (1, 5, 30):
            base = build_quadtree(sample_margin_cells(rng, dim, n, min_level=-12))
            assert shape(refine(base)) == shape(reference_refine(base))


@settings(max_examples=80, deadline=None)
@given(random_sets(), st.integers(1, 8), st.booleans())
def test_insert_box_matches_reference_insertion(data, n_boxes, loaded):
    dim, cells, rng = data
    tree, ref = QuadTree(dim, cells), ReferenceQuadTree(dim, cells)
    if loaded:
        tree = QuadTree.from_dict(tree.to_dict())
        ref = ReferenceQuadTree.from_dict(ref.to_dict())
    boxes = [random_cell_in_root(rng, dim, min_level=-14) for _ in range(n_boxes)]
    for box in boxes:
        assert tree.insert_box(box) is tree.node_for(box)
        ref.insert_box(box)
        assert shape(tree) == shape(ref)
    # the splice insertions, in any order, give the tree built with the boxes
    rng.shuffle(boxes)
    assert shape(QuadTree(dim, cells, boxes)) == shape(_inserted(ReferenceQuadTree(dim, cells), boxes))


def test_insert_existing_box_keeps_the_nodes():
    tree = build_quadtree([C(-3, 1), C(-3, 6)])
    nodes = list(tree.iter_nodes())
    node = tree.node_for(C(-3, 1))
    assert tree.insert_box(C(-3, 1)) is node
    assert list(tree.iter_nodes()) == nodes


# -- depth --------------------------------------------------------------------


def _chain(n):
    """``n`` nested boxes around x = 3/10, one per level from -2 down."""
    return [C(-lev, (3 << lev) // 10) for lev in range(2, n + 2)]


def test_build_3000_box_chain():
    chain = _chain(3000)
    tree = build_quadtree(chain)
    assert len(tree) == 6000
    assert tree.smallest_containing(chain[-1]).stored_index == 2999
    g = build_spanner(chain)
    assert (len(g.vertices), len(g.edges)) == (3000, 2999)
    assert all(w == 1.0 for _u, _v, w in g.edges)
    _check_edges_against_climb(g)


def test_build_1074_nested_continuous_inputs():
    # the deepest chain cell_of produces: heights 1.5 * 2^-lev down to
    # the smallest subnormals
    pts = [HPoint((0.3,), 1.5 * 2.0**-lev) for lev in range(1074)]
    ix = build_avd(pts)
    assert ix.tree.root.count == 1074
    assert query_hyperbolic(ix, pts[-1]) == 1073
    assert query_hyperbolic(ix, pts[500]) == 500
    g = build_hyperbolic_spanner(pts, 2)
    assert sorted(v.input_index for v in g.vertices if v.kind == "input") == list(range(1074))
    assert all(0.0 <= w < math.inf for _u, _v, w in g.edges)
    _check_edges_against_climb(build_spanner(normalize_and_embed(pts)[2]))


def _chain_400():
    x = (1 << 399) + 0x5A5A5
    return [CellId(-lev, (x >> (400 - lev),)) for lev in range(1, 401)]


def test_build_constructs_at_most_4_cells_per_box_down_a_400_level_chain(monkeypatch):
    """Cost guard: the child cells of each ordinary node and the join
    nodes, not a regrouping per level."""
    chain = _chain_400()
    builds = CellBuilds(monkeypatch)
    assert builds.during(build_quadtree, chain) <= 4 * len(chain)
    # the recursive build regroups every box below each level
    assert builds.during(ReferenceQuadTree, 2, chain) > 50 * len(chain)


@pytest.mark.parametrize(
    "dim, cells, made",
    [
        (2, _chain_400(), 399),
        (3, sample_margin_cells(random.Random(11), 3, 128), 126),
    ],
    ids=["chain-400", "margin-d3-128"],
)
def test_build_makes_only_child_cells_and_joins(dim, cells, made, monkeypatch):
    """Cost guard: besides the root cell a build makes one cell per node
    it keeps that is no key: an empty child slot, a compressed node over
    a lower key, or a join.  It makes none per child slot a key already
    fills and none per pair of Z-order neighbors."""
    builds = CellBuilds(monkeypatch)
    tree = build_quadtree(cells)
    n = builds.trusted
    keys = {*cells, root_cell(dim)}
    kept = [node for node in tree.iter_nodes() if node.cell not in keys]
    empty = sum(1 for node in kept if node.kind == LEAF)
    compressed = sum(1 for node in kept if node.kind == COMPRESSED)
    joins = sum(1 for node in kept if node.kind == ORDINARY)
    assert n == empty + compressed + joins == made
