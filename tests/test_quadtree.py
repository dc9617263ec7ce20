import json
import math
import random

import pytest

from halfspace.avd import fill_highest
from halfspace.oracle import cell_query_scan
from halfspace.quadtree import (
    COMPRESSED,
    LEAF,
    ORDINARY,
    QuadTree,
    build_quadtree,
    meet,
    root_cell,
    shadow_within,
)
from halfspace.tiling import CellId, HPoint, ancestor_at, cell_of, children

from conftest import random_cell_in_root


def C(level, *coords):
    return CellId(level, tuple(coords))


def random_box_in_root(rng, dim=2, min_level=-7):
    level = rng.randint(min_level, 0)
    span = 1 << (-level)
    return CellId(level, tuple(rng.randrange(span) for _ in range(dim - 1)))


def check_structure(tree: QuadTree):
    """Structural invariants every tree must satisfy."""
    for node in tree.iter_nodes():
        for ch in node.children:
            assert ch.parent is node
            assert shadow_within(ch.cell, node.cell) and ch.cell != node.cell
        if node.kind == LEAF:
            assert not node.children
            # a leaf holds at most one input: its own box
            assert node.count <= 1
            if node.stored_index is not None:
                assert tree.points[node.stored_index] == node.cell
        elif node.kind == COMPRESSED:
            assert len(node.children) == 1
        elif node.kind == ORDINARY:
            assert len(node.children) == (1 << (tree.dim - 1))
            # in children() order: point location indexes them by bits
            assert [ch.cell for ch in node.children] == children(node.cell)
        assert node.count == (1 if node.stored_index is not None else 0) + sum(
            ch.count for ch in node.children
        )
    # every distinct input box is a node storing its first index
    for cell, idx in tree._index_of.items():
        node = tree.node_for(cell)
        assert node is not None and node.stored_index == idx


def check_paper_kinds(tree: QuadTree):
    """Built (unrefined, uninserted) trees: kinds match the construction rule."""
    for node in tree.iter_nodes():
        occupied = [ch for ch in node.children if ch.count > 0]
        if node.kind == ORDINARY and node.stored_index is None:
            assert len(occupied) >= 2
        if node.kind == COMPRESSED:
            assert node.stored_index is None
            child = node.children[0]
            # the child is the lowest box holding the same inputs,
            # recomputed here as the meet of the subtree's input cells
            assert child.count == node.count
            held = [
                c
                for c in tree._index_of
                if c.level <= node.cell.level and shadow_within(c, node.cell)
            ]
            assert held, node
            lowest = held[0]
            for c in held[1:]:
                lowest = meet(lowest, c)
            assert lowest == child.cell, (node.cell, child.cell, lowest)


def test_root_cell():
    assert root_cell(2) == C(0, 0)
    assert root_cell(3) == C(0, 0, 0)
    with pytest.raises(ValueError):
        root_cell(1)


def test_meet():
    assert meet(C(-2, 0), C(-2, 3)) == C(0, 0)
    assert meet(C(-3, 1), C(-1, 0)) == C(-1, 0)
    assert meet(C(-1, 0), C(-1, 0)) == C(-1, 0)


def test_single_point_tree():
    tree = build_quadtree([C(-3, 5)])
    kinds = [n.kind for n in tree.iter_nodes()]
    assert kinds == [COMPRESSED, LEAF]
    assert tree.root.children[0].cell == C(-3, 5)
    check_structure(tree)


def test_point_at_root():
    tree = build_quadtree([C(0, 0)])
    assert tree.root.kind == LEAF
    assert tree.root.stored_index == 0
    check_structure(tree)


def test_two_points_in_disjoint_children():
    tree = build_quadtree([C(-1, 0), C(-1, 1)])
    assert tree.root.kind == ORDINARY
    assert [ch.kind for ch in tree.root.children] == [LEAF, LEAF]
    check_structure(tree)


def test_nested_inputs_build():
    # one input strictly above another: both must become nodes
    tree = build_quadtree([C(-1, 0), C(-3, 1)])
    check_structure(tree)
    assert tree.node_for(C(-1, 0)).stored_index == 0
    assert tree.node_for(C(-3, 1)).stored_index == 1


def test_duplicate_points_keep_first_index():
    tree = build_quadtree([C(-2, 1), C(-2, 1), C(-2, 3)])
    assert tree.node_for(C(-2, 1)).stored_index == 0
    assert tree.root.count == 2  # distinct cells


def test_rejects_points_outside_root():
    with pytest.raises(ValueError):
        build_quadtree([C(1, 0)])
    with pytest.raises(ValueError):
        build_quadtree([C(-1, 2)])
    with pytest.raises(ValueError):
        build_quadtree([])


def test_random_trees_structure(rng):
    for dim in (2, 3):
        for trial in range(20):
            pts = [random_box_in_root(rng, dim) for _ in range(rng.randint(1, 40))]
            tree = build_quadtree(pts)
            check_structure(tree)
            check_paper_kinds(tree)


def test_node_count_linear(rng):
    # nodes per input stays bounded as n doubles (fixed D); depth scales
    # with n so the box space does not saturate
    ratios = []
    for n in (64, 128, 256, 512):
        pts = [random_box_in_root(rng, 2, min_level=-(n.bit_length() + 4)) for _ in range(n)]
        tree = build_quadtree(pts)
        ratios.append(len(tree) / n)
    assert max(ratios) < 4.0
    assert max(ratios) / min(ratios) < 1.6


# -- locate / partition ------------------------------------------------


def region_holds(tree: QuadTree, node, x):
    """Geometric membership of x in the node's box or annular region."""
    if node.kind == LEAF:
        return QuadTree.shadow_holds(node.cell, x)
    if node.kind == COMPRESSED:
        return QuadTree.shadow_holds(node.cell, x) and not QuadTree.shadow_holds(
            node.children[0].cell, x
        )
    return False


def test_locate_single_point_tree(rng):
    tree = build_quadtree([C(-2, 2)])
    leaf = tree.node_for(C(-2, 2))
    assert tree.locate((0.55,)) is leaf  # inside the stored box
    got = tree.locate((0.1,))
    assert got is tree.root and got.kind == COMPRESSED  # annulus


def test_locate_partition_montecarlo(rng):
    for dim, samples in ((2, 10_000), (3, 2000)):
        pts = [random_box_in_root(rng, dim) for _ in range(30)]
        tree = build_quadtree(pts)
        regions = [n for n in tree.iter_nodes() if n.kind in (LEAF, COMPRESSED)]
        for _ in range(samples):
            x = tuple(rng.random() for _ in range(dim - 1))
            node = tree.locate(x)
            assert region_holds(tree, node, x)
            owners = sum(1 for r in regions if region_holds(tree, r, x))
            assert owners == 1


def test_locate_subnormal_level():
    # a unit of x holds 2^1074 cells of level -1074; scaling x by that overflows a float
    p = HPoint((0.3,), 5e-324)
    tree = build_quadtree([cell_of(p)])
    node = tree.locate((0.3,))
    assert node.cell == cell_of(p)
    assert QuadTree.shadow_holds(node.cell, (0.3,))
    assert not QuadTree.shadow_holds(node.cell, (0.3000000000000001,))


def test_locate_lower_left_corner_of_deepest_box():
    # the corner lies in the deep box, not in the gap of its compressed parent
    for pts, x in (
        ([C(-1, 1), C(-40, 3)], (3 * 2.0**-40,)),
        ([C(-1, 1, 0), C(-40, 3, 5), C(-7, 0, 9)], (3 * 2.0**-40, 5 * 2.0**-40)),
    ):
        tree = build_quadtree(pts)
        for t in (tree, QuadTree.from_dict(tree.to_dict())):
            node = t.locate(x)
            assert node.cell == pts[1] and node.kind == LEAF
            assert node.parent.kind == COMPRESSED


def test_locate_rejects_outside():
    tree = build_quadtree([C(-1, 0)])
    with pytest.raises(ValueError):
        tree.locate((1.5,))
    with pytest.raises(ValueError):
        tree.locate((0.5, 0.5))


# -- cell queries ---------------------------------------------------------


def test_cell_query_stored_box():
    tree = build_quadtree([C(-2, 1), C(-2, 3)])
    node = tree.node_for(C(-2, 1))
    largest, smallest = tree.cell_query(C(-2, 1))
    assert largest is node and smallest is node


def test_cell_query_inside_compressed_region():
    tree = build_quadtree([C(-4, 0)])  # root compressed straight to the box
    largest, smallest = tree.cell_query(C(-3, 1))  # inside the annulus
    assert largest is None
    assert smallest is tree.root


def test_cell_query_matches_linear_scan(rng):
    for dim in (2, 3):
        for trial in range(12):
            pts = [random_box_in_root(rng, dim) for _ in range(rng.randint(1, 30))]
            tree = build_quadtree(pts)
            stored = [n.cell for n in tree.iter_nodes()]
            for _ in range(300):
                q = random_box_in_root(rng, dim)
                largest, smallest = tree.cell_query(q)
                ref_l, ref_s = cell_query_scan(stored, q)
                assert (largest.cell if largest else None) == ref_l, q
                assert (smallest.cell if smallest else None) == ref_s, q


def test_subtree_count_and_highest(rng):
    for dim in (2, 3):
        for trial in range(8):
            pts = [random_box_in_root(rng, dim) for _ in range(rng.randint(1, 25))]
            tree = build_quadtree(pts)
            if trial % 2:
                for _ in range(rng.randint(1, 12)):
                    tree.insert_box(random_box_in_root(rng, dim))
            fill_highest(tree)
            for _ in range(200):
                q = random_box_in_root(rng, dim)
                under = [i for i, c in enumerate(tree.points) if shadow_within(c, q)]
                assert tree.subtree_count(q) == len({tree.points[i] for i in under})
                highest = min(under, key=lambda i: (-tree.points[i].level, i), default=None)
                assert tree.highest_under(q) == highest


# -- insertion -------------------------------------------------------------


def test_insert_root_is_noop():
    tree = build_quadtree([C(-2, 1)])
    n_before = len(tree)
    tree.insert_box(root_cell(2))
    assert len(tree) == n_before


def test_insert_then_query_roundtrip(rng):
    tree = build_quadtree([C(-4, 3), C(-4, 9)])
    box = C(-2, 3)
    tree.insert_box(box)
    largest, smallest = tree.cell_query(box)
    assert largest.cell == box and smallest.cell == box
    check_structure(tree)


def test_insert_splits_compressed_edge(rng):
    tree = build_quadtree([C(-5, 0)])
    assert tree.root.kind == COMPRESSED
    tree.insert_box(C(-3, 1))  # in the annulus: forces a branch
    check_structure(tree)
    assert tree.node_for(C(-3, 1)) is not None
    assert tree.node_for(C(-5, 0)).count == 1


def test_insert_preserves_partition(rng):
    for trial in range(10):
        pts = [random_box_in_root(rng, 2) for _ in range(15)]
        tree = build_quadtree(pts)
        for _ in range(25):
            tree.insert_box(random_box_in_root(rng, 2))
        check_structure(tree)
        regions = [n for n in tree.iter_nodes() if n.kind in (LEAF, COMPRESSED)]
        for _ in range(1500):
            x = (rng.random(),)
            node = tree.locate(x)
            assert region_holds(tree, node, x)
            owners = sum(1 for r in regions if region_holds(tree, r, x))
            assert owners == 1
        # counts survive arbitrary insertion orders
        assert tree.root.count == len(tree._index_of)
        stored = [n.cell for n in tree.iter_nodes()]
        for _ in range(200):
            q = random_box_in_root(rng, 2)
            largest, smallest = tree.cell_query(q)
            ref_l, ref_s = cell_query_scan(stored, q)
            assert (largest.cell if largest else None) == ref_l
            assert (smallest.cell if smallest else None) == ref_s


def test_insert_fuzz_with_stepwise_validation(rng):
    for trial in range(12):
        dim = rng.choice([2, 3])
        pts = [random_box_in_root(rng, dim, min_level=-9) for _ in range(rng.randint(1, 8))]
        tree = build_quadtree(pts)
        for i in range(20):
            box = random_box_in_root(rng, dim, min_level=-10)
            node = tree.insert_box(box)
            assert node.cell == box or tree.node_for(box) is not None
            if i % 5 == 0:
                check_structure(tree)
        check_structure(tree)
        stored = [n.cell for n in tree.iter_nodes()]
        for _ in range(40):
            q = random_box_in_root(rng, dim, min_level=-10)
            largest, smallest = tree.cell_query(q)
            ref_l, ref_s = cell_query_scan(stored, q)
            assert (largest.cell if largest else None) == ref_l
            assert (smallest.cell if smallest else None) == ref_s


# -- serialization ----------------------------------------------------------


def test_serialization_roundtrip(rng):
    pts = [random_box_in_root(rng, 2) for _ in range(20)]
    tree = build_quadtree(pts)
    tree.insert_box(C(-1, 1))
    blob = json.dumps(tree.to_dict(), sort_keys=True)
    back = QuadTree.from_dict(json.loads(blob))
    assert json.dumps(back.to_dict(), sort_keys=True) == blob
    assert [n.cell for n in back.iter_nodes()] == [n.cell for n in tree.iter_nodes()]
    assert [n.kind for n in back.iter_nodes()] == [n.kind for n in tree.iter_nodes()]


def test_from_dict_rejects_misordered_children():
    data = build_quadtree([C(-1, 0), C(-1, 1)]).to_dict()
    assert [spec["parent"] for spec in data["nodes"]] == [None, 0, 0]
    QuadTree.from_dict(data)
    swapped = dict(data, nodes=[data["nodes"][0], data["nodes"][2], data["nodes"][1]])
    with pytest.raises(ValueError, match="children"):
        QuadTree.from_dict(swapped)
    stranger = dict(data, nodes=[data["nodes"][0], data["nodes"][1], dict(data["nodes"][2], cell=[-2, [3]])])
    with pytest.raises(ValueError, match="children"):
        QuadTree.from_dict(stranger)
