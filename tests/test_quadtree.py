import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.avd import AvdIndex, build_avd, fill_highest, refine
from halfspace.oracle import cell_query_scan
from halfspace.quadtree import (
    COMPRESSED,
    DEEPEST_LEVEL,
    LEAF,
    MAX_DIM,
    ORDINARY,
    QuadTree,
    build_quadtree,
    root_cell,
    shadow_within,
)
from halfspace.sampling import sample_margin_cells
from halfspace.tiling import CellId, HPoint, cell_of, children

from conftest import random_cell_in_root
from reference import meet


def C(level, *coords):
    return CellId(level, tuple(coords))


def random_box_in_root(rng, dim=2, min_level=-7):
    level = rng.randint(min_level, 0)
    span = 1 << (-level)
    return CellId(level, tuple(rng.randrange(span) for _ in range(dim - 1)))


def check_structure(tree: QuadTree):
    """Structural invariants every tree must satisfy."""
    # to_dict's parent indices rebuild every node's children, in order
    nodes = list(tree.iter_nodes())
    below = [[] for _ in nodes]
    for k, spec in enumerate(tree.to_dict()["nodes"]):
        assert (spec["parent"] is None) == (k == 0)
        if k:
            below[spec["parent"]].append(nodes[k])
    assert all(b == node.children for node, b in zip(nodes, below))
    for node in nodes:
        for ch in node.children:
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
    # node cells are distinct, and every distinct input box is a node
    # storing its first index
    by_cell = {node.cell: node for node in nodes}
    assert len(by_cell) == len(nodes)
    for cell in set(tree.points):
        node = by_cell.get(cell)
        assert node is not None and node.stored_index == tree.points.index(cell)


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
                for c in set(tree.points)
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


# Keys at level -10**30 made the Z-order sort and locate shift by
# 10**30 bits: an OverflowError instead of a ValueError.


def test_build_level_minus_10_pow_30():
    with pytest.raises(ValueError, match=r"Cell\(-10{30};\[0\]\) lies below level -14284"):
        build_quadtree([C(-2, 1), C(-(10**30), 0)])


def test_insert_box_level_minus_10_pow_30():
    tree = build_quadtree([C(-2, 1)])
    with pytest.raises(ValueError, match=r"Cell\(-10{30};\[0\]\) lies below level -14284"):
        tree.insert_box(C(-(10**30), 0))


def test_from_dict_node_level_minus_10_pow_30():
    # loaded, and locate((0.1,)) then floored x one level below it
    data = QuadTree(2, [C(-2, 1)], [C(-3, 0)]).to_dict()
    (k,) = [k for k, node in enumerate(data["nodes"]) if node["cell"] == [-3, [0]]]
    data["nodes"][k]["cell"] = [-(10**30), [0]]
    with pytest.raises(ValueError, match=rf"node {k}'s cell Cell\(-10{{30}};\[0\]\) lies below level -14284"):
        QuadTree.from_dict(data)


def test_from_dict_point_level_minus_10_pow_30():
    data = build_quadtree([C(-3, 0)]).to_dict()
    data["points"][0] = [-(10**30), [0]]
    for node in data["nodes"]:
        if node["cell"] == [-3, [0]]:
            node["cell"] = [-(10**30), [0]]
    with pytest.raises(ValueError, match=r"point 0's cell Cell\(-10{30};\[0\]\) lies below level -14284"):
        QuadTree.from_dict(data)


# A coordinate past Python's 4,300-digit limit for int to str
# conversion made CellId's repr raise, so the message naming the cell
# reported the digit limit instead of its own text.


def test_quadtree_cell_at_level_minus_70000_coordinate_3_shl_69998():
    with pytest.raises(ValueError, match=r"^Cell\(-70000;\[<70000-bit int>\]\) lies below level -14284, the deepest"):
        QuadTree(2, [C(-70000, 3 << 69998)])


# A tree took keys down to level -65536 but json.dumps cannot write a
# coordinate past 4,300 digits: build_avd on this input made an index
# whose to_json raised json's bare digit-limit error, naming no node.


def test_build_avd_cell_at_level_minus_14300_coordinate_3_shl_14297():
    with pytest.raises(ValueError, match=r"^Cell\(-14300;\[<14299-bit int>\]\) lies below level -14284, the deepest"):
        build_avd([C(-14300, 3 << 14297), C(-2, 1)])


def test_index_at_deepest_level_with_the_largest_coordinate_round_trips():
    # the largest coordinate at DEEPEST_LEVEL has 4,300 digits; in the
    # margin [1/4, 1/2] that build_avd's discrete inputs need, the
    # largest is one bit shorter and has 4,300 digits too
    top, margin_top = (1 << -DEEPEST_LEVEL) - 1, (1 << (-DEEPEST_LEVEL - 1)) - 1
    assert len(str(top)) == len(str(margin_top)) == 4300
    text = build_avd([C(DEEPEST_LEVEL, margin_top), C(-2, 1)]).to_json()
    assert AvdIndex.from_json(text).to_json() == text
    tree = build_quadtree([C(DEEPEST_LEVEL, top), C(-2, 1)])
    data = json.loads(json.dumps(tree.to_dict()))
    assert QuadTree.from_dict(data).to_dict() == tree.to_dict()
    # one level lower is refused, naming the cell
    with pytest.raises(ValueError, match=rf"^Cell\({DEEPEST_LEVEL - 1};\[{top}\]\) lies below level {DEEPEST_LEVEL}"):
        build_avd([C(DEEPEST_LEVEL - 1, top), C(-2, 1)])


def test_deepest_level_builds_and_locates():
    tree = build_quadtree([C(DEEPEST_LEVEL, 1), C(-2, 1)])
    # locate floors x one level below the deepest node
    assert tree.locate((0.1,)).cell == C(-2, 0)
    assert QuadTree.from_dict(tree.to_dict()).to_dict() == tree.to_dict()


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
            (up,) = [n for n in t.iter_nodes() if any(ch is node for ch in n.children)]
            assert up.kind == COMPRESSED


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
                node = tree.cell_query(q)[0]
                assert (0 if node is None else node.count) == len({tree.points[i] for i in under})
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
        assert tree.root.count == len(set(tree.points))
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


def test_from_dict_node_1_parent_5():
    # a parent index past the node used to raise IndexError
    data = build_quadtree([C(-2, 0), C(-2, 3), C(-3, 5)]).to_dict()
    assert len(data["nodes"]) > 5
    data["nodes"][1] = dict(data["nodes"][1], parent=5)
    with pytest.raises(ValueError, match="parent 5"):
        QuadTree.from_dict(data)


@pytest.mark.parametrize("k, parent", [(0, 0), (1, None), (1, 1), (2, -1), (2, 0.0)])
def test_from_dict_rejects_parent_not_earlier(k, parent):
    data = build_quadtree([C(-2, 0), C(-2, 3), C(-3, 5)]).to_dict()
    data["nodes"][k] = dict(data["nodes"][k], parent=parent)
    with pytest.raises(ValueError, match="parent"):
        QuadTree.from_dict(data)


def test_from_dict_no_nodes():
    data = build_quadtree([C(-2, 0)]).to_dict()
    with pytest.raises(ValueError, match="root"):
        QuadTree.from_dict(dict(data, nodes=[]))


@pytest.mark.parametrize("stored", [3, -1, 1.0])
def test_from_dict_rejects_stored_outside_points(stored):
    data = build_quadtree([C(-2, 0), C(-2, 3), C(-3, 5)]).to_dict()
    data["nodes"][-1] = dict(data["nodes"][-1], stored=stored)
    with pytest.raises(ValueError, match="range\\(3\\)"):
        QuadTree.from_dict(data)


def test_from_dict_cell_minus_2_1_stored_2():
    # loaded, and then the node reported input 2 while stored_index said 0
    data = build_quadtree([C(-2, 1), C(-3, 3), C(-4, 5)]).to_dict()
    (k,) = [k for k, spec in enumerate(data["nodes"]) if spec["cell"] == [-2, [1]]]
    data["nodes"][k] = dict(data["nodes"][k], stored=2)
    with pytest.raises(ValueError, match=f"node {k} Cell\\(-2;\\[1\\]\\) stores 2, but its cell is first input 0"):
        QuadTree.from_dict(data)


def test_from_dict_cell_minus_2_1_stored_null():
    # the node at input 0's cell stores nothing: node cells are distinct,
    # so no node stores input 0
    data = build_quadtree([C(-2, 1), C(-3, 3), C(-4, 5)]).to_dict()
    (k,) = [k for k, spec in enumerate(data["nodes"]) if spec["cell"] == [-2, [1]]]
    data["nodes"][k] = dict(data["nodes"][k], stored=None)
    with pytest.raises(ValueError, match="input 0 Cell\\(-2;\\[1\\]\\) has no node storing it"):
        QuadTree.from_dict(data)


def test_from_dict_cell_minus_3_2_stored_0():
    # the compressed node over Cell(-4;[5]) stores no input
    data = build_quadtree([C(-2, 1), C(-3, 3), C(-4, 5)]).to_dict()
    (k,) = [k for k, spec in enumerate(data["nodes"]) if spec["cell"] == [-3, [2]]]
    data["nodes"][k] = dict(data["nodes"][k], stored=0)
    with pytest.raises(ValueError, match=f"node {k} .* stores 0, but its cell is no input"):
        QuadTree.from_dict(data)


def test_from_dict_extra_point_minus_5_0():
    # a point no node stores
    data = build_quadtree([C(-2, 1), C(-3, 3), C(-4, 5)]).to_dict()
    data["points"].append([-5, [0]])
    with pytest.raises(ValueError, match="input 3 Cell\\(-5;\\[0\\]\\) has no node storing it"):
        QuadTree.from_dict(data)


def _edited_tree(path, value):
    """The dict of the tree over Cell(-2;[0]), Cell(-2;[3]) and
    Cell(-3;[5]), with one entry replaced; ``path`` is a key sequence."""
    data = json.loads(json.dumps(build_quadtree([C(-2, 0), C(-2, 3), C(-3, 5)]).to_dict()))
    if path == ("nodes", -1):  # drop the last node
        data["nodes"].pop()
        return data
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return data


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("dim",), 2.0, "dim 2.0"),
        (("dim",), True, "dim True"),
        (("points", 0), [-2, [4]], "point 0's cell"),
        (("points", 1), [1, [0]], "point 1's cell"),
        (("points", 2), [-3.0, [5]], "point 2's cell"),
        (("points", 0), [-2, [True]], "point 0's cell"),
        (("points", 0), [-2, [0, 0]], "point 0's cell"),
        (("nodes", 0, "cell"), [-1, [0]], "node 0 is the root"),
        (("nodes", 2, "cell"), [-2, [0, 0]], "node 2's cell"),
        (("nodes", 2, "cell"), [-2.0, [0]], "node 2's cell"),
        (("nodes", 2, "cell"), [False, [0]], "node 2's cell"),
        (("nodes", 5, "cell"), [-3, [8]], "node 5's cell"),
        (("nodes", 2, "kind"), "Leaf", "node 2's kind 'Leaf'"),
        (("nodes", 1, "kind"), "leaf", "node 2 .* leaf node 1"),
        (("nodes", 3, "kind"), "compressed", "node 6 .* compressed node 3"),
        (("nodes", 0, "kind"), "compressed", "node 3 .* compressed node 0"),
        (("nodes", 5, "cell"), [-2, [2]], "node 5 .* compressed node 4"),
        (("nodes", 5, "cell"), [-3, [6]], "node 5 .* compressed node 4"),
        (("nodes", 2, "kind"), "compressed", "compressed node 2 .* has 0 children, not 1"),
        (("nodes", 4, "kind"), "ordinary", "node 5 .* not child 0 of ordinary node 4"),
        (("nodes", -1), None, "ordinary node 3 .* has 1 children, not 2"),
    ],
)
def test_from_dict_rejects_cells_and_shapes_point_location_cannot_use(path, value, match):
    # each of these loaded, and a query through it could end in a
    # TypeError or IndexError or silently descend into the wrong node
    with pytest.raises(ValueError, match=match):
        QuadTree.from_dict(_edited_tree(path, value))


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("points",), 5, "JSON array of points and one of nodes"),
        (("nodes",), None, "JSON array of points and one of nodes"),
        (("nodes", 2), 7, "node 2 is no JSON object: 7"),
        (("nodes", 2, "kind"), [], "node 2's kind \\[\\]"),
    ],
    ids=["points_5", "nodes_null", "node_2_is_7", "node_2_kind_empty_list"],
)
def test_from_dict_entry_of_another_type(path, value, match):
    # each of these ended in a TypeError while loading
    with pytest.raises(ValueError, match=match):
        QuadTree.from_dict(_edited_tree(path, value))


def test_from_dict_top_level_list():
    with pytest.raises(ValueError, match="tree is no JSON object"):
        QuadTree.from_dict([_edited_tree(("dim",), 2)])


def test_from_dict_dim_10_pow_30_without_points():
    # root_cell(10**30) raised OverflowError before node 0 was read
    data = _edited_tree(("dim",), 10**30)
    data["points"] = []
    with pytest.raises(ValueError, match="node 0's cell"):
        QuadTree.from_dict(data)


def test_from_dict_node_2_without_parent():
    data = _edited_tree(("dim",), 2)
    del data["nodes"][2]["parent"]
    with pytest.raises(ValueError, match="node 2 has no key 'parent'"):
        QuadTree.from_dict(data)


# -- lookups by cell against linear scans ------------------------------------


@st.composite
def trees_for_lookups(draw):
    """A tree at D = 2..4, built, refined, loaded or grown by
    insert_box, with its highest inputs filled, and boxes to look up:
    node cells, cells right below nodes, input cells and random cells
    of the root shadow, plus cells above the root level, past the
    shadow, with negative coordinates and of another dimension."""
    dim = draw(st.integers(2, 4))
    form = draw(st.sampled_from(["built", "refined", "loaded", "inserted"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 20))
    if form == "refined":
        tree = refine(build_quadtree(sample_margin_cells(rng, dim, n, min_level=-8)))
    else:
        cells = [random_cell_in_root(rng, dim, min_level=-draw(st.integers(1, 12))) for _ in range(n)]
        cells += [rng.choice(cells) for _ in range(draw(st.integers(0, 3)))]
        tree = build_quadtree(cells)
        if form == "loaded":
            tree = QuadTree.from_dict(tree.to_dict())
        elif form == "inserted":
            for _ in range(draw(st.integers(1, 6))):
                tree.insert_box(random_cell_in_root(rng, dim, min_level=-14))
    fill_highest(tree)
    boxes = list(tree.points)
    for node in rng.sample(list(tree.iter_nodes()), min(len(tree), 25)):
        boxes.append(node.cell)
        boxes.append(rng.choice(children(node.cell)))
    boxes += [random_cell_in_root(rng, dim, min_level=-16) for _ in range(20)]
    axes = range(dim - 1)
    for _ in range(4):
        lev = -rng.randint(0, 10)
        boxes.append(CellId(rng.randint(1, 3), tuple(rng.randint(0, 3) for _ in axes)))
        boxes.append(CellId(lev, tuple((1 << -lev) + rng.randint(0, 5) if j == 0 else 0 for j in axes)))
        boxes.append(CellId(lev, tuple(-rng.randint(1, 5) if j == dim - 2 else 0 for j in axes)))
        boxes.append(random_cell_in_root(rng, rng.choice([d for d in (2, 3, 4, 5) if d != dim]), min_level=-6))
    return tree, boxes


@settings(max_examples=120, deadline=None)
@given(trees_for_lookups())
def test_lookups_match_linear_scans(data):
    tree, boxes = data
    # the tree holds its root, nodes and points: no table by cell
    assert not [key for key, value in vars(tree).items() if isinstance(value, dict)]
    nodes = list(tree.iter_nodes())
    stored = [node.cell for node in nodes]
    points = tree.points
    for box in boxes:
        at_box = [node for node in nodes if node.cell == box]
        assert tree.node_for(box) is (at_box[0] if at_box else None)
        firsts = [i for i, c in enumerate(points) if c == box]
        assert tree.stored_index(box) == (firsts[0] if firsts else None)
        inside = box.dim == tree.dim and box.level <= 0 and all(0 <= k < 2**-box.level for k in box.coords)
        if not inside:
            for lookup in (tree.highest_under, tree.cell_query):
                with pytest.raises(ValueError):
                    lookup(box)
            continue
        under = [i for i, c in enumerate(points) if shadow_within(c, box)]
        largest, smallest = tree.cell_query(box)
        assert (0 if largest is None else largest.count) == len({points[i] for i in under})
        assert tree.highest_under(box) == min(under, key=lambda i: (-points[i].level, i), default=None)
        assert (largest and largest.cell, smallest.cell) == cell_query_scan(stored, box)


def test_quadtree_dim_8_builds():
    cells = [CellId(-2, (1,) * 7), CellId(-3, (2,) * 7)]
    tree = build_quadtree(cells)
    assert MAX_DIM == 8 and tree.dim == 8
    assert [tree.stored_index(c) for c in cells] == [0, 1]


@pytest.mark.parametrize("dim", [9, 40, 10**30])
def test_quadtree_dim_above_max_raises_naming_it(dim):
    # checked before the root cell's dim - 1 coordinates are made
    with pytest.raises(ValueError, match=f"dimension {dim} is above 8, the highest a tree takes"):
        QuadTree(dim, [CellId(-2, (1, 1))])
