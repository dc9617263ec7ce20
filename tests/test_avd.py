import gc
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.avd import AvdIndex, annotate, build_avd, fill_highest, query, query_hyperbolic, refine
from halfspace.hyperbolic import hyperbolic_distance
from halfspace.metrics import d2
from halfspace.oracle import nn_bruteforce
from halfspace.quadtree import COMPRESSED, LEAF, ORDINARY, QuadTree, build_quadtree, shadow_within
from halfspace.spanner import build_embedding_graph, build_hyperbolic_spanner, build_spanner
from halfspace.tiling import CellId, HPoint, is_ancestor_or_self

from reference import annotate_scan


def C(level, *coords):
    return CellId(level, tuple(coords))


def random_margin_cell(rng, dim, min_level=-8):
    """A cell whose center x-coordinates sit inside [1/4, 1/2]."""
    while True:
        level = rng.randint(min_level, -1)
        t = -1 - level
        lo, hi = 1 << t, 1 << (t + 1)
        coords = []
        for _ in range(dim - 1):
            ks = [k for k in range(1 << (-level)) if lo <= 2 * k + 1 <= hi]
            if not ks:
                break
            coords.append(rng.choice(ks))
        else:
            return CellId(level, tuple(coords))


def random_query_cell(rng, dim, min_level=-9):
    level = rng.randint(min_level, 0)
    span = 1 << (-level)
    return CellId(level, tuple(rng.randrange(span) for _ in range(dim - 1)))


def random_hpoint(rng, dim=2):
    return HPoint(tuple(rng.uniform(-10, 10) for _ in range(dim - 1)), rng.uniform(0.05, 9.0))


# -- refinement -------------------------------------------------------------


def test_refine_rejects_margin_violation():
    tree = build_quadtree([C(-1, 1)])  # center x = 0.75
    with pytest.raises(ValueError):
        refine(tree)


def test_refine_inserts_neighbors():
    pts = [C(-2, 1)]
    refined = refine(build_quadtree(pts))
    assert refined.node_for(C(-2, 0)) is not None
    assert refined.node_for(C(-2, 2)) is not None


def test_refine_strictly_refines(rng):
    # the refined subdivision refines the original: every original box is
    # still a node, so no refined region straddles an original boundary
    for dim in (2, 3):
        pts = [random_margin_cell(rng, dim) for _ in range(12)]
        base = build_quadtree(pts)
        refined = refine(base)
        base_cells = {node.cell for node in base.iter_nodes()}
        assert base_cells <= {node.cell for node in refined.iter_nodes()}
        # a compressed region of the refined tree never has an original
        # box strictly between its outer and inner boxes
        for node in refined.iter_nodes():
            if node.kind != COMPRESSED:
                continue
            outer, inner = node.cell, node.children[0].cell
            for b in base_cells:
                strictly_between = (
                    shadow_within(inner, b)
                    and shadow_within(b, outer)
                    and b not in (inner, outer)
                )
                assert not strictly_between, (outer, inner, b)
        assert len(refined) >= len(base)


def test_refine_node_growth_bounded(rng):
    for dim in (2, 3):
        pts = [random_margin_cell(rng, dim) for _ in range(40)]
        base = build_quadtree(pts)
        refined = refine(base)
        assert len(refined) <= 40 * len(base)  # loose sanity bound, reported below


# -- annotation ---------------------------------------------------------------


def test_fill_highest_single_point():
    tree = build_quadtree([C(-3, 2)])
    fill_highest(tree)
    assert tree.root.h_index == 0


def test_annotate_singleton():
    ix = build_avd([C(-3, 2)])
    for node in ix.tree.iter_nodes():
        assert node.n2_index == 0


def test_annotate_vertical_pair():
    # one input directly below another
    pts = [C(-2, 1), C(-5, 13)]
    assert is_ancestor_or_self(pts[0], pts[1])
    ix = build_avd(pts)
    for node in ix.tree.iter_nodes():
        ref = nn_bruteforce(pts, node.cell, "d2")
        assert node.n2_index == ref


def test_annotate_matches_bruteforce(rng):
    for trial in range(12):
        dim = rng.choice([2, 3])
        pts = [random_margin_cell(rng, dim) for _ in range(rng.randint(1, 30))]
        ix = build_avd(pts)
        for node in ix.tree.iter_nodes():
            assert node.n2_index == nn_bruteforce(pts, node.cell, "d2"), node.cell


# -- regions ------------------------------------------------------------------


def region_contains(node, q: CellId) -> bool:
    if node.kind == ORDINARY:
        return node.cell == q
    below = q.level <= node.cell.level and shadow_within(q, node.cell)
    if node.kind == LEAF:
        return below
    inner = node.children[0].cell
    below_inner = q.level <= inner.level and shadow_within(q, inner)
    return below and not below_inner


def test_region_partition(rng):
    pts = [random_margin_cell(rng, 2) for _ in range(20)]
    ix = build_avd(pts)
    nodes = list(ix.tree.iter_nodes())
    for _ in range(1500):
        q = random_query_cell(rng, 2)
        node = ix.region_of(q)
        assert region_contains(node, q)
        assert sum(1 for n in nodes if region_contains(n, q)) == 1


def test_representative_lists_contain_n2():
    ix = build_avd([C(-3, 2), C(-4, 5), C(-5, 11)])
    for node in ix.tree.iter_nodes():
        assert node.n2_index in node.reps


def test_representative_count_bounded(rng):
    for dim in (2, 3):
        sizes = []
        for n in (24, 48, 96):
            pts = [random_margin_cell(rng, dim) for _ in range(n)]
            ix = build_avd(pts)
            sizes.append(max(len(node.reps) for node in ix.tree.iter_nodes()))
        assert max(sizes) <= 24  # measured bound, independent of n
        assert max(sizes) - min(sizes) <= 4


def test_adjacent_compressed_count_bounded(rng):
    # the number of unrefined compressed nodes touching any refined leaf
    # stays a small constant; this is what caps the representative lists
    from halfspace.quadtree import box_adjacent

    for dim in (2, 3):
        worst = 0
        for n in (24, 48, 96):
            pts = [random_margin_cell(rng, dim) for _ in range(n)]
            base = build_quadtree(pts)
            refined = refine(base)
            compressed = [nd for nd in base.iter_nodes() if nd.kind == COMPRESSED and nd.count > 0]
            for node in refined.iter_nodes():
                if node.kind != LEAF:
                    continue
                touching = sum(1 for nu in compressed if box_adjacent(nu.cell, node.cell))
                worst = max(worst, touching)
        assert worst <= 3 ** (dim - 1) * 4, worst


# -- queries -----------------------------------------------------------------


def test_query_input_point_is_itself(rng):
    pts = [random_margin_cell(rng, 2) for _ in range(10)]
    ix = build_avd(pts)
    for i, p in enumerate(pts):
        got = query(ix, p)
        assert d2(p, pts[got]) == 0
        assert got == pts.index(p)


def test_query_out_of_box_returns_highest():
    pts = [C(-2, 1), C(-5, 9)]
    ix = build_avd(pts)
    assert ix.highest_index == 0
    assert query(ix, C(0, 5)) == 0  # x outside the unit box
    assert query(ix, C(2, 0)) == 0  # above the root level
    assert query(ix, C(-1, -1)) == 0  # negative side


def test_region_of_level_minus_3_coord_minus_2():
    # outside the root shadow no region holds the cell; point location
    # returned the unrelated node of Cell(-1;[1])
    ix = build_avd([C(-3, 3), C(-4, 5)])
    with pytest.raises(ValueError, match="outside"):
        ix.region_of(C(-3, -2))
    assert query(ix, C(-3, -2)) == ix.highest_index == 0


def test_query_matches_bruteforce(rng):
    for trial in range(20):
        dim = rng.choice([2, 3])
        pts = [random_margin_cell(rng, dim) for _ in range(rng.randint(1, 40))]
        ix = build_avd(pts)
        for _ in range(250):
            q = random_query_cell(rng, dim)
            assert query(ix, q) == nn_bruteforce(pts, q, "d2")


def test_query_exhaustive_universe(rng):
    # every query cell of a bounded universe, not just samples
    import itertools

    universe = [
        CellId(lev, coords)
        for lev in range(-5, 1)
        for coords in itertools.product(range(1 << (-lev)), repeat=1)
    ]
    for _ in range(15):
        pts = [random_margin_cell(rng, 2, min_level=-9) for _ in range(rng.randint(1, 20))]
        ix = build_avd(pts)
        for q in universe:
            assert query(ix, q) == nn_bruteforce(pts, q, "d2"), (q, pts)


def test_query_tie_breaks_to_smallest_index(rng):
    # two inputs at mirrored positions: equal distance queries must pick
    # the smaller index
    pts = [C(-3, 2), C(-3, 3), C(-3, 2)]
    ix = build_avd(pts)
    for _ in range(200):
        q = random_query_cell(rng, 2)
        got = query(ix, q)
        ref = nn_bruteforce(pts, q, "d2")
        assert got == ref


# -- continuous input ----------------------------------------------------------


def hyperbolic_window(dim: int) -> float:
    return 2.0 * (3.0 * math.log(dim) + 2.0 + 6.0 * math.log(2.0)) + 2.0 * math.log(2.0) + 2.0 * math.log(dim)


def test_build_from_continuous_points(rng):
    pts = [random_hpoint(rng) for _ in range(16)]
    ix = build_avd(pts)
    assert ix.transform is not None
    assert ix.source_kind == "continuous"


@pytest.mark.parametrize(
    "points, kind",
    [
        ([HPoint((0.3,), 1.2), HPoint((0.7,), 0.4)], "continuous"),
        ([CellId(-3, (2,)), CellId(-4, (6,))], "discrete"),
    ],
)
def test_source_kind_follows_transform(points, kind):
    built = build_avd(points)
    loaded = AvdIndex.from_json(built.to_json())
    for ix in (built, loaded):
        assert (ix.transform is not None) == (kind == "continuous")
        assert ix.source_kind == kind
    assert json.loads(built.to_json())["source_kind"] == kind


def test_query_hyperbolic_exact_point():
    pts = [HPoint((1.0,), 2.0), HPoint((5.0,), 0.5)]
    ix = build_avd(pts)
    assert query_hyperbolic(ix, pts[0]) == 0
    assert query_hyperbolic(ix, pts[1]) == 1


def test_query_hyperbolic_singleton(rng):
    pts = [HPoint((3.0,), 1.7)]
    ix = build_avd(pts)
    q = random_hpoint(rng)
    assert query_hyperbolic(ix, q) == 0


def test_query_hyperbolic_within_window(rng):
    pts = [random_hpoint(rng) for _ in range(30)]
    ix = build_avd(pts)
    w = hyperbolic_window(2)
    worst = 0.0
    for _ in range(2000):
        q = random_hpoint(rng)
        got = query_hyperbolic(ix, q)
        ref = nn_bruteforce(pts, q, "dH")
        err = hyperbolic_distance(q, pts[got]) - hyperbolic_distance(q, pts[ref])
        worst = max(worst, err)
        assert err <= w + 1e-9
    assert worst < w  # the bound is conservative in practice


def test_build_avd_x_minus_1e308_and_1e308():
    # the normalizing scale came out 0.0 from a spread that overflowed
    pts = [HPoint((-1e308,), 1.0), HPoint((1e308,), 1.0)]
    ix = build_avd(pts)
    assert query_hyperbolic(ix, pts[0]) == 0
    assert query_hyperbolic(ix, pts[1]) == 1
    assert query_hyperbolic(ix, HPoint((-1e307,), 1.0)) == 0
    assert query_hyperbolic(ix, HPoint((1e307,), 1.0)) == 1


def test_query_hyperbolic_height_1e_30_at_scale_2_34375e_301():
    # the move takes the height to 0.0; the error blamed a height of 0.0
    # the query never had
    ix = build_avd([HPoint((0.0,), 1.0), HPoint((1e300,), 1.0)])
    assert ix.transform.scale == 2.34375e-301
    with pytest.raises(ValueError, match=r"query height 1e-30 underflows to 0\.0 at scale 2\.34375e-301"):
        query_hyperbolic(ix, HPoint((0.0,), 1e-30))


@pytest.mark.parametrize("dim", [2, 3])
def test_query_hyperbolic_of_each_input_answers_first_input_with_its_cell(rng, dim):
    # the build and the query place a point with the same method, so an
    # input's own cell answers the first input holding that cell
    pts = [random_hpoint(rng, dim) for _ in range(40)]
    pts += [HPoint(tuple(v + 1e-9 for v in p.x), p.z) for p in pts[:10]] + pts[:5]
    ix = build_avd(pts)
    first = {}
    for i, c in enumerate(ix.points):
        first.setdefault(c, i)
    assert len(first) < len(pts)
    assert [query_hyperbolic(ix, p) for p in pts] == [first[c] for c in ix.points]


def test_query_hyperbolic_requires_transform():
    ix = build_avd([C(-2, 1)])
    with pytest.raises(ValueError):
        query_hyperbolic(ix, HPoint((0.3,), 1.0))


def test_annotate_reads_each_gap_row_once(monkeypatch):
    """Cost guard: the shared empty rows of a compressed gap are read
    once per node, so annotation pays for distinct rows only."""
    chain = [C(-lev, (3 << lev) // 10) for lev in (2000, 4000, 6000)]
    tree = refine(build_quadtree(chain))
    assert len(tree) == 28
    reads = [0]

    class Row(list):
        def __iter__(self):
            reads[0] += 1
            return super().__iter__()

    original = QuadTree.neighbor_rows

    def counted(self):
        wrapped = {}  # id -> (row, its counting copy); keeps shared rows shared
        for node, rows in original(self):
            yield node, [wrapped.setdefault(id(r), (r, Row(r)))[1] for r in rows]

    monkeypatch.setattr(QuadTree, "neighbor_rows", counted)
    assert sum(len(rows) for _, rows in tree.neighbor_rows()) == 6017
    annotate(tree)
    assert reads[0] <= 31
    assert [n.n2_index for n in tree.iter_nodes()] == annotate_scan(tree)


# -- serialization --------------------------------------------------------------


def test_index_serialization_roundtrip(rng):
    pts = [random_hpoint(rng) for _ in range(12)]
    ix = build_avd(pts)
    blob = ix.to_json()
    back = AvdIndex.from_json(blob)
    assert back.to_json() == blob
    for _ in range(200):
        q = random_hpoint(rng)
        assert query_hyperbolic(back, q) == query_hyperbolic(ix, q)


def test_discrete_index_roundtrip(rng):
    pts = [random_margin_cell(rng, 2) for _ in range(15)]
    ix = build_avd(pts)
    back = AvdIndex.from_json(ix.to_json())
    for _ in range(300):
        q = random_query_cell(rng, 2)
        assert query(back, q) == query(ix, q)


def _index_data():
    ix = build_avd([random_margin_cell(random.Random(5), 2) for _ in range(12)])
    return ix, json.loads(ix.to_json())


def test_from_json_annotations_one_short():
    # the last node used to load with reps None, and a query landing in
    # its region raised TypeError
    _ix, data = _index_data()
    data["annotations"].pop()
    with pytest.raises(ValueError, match="annotations"):
        AvdIndex.from_json(json.dumps(data))


def test_from_json_annotations_one_extra():
    _ix, data = _index_data()
    data["annotations"].append(data["annotations"][-1])
    with pytest.raises(ValueError, match="annotations"):
        AvdIndex.from_json(json.dumps(data))


def test_from_json_annotations_5():
    _ix, data = _index_data()
    data["annotations"] = 5
    with pytest.raises(ValueError, match="annotations is no JSON array: 5"):
        AvdIndex.from_json(json.dumps(data))


@pytest.mark.parametrize(
    "key, value",
    [("reps", [12]), ("reps", [-1]), ("reps", [0.0]), ("reps", 3), ("h", 12), ("n2", -1), ("n2", "0")],
)
def test_from_json_rejects_index_outside_points(key, value):
    _ix, data = _index_data()
    data["annotations"][-1][key] = value
    with pytest.raises(ValueError, match="range\\(12\\)"):
        AvdIndex.from_json(json.dumps(data))


def test_from_json_highest_index_12_of_12():
    _ix, data = _index_data()
    data["highest_index"] = 12
    with pytest.raises(ValueError, match="highest_index"):
        AvdIndex.from_json(json.dumps(data))


def test_from_json_highest_index_1_with_root_h_0():
    # loaded, and queries outside the root shadow then answered 1 where
    # the built index answers 0
    ix, data = _index_data()
    assert data["annotations"][0]["h"] == data["highest_index"] == 0
    data["highest_index"] = 1
    with pytest.raises(ValueError, match="highest_index 1 is not node 0's h 0"):
        AvdIndex.from_json(json.dumps(data))
    assert query(ix, C(-3, -2)) == 0


def test_from_json_breadth_first_node_order():
    # annotations used to be attached in the loaded tree's preorder, so a
    # valid file listing its nodes breadth first put them on the wrong
    # nodes: 36 of the 64 level -6 queries answered differently
    ix = build_avd([CellId(-2, (1,)), CellId(-3, (3,)), CellId(-4, (7,)), CellId(-3, (2,))])
    data = json.loads(ix.to_json())
    nodes, annotations = data["nodes"], data["annotations"]
    kids = [[] for _ in nodes]
    for k, spec in enumerate(nodes):
        if spec["parent"] is not None:
            kids[spec["parent"]].append(k)
    order = [0]
    for k in order:
        order.extend(kids[k])
    assert len(nodes) == 13 and order != list(range(13))
    new_of = {old: new for new, old in enumerate(order)}
    data["nodes"] = [
        dict(nodes[k], parent=None if nodes[k]["parent"] is None else new_of[nodes[k]["parent"]]) for k in order
    ]
    data["annotations"] = [annotations[k] for k in order]
    back = AvdIndex.from_json(json.dumps(data))
    assert back.to_json() == ix.to_json()
    for k in range(64):
        q = CellId(-6, (k,))
        assert query(back, q) == query(ix, q)


def test_query_cell_level_minus_3_coords_1_2_on_d2_index():
    # a cell of another dimension fails in_root, and query answered it
    # with the highest input as if it lay outside the root shadow
    ix = build_avd([CellId(-2, (1,)), CellId(-3, (3,))])
    with pytest.raises(ValueError, match="dimension 3, the index 2"):
        query(ix, CellId(-3, (1, 2)))
    assert query(ix, CellId(-3, (9,))) == ix.highest_index


def test_query_hyperbolic_x_0_9_z_0_01_on_d3_index():
    # the moved coordinates were zipped with the transform's two shifts,
    # so the D=2 point became a one-coordinate cell and got the highest input
    ix = build_avd([HPoint((0.1, 0.2), 1.0), HPoint((0.9, 0.3), 0.01)])
    with pytest.raises(ValueError, match="dimension 2, the index 3"):
        query_hyperbolic(ix, HPoint((0.9,), 0.01))


def test_query_region_with_null_reps():
    ix, data = _index_data()
    data["annotations"][-1]["reps"] = None
    back = AvdIndex.from_json(json.dumps(data))
    last = list(back.tree.iter_nodes())[-1]
    with pytest.raises(ValueError, match="no representatives"):
        query(back, last.cell)
    assert query(ix, last.cell) in range(12)


@pytest.mark.parametrize("n", [497, 1000])
def test_build_avd_nested_chain(n):
    # 497 nested input boxes along x = 0.3 overflowed the recursive
    # subtree counts, and 1000 the recursive build; the counts, the
    # highest-input pass and the build now loop
    chain = [C(-lev, math.floor(0.3 * 2**lev)) for lev in range(2, n + 2)]
    ix = build_avd(chain)
    assert ix.tree.root.count == n
    assert ix.highest_index == 0
    assert query(ix, chain[-1]) == n - 1


def test_builds_leave_no_cyclic_garbage():
    # nodes linked to their parents made every tree a reference cycle,
    # so only the cyclic collector freed it: eight D = 3 benchmark
    # builds left 107,100 objects for it, and this test 5,197
    rng = random.Random(17)
    points = [random_hpoint(rng) for _ in range(40)]
    cells = [random_margin_cell(rng, 3) for _ in range(40)]
    text = build_avd(cells).to_json()
    gc.collect()
    gc.disable()
    try:
        build_avd(points)
        build_avd(cells)
        AvdIndex.from_json(text)
        build_hyperbolic_spanner(points, 2)
        build_spanner(cells)
        build_embedding_graph(points)
        tree = build_quadtree(cells)
        for _ in range(3):
            tree.insert_box(random_query_cell(rng, 3))
        QuadTree.from_dict(tree.to_dict())
        del tree
        assert gc.collect() == 0
    finally:
        gc.enable()


_EDIT_VALUES = [None, True, 0, -1, 2, 1.5, math.nan, "x", "leaf", [], {}, [1], {"a": 1}, 10**30, [0, [0]], [-1, [0.0]], ["a"], 1e308]


def _json_paths(value, path=()):
    """Every path of keys and indices into loaded JSON data."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_paths(item, path + (i,))


_EDITED_INDEXES = [
    json.loads(build_avd(points).to_json())
    for points in (
        [CellId(-2, (1,)), CellId(-3, (3,)), CellId(-4, (5,))],
        [HPoint((0.1,), 1.0), HPoint((0.9,), 0.01), HPoint((0.4,), 0.3)],
        [CellId(-3, (2, 3)), CellId(-4, (5, 4))],
    )
]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_from_json_with_an_edited_entry_raises_only_value_error(data):
    """Replace or delete one or two entries anywhere in an index file:
    loading either works or raises ``ValueError``, and so does every
    query of a loaded index (a TypeError or KeyError used to end the
    CLI with a traceback)."""
    edited = json.loads(json.dumps(data.draw(st.sampled_from(_EDITED_INDEXES))))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_json_paths(edited))))
        value = json.loads(json.dumps(data.draw(st.sampled_from(_EDIT_VALUES))))
        if not path:
            edited = value
            break
        *head, last = path
        target = edited
        for key in head:
            target = target[key]
        if isinstance(target, dict) and data.draw(st.booleans()):
            del target[last]
        else:
            target[last] = value
    try:
        ix = AvdIndex.from_json(json.dumps(edited))
    except ValueError:
        return
    axes = ix.tree.dim - 1
    for q in [HPoint((0.3,) * axes, 0.5), HPoint((0.45,) * axes, 1e-3), CellId(-6, (24,) * axes), CellId(1, (0,) * axes)]:
        try:
            query_hyperbolic(ix, q) if isinstance(q, HPoint) else query(ix, q)
        except ValueError:
            pass
