import itertools
import json
import math
import random

import pytest

from halfspace.hyperbolic import hyperbolic_distance, normalize
from halfspace.layouts import SPANNER_DEMO_DISTANCE_2_5, SPANNER_DEMO_POINTS
from halfspace.metrics import d1, d2, d2_path
from halfspace.oracle import dijkstra, hop_bounded_distances
from halfspace.quadtree import box_adjacent, build_quadtree
from halfspace.spanner import (
    Bridge,
    SpannerGraph,
    build_embedding_graph,
    build_hyperbolic_spanner,
    build_spanner,
    enumerate_bridges,
    realized_path_length,
    up_edge_map,
)
from halfspace.tiling import CellId, HPoint, center, is_ancestor_or_self

from conftest import random_cell_in_root


def C(level, *coords):
    return CellId(level, tuple(coords))


def random_set(rng, dim, n, min_level=-7):
    out = []
    seen = set()
    while len(out) < n:
        c = random_cell_in_root(rng, dim, min_level=min_level)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def random_hpoint(rng, dim=2):
    return HPoint(tuple(rng.uniform(-10, 10) for _ in range(dim - 1)), rng.uniform(0.05, 9.0))


# -- bridges ---------------------------------------------------------------


def test_box_adjacent():
    assert box_adjacent(C(-1, 0), C(-1, 1))
    assert box_adjacent(C(-2, 1), C(-1, 1))  # touching at 1/2
    assert not box_adjacent(C(-2, 0), C(-1, 0))  # nested
    assert not box_adjacent(C(-2, 0), C(-2, 3))  # gap between
    assert box_adjacent(C(-2, 0, 0), C(-2, 1, 1))  # corner touch counts


def test_bridge_normalization():
    b = Bridge.of(C(0, 1), C(0, 0))
    assert (b.left, b.right) == (C(0, 0), C(0, 1))
    with pytest.raises(ValueError):
        Bridge.of(C(0, 0), C(0, 2))


def test_two_neighbor_points_single_bridge():
    pts = [C(-2, 1), C(-2, 2)]
    bridges = enumerate_bridges(build_quadtree(pts))
    assert Bridge.of(pts[0], pts[1]) in bridges


def test_bridges_cover_all_pairs(rng):
    for trial in range(25):
        dim = rng.choice([2, 3])
        pts = random_set(rng, dim, rng.randint(2, 64))
        bridges = set(enumerate_bridges(build_quadtree(pts)))
        for p, q in itertools.combinations(pts, 2):
            path = d2_path(p, q)
            if path.has_bridge:
                assert Bridge.of(path.apex_p, path.apex_q) in bridges, (p, q)


# -- discrete spanner --------------------------------------------------------


def test_singleton_spanner():
    g = build_spanner([C(-1, 0)])
    assert len(g.vertices) == 1
    assert g.edges == []


def test_spanner_rejects_empty():
    with pytest.raises(ValueError):
        build_spanner([])


def test_edge_weights_are_d1(rng):
    pts = random_set(rng, 2, 20)
    g = build_spanner(pts)
    for u, v, w in g.edges:
        cu, cv = g.vertices[u].cell, g.vertices[v].cell
        assert w == d1(cu, cv)
        if cu.level == cv.level:
            assert w == 1.0
        else:
            lo, hi = (cu, cv) if cu.level < cv.level else (cv, cu)
            assert is_ancestor_or_self(hi, lo)
            assert w == hi.level - lo.level


def test_steiner_vertices_are_bridge_endpoints(rng):
    pts = random_set(rng, 2, 24)
    tree = build_quadtree(pts)
    endpoint_cells = {c for b in enumerate_bridges(tree) for c in (b.left, b.right)}
    g = build_spanner(pts)
    for v in g.vertices:
        if v.kind == "steiner":
            assert v.cell in endpoint_cells


def test_exact_d2_realization_and_sandwich(rng):
    for trial in range(15):
        dim = rng.choice([2, 3])
        pts = random_set(rng, dim, rng.randint(2, 24))
        g = build_spanner(pts)
        adj = g.adjacency()
        idx = {c: g.vertex_of_cell[c] for c in pts}
        for p in pts:
            dist = dijkstra(len(g.vertices), adj, idx[p])
            for q in pts:
                ds = dist[idx[q]]
                assert d1(p, q) - 1e-9 <= ds <= d1(p, q) + 2 + 1e-9, (p, q)
                assert ds <= d2(p, q) + 1e-9
        for p, q in itertools.combinations(pts, 2):
            assert realized_path_length(g, p, q) == d2(p, q)


def test_size_scales_linearly(rng):
    sizes = []
    for n in (64, 128, 256):
        pts = random_set(rng, 2, n, min_level=-(n.bit_length() + 4))
        g = build_spanner(pts)
        sizes.append((len(g.vertices) + len(g.edges)) / n)
    assert max(sizes) / min(sizes) < 1.6


def test_demo_layout_regression():
    pts = list(SPANNER_DEMO_POINTS)
    g = build_spanner(pts)
    assert sum(1 for v in g.vertices if v.kind == "input") == 6
    assert g.n_steiner == 6
    adj = g.adjacency()
    d = dijkstra(len(g.vertices), adj, g.vertex_of_cell[pts[2]])
    assert d[g.vertex_of_cell[pts[5]]] == SPANNER_DEMO_DISTANCE_2_5
    assert d1(pts[2], pts[5]) == 4  # the additive gap is tight here
    # input 5 hangs two levels below a Steiner vertex by a single edge
    vid = g.vertex_of_cell[pts[5]]
    assert any(
        w == 2.0 and g.vertices[u if v == vid else v].kind == "steiner"
        for u, v, w in g.edges
        if vid in (u, v)
    )


def test_up_edges_form_forest(rng):
    pts = random_set(rng, 2, 30)
    g = build_spanner(pts)
    parent = up_edge_map(g)
    seen = 0
    for v, p in parent.items():
        if p is not None:
            assert is_ancestor_or_self(g.vertices[p].cell, g.vertices[v].cell)
            seen += 1
    assert seen < len(g.vertices)  # at least one root


def test_graph_serialization_roundtrip(rng):
    pts = random_set(rng, 2, 12)
    g = build_spanner(pts)
    blob = json.dumps(g.to_dict(), sort_keys=True)
    back = SpannerGraph.from_dict(json.loads(blob))
    assert json.dumps(back.to_dict(), sort_keys=True) == blob
    lines = g.to_edge_list().strip().splitlines()
    assert len(lines) == len(g.edges)
    u, v, w = lines[0].split()
    assert (int(u), int(v), float(w)) == g.edges[0]


# -- embedding graph ---------------------------------------------------------


def test_embedding_graph_vertical_pair():
    pts = [HPoint((0.3,), 1.2), HPoint((0.3,), 2.4)]
    g, mapping, _t = build_embedding_graph(pts)
    adj = g.adjacency()
    d = dijkstra(len(g.vertices), adj, mapping[0])[mapping[1]]
    assert d == pytest.approx(hyperbolic_distance(pts[0], pts[1]), abs=1e-9)


def test_embedding_graph_singleton():
    g, mapping, _t = build_embedding_graph([HPoint((0.7,), 3.3)])
    assert len(g.vertices) == 1 and g.edges == []
    assert mapping == {0: 0}


def test_embedding_graph_window(rng):
    from halfspace.hyperbolic import deviation_window_points_d2

    pts = [random_hpoint(rng) for _ in range(40)]
    g, mapping, _t = build_embedding_graph(pts)
    adj = g.adjacency()
    lo, hi = deviation_window_points_d2(2)
    for i in range(len(pts)):
        dist = dijkstra(len(g.vertices), adj, mapping[i])
        for j in range(len(pts)):
            dh = hyperbolic_distance(pts[i], pts[j])
            dg = dist[mapping[j]]
            # d_G realizes ln2*d2 at most and ln2*d1 at least
            assert lo - 1e-9 <= dg - dh <= hi + 1e-9, (i, j)


# -- hyperbolic spanner -------------------------------------------------------


def test_hyperbolic_spanner_singleton():
    pts = [HPoint((2.0,), 0.7)]
    g = build_hyperbolic_spanner(pts, k=2)
    inputs = [v for v in g.vertices if v.kind == "input"]
    assert len(inputs) == 1
    assert len(g.edges) == 1
    (u, v, w) = g.edges[0]
    assert w < math.log(2.0) + 1e-12


def test_hyperbolic_spanner_rejects_bad_k():
    with pytest.raises(ValueError):
        build_hyperbolic_spanner([HPoint((0.0,), 1.0)], k=0)


def test_hyperbolic_spanner_heights_1_and_1e_200():
    # the product of the two lowest heights underflowed to 0 in the
    # distance formula, which then divided by zero
    g = build_hyperbolic_spanner([HPoint((0.1,), 1.0), HPoint((0.2,), 1e-200)], 2)
    for u, v, w in g.edges:
        assert 0.0 < w < math.inf
    vids = [v.id for v in g.vertices if v.kind == "input"]
    dist = dijkstra(len(g.vertices), g.adjacency(), vids[0])[vids[1]]
    p, q = (g.vertices[i].point for i in vids)
    assert dist >= hyperbolic_distance(p, q) - 1e-9


def test_hyperbolic_spanner_heights_1_and_5e_324():
    # the center of the lower point's cell overflowed a float
    g = build_hyperbolic_spanner([HPoint((0.3,), 1.0), HPoint((0.3,), 5e-324)], 2)
    assert sorted(v.input_index for v in g.vertices if v.kind == "input") == [0, 1]
    assert all(0.0 < w < math.inf for _u, _v, w in g.edges)


def test_hyperbolic_spanner_x_minus_1e308_and_1e308():
    # the normalizing scale came out 0.0 from a spread that overflowed
    pts = [HPoint((-1e308,), 1.0), HPoint((1e308,), 1.0)]
    g = build_hyperbolic_spanner(pts, 2)
    assert all(0.0 < w < math.inf for _u, _v, w in g.edges)
    vids = [v.id for v in g.vertices if v.kind == "input"]
    dist = dijkstra(len(g.vertices), g.adjacency(), vids[0])[vids[1]]
    assert hyperbolic_distance(*pts) - 1e-9 <= dist < math.inf


def test_point_anchor_edges_below_log_d(rng):
    for dim in (2, 3):
        pts = [random_hpoint(rng, dim) for _ in range(20)]
        g = build_hyperbolic_spanner(pts, k=2)
        for u, v, w in g.edges:
            a, b = g.vertices[u], g.vertices[v]
            assert w == pytest.approx(hyperbolic_distance(a.position(), b.position()), abs=1e-12)
            if a.kind == "input" or b.kind == "input":
                assert w < math.log(dim) + 1e-12


def test_hop_bounded_paths_exist(rng):
    n = 40
    pts = [random_hpoint(rng) for _ in range(n)]
    for k in (2, 3):
        g = build_hyperbolic_spanner(pts, k)
        adj = g.adjacency()
        vids = {v.input_index: v.id for v in g.vertices if v.kind == "input"}
        window = (2 * k + 3) * (3 * math.log(2) + 2 + 6 * math.log(2) + 2 * math.log(2))
        norm_pts = [g.vertices[vids[i]].point for i in range(n)]
        for i in range(n):
            dist = hop_bounded_distances(len(g.vertices), adj, vids[i], 2 * k + 3)
            for j in range(n):
                dh = hyperbolic_distance(norm_pts[i], norm_pts[j])
                assert dist[vids[j]] != math.inf, (i, j)
                assert dist[vids[j]] >= dh - 1e-9
                assert dist[vids[j]] - dh <= window + 1e-9


def test_saturated_k_gives_short_paths(rng):
    pts = [random_hpoint(rng) for _ in range(12)]
    g = build_hyperbolic_spanner(pts, k=64)  # beyond any chain length
    adj = g.adjacency()
    vids = {v.input_index: v.id for v in g.vertices if v.kind == "input"}
    for i in vids:
        dist = hop_bounded_distances(len(g.vertices), adj, vids[i], 5)
        for j in vids:
            assert dist[vids[j]] != math.inf
