import itertools
import json
import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace import shortcut, spanner, tiling
from halfspace.hyperbolic import hyperbolic_distance, normalize_and_embed
from halfspace.layouts import SPANNER_DEMO_DISTANCE_2_5, SPANNER_DEMO_POINTS
from halfspace.metrics import d1, d2, d2_path
from halfspace.oracle import dijkstra, hop_bounded_distances
from halfspace.quadtree import box_adjacent, build_quadtree
from halfspace.spanner import (
    Bridge,
    build_embedding_graph,
    build_hyperbolic_spanner,
    bridge_key,
    build_spanner,
    enumerate_bridges,
    realized_path_length,
    up_edge_map,
)
from halfspace.tiling import CellId, HPoint, horizontal_neighbors, is_ancestor_or_self

from conftest import random_cell_in_root
from reference import _depths_and_children, build_hyperbolic_spanner_triples, build_spanner_triples


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


def test_tuple_sort_keys_match_cell_order(rng):
    """CellId orders as its (level, coords) tuple, so the tuple keys the
    spanner sorts on give byte-identical orders: cells of mixed levels,
    and bridges by :func:`bridge_key` against ``(left, right)``."""
    for dim in (2, 3, 4):
        cells = [random_cell_in_root(rng, dim, min_level=-5) for _ in range(400)]
        assert sorted(cells, key=lambda c: (c.level, c.coords)) == sorted(cells)
        bridges = set()
        for c in cells:
            nb = rng.choice(horizontal_neighbors(c))
            assert bridge_key(c, nb) == bridge_key(nb, c)
            bridges.add(Bridge.of(c, nb))
        by_key = sorted(bridges, key=lambda b: bridge_key(b.left, b.right))
        assert by_key == sorted(bridges, key=lambda b: (b.left, b.right))


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
    data = json.loads(json.dumps(g.to_dict(), sort_keys=True))
    assert data["edges"] == [list(e) for e in g.edges]
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


def test_build_hyperbolic_spanner_k_nan():
    # nan passed the k >= 1 check and built a spanner
    with pytest.raises(ValueError, match="nan"):
        build_hyperbolic_spanner([HPoint((0.1,), 1.0), HPoint((0.2,), 0.01)], float("nan"))


def test_build_hyperbolic_spanner_k_2_5():
    with pytest.raises(ValueError, match="2.5"):
        build_hyperbolic_spanner([HPoint((0.1,), 1.0), HPoint((0.2,), 0.01)], 2.5)


def test_build_hyperbolic_spanner_k_true():
    # acted as k = 1
    with pytest.raises(ValueError, match="True"):
        build_hyperbolic_spanner([HPoint((0.1,), 1.0), HPoint((0.2,), 0.01)], True)


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


@pytest.mark.parametrize("dim", [2, 3])
def test_spanners_match_triple_set_references_on_deep_sets(rng, dim):
    # 200 points at heights down to 2^-40: deep forests, many shortcut
    # extras at every k, and inputs sharing cells
    pts = [HPoint(tuple(rng.uniform(-10, 10) for _ in range(dim - 1)), 2.0 ** -rng.uniform(0, 40)) for _ in range(200)]
    pts += pts[:5]
    cells = normalize_and_embed(pts)[2]
    assert json.dumps(build_spanner(cells).to_dict()) == json.dumps(build_spanner_triples(cells).to_dict())
    for k in (1, 2, 3):
        want = build_hyperbolic_spanner_triples(pts, k).to_dict()
        assert json.dumps(build_hyperbolic_spanner(pts, k).to_dict()) == json.dumps(want)


@st.composite
def clustered_cells(draw):
    """Cells of the root shadow at D = 2-5: some near the top, others deep
    below or beside an earlier cell, so the tree has compressed gaps of up
    to 60 levels and the bridges have Steiner ends, then a few duplicates,
    all in a drawn order."""
    axes = draw(st.integers(1, 4))
    cells: list[CellId] = []
    for _ in range(draw(st.integers(1, 10))):
        if cells and draw(st.booleans()):
            base = draw(st.sampled_from(cells))
            depth = draw(st.sampled_from([0, 1, 2, 3, 20, 60]))
            span = 1 << (depth - base.level)
            coords = tuple(
                min(max((k << depth) + draw(st.integers(-1, (1 << depth))), 0), span - 1) for k in base.coords
            )
            cells.append(CellId(base.level - depth, coords))
        else:
            level = draw(st.integers(-6, 0))
            cells.append(CellId(level, tuple(draw(st.integers(0, (1 << -level) - 1)) for _ in range(axes))))
    cells += draw(st.lists(st.sampled_from(cells), max_size=3))
    return draw(st.permutations(cells))


@settings(max_examples=150, deadline=None)
@given(clustered_cells())
def test_build_spanner_matches_the_triple_set_reference(cells):
    got, want = build_spanner(cells), build_spanner_triples(cells)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert list(got.vertex_of_cell.items()) == list(want.vertex_of_cell.items())


def _heights_near_2_pow_minus_600(rng):
    # 40 points at heights near 1, 40 near 2^-600: after normalizing, two
    # deep cell centers have a subnormal height product, so their edge
    # takes hyperbolic_distance's rescaled path
    return [HPoint((rng.uniform(-10, 10),), 2.0 ** -rng.uniform(0, 3)) for _ in range(40)] + [
        HPoint((rng.uniform(-10, 10),), 2.0 ** -rng.uniform(599, 601)) for _ in range(40)
    ]


def test_inline_d2_weights_are_hyperbolic_distance_bit_for_bit(rng):
    plain = [HPoint((rng.uniform(-10, 10),), 2.0 ** -rng.uniform(0, 40)) for _ in range(200)]
    deep = _heights_near_2_pow_minus_600(rng)
    for pts in (plain, deep):
        g = build_hyperbolic_spanner(pts, 2)
        at = [v.point for v in g.vertices]
        assert [w.hex() for _u, _v, w in g.edges] == [hyperbolic_distance(at[u], at[v]).hex() for u, v, _w in g.edges]
        assert json.dumps(g.to_dict()) == json.dumps(build_hyperbolic_spanner_triples(pts, 2).to_dict())
    zs = [p.z for p in at]
    assert any(zs[u] * zs[v] < sys.float_info.min for u, v, _w in g.edges)


def _counted(monkeypatch, module, names):
    calls = Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_build_spanner_tests_no_cell_ancestry(monkeypatch, rng, dim):
    # at every dimension the vertical edges come from one stack over the
    # int intervals of one Z-order: no ancestry test on cells; the
    # triple-set reference, which tests ancestry on its stack, shows the
    # patches are live
    calls = _counted(monkeypatch, spanner, ["is_ancestor_or_self", "zorder"])
    tiling_calls = _counted(monkeypatch, tiling, ["is_ancestor_or_self"])
    if dim == 2:
        cells = normalize_and_embed([HPoint((rng.uniform(-10, 10),), 2.0 ** -rng.uniform(0, 40)) for _ in range(200)])[2]
    else:
        cells = random_set(rng, dim, 60 if dim < 5 else 20)
    build_spanner(cells)
    assert calls == {"zorder": 1} and tiling_calls == {}
    build_spanner_triples(cells)
    assert calls == {"zorder": 1} and tiling_calls["is_ancestor_or_self"] > 0


def test_d2_hyperbolic_spanner_weighs_in_range_pairs_inline(monkeypatch, rng):
    # in-range D = 2 pairs are weighed inline; the pairs of the deep set
    # and every D = 3 pair call hyperbolic_distance, so the patch is live
    calls = _counted(monkeypatch, spanner, ["hyperbolic_distance"])
    g = build_hyperbolic_spanner([HPoint((rng.uniform(-10, 10),), 2.0 ** -rng.uniform(0, 40)) for _ in range(200)], 2)
    assert calls == {} and g.edges
    build_hyperbolic_spanner(_heights_near_2_pow_minus_600(rng), 2)
    deep = calls.pop("hyperbolic_distance")
    assert deep > 0
    g = build_hyperbolic_spanner([random_hpoint(rng, 3) for _ in range(30)], 2)
    assert calls["hyperbolic_distance"] == len(g.edges)


def test_point_anchor_edges_below_log_d(rng):
    for dim in (2, 3):
        pts = [random_hpoint(rng, dim) for _ in range(20)]
        g = build_hyperbolic_spanner(pts, k=2)
        for u, v, w in g.edges:
            a, b = g.vertices[u], g.vertices[v]
            assert w == pytest.approx(hyperbolic_distance(a.point, b.point), abs=1e-12)
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


@pytest.mark.parametrize("k", [2, 10**6])
def test_hyperbolic_spanner_walks_the_forest_once(monkeypatch, rng, k):
    # the closure-or-k decision probes depths without a preorder: the one
    # preorder runs inside shortcut_forest and no forest_height runs; the
    # d1 spanner and the shortcut run once each, under the module-level
    # names bench/tracer.py wraps
    calls = Counter()

    def count(module, name):
        original = getattr(module, name, None)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted, raising=False)

    count(shortcut, "_preorder")
    count(spanner, "forest_height")
    count(spanner, "build_spanner")
    count(spanner, "shortcut_forest")
    pts = [HPoint((rng.uniform(-10, 10),), 2.0 ** -rng.uniform(0, 40)) for _ in range(200)]
    build_hyperbolic_spanner(pts, k)
    assert calls == {"_preorder": 1, "build_spanner": 1, "shortcut_forest": 1}


def test_depth_probe_matches_reference_height(rng):
    forests = [{}, {0: None}, {v: v + 1 if v < 4999 else None for v in range(5000)}]
    for n in (2, 10, 60, 300):
        forests.append({v: rng.randrange(v) if v else None for v in range(n)})
        forests.append({v: None if v % 7 == 0 else v - 1 for v in range(n)})
    for parent in forests:
        height = max(_depths_and_children(parent)[2].values(), default=0)
        for k in {1, 2, 3, height - 1, height, height + 1} - {0, -1}:
            assert spanner._deeper_than(parent, k) == (height > k), (len(parent), k)
    # a cycle ends the probe instead of looping
    assert spanner._deeper_than({0: 1, 1: 0}, 5)
