import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.metrics import d2
from halfspace.oracle import (
    cell_query_scan,
    d1_bfs,
    d2_bfs,
    dijkstra,
    hop_bounded_distances,
    nn_bruteforce,
    window_for,
)
from halfspace.tiling import CellId, HPoint

from conftest import random_cell
from reference import hop_bounded_distances_scan


def C(level, *coords):
    return CellId(level, tuple(coords))


def test_d1_bfs_identity():
    assert d1_bfs(C(0, 3), C(0, 3)) == 0


def test_d1_bfs_lambda_four_case():
    assert d1_bfs(C(0, 0), C(0, 4)) == 4


def test_d1_bfs_rejects_outside_window():
    w = window_for(C(0, 0), C(0, 1))
    with pytest.raises(ValueError):
        d1_bfs(C(0, 100), C(0, 0), w)


def test_window_contains_endpoints(rng):
    for _ in range(100):
        p = random_cell(rng, 2)
        q = random_cell(rng, 2)
        w = window_for(p, q)
        assert w.contains(p) and w.contains(q)


def test_window_enlargement_stable(rng):
    for _ in range(30):
        p = random_cell(rng, 3, level_range=(-2, 1), coord_range=(-6, 6))
        q = random_cell(rng, 3, level_range=(-2, 1), coord_range=(-6, 6))
        assert d1_bfs(p, q) == d1_bfs(p, q, window_for(p, q, side_slack=9, top_slack=4))


def test_bfs_triangle_inequality(rng):
    for _ in range(60):
        cells = [random_cell(rng, 2, level_range=(-2, 1), coord_range=(-6, 6)) for _ in range(3)]
        d_pq = d1_bfs(cells[0], cells[1])
        d_qr = d1_bfs(cells[1], cells[2])
        d_pr = d1_bfs(cells[0], cells[2])
        assert d_pr <= d_pq + d_qr


def test_d2_bfs_agrees_with_path_unroll(rng):
    for _ in range(100):
        p = random_cell(rng, 2, level_range=(-2, 1), coord_range=(-8, 8))
        q = random_cell(rng, 2, level_range=(-2, 1), coord_range=(-8, 8))
        assert d2_bfs(p, q) == d2(p, q)


def test_nn_bruteforce_member_and_ties():
    pts = [C(0, 0), C(0, 5), C(0, 0)]
    assert nn_bruteforce(pts, C(0, 0), "d2") == 0
    assert nn_bruteforce(pts, C(0, 5), "d1") == 1
    # equidistant under d2: smallest index wins
    pts = [C(0, 0), C(0, 2)]
    assert nn_bruteforce(pts, C(0, 1), "d2") == 0
    with pytest.raises(ValueError):
        nn_bruteforce([], C(0, 0))


def test_nn_bruteforce_hyperbolic():
    pts = [HPoint((0.0,), 1.0), HPoint((0.0,), 4.0)]
    assert nn_bruteforce(pts, HPoint((0.0,), 1.1), "dH") == 0
    assert nn_bruteforce(pts, HPoint((0.0,), 3.9), "dH") == 1


def test_nn_bruteforce_metric_d3_raises_value_error():
    with pytest.raises(ValueError, match="unknown metric 'd3'"):
        nn_bruteforce([C(0, 0)], C(0, 0), "d3")


def test_dijkstra_small_graph():
    adj = [[(1, 1.0), (2, 4.0)], [(0, 1.0), (2, 1.5)], [(0, 4.0), (1, 1.5)]]
    dist = dijkstra(3, adj, 0)
    assert dist == [0.0, 1.0, 2.5]


def test_hop_bounded_distances_respects_budget():
    # a chain where more hops keep improving
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0), (3, 1.0)], [(2, 1.0)]]
    d1h = hop_bounded_distances(4, adj, 0, 1)
    d3h = hop_bounded_distances(4, adj, 0, 3)
    assert d1h[1] == 1.0 and d1h[3] == math.inf
    assert d3h[3] == 3.0


def test_dijkstra_source_minus_1():
    # a negative source used to index from the end and start at vertex 2
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    with pytest.raises(ValueError, match="source -1"):
        dijkstra(3, adj, -1)
    with pytest.raises(ValueError, match="source 3"):
        dijkstra(3, adj, 3)


def test_hop_bounded_distances_source_minus_1():
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    with pytest.raises(ValueError, match="source -1"):
        hop_bounded_distances(3, adj, -1, 2)
    with pytest.raises(ValueError, match="source 3"):
        hop_bounded_distances(3, adj, 3, 2)


def test_hop_bounded_distances_max_hops_minus_1():
    adj = [[(1, 1.0)], [(0, 1.0)]]
    with pytest.raises(ValueError, match="max_hops"):
        hop_bounded_distances(2, adj, 0, -1)
    assert hop_bounded_distances(2, adj, 0, 0) == [0.0, math.inf]


def test_dijkstra_source_1_0():
    # raised TypeError from indexing
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    with pytest.raises(ValueError, match="source 1.0"):
        dijkstra(3, adj, 1.0)


def test_dijkstra_source_true():
    # read as vertex 1
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    with pytest.raises(ValueError, match="source True"):
        dijkstra(3, adj, True)


def test_hop_bounded_distances_source_true():
    # read as vertex 1
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    with pytest.raises(ValueError, match="source True"):
        hop_bounded_distances(3, adj, True, 2)


def test_hop_bounded_distances_max_hops_2_5():
    # raised TypeError from range
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    with pytest.raises(ValueError, match="max_hops .*2.5"):
        hop_bounded_distances(3, adj, 0, 2.5)


def test_hop_bounded_distances_max_hops_true():
    # acted as one hop
    adj = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    with pytest.raises(ValueError, match="max_hops .*True"):
        hop_bounded_distances(3, adj, 0, True)


def test_oracles_reject_adjacency_of_other_length():
    adj = [[(1, 1.0)], [(0, 1.0)]]
    for n in (1, 3):
        with pytest.raises(ValueError, match="rows"):
            dijkstra(n, adj, 0)
        with pytest.raises(ValueError, match="rows"):
            hop_bounded_distances(n, adj, 0, 2)


@st.composite
def multigraphs(draw, weights=st.floats(min_value=0.0, allow_nan=False)):
    """Directed multigraphs with parallel edges, self-loops, isolated
    vertices and parts the source cannot reach, plus a source and a hop
    budget from 0 to n + 1."""
    n = draw(st.integers(1, 12))
    weight = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]), weights)
    adj = [draw(st.lists(st.tuples(st.integers(0, n - 1), weight), max_size=6)) for _ in range(n)]
    return n, adj, draw(st.integers(0, n - 1)), draw(st.integers(0, n + 1))


@settings(max_examples=400, deadline=None)
@given(multigraphs())
def test_hop_bounded_distances_match_full_scan(case):
    n, adj, source, max_hops = case
    assert repr(hop_bounded_distances(n, adj, source, max_hops)) == repr(
        hop_bounded_distances_scan(n, adj, source, max_hops)
    )


@settings(max_examples=200, deadline=None)
@given(multigraphs(weights=st.integers(0, 64).map(lambda k: k / 8)), st.integers(0, 2))
def test_hop_bounded_distances_with_every_hop_match_dijkstra(case, extra):
    # dyadic weights add exactly, so any shortest path gives the same float,
    # and a shortest path has at most n - 1 edges
    n, adj, source, _ = case
    assert hop_bounded_distances(n, adj, source, n - 1 + extra) == dijkstra(n, adj, source)


class _CountingRows(list):
    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_hop_bounded_distances_cost_tracks_frontier():
    # on a path every round's frontier is one vertex: 20,000 row reads,
    # where relaxing every reached vertex in every round reads about 2 * 10^8
    n = 20_000
    adj = _CountingRows([[(v, 1.0) for v in (u - 1, u + 1) if 0 <= v < n] for u in range(n)])
    dist = hop_bounded_distances(n, adj, 0, n)
    assert dist[-1] == float(n - 1)
    assert adj.reads <= n


def test_cell_query_scan_basics():
    stored = [C(0, 0), C(-1, 0), C(-3, 2)]
    largest, smallest = cell_query_scan(stored, C(-2, 1))
    assert largest == C(-3, 2)
    assert smallest == C(-1, 0)
    largest, smallest = cell_query_scan(stored, C(-1, 1))
    assert largest is None and smallest == C(0, 0)
