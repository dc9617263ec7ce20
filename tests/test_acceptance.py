"""Acceptance criteria, one test per criterion.

Each test prints one line (visible under ``pytest -s`` or in the verbose
log) with the measured quantities next to the bound it enforces.  All
tolerances are fixed here; nothing is calibrated at runtime.
"""

import itertools
import json
import math
import random

from halfspace.avd import build_avd, query, query_hyperbolic
from halfspace.hyperbolic import (
    deviation_window_points_d1,
    embedding_displacement_bound,
    hyperbolic_distance,
)
from halfspace.layouts import SPANNER_DEMO_DISTANCE_2_5, SPANNER_DEMO_POINTS, TIGHT_GAP_PAIR
from halfspace.metrics import bridge_level_estimate, d1, d2, d2_path
from halfspace.oracle import d1_bfs, dijkstra, hop_bounded_distances, nn_bruteforce
from halfspace.sampling import distinct, sample_cells, sample_continuous, sample_margin_cells
from halfspace.shortcut import shortcut_forest
from halfspace.spanner import build_hyperbolic_spanner, build_spanner, path_context, realized_path_length
from halfspace.tiling import CellId, cell_of, center, is_ancestor_or_self
from halfspace.verification import run_verification

SEED = 20240811
LN2 = math.log(2.0)
TOL = 1e-9


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_01_metric_sandwich():
    # exhaustive over a 5-level window with 64 base cells (D=2)
    cells = [CellId(lev, (k,)) for lev in range(0, 5) for k in range(64 >> lev)]
    violations = 0
    for p, q in itertools.combinations(cells, 2):
        if not d1(p, q) <= d2(p, q) <= d1(p, q) + 2:
            violations += 1
    exhaustive = len(cells) * (len(cells) - 1) // 2
    rng = random.Random(SEED)
    randoms = 0
    for dim in (3, 4):
        for _ in range(10_000):
            p = sample_cells(rng, dim, 1, min_level=-6)[0]
            q = sample_cells(rng, dim, 1, min_level=-6)[0]
            randoms += 1
            if not d1(p, q) <= d2(p, q) <= d1(p, q) + 2:
                violations += 1
    tight_p, tight_q = TIGHT_GAP_PAIR
    assert violations == 0
    assert d2(tight_p, tight_q) == d1(tight_p, tight_q) + 2
    report(
        f"criterion 1 PASS: d1 <= d2 <= d1+2 on {exhaustive} exhaustive D=2 pairs "
        f"and {randoms} random D=3,4 pairs; additive bound met with equality by the witness pair"
    )


def test_02_d1_recurrence_vs_bfs():
    rng = random.Random(SEED + 1)
    checked = 0
    for dim in (2, 3):
        for _ in range(1000):
            p = sample_cells(rng, dim, 1, min_level=-3)[0]
            q = sample_cells(rng, dim, 1, min_level=-3)[0]
            assert d1(p, q) == d1_bfs(p, q), (p, q)
            checked += 1
    report(f"criterion 2 PASS: recurrence d1 equals breadth-first search on {checked} pairs, zero tolerance")


def test_03_bridge_level_estimate():
    rng = random.Random(SEED + 2)
    done = 0
    while done < 10_000:
        dim = 2 + done % 2
        p = sample_cells(rng, dim, 1, min_level=-8)[0]
        q = sample_cells(rng, dim, 1, min_level=-8)[0]
        if p == q or is_ancestor_or_self(p, q) or is_ancestor_or_self(q, p):
            continue
        lev = d2_path(p, q).bridge_level
        est = bridge_level_estimate(p, q)
        assert lev - 1 <= est <= lev, (p, q)
        done += 1
    report(f"criterion 3 PASS: level estimate within one of the true bridge level on {done} pairs")


def test_04_embedding_distortion():
    rng = random.Random(SEED + 3)
    worst = {}
    for dim in (2, 3, 4, 5, 6):
        lo, hi = deviation_window_points_d1(dim)
        disp_bound = embedding_displacement_bound(dim)
        pts = sample_continuous(rng, dim, 200, mode="stratified")
        cells = [cell_of(p) for p in pts]
        w_min, w_max = math.inf, -math.inf
        for _ in range(10_000):
            i, j = rng.randrange(len(pts)), rng.randrange(len(pts))
            dev = LN2 * d1(cells[i], cells[j]) - hyperbolic_distance(pts[i], pts[j])
            w_min, w_max = min(w_min, dev), max(w_max, dev)
            assert lo - TOL <= dev <= hi + TOL, (dim, i, j)
        for _ in range(10_000):
            p = sample_continuous(rng, dim, 1, mode="stratified")[0]
            disp = hyperbolic_distance(p, center(cell_of(p)))
            assert disp <= disp_bound + TOL
            if dim >= 3:
                assert disp < math.log(dim)
        worst[dim] = (round(w_min, 3), round(w_max, 3), round(lo, 3), round(hi, 3))
    report(f"criterion 4 PASS: 10^4 pairs per D in 2..6 inside the window; observed (min,max,lo,hi) = {worst}")


def test_05_spanner_exactness():
    rng = random.Random(SEED + 4)
    pairs = 0
    for trial in range(50):
        dim = 2 if trial % 2 == 0 else 3
        n = rng.randint(2, 64)
        pts = distinct(sample_cells(rng, dim, n, min_level=-7))
        graph = build_spanner(pts)
        ctx = path_context(graph)
        index = {c: graph.vertex_of_cell[c] for c in pts}
        adj = graph.adjacency()
        for p in pts:
            dist = dijkstra(len(graph.vertices), adj, index[p])
            for q in pts:
                ds = dist[index[q]]
                assert d1(p, q) - TOL <= ds <= d1(p, q) + 2 + TOL, (p, q)
                assert ds <= d2(p, q) + TOL, (p, q)
        for p, q in itertools.combinations(pts, 2):
            assert realized_path_length(graph, p, q, ctx) == d2(p, q), (p, q)
            pairs += 1
    demo = build_spanner(list(SPANNER_DEMO_POINTS))
    dist = dijkstra(
        len(demo.vertices), demo.adjacency(), demo.vertex_of_cell[SPANNER_DEMO_POINTS[2]]
    )
    assert dist[demo.vertex_of_cell[SPANNER_DEMO_POINTS[5]]] == SPANNER_DEMO_DISTANCE_2_5
    report(
        f"criterion 5 PASS: canonical paths realize d2 exactly on {pairs} pairs over 50 sets; "
        f"graph distances inside [d1, d1+2]; demo-layout distance = {SPANNER_DEMO_DISTANCE_2_5}"
    )


def test_06_spanner_size_linearity():
    rng = random.Random(SEED + 5)
    ratios = {}
    for exp in range(6, 13):
        n = 1 << exp
        rounds = 5 if n <= 512 else 2  # small sets are noisy; average them
        acc = 0.0
        for _ in range(rounds):
            pts = sample_margin_cells(rng, 2, n, min_level=-(n.bit_length() + 4))
            graph = build_spanner(pts)
            acc += (len(graph.vertices) + len(graph.edges)) / n
        ratios[n] = acc / rounds
    spread = max(ratios.values()) / min(ratios.values())
    assert spread <= 1.5, ratios
    report(
        f"criterion 6 PASS: (V+E)/n over n=64..4096 stays within ratio {spread:.3f} <= 1.5; "
        f"c(2) = {max(ratios.values()):.3f}"
    )


def test_07_shortcut_hop_bound():
    rng = random.Random(SEED + 6)

    def ancestors(parent, v):
        out = []
        a = parent[v]
        while a is not None:
            out.append(a)
            a = parent[a]
        return out

    def check(parent, k):
        cuts = shortcut_forest(parent, k)
        adj = cuts.adjacency()
        for v in parent:
            targets = set(ancestors(parent, v))
            frontier = {v}
            reached = set()
            for _ in range(k):
                frontier = {b for a in frontier for b in adj[a]}
                reached |= frontier
            assert targets <= reached, (v, k)
        return cuts

    n = 256
    path = {i: (i + 1 if i + 1 < n else None) for i in range(n)}
    counts = {}
    for k in (1, 2, 3, 4):
        cuts = check(path, k)
        counts[k] = cuts.total_edges
        tree = {0: None}
        for v in range(1, n):
            tree[v] = rng.randrange(v)
        check(tree, k)
    assert counts[1] == n * (n - 1) // 2
    report(
        f"criterion 7 PASS: every ancestor pair reachable in <= k hops (n=256, k=1..4, paths and random trees); "
        f"k=1 path edge count {counts[1]} = n(n-1)/2; per-k path counts {counts}"
    )


def test_08_hyperbolic_spanner():
    rng = random.Random(SEED + 7)
    n = 256
    pts = sample_continuous(rng, 2, n, mode="stratified", min_level=-7)
    observed = {}
    for k in (2, 3):
        graph = build_hyperbolic_spanner(pts, k)
        adj = graph.adjacency()
        vids = {v.input_index: v.id for v in graph.vertices if v.kind == "input"}
        norm = {i: graph.vertices[vids[i]].point for i in vids}
        window = (2 * k + 3) * (3 * LN2 + 2 + 6 * LN2 + 2 * LN2)
        worst = 0.0
        for i in range(n):
            dist = hop_bounded_distances(len(graph.vertices), adj, vids[i], 2 * k + 3)
            for j in range(n):
                dh = hyperbolic_distance(norm[i], norm[j])
                got = dist[vids[j]]
                assert got != math.inf, (i, j, k)
                assert got - dh >= -TOL, (i, j, k)
                worst = max(worst, got - dh)
        assert worst <= window + TOL
        observed[k] = (round(worst, 3), round(window, 3))
    report(
        f"criterion 8 PASS: a (2k+3)-hop path exists for every pair (n=256, D=2, k=2,3); "
        f"max additive error vs window: {observed}"
    )


def test_09_avd_exactness():
    rng = random.Random(SEED + 8)
    queries = 0
    out_of_box = 0
    for dim in (2, 3):
        for _ in range(50):
            n = rng.randint(1, 64)
            pts = sample_margin_cells(rng, dim, n, min_level=-8)
            ix = build_avd(pts)
            for _ in range(200):
                q = sample_cells(rng, dim, 1, min_level=-9)[0]
                got = query(ix, q)
                queries += 1
                if not ix.tree.in_root(q):
                    out_of_box += 1
                    assert got == ix.highest_index
                else:
                    assert got == nn_bruteforce(pts, q, "d2"), (q, pts)
            wide = CellId(0, tuple([5] * (dim - 1)))
            assert query(ix, wide) == ix.highest_index
            out_of_box += 1
            queries += 1
    report(
        f"criterion 9 PASS: {queries} queries across 100 sets match the brute-force nearest neighbor "
        f"with index tie-breaks; {out_of_box} out-of-box queries returned the highest point"
    )


def test_10_avd_hyperbolic_error():
    rng = random.Random(SEED + 9)
    dim = 2
    window = 2.0 * (3.0 * math.log(dim) + 2.0 + 6.0 * LN2) + 2.0 * LN2 + 2.0 * math.log(dim)
    pts = sample_continuous(rng, dim, 64, mode="stratified", min_level=-7)
    ix = build_avd(pts)
    worst = 0.0
    for _ in range(10_000):
        q = sample_continuous(rng, dim, 1, mode="stratified", min_level=-7)[0]
        got = query_hyperbolic(ix, q)
        ref = nn_bruteforce(pts, q, "dH")
        err = hyperbolic_distance(q, pts[got]) - hyperbolic_distance(q, pts[ref])
        worst = max(worst, err)
        assert err <= window + TOL
    report(
        f"criterion 10 PASS: 10^4 continuous queries within the additive window "
        f"{window:.3f}; empirical max error {worst:.6f}"
    )


def test_11_avd_size_stability():
    rng = random.Random(SEED)
    lines = []
    for dim in (2, 3):
        ratios = {}
        repmax = {}
        for n in (64, 128, 256):
            rs, ms = [], []
            for _ in range(6):
                pts = sample_margin_cells(rng, dim, n, min_level=-(n.bit_length() + 4))
                ix = build_avd(pts)
                nodes = list(ix.tree.iter_nodes())
                rs.append(len(nodes) / len(distinct(pts)))
                ms.append(max(len(nd.reps) for nd in nodes))
            ratios[n] = sum(rs) / len(rs)
            repmax[n] = max(ms)
        for a, b in ((64, 128), (128, 256)):
            assert abs(ratios[a] - ratios[b]) <= 1.0, ratios
            assert abs(repmax[a] - repmax[b]) <= 1, repmax
        lines.append(
            f"D={dim}: regions/n = " + str({n: round(r, 2) for n, r in ratios.items()}) +
            f", max reps = {repmax}"
        )
    report("criterion 11 PASS: region and representative counts stable (+/-1) under doubling; " + "; ".join(lines))


def test_12_determinism():
    a = run_verification(dim=2, n=48, seed=11)
    b = run_verification(dim=2, n=48, seed=11)
    blob_a = json.dumps(a, sort_keys=True)
    blob_b = json.dumps(b, sort_keys=True)
    assert blob_a == blob_b
    assert a["ok"] is True
    report(f"criterion 12 PASS: repeated verification runs are byte-identical ({len(blob_a)} bytes, all sections ok)")
