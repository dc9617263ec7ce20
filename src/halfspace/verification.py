"""Cross-checks every structure against its brute-force reference.

Each section returns a dict with an ``ok`` flag plus measured constants
(nodes per input, Steiner vertices per input, representatives per
region, empirical distortion extremes).  The CLI serializes the full
report as JSON and fails the run when any section reports a violation.
All randomness is seeded, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random

from . import avd as avd_mod
from .hyperbolic import (
    deviation_window_points_d1,
    deviation_window_points_d2,
    distortion_report,
    embedding_displacement_bound,
    hyperbolic_distance,
)
from .layouts import SPANNER_DEMO_DISTANCE_2_5, SPANNER_DEMO_POINTS, TIGHT_GAP_PAIR, TRIANGLE_VIOLATION_TRIPLE
from .metrics import bridge_level_estimate, d1, d2, d2_path
from .oracle import cell_query_scan, d1_bfs, dijkstra, hop_bounded_distances, nn_bruteforce
from .quadtree import COMPRESSED, LEAF, build_quadtree
from .sampling import distinct, sample_cells, sample_continuous, sample_margin_cells
from .shortcut import shortcut_forest
from .spanner import build_hyperbolic_spanner, build_spanner, realized_path_length
from .tiling import CellId, cell_of, center, is_ancestor_or_self


def _round(x: float) -> float:
    return round(x, 9)


def check_metric_sandwich(rng: random.Random, dim: int, n_pairs: int) -> dict:
    violations = 0
    cells = [CellId(lev, (k,)) for lev in range(0, 5) for k in range(64 >> lev)]
    exhaustive_pairs = 0
    if dim == 2:
        for p, q in itertools.combinations(cells, 2):
            exhaustive_pairs += 1
            if not d1(p, q) <= d2(p, q) <= d1(p, q) + 2:
                violations += 1
    for _ in range(n_pairs):
        p = sample_cells(rng, dim, 1, min_level=-6)[0]
        q = sample_cells(rng, dim, 1, min_level=-6)[0]
        if not d1(p, q) <= d2(p, q) <= d1(p, q) + 2:
            violations += 1
    tight = d2(*TIGHT_GAP_PAIR) == d1(*TIGHT_GAP_PAIR) + 2
    a, b, c = TRIANGLE_VIOLATION_TRIPLE
    semimetric = d2(a, b) == 1 and d2(b, c) == 1 and d2(a, c) == 3
    return {
        "exhaustive_pairs": exhaustive_pairs,
        "random_pairs": n_pairs,
        "violations": violations,
        "tightness_witnessed": tight,
        "triangle_violation_witnessed": semimetric,
        "ok": violations == 0 and tight and semimetric,
    }


def check_d1_against_bfs(rng: random.Random, dim: int, n_pairs: int) -> dict:
    if dim > 3:
        return {"skipped": "move-graph search is exponential in D; run with dim <= 3", "ok": True}
    mismatches = 0
    for _ in range(n_pairs):
        p = sample_cells(rng, dim, 1, min_level=-3)[0]
        q = sample_cells(rng, dim, 1, min_level=-3)[0]
        if d1(p, q) != d1_bfs(p, q):
            mismatches += 1
    return {"pairs": n_pairs, "mismatches": mismatches, "ok": mismatches == 0}


def check_bridge_level(rng: random.Random, dim: int, n_pairs: int) -> dict:
    violations = 0
    done = 0
    while done < n_pairs:
        p = sample_cells(rng, dim, 1, min_level=-8)[0]
        q = sample_cells(rng, dim, 1, min_level=-8)[0]
        if p == q or is_ancestor_or_self(p, q) or is_ancestor_or_self(q, p):
            continue
        done += 1
        lev = d2_path(p, q).bridge_level
        if not lev - 1 <= bridge_level_estimate(p, q) <= lev:
            violations += 1
    return {"pairs": n_pairs, "violations": violations, "ok": violations == 0}


def check_embedding_distortion(rng: random.Random, dim: int, n_samples: int) -> dict:
    pts = sample_continuous(rng, dim, max(2, n_samples // 100), mode="stratified")
    rep = distortion_report(pts, n_samples, seed=rng.randrange(2**32))
    bound = embedding_displacement_bound(dim)
    displacement_violations = 0
    worst = 0.0
    for _ in range(n_samples):
        p = sample_continuous(rng, dim, 1, mode="stratified")[0]
        got = hyperbolic_distance(p, center(cell_of(p)))
        worst = max(worst, got)
        if got > bound + 1e-9 or (dim >= 3 and got >= math.log(dim)):
            displacement_violations += 1
    lo1, hi1 = deviation_window_points_d1(dim)
    lo2, hi2 = deviation_window_points_d2(dim)
    return {
        "samples": n_samples,
        "window_d1": [_round(lo1), _round(hi1)],
        "window_d2": [_round(lo2), _round(hi2)],
        "observed_d1": [_round(rep.d1_min), _round(rep.d1_max)],
        "observed_d2": [_round(rep.d2_min), _round(rep.d2_max)],
        "window_violations": rep.violations,
        "displacement_bound": _round(bound),
        "displacement_max": _round(worst),
        "displacement_violations": displacement_violations,
        "ok": rep.violations == 0 and displacement_violations == 0,
    }


def check_quadtree(rng: random.Random, dim: int, n: int) -> dict:
    pts = distinct(sample_cells(rng, dim, n, min_level=-(n.bit_length() + 3)))
    tree = build_quadtree(pts)
    nodes = list(tree.iter_nodes())
    partition_violations = 0
    trials = 2000
    regions = [nd for nd in nodes if nd.kind in (LEAF, COMPRESSED)]
    for _ in range(trials):
        x = tuple(rng.random() for _ in range(dim - 1))
        owners = []
        for r in regions:
            if r.kind == LEAF:
                inside = tree.shadow_holds(r.cell, x)
            else:
                inside = tree.shadow_holds(r.cell, x) and not tree.shadow_holds(
                    r.children[0].cell, x
                )
            if inside:
                owners.append(r)
        # x lies in exactly one region, and locate finds that one
        if owners != [tree.locate(x)]:
            partition_violations += 1
    stored = [nd.cell for nd in nodes]
    query_mismatches = 0
    for _ in range(500):
        q = sample_cells(rng, dim, 1, min_level=-8)[0]
        largest, smallest = tree.cell_query(q)
        ref_l, ref_s = cell_query_scan(stored, q)
        if (largest.cell if largest else None) != ref_l or (smallest.cell if smallest else None) != ref_s:
            query_mismatches += 1
    return {
        "points": len(pts),
        "nodes": len(nodes),
        "nodes_per_point": _round(len(nodes) / len(pts)),
        "partition_trials": trials,
        "partition_violations": partition_violations,
        "cell_query_mismatches": query_mismatches,
        "ok": partition_violations == 0 and query_mismatches == 0,
    }


def check_spanner(rng: random.Random, dim: int, n: int, n_sets: int = 5) -> dict:
    realized_mismatches = 0
    sandwich_violations = 0
    sizes = []
    for _ in range(n_sets):
        pts = distinct(sample_cells(rng, dim, n, min_level=-7))
        graph = build_spanner(pts)
        sizes.append((len(graph.vertices) + len(graph.edges)) / len(pts))
        adj = graph.adjacency()
        index = {c: graph.vertex_of_cell[c] for c in pts}
        for p in pts:
            dist = dijkstra(len(graph.vertices), adj, index[p])
            for q in pts:
                ds = dist[index[q]]
                if not (d1(p, q) - 1e-9 <= ds <= d1(p, q) + 2 + 1e-9) or ds > d2(p, q) + 1e-9:
                    sandwich_violations += 1
        for p, q in itertools.combinations(pts, 2):
            try:
                if realized_path_length(graph, p, q) != d2(p, q):
                    realized_mismatches += 1
            except AssertionError:
                realized_mismatches += 1
    demo = build_spanner(list(SPANNER_DEMO_POINTS))
    demo_adj = demo.adjacency()
    demo_dist = dijkstra(
        len(demo.vertices), demo_adj, demo.vertex_of_cell[SPANNER_DEMO_POINTS[2]]
    )[demo.vertex_of_cell[SPANNER_DEMO_POINTS[5]]]
    demo_ok = demo_dist == SPANNER_DEMO_DISTANCE_2_5 and demo.n_steiner == 6
    return {
        "sets": n_sets,
        "points_per_set": n,
        "size_per_point": [_round(s) for s in sizes],
        "realized_d2_mismatches": realized_mismatches,
        "sandwich_violations": sandwich_violations,
        "demo_distance": demo_dist,
        "demo_steiner": demo.n_steiner,
        "ok": realized_mismatches == 0 and sandwich_violations == 0 and demo_ok,
    }


def check_shortcut(rng: random.Random, n: int) -> dict:
    def path_parent(m):
        return {i: (i + 1 if i + 1 < m else None) for i in range(m)}

    def random_tree(m):
        parent = {0: None}
        for v in range(1, m):
            parent[v] = rng.randrange(v)
        return parent

    def ancestors(parent, v):
        out = []
        a = parent[v]
        while a is not None:
            out.append(a)
            a = parent[a]
        return out

    violations = 0
    counts = {}
    for k in (1, 2, 3, 4):
        for parent in (path_parent(n), random_tree(n)):
            cuts = shortcut_forest(parent, k)
            adj = cuts.adjacency()
            for v in parent:
                targets = set(ancestors(parent, v))
                if not targets:
                    continue
                # BFS limited to k hops
                frontier = {v}
                reached = set()
                for _ in range(k):
                    frontier = {b for a in frontier for b in adj[a]}
                    reached |= frontier
                if not targets <= reached:
                    violations += 1
        counts[str(k)] = shortcut_forest(path_parent(n), k).total_edges
    closure_exact = counts["1"] == n * (n - 1) // 2
    return {
        "n": n,
        "hop_violations": violations,
        "path_edge_counts": counts,
        "k1_closure_exact": closure_exact,
        "ok": violations == 0 and closure_exact,
    }


def check_hyperbolic_spanner(rng: random.Random, dim: int, n: int, ks=(2, 3)) -> dict:
    pts = sample_continuous(rng, dim, n, mode="stratified", min_level=-6)
    results = {}
    ok = True
    for k in ks:
        graph = build_hyperbolic_spanner(pts, k)
        adj = graph.adjacency()
        vids = {v.input_index: v.id for v in graph.vertices if v.kind == "input"}
        norm = {i: graph.vertices[vids[i]].point for i in vids}
        window = (2 * k + 3) * (3 * math.log(dim) + 2 + 6 * math.log(2) + 2 * math.log(2))
        missing = 0
        negative = 0
        worst = 0.0
        for i in vids:
            dist = hop_bounded_distances(len(graph.vertices), adj, vids[i], 2 * k + 3)
            for j in vids:
                dh = hyperbolic_distance(norm[i], norm[j])
                got = dist[vids[j]]
                if got == math.inf:
                    missing += 1
                    continue
                err = got - dh
                if err < -1e-9:
                    negative += 1
                worst = max(worst, err)
        k_ok = missing == 0 and negative == 0 and worst <= window + 1e-9
        results[str(k)] = {
            "window": _round(window),
            "max_additive_error": _round(worst),
            "unreachable_pairs": missing,
            "below_true_distance": negative,
            "ok": k_ok,
        }
        ok = ok and k_ok
    return {"points": n, "per_k": results, "ok": ok}


def check_avd(rng: random.Random, dim: int, n: int, n_sets: int = 5, queries_per_set: int = 400) -> dict:
    mismatches = 0
    out_of_box_queries = 0
    region_ratios = []
    rep_max = 0
    for _ in range(n_sets):
        pts = sample_margin_cells(rng, dim, n, min_level=-8)
        ix = avd_mod.build_avd(pts)
        nodes = list(ix.tree.iter_nodes())
        region_ratios.append(len(nodes) / len(distinct(pts)))
        rep_max = max(rep_max, max(len(nd.reps) for nd in nodes))
        for _ in range(queries_per_set):
            q = sample_cells(rng, dim, 1, min_level=-9)[0]
            got = avd_mod.query(ix, q)
            if ix.is_out_of_range(q):
                out_of_box_queries += 1
                if got != ix.highest_index:
                    mismatches += 1
            elif got != nn_bruteforce(pts, q, "d2"):
                mismatches += 1
    hyp_pts = sample_continuous(rng, dim, n, mode="stratified", min_level=-6)
    hyp_ix = avd_mod.build_avd(hyp_pts)
    w = 2.0 * (3.0 * math.log(dim) + 2.0 + 6.0 * math.log(2.0)) + 2.0 * math.log(2.0) + 2.0 * math.log(dim)
    hyp_violations = 0
    hyp_worst = 0.0
    for _ in range(queries_per_set):
        q = sample_continuous(rng, dim, 1, mode="stratified", min_level=-6)[0]
        got = avd_mod.query_hyperbolic(hyp_ix, q)
        ref = nn_bruteforce(hyp_pts, q, "dH")
        err = hyperbolic_distance(q, hyp_pts[got]) - hyperbolic_distance(q, hyp_pts[ref])
        hyp_worst = max(hyp_worst, err)
        if err > w + 1e-9:
            hyp_violations += 1
    return {
        "sets": n_sets,
        "points_per_set": n,
        "query_mismatches": mismatches,
        "out_of_box_queries_flagged": out_of_box_queries,
        "regions_per_point": [_round(r) for r in region_ratios],
        "max_representatives": rep_max,
        "hyperbolic_window": _round(w),
        "hyperbolic_max_error": _round(hyp_worst),
        "hyperbolic_violations": hyp_violations,
        "ok": mismatches == 0 and hyp_violations == 0,
    }


def run_verification(dim: int = 2, n: int = 64, seed: int = 0) -> dict:
    """Run every oracle suite; the report is reproducible from the seed."""
    if n < 2:
        raise ValueError("verification needs n >= 2")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    rng = random.Random(seed)
    sections = {
        "metric_sandwich": check_metric_sandwich(rng, dim, n_pairs=2000),
        "d1_vs_bfs": check_d1_against_bfs(rng, dim, n_pairs=300),
        "bridge_level": check_bridge_level(rng, dim, n_pairs=2000),
        "embedding_distortion": check_embedding_distortion(rng, dim, n_samples=2000),
        "quadtree": check_quadtree(rng, dim, n),
        "spanner": check_spanner(rng, dim, min(n, 48)),
        "shortcut": check_shortcut(rng, min(4 * n, 128)),
        "hyperbolic_spanner": check_hyperbolic_spanner(rng, dim, min(n, 48)),
        "avd": check_avd(rng, dim, min(n, 48)),
    }
    return {
        "dim": dim,
        "n": n,
        "seed": seed,
        "sections": sections,
        "ok": all(s["ok"] for s in sections.values()),
    }
