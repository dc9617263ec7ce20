"""The three workloads: ``avd-build``, ``nn-query`` and ``spanner-build``.

Every workload reads its generated point files through
``halfspace.pointfile.read_points`` (the set-up), runs timed operations
for the requested seconds, and checks every output outside the timed
spans.  Each one also answers queries against what it built, so every
end-to-end metric exists on every workload:

* ``avd-build``: op = ``build_avd`` + ``to_json`` on D=3 margin cells;
  after each op, one timed pass of discrete ``query`` calls on the new
  index.
* ``nn-query``: set-up = read + ``build_avd`` + ``to_json`` +
  ``from_json`` (what ``halfspace query --index`` pays), once per point
  set; ops = closed-loop ``query_hyperbolic`` calls from one client,
  one pass over a set's query pool at a time, the sets in turn.
* ``spanner-build``: op = ``build_hyperbolic_spanner(points, k)``; after
  each op, timed single-source (2k+3)-hop distance queries over the new
  spanner, which are also that op's output check.

Each run draws several point sets from its seed and weighs them
equally, so one unusual set moves a figure little.  Times are reported
in reference-speed seconds (see ``speed.py``).  With a tracer a
workload runs a fixed amount of work twice, untraced and then traced,
and reports per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import halfspace as hs
from halfspace import oracle, pointfile

import checks
import inputs
from speed import Speed
from tracer import Tracer

clock = time.perf_counter
clock_ns = time.perf_counter_ns

SIZES = {
    "full": {
        "avd-build": dict(dim=3, n=128, min_level=-13, sets=8, queries=2000, passes=4, query_min_level=-14, checked=60),
        "nn-query": dict(dim=2, n=128, min_level=-24, sets=12, pool=4096, far=8, checked=100),
        "spanner-build": dict(dim=2, n=768, min_level=-40, sets=6, k=2, sources=96, passes=1),
    },
    "smoke": {
        "avd-build": dict(dim=3, n=12, min_level=-6, sets=2, queries=60, passes=2, query_min_level=-7, checked=60),
        "nn-query": dict(dim=2, n=16, min_level=-8, sets=2, pool=64, far=4, checked=64),
        "spanner-build": dict(dim=2, n=24, min_level=-10, sets=2, k=2, sources=4, passes=1),
    },
}


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    info: dict


# -- shared pieces ---------------------------------------------------------------


@contextlib.contextmanager
def point_files(out_dir: Path, tag: str, sets: list[list]):
    """Write each point set to its own file for the run, then remove them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{tag}-{os.getpid()}-{s}.jsonl" for s in range(len(sets))]
    try:
        for path, pts in zip(paths, sets):
            path.write_text(inputs.point_file_text(pts))
        yield paths
    finally:
        for path in paths:
            path.unlink(missing_ok=True)


def read_all(paths: list[Path], times: list[float] | None = None) -> list[list]:
    """Parse every point file; append the time taken to ``times``."""
    t0 = clock()
    out = []
    for path in paths:
        with open(path) as fp:
            out.append(pointfile.read_points(fp)[2])
    if times is not None:
        times.append(clock() - t0)
    return out


CHUNK_S = 0.05  # query passes are scaled to reference speed in chunks this long


def query_pass(answer, queries: list, speed: Speed | None, tracer: Tracer | None = None, keep=None):
    """One closed-loop pass; returns (wall seconds, answers, latencies in ns).

    With ``speed``, the pass is cut into chunks of about ``CHUNK_S``
    seconds; after each chunk the reference work is sampled and the
    chunk's wall time and latencies are scaled by its factor, so a slow
    spell of the host inside a pass is scaled out of the latencies it
    touched.  ``keep`` maps each answer to what the checks need, after
    its latency is taken, so that the pass does not hold on to large
    results."""
    n = len(queries)
    answers, lats = [0] * n, [0] * n
    wall, lo = 0.0, 0
    c0 = clock()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.op = f"q{i}"
        t0 = clock_ns()
        got = answer(q)
        lats[i] = clock_ns() - t0
        answers[i] = got if keep is None else keep(got)
        if speed is not None and (i == n - 1 or clock() - c0 >= CHUNK_S):
            took = clock() - c0
            f = speed.after(took)
            wall += took * f
            lats[lo : i + 1] = [ns * f for ns in lats[lo : i + 1]]
            lo = i + 1
            c0 = clock()
    if speed is None:
        wall = clock() - c0
    return wall, answers, lats


class QueryLog:
    """Query passes, as ``query_pass`` returns them: wall time and query
    count per point set, and a histogram of every latency."""

    STEP = 1e-3  # histogram buckets are 0.1% wide

    def __init__(self) -> None:
        self.walls: dict[int, float] = {}
        self.counts: dict[int, int] = {}
        self.buckets: Counter = Counter()  # round(ln(ns) / STEP) -> queries
        self.queries = 0
        self.passes = 0

    def add(self, s: int, wall: float, lats: list[float]) -> None:
        self.passes += 1
        self.queries += len(lats)
        self.walls[s] = self.walls.get(s, 0.0) + wall
        self.counts[s] = self.counts.get(s, 0) + len(lats)
        self.buckets.update(round(math.log(max(ns, 1)) / self.STEP) for ns in lats)

    def quantile(self, p: float) -> float:
        """The latency, in ns, below which a share ``p`` of all queries fall."""
        rank, seen = p * self.queries, 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= rank:
                return math.exp(b * self.STEP)
        raise ValueError("no queries")

    def metrics(self) -> dict:
        """Seconds per query: per set, then the mean over the sets, so
        each set weighs the same.  Median and 99th percentile: over every
        query of the run."""
        wall = statistics.fmean(self.walls[s] / self.counts[s] for s in self.walls)
        return {
            "queries_per_s": (1.0 / wall, "1/s"),
            "query_p50_us": (self.quantile(0.50) / 1e3, "us"),
            "query_p99_us": (self.quantile(0.99) / 1e3, "us"),
        }


def common_metrics(attempted: int, failed: int) -> dict:
    return {
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ops_ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def traced_pair(work, tracer: Tracer):
    """Run ``work`` untraced, then traced; return both results and the overhead."""
    t0 = clock()
    plain = work(None)
    t_plain = clock() - t0
    with tracer:
        t0 = clock()
        traced = work(tracer)
        t_traced = clock() - t0
    return plain, traced, t_traced / t_plain - 1.0


def build_workload(w, cfg, seconds, tracer, corrupt, out_dir, sets, op, check, tamper) -> Outcome:
    """The loop shared by the build workloads.

    ``op(points, s, tracer)`` builds set ``s``; it returns (build seconds,
    artifact SHA-256, ask), where ``ask(speed)`` runs one query pass on the
    result and returns (answers, wall seconds, latencies); an op runs
    ``cfg["passes"]`` of them.
    ``check(s, answers, reference)`` judges answers against the oracle
    and against ``reference``, the first answers for that set.  Sets run
    round-robin until ``seconds`` pass and each ran once; an op fails if
    it raises, its artifact differs from the set's first, or its check
    fails.  ``tamper`` corrupts one answer list when ``corrupt`` is set.
    """
    read_times: list[float] = []
    log = QueryLog()
    firsts: dict[int, tuple] = {}  # set -> (artifact sha, answers)
    done: list[tuple] = []  # (set, build seconds or None, ok)

    def one(s: int, speed: Speed | None, tr: Tracer | None = None):
        """Op on set ``s``.  The read and the build are scaled by the
        reference samples taken around them, the query passes chunk by
        chunk (see ``query_pass``); nothing is scaled when ``speed`` is
        None."""
        if tr is not None:
            tr.op = f"build{s}"
        t0 = clock()
        read_all(paths)  # one set-up sample per op, spread over the run
        t_read = clock() - t0
        t_build, artifact, ask = op(loaded[s], s, tr)
        f = speed.after(clock() - t0) if speed is not None else 1.0
        read_times.append(t_read * f)
        ok = read_ok
        for p in range(cfg["passes"]):
            answers, wall, lats = ask(speed)
            log.add(s, wall, lats)
            if corrupt and not done and p == 0:
                answers = tamper(answers)
            first = firsts.setdefault(s, (artifact, answers))
            ok = ok and artifact == first[0] and check(s, answers, first[1])
        return t_build * f, ok

    with point_files(out_dir, w, sets) as paths:
        loaded = read_all(paths)
        read_ok = loaded == sets
        if tracer is None:
            speed = Speed()
            start = clock()
            while len(done) < len(sets) or clock() - start < seconds:
                s = len(done) % len(sets)
                try:
                    done.append((s, *one(s, speed)))
                except Exception:  # a failed op is counted, not fatal
                    traceback.print_exc()
                    done.append((s, None, False))
        else:
            plain, traced, overhead = traced_pair(lambda tr: one(0, None, tr), tracer)
            done = [(0, *plain), (0, *traced)]

    attempted, failed = len(done), sum(1 for *_, ok in done if not ok)
    info = {"builds": attempted, "queries": log.queries, "sha256": {}}
    for s, (artifact, answers) in sorted(firsts.items()):
        info["sha256"][f"artifact{s}"] = artifact
        info["sha256"][f"answers{s}"] = checks.sha256(repr(answers))
    if tracer is not None:
        return Outcome(attempted, failed, layer_metrics(tracer, overhead), info)

    times: dict[int, list[float]] = {}
    for s, t, _ in done:
        if t is not None:
            times.setdefault(s, []).append(t)
    # each set weighs the same, however often it was built
    round_s = sum(statistics.fmean(ts) for ts in times.values())
    info.update(speed_factor=speed.factor(), ref_samples=len(speed.samples))
    metrics = {
        "setup_s": (statistics.median(read_times), "s"),
        "build_inputs_per_s": (cfg["n"] * len(times) / round_s, "1/s"),
        **log.metrics(),
        **common_metrics(attempted, failed),
    }
    return Outcome(attempted, failed, metrics, info)


# -- avd-build --------------------------------------------------------------------


def avd_build(cfg: dict, seed: int, seconds: float, tracer: Tracer | None, corrupt: bool, out_dir: Path) -> Outcome:
    w = "avd-build"
    sets = [inputs.margin_cells(inputs.rng_for(w, seed, f"points{s}"), cfg["dim"], cfg["n"], cfg["min_level"]) for s in range(cfg["sets"])]
    pools = [
        inputs.query_cells(inputs.rng_for(w, seed, f"queries{s}"), cfg["dim"], cfg["queries"], cfg["query_min_level"])
        for s in range(cfg["sets"])
    ]
    expected = []  # per set: oracle answers of a seeded sample plus every out-of-range query
    for s, pool in enumerate(pools):
        picks = set(inputs.rng_for(w, seed, f"check{s}").sample(range(len(pool)), min(cfg["checked"], len(pool))))
        picks |= {0} | {i for i, q in enumerate(pool) if checks.out_of_range(q)}
        expected.append(checks.nearest(sets[s], pool, sorted(picks)))

    def op(points, s, tr):
        t0 = clock()
        ix = hs.build_avd(points)
        text = ix.to_json()
        t_build = clock() - t0

        def ask(speed):
            if tr is not None:
                tr.marks["queries"] = tr.stat("metrics.d2_path")[0]
            query = hs.query
            wall, answers, lats = query_pass(lambda q: query(ix, q), pools[s], speed, tr)
            return answers, wall, lats

        return t_build, checks.sha256(text), ask

    def tamper(answers):
        return [(answers[0] + 1) % cfg["n"], *answers[1:]]

    def check(s, answers, reference):
        return checks.answers_ok(answers, expected[s], reference)

    return build_workload(w, cfg, seconds, tracer, corrupt, out_dir, sets, op, check, tamper)


# -- spanner-build ----------------------------------------------------------------


def spanner_build(cfg: dict, seed: int, seconds: float, tracer: Tracer | None, corrupt: bool, out_dir: Path) -> Outcome:
    w = "spanner-build"
    k, hops = cfg["k"], 2 * cfg["k"] + 3
    sets = [inputs.stratified_points(inputs.rng_for(w, seed, f"points{s}"), cfg["dim"], cfg["n"], cfg["min_level"]) for s in range(cfg["sets"])]
    sources = [inputs.rng_for(w, seed, f"sources{s}").sample(range(cfg["n"]), cfg["sources"]) for s in range(cfg["sets"])]
    truth = [checks.true_distances(pts, src) for pts, src in zip(sets, sources)]
    window = checks.spanner_window(cfg["dim"], k)

    def op(points, s, tr):
        t0 = clock()
        graph = hs.build_hyperbolic_spanner(points, k)
        t_build = clock() - t0
        adj = graph.adjacency()
        vid = {v.input_index: v.id for v in graph.vertices if v.kind == "input"}
        inputs_at = [vid[i] for i in range(len(points))]
        nv = len(graph.vertices)

        def ask(speed):
            # one query: every vertex's (2k+3)-hop distance from one source input;
            # only the inputs' distances are kept, packed, for the check
            query = oracle.hop_bounded_distances

            def keep(d):
                return array("d", (d[v] for v in inputs_at))

            wall, dists, lats = query_pass(lambda src: query(nv, adj, vid[src], hops), sources[s], speed, keep=keep)
            return dists, wall, lats

        return t_build, checks.sha256(graph.to_dict()), ask

    def tamper(answers):
        far = 1 if sources[0][0] == 0 else 0
        return [array("d", (float("inf") if i == far else d for i, d in enumerate(answers[0]))), *answers[1:]]

    def check(s, answers, _reference):
        return all(checks.hop_distances_ok(a, t, window) for a, t in zip(answers, truth[s]))

    return build_workload(w, cfg, seconds, tracer, corrupt, out_dir, sets, op, check, tamper)


# -- nn-query ---------------------------------------------------------------------


def nn_query(cfg: dict, seed: int, seconds: float, tracer: Tracer | None, corrupt: bool, out_dir: Path) -> Outcome:
    w = "nn-query"
    dim, n, lo = cfg["dim"], cfg["n"], cfg["min_level"]
    sets = [inputs.stratified_points(inputs.rng_for(w, seed, f"points{s}"), dim, n, lo) for s in range(cfg["sets"])]
    pools = [inputs.stratified_points(inputs.rng_for(w, seed, f"queries{s}"), dim, cfg["pool"], lo) for s in range(cfg["sets"])]
    far = inputs.far_points(inputs.rng_for(w, seed, "far"), dim, cfg["far"])
    # references from the generated points, before any timing:
    # per set (transform, cells, highest input, oracle answers of a sample)
    refs = []
    for s, points in enumerate(sets):
        transform, moved = hs.normalize(points)
        cells = [hs.cell_of(p) for p in moved]
        picks = set(inputs.rng_for(w, seed, f"check{s}").sample(range(cfg["pool"]), min(cfg["checked"], cfg["pool"]))) | {0}
        expected = checks.nearest(cells, [hs.cell_of(transform.apply(q)) for q in pools[s]], sorted(picks))
        refs.append((transform, cells, checks.highest(cells), expected))

    setups: list[tuple] = []  # (seconds, build seconds)
    log = QueryLog()
    texts: dict[int, str] = {}
    reference: dict[int, list[int]] = {}  # set -> answers of its first pass
    failed = 0

    def setup(s: int, path: Path, speed: Speed | None, tr: Tracer | None = None):
        nonlocal failed
        if tr is not None:
            tr.op = "setup"
        t0 = clock()
        with open(path) as fp:
            pts = pointfile.read_points(fp)[2]
        t1 = clock()
        text = hs.build_avd(pts).to_json()
        t2 = clock()
        ix = hs.AvdIndex.from_json(text)
        t3 = clock()
        f = speed.after(t3 - t0) if speed is not None else 1.0
        setups.append(((t3 - t0) * f, (t2 - t1) * f))
        first = texts.setdefault(s, text)
        transform, cells, _, _ = refs[s]
        if pts != sets[s] or ix.points != cells or ix.transform != transform or text != first or ix.to_json() != text:
            failed += 1
        return ix

    def one_pass(s: int, ix, speed: Speed | None, tr: Tracer | None = None):
        nonlocal failed
        if tr is not None:
            tr.marks["queries"] = tr.stat("metrics.d2_path")[0]
        query = hs.query_hyperbolic
        wall, answers, lats = query_pass(lambda q: query(ix, q), pools[s], speed, tr)
        log.add(s, wall, lats)
        if corrupt and not reference:
            answers[0] = (answers[0] + 1) % n
        first = reference.setdefault(s, answers)
        expected = refs[s][3]
        failed += sum(1 for i, a in enumerate(answers) if a != expected.get(i, first[i]))

    with point_files(out_dir, w, sets) as paths:
        if tracer is None:
            speed = Speed()
            start = clock()
            indexes = [setup(s, path, speed) for s, path in enumerate(paths)]
            while log.passes < len(sets) or clock() - start < seconds:
                s = log.passes % len(sets)
                one_pass(s, indexes[s], speed)
        else:
            _, _, overhead = traced_pair(lambda tr: one_pass(0, setup(0, paths[0], None, tr), None, tr), tracer)
            indexes = [hs.AvdIndex.from_json(texts[0])]

    far_answers = {s: [hs.query_hyperbolic(ix, q) for q in far] for s, ix in enumerate(indexes)}
    failed += sum(1 for s, got in far_answers.items() for a in got if a != refs[s][2])
    attempted = len(setups) + log.queries + len(far) * len(indexes)
    info = {"sha256": {}, "setups": len(setups), "passes": log.passes, "queries": log.queries}
    for s in sorted(texts):
        info["sha256"][f"artifact{s}"] = checks.sha256(texts[s])
        info["sha256"][f"answers{s}"] = checks.sha256(repr(reference[s] + far_answers[s]))
    if tracer is not None:
        return Outcome(attempted, failed, layer_metrics(tracer, overhead), info)

    info.update(speed_factor=speed.factor(), ref_samples=len(speed.samples))
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "build_inputs_per_s": (n * len(setups) / sum(b for _, b in setups), "1/s"),
        **log.metrics(),
        **common_metrics(attempted, failed),
    }
    return Outcome(attempted, failed, metrics, info)


WORKLOADS = {"avd-build": avd_build, "nn-query": nn_query, "spanner-build": spanner_build}


# -- per-layer metrics from a traced run --------------------------------------------

# (name, unit); every traced run emits all of them, 0 where the workload
# never enters the layer
PER_LAYER = (
    ("avd.build_avd.s", "s"),
    ("avd.select_representatives.s", "s"),
    ("avd.select_representatives.self_s", "s"),
    ("avd.reps_yield", "ratio"),
    ("avd.annotate.s", "s"),
    ("avd.annotate.self_s", "s"),
    ("avd.refine.self_s", "s"),
    ("avd.to_json.s", "s"),
    ("avd.from_json.s", "s"),
    ("avd.region_of.us_per_call", "us"),
    ("avd.reps_per_query", "count"),
    ("avd.d2_per_query", "count"),
    ("quadtree.build.s", "s"),
    ("quadtree.nodes_per_input", "ratio"),
    ("quadtree.insert_box.calls", "count"),
    ("quadtree.insert_box.self_s", "s"),
    ("quadtree.highest_under.calls", "count"),
    ("quadtree.shadow_within.calls", "count"),
    ("metrics.d2_path.calls", "count"),
    ("metrics.d2_path.us_per_call", "us"),
    ("tiling.ancestor_at.calls", "count"),
    ("tiling.cell_of.calls", "count"),
    ("hyperbolic.normalize.s", "s"),
    ("hyperbolic.hyperbolic_distance.calls", "count"),
    ("hyperbolic.hyperbolic_distance.self_s", "s"),
    ("spanner.build_hyperbolic_spanner.s", "s"),
    ("spanner.build_spanner.self_s", "s"),
    ("spanner.enumerate_bridges.s", "s"),
    ("spanner.enumerate_bridges.self_s", "s"),
    ("spanner.box_adjacent.calls", "count"),
    ("spanner.bridge_yield", "ratio"),
    ("shortcut.shortcut_forest.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    """Totals over the traced work (see the README for what each workload traces)."""
    stats, counts = tracer.stats, tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {}
    for name, _unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        calls, total, self_s = tracer.stat(layer)
        values[name] = {"calls": calls, "s": total, "self_s": self_s, "us_per_call": ratio(total * 1e6, calls)}.get(field)
    d2_calls = stats["metrics.d2_path"][0]
    values.update(
        {
            "avd.reps_yield": ratio(counts["avd.reps_added"], counts["avd.rep_pairs"]),
            "avd.reps_per_query": ratio(counts["avd.region_reps"], stats["avd.region_of"][0]),
            "avd.d2_per_query": ratio(d2_calls - tracer.marks.get("queries", d2_calls), stats["avd.query"][0]),
            "quadtree.nodes_per_input": ratio(counts["quadtree.nodes"], counts["quadtree.inputs"]),
            "spanner.bridge_yield": ratio(counts["spanner.bridges"], counts["spanner.bridge_pairs"]),
            "trace.spans": len(tracer.spans),
            "trace.overhead_frac": overhead,
        }
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER}
