"""Opt-in tracing of halfspace's public functions, from outside ``src/``.

``Tracer`` is a context manager.  On entry it rebinds every listed
module-level function in each halfspace module that holds it (so
``avd.d2`` and ``spanner.d2_path`` are wrapped along with
``metrics.d2`` and ``metrics.d2_path``) and patches the listed
``QuadTree`` and ``AvdIndex`` methods on their classes.  On exit every
original is put back.

Phase-level calls become spans ``[name, start, end, parent, op, self]``
kept in memory until ``write``.  Hot leaf calls only add to per-name
counters (calls, inclusive seconds, self seconds), so a build making
millions of them stores nothing per call.  A call's self time is its
duration minus the time of the wrapped calls inside it.

Hooks run after selected calls to count outcomes (representatives,
bridges, tree nodes) from public fields only; their time is charged to
no layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from halfspace import avd, hyperbolic, metrics, pointfile, quadtree, shortcut, spanner, tiling  # noqa: F401
from halfspace.avd import AvdIndex
from halfspace.quadtree import COMPRESSED, ORDINARY, QuadTree

SPAN, LEAF = True, False

# (module, function, kind); the metric name is "module.function"
FUNCTIONS = (
    ("pointfile", "read_points", SPAN),
    ("hyperbolic", "normalize", SPAN),
    ("quadtree", "build_quadtree", SPAN),
    ("avd", "build_avd", SPAN),
    ("avd", "refine", SPAN),
    ("avd", "annotate", SPAN),
    ("avd", "fill_highest", SPAN),
    ("avd", "select_representatives", SPAN),
    ("avd", "query", SPAN),
    ("avd", "query_hyperbolic", SPAN),
    ("spanner", "build_hyperbolic_spanner", SPAN),
    ("spanner", "build_spanner", SPAN),
    ("spanner", "enumerate_bridges", SPAN),
    ("shortcut", "shortcut_forest", SPAN),
    ("metrics", "d2", LEAF),
    ("metrics", "d2_path", LEAF),
    ("tiling", "ancestor_at", LEAF),
    ("tiling", "cell_of", LEAF),
    ("quadtree", "shadow_within", LEAF),
    ("spanner", "box_adjacent", LEAF),
    ("hyperbolic", "hyperbolic_distance", LEAF),
)

# (class, method, metric name, kind)
METHODS = (
    (QuadTree, "__init__", "quadtree.build", SPAN),
    (QuadTree, "insert_box", "quadtree.insert_box", LEAF),
    (QuadTree, "highest_under", "quadtree.highest_under", LEAF),
    (AvdIndex, "region_of", "avd.region_of", LEAF),
    (AvdIndex, "to_json", "avd.to_json", SPAN),
    (AvdIndex, "from_json", "avd.from_json", SPAN),
)


def _compressed_with_inputs(tree: QuadTree) -> int:
    return sum(1 for n in tree.iter_nodes() if n.kind == COMPRESSED and n.count > 0)


def _after_tree_build(counts: Counter, args, _result) -> None:
    tree = args[0]
    counts["quadtree.nodes"] += sum(1 for _ in tree.iter_nodes())
    counts["quadtree.inputs"] += len(tree.points)


def _after_representatives(counts: Counter, args, _result) -> None:
    """Representatives beyond the always-present n2, per (region,
    compressed node of the unrefined tree) pair the selection tests."""
    refined, base = args
    regions = [n for n in refined.iter_nodes() if n.kind != ORDINARY]
    counts["avd.reps_added"] += sum(len(n.reps) - 1 for n in regions)
    counts["avd.rep_pairs"] += len(regions) * _compressed_with_inputs(base)


def _after_bridges(counts: Counter, args, result) -> None:
    c = _compressed_with_inputs(args[0])
    counts["spanner.bridges"] += len(result)
    counts["spanner.bridge_pairs"] += c * (c - 1) // 2


def _after_region(counts: Counter, _args, node) -> None:
    counts["avd.region_reps"] += len(node.reps)


HOOKS = {
    "quadtree.build": _after_tree_build,
    "avd.select_representatives": _after_representatives,
    "spanner.enumerate_bridges": _after_bridges,
    "avd.region_of": _after_region,
}


class Tracer:
    """Collects spans and per-name counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.op: object = None  # tags new spans; set by the caller
        self.marks: dict = {}  # snapshots the caller takes between phases
        self._frames: list[list[float]] = []  # child seconds of each open call
        self._open: list[int] = []  # ids of open spans
        self._undo: list[tuple] = []
        self._t0 = 0.0

    def stat(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])

    def _wrap(self, name: str, fn, span: bool):
        clock = time.perf_counter
        frames, opened, spans = self._frames, self._open, self.spans
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                rec = [name, 0.0, 0.0, opened[-1] if opened else None, tracer.op, 0.0]
                opened.append(len(spans))
                spans.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                elapsed = t1 - t0
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    opened.pop()
                    rec[1], rec[2], rec[5] = t0, t1, elapsed - frame[0]
            if hook is not None:
                h0 = clock()
                hook(counts, args, result)
                if frames:
                    frames[-1][0] += clock() - h0
            return result

        return traced

    def __enter__(self) -> "Tracer":
        mods = [m for key, m in list(sys.modules.items()) if key == "halfspace" or key.startswith("halfspace.")]
        for modname, fname, kind in FUNCTIONS:
            original = getattr(sys.modules[f"halfspace.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, kind)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for cls, meth, name, kind in METHODS:
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__, kind))
            else:
                wrapper = self._wrap(name, raw, kind)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, wrapper)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write(self, path, **meta) -> None:
        """Spans (times relative to install) plus the counters, as JSON."""
        t0 = self._t0
        spans = [
            {"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p, "op": op, "self": sf}
            for i, (n, s, e, p, op, sf) in enumerate(self.spans)
        ]
        stats = {k: {"calls": c, "s": s, "self_s": sf} for k, (c, s, sf) in sorted(self.stats.items())}
        with open(path, "w") as fp:
            json.dump({**meta, "stats": stats, "counts": dict(sorted(self.counts.items())), "spans": spans}, fp)
