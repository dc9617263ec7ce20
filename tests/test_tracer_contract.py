"""The names the benchmark's tracer wraps still exist in the library.

``bench/tracer.py`` looks up every ``(module, function)`` of its
``FUNCTIONS`` in ``halfspace.<module>`` and every method of its
``METHODS`` in its class's ``__dict__``; a refactor that drops or moves
one of them breaks every traced benchmark run.  The tracer is loaded
from its file and only read.  Its per-query metrics (``avd.region_of.*``,
``avd.reps_per_query``) count calls of the patched ``AvdIndex.region_of``,
so a query must go through that method.
"""

import importlib
import random
from pathlib import Path

from halfspace.avd import AvdIndex, build_avd, query, query_hyperbolic
from halfspace.tiling import HPoint

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_names() -> dict:
    """The tracer module's globals, run from source (no bytecode is
    written next to it)."""
    names = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), names)
    return names


def test_tracer_functions_resolve():
    functions = _tracer_names()["FUNCTIONS"]
    assert functions
    for modname, fname, _kind in functions:
        module = importlib.import_module(f"halfspace.{modname}")
        assert callable(getattr(module, fname, None)), f"halfspace.{modname}.{fname}"


def test_tracer_methods_resolve():
    methods = _tracer_names()["METHODS"]
    assert methods
    for cls, meth, name, _kind in methods:
        assert meth in cls.__dict__, f"{cls.__name__}.{meth} ({name})"


def test_query_calls_region_of_once_per_query(monkeypatch):
    rng = random.Random(7)
    ix = build_avd([HPoint((rng.uniform(0, 1),), rng.uniform(0.01, 1.0)) for _ in range(24)])
    calls = []
    original = AvdIndex.region_of

    def counted(self, q):
        calls.append(q)
        return original(self, q)

    monkeypatch.setattr(AvdIndex, "region_of", counted)
    qs = [HPoint((rng.uniform(0, 1),), rng.uniform(0.01, 1.0)) for _ in range(50)]
    for q in qs:
        query_hyperbolic(ix, q)
    assert len(calls) == len(qs)
    assert all(ix.tree.in_root(c) for c in calls)  # in range, so no early answer
    for c in list(calls):
        query(ix, c)
    assert len(calls) == 2 * len(qs)
