"""The names the benchmark's tracer wraps still exist in the library.

``bench/tracer.py`` looks up every ``(module, function)`` of its
``FUNCTIONS`` in ``halfspace.<module>`` and every method of its
``METHODS`` in its class's ``__dict__``; a refactor that drops or moves
one of them breaks every traced benchmark run.  The tracer is loaded
from its file and only read.
"""

import importlib
from pathlib import Path

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
