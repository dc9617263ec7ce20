#!/usr/bin/env python3
"""Benchmark of the halfspace library: one workload per run, one process.

    python3 bench/run.py --workload nn-query --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the library from its
``src/`` directory.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it carries the SHA-256 of every
artifact and answer sequence, so two commits can be compared byte for
byte.  ``--smoke`` shrinks every size for the benchmark's own test;
``--corrupt`` alters one answer before the checks, which must then fail.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["avd-build", "nn-query", "spanner-build"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed window (untraced runs)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    p.add_argument("--corrupt", action="store_true", help="alter one answer; the output check must fail")
    return p.parse_args(argv)


def use_checkout_sources() -> None:
    """Import halfspace from this checkout's src/, or stop with an error."""
    if not (SRC / "halfspace" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'halfspace'} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import halfspace

    if not Path(halfspace.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported halfspace from {halfspace.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    cfg = SIZES["smoke" if args.smoke else "full"][args.workload]
    tracer = Tracer() if args.trace else None
    outcome = WORKLOADS[args.workload](cfg, args.seed, args.seconds, tracer, args.corrupt, OUT)
    info = {"workload": args.workload, "seed": args.seed, **outcome.info}
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path, workload=args.workload, seed=args.seed)
        info["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
