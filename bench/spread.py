#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 601-610 --seconds 30 [--workloads nn-query,...] [--out FILE]

Runs are sequential, one process at a time, workloads interleaved.  For
every workload and end-to-end metric it prints the median over the runs
and the quartile spread: (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``.  ``--out`` writes the same as
JSON (the form of ``bench/BASELINE.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 601-610 or 1,5,9")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    seeds, workloads = seeds_of(args.seeds), args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    report = {"command": " ".join(spec["command"]) + f" --workload <w> --seed <n> --seconds {args.seconds:g} --trace 0", "workloads": {}}
    for w, results in runs.items():
        entry = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
            print(f"{w:14s} {m['name']:20s} median {med:<12.5g} spread {spread:.3f}{flag}")
        report["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
