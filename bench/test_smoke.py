"""The benchmark's own test, at tiny sizes (``--smoke``).

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced run emits the per-layer table and repeats its
counts exactly, that a corrupted answer fails the output check, and
that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that later changes quote; each must exist in every traced run
TABLE = (
    "avd.select_representatives.self_s",
    "avd.reps_yield",
    "avd.annotate.self_s",
    "quadtree.highest_under.calls",
    "avd.refine.self_s",
    "quadtree.insert_box.calls",
    "quadtree.insert_box.self_s",
    "metrics.d2_path.calls",
    "metrics.d2_path.us_per_call",
    "avd.d2_per_query",
    "tiling.ancestor_at.calls",
    "avd.region_of.us_per_call",
    "avd.reps_per_query",
    "avd.from_json.s",
    "avd.to_json.s",
    "spanner.enumerate_bridges.self_s",
    "spanner.box_adjacent.calls",
    "spanner.bridge_yield",
    "spanner.build_spanner.self_s",
    "shortcut.shortcut_forest.self_s",
    "hyperbolic.hyperbolic_distance.calls",
    "hyperbolic.hyperbolic_distance.self_s",
    "quadtree.build.s",
    "quadtree.nodes_per_input",
    "quadtree.shadow_within.calls",
    "hyperbolic.normalize.s",
    "tiling.cell_of.calls",
    "trace.overhead_frac",
)


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.2", "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, *extra: str) -> tuple[dict, dict]:
    proc = run(workload, *extra)
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return json.loads(info), result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    info, result = result_of(workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layer_table_and_repeats_counts(workload):
    _, first = result_of(workload, "--trace", "1")
    _, second = result_of(workload, "--trace", "1")
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(TABLE) <= set(first["metrics"])
    exact = [n for n, u in units(first).items() if u in ("count", "ratio") and n != "trace.overhead_frac"]
    assert {n: first["metrics"][n]["value"] for n in exact} == {n: second["metrics"][n]["value"] for n in exact}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_fails_the_check(workload):
    _, result = result_of(workload, "--trace", "0", "--corrupt")
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
