"""Output checks, run after the timed windows.

References come from the generated inputs and ``halfspace.oracle``,
never from the artifact under test.
"""

from __future__ import annotations

import hashlib
import json
import math

from halfspace import CellId, HPoint, hyperbolic_distance
from halfspace.oracle import nn_bruteforce

SLACK = 1e-9  # absolute slack between smooth closed forms, as in the verifier


def sha256(obj) -> str:
    data = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def highest(cells: list[CellId]) -> int:
    """The highest-level input, ties to the smallest index."""
    return min(range(len(cells)), key=lambda i: (-cells[i].level, i))


def out_of_range(q: CellId) -> bool:
    """Above the root level or outside the root shadow [0,1)^(D-1)."""
    return q.level > 0 or not all(0 <= k < (1 << -q.level) for k in q.coords)


def nearest(cells: list[CellId], queries: list[CellId], picks) -> dict[int, int]:
    """Exact d2-nearest input for each picked query, by exhaustive scan."""
    top = highest(cells)
    return {i: top if out_of_range(queries[i]) else nn_bruteforce(cells, queries[i], "d2") for i in picks}


def answers_ok(answers: list[int], expected: dict[int, int], reference: list[int]) -> bool:
    """Checked entries match the oracle; the rest repeat the reference run."""
    if any(answers[i] != e for i, e in expected.items()):
        return False
    return all(a == r for i, (a, r) in enumerate(zip(answers, reference)) if i not in expected)


def spanner_window(dim: int, k: int) -> float:
    """Additive window of (2k+3)-hop distances, as ``check_hyperbolic_spanner`` uses."""
    ln2 = math.log(2.0)
    return (2 * k + 3) * (3 * math.log(dim) + 2 + 6 * ln2 + 2 * ln2)


def true_distances(points: list[HPoint], sources: list[int]) -> list[list[float]]:
    return [[hyperbolic_distance(points[s], p) for p in points] for s in sources]


def hop_distances_ok(got: list[float], truth: list[float], window: float) -> bool:
    """Every input reached, never below d_H, never past the window."""
    return all(g != math.inf and t - SLACK <= g <= t + window + SLACK for g, t in zip(got, truth))
