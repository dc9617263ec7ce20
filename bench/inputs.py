"""Seeded inputs for the benchmark workloads.

This is the benchmark's own generator, kept apart from
``halfspace.sampling`` on purpose: a change to the library's sampler
must not change what the benchmark feeds the program.  Every stream is a
``random.Random`` seeded with a string, which Python hashes with SHA-512,
so the same workload seed gives the same inputs in every process.
"""

from __future__ import annotations

import json
import math
import random

from halfspace import CellId, HPoint


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """An independent stream per (workload, seed, purpose)."""
    return random.Random(f"halfspace-bench/{workload}/{seed}/{stream}")


def balanced_levels(rng: random.Random, n: int, levels: list[int]) -> list[int]:
    """``n`` levels dealt round-robin from ``levels``, then shuffled, so
    every seed gets the same count per level."""
    out = [levels[i % len(levels)] for i in range(n)]
    rng.shuffle(out)
    return out


def strata(rng: random.Random, n: int) -> list[float]:
    """``n`` values in [0, 1), one in each of ``n`` equal slices, in random
    order (one axis of a Latin hypercube)."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def margin_cells(rng: random.Random, dim: int, n: int, min_level: int) -> list[CellId]:
    """``n`` distinct cells whose centers lie in [1/4, 1/2] on every axis.

    Levels are dealt round-robin over [min_level, -1], skipping a level
    once all its margin cells are taken, so the count per level is the
    same for every seed.  At level L a center coordinate is
    (2k+1) * 2^(L-1), so the margin reads 2^(-L-1) <= 2k+1 <= 2^(-L) in
    integers.
    """
    ranges, free = {}, {}
    for level in range(min_level, 0):
        t = -level
        lo, hi = (1 << (t - 1)) // 2, ((1 << t) - 1) // 2
        ranges[level] = (lo, hi)
        free[level] = (hi - lo + 1) ** (dim - 1)
    if n > sum(free.values()):
        raise ValueError(f"only {sum(free.values())} margin cells down to level {min_level}")
    out: list[CellId] = []
    seen: set[CellId] = set()
    i = 0
    while len(out) < n:
        level = min_level + i % -min_level
        i += 1
        if not free[level]:
            continue
        lo, hi = ranges[level]
        while (cell := CellId(level, tuple(rng.randint(lo, hi) for _ in range(dim - 1)))) in seen:
            pass
        seen.add(cell)
        free[level] -= 1
        out.append(cell)
    rng.shuffle(out)
    return out


def stratified_points(rng: random.Random, dim: int, n: int, min_level: int) -> list[HPoint]:
    """Points whose heights fall in level slabs dealt evenly over
    [min_level, 0] (height uniform in [2^L, 2^(L+1)) within slab L) and
    whose x is a Latin hypercube sample of [0,1)^(D-1).

    Balancing levels and x keeps the shape of the set, and with it the
    cost of building on it, close to the same for every seed."""
    levels = balanced_levels(rng, n, list(range(min_level, 1)))
    axes = [strata(rng, n) for _ in range(dim - 1)]
    return [HPoint(tuple(a[i] for a in axes), math.ldexp(rng.uniform(1.0, 2.0), levels[i])) for i in range(n)]


def far_points(rng: random.Random, dim: int, n: int) -> list[HPoint]:
    """Queries that leave the indexed range after normalization: far
    above every input, or far to the side of them."""
    out = []
    for i in range(n):
        if i % 2:
            out.append(HPoint(tuple(rng.uniform(0.0, 1.0) for _ in range(dim - 1)), rng.uniform(1e6, 1e7)))
        else:
            out.append(HPoint(tuple(rng.uniform(50.0, 100.0) for _ in range(dim - 1)), rng.uniform(0.5, 1.5)))
    return out


def query_cells(rng: random.Random, dim: int, n: int, min_level: int) -> list[CellId]:
    """Discrete queries near the data: cells centered in the [1/4, 1/2]
    margin on every axis, levels dealt evenly over [min_level, -1]; every
    50th one is out of range instead (above the root level, or beside
    the root shadow)."""
    levels = balanced_levels(rng, n, list(range(min_level, 0)))
    out = []
    for i, level in enumerate(levels):
        if i % 50 == 49:
            if i % 100 == 99:
                out.append(CellId(1, tuple(rng.randint(0, 3) for _ in range(dim - 1))))
            else:
                out.append(CellId(level, tuple(-1 - rng.randrange(4) for _ in range(dim - 1))))
            continue
        t = -level
        lo, hi = (1 << (t - 1)) // 2, ((1 << t) - 1) // 2
        out.append(CellId(level, tuple(rng.randint(lo, hi) for _ in range(dim - 1))))
    return out


def point_file_text(points: list) -> str:
    """The JSON-lines point-file format that ``halfspace.pointfile`` reads."""
    first = points[0]
    if isinstance(first, HPoint):
        header = {"dim": first.dim, "kind": "continuous"}
        lines = [json.dumps({"x": list(p.x), "z": p.z}, sort_keys=True) for p in points]
    else:
        header = {"dim": first.dim, "kind": "discrete"}
        lines = [json.dumps({"coords": list(c.coords), "level": c.level}, sort_keys=True) for c in points]
    return "\n".join([json.dumps(header, sort_keys=True), *lines]) + "\n"
