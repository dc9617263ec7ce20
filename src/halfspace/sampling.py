"""Seeded random point-set generators used by the CLI and the verifier."""

from __future__ import annotations

import math
import random
from typing import Sequence

from .tiling import CellId, HPoint

UNIFORM = "uniform"
STRATIFIED = "stratified"


def sample_continuous(
    rng: random.Random,
    dim: int,
    n: int,
    mode: str = UNIFORM,
    min_level: int = -8,
) -> list[HPoint]:
    """Random halfspace points with x in [0,1]^(D-1).

    ``uniform`` draws heights uniformly below 2; ``stratified`` first
    picks a level in [min_level, 0] and then a height inside that slab,
    spreading points across scales.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    out = []
    for _ in range(n):
        x = tuple(rng.random() for _ in range(dim - 1))
        if mode == UNIFORM:
            z = rng.uniform(0.02, 1.98)
        elif mode == STRATIFIED:
            lev = rng.randint(min_level, 0)
            z = math.ldexp(rng.uniform(1.0, 2.0), lev)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        out.append(HPoint(x, z))
    return out


def sample_cells(rng: random.Random, dim: int, n: int, min_level: int = -8) -> list[CellId]:
    """Random cells inside the root cell's shadow."""
    if n < 1:
        raise ValueError("need at least one point")
    out = []
    for _ in range(n):
        level = rng.randint(min_level, 0)
        span = 1 << (-level)
        out.append(CellId(level, tuple(rng.randrange(span) for _ in range(dim - 1))))
    return out


def sample_margin_cells(rng: random.Random, dim: int, n: int, min_level: int = -8) -> list[CellId]:
    """Random cells whose center x-coordinates lie in [1/4, 1/2] per axis,
    the precondition of the Voronoi refinement step."""
    if n < 1:
        raise ValueError("need at least one point")
    out = []
    for _ in range(n):
        level = rng.randint(min_level, -1)
        t = -1 - level
        # the odd numerators 2k+1 in [2^t, 2^(t+1)] are exactly these k
        lo = (1 << t) // 2
        hi = ((1 << (t + 1)) - 1) // 2
        out.append(CellId(level, tuple(rng.randint(lo, hi) for _ in range(dim - 1))))
    return out


def distinct(points: Sequence) -> list:
    """Order-preserving dedup."""
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out
