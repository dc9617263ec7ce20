"""The two discrete distances on the binary tiling.

``d1`` counts arbitrary up/down/horizontal moves between cell centers
and is a metric.  ``d2`` is the length of the shortest path using at
most one horizontal move; it is only a semi-metric (the triangle
inequality can fail) but never exceeds ``d1 + 2``, and between any two
cells there is a unique d2-path: an up-run, at most one horizontal
"bridge" move, and a down-run.

Both are computed in closed form on the cells' own coordinate tuples
``a`` and ``b``, read in place.  With ``sa`` and ``sb`` the shifts that
lift them to the higher of the two levels (one is 0, the other the
level gap), the ancestors ``s`` levels above it are ``a >> (sa + s)``
and ``b >> (sb + s)``, at horizontal distance

    lambda(s) = max_j |(a_j >> (sa + s)) - (b_j >> (sb + s))|.

The d2-path climbs to the smallest ``s`` with lambda(s) <= 1 and d1's
normal form (up-run, at most four horizontal moves, down-run) to the
smallest ``s`` with lambda(s) <= 4; both lengths then follow from the
level gap, ``s`` and lambda(s).  Shifting halves a difference up to
rounding, lambda(s+1) <= (lambda(s) + 1) // 2, so once a threshold
t >= 1 holds it keeps holding and the smallest ``s`` can be searched
from any lower bound upwards.  With Delta = lambda(0) every
lambda(s) lies between floor(Delta / 2^s) and ceil(Delta / 2^s).  The
search starts at the smallest ``s`` with floor(Delta / 2^s) <= t,
which is the bit length of Delta // (t + 1).  There Delta is below
(t + 1) * 2^s, so one level higher ceil(Delta / 2^(s+1)) <= t for
every t >= 1: at most one fix-up shift follows.  This is the shift-and-compare trick of Chan,
"Closest-point problems simplified on the RAM" (SODA 2002): a metric
evaluation is a constant number of big-integer operations however many
levels apart the cells are, and builds no lifted tuple and no cell
but the apexes a :class:`D2Path` returns.

In the hyperbolic plane (D = 2) a cell has one coordinate, Delta is one
``abs`` and lambda(s) one shift pair, so :func:`d2_argmin`, which serves
every AVD query, runs that case as scalar integer code: one lift shift,
the start ``s``, and at most the one fix-up shift.  At D = 3 a cell has
two coordinates, and :func:`_climb` itself, which every other caller
shares, takes two-axis steps: four shifts and two ``abs`` per level
tried, with no ``zip`` and no loop.  Both pick the case from the
coordinate count they read anyway, the same count that makes a
per-coordinate loop pure overhead; D >= 4 keeps the in-place loops.
In-process on a shared 2-core host, the two-axis climb took a D = 3
AVD query's argmin over its representatives from 2.3 to 1.3
microseconds, and the whole query from 4.0-4.1 to 2.7-2.8 with the
two-axis descent (``ROADMAP.md``, measurement notes).
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

from .tiling import CellId, is_ancestor_or_self, parent


@dataclass(frozen=True)
class D2Path:
    """The unique d2-path between two cells.

    ``apex_p`` tops the up-run from ``start``; ``apex_q`` tops the
    down-run into ``end``.  With a bridge the apexes are horizontal
    neighbors at the same level, otherwise they coincide and one
    endpoint is an ancestor-or-self of the other.
    """

    start: CellId
    end: CellId
    apex_p: CellId
    apex_q: CellId
    has_bridge: bool

    @property
    def length(self) -> int:
        up = self.apex_p.level - self.start.level
        down = self.apex_q.level - self.end.level
        return up + down + (1 if self.has_bridge else 0)

    @property
    def bridge_level(self) -> int:
        """Level of the bridge; for ancestor pairs, the level of the upper cell."""
        return self.apex_p.level

    def cells(self) -> list[CellId]:
        """The full cell sequence of the path, one move per step."""
        ups = [self.start]
        while ups[-1] != self.apex_p:
            ups.append(parent(ups[-1]))
        downs = [self.end]
        while downs[-1] != self.apex_q:
            downs.append(parent(downs[-1]))
        if self.has_bridge:
            return ups + downs[::-1]
        return ups + downs[-2::-1]


def _check_same_dim(p: CellId, q: CellId) -> None:
    if len(p.coords) != len(q.coords):
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def lambda_(p: CellId, q: CellId) -> int:
    """Horizontal distance between same-level cells, in cell widths.

    Exactly max_j |k_j(p) - k_j(q)| in integer arithmetic.
    """
    _check_same_dim(p, q)
    if p.level != q.level:
        raise ValueError(f"lambda needs equal levels, got {p.level} and {q.level}")
    return max(abs(a - b) for a, b in zip(p.coords, q.coords))


def _climb(a: tuple[int, ...], b: tuple[int, ...], sa: int, sb: int, t: int) -> tuple[int, int]:
    """The smallest shift s >= 0 with lambda(s) <= t, and lambda(s).

    ``a``, ``b`` are the cells' own coordinates and ``sa``, ``sb`` their
    lifting shifts (module docstring).  Returns Delta = lambda(0) if it
    meets ``t``, else starts at the lower bound from Delta and shifts up
    while the threshold fails, at most once.

    With two coordinates (D = 3, read off ``a``) the climb is unrolled:
    the lift shifts, Delta as the larger of two ``abs`` differences, the
    start, and at most the one fix-up shift (t >= 1, module docstring),
    with no ``zip`` and no loop.  D >= 4 takes the loops; the branch
    costs one ``len`` there.
    """
    if len(a) == 2:
        a0, a1 = a
        b0, b1 = b
        if sa:
            a0, a1 = a0 >> sa, a1 >> sa
        if sb:
            b0, b1 = b0 >> sb, b1 >> sb
        delta, v = abs(a0 - b0), abs(a1 - b1)
        if v > delta:
            delta = v
        if delta <= t:
            return 0, delta
        s = (delta // (t + 1)).bit_length()
        lam, v = abs((a0 >> s) - (b0 >> s)), abs((a1 >> s) - (b1 >> s))
        if v > lam:
            lam = v
        if lam > t:
            s += 1
            lam, v = abs((a0 >> s) - (b0 >> s)), abs((a1 >> s) - (b1 >> s))
            if v > lam:
                lam = v
        return s, lam
    delta = 0
    for x, y in zip(a, b):
        v = abs((x >> sa) - (y >> sb))
        if v > delta:
            delta = v
    if delta <= t:
        return 0, delta
    s = (delta // (t + 1)).bit_length()
    while True:
        u, w = sa + s, sb + s
        lam = 0
        for x, y in zip(a, b):
            v = abs((x >> u) - (y >> w))
            if v > lam:
                lam = v
        if lam <= t:
            return s, lam
        s += 1


def d1(p: CellId, q: CellId) -> int:
    """Minimum number of moves between two cell centers.

    A shortest path can be normalized to up-moves, then horizontal
    moves, then down-moves: lift the lower endpoint, then climb both in
    lockstep (two moves per level) while the horizontal distance
    exceeds 4, and cross the rest horizontally.
    """
    _check_same_dim(p, q)
    gap = q.level - p.level
    s, lam = _climb(p.coords, q.coords, gap, 0, 4) if gap > 0 else _climb(p.coords, q.coords, 0, -gap, 4)
    return abs(gap) + 2 * s + lam


def d2_path(p: CellId, q: CellId) -> D2Path:
    """The unique path from p to q with at most one horizontal move.

    Both endpoints climb to a common level, then in lockstep until the
    two ancestors are equal (ancestor/descendant case, no bridge) or
    horizontal neighbors (the bridge, found at the lowest such level).
    """
    _check_same_dim(p, q)
    gap = q.level - p.level
    sp, sq, top = (gap, 0, q) if gap > 0 else (0, -gap, p)
    s, lam = _climb(p.coords, q.coords, sp, sq, 1)
    if lam == 0:
        # only at s == 0: above it lambda(s - 1) >= 2 forces
        # lambda(s) >= 1 (distinct children of one cell are horizontal
        # neighbors), so a climb stops at 1 before the chains can merge
        return D2Path(p, q, top, top, has_bridge=False)
    apex_p = CellId.derived(top.level + s, tuple([x >> (sp + s) for x in p.coords]))
    apex_q = CellId.derived(top.level + s, tuple([y >> (sq + s) for y in q.coords]))
    return D2Path(p, q, apex_p, apex_q, has_bridge=True)


def d2(p: CellId, q: CellId) -> int:
    """Length of the d2-path between p and q: up to the apex level, one
    bridge move if the apexes differ, and down."""
    _check_same_dim(p, q)
    gap = q.level - p.level
    s, lam = _climb(p.coords, q.coords, gap, 0, 1) if gap > 0 else _climb(p.coords, q.coords, 0, -gap, 1)
    return abs(gap) + 2 * s + lam


def d2_argmin(q: CellId, cells: Sequence[CellId], indices: Collection[int]) -> int:
    """The ``i`` in ``indices`` minimizing ``(d2(q, cells[i]), i)``.

    The AVD's one argmin: a query over its region's representatives and
    the annotation over a node's candidates.  ``indices`` is a list or
    set.  A single candidate is returned without evaluating anything.
    Otherwise each candidate costs one :func:`_climb` on ``q``'s and the
    candidate's own coordinate tuples, the level gap passed as a shift:
    no :func:`d2` call, and no lifted tuple or cell is made.  Raises
    ``ValueError`` on empty ``indices`` and on a dimension mismatch of
    an evaluated candidate.

    With one coordinate (D = 2, read off ``q``) the climb is scalar: one
    lift shift, the start ``t`` = bit length of ``|a - b| // 2``, and at
    most one fix-up shift (module docstring), with no list, no ``zip``
    and no :func:`_climb` call.  More coordinates take :func:`_climb`,
    two-axis at D = 3.
    """
    if len(indices) == 1:
        (only,) = indices
        return only
    if not indices:
        raise ValueError(f"no candidates to rank for the query {q!r}")
    lq, kq = q.level, q.coords
    axes = len(kq)
    best = best_i = None
    if axes == 1:
        (k,) = kq
        for i in indices:
            c = cells[i]
            kc = c.coords
            if len(kc) != 1:
                raise ValueError(f"dimension mismatch: {q.dim} vs {c.dim}")
            s = c.level - lq
            if s > 0:
                a, b = k >> s, kc[0]
            else:
                a, b, s = k, kc[0] >> -s, -s
            t = (abs(a - b) >> 1).bit_length()
            lam = abs((a >> t) - (b >> t))
            if lam > 1:
                t += 1
                lam = abs((a >> t) - (b >> t))
            dist = 2 * t + lam + s
            if best is None or dist < best or (dist == best and i < best_i):
                best, best_i = dist, i
        return best_i
    for i in indices:
        c = cells[i]
        kc = c.coords
        if len(kc) != axes:
            raise ValueError(f"dimension mismatch: {q.dim} vs {c.dim}")
        s = c.level - lq
        t, lam = _climb(kq, kc, s, 0, 1) if s > 0 else _climb(kq, kc, 0, -s, 1)
        dist = 2 * t + lam + abs(s)  # d2: the level gap, t levels up and down, lam across
        if best is None or dist < best or (dist == best and i < best_i):
            best, best_i = dist, i
    return best_i


def bridge_level_estimate(p: CellId, q: CellId) -> int:
    """floor(log2 of the L-infinity distance between the two centers).

    Always within one of the true bridge level.  Computed from exact
    scaled-integer center differences, not floating log, so powers of
    two never round the wrong way.
    """
    _check_same_dim(p, q)
    if p == q or is_ancestor_or_self(p, q) or is_ancestor_or_self(q, p):
        raise ValueError("bridge level estimate needs a non-ancestor-related pair")
    m = min(p.level, q.level)
    # center x_j = (2k_j + 1) * 2^(level-1); rescale both to units of 2^(m-1)
    diff = 0
    for a, b in zip(p.coords, q.coords):
        v = abs(((2 * a + 1) << (p.level - m)) - ((2 * b + 1) << (q.level - m)))
        if v > diff:
            diff = v
    # distance = diff * 2^(m-1); floor(log2) = (m-1) + floor(log2 diff)
    return (m - 1) + (diff.bit_length() - 1)
