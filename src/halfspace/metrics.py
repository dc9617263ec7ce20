"""The two discrete distances on the binary tiling.

``d1`` counts arbitrary up/down/horizontal moves between cell centers
and is a metric.  ``d2`` is the length of the shortest path using at
most one horizontal move; it is only a semi-metric (the triangle
inequality can fail) but never exceeds ``d1 + 2``, and between any two
cells there is a unique d2-path: an up-run, at most one horizontal
"bridge" move, and a down-run.

Both are computed in closed form on the raw coordinates.  The lower
cell is lifted to the other's level L (one shift per coordinate); with
``a`` and ``b`` the two coordinate tuples there, the ancestors ``s``
levels further up are ``a >> s`` and ``b >> s``, at horizontal distance

    lambda(s) = max_j |(a_j >> s) - (b_j >> s)|.

The d2-path climbs to the smallest ``s`` with lambda(s) <= 1 and d1's
normal form (up-run, at most four horizontal moves, down-run) to the
smallest ``s`` with lambda(s) <= 4; both lengths then follow from the
level gap, ``s`` and lambda(s).  Shifting halves a difference up to
rounding, lambda(s+1) <= (lambda(s) + 1) // 2, so once a threshold
t >= 1 holds it keeps holding and the smallest ``s`` can be searched
from any lower bound upwards.  With Delta = max_j |a_j - b_j| every
lambda(s) lies between floor(Delta / 2^s) and ceil(Delta / 2^s).  The
search starts at the smallest ``s`` with floor(Delta / 2^s) <= t,
which is the bit length of Delta // (t + 1).  There Delta is below
(t + 1) * 2^s, so one level higher ceil(Delta / 2^(s+1)) <= t for
every t >= 1: at most one fix-up shift follows.  This is the shift-and-compare trick of Chan,
"Closest-point problems simplified on the RAM" (SODA 2002): a metric
evaluation is a constant number of big-integer operations however many
levels apart the cells are, and builds no cell except the apexes a
:class:`D2Path` returns.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

from .tiling import CellId, is_ancestor_or_self, lift_pair, parent


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


def _climb(a: tuple[int, ...], b: tuple[int, ...], t: int) -> tuple[int, int]:
    """The smallest shift s >= 0 with lambda(s) <= t, and lambda(s).

    Starts at the lower bound from Delta (see the module docstring) and
    shifts up while the threshold fails, at most once.
    """
    delta = 0
    for x, y in zip(a, b):
        v = abs(x - y)
        if v > delta:
            delta = v
    s = (delta // (t + 1)).bit_length()
    while True:
        lam = 0
        for x, y in zip(a, b):
            v = abs((x >> s) - (y >> s))
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
    _, a, b = lift_pair(p, q)
    s, lam = _climb(a, b, 4)
    return abs(p.level - q.level) + 2 * s + lam


def d2_path(p: CellId, q: CellId) -> D2Path:
    """The unique path from p to q with at most one horizontal move.

    Both endpoints climb to a common level, then in lockstep until the
    two ancestors are equal (ancestor/descendant case, no bridge) or
    horizontal neighbors (the bridge, found at the lowest such level).
    """
    level, a, b = lift_pair(p, q)
    s, lam = _climb(a, b, 1)
    if lam == 0:
        # only at s == 0: above it lambda(s - 1) >= 2 forces
        # lambda(s) >= 1 (distinct children of one cell are horizontal
        # neighbors), so a climb stops at 1 before the chains can merge
        top = p if p.level >= q.level else q
        return D2Path(p, q, top, top, has_bridge=False)
    apex_p = CellId(level + s, tuple([x >> s for x in a]))
    apex_q = CellId(level + s, tuple([y >> s for y in b]))
    return D2Path(p, q, apex_p, apex_q, has_bridge=True)


def d2(p: CellId, q: CellId) -> int:
    """Length of the d2-path between p and q: up to the apex level, one
    bridge move if the apexes differ, and down."""
    level, a, b = lift_pair(p, q)
    s, lam = _climb(a, b, 1)
    return 2 * (level + s) - p.level - q.level + lam


def d2_argmin(q: CellId, cells: Sequence[CellId], indices: Collection[int]) -> int:
    """The ``i`` in ``indices`` minimizing ``(d2(q, cells[i]), i)``.

    The AVD's one argmin: a query over its region's representatives and
    the annotation over a node's candidates.  ``indices`` is a nonempty
    list or set.  A single candidate is returned without evaluating
    anything.  Otherwise each candidate costs one :func:`_climb` on the
    coordinates, the lower cell's lifted in place: no :func:`d2` or
    :func:`~halfspace.tiling.lift_pair` call and no cell is made.
    Raises ``ValueError`` on a dimension mismatch of an evaluated
    candidate.
    """
    if len(indices) == 1:
        (only,) = indices
        return only
    lq, kq = q.level, q.coords
    axes = len(kq)
    best = best_i = None
    for i in indices:
        c = cells[i]
        kc = c.coords
        if len(kc) != axes:
            raise ValueError(f"dimension mismatch: {q.dim} vs {c.dim}")
        s = c.level - lq
        t, lam = _climb([k >> s for k in kq] if s > 0 else kq, [k >> -s for k in kc] if s < 0 else kc, 1)
        dist = 2 * t + lam + abs(s)  # d2: the level gap, t levels up and down, lam across
        if best is None or dist < best or (dist == best and i < best_i):
            best, best_i = dist, i
    return best_i


def bridge_level(p: CellId, q: CellId) -> int:
    """Level of the bridge of the d2-path, with the convention that an
    ancestor/descendant (or equal) pair reports the upper cell's level."""
    level, a, b = lift_pair(p, q)
    return level + _climb(a, b, 1)[0]


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
