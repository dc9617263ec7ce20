"""Independent brute-force references for the fast implementations.

Everything here recomputes results from definitions: one
meet-in-the-middle breadth-first search over the explicit move graph
answers ``d1`` over cells and ``d2`` over (cell, horizontal move spent)
states, which join only when at most one half-path spent the move;
then exhaustive nearest-neighbor scans, linear scans over stored boxes
for quadtree cell queries, and shortest paths (Dijkstra, hop-bounded
Bellman-Ford) over spanner graphs.  The verifier, the CLI, the demos and the benchmark call them.
They are correctness references, not performance tuned, with one
exception: ``hop_bounded_distances`` is the library's only distance
routine over a spanner, so each Bellman-Ford round relaxes only the
vertices whose value dropped in the round before (its docstring gives
why that is exact).  The old loops kept only to cross-check the fast
paths, the full-scan rounds among them, live with the tests.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from .hyperbolic import hyperbolic_distance
from .metrics import d1 as d1_fast
from .metrics import d2 as d2_fast
from .metrics import d2_path
from .quadtree import shadow_within
from .tiling import CellId, ancestor_at, children, horizontal_neighbors, parent


@dataclass(frozen=True)
class CellGraphWindow:
    """A finite slab of the tiling: a level range plus per-axis bounds.

    Axis bounds are integers in units of the finest level ``i_min``; a
    cell is inside the window when its level is in range and its shadow,
    rescaled to those units, fits the bounds.  Built wide enough (apex
    level of the d2-path plus two levels, lambda plus slack sideways)
    that optimal d1-paths between the endpoints it was built for are
    never clipped.
    """

    i_min: int
    i_max: int
    lo: tuple[int, ...]  # inclusive, in units of 2^i_min
    hi: tuple[int, ...]  # exclusive

    def contains(self, c: CellId) -> bool:
        if not self.i_min <= c.level <= self.i_max:
            return False
        s = c.level - self.i_min
        return all(
            (k << s) >= lo and ((k + 1) << s) <= hi
            for k, lo, hi in zip(c.coords, self.lo, self.hi)
        )


def window_for(p: CellId, q: CellId, side_slack: int = 6, top_slack: int = 2) -> CellGraphWindow:
    """A window guaranteed to contain some optimal d1-path between p and q.

    The normal form of a d1-path climbs no higher than the d2-path apex,
    and at every level stays between the two ancestor chains; the slack
    covers the horizontal run.
    """
    i_min = min(p.level, q.level)
    i_max = d2_path(p, q).bridge_level + top_slack
    axes = len(p.coords)
    lo = [None] * axes
    hi = [None] * axes
    for lev in range(i_min, i_max + 1):
        ap = ancestor_at(p, lev) if lev >= p.level else p
        aq = ancestor_at(q, lev) if lev >= q.level else q
        s = lev - i_min
        for j in range(axes):
            a = (min(ap.coords[j], aq.coords[j]) - side_slack) << s
            b = (max(ap.coords[j], aq.coords[j]) + 1 + side_slack) << s
            lo[j] = a if lo[j] is None else min(lo[j], a)
            hi[j] = b if hi[j] is None else max(hi[j], b)
    return CellGraphWindow(i_min, i_max, tuple(lo), tuple(hi))


def _moves(c: CellId, w: CellGraphWindow, sideways: bool = True):
    """The moves from ``c`` that stay inside ``w``, as ``(cell,
    horizontal)`` pairs: up, down, then sideways unless ``sideways`` is
    false."""
    if c.level < w.i_max:
        up = parent(c)
        if w.contains(up):
            yield up, False
    if c.level > w.i_min:
        for ch in children(c):
            if w.contains(ch):
                yield ch, False
    if sideways:
        for nb in horizontal_neighbors(c):
            if w.contains(nb):
                yield nb, True


def _meet_in_middle(p: CellId, q: CellId, w: CellGraphWindow | None, start, step, partners) -> int:
    """Length of a shortest move-graph path from ``p`` to ``q`` inside ``w``.

    The search states are ``start(p)``, ``start(q)`` and what
    ``step(state, w)`` yields from them; a state one end reaches joins
    those of ``partners(state)`` the other end has reached.  Runs from
    both endpoints at once, expanding the smaller frontier a full level
    at a time, which keeps the downward 2^(D-1)-ary blowup of the ball
    in check, and stops once the two radii add up to the best join.
    Raises ``ValueError`` when an endpoint lies outside ``w`` (by
    default :func:`window_for` of the two) and ``RuntimeError`` when
    ``w`` cuts every path.
    """
    if w is None:
        w = window_for(p, q)
    if not (w.contains(p) and w.contains(q)):
        raise ValueError("endpoints must lie inside the window")
    if p == q:
        return 0
    a, b = start(p), start(q)
    dist_a, dist_b = {a: 0}, {b: 0}
    front_a, front_b = [a], [b]
    radius_a = radius_b = 0
    best = None
    while front_a and front_b:
        if len(front_a) <= len(front_b):
            dist_near, dist_far, front = dist_a, dist_b, front_a
            radius_a += 1
            radius = radius_a
        else:
            dist_near, dist_far, front = dist_b, dist_a, front_b
            radius_b += 1
            radius = radius_b
        new = []
        for cur in front:
            for nxt in step(cur, w):
                if nxt in dist_near:
                    continue
                dist_near[nxt] = radius
                for partner in partners(nxt):
                    other = dist_far.get(partner)
                    if other is not None and (best is None or radius + other < best):
                        best = radius + other
                new.append(nxt)
        if dist_near is dist_a:
            front_a = new
        else:
            front_b = new
        if best is not None and radius_a + radius_b >= best:
            return best
    if best is not None:
        return best
    raise RuntimeError("window clipped every path; widen the slack")


def d1_bfs(p: CellId, q: CellId, w: CellGraphWindow | None = None) -> int:
    """d1 by breadth-first search over the explicit move graph.

    The states are the cells, every move is allowed, and two half-paths
    join at a common cell.
    """

    def step(c, w):
        return (nb for nb, _ in _moves(c, w))

    return _meet_in_middle(p, q, w, lambda c: c, step, lambda c: (c,))


def d2_bfs(p: CellId, q: CellId, w: CellGraphWindow | None = None) -> int:
    """d2 from its definition: shortest path using at most one horizontal move.

    Bidirectional BFS over (cell, horizontal-move-spent) states; two
    half-paths may be joined only if at most one of them spent the move.
    """

    def step(state, w):
        cell, spent = state
        return ((nb, spent or sideways) for nb, sideways in _moves(cell, w, not spent))

    def partners(state):
        cell, spent = state
        return ((cell, False),) if spent else ((cell, False), (cell, True))

    return _meet_in_middle(p, q, w, lambda c: (c, False), step, partners)


_METRICS: dict[str, Callable] = {"d1": d1_fast, "d2": d2_fast, "dH": hyperbolic_distance}


def nn_bruteforce(points: Sequence, q, metric: str = "d2") -> int:
    """Index of the nearest point under the named metric.

    Ties go to the smallest index.  ``points`` are cells for d1/d2 and
    halfspace points for dH; any other metric name raises ``ValueError``.
    """
    if not points:
        raise ValueError("empty point set")
    fn = _METRICS.get(metric)
    if fn is None:
        raise ValueError(f"unknown metric {metric!r}; use one of {', '.join(_METRICS)}")
    best_i = 0
    best_d = fn(q, points[0])
    for i in range(1, len(points)):
        dd = fn(q, points[i])
        if dd < best_d:
            best_i, best_d = i, dd
    return best_i


def cell_query_scan(stored: Sequence[CellId], box: CellId) -> tuple[CellId | None, CellId | None]:
    """Largest stored box inside ``box`` and smallest stored box containing
    it, by linear scan over shadows."""
    largest = None
    smallest = None
    for c in stored:
        if shadow_within(c, box) and (largest is None or c.level > largest.level):
            largest = c
        if shadow_within(box, c) and (smallest is None or c.level < smallest.level):
            smallest = c
    return largest, smallest



def _check_graph_and_source(n_vertices: int, adjacency: Sequence, source: int, max_hops: int = 0) -> None:
    """Raise ``ValueError`` unless ``adjacency`` has ``n_vertices`` rows,
    ``source`` is an ``int`` in ``range(n_vertices)`` and ``max_hops`` an
    ``int`` >= 0; a ``bool`` is neither."""
    if len(adjacency) != n_vertices:
        raise ValueError(f"adjacency has {len(adjacency)} rows for {n_vertices} vertices")
    if type(source) is not int or not 0 <= source < n_vertices:
        raise ValueError(f"source {source!r} is not a vertex of range({n_vertices})")
    if type(max_hops) is not int or max_hops < 0:
        raise ValueError(f"max_hops must be an integer >= 0, got {max_hops!r}")


def dijkstra(n_vertices: int, adjacency: Sequence[Sequence[tuple[int, float]]], source: int) -> list[float]:
    """Single-source shortest paths with nonnegative weights.

    Ties between equal-length paths are broken by vertex index via the
    heap ordering, keeping verification runs deterministic.  Raises
    ``ValueError`` when ``source`` is not an ``int`` in
    ``range(n_vertices)`` or ``adjacency`` does not have ``n_vertices``
    rows.
    """
    _check_graph_and_source(n_vertices, adjacency, source)
    dist = [float("inf")] * n_vertices
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def hop_bounded_distances(
    n_vertices: int,
    adjacency: Sequence[Sequence[tuple[int, float]]],
    source: int,
    max_hops: int,
) -> list[float]:
    """Minimum path weight from ``source`` using at most ``max_hops`` edges.

    Frontier Bellman-Ford: round 1 relaxes the source, and round r
    relaxes only the vertices whose value dropped in round r - 1, each
    from its value at the start of the round, so the hop count is exact
    rather than an in-place lower bound.  A vertex whose value did not
    drop already offered ``value + w`` to each neighbor the round
    before, and values only decrease, so relaxing it again cannot win:
    every value is the minimum over the same candidates as a full scan
    of all reached vertices, the same floats bit for bit, at a cost of
    the edges out of the frontiers.  The rounds stop early once a round
    changes nothing.  The last round only lowers values: no later round
    reads its frontier.  Raises ``ValueError`` when ``source`` is not an
    ``int`` in ``range(n_vertices)``, ``adjacency`` does not have
    ``n_vertices`` rows, or ``max_hops`` is not an ``int`` >= 0.
    """
    _check_graph_and_source(n_vertices, adjacency, source, max_hops)
    dist = [float("inf")] * n_vertices
    dist[source] = 0.0
    dropped_in = [0] * n_vertices  # the last round in which each value dropped
    frontier = [source]
    starts = [0.0]  # the frontier's values at the start of the round
    for r in range(1, max_hops):
        if not frontier:
            break
        nxt = []
        for u, du in zip(frontier, starts):
            for v, w in adjacency[u]:
                nd = du + w
                if nd < dist[v]:
                    if dropped_in[v] != r:
                        dropped_in[v] = r
                        nxt.append(v)
                    dist[v] = nd
        frontier = nxt
        starts = [dist[v] for v in nxt]
    if max_hops:
        for u, du in zip(frontier, starts):
            for v, w in adjacency[u]:
                nd = du + w
                if nd < dist[v]:
                    dist[v] = nd
    return dist
