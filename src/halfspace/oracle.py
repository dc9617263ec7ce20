"""Independent brute-force references for the fast implementations.

Everything here recomputes results from definitions: breadth-first
search over the explicit move graph for ``d1``, a two-state BFS for
``d2`` (horizontal move spent or not), exhaustive nearest-neighbor
scans, linear scans over stored boxes for quadtree cell queries, and
shortest paths (Dijkstra, hop-bounded Bellman-Ford) over spanner
graphs.  The verifier, the CLI, the demos and the benchmark call them.
Not performance tuned; correctness references only.  The old loops
kept only to cross-check the fast paths live with the tests.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from .metrics import d1 as d1_fast
from .metrics import d2 as d2_fast
from .metrics import d2_path
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


def _neighbors_in_window(c: CellId, w: CellGraphWindow):
    if c.level < w.i_max:
        up = parent(c)
        if w.contains(up):
            yield up
    if c.level > w.i_min:
        for ch in children(c):
            if w.contains(ch):
                yield ch
    for nb in horizontal_neighbors(c):
        if w.contains(nb):
            yield nb


def d1_bfs(p: CellId, q: CellId, w: CellGraphWindow | None = None) -> int:
    """d1 by breadth-first search over the explicit move graph.

    Runs from both endpoints at once (expanding the smaller frontier a
    full level at a time), which keeps the downward 2^(D-1)-ary blowup
    of the ball in check while staying a plain definitional search.
    """
    if w is None:
        w = window_for(p, q)
    if not (w.contains(p) and w.contains(q)):
        raise ValueError("endpoints must lie inside the window")
    if p == q:
        return 0
    dist_a, dist_b = {p: 0}, {q: 0}
    front_a, front_b = [p], [q]
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
            for nb in _neighbors_in_window(cur, w):
                if nb in dist_near:
                    continue
                dist_near[nb] = radius
                other = dist_far.get(nb)
                if other is not None and (best is None or radius + other < best):
                    best = radius + other
                new.append(nb)
        if dist_near is dist_a:
            front_a = new
        else:
            front_b = new
        if best is not None and radius_a + radius_b >= best:
            return best
    if best is not None:
        return best
    raise RuntimeError("window clipped every path; widen the slack")


def d2_bfs(p: CellId, q: CellId, w: CellGraphWindow | None = None) -> int:
    """d2 from its definition: shortest path using at most one horizontal move.

    Bidirectional BFS over (cell, horizontal-move-spent) states; two
    half-paths may be joined only if at most one of them spent the move.
    """
    if w is None:
        w = window_for(p, q)
    if not (w.contains(p) and w.contains(q)):
        raise ValueError("endpoints must lie inside the window")
    if p == q:
        return 0

    def expand(state, out):
        cur, used = state
        if cur.level < w.i_max:
            up = parent(cur)
            if w.contains(up):
                out.append((up, used))
        if cur.level > w.i_min:
            for ch in children(cur):
                if w.contains(ch):
                    out.append((ch, used))
        if not used:
            for nb in horizontal_neighbors(cur):
                if w.contains(nb):
                    out.append((nb, True))

    dist_a, dist_b = {(p, False): 0}, {(q, False): 0}
    front_a, front_b = [(p, False)], [(q, False)]
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
        nexts: list = []
        for state in front:
            nexts.clear()
            expand(state, nexts)
            for nxt in nexts:
                if nxt in dist_near:
                    continue
                dist_near[nxt] = radius
                cell, used = nxt
                for other_used in (False,) if used else (False, True):
                    other = dist_far.get((cell, other_used))
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


_METRICS: dict[str, Callable] = {}


def _hyperbolic_metric(a, b):
    from .hyperbolic import hyperbolic_distance

    return hyperbolic_distance(a, b)


_METRICS["d1"] = d1_fast
_METRICS["d2"] = d2_fast
_METRICS["dH"] = _hyperbolic_metric


def nn_bruteforce(points: Sequence, q, metric: str = "d2") -> int:
    """Index of the nearest point under the named metric.

    Ties go to the smallest index.  ``points`` are cells for d1/d2 and
    halfspace points for dH.
    """
    if not points:
        raise ValueError("empty point set")
    fn = _METRICS[metric]
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
    from .quadtree import shadow_within

    largest = None
    smallest = None
    for c in stored:
        if shadow_within(c, box) and (largest is None or c.level > largest.level):
            largest = c
        if shadow_within(box, c) and (smallest is None or c.level < smallest.level):
            smallest = c
    return largest, smallest



def dijkstra(n_vertices: int, adjacency: Sequence[Sequence[tuple[int, float]]], source: int) -> list[float]:
    """Single-source shortest paths with nonnegative weights.

    Ties between equal-length paths are broken by vertex index via the
    heap ordering, keeping verification runs deterministic.
    """
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

    Bellman-Ford rounds relax from the previous round's snapshot, so the
    hop count is exact rather than an in-place lower bound.
    """
    inf = float("inf")
    prev = [inf] * n_vertices
    prev[source] = 0.0
    for _ in range(max_hops):
        cur = prev[:]
        changed = False
        for u in range(n_vertices):
            du = prev[u]
            if du == inf:
                continue
            for v, w in adjacency[u]:
                nd = du + w
                if nd < cur[v]:
                    cur[v] = nd
                    changed = True
        if not changed:
            break
        prev = cur
    return prev
