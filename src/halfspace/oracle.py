"""Independent brute-force references for the fast implementations.

Everything here recomputes results from definitions: breadth-first
search over the explicit move graph for ``d1``, a two-state BFS for
``d2`` (horizontal move spent or not), exhaustive nearest-neighbor
scans, linear scans over stored boxes for quadtree cell queries,
all-pairs scans for AVD representatives and spanner bridges, a
lookup from the root per neighbor box for the AVD annotation, and
level-by-level climbs and descents, one cell per level, for ``d1``,
the d2-path, ``meet`` and point location.  Not performance tuned;
correctness references only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from .metrics import d1 as d1_fast
from .metrics import d2 as d2_fast
from .metrics import D2Path, d2_path, lambda_
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


def d1_climb(p: CellId, q: CellId) -> int:
    """d1 by lifting the lower endpoint and then climbing one level at a
    time while the horizontal distance exceeds 4.

    Reference for :func:`halfspace.metrics.d1`.
    """
    total = 0
    if p.level != q.level:
        lo, hi = (p, q) if p.level < q.level else (q, p)
        total = hi.level - lo.level
        p, q = ancestor_at(lo, hi.level), hi
    while True:
        lam = lambda_(p, q)
        if lam <= 4:
            return total + lam
        total += 2
        p, q = parent(p), parent(q)


def d2_path_climb(p: CellId, q: CellId) -> D2Path:
    """The d2-path by climbing both endpoints one level at a time until
    their ancestors are equal or horizontal neighbors.

    Reference for :func:`halfspace.metrics.d2_path`.
    """
    a, b = p, q
    if a.level < b.level:
        a = ancestor_at(a, b.level)
    elif b.level < a.level:
        b = ancestor_at(b, a.level)
    if a == b:
        return D2Path(p, q, a, b, has_bridge=False)
    while lambda_(a, b) >= 2:
        a, b = parent(a), parent(b)
    return D2Path(p, q, a, b, has_bridge=True)


def meet_climb(a: CellId, b: CellId) -> CellId:
    """The lowest common box, climbing one level at a time.

    Reference for :func:`halfspace.quadtree.meet`.
    """
    if a.level < b.level:
        a = ancestor_at(a, b.level)
    elif b.level < a.level:
        b = ancestor_at(b, a.level)
    while a != b:
        a, b = parent(a), parent(b)
    return a


def smallest_containing_climb(tree, box: CellId):
    """The lowest node containing ``box``, descending with one
    ``nodes_by_cell`` lookup per ordinary node.

    Reference for :meth:`halfspace.quadtree.QuadTree.smallest_containing`.
    """
    from .quadtree import COMPRESSED, LEAF, shadow_within

    node = tree.root
    while True:
        if node.kind == LEAF or node.cell.level == box.level:
            return node
        if node.kind == COMPRESSED:
            child = node.children[0]
            if shadow_within(box, child.cell):
                node = child
                continue
            return node
        node = tree.nodes_by_cell[ancestor_at(box, node.cell.level - 1)]


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


def _candidate(best, idx: int | None, origin: CellId, points: list[CellId]):
    if idx is None:
        return best
    dist = d2_fast(origin, points[idx])
    if best is None or (dist, idx) < best:
        return (dist, idx)
    return best


def annotate_scan(tree) -> list[int]:
    """n2 of every node of a refined tree, in preorder, with one
    root-to-leaf lookup (:meth:`QuadTree.highest_under`) per horizontal
    neighbor of the node's box and of every box in its compressed gap.

    Reference for :func:`halfspace.avd.annotate`; fills h and n2 on the
    tree as that does.
    """
    from .avd import fill_highest

    fill_highest(tree)
    points = tree.points
    root = tree.root
    if root.h_index is None:
        raise ValueError("annotate needs at least one stored input")
    root.n2_index = root.h_index  # every input lies on or below the root

    def neighbor_candidates(best, cell: CellId, origin: CellId):
        for nb in horizontal_neighbors(cell):
            if tree.in_root(nb):
                best = _candidate(best, tree.highest_under(nb), origin, points)
        return best

    stack = [root]
    while stack:
        node = stack.pop()
        for ch in reversed(node.children):
            stack.append(ch)
        if node is root:
            continue
        origin = node.cell
        best = _candidate(None, node.parent.n2_index, origin, points)
        best = _candidate(best, node.h_index, origin, points)
        best = neighbor_candidates(best, origin, origin)
        for lev in range(origin.level + 1, node.parent.cell.level):
            best = neighbor_candidates(best, ancestor_at(origin, lev), origin)
        node.n2_index = best[1]
    return [node.n2_index for node in tree.iter_nodes()]


def representatives_scan(refined, base) -> list[list[int]]:
    """Representatives of every refined node, in preorder, by testing each
    region against every occupied compressed node of the unrefined tree.

    Reference for :func:`halfspace.avd.select_representatives`; expects
    ``refined`` to carry the annotation pass (``h`` and ``n2``).
    """
    from .avd import fill_highest
    from .quadtree import COMPRESSED, ORDINARY, adjacent_to_region, box_adjacent, shadow_within

    fill_highest(base)
    base_compressed = [
        n for n in base.iter_nodes() if n.kind == COMPRESSED and n.count > 0
    ]
    out = []
    for node in refined.iter_nodes():
        if node.kind == ORDINARY:
            out.append([node.n2_index])
            continue
        reps = {node.n2_index}
        inner = node.children[0].cell if node.kind == COMPRESSED else None
        if inner is not None and node.children[0].h_index is not None:
            reps.add(node.children[0].h_index)
        for nu in base_compressed:
            if nu.h_index is None:
                continue
            if shadow_within(node.cell, nu.cell) and node.cell != nu.cell:
                if not shadow_within(node.cell, nu.children[0].cell):
                    reps.add(nu.h_index)
            elif inner is None:
                if box_adjacent(nu.cell, node.cell):
                    reps.add(nu.h_index)
            elif adjacent_to_region(nu.cell, node.cell, inner):
                reps.add(nu.h_index)
        out.append(sorted(reps))
    return out


def _bridge_candidate(tree, r: CellId, r2: CellId) -> bool:
    """Can (r, r2) be the bridge of some input pair's d2-path?

    True when both sides hold inputs and either side's box is itself an
    input, or some occupied child of one side is not a neighbor of some
    occupied child of the other (that pair's path cannot bridge lower).
    """
    if tree.stored_index(r) is not None or tree.stored_index(r2) is not None:
        return True
    kids_r = [c for c in children(r) if tree.subtree_count(c) > 0]
    kids_r2 = [c for c in children(r2) if tree.in_root(c) and tree.subtree_count(c) > 0]
    for c in kids_r:
        for c2 in kids_r2:
            if lambda_(c, c2) >= 2:
                return True
    return False


def bridges_scan(tree) -> list:
    """Bridge enumeration testing every pair of occupied compressed nodes,
    with a root-to-leaf lookup per neighbor box and child box.

    Reference for :func:`halfspace.spanner.enumerate_bridges`, which
    finds the same pairs by searching each node's boundary instead and
    reads the neighbors' nodes from :meth:`QuadTree.neighbor_rows`.
    """
    from .metrics import bridge_level_estimate
    from .quadtree import COMPRESSED, box_adjacent
    from .spanner import Bridge
    from .tiling import is_ancestor_or_self

    bridges = set()
    compressed = []
    for node in tree.iter_nodes():
        if node.kind == COMPRESSED and node.count > 0:
            compressed.append(node)
        if node.count == 0:
            continue
        r = node.cell
        for r2 in horizontal_neighbors(r):
            if not tree.in_root(r2):
                continue
            if tree.subtree_count(r2) == 0:
                continue
            if _bridge_candidate(tree, r, r2):
                bridges.add(Bridge.of(r, r2))
    for i, nu in enumerate(compressed):
        for nu2 in compressed[i + 1 :]:
            if not box_adjacent(nu.cell, nu2.cell):
                continue
            w1 = nu.children[0].cell
            w2 = nu2.children[0].cell
            if is_ancestor_or_self(w1, w2) or is_ancestor_or_self(w2, w1):
                continue
            est = bridge_level_estimate(w1, w2)
            path = d2_path(w1, w2)
            if path.has_bridge and est >= min(w1.level, w2.level) - 1:
                bridges.add(Bridge.of(path.apex_p, path.apex_q))
    return sorted(bridges, key=lambda b: (b.left, b.right))


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
