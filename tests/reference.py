"""Test-only references: the old loops the library has replaced.

Level-by-level climbs and descents, one cell per level, for ``d1``,
the d2-path, ``meet`` and point location (``*_climb``); all-pairs and
root-lookup scans for the AVD annotation, the representatives and the
spanner bridges (``*_scan``); and the recursive separator shortcutting
(``shortcut_forest`` with ``solve``).  The bodies are the replaced
code, unchanged but for absolute imports.  The tests compare the
library's fast paths against them; nothing in ``halfspace`` calls
them.  The brute-force oracles the verifier, the CLI and the demos
use stay in :mod:`halfspace.oracle`.
"""

from __future__ import annotations

from halfspace.metrics import d2 as d2_fast
from halfspace.metrics import D2Path, d2_path, lambda_
from halfspace.shortcut import ShortcutSet
from halfspace.tiling import CellId, ancestor_at, children, horizontal_neighbors, parent


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
    from halfspace.quadtree import COMPRESSED, LEAF, shadow_within

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
    from halfspace.avd import fill_highest

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
    from halfspace.avd import fill_highest
    from halfspace.quadtree import COMPRESSED, ORDINARY, adjacent_to_region, box_adjacent, shadow_within

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
    from halfspace.metrics import bridge_level_estimate
    from halfspace.quadtree import COMPRESSED, box_adjacent
    from halfspace.spanner import Bridge
    from halfspace.tiling import is_ancestor_or_self

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


# -- recursive separator shortcutting ---------------------------------


def _depths_and_children(parent: dict[int, int | None]):
    children: dict[int, list[int]] = {v: [] for v in parent}
    roots = []
    for v in sorted(parent):
        p = parent[v]
        if p is None:
            roots.append(v)
        else:
            if p not in parent:
                raise ValueError(f"vertex {v} points to unknown parent {p}")
            children[p].append(v)
    depth: dict[int, int] = {}
    for r in roots:
        depth[r] = 0
        stack = [r]
        while stack:
            u = stack.pop()
            for c in children[u]:
                depth[c] = depth[u] + 1
                stack.append(c)
    if len(depth) != len(parent):
        raise ValueError("parent map contains a cycle")
    return roots, children, depth


def _subtree_sizes(root: int, children: dict[int, list[int]], alive: set[int]) -> dict[int, int]:
    size: dict[int, int] = {}
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for c in children[u]:
            if c in alive:
                stack.append(c)
    for u in reversed(order):
        size[u] = 1 + sum(size[c] for c in children[u] if c in alive)
    return size


def _component_height(root: int, children: dict[int, list[int]], alive: set[int]) -> int:
    best = 0
    stack = [(root, 0)]
    while stack:
        u, d = stack.pop()
        best = max(best, d)
        for c in children[u]:
            if c in alive:
                stack.append((c, d + 1))
    return best


def shortcut_forest(parent: dict[int, int | None], k: int) -> ShortcutSet:
    """Extra edges so every ancestor is reachable within ``k`` hops."""
    if k < 1:
        raise ValueError(f"hop budget must be at least 1, got {k}")
    roots, children, depth = _depths_and_children(parent)

    extras: set[tuple[int, int]] = set()

    if k == 1:
        for v in parent:
            a = parent[v]
            if a is None:
                continue
            a = parent[a]
            while a is not None:
                extras.add((v, a))
                a = parent[a]
        return ShortcutSet(dict(parent), k, tuple(sorted(extras)))

    def solve(root: int, alive: set[int]) -> None:
        if _component_height(root, children, alive) <= k:
            return
        size = _subtree_sizes(root, children, alive)
        half = (size[root] + 1) // 2
        sep = root
        while True:
            nxt = None
            for c in sorted(children[sep]):
                if c in alive and size[c] >= half:
                    nxt = c
                    break
            if nxt is None:
                break
            sep = nxt
        # wire the separator's subtree to it, and it to its ancestors
        sub = set()
        stack = [sep]
        while stack:
            u = stack.pop()
            sub.add(u)
            for c in children[u]:
                if c in alive:
                    stack.append(c)
        for u in sub:
            if u != sep and parent[u] != sep:
                extras.add((u, sep))
        a = parent[sep]
        while a is not None and a in alive:
            if a != parent[sep]:
                extras.add((sep, a))
            a = parent[a]
        # recurse on the remainder and on the separator's child subtrees
        rest = alive - sub
        if rest:
            solve(root, rest)
        for c in sorted(children[sep]):
            if c in alive:
                solve(c, sub & _collect(c, children, alive))

    def _collect(root: int, children: dict[int, list[int]], alive: set[int]) -> set[int]:
        out = set()
        stack = [root]
        while stack:
            u = stack.pop()
            out.add(u)
            for c in children[u]:
                if c in alive:
                    stack.append(c)
        return out

    for r in roots:
        solve(r, _collect(r, children, {v for v in parent}))
    return ShortcutSet(dict(parent), k, tuple(sorted(extras)))
