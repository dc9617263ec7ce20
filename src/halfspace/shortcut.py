"""Shortcutting a rooted forest so ancestors are a few hops away.

Given an upward-oriented forest and a hop budget ``k``, extra
descendant-to-ancestor edges are added so that every ancestor/descendant
pair is connected by a directed path of at most ``k`` edges.  ``k = 1``
forces the full transitive closure; for ``k >= 2`` separators split a
worklist of components: pick the deepest vertex whose subtree holds at
least half of a component, wire its subtree to it and it to its
ancestors (two hops across the separator), and queue the pieces.  Each
component is a slice of one preorder list, where every subtree is a
contiguous run, so no traversal recurses.  That construction already
achieves the two-hop bound, so larger ``k`` only skips shallow
components; measured sizes stay near ``n log n`` and are reported, not
asserted, against the inverse-Ackermann row reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ShortcutSet:
    """Forest plus extra upward edges meeting the hop bound."""

    parent: dict[int, int | None]
    k: int
    extra_edges: tuple[tuple[int, int], ...]  # (descendant, ancestor)

    @property
    def tree_edges(self) -> list[tuple[int, int]]:
        return [(v, p) for v, p in sorted(self.parent.items()) if p is not None]

    @property
    def total_edges(self) -> int:
        """Tree edges plus extras: all usable upward edges."""
        return len(self.tree_edges) + len(self.extra_edges)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                adj[v].append(p)
        for u, w in self.extra_edges:
            adj[u].append(w)
        return adj


def _preorder(parent: dict[int, int | None]) -> tuple[list[int], dict[int, int]]:
    """Every vertex in preorder, one tree after another, and its depth."""
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
    order: list[int] = []
    depth: dict[int, int] = {}
    for r in roots:
        depth[r] = 0
        stack = [r]
        while stack:
            u = stack.pop()
            order.append(u)
            for c in children[u]:
                depth[c] = depth[u] + 1
                stack.append(c)
    if len(order) != len(parent):
        raise ValueError("parent map contains a cycle")
    return order, depth


def forest_height(parent: dict[int, int | None]) -> int:
    """Depth of the deepest vertex of an upward forest (0 when empty)."""
    return max(_preorder(parent)[1].values(), default=0)


def shortcut_forest(parent: dict[int, int | None], k: int) -> ShortcutSet:
    """Extra edges so every ancestor is reachable within ``k`` hops."""
    if k < 1:
        raise ValueError(f"hop budget must be at least 1, got {k}")
    order, depth = _preorder(parent)

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

    # a component is a connected piece of one tree in preorder, its root
    # first; every subtree in it is a contiguous run
    work: list[list[int]] = []
    for v in order:
        if depth[v] == 0:
            work.append([])
        work[-1].append(v)
    while work:
        comp = work.pop()
        top = depth[comp[0]]
        if max(depth[v] for v in comp) - top <= k:
            continue
        size = dict.fromkeys(comp, 1)
        for v in reversed(comp[1:]):
            size[parent[v]] += size[v]
        # the separator: the deepest vertex whose subtree holds at least
        # half the component; at most one child of a vertex can qualify
        half = (len(comp) + 1) // 2
        s, j = 0, 1
        while j < s + size[comp[s]]:
            if size[comp[j]] >= half:
                s = j
                j += 1
            else:
                j += size[comp[j]]
        sep = comp[s]
        end = s + size[sep]
        # wire the separator's subtree to it, and it to its ancestors
        for u in comp[s + 1 : end]:
            if parent[u] != sep:
                extras.add((u, sep))
        a = parent[sep]
        for _ in range(depth[sep] - top - 1):
            a = parent[a]
            extras.add((sep, a))
        # go on with the remainder and with the separator's child subtrees
        if s:
            work.append(comp[:s] + comp[end:])
        j = s + 1
        while j < end:
            work.append(comp[j : j + size[comp[j]]])
            j += size[comp[j]]
    return ShortcutSet(dict(parent), k, tuple(sorted(extras)))


def reference_size(k: int, n: int) -> float:
    """n times the k-th inverse-Ackermann row, for report comparisons only."""
    if n < 2:
        return float(n)
    if k == 1:
        return n * n / 2.0
    if k == 2:
        return n * math.log2(n)
    if k == 3:
        return n * max(1.0, math.log2(max(2.0, math.log2(n))))
    # k >= 4: log-star
    v, stars = float(n), 0
    while v > 1.0:
        v = math.log2(v)
        stars += 1
    return float(n * max(1, stars))
