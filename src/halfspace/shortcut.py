"""Shortcutting a rooted forest so ancestors are a few hops away.

Given an upward-oriented forest and a hop budget ``k``, extra
descendant-to-ancestor edges are added so that every ancestor/descendant
pair is connected by a directed path of at most ``k`` edges.  ``k = 1``
forces the full transitive closure; for ``k >= 2`` a separator recursion
is used: pick the deepest vertex whose subtree holds at least half of
the component, wire its subtree to it and it to its ancestors (two hops
across the separator), and recurse on the pieces.  That construction
already achieves the two-hop bound, so larger ``k`` only prunes
recursion on shallow components; measured sizes stay near ``n log n``
and are reported, not asserted, against the inverse-Ackermann row
reference values.
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


def forest_height(parent: dict[int, int | None]) -> int:
    """Depth of the deepest vertex of an upward forest (0 when empty)."""
    return max(_depths_and_children(parent)[2].values(), default=0)


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
