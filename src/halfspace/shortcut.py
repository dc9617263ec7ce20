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

Subtree sizes are counted once, up the whole preorder, and kept across
the worklist, each the size of a vertex's subtree within its current
component.  They stay exact: a vertex inside the separator's subtree
keeps its whole subtree in the separator's child subtree, so its size
holds, and in the remainder only the separator's ancestors lose
vertices, the separator's subtree size each.  A piece of at most
``k + 1`` vertices is at most ``k`` deep, so it is never queued; larger
pieces are skipped when their height (the largest depth less the top's)
is at most ``k``.

An extra is made when the first of its two ends becomes a separator
while both share a component, and the two never share one afterwards,
so no pair is made twice.  The extras are gathered as integers
``(u - lo) * span + (a - lo)``, ``lo`` the smallest label and ``span``
the label range, which order as the ``(u, a)`` tuples do for any int
labels; they are sorted once and split back with ``divmod``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat


@dataclass(frozen=True)
class ShortcutSet:
    """Forest plus extra upward edges meeting the hop bound."""

    parent: dict[int, int | None]
    k: int
    extra_edges: tuple[tuple[int, int], ...]  # (descendant, ancestor)

    @property
    def total_edges(self) -> int:
        """Tree edges (one per non-root vertex) plus extras: all usable
        upward edges."""
        return sum(1 for p in self.parent.values() if p is not None) + len(self.extra_edges)

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


def check_hop_budget(k: int) -> None:
    """Raise ``ValueError`` unless ``k`` is an ``int`` (not a ``bool``)
    of at least 1."""
    if type(k) is not int or k < 1:
        raise ValueError(f"hop budget must be an integer of at least 1, got {k!r}")


def shortcut_forest(parent: dict[int, int | None], k: int) -> ShortcutSet:
    """Extra edges so every ancestor is reachable within ``k`` hops;
    ``k`` is an ``int`` of at least 1 (else ``ValueError``).

    ``k = 1`` gives the full closure; ``k >= 2`` runs the separator
    worklist with the kept subtree sizes and the integer pair keys of the
    module docstring, which skips every piece of at most ``k + 1``
    vertices (at most ``k`` deep).  The keys need ``int`` labels, so for
    ``k >= 2`` any other label (a ``bool`` or a ``float`` included) is a
    ``ValueError``."""
    check_hop_budget(k)
    order, depth = _preorder(parent)

    if k == 1:
        extras: set[tuple[int, int]] = set()
        for v in parent:
            a = parent[v]
            if a is None:
                continue
            a = parent[a]
            while a is not None:
                extras.add((v, a))
                a = parent[a]
        return ShortcutSet(dict(parent), k, tuple(sorted(extras)))

    if not set(map(type, parent)) <= {int}:
        label = next(v for v in parent if type(v) is not int)
        raise ValueError(f"vertex labels must be ints when k >= 2, got {label!r}")
    # a component is a connected piece of one tree in preorder, its root
    # first; every subtree in it is a contiguous run.  size[v] counts v's
    # subtree within v's current component, kept exact as the module
    # docstring argues
    size = dict.fromkeys(order, 1)
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            size[p] += size[v]
    # an extra (u, a) is the key (u - lo) * span + (a - lo); shift folds
    # both "- lo" into one constant
    lo = min(parent, default=0)
    span = max(parent, default=0) - lo + 1
    shift = lo * (span + 1)
    keys: list[int] = []
    # a piece of at most k + 1 vertices is at most k deep: never queued
    small = k + 1
    work: list[list[int]] = []
    i = 0
    while i < len(order):
        j = i + size[order[i]]
        if j - i > small:
            work.append(order[i:j])
        i = j
    depth_of = depth.__getitem__
    while work:
        comp = work.pop()
        top = depth[comp[0]]
        if max(map(depth_of, comp)) - top <= k:
            continue
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
        cut = size[sep]
        end = s + cut
        # wire the separator's subtree to it, and it to its ancestors
        down = sep - shift
        keys += [u * span + down for u in comp[s + 1 : end] if parent[u] != sep]
        if s:
            up = sep * span - shift
            a = parent[sep]
            size[a] -= cut
            for _ in range(depth[sep] - top - 1):
                a = parent[a]
                size[a] -= cut
                keys.append(up + a)
            # go on with the remainder and with the separator's child subtrees
            if len(comp) - cut > small:
                work.append(comp[:s] + comp[end:])
        j = s + 1
        while j < end:
            c = size[comp[j]]
            if c > small:
                work.append(comp[j : j + c])
            j += c
    keys.sort()
    pairs = map(divmod, keys, repeat(span))
    if lo:
        pairs = ((u + lo, a + lo) for u, a in pairs)
    return ShortcutSet(dict(parent), k, tuple(pairs))


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
