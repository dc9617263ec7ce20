"""Test-only references: the old loops the library has replaced.

Level-by-level climbs and descents, one cell per level, for ``d1``,
the d2-path, ``meet``, point location and the spanner's vertical edges
(``*_climb``); the Z-order key by string formatting
(``zorder_key_format``); all-pairs and root-lookup scans for the AVD
annotation, the representatives (with their region predicates
``adjacent_to_region`` and ``touches_boundary``) and the spanner
bridges (``*_scan``); the pruned boundary descent from the root
(``compressed_on_boundary_from_root``) and the representatives by one
such descent per region (``select_representatives_descent``), which the
carried boundary sets of :func:`halfspace.avd.select_representatives`
must match region for region; the AVD queries with one ``d2`` per
representative and a moved ``HPoint`` per continuous query (``query``,
``query_hyperbolic``); the recursive separator shortcutting
(``shortcut_forest`` with ``solve``); and the hop-bounded
Bellman-Ford that relaxes every reached vertex in every round
(``hop_bounded_distances_scan``), which the frontier rounds of
:func:`halfspace.oracle.hop_bounded_distances` must match float for
float.  The bodies are the replaced code, unchanged but for absolute
imports.  The tests compare the library's fast paths against them;
nothing in ``halfspace`` calls them.  The brute-force oracles the
verifier, the CLI and the demos use stay in :mod:`halfspace.oracle`.
"""

from __future__ import annotations

from typing import Sequence

from halfspace.metrics import d2 as d2_fast
from halfspace.metrics import D2Path, d2_path, lambda_
from halfspace.shortcut import ShortcutSet
from halfspace.tiling import CellId, HPoint, ancestor_at, cell_of, children, horizontal_neighbors, parent


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


def zorder_key_format(low: int, axes: int):
    """Sort key putting cells of the root shadow at or above level
    ``low`` in preorder of the dyadic tree, children in :func:`children`
    order, so every cell follows its ancestors: the Morton interleave of
    the lower corner lifted to ``low`` (first axis most significant),
    ties to the higher cell.  With one axis the interleave is the lifted
    coordinate.

    Reference for :func:`halfspace.quadtree.zorder_key`: the interleave
    made by formatting each lifted coordinate as ``-low`` binary digits
    and parsing the zipped digits back.
    """
    if axes == 1:
        return lambda c: (c.coords[0] << (c.level - low), -c.level)
    width = f"0{-low}b"

    def key(c: CellId):
        digits = [format(k << (c.level - low), width) for k in c.coords]
        return int("".join(map("".join, zip(*digits))), 2), -c.level

    return key


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


def query(ix, q: CellId) -> int:
    """Index of the exact d2-nearest input, ties to the smallest index.

    Reference for :func:`halfspace.avd.query`.
    """
    try:
        node = ix.region_of(q)
    except ValueError:
        return ix.highest_index
    if not node.reps:
        raise ValueError(f"region {node.cell!r} carries no representatives")
    points = ix.points
    best = None
    for idx in node.reps:
        dist = d2_fast(q, points[idx])
        if best is None or (dist, idx) < best:
            best = (dist, idx)
    return best[1]


def query_hyperbolic(ix, q: HPoint) -> int:
    """Approximate nearest neighbor for a continuous query point.

    Reference for :func:`halfspace.avd.query_hyperbolic`.
    """
    if ix.transform is None:
        raise ValueError("index was built from discrete cells; no transform stored")
    return query(ix, cell_of(ix.transform.apply(q)))


def touches_boundary(inner_box: CellId, outer_box: CellId) -> bool:
    """Does a box nested inside another touch its boundary?"""
    shift = outer_box.level - inner_box.level
    for ki, ko in zip(inner_box.coords, outer_box.coords):
        if ki == (ko << shift) or ki + 1 == ((ko + 1) << shift):
            return True
    return False


def adjacent_to_region(box: CellId, outer: CellId, inner: CellId) -> bool:
    """Adjacency of a box to the annular region between two nested boxes."""
    from halfspace.quadtree import box_adjacent, shadow_within

    if box == inner:
        return True  # fills the hole, touching the region's inner boundary
    if shadow_within(box, inner):
        return touches_boundary(box, inner)
    if shadow_within(box, outer) or shadow_within(outer, box):
        return False  # overlaps the annulus interior, or swallows it all
    return box_adjacent(box, outer)


def representatives_scan(refined, base) -> list[list[int]]:
    """Representatives of every refined node, in preorder, by testing each
    region against every occupied compressed node of the unrefined tree.

    Reference for :func:`halfspace.avd.select_representatives`; expects
    ``refined`` to carry the annotation pass (``h`` and ``n2``).
    """
    from halfspace.avd import fill_highest
    from halfspace.quadtree import COMPRESSED, ORDINARY, box_adjacent, shadow_within

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


def compressed_on_boundary_from_root(tree, box: CellId) -> list:
    """Occupied compressed nodes whose closed box meets the boundary
    of ``box``, in no particular order.

    Reference for :func:`halfspace.quadtree.compressed_on_boundary`
    started at the root; it was the ``QuadTree`` method of that name.

    Descends from the root and enters only occupied nodes whose box
    meets that boundary.  A box that meets it is contained in each of
    its ancestors' boxes, so they meet it too: the pruning skips no
    qualifying node.  The work is the number of nodes on the box's
    ancestor chain and along its boundary, not the size of the tree.

    :func:`~halfspace.spanner.enumerate_bridges` called this once per
    occupied compressed node.  The AVD's representatives instead
    carry these sets down the refined tree
    (:func:`~halfspace.avd.select_representatives`), because every
    leaf and compressed region needs one and a descent per region
    walks each ancestor chain again.  In the bridge search only the
    occupied compressed nodes ask (about a third of the nodes on the
    spanner benchmark's inputs), while a carried set is updated at
    every node, so the descents are the cheaper of the two there.
    """
    from halfspace.quadtree import COMPRESSED, meets_boundary

    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.count == 0 or not meets_boundary(node.cell, box):
            continue
        if node.kind == COMPRESSED:
            out.append(node)
        stack.extend(node.children)
    return out


def select_representatives_descent(refined, base) -> None:
    """Attach representative input indices to every refined node.

    Reference for :func:`halfspace.avd.select_representatives`: one
    pruned descent from the root of the unrefined tree per leaf or
    compressed region, so each region walks its whole ancestor chain
    again (quadratic on a nested chain).

    An ordinary region keeps its node's nearest input alone.  A leaf or
    compressed region R keeps that input, its child's highest input when
    R is compressed (bridges landing inside R's own gap), and the
    highest input of every occupied compressed node nu of the unrefined
    tree whose box meets the boundary of R's box and whose child box does
    not contain R: nu's gap can host the far end of a query's bridge.
    The candidates come from one pruned descent along that boundary
    (:func:`compressed_on_boundary_from_root`), and each gets one test.

    The rule is exact: it gives the sets of the region-adjacency test,
    which also counts the nodes touching a compressed R's inner box I
    from inside.  Refinement only adds keys, so every node of the unrefined
    tree is a node of the refined one, and none lies under a leaf R or
    in a compressed R's annulus.  A node inside I touching the boundary
    of I away from that of R would put its horizontal neighbor across
    that face, which refinement makes a node, in the annulus; so every
    such node meets R's boundary, except I itself, whose highest input R
    keeps already (as does a node whose box is R).  Per region this
    costs its ancestor chain plus the nodes along its boundary, not a
    scan of every compressed node.
    """
    from halfspace.avd import fill_highest
    from halfspace.quadtree import COMPRESSED, ORDINARY, shadow_within

    fill_highest(base)
    for node in refined.iter_nodes():
        if node.kind == ORDINARY:
            node.reps = [node.n2_index]
            continue
        reps = {node.n2_index}
        if node.kind == COMPRESSED and node.children[0].h_index is not None:
            reps.add(node.children[0].h_index)
        for nu in compressed_on_boundary_from_root(base, node.cell):
            if not shadow_within(node.cell, nu.children[0].cell):
                reps.add(nu.h_index)
        node.reps = sorted(reps)


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
    reads the nodes under each node's neighbor boxes from
    :meth:`QuadTree.neighbor_rows` and searches a compressed node's
    partners from those nodes along its boundary instead.
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


def vertical_edges_climb(graph) -> set[tuple[int, int, float]]:
    """The edge from every spanner vertex to its nearest strict ancestor
    vertex, climbing one level at a time.

    Reference for the Z-order pass in :func:`halfspace.spanner.build_spanner`.
    """
    edges: set[tuple[int, int, float]] = set()
    top = max(v.cell.level for v in graph.vertices)
    for v in graph.vertices:
        anc = v.cell
        while anc.level < top:
            anc = ancestor_at(anc, anc.level + 1)
            target = graph.vertex_of_cell.get(anc)
            if target is not None:
                w = float(anc.level - v.cell.level)
                edges.add((min(v.id, target), max(v.id, target), w))
                break
    return edges


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


# -- hop-bounded distances over a spanner ------------------------------


def hop_bounded_distances_scan(
    n_vertices: int,
    adjacency: Sequence[Sequence[tuple[int, float]]],
    source: int,
    max_hops: int,
) -> list[float]:
    """Minimum path weight from ``source`` using at most ``max_hops`` edges.

    Bellman-Ford rounds relax from the previous round's snapshot, so the
    hop count is exact rather than an in-place lower bound.

    Reference for :func:`halfspace.oracle.hop_bounded_distances`.
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
