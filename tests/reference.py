"""Test-only references: the old loops the library has replaced.

Level-by-level climbs and descents, one cell per level, for ``d1``,
the d2-path, ``meet``, point location and the spanner's vertical edges
(``*_climb``); the point location, the d2 argmin and the bridge pass
that loop over the coordinates at every dimension, which the one-axis
steps for D = 2 must match (``smallest_containing_general``,
``d2_argmin_general``, ``enumerate_bridges_general``), the last with the
all-pairs neighbor check ``bridge_candidate`` that the per-axis child
extents of both bridge passes must match;
the Z-order key by string formatting (``zorder_key_format``); all-pairs and root-lookup scans for the AVD
annotation, the representatives (with their region predicates
``adjacent_to_region`` and ``touches_boundary``, and box adjacency by
interval overlap, ``box_adjacent_overlap``) and the spanner
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
float; and the spanner assembly that gathered edges in sets of
``(u, v, w)`` triples and copied the d1 spanner's vertices
(``build_spanner_triples``, ``build_hyperbolic_spanner_triples``) with
the halfspace distance that tests every range in turn
(``hyperbolic_distance_general``); and the exact rational membership
test that :func:`halfspace.tiling.cell_of` must agree with
(``contains_point``); and the floor on the exact integer ratio that
the ``ldexp`` path of :func:`halfspace.tiling.floor_scaled` must
match (``floor_scaled_ratio``); and the halfspace distance that takes
the gap from ``hypot`` over a ``map`` at every dimension, which the
D = 2 branch of :func:`halfspace.hyperbolic.hyperbolic_distance` must
match bit for bit (``hyperbolic_distance_map``); and the writers that
built a dict per node and annotation for ``json.dumps`` to walk, which
the one-pass text writers of :meth:`halfspace.quadtree.QuadTree.to_json`
and :meth:`halfspace.avd.AvdIndex.to_json` must match byte for byte
(``quadtree_to_dict``, ``avd_to_json``); and the loaders that decoded
each point line with ``json.loads`` and built each point through
``HPoint(...)`` (``read_points_loads``), checked each loaded cell
through ``CellId(...)`` and each child through ``shadow_within``
(``loaded_cell_checked``, ``tree_from_dict_checked``) and each ``reps``
entry with one ``is_index`` call (``avd_from_json_checked``), which
:func:`halfspace.pointfile.read_points`, :meth:`QuadTree.from_dict`
and :meth:`AvdIndex.from_json` must match point for point and message
for message.  The bodies are the replaced
code, unchanged but for absolute imports and ``self`` made an argument.
The tests compare the library's fast paths against them; nothing in
``halfspace`` calls them.  The brute-force oracles the
verifier, the CLI and the demos use stay in :mod:`halfspace.oracle`.
"""

from __future__ import annotations

import json
import reprlib
import sys
from collections.abc import Collection, Sequence
from dataclasses import asdict
from fractions import Fraction
from math import asinh, hypot, inf, sqrt
from operator import itemgetter, sub
from typing import TextIO

from halfspace.avd import AvdIndex
from halfspace.hyperbolic import NormalizeTransform, _rescaled_distance
from halfspace.metrics import d2 as d2_fast
from halfspace.metrics import D2Path, _climb, d2_path, lambda_
from halfspace.pointfile import CONTINUOUS, DISCRETE, PointFileError, _integer
from halfspace.quadtree import COMPRESSED, DEEPEST_LEVEL, LEAF, ORDINARY, QuadNode, QuadTree, first_indices, is_index, json_fields, root_cell, shadow_within
from halfspace.shortcut import ShortcutSet
from halfspace.tiling import CellId, HPoint, ancestor_at, cell_of, children, collector_paused, horizontal_neighbors, level_of_height, parent


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
    """The lowest node containing ``box``, descending through the child
    of each ordinary node whose cell is the box's ancestor one level
    down, found by comparing cells.

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
        up = ancestor_at(box, node.cell.level - 1)
        (node,) = [child for child in node.children if child.cell == up]


def smallest_containing_general(tree, box: CellId):
    """The lowest node containing ``box``, descending with one shift and
    one mask per coordinate and node, and :func:`shadow_within` at a
    compressed node, at every dimension.

    Reference for the one-axis step of
    :meth:`halfspace.quadtree.QuadTree.smallest_containing`.
    """
    from halfspace.quadtree import COMPRESSED, LEAF, shadow_within

    node = tree.root
    level, coords = box.level, box.coords
    while True:
        if node.kind == LEAF or node.cell.level == level:
            return node
        if node.kind == COMPRESSED:
            child = node.children[0]
            if shadow_within(box, child.cell):
                node = child
                continue
            return node
        s = node.cell.level - 1 - level
        i = 0
        for k in coords:
            i = (i << 1) | ((k >> s) & 1)
        node = node.children[i]


def d2_argmin_general(q: CellId, cells: Sequence[CellId], indices: Collection[int]) -> int:
    """The ``i`` in ``indices`` minimizing ``(d2(q, cells[i]), i)``, with
    one :func:`~halfspace.metrics._climb` on coordinate lists per
    candidate at every dimension.

    Reference for the one-axis loop of :func:`halfspace.metrics.d2_argmin`.
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

    stack = [(root, None)]  # (node, its parent)
    while stack:
        node, up = stack.pop()
        for ch in reversed(node.children):
            stack.append((ch, node))
        if node is root:
            continue
        origin = node.cell
        best = _candidate(None, up.n2_index, origin, points)
        best = _candidate(best, node.h_index, origin, points)
        best = neighbor_candidates(best, origin, origin)
        for lev in range(origin.level + 1, up.cell.level):
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


def box_adjacent_overlap(a: CellId, b: CellId) -> bool:
    """Closed shadows intersect but neither contains the other, by
    interval overlap on every axis.

    Reference for :func:`halfspace.quadtree.box_adjacent`.
    """
    from halfspace.quadtree import shadow_within

    if shadow_within(a, b) or shadow_within(b, a):
        return False
    lev = min(a.level, b.level)
    sa, sb = a.level - lev, b.level - lev
    for ka, kb in zip(a.coords, b.coords):
        lo = max(ka << sa, kb << sb)
        hi = min((ka + 1) << sa, (kb + 1) << sb)
        if lo > hi:
            return False
    return True


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


def _count_under(tree, box: CellId) -> int:
    """Number of input cells whose box lies on or below ``box``: the
    count of the topmost node under it, by :meth:`QuadTree.cell_query`."""
    node = tree.cell_query(box)[0]
    return 0 if node is None else node.count


def _bridge_candidate(tree, r: CellId, r2: CellId) -> bool:
    """Can (r, r2) be the bridge of some input pair's d2-path?

    True when both sides hold inputs and either side's box is itself an
    input, or some occupied child of one side is not a neighbor of some
    occupied child of the other (that pair's path cannot bridge lower).
    """
    if tree.stored_index(r) is not None or tree.stored_index(r2) is not None:
        return True
    kids_r = [c for c in children(r) if _count_under(tree, c) > 0]
    kids_r2 = [c for c in children(r2) if tree.in_root(c) and _count_under(tree, c) > 0]
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
            if _count_under(tree, r2) == 0:
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


def _occupied_children(box: CellId, top) -> list[tuple[int, ...]]:
    """Coordinates, at ``box.level - 1``, of the child boxes of ``box``
    holding inputs; ``top`` is the topmost node on or below ``box``."""
    lev = box.level - 1
    nodes = [top] if top.cell.level != box.level else [ch for ch in top.children if ch.count]
    out = []
    for nu in nodes:
        s = lev - nu.cell.level
        out.append(tuple([k >> s for k in nu.cell.coords]) if s else nu.cell.coords)
    return out


def bridge_candidate(r: CellId, top, r2: CellId, top2) -> bool:
    """Can (r, r2) be the bridge of some input pair's d2-path?

    ``top`` and ``top2`` are the topmost nodes on or below the two
    boxes, both holding inputs.  True when ``r`` is itself an input, or
    some occupied child of one side is not a neighbor of some occupied
    child of the other (that pair's path cannot bridge lower): two
    children are neighbors when no coordinate differs by 2 or more.

    Whether ``r2`` is an input need not be asked: an input box is an
    occupied node, and :func:`enumerate_bridges_general` tests the same
    pair from that node's side, where ``r2`` is the first box.

    Reference for the per-axis extents of
    :func:`halfspace.spanner.enumerate_bridges`, where on each axis the
    farthest pair of occupied children decides.
    """
    if top.cell.level == r.level and top.stored_index is not None:
        return True
    kids_r2 = _occupied_children(r2, top2)
    for c in _occupied_children(r, top):
        for c2 in kids_r2:
            for a, b in zip(c, c2):
                if not -2 < a - b < 2:
                    return True
    return False


def enumerate_bridges_general(tree) -> list:
    """:func:`halfspace.spanner.enumerate_bridges` as a coordinate loop
    at every dimension: a neighbor list and a :func:`bridge_candidate`
    per node, a :func:`~halfspace.metrics.d2_path` per gap partner, and
    cells for every candidate.

    Reference for both of the library's passes.  ``d2_path`` and the
    other spanner names are looked up in :mod:`halfspace.spanner`, and
    ``horizontal_neighbors`` in :mod:`halfspace.tiling`, when it runs,
    so a patch there reaches it.
    """
    from halfspace.spanner import COMPRESSED, Bridge, QuadNode, bridge_key, compressed_on_boundary, d2_path
    from halfspace.tiling import horizontal_neighbors

    found: dict[tuple, tuple[CellId, CellId]] = {}  # bridge_key -> the two cells
    for node, rows in tree.neighbor_rows():
        if node.count == 0:
            continue
        r, row = node.cell, rows[0]
        if any(top2 is not None and top2.count for top2 in row):
            for r2, top2 in zip(horizontal_neighbors(r), row):
                if top2 is not None and top2.count and bridge_candidate(r, node, r2, top2):
                    found.setdefault(bridge_key(r, r2), (r, r2))
        if node.kind != COMPRESSED:
            continue
        # bridges with neither endpoint stored: both endpoints span
        # compressed gaps; the witness d2-path between the gap bottoms
        # finds the bridge.  Adjacent boxes have disjoint interiors, so
        # the gap bottoms are never nested and the path has a bridge.
        partners: list[QuadNode] = []
        for top2 in row:
            if top2 is not None:
                compressed_on_boundary(top2, r, partners)
        for nu2 in partners:
            path = d2_path(node.children[0].cell, nu2.children[0].cell)
            found.setdefault(bridge_key(path.apex_p, path.apex_q), (path.apex_p, path.apex_q))
    # Bridge.of checks each bridge once, in (left, right) order
    return [Bridge.of(*found[key]) for key in sorted(found)]


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


# -- spanner assembly by sets of (u, v, w) triples --------------------


def hyperbolic_distance_general(p: HPoint, q: HPoint) -> float:
    """Closed-form halfspace distance, every range test in turn.

    Reference for :func:`halfspace.hyperbolic.hyperbolic_distance`.
    """
    import math
    import sys

    if len(p.x) != len(q.x):
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if not (p.z > 0 and q.z > 0):
        raise ValueError("heights must be positive")
    gap = math.hypot(*(a - b for a, b in zip(p.x, q.x)), p.z - q.z)
    scale = 0
    if math.isinf(gap):
        # a difference or the hypot overflowed: use the gap times 2^-8,
        # whose rounding is far below the result's last bit; finite
        # gaps keep the plain difference bit for bit
        scale = 8
        gap = math.hypot(
            *(math.ldexp(a, -scale) - math.ldexp(b, -scale) for a, b in zip(p.x, q.x)),
            math.ldexp(p.z, -scale) - math.ldexp(q.z, -scale),
        )
    if gap == 0.0:
        return 0.0
    zz = p.z * q.z
    if sys.float_info.min <= zz < math.inf:
        # a product by 2^scale overflows to inf, where ldexp would raise
        arg = 0.5 * gap / math.sqrt(zz) * 2.0**scale
    else:
        # the product underflows for tiny heights and overflows for huge
        # ones: scale the heights and the gap by 2^e, a homothety and so
        # an isometry, to bring it near 1.  Powers of two keep every bit
        # of subnormal heights and gaps; 2^e is two factors, as e can
        # reach 1073
        e = -(math.frexp(p.z)[1] + math.frexp(q.z)[1]) // 2
        root = math.sqrt(math.ldexp(p.z, e) * math.ldexp(q.z, e))
        arg = 0.5 * (gap * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)) / root * 2.0**scale
    if math.isinf(arg):
        # asinh(a) = ln(2a) to double precision once a exceeds 1e8, so
        # take the log of the ratio's parts; finite arguments keep the
        # closed form bit for bit
        return 2.0 * (math.log(gap) + scale * math.log(2.0) - 0.5 * (math.log(p.z) + math.log(q.z)))
    return 2.0 * math.asinh(arg)


def build_spanner_triples(points: list[CellId]):
    """The 2-additive Steiner spanner of the given cells under d1, its
    edges gathered in a set of ``(u, v, w)`` triples.

    Reference for :func:`halfspace.spanner.build_spanner`.
    """
    from halfspace.quadtree import build_quadtree, zorder_key
    from halfspace.spanner import INPUT, STEINER, SpannerGraph, SpannerVertex, enumerate_bridges
    from halfspace.tiling import is_ancestor_or_self

    if not points:
        raise ValueError("cannot build a spanner over an empty point set")
    tree = build_quadtree(points)
    bridges = enumerate_bridges(tree)

    graph = SpannerGraph(metric="d1-weighted")
    seen: set[CellId] = set()
    for i, c in enumerate(points):
        if c not in seen:
            seen.add(c)
            graph.add_vertex(INPUT, cell=c, input_index=i)
    steiner_cells = sorted(
        {c for b in bridges for c in (b.left, b.right)} - seen, key=lambda c: (c.level, c.coords)
    )
    for c in steiner_cells:
        graph.add_vertex(STEINER, cell=c)

    edges: set[tuple[int, int, float]] = set()
    for b in bridges:
        u, v = graph.vertex_of_cell[b.left], graph.vertex_of_cell[b.right]
        edges.add((min(u, v), max(u, v), 1.0))
    # each vertex's nearest strict ancestor among the vertices: in Z-order
    # every cell follows its ancestors, and the stack holds the vertex
    # cells containing the last one
    key = zorder_key(min(v.cell.level for v in graph.vertices), tree.dim - 1)
    stack: list[SpannerVertex] = []
    for v in sorted(graph.vertices, key=lambda v: key(v.cell)):
        while stack and not is_ancestor_or_self(stack[-1].cell, v.cell):
            stack.pop()
        if stack:
            up = stack[-1]
            edges.add((min(v.id, up.id), max(v.id, up.id), float(up.cell.level - v.cell.level)))
        stack.append(v)
    graph.edges = sorted(edges)
    return graph


def build_hyperbolic_spanner_triples(points: list[HPoint], k: int):
    """Purely additive spanner embedded in the halfspace, copying the d1
    spanner's vertices and weighing a set of ``(u, v, w)`` triples.

    Built on :func:`build_spanner_triples` and
    :func:`hyperbolic_distance_general`.  Reference for
    :func:`halfspace.spanner.build_hyperbolic_spanner`.
    """
    from halfspace.hyperbolic import normalize_and_embed
    from halfspace.shortcut import forest_height
    from halfspace.shortcut import shortcut_forest as shortcut_forest_fast
    from halfspace.spanner import INPUT, STEINER, SpannerGraph, up_edge_map
    from halfspace.tiling import center

    if k < 1:
        raise ValueError(f"hop budget must be at least 1, got {k}")
    if not points:
        raise ValueError("cannot build a spanner over an empty point set")
    _, moved, cells = normalize_and_embed(points)
    base = build_spanner_triples(cells)
    parent = up_edge_map(base)
    # beyond the forest height the budget is saturated: spend it on the
    # full closure so every vertical run collapses to a single edge
    cuts = shortcut_forest_fast(parent, 1 if k >= forest_height(parent) else k)

    graph = SpannerGraph(metric="hyperbolic")
    for v in base.vertices:
        graph.add_vertex(STEINER, cell=v.cell, point=center(v.cell))
    # the d1 spanner's edges are its bridges and the forest's parent
    # edges: each vertex has one upward edge, to its nearest ancestor vertex
    edge_pairs = {(u, v) for u, v, _w in base.edges}
    for u, w in cuts.extra_edges:
        edge_pairs.add((min(u, w), max(u, w)))
    edges: set[tuple[int, int, float]] = set()
    for u, v in edge_pairs:
        d = hyperbolic_distance_general(graph.vertices[u].point, graph.vertices[v].point)
        edges.add((u, v, d))
    for i, p in enumerate(moved):
        vid = graph.add_vertex(INPUT, point=p, input_index=i)
        anchor = base.vertex_of_cell[cells[i]]
        edges.add((min(vid, anchor), max(vid, anchor), hyperbolic_distance_general(p, graph.vertices[anchor].point)))
    graph.edges = sorted(edges)
    return graph


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


def contains_point(c: CellId, p: HPoint) -> bool:
    """Half-open geometric membership test, in exact rational arithmetic
    so it holds at every level; the tests check :func:`cell_of` with it."""
    if level_of_height(p.z) != c.level:
        return False
    w = Fraction(2) ** c.level
    return all(k * w <= Fraction(x) < (k + 1) * w for k, x in zip(c.coords, p.x))


def floor_scaled_ratio(x: float, level: int) -> int:
    """floor(x / 2^level), exactly, on the integer ratio of ``x`` at
    every level and for ints and floats alike.

    Reference for :func:`halfspace.tiling.floor_scaled`.
    """
    n, d = x.as_integer_ratio()  # d is a power of 2
    if level <= 0:
        return (n << -level) // d
    return n // (d << level)


def hyperbolic_distance_map(p: HPoint, q: HPoint) -> float:
    """Closed-form halfspace distance, the gap from ``hypot`` over a
    ``map`` of the coordinate differences at every dimension.

    Reference for :func:`halfspace.hyperbolic.hyperbolic_distance`.
    """
    px, qx, pz, qz = p.x, q.x, p.z, q.z
    if len(px) != len(qx):
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    gap = hypot(*map(sub, px, qx), pz - qz)
    zz = pz * qz
    if sys.float_info.min <= zz < inf:
        # an infinite gap gives an infinite argument
        arg = 0.5 * gap / sqrt(zz)
        if arg < inf:
            return 2.0 * asinh(arg)
    return _rescaled_distance(p, q, gap, zz)


# -- the writers that built dicts for json.dumps ------------------------


def quadtree_to_dict(tree) -> dict:
    """The tree as JSON-ready data: the points, then the nodes in
    :meth:`iter_nodes` order, each with the index of its parent
    (taken from the traversal's own stack, as no node links up).

    Reference for :meth:`halfspace.quadtree.QuadTree.to_json`, which
    must write ``json.dumps(quadtree_to_dict(tree), sort_keys=True)``.
    """
    nodes = []
    stack: list[tuple[QuadNode, int | None]] = [(tree.root, None)]
    while stack:
        node, up = stack.pop()
        k = len(nodes)
        cell = node.cell
        nodes.append({"cell": [cell.level, list(cell.coords)], "kind": node.kind, "parent": up, "stored": node.stored_index})
        stack.extend([(child, k) for child in reversed(node.children)])
    return {
        "dim": tree.dim,
        "points": [[c.level, list(c.coords)] for c in tree.points],
        "nodes": nodes,
    }


def avd_to_json(ix) -> str:
    """The index as ``json.dumps`` of a dict per node and annotation.

    Reference for :meth:`halfspace.avd.AvdIndex.to_json`.
    """
    data = quadtree_to_dict(ix.tree)
    extras = []
    for node in ix.tree.iter_nodes():
        extras.append({"h": node.h_index, "n2": node.n2_index, "reps": node.reps})
    data["annotations"] = extras
    data["highest_index"] = ix.highest_index
    data["source_kind"] = ix.source_kind
    data["transform"] = None if ix.transform is None else asdict(ix.transform)
    return json.dumps(data, sort_keys=True)


# -- the loaders that checked through CellId(...) and one call per entry --


def read_points_loads(fp: TextIO) -> tuple[int, str, list]:
    """Returns (dim, kind, points), one ``json.loads`` per line.

    Reference for :func:`halfspace.pointfile.read_points`, which must
    return equal points or refuse the same line.

    ``dim``, ``level`` and ``coords`` must be JSON integers; ``x`` must
    be a list of JSON numbers and ``z`` a JSON number, read as floats.
    Anything else, a value the floats cannot hold or an integer past
    Python's string-conversion digit limit included, raises
    :class:`PointFileError` naming the line.
    """
    header_line = fp.readline()
    if not header_line.strip():
        raise PointFileError("missing header line")
    try:
        header = json.loads(header_line)
        dim = header["dim"]
        kind = header["kind"]
    except (ValueError, RecursionError, KeyError, TypeError) as exc:  # ValueError: bad JSON or too many digits
        raise PointFileError(f"line 1: bad header: {exc}") from exc
    dim = _integer(dim, "dim", 1)
    if kind not in (CONTINUOUS, DISCRETE):
        raise PointFileError(f"line 1: unknown kind {kind!r}")
    if dim < 2:
        raise PointFileError(f"line 1: dimension must be at least 2, got {dim}")
    points = []
    for lineno, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: arrays nested too deep
            raise PointFileError(f"line {lineno}: invalid JSON") from exc
        except ValueError as exc:  # an integer past int's string-conversion digit limit
            raise PointFileError(f"line {lineno}: {exc}") from exc
        try:
            if kind == CONTINUOUS:
                xs, z = obj["x"], obj["z"]
                if type(xs) is not list:
                    raise PointFileError(f"line {lineno}: x must be a list, got {xs!r}")
                for v in xs:
                    if type(v) is not float and type(v) is not int:
                        raise PointFileError(f"line {lineno}: each x-coordinate must be a JSON number, got {v!r}")
                if type(z) is not float and type(z) is not int:
                    raise PointFileError(f"line {lineno}: z must be a JSON number, got {z!r}")
                if len(xs) != dim - 1:
                    raise PointFileError(f"line {lineno}: expected {dim - 1} x-coordinates")
                points.append(HPoint(tuple(map(float, xs)), float(z)))
            else:
                level, coords = obj["level"], obj["coords"]
                if type(coords) is not list:
                    raise PointFileError(f"line {lineno}: coords must be a list, got {coords!r}")
                for v in coords:
                    _integer(v, "each coordinate", lineno)
                if len(coords) != dim - 1:
                    raise PointFileError(f"line {lineno}: expected {dim - 1} coordinates")
                # the checks above cover all that CellId checks
                points.append(CellId.derived(_integer(level, "level", lineno), tuple(coords)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, PointFileError):
                raise
            raise PointFileError(f"line {lineno}: {exc}") from exc
    if not points:
        raise PointFileError("point file holds no points")
    return dim, kind, points


def loaded_cell_checked(tree, spec, entry: str, k: int) -> CellId:
    """The cell ``[level, coords]`` of a loaded tree's entry ``k``, or
    ``ValueError`` naming the entry: what :class:`CellId` takes (JSON
    integers, no booleans) and :meth:`in_root` passes.  Anything but
    a two-entry list fails to unpack or fails :class:`CellId`'s
    checks, as JSON object keys and the items of a string are
    strings.  A cell below :data:`DEEPEST_LEVEL` is refused too."""
    try:
        level, coords = spec
        cell = CellId(level, tuple(coords))
    except (TypeError, ValueError):
        cell = None
    if cell is None or not tree.in_root(cell):
        raise ValueError(f"{entry} {k}'s cell {spec!r} is no [level, {tree.dim - 1} coordinates] of integers inside the root shadow")
    if cell.level < DEEPEST_LEVEL:
        raise ValueError(f"{entry} {k}'s cell {cell!r} lies below level {DEEPEST_LEVEL}, the deepest a tree takes")
    return cell


def tree_from_dict_checked(data: dict):
    """:meth:`QuadTree.from_dict_with_nodes` with every cell checked by
    ``CellId(...)`` and ``in_root`` and every child by
    :func:`shadow_within`.

    Reference for the loader's integer checks, which must load the same
    tree or raise the same message."""
    with collector_paused():
        dim, point_specs, node_specs = json_fields(data, itemgetter("dim", "points", "nodes"), "tree")
        if type(dim) is not int or dim < 2:
            raise ValueError(f"dim {dim!r} is no integer >= 2")
        if type(point_specs) is not list or type(node_specs) is not list or not node_specs:
            raise ValueError("a tree needs a JSON array of points and one of nodes, its root node first")
        tree = QuadTree.__new__(QuadTree)
        tree.dim = dim
        # node 0's cell holds dim - 1 coordinates of the file itself, so
        # it is loaded before anything of size dim is built
        root = loaded_cell_checked(tree, json_fields(node_specs[0], itemgetter("cell"), "node", 0), "node", 0)
        if root.level or any(root.coords):
            raise ValueError(f"node 0 is the root and must be {root_cell(dim)!r}, got {root!r}")
        tree.root_cell = root
        tree.points = points = [loaded_cell_checked(tree, spec, "point", i) for i, spec in enumerate(point_specs)]
        index_of = first_indices(points)
        built: list[QuadNode] = []
        ups: list[int | None] = []  # each node's parent index
        width = {ORDINARY: 1 << (dim - 1), COMPRESSED: 1, LEAF: 0}
        low = 0
        fields = itemgetter("cell", "kind", "parent", "stored")
        for k, spec in enumerate(node_specs):
            cell, kind, up, stored = json_fields(spec, fields, "node", k)
            cell = loaded_cell_checked(tree, cell, "node", k)
            if type(kind) is not str or kind not in width:
                raise ValueError(f"node {k}'s kind {kind!r} is none of {ORDINARY}, {COMPRESSED}, {LEAF}")
            if stored is not None and not is_index(stored, len(points)):
                raise ValueError(f"node {k} stores {stored!r}, no input index in range({len(points)})")
            node = QuadNode(cell, kind, stored_index=stored)
            if k == 0:
                ups.append(None)
                if up is not None:
                    raise ValueError(f"node 0 is the root and takes no parent, got {up!r}")
            elif is_index(up, k):
                above = built[up]
                slot = len(above.children)
                lev = cell.level
                if above.kind == ORDINARY:
                    # child number slot of the children() order: one level
                    # down, inside the box, coordinate bits spelling slot
                    i = 0
                    for c in cell.coords:
                        i = (i << 1) | (c & 1)
                    if i != slot or lev != above.cell.level - 1 or not shadow_within(cell, above.cell):
                        raise ValueError(f"node {k} {cell!r} is not child {slot} of ordinary node {up} in children() order")
                elif slot == width[above.kind] or lev == above.cell.level or not shadow_within(cell, above.cell):
                    raise ValueError(f"node {k} {cell!r} is no lone child strictly inside the box of {above.kind} node {up}")
                ups.append(up)
                above.children.append(node)
                if lev < low:
                    low = lev
            else:
                raise ValueError(f"node {k}'s parent {up!r} is not an earlier node")
            if stored is not None and index_of.get(cell) != stored:
                first = index_of.get(cell)
                has = "is no input" if first is None else f"is first input {first}"
                raise ValueError(f"node {k} {cell!r} stores {stored!r}, but its cell {has}")
            built.append(node)
        tree.root = built[0]
        tree._locate_level = low - 1
        storing = 0
        for k in range(len(built) - 1, -1, -1):  # children before parents
            node = built[k]
            if len(node.children) != width[node.kind]:
                raise ValueError(f"{node.kind} node {k} {node.cell!r} has {len(node.children)} children, not {width[node.kind]}")
            if node.stored_index is not None:
                node.count += 1
                storing += 1
            if k:
                built[ups[k]].count += node.count
        if storing != len(index_of):
            # the shape makes node cells distinct, and each storing node
            # its own cell's index: some input cell has no node storing
            # it (a node there storing nothing included)
            missing = min(set(index_of.values()) - {node.stored_index for node in built})
            raise ValueError(f"input {missing} {points[missing]!r} has no node storing it")
        return tree, built


def avd_from_json_checked(text: str):
    """Load an index written by :meth:`AvdIndex.to_json`, checking each
    ``reps`` entry with one :func:`is_index` call.

    Reference for :meth:`halfspace.avd.AvdIndex.from_json`, which must
    load the same index or raise the same message.

    Annotation k belongs to node k of the file, in whatever order
    the file lists its nodes.  Raises ``ValueError``, naming the
    entry, unless the text is JSON whose integers Python converts
    (within its digit limit), a JSON object holding a tree
    :meth:`QuadTree.from_dict` takes, one annotation object per
    node, ``highest_index``, ``source_kind`` and ``transform``;
    every input index (``h``, ``n2``, ``reps`` and
    ``highest_index``) lies in ``range(len(points))``; node 0's
    ``h``, the root's highest input, is null or ``highest_index``;
    and the transform is null with source kind "discrete", or an
    object whose scale and ``dim - 1`` shift values
    :class:`NormalizeTransform` takes, with source kind
    "continuous".  ``null`` marks a node the AVD passes did not
    annotate; a query landing there raises ``ValueError``.  One
    pass, O(nodes + reps).
    """
    with collector_paused():
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, or nesting too deep
            raise ValueError(f"index is no JSON: {exc}") from None
        fields = itemgetter("annotations", "highest_index", "source_kind", "transform")
        annotations, highest, source_kind, t = json_fields(data, fields, "index")
        tree, nodes = tree_from_dict_checked(data)
        if type(annotations) is not list:
            raise ValueError(f"annotations is no JSON array: {reprlib.repr(annotations)}")
        if len(annotations) != len(nodes):
            raise ValueError(f"index has {len(nodes)} nodes but {len(annotations)} annotations")
        n = len(tree.points)
        fields = itemgetter("h", "n2", "reps")
        for k, (node, extra) in enumerate(zip(nodes, annotations)):
            h, n2, reps = json_fields(extra, fields, "annotation", k)
            if not (
                (h is None or is_index(h, n))
                and (n2 is None or is_index(n2, n))
                and (reps is None or (type(reps) is list and all(is_index(i, n) for i in reps)))
            ):
                raise ValueError(f"annotation {k} {extra!r}: h, n2 and reps must be null or input indices in range({n})")
            node.h_index, node.n2_index, node.reps = h, n2, reps
        if not is_index(highest, n):
            raise ValueError(f"highest_index {highest!r} is no input index in range({n})")
        if nodes[0].h_index not in (None, highest):
            raise ValueError(f"highest_index {highest!r} is not node 0's h {nodes[0].h_index!r}, the root's highest input")
        if t is None:
            transform = None
        else:
            scale, shift = json_fields(t, itemgetter("scale", "shift"), "transform")
            if type(shift) is not list or len(shift) != tree.dim - 1:
                raise ValueError(f"transform shift {shift!r} is no list of {tree.dim - 1} numbers")
            transform = NormalizeTransform(scale, tuple(shift))
        index = AvdIndex(tree, transform, highest)
        if source_kind != index.source_kind:
            raise ValueError(f"source_kind {source_kind!r} is not {index.source_kind!r}, as the transform implies")
        return index
