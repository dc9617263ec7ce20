"""Additive Steiner spanners over the discrete and continuous models.

The d1-weighted spanner overlays the unique d2-paths of all input
pairs: vertices are the inputs plus the endpoints of every "bridge"
(the single horizontal edge a d2-path may use), vertical edges connect
each vertex to its nearest strict ancestor among the vertices, and each
bridge contributes a unit edge.  Every pair's d2-path is then realized
edge-for-edge, so graph distances sit between d1 and d1 + 2.

Bridges are enumerated from the compressed quadtree: per-node neighbor
checks catch every bridge with a stored endpoint box, and witness
d2-paths between the children of adjacent compressed nodes catch
bridges whose endpoints fall inside compressed gaps.  Both read the
nodes under each neighbor box from one pass
(:meth:`QuadTree.neighbor_rows`) with no descent from the root, which
lists a node only if it holds an input, so neither filters; the rows
below an empty row of a compressed gap are shared and never computed,
so the pass costs the nodes plus the non-empty gap levels.  A
compressed node's partners are searched from those nodes by the pruned
boundary descent the AVD's representatives use as well
(:func:`~halfspace.quadtree.compressed_on_boundary`).  The enumeration
is deliberately conservative; extra bridges only add Steiner vertices.

A neighbor check keeps the pair of boxes ``k`` and ``k + off`` when
one side is stored, or when an occupied child of one lies 2 or more
from an occupied child of the other on some axis ``j`` (that pair's
path cannot bridge lower).  The children of ``k`` lie in ``2k_j`` and
``2k_j + 1``.  At ``off_j = -1`` the neighbor's lie in ``2k_j - 2`` and
``2k_j - 1``, so only the node's highest child against the neighbor's
lowest can be 2 apart; at ``+1`` the roles swap; at 0 no pair is.  So
on each axis the farthest pair decides, and each side is read once as
the per-axis extent of its occupied children, with no neighbor cell.
In the hyperbolic plane (D = 2) a box has one coordinate, and the pass
runs on integers, picked by the tree's coordinate count as point
location and :func:`~halfspace.metrics.d2_argmin` pick their scalar
steps: an extent is two ints, a gap bridge's apexes come from the
scalar climb of ``d2_argmin``, which stops at the apexes of
:func:`~halfspace.metrics.d2_path`, and a bridge stays an integer key
``(level, lo, hi)`` until the two cells of each kept bridge are built.

Bridges and vertical edges are each unique and never share a pair, so
:func:`build_spanner` collects them in one list and sorts it once.
Past the bridge pass it runs on integers: each cell is its ``(level,
coords)`` key, whose hash and comparisons run in C, each edge ``u < v``
the integer ``u * n + v`` over ``n`` vertices, which orders as the
``(u, v)`` tuple does, weighed from a list of the vertices' levels, and
each vertex's vertical edge comes from one stack over int intervals in
the quadtree's Z-order (:func:`~halfspace.quadtree.zorder`), at every
dimension.  The hyperbolic spanner
(:func:`build_hyperbolic_spanner`) keeps the d1 spanner's vertices, ids
and cell map, moves each vertex to its cell center and appends the
inputs; its edges are one list of such pairs (the d1 edges, the
shortcut extras, each input's edge to its cell's vertex), sorted once
and weighed once each by the closed form of
:func:`~halfspace.hyperbolic.hyperbolic_distance`: at D = 2 its common
case runs inline on flat lists of the vertices' ``x`` and ``z``, with
the function's own expressions (its ``hypot`` gets the same two
differences), and any other pair calls the function.
No pair comes twice, so no set is needed: the d1 edges are
unique, as above; an extra joins a vertex to an ancestor at least two
forest edges up, so it is neither a parent edge nor a bridge (whose
ends share a level), and the shortcut makes each extra once; an input's
edge is the only pair holding that input's vertex.  Whether the budget
``k`` saturates (the forest at most ``k`` deep, when the full closure
is taken) is decided by a depth probe that stops at the first vertex
deeper than ``k``, so the forest's one preorder is the shortcut's own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import filterfalse
from math import asinh, hypot, sqrt
from operator import add

from .hyperbolic import NormalizeTransform, hyperbolic_distance, normalize_and_embed
from .metrics import d2_path, lambda_
from .quadtree import COMPRESSED, QuadNode, QuadTree, build_quadtree, compressed_on_boundary, zorder
from .quadtree import box_adjacent  # noqa: F401  (bench/tracer.py wraps spanner.box_adjacent)
from .shortcut import check_hop_budget, shortcut_forest
from .tiling import CellId, HPoint, center, collector_paused, is_ancestor_or_self, neighbor_offsets

INPUT = "input"
STEINER = "steiner"

_FLOAT_MIN = sys.float_info.min  # the smallest normal float
_INF = math.inf


@dataclass(frozen=True)
class Bridge:
    """A horizontal edge between same-level neighbor cells, in sorted order."""

    left: CellId
    right: CellId

    @staticmethod
    def of(a: CellId, b: CellId) -> "Bridge":
        if a.level != b.level or lambda_(a, b) != 1:
            raise ValueError(f"{a!r} and {b!r} are not horizontal neighbors")
        return Bridge(a, b) if a < b else Bridge(b, a)


@dataclass
class SpannerVertex:
    id: int
    kind: str  # input | steiner
    cell: CellId | None = None
    point: HPoint | None = None
    input_index: int | None = None


@dataclass
class SpannerGraph:
    metric: str  # "d1-weighted" | "ln2-scaled" | "hyperbolic"
    vertices: list[SpannerVertex] = field(default_factory=list)
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    vertex_of_cell: dict[CellId, int] = field(default_factory=dict)

    def add_vertex(self, kind: str, cell: CellId | None = None, point: HPoint | None = None, input_index: int | None = None) -> int:
        vid = len(self.vertices)
        self.vertices.append(SpannerVertex(vid, kind, cell, point, input_index))
        if cell is not None:
            self.vertex_of_cell[cell] = vid
        return vid

    @property
    def n_steiner(self) -> int:
        return sum(1 for v in self.vertices if v.kind == STEINER)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in self.vertices]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "vertices": [
                {
                    "id": v.id,
                    "kind": v.kind,
                    "cell": [v.cell.level, list(v.cell.coords)] if v.cell is not None else None,
                    "point": {"x": list(v.point.x), "z": v.point.z} if v.point is not None else None,
                    "input_index": v.input_index,
                }
                for v in self.vertices
            ],
            "edges": [[u, v, w] for u, v, w in self.edges],
        }

    def to_edge_list(self) -> str:
        """Plain `u v w` lines for external tools."""
        lines = [f"{u} {v} {w}" for u, v, w in self.edges]
        return "\n".join(lines) + ("\n" if lines else "")


def bridge_key(a: CellId, b: CellId) -> tuple:
    """Sort key of the bridge between same-level cells ``a`` and ``b``:
    the level, then both ends' coordinates in order.  A CellId orders
    as its ``(level, coords)`` tuple, so these keys order bridges as
    ``(left, right)`` does, compared in C rather than by the dataclass's
    Python-level ``__lt__``."""
    return (a.level, a.coords, b.coords) if a.coords < b.coords else (a.level, b.coords, a.coords)


def _child_extent(top: QuadNode, lev: int) -> list[tuple[int, int]] | None:
    """The per-axis ``(lo, hi)`` coordinates, at ``lev - 1``, of the
    occupied child boxes of the box at ``lev`` whose topmost node is
    ``top``; None when there is none, as under a stored leaf."""
    nodes = [top] if top.cell.level != lev else [ch for ch in top.children if ch.count]
    kids = []
    for nu in nodes:
        s = lev - 1 - nu.cell.level
        kids.append([k >> s for k in nu.cell.coords] if s else nu.cell.coords)
    return [(min(c), max(c)) for c in zip(*kids)] if kids else None


def enumerate_bridges(tree: QuadTree) -> list[Bridge]:
    """A superset of every bridge used by a d2-path between stored inputs.

    One preorder pass over :meth:`QuadTree.neighbor_rows`, which gives
    each node the topmost nodes under its horizontal neighbor boxes
    that hold inputs, None elsewhere (no descent from the root; the rows
    below an empty row of a compressed gap are shared and never
    computed, so the pass costs the nodes plus the non-empty gap
    levels).  Bridges with a stored endpoint box come from per-node
    neighbor checks.  A stored node keeps every occupied neighbor; any
    other node keeps a neighbor when the two sides' occupied children
    lie 2 or more apart on some axis, decided from per-axis extents
    (:func:`_child_extent`): the node's once, each occupied neighbor's
    once.  A neighbor's coordinates are the node's plus its offset
    (:func:`~halfspace.tiling.neighbor_offsets`, the order of
    ``rows[0]``), so no neighbor cell is built.  Bridges inside
    compressed gaps come from adjacent pairs of occupied compressed
    nodes, each found from its
    larger (or equal) member nu2: the other's ancestor at nu2's level
    touches nu2, so it is one of nu2's neighbor boxes, and the pruned
    boundary descent (:func:`~halfspace.quadtree.compressed_on_boundary`)
    from the node under that box finds it.  Every node so found lies in
    a neighbor box, so it is adjacent to nu2.  A same-level pair is
    found from both sides and kept once as its :func:`bridge_key`; the
    bridges are built from the sorted keys, in ``(left, right)`` order.

    With one coordinate (D = 2, read off the tree) the pass runs on
    integers (:func:`_one_axis_bridges`): the same extent rule on two
    ints per side, and a gap bridge's apexes from the scalar climb of
    :func:`~halfspace.metrics.d2_argmin` instead of a
    :func:`~halfspace.metrics.d2_path`.
    """
    if tree.dim == 2:
        return _one_axis_bridges(tree)
    offsets = neighbor_offsets(tree.dim - 1)
    found: set[tuple] = set()  # bridge_key of each bridge
    for node, rows in tree.neighbor_rows():
        if node.count == 0:
            continue
        r, row = node.cell, rows[0]
        if any(row):
            lev, k = r.level, r.coords
            # a stored node keeps every occupied neighbor
            mine = None if node.stored_index is not None else _child_extent(node, lev)
            for off, top2 in zip(offsets, row):
                if top2 is None:
                    continue
                if mine is not None:
                    # on each axis only the farthest pair can lie 2 apart
                    theirs = _child_extent(top2, lev)
                    if theirs is None or not any(
                        hi - lo2 >= 2 if o < 0 else o > 0 and hi2 - lo >= 2
                        for o, (lo, hi), (lo2, hi2) in zip(off, mine, theirs)
                    ):
                        continue
                k2 = tuple(map(add, k, off))
                found.add((lev, k, k2) if k < k2 else (lev, k2, k))
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
            found.add(bridge_key(path.apex_p, path.apex_q))
    return [Bridge(CellId.derived(lev, lo), CellId.derived(lev, hi)) for lev, lo, hi in sorted(found)]


def _one_axis_extent(top: QuadNode, lev: int) -> tuple[int, int] | None:
    """:func:`_child_extent` with one coordinate, as two ints.  Children
    follow :func:`~halfspace.tiling.children` order, so the later
    occupied child is the higher one."""
    cell = top.cell
    if cell.level != lev:
        k = cell.coords[0] >> (lev - 1 - cell.level)
        return k, k
    ks = [ch.cell.coords[0] >> (lev - 1 - ch.cell.level) for ch in top.children if ch.count]
    return (ks[0], ks[-1]) if ks else None


def _one_axis_bridges(tree: QuadTree) -> list[Bridge]:
    """:func:`enumerate_bridges` on a tree with one coordinate (D = 2).

    A bridge is the integer key ``(level, lo, hi)`` until the end.  Box
    ``k`` at level ``lev`` has the neighbor boxes ``k - 1`` and
    ``k + 1``, the two entries of ``rows[0]`` (None unless occupied), so
    a check builds no neighbor list and tests no count.  A stored node
    keeps every occupied neighbor; otherwise the extent rule runs on
    two ints per side (:func:`_one_axis_extent`): against the left
    neighbor the node's highest child and the neighbor's lowest decide,
    against the right one the neighbor's highest and the node's lowest.

    A gap bridge is the bridge of the d2-path between the two gap
    bottoms, found by the climb :func:`~halfspace.metrics.d2_argmin`
    runs at D = 2: lift the lower bottom with one shift, start at
    ``t`` = bit length of ``|a - b| // 2`` and shift once more if the
    ancestors there are still 2 or more apart, as the one-axis case of
    :func:`~halfspace.metrics._climb` (threshold 1, the level gap as a
    shift) does: its start ``(delta // 2).bit_length()`` is the same
    number, so the apexes ``a >> t`` and ``b >> t`` at level ``L + t``
    are those of :func:`~halfspace.metrics.d2_path`.

    The keys sort as :func:`bridge_key` does, and only the kept bridges
    get their two cells, left before right.
    """
    found: set[tuple[int, int, int]] = set()
    add = found.add
    for node, rows in tree.neighbor_rows():
        if not node.count:
            continue
        lev = node.cell.level
        (k,) = node.cell.coords
        left, right = rows[0]
        if node.stored_index is not None:
            if left is not None:
                add((lev, k - 1, k))
            if right is not None:
                add((lev, k, k + 1))
        elif left is not None or right is not None:
            mine_lo, mine_hi = _one_axis_extent(node, lev)
            if left is not None:
                theirs = _one_axis_extent(left, lev)
                if theirs is not None and mine_hi - theirs[0] >= 2:
                    add((lev, k - 1, k))
            if right is not None:
                theirs = _one_axis_extent(right, lev)
                if theirs is not None and theirs[1] - mine_lo >= 2:
                    add((lev, k, k + 1))
        if node.kind != COMPRESSED:
            continue
        partners: list[QuadNode] = []
        for top2 in rows[0]:
            if top2 is not None:
                compressed_on_boundary(top2, node.cell, partners)
        if not partners:
            continue
        bottom = node.children[0].cell
        lp, (kp,) = bottom.level, bottom.coords
        for nu2 in partners:
            other = nu2.children[0].cell
            lq, (kq,) = other.level, other.coords
            if lq > lp:
                level, a, b = lq, kp >> (lq - lp), kq
            else:
                level, a, b = lp, kp, kq >> (lp - lq)
            t = (abs(a - b) >> 1).bit_length()
            a, b = a >> t, b >> t
            if abs(a - b) > 1:
                a, b, t = a >> 1, b >> 1, t + 1
            add((level + t, a, b) if a < b else (level + t, b, a))
    return [Bridge(CellId.derived(lev, (lo,)), CellId.derived(lev, (hi,))) for lev, lo, hi in sorted(found)]


def build_spanner(points: list[CellId]) -> SpannerGraph:
    """The 2-additive Steiner spanner of the given cells under d1.

    The vertices are the distinct input cells, in input order, then the
    bridge ends that are no input, in ``(level, coords)`` order.  Past
    the bridge pass the assembly runs on each cell's ``(level, coords)``
    key, whose hash and comparisons run in C, and on the vertices' ids
    and levels; :attr:`SpannerGraph.vertex_of_cell` is built once, at
    the end.  Each edge ``u < v`` is the integer ``u * n + v`` over the
    ``n`` vertices until the list is sorted once, and is weighed from
    the ends' levels: 1 for a bridge (its ends share a level), the level
    gap for a vertical edge.  Each vertex's vertical edge goes to its
    nearest strict ancestor among the vertices, found by one stack pass
    in Z-order (:func:`~halfspace.quadtree.zorder`, the quadtree's own),
    where every cell follows its ancestors and the stack holds the
    vertices containing the last one.  A cell at level ``L`` with
    lifted Morton integer ``z`` is the interval of ints from ``z`` up to
    ``z + 2^(axes (L - low))`` at the lowest level ``low``, so at every
    dimension the stack pops each interval that ends at or before the
    next start, with no ancestry test on cells.
    """
    if not points:
        raise ValueError("cannot build a spanner over an empty point set")
    with collector_paused():
        # the tree is dropped once its bridges are out, before the assembly
        bridges = enumerate_bridges(build_quadtree(points))

        index: dict[tuple, int] = {}  # vertex id of each (level, coords) key
        cells: list[CellId] = []
        inputs: list[int] = []
        for i, c in enumerate(points):
            key = (c.level, c.coords)
            if key not in index:
                index[key] = len(cells)
                cells.append(c)
                inputs.append(i)
        m = len(cells)
        ends = [c for b in bridges for c in (b.left, b.right)]
        end_keys = [(c.level, c.coords) for c in ends]
        # in bridge order; at D = 2 a bridge's right end is its left end
        # plus one, so the ends already come in order and the sort only
        # checks it
        cell_of_key = dict(zip(end_keys, ends))
        steiner = list(filterfalse(index.__contains__, cell_of_key))
        steiner.sort()
        index.update(zip(steiner, range(m, m + len(steiner))))
        cells += [cell_of_key[key] for key in steiner]
        n = len(cells)
        levels = [c.level for c in cells]

        # bridges (same level) and vertical edges (one per vertex, upward)
        # are each unique and never share a pair: one list, sorted once
        end_ids = list(map(index.__getitem__, end_keys))
        pairs = [u * n + v if u < v else v * n + u for u, v in zip(end_ids[::2], end_ids[1::2])]
        axes = len(cells[0].coords)
        order, starts, low = zorder(cells, axes)
        stops = [z + (1 << (axes * (lev - low))) for z, lev in zip(starts, levels)]
        stack: list[int] = []
        for v in order:
            while stack and stops[stack[-1]] <= starts[v]:
                stack.pop()
            if stack:
                up = stack[-1]
                pairs.append(v * n + up if v < up else up * n + v)
            stack.append(v)
        pairs.sort()
        # the vertices, the edges and the cell map share one int per id;
        # a bridge's ends share a level, so its level gap 0 weighs 1
        ids = list(range(n))
        edges = []
        for pair in pairs:
            u, v = divmod(pair, n)
            edges.append((ids[u], ids[v], float(abs(levels[u] - levels[v])) or 1.0))
        vertices = [SpannerVertex(ids[v], INPUT, cells[v], None, i) for v, i in enumerate(inputs)]
        vertices += [SpannerVertex(ids[v], STEINER, cells[v]) for v in range(m, n)]
        return SpannerGraph("d1-weighted", vertices, edges, dict(zip(cells, ids)))


def up_edge_map(graph: SpannerGraph) -> dict[int, int | None]:
    """Parent map of the upward forest: each vertex's vertical edge
    target, read off a list of the vertices' levels."""
    parent: dict[int, int | None] = {v.id: None for v in graph.vertices}
    levels = [v.cell.level for v in graph.vertices]
    for u, v, _w in graph.edges:
        lu, lv = levels[u], levels[v]
        if lu < lv:
            parent[u] = v
        elif lv < lu:
            parent[v] = u
    return parent


def path_context(graph: SpannerGraph) -> tuple[dict[int, int | None], set[tuple[int, int]]]:
    """Precomputed lookups for walking many canonical paths in one graph."""
    bridges = set()
    for u, v, w in graph.edges:
        if graph.vertices[u].cell.level == graph.vertices[v].cell.level:
            bridges.add((u, v))
            bridges.add((v, u))
    return up_edge_map(graph), bridges


def realized_path_length(graph: SpannerGraph, p: CellId, q: CellId, ctx=None) -> float:
    """Length of the canonical d2-path walked through graph edges.

    Raises if a vertex or edge the overlay should contain is missing;
    the tests use this to certify exact d2 realization.
    """
    path = d2_path(p, q)
    up, bridge_pairs = ctx if ctx is not None else path_context(graph)

    def climb(cell: CellId, apex: CellId) -> float:
        total = 0.0
        vid = graph.vertex_of_cell[cell]
        while graph.vertices[vid].cell != apex:
            nxt = up[vid]
            if nxt is None:
                raise AssertionError(f"chain from {cell!r} stops below apex {apex!r}")
            nxt_cell = graph.vertices[nxt].cell
            if nxt_cell.level > apex.level or not is_ancestor_or_self(nxt_cell, graph.vertices[vid].cell):
                raise AssertionError(f"vertical edge from {graph.vertices[vid].cell!r} overshoots {apex!r}")
            total += nxt_cell.level - graph.vertices[vid].cell.level
            vid = nxt
        return total

    total = climb(p, path.apex_p) + climb(q, path.apex_q)
    if path.has_bridge:
        u = graph.vertex_of_cell[path.apex_p]
        v = graph.vertex_of_cell[path.apex_q]
        if (u, v) not in bridge_pairs:
            raise AssertionError(f"bridge {path.apex_p!r}-{path.apex_q!r} missing")
        total += 1.0
    return total


def build_embedding_graph(points: list[HPoint]) -> tuple[SpannerGraph, dict[int, int], NormalizeTransform]:
    """Spanner of the embedded cells with edge lengths scaled by ln 2.

    Returns the graph, the input-index to vertex-id mapping, and the
    normalization applied before embedding.
    """
    if not points:
        raise ValueError("cannot embed an empty point set")
    with collector_paused():
        transform, _, cells = normalize_and_embed(points)
        graph = build_spanner(cells)
        graph.metric = "ln2-scaled"
        graph.edges = [(u, v, w * math.log(2.0)) for u, v, w in graph.edges]
        mapping = {i: graph.vertex_of_cell[c] for i, c in enumerate(cells)}
        return graph, mapping, transform


def build_hyperbolic_spanner(points: list[HPoint], k: int) -> SpannerGraph:
    """Purely additive spanner embedded in the halfspace.

    Takes the d1 spanner of the embedded cells, shortcuts its upward
    forest so any vertical run needs at most ``k`` hops, keeps the
    bridges, and attaches each point to its cell center; every edge is
    weighted by the true distance of its endpoints.  Coordinates are the
    normalized ones; the normalization is an isometry, so pairwise
    distances of the inputs are unchanged.
    """
    check_hop_budget(k)
    if not points:
        raise ValueError("cannot build a spanner over an empty point set")
    with collector_paused():
        _, moved, cells = normalize_and_embed(points)
        base = build_spanner(cells)
        parent = up_edge_map(base)
        # beyond the forest height the budget is saturated: spend it on the
        # full closure so every vertical run collapses to a single edge
        cuts = shortcut_forest(parent, k if _deeper_than(parent, k) else 1)

        # the d1 spanner is this call's own: its vertices turn into the
        # Steiner vertices at their cell centers, keeping their ids and cell
        # map, and the inputs follow them
        vertices = base.vertices
        for v in vertices:
            v.kind, v.point, v.input_index = STEINER, center(v.cell), None
        m = len(vertices)
        vertices += [SpannerVertex(m + i, INPUT, None, p, i) for i, p in enumerate(moved)]
        # the d1 spanner's edges are its bridges and the forest's parent
        # edges: each vertex has one upward edge, to its nearest ancestor
        # vertex.  Add the shortcut extras and each input's edge to the
        # vertex of its cell, then weigh every pair once, in sorted order.
        # No pair comes twice (see the module docstring), so they go into
        # one list.  A pair u < v is the integer u * n + v: with v < n
        # these order as the (u, v) tuples do
        n = len(vertices)
        pairs = [u * n + v for u, v, _w in base.edges]
        pairs += [u * n + w if u < w else w * n + u for u, w in cuts.extra_edges]
        vid = base.vertex_of_cell
        pairs += [vid[c] * n + m + i for i, c in enumerate(cells)]
        pairs.sort()
        at = [v.point for v in vertices]
        # the edges hold each vertex's own id object, not a new int per end:
        # a smaller graph, and a query touches fewer objects
        ids = [v.id for v in vertices]
        edges = []
        if len(at[0].x) == 1:
            # hyperbolic_distance's common case, its expressions in its
            # order on flat lists (hypot gets the same two differences);
            # any other pair goes to it whole
            xs = [p.x[0] for p in at]
            zs = [p.z for p in at]
            for pair in pairs:
                u, v = divmod(pair, n)
                zz = zs[u] * zs[v]
                if _FLOAT_MIN <= zz < _INF:
                    arg = 0.5 * hypot(xs[u] - xs[v], zs[u] - zs[v]) / sqrt(zz)
                    if arg < _INF:
                        edges.append((ids[u], ids[v], 2.0 * asinh(arg)))
                        continue
                edges.append((ids[u], ids[v], hyperbolic_distance(at[u], at[v])))
        else:
            for pair in pairs:
                u, v = divmod(pair, n)
                edges.append((ids[u], ids[v], hyperbolic_distance(at[u], at[v])))
        return SpannerGraph("hyperbolic", vertices, edges, vid)


def _deeper_than(parent: dict[int, int | None], k: int) -> bool:
    """Whether a vertex of the upward forest ``parent`` lies more than
    ``k`` edges below its root.

    Each vertex climbs until a root or a vertex whose depth is known, and
    the depths found on the way are kept, so every vertex is read about
    once; a climb that passes ``k + 1`` unknown vertices has found a vertex
    deeper than ``k`` and ends the probe, as does the first such depth.
    """
    depth: dict[int, int] = {}
    for v in parent:
        path = []
        u = v
        while u is not None and u not in depth:
            if len(path) > k:
                return True
            path.append(u)
            u = parent[u]
        d = -1 if u is None else depth[u]
        for w in reversed(path):
            d += 1
            depth[w] = d
        if d > k:
            return True
    return False
