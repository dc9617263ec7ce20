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
(:meth:`QuadTree.neighbor_rows`) with no descent from the root.  The
neighbor checks look at those nodes' occupied child boxes; a
compressed node's partners are searched from them by the pruned
boundary descent the AVD's representatives use as well
(:func:`~halfspace.quadtree.compressed_on_boundary`).  The enumeration
is deliberately conservative; extra bridges only add Steiner vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .hyperbolic import NormalizeTransform, hyperbolic_distance, normalize_and_embed
from .metrics import d2_path, lambda_
from .quadtree import COMPRESSED, QuadNode, QuadTree, build_quadtree, compressed_on_boundary, zorder_key
from .quadtree import box_adjacent  # noqa: F401  (bench/tracer.py wraps spanner.box_adjacent)
from .shortcut import forest_height, shortcut_forest
from .tiling import CellId, HPoint, ancestor_at, center, horizontal_neighbors, is_ancestor_or_self

INPUT = "input"
STEINER = "steiner"


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

    def position(self) -> HPoint:
        return self.point if self.point is not None else center(self.cell)


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

    @classmethod
    def from_dict(cls, data: dict) -> "SpannerGraph":
        g = cls(metric=data["metric"])
        for spec in data["vertices"]:
            cell = CellId(spec["cell"][0], tuple(spec["cell"][1])) if spec["cell"] else None
            point = HPoint(tuple(spec["point"]["x"]), spec["point"]["z"]) if spec["point"] else None
            g.add_vertex(spec["kind"], cell, point, spec["input_index"])
        g.edges = [(u, v, w) for u, v, w in data["edges"]]
        return g

    def to_edge_list(self) -> str:
        """Plain `u v w` lines for external tools."""
        lines = [f"{u} {v} {w}" for u, v, w in self.edges]
        return "\n".join(lines) + ("\n" if lines else "")


def _occupied_children(box: CellId, top: QuadNode) -> list[CellId]:
    """Child boxes of ``box`` holding inputs; ``top`` is the topmost node on or below ``box``."""
    if top.cell != box:
        return [ancestor_at(top.cell, box.level - 1)]
    return [ancestor_at(ch.cell, box.level - 1) for ch in top.children if ch.count > 0]


def bridge_candidate(r: CellId, top: QuadNode, r2: CellId, top2: QuadNode) -> bool:
    """Can (r, r2) be the bridge of some input pair's d2-path?

    ``top`` and ``top2`` are the topmost nodes on or below the two
    boxes, both holding inputs.  True when ``r`` is itself an input, or
    some occupied child of one side is not a neighbor of some occupied
    child of the other (that pair's path cannot bridge lower).

    Whether ``r2`` is an input need not be asked: an input box is an
    occupied node, and :func:`enumerate_bridges` tests the same pair
    from that node's side, where ``r2`` is the first box.
    """
    if top.cell == r and top.stored_index is not None:
        return True
    kids_r2 = _occupied_children(r2, top2)
    return any(lambda_(c, c2) >= 2 for c in _occupied_children(r, top) for c2 in kids_r2)


def enumerate_bridges(tree: QuadTree) -> list[Bridge]:
    """A superset of every bridge used by a d2-path between stored inputs.

    One preorder pass over :meth:`QuadTree.neighbor_rows`, which gives
    each node the topmost nodes under its horizontal neighbor boxes
    (O(3^(D-1)) per level of a node's gap, no descent from the root).
    Bridges with a stored endpoint box come from per-node neighbor
    checks.  Bridges inside compressed gaps come from adjacent pairs of
    occupied compressed nodes, each found from its larger (or equal)
    member nu2: the other's ancestor at nu2's level touches nu2, so it
    is one of nu2's neighbor boxes, and the pruned boundary descent
    (:func:`~halfspace.quadtree.compressed_on_boundary`) from the node
    under that box finds it.  Every node so found lies in a neighbor
    box, so it is adjacent to nu2.  A same-level pair is found from both
    sides and kept once, as the bridges are a set.
    """
    bridges: set[Bridge] = set()
    for node, rows in tree.neighbor_rows():
        if node.count == 0:
            continue
        r = node.cell
        for r2, top2 in zip(horizontal_neighbors(r), rows[0]):
            if top2 is None or top2.count == 0:
                continue
            if bridge_candidate(r, node, r2, top2):
                bridges.add(Bridge.of(r, r2))
        if node.kind != COMPRESSED:
            continue
        # bridges with neither endpoint stored: both endpoints span
        # compressed gaps; the witness d2-path between the gap bottoms
        # finds the bridge.  Adjacent boxes have disjoint interiors, so
        # the gap bottoms are never nested and the path has a bridge.
        partners: list[QuadNode] = []
        for top2 in rows[0]:
            if top2 is not None:
                compressed_on_boundary(top2, r, partners)
        for nu2 in partners:
            path = d2_path(node.children[0].cell, nu2.children[0].cell)
            bridges.add(Bridge.of(path.apex_p, path.apex_q))
    return sorted(bridges, key=lambda b: (b.left, b.right))


def build_spanner(points: list[CellId]) -> SpannerGraph:
    """The 2-additive Steiner spanner of the given cells under d1."""
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
        {c for b in bridges for c in (b.left, b.right)} - seen
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


def up_edge_map(graph: SpannerGraph) -> dict[int, int | None]:
    """Parent map of the upward forest: each vertex's vertical edge target."""
    parent: dict[int, int | None] = {v.id: None for v in graph.vertices}
    for u, v, _w in graph.edges:
        cu, cv = graph.vertices[u].cell, graph.vertices[v].cell
        if cu.level == cv.level:
            continue  # bridge
        lo, hi = (u, v) if cu.level < cv.level else (v, u)
        parent[lo] = hi
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
    if k < 1:
        raise ValueError(f"hop budget must be at least 1, got {k}")
    if not points:
        raise ValueError("cannot build a spanner over an empty point set")
    _, moved, cells = normalize_and_embed(points)
    base = build_spanner(cells)
    parent = up_edge_map(base)
    # beyond the forest height the budget is saturated: spend it on the
    # full closure so every vertical run collapses to a single edge
    cuts = shortcut_forest(parent, 1 if k >= forest_height(parent) else k)

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
        d = hyperbolic_distance(graph.vertices[u].point, graph.vertices[v].point)
        edges.add((u, v, d))
    for i, p in enumerate(moved):
        vid = graph.add_vertex(INPUT, point=p, input_index=i)
        anchor = base.vertex_of_cell[cells[i]]
        edges.add((min(vid, anchor), max(vid, anchor), hyperbolic_distance(p, graph.vertices[anchor].point)))
    graph.edges = sorted(edges)
    return graph
