"""Discrete models of the Poincare halfspace.

The halfspace is tiled by axis-aligned boxes whose widths double with
height; the box centers form a graph on which two distances are defined:
``d1`` (arbitrary up/down/horizontal moves) and ``d2`` (at most one
horizontal move).  On top of the tiling this package builds a compressed
quadtree, additive Steiner spanners, tree shortcutting, and an
approximate Voronoi diagram that answers exact ``d2`` nearest-neighbor
queries.
"""

from .tiling import CellId, HPoint, parent, children, horizontal_neighbors, center, cell_of
from .metrics import D2Path, lambda_, d1, d2, d2_path, bridge_level_estimate
from .hyperbolic import (
    NormalizeTransform,
    DistortionReport,
    hyperbolic_distance,
    normalize,
    distortion_report,
)
from .quadtree import QuadTree, QuadNode, build_quadtree
from .spanner import SpannerGraph, Bridge, enumerate_bridges, build_spanner, build_embedding_graph, build_hyperbolic_spanner
from .shortcut import ShortcutSet, shortcut_forest
from .avd import AvdIndex, build_avd, refine, annotate, query, query_hyperbolic

__all__ = [
    "CellId",
    "HPoint",
    "parent",
    "children",
    "horizontal_neighbors",
    "center",
    "cell_of",
    "D2Path",
    "lambda_",
    "d1",
    "d2",
    "d2_path",
    "bridge_level_estimate",
    "NormalizeTransform",
    "DistortionReport",
    "hyperbolic_distance",
    "normalize",
    "distortion_report",
    "QuadTree",
    "QuadNode",
    "build_quadtree",
    "SpannerGraph",
    "Bridge",
    "enumerate_bridges",
    "build_spanner",
    "build_embedding_graph",
    "build_hyperbolic_spanner",
    "ShortcutSet",
    "shortcut_forest",
    "AvdIndex",
    "build_avd",
    "refine",
    "annotate",
    "query",
    "query_hyperbolic",
]
