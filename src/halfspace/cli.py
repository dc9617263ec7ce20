"""Batch front end: generate, build, query, verify, render, bench.

Every subcommand is deterministic given ``--seed`` (default comes from
the HALFSPACE_SEED environment variable, else 0): identical invocations
produce byte-identical artifacts.  Invalid input exits nonzero with a
machine-readable JSON error object on stderr; verification failures
exit nonzero as well.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import time

from . import avd as avd_mod
from .hyperbolic import normalize_and_embed
from .layouts import SPANNER_DEMO_POINTS
from .metrics import d2_path
from .oracle import dijkstra
from .pointfile import CONTINUOUS, DISCRETE, read_points, write_points
from .quadtree import COMPRESSED, LEAF, build_quadtree
from .sampling import STRATIFIED, UNIFORM, sample_cells, sample_continuous, sample_margin_cells
from .spanner import INPUT, build_embedding_graph, build_hyperbolic_spanner, build_spanner
from .tiling import CellId, HPoint, center
from .verification import run_verification


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True) + "\n"


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


def _default_seed() -> int:
    raw = os.environ.get("HALFSPACE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HALFSPACE_SEED must be an integer, got {raw!r}")


# -- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.n < 1:
        raise ValueError("point count must be positive")
    rng = random.Random(args.seed)
    if args.kind == CONTINUOUS:
        pts = sample_continuous(rng, args.dim, args.n, mode=args.mode, min_level=args.min_level)
    else:
        if args.margin:
            pts = sample_margin_cells(rng, args.dim, args.n, min_level=args.min_level)
        else:
            pts = sample_cells(rng, args.dim, args.n, min_level=args.min_level)
    buf = io.StringIO()
    write_points(buf, pts)
    _write_out(args.out, buf.getvalue())
    return 0


# -- build --------------------------------------------------------------------


def _load_points(path: str):
    with open(path) as fp:
        return read_points(fp)


def _cells_from(kind: str, points) -> list[CellId]:
    if kind == DISCRETE:
        return points
    return normalize_and_embed(points)[2]


def cmd_build(args) -> int:
    dim, kind, points = _load_points(args.input)
    if args.what == "quadtree":
        tree = build_quadtree(_cells_from(kind, points))
        _write_out(args.out, tree.to_json() + "\n")
    elif args.what == "spanner":
        graph = build_spanner(_cells_from(kind, points))
        if args.format == "edges":
            _write_out(args.out, graph.to_edge_list())
        else:
            _write_out(args.out, _dump(graph.to_dict()))
    elif args.what == "embedding":
        if kind != CONTINUOUS:
            raise ValueError("embedding graphs need a continuous point file")
        graph, mapping, transform = build_embedding_graph(points)
        data = graph.to_dict()
        data["input_vertex"] = [mapping[i] for i in range(len(points))]
        data["transform"] = {"scale": transform.scale, "shift": list(transform.shift)}
        _write_out(args.out, _dump(data))
    elif args.what == "hyperbolic-spanner":
        if kind != CONTINUOUS:
            raise ValueError("hyperbolic spanners need a continuous point file")
        graph = build_hyperbolic_spanner(points, args.k)
        _write_out(args.out, _dump(graph.to_dict()))
    else:  # avd
        _write_out(args.out, avd_mod.build_avd(points).to_json() + "\n")
    return 0


# -- query ---------------------------------------------------------------------


def _parse_cell(text: str) -> CellId:
    parts = text.split(",")
    if len(parts) < 2:
        raise ValueError("cell format is level,k1[,k2,...]")
    try:
        return CellId(int(parts[0]), tuple(int(v) for v in parts[1:]))
    except ValueError:
        raise ValueError(f"bad cell spec {text!r}")


def _parse_hpoint(text: str) -> HPoint:
    parts = text.split(",")
    if len(parts) < 2:
        raise ValueError("point format is x1[,x2,...],z")
    try:
        xs = tuple(float(v) for v in parts[:-1])
        z = float(parts[-1])
        return HPoint(xs, z)
    except ValueError:
        raise ValueError(f"bad point spec {text!r}")


def _cell_json(c: CellId) -> dict:
    return {"level": c.level, "coords": list(c.coords)}


def _hpoint_json(p: HPoint) -> dict:
    return {"x": list(p.x), "z": p.z}


def cmd_query(args) -> int:
    with open(args.index) as fp:
        index = avd_mod.AvdIndex.from_json(fp.read())
    # the index's kind picks how a query is read, answered and written
    if index.source_kind == CONTINUOUS:
        parse, answer, form = _parse_hpoint, avd_mod.query_hyperbolic, _hpoint_json
    else:
        parse, answer, form = _parse_cell, avd_mod.query, _cell_json
    queries = []
    if args.queries:
        _dim, kind, pts = _load_points(args.queries)
        if kind != index.source_kind:
            raise ValueError(f"query file {args.queries} holds {kind} points, but the index was built from {index.source_kind} points")
        queries.extend(pts)
    queries.extend(parse(spec) for spec in args.at or ())
    if not queries:
        raise ValueError("no queries given; use --queries or --at")
    results = []
    for q in queries:
        idx = answer(index, q)
        results.append(
            {
                "query": form(q),
                "neighbor_index": idx,
                "neighbor_cell": _cell_json(index.points[idx]),
            }
        )
    _write_out(args.out, _dump({"results": results}))
    return 0


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    report = run_verification(dim=args.dim, n=args.n, seed=args.seed)
    _write_out(args.out, _dump(report))
    return 0 if report["ok"] else 1


# -- render ----------------------------------------------------------------------


_SVG_SCALE = 640.0


def _rect(x0, z0, x1, z1, style) -> str:
    # halfspace coordinates: x in [0,1], z in (0,2]; the vertical axis points up
    s = _SVG_SCALE
    x, y = x0 * s, (2.0 - z1) * s / 2.0
    w, h = (x1 - x0) * s, (z1 - z0) * s / 2.0
    return f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" style="{style}"/>'


def _line(a: HPoint, b: HPoint, style) -> str:
    s = _SVG_SCALE
    return (
        f'<line x1="{a.x[0] * s:.2f}" y1="{(2.0 - a.z) * s / 2.0:.2f}" '
        f'x2="{b.x[0] * s:.2f}" y2="{(2.0 - b.z) * s / 2.0:.2f}" style="{style}"/>'
    )


def _dot(p: HPoint, r, style) -> str:
    s = _SVG_SCALE
    return f'<circle cx="{p.x[0] * s:.2f}" cy="{(2.0 - p.z) * s / 2.0:.2f}" r="{r}" style="{style}"/>'


def _svg(body: list[str], stats: dict) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SVG_SCALE)}" '
        f'height="{int(_SVG_SCALE)}" viewBox="0 0 {int(_SVG_SCALE)} {int(_SVG_SCALE)}">'
    )
    desc = f"<desc>{json.dumps(stats, sort_keys=True)}</desc>"
    return "\n".join([head, desc] + body + ["</svg>"]) + "\n"


def _tiling_rects(levels=range(-4, 1), style="fill:none;stroke:#999;stroke-width:0.6") -> list[str]:
    out = []
    for lev in levels:
        w = 2.0**lev
        for k in range(1 << (-lev) if lev < 0 else 1):
            out.append(_rect(k * w, w, (k + 1) * w, 2 * w, style))
    return out


def _cell_rect(c: CellId, style) -> str:
    w = 2.0**c.level
    return _rect(c.coords[0] * w, w, (c.coords[0] + 1) * w, 2 * w, style)


def render_tiling() -> tuple[str, dict]:
    stats = {"figure": "tiling", "levels": [-4, 0]}
    return _svg(_tiling_rects(), stats), stats


def render_paths() -> tuple[str, dict]:
    p, q = CellId(-4, (3,)), CellId(-4, (11,))
    path = d2_path(p, q)
    body = _tiling_rects()
    for c in path.cells():
        body.append(_cell_rect(c, "fill:#cde6ff;fill-opacity:0.55;stroke:none"))
    cells = path.cells()
    for a, b in zip(cells, cells[1:]):
        body.append(_line(center(a), center(b), "stroke:#1f4e9c;stroke-width:2"))
    for c in (p, q):
        body.append(_dot(center(c), 4, "fill:#1f4e9c"))
    stats = {"figure": "paths", "length": path.length, "bridge_level": path.bridge_level}
    return _svg(body, stats), stats


def render_spanner() -> tuple[str, dict]:
    pts = list(SPANNER_DEMO_POINTS)
    graph = build_spanner(pts)
    body = _tiling_rects(range(-5, 1))
    for u, v, w in graph.edges:
        body.append(
            _line(
                center(graph.vertices[u].cell),
                center(graph.vertices[v].cell),
                "stroke:#444;stroke-width:1.4",
            )
        )
    for v in graph.vertices:
        if v.kind == INPUT:
            body.append(_dot(center(v.cell), 5, "fill:#b3261e"))
        else:
            body.append(_dot(center(v.cell), 3.5, "fill:#1f4e9c"))
    adj = graph.adjacency()
    dist = dijkstra(len(graph.vertices), adj, graph.vertex_of_cell[pts[2]])
    stats = {
        "figure": "spanner",
        "inputs": sum(1 for v in graph.vertices if v.kind == INPUT),
        "steiner": graph.n_steiner,
        "distance_2_5": dist[graph.vertex_of_cell[pts[5]]],
        "edges": len(graph.edges),
    }
    return _svg(body, stats), stats


def render_avd(seed: int) -> tuple[str, dict]:
    rng = random.Random(seed)
    pts = sample_margin_cells(rng, 2, 8, min_level=-6)
    index = avd_mod.build_avd(pts)
    body = []
    palette = ["#dbeafe", "#dcfce7", "#fef9c3", "#fce7f3", "#ede9fe", "#ffedd5"]
    i = 0
    for node in index.tree.iter_nodes():
        if node.kind == LEAF:
            body.append(_cell_rect(node.cell, f"fill:{palette[i % len(palette)]};stroke:none"))
            i += 1
        elif node.kind == COMPRESSED:
            body.append(_cell_rect(node.cell, f"fill:{palette[i % len(palette)]};stroke:none"))
            body.append(_cell_rect(node.children[0].cell, "fill:#fff;stroke:none"))
            i += 1
    body.extend(_tiling_rects(range(-6, 1)))
    for p in set(pts):
        body.append(_dot(center(p), 4, "fill:#b3261e"))
    nodes = list(index.tree.iter_nodes())
    stats = {
        "figure": "avd",
        "points": len(set(pts)),
        "regions": len(nodes),
        "max_representatives": max(len(n.reps) for n in nodes),
    }
    return _svg(body, stats), stats


def cmd_render(args) -> int:
    if args.figure == "tiling":
        svg, stats = render_tiling()
    elif args.figure == "paths":
        svg, stats = render_paths()
    elif args.figure == "spanner":
        svg, stats = render_spanner()
    else:
        svg, stats = render_avd(args.seed)
    _write_out(args.out, svg)
    sys.stderr.write(_dump(stats))
    return 0


# -- bench -----------------------------------------------------------------------


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    if any(s < 2 for s in sizes):
        raise ValueError("bench sizes must be at least 2")
    rows = []
    for n in sizes:
        rng = random.Random(args.seed)
        cells = sample_margin_cells(rng, args.dim, n, min_level=-(n.bit_length() + 4))
        t0 = time.perf_counter()
        tree = build_quadtree(cells)
        t_tree = time.perf_counter() - t0
        t0 = time.perf_counter()
        graph = build_spanner(cells)
        t_spanner = time.perf_counter() - t0
        t0 = time.perf_counter()
        index = avd_mod.build_avd(cells)
        t_avd = time.perf_counter() - t0
        n_nodes = len(tree)
        n_regions = sum(1 for _ in index.tree.iter_nodes())
        rows.append(
            {
                "n": n,
                "tree_nodes": n_nodes,
                "spanner_vertices": len(graph.vertices),
                "spanner_edges": len(graph.edges),
                "avd_regions": n_regions,
                "max_representatives": max(len(nd.reps) for nd in index.tree.iter_nodes()),
            }
        )
        sys.stderr.write(
            f"n={n} tree={t_tree:.3f}s spanner={t_spanner:.3f}s avd={t_avd:.3f}s\n"
        )
    _write_out(args.out, _dump({"dim": args.dim, "seed": args.seed, "rows": rows}))
    return 0


# -- entry ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfspace",
        description="Discrete halfspace models: tilings, spanners, nearest-neighbor search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random point file")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=[CONTINUOUS, DISCRETE], default=CONTINUOUS)
    p.add_argument("--mode", choices=[UNIFORM, STRATIFIED], default=UNIFORM)
    p.add_argument("--min-level", type=int, default=-8)
    p.add_argument("--margin", action=argparse.BooleanOptionalAction, default=True,
                   help="discrete cells: keep centers inside [1/4,1/2] per axis")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build a structure from a point file")
    p.add_argument("--what", choices=["quadtree", "spanner", "embedding", "hyperbolic-spanner", "avd"], required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, default=2, help="hop budget for hyperbolic-spanner")
    p.add_argument("--format", choices=["json", "edges"], default="json",
                   help="spanner only: plain `u v w` edge lines instead of JSON")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="nearest-neighbor queries against a built index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", help="point file of queries")
    p.add_argument("--at", action="append", help="inline query (level,k,... or x,...,z)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="run every oracle suite and emit a report")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="emit an SVG figure (D=2)")
    p.add_argument("--figure", choices=["tiling", "paths", "spanner", "avd"], required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="size/time scaling table")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--sizes", default="64,128,256,512")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(_dump({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
