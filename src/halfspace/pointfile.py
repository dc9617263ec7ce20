"""JSON-lines point files.

First line is a header ``{"dim": D, "kind": "continuous"|"discrete"}``;
every following line is one point, either ``{"x": [...], "z": ...}`` or
``{"level": i, "coords": [...]}``.  Files are homogeneous in kind and
dimension.
"""

from __future__ import annotations

import json
from typing import Sequence, TextIO

from .tiling import CellId, HPoint

CONTINUOUS = "continuous"
DISCRETE = "discrete"


class PointFileError(ValueError):
    pass


def write_points(fp: TextIO, points: Sequence[HPoint] | Sequence[CellId]) -> None:
    if not points:
        raise PointFileError("refusing to write an empty point file")
    first = points[0]
    kind = CONTINUOUS if isinstance(first, HPoint) else DISCRETE
    dim = first.dim
    fp.write(json.dumps({"dim": dim, "kind": kind}, sort_keys=True) + "\n")
    for p in points:
        if p.dim != dim:
            raise PointFileError(f"point {p!r} has dimension {p.dim}, header says {dim}")
        if kind == CONTINUOUS:
            if not isinstance(p, HPoint):
                raise PointFileError("mixed point kinds in one file")
            fp.write(json.dumps({"x": list(p.x), "z": p.z}, sort_keys=True) + "\n")
        else:
            if not isinstance(p, CellId):
                raise PointFileError("mixed point kinds in one file")
            fp.write(json.dumps({"coords": list(p.coords), "level": p.level}, sort_keys=True) + "\n")


def read_points(fp: TextIO) -> tuple[int, str, list]:
    """Returns (dim, kind, points)."""
    header_line = fp.readline()
    if not header_line.strip():
        raise PointFileError("missing header line")
    try:
        header = json.loads(header_line)
        dim = int(header["dim"])
        kind = header["kind"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise PointFileError(f"bad header: {exc}") from exc
    if kind not in (CONTINUOUS, DISCRETE):
        raise PointFileError(f"unknown kind {kind!r}")
    if dim < 2:
        raise PointFileError(f"dimension must be at least 2, got {dim}")
    points = []
    for lineno, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise PointFileError(f"line {lineno}: invalid JSON") from exc
        try:
            if kind == CONTINUOUS:
                x = tuple(map(float, obj["x"]))
                if len(x) != dim - 1:
                    raise PointFileError(f"line {lineno}: expected {dim - 1} x-coordinates")
                points.append(HPoint(x, float(obj["z"])))
            else:
                coords = tuple(int(v) for v in obj["coords"])
                if len(coords) != dim - 1:
                    raise PointFileError(f"line {lineno}: expected {dim - 1} coordinates")
                points.append(CellId(int(obj["level"]), coords))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, PointFileError):
                raise
            raise PointFileError(f"line {lineno}: {exc}") from exc
    if not points:
        raise PointFileError("point file holds no points")
    return dim, kind, points
