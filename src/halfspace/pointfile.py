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
    for i, p in enumerate(points):
        if p.dim != dim:
            raise PointFileError(f"point {p!r} has dimension {p.dim}, header says {dim}")
        if kind == CONTINUOUS:
            if not isinstance(p, HPoint):
                raise PointFileError("mixed point kinds in one file")
            obj = {"x": list(p.x), "z": p.z}
        else:
            if not isinstance(p, CellId):
                raise PointFileError("mixed point kinds in one file")
            obj = {"coords": list(p.coords), "level": p.level}
        try:
            text = json.dumps(obj, sort_keys=True)
        except ValueError as exc:  # an integer past int's string-conversion digit limit
            raise PointFileError(f"point {i} cannot be written: {exc}") from None
        fp.write(text + "\n")


def _integer(value, what: str, lineno: int) -> int:
    """A JSON integer, or a :class:`PointFileError` naming the line.
    Floats (fractions, ``1e400``), strings and booleans are refused."""
    if type(value) is not int:
        raise PointFileError(f"line {lineno}: {what} must be a JSON integer, got {value!r}")
    return value


def read_points(fp: TextIO) -> tuple[int, str, list]:
    """Returns (dim, kind, points).

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
