"""JSON-lines point files.

The grammar :func:`read_points` accepts, line by line:

- line 1, the header: one JSON object ``{"dim": D, "kind":
  "continuous"|"discrete"}``;
- every following line: one JSON value, a point, either ``{"x": [...],
  "z": ...}`` or ``{"level": i, "coords": [...]}``, with nothing but
  JSON whitespace (space, tab, CR, LF) before and after it;
- blank lines, of any whitespace, are skipped.

Files are homogeneous in kind and dimension.  Each point line is
decoded once, and once the reader's own checks hold (types, lengths,
finite coordinates and a positive height) the point or cell is built
trusted (``HPoint.derived``, ``CellId.derived``), with no second check.
"""

from __future__ import annotations

import json
import reprlib
from math import isfinite
from operator import itemgetter
from typing import Sequence, TextIO

from .tiling import CellId, HPoint, collector_paused

CONTINUOUS = "continuous"
DISCRETE = "discrete"


class PointFileError(ValueError):
    pass


# one decoder for every point line: a JSON value from the start of the text
_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"
_HEADER = itemgetter("dim", "kind")
_POINT = itemgetter("x", "z")
_CELL = itemgetter("level", "coords")


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


def _no_object(lineno: int, value) -> PointFileError:
    return PointFileError(f"line {lineno} is no JSON object: {reprlib.repr(value)}")


def read_points(fp: TextIO) -> tuple[int, str, list]:
    """Returns (dim, kind, points).

    ``dim``, ``level`` and ``coords`` must be JSON integers; ``x`` must
    be a list of JSON numbers and ``z`` a JSON number, read as floats.
    Anything else, a value the floats cannot hold or an integer past
    Python's string-conversion digit limit included, raises
    :class:`PointFileError` naming the line.  The read runs with the
    cyclic collector paused: the points hold no reference cycles.
    """
    with collector_paused():
        header_line = fp.readline()
        if not header_line.strip():
            raise PointFileError("missing header line")
        try:
            header = json.loads(header_line)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or too many digits
            raise PointFileError(f"line 1: bad header: {exc}") from exc
        if type(header) is not dict:
            raise _no_object(1, header)
        try:
            dim, kind = _HEADER(header)
        except KeyError as exc:
            raise PointFileError(f"line 1 has no key {exc}") from None
        dim = _integer(dim, "dim", 1)
        if kind not in (CONTINUOUS, DISCRETE):
            raise PointFileError(f"line 1: unknown kind {kind!r}")
        if dim < 2:
            raise PointFileError(f"line 1: dimension must be at least 2, got {dim}")
        continuous = kind == CONTINUOUS
        fields = _POINT if continuous else _CELL
        points = []
        for lineno, line in enumerate(fp, start=2):
            text = line.strip(_JSON_SPACE)
            try:
                obj, end = _decode(text)
            except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: arrays nested too deep
                if not line.strip():
                    continue  # a blank line, Unicode whitespace included
                raise PointFileError(f"line {lineno}: invalid JSON") from exc
            except ValueError as exc:  # an integer past int's string-conversion digit limit
                raise PointFileError(f"line {lineno}: {exc}") from exc
            if end != len(text):  # a second value, or a character JSON does not take as space
                raise PointFileError(f"line {lineno}: invalid JSON")
            if type(obj) is not dict:
                raise _no_object(lineno, obj)
            try:
                first, second = fields(obj)
            except KeyError as exc:
                raise PointFileError(f"line {lineno} has no key {exc}") from None
            if continuous:
                xs, z = first, second
                if type(xs) is not list:
                    raise PointFileError(f"line {lineno}: x must be a list, got {xs!r}")
                for v in xs:
                    if type(v) is not float and type(v) is not int:
                        raise PointFileError(f"line {lineno}: each x-coordinate must be a JSON number, got {v!r}")
                if type(z) is not float and type(z) is not int:
                    raise PointFileError(f"line {lineno}: z must be a JSON number, got {z!r}")
                if len(xs) != dim - 1:
                    raise PointFileError(f"line {lineno}: expected {dim - 1} x-coordinates")
                try:
                    x, z = tuple(map(float, xs)), float(z)
                    # the checks of HPoint, on floats: HPoint(...) runs only to
                    # raise its message
                    points.append(HPoint.derived(x, z) if isfinite(z) and z > 0 and all(map(isfinite, x)) else HPoint(x, z))
                except (ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
                    raise PointFileError(f"line {lineno}: {exc}") from exc
            else:
                level, coords = first, second
                if type(coords) is not list:
                    raise PointFileError(f"line {lineno}: coords must be a list, got {coords!r}")
                for v in coords:
                    _integer(v, "each coordinate", lineno)
                if len(coords) != dim - 1:
                    raise PointFileError(f"line {lineno}: expected {dim - 1} coordinates")
                # the checks above cover all that CellId checks
                points.append(CellId.derived(_integer(level, "level", lineno), tuple(coords)))
        if not points:
            raise PointFileError("point file holds no points")
        return dim, kind, points
