"""Exact halfspace distance, input normalization, and distortion checks.

The halfspace distance between p and q is

    2 * arsinh( ||p - q|| / (2 * sqrt(z(p) z(q))) )

which reduces to |ln(z(q)/z(p))| for vertically aligned points.
:func:`hyperbolic_distance` evaluates it directly when the heights'
product is a normal float and the argument is finite; otherwise it
rescales by powers of two or takes logarithms, so subnormal heights and
coordinates near the float limits still give a finite, accurate value.
Mapping a point to the center of the deepest cell containing it moves
it by less than ln(D), and scaled by ln(2) the discrete distances
between mapped points track the true distance within an explicit window
that the distortion report checks sample by sample.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from math import asinh, hypot, sqrt
from operator import sub
from typing import Sequence

from .metrics import d1, d2
from .tiling import CellId, HPoint, cell_of, finite_number, floor_scaled, level_of_height

_FLOAT_MIN = sys.float_info.min  # the smallest normal float
_INF = math.inf


def hyperbolic_distance(p: HPoint, q: HPoint) -> float:
    """Closed-form halfspace distance between two points.

    The common case comes first: the height product is a normal float
    and the argument of ``asinh`` is finite.  Anything else goes to
    :func:`_rescaled_distance`, which keeps every bit of subnormal and
    huge inputs.  Both paths are symmetric in ``p`` and ``q`` bit for
    bit.  At D = 2 the gap is one two-argument ``hypot``, the same call
    the general form makes with one coordinate, so the floats agree.
    """
    px, qx, pz, qz = p.x, q.x, p.z, q.z
    axes = len(px)
    if axes != len(qx):
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if axes == 1:
        gap = hypot(px[0] - qx[0], pz - qz)
    else:
        gap = hypot(*map(sub, px, qx), pz - qz)
    zz = pz * qz
    if _FLOAT_MIN <= zz < _INF:
        # an infinite gap gives an infinite argument
        arg = 0.5 * gap / sqrt(zz)
        if arg < _INF:
            return 2.0 * asinh(arg)
    return _rescaled_distance(p, q, gap, zz)


def _rescaled_distance(p: HPoint, q: HPoint, gap: float, zz: float) -> float:
    """:func:`hyperbolic_distance` where the gap is infinite, the height
    product ``zz`` leaves the normal range, or the argument overflows."""
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
    if _FLOAT_MIN <= zz < _INF:
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


def embedding_displacement_bound(dim: int) -> float:
    """2*arsinh(sqrt(D)/4), the guaranteed bound on d_H(p, center(cell_of(p))).

    :func:`halfspace.tiling.cell_of` maps a point to the cell whose
    center stands in for it in the discrete models; that bound is below
    ln(D) for every D >= 2.
    """
    return 2.0 * math.asinh(math.sqrt(dim) / 4.0)


@dataclass(frozen=True)
class NormalizeTransform:
    """Homothety about the origin followed by a horizontal translation.

    Both maps are isometries of the halfspace, so distances are
    preserved exactly: x -> scale*x + shift, z -> scale*z.  The scale
    must be a positive ``int`` or ``float`` and the shift a nonempty
    tuple of them, each with a finite float value; anything else
    (``bool``, ``str``, a list) raises ``ValueError`` naming the value.
    :meth:`cell_of` takes a point to its cell after the move; builds and
    queries both place their points with it.
    """

    scale: float
    shift: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (finite_number(self.scale) and self.scale > 0):
            raise ValueError(f"transform scale {self.scale!r} is no positive finite int or float")
        shift = self.shift
        if type(shift) is not tuple or not shift or not all(map(finite_number, shift)):
            raise ValueError(f"transform shift {shift!r} is no nonempty tuple of finite ints or floats")

    def apply(self, p: HPoint) -> HPoint:
        """``p`` after the move, a checked :class:`HPoint`.  Raises
        ``ValueError`` naming both dimensions when ``p``'s is not the
        transform's."""
        if len(p.x) != len(self.shift):
            raise ValueError(f"point {p!r} has dimension {p.dim}, the transform {len(self.shift) + 1}")
        return HPoint(
            tuple(self.scale * x + t for x, t in zip(p.x, self.shift)),
            self.scale * p.z,
        )

    def cell_of(self, p: HPoint) -> CellId:
        """The cell of ``p`` after the move: ``cell_of(self.apply(p))``,
        with the same float expressions, but no moved :class:`HPoint`.

        The one path by which a continuous point reaches its cell, at
        build (:func:`normalize_and_embed`) and at query time.  With one
        coordinate (D = 2) the floor is taken on its own, with no list
        or ``zip``.  Raises ``ValueError`` when ``p``'s dimension is not
        the transform's, naming both, and when the move takes the height
        to 0.0 or a coordinate out of the floats; the messages name a
        query, as :func:`normalize` rejects such inputs before a build
        places them.
        """
        x = p.x
        shift = self.shift
        axes = len(x)
        if axes != len(shift):
            raise ValueError(f"query {p!r} has dimension {p.dim}, the index {len(shift) + 1}")
        scale = self.scale
        z = scale * p.z
        if z == 0.0:
            raise ValueError(f"query height {p.z!r} underflows to 0.0 at scale {scale!r}")
        level = level_of_height(z)
        try:
            if axes == 1:
                coords = (floor_scaled(scale * x[0] + shift[0], level),)
            else:
                coords = tuple([floor_scaled(scale * v + s, level) for v, s in zip(x, shift)])
        except OverflowError:
            raise ValueError(f"query x = {p.x!r} moves out of the finite floats at scale {scale!r}") from None
        return CellId.derived(level, coords)


# Horizontal diameter target: strictly below 1/4 so every mapped cell
# center stays inside [1/4, 1/2] per axis (the margin the refinement
# step of the Voronoi construction relies on).
_X_DIAMETER_TARGET = 15.0 / 64.0
_X_LOW_CORNER = 0.25


def normalize(points: Sequence[HPoint]) -> tuple[NormalizeTransform, list[HPoint]]:
    """Scale and shift a point set into the root cell's shadow.

    After the transform every x-projection lies in [1/4, 1/2)^(D-1) and
    every height is below 2, so all points sit at level <= 0 below the
    root cell [0,1]^(D-1) x [1,2].  Distances are unchanged.  Raises
    ``ValueError`` for a set whose horizontal spread needs a scale that
    takes some height down to 0.0, and for one whose moved coordinates
    are too large for the floats near them to keep the 1/4 offset.
    """
    if not points:
        raise ValueError("cannot normalize an empty point set")
    dim = points[0].dim
    if any(p.dim != dim for p in points):
        raise ValueError("mixed dimensions in point set")
    max_z = max(p.z for p in points)
    # half the horizontal diameter: a spread of finite values can
    # overflow to inf (x = -1e308 and 1e308), half of it cannot, and
    # for normal values the halves and so the scale are exact
    half = 0.0
    for j in range(dim - 1):
        vals = [p.x[j] for p in points]
        half = max(half, max(vals) / 2 - min(vals) / 2)
    scale = min(1.0, 1.9 / max_z, _X_DIAMETER_TARGET / 2 / max(half, 1e-300 / 2))
    shift = []
    for j in range(dim - 1):
        low = scale * min(p.x[j] for p in points)
        t = _X_LOW_CORNER - low
        # the rounded shift can put the lowest point a last bit below
        # 1/4 (x = -0.04 at scale 1 moved to 0.24999999999999997):
        # raise it one float step at a time until the point lands on
        # 1/4 or above
        while low + t < _X_LOW_CORNER:
            t = math.nextafter(t, math.inf)
        shift.append(t)
    for i, p in enumerate(points):
        if scale * p.z == 0.0:
            raise ValueError(f"point {i}: height {p.z!r} underflows to 0.0 at scale {scale!r}")
    transform = NormalizeTransform(scale, tuple(shift))
    # the moved points are NormalizeTransform.apply's floats; the checks
    # here (heights above 0.0, coordinates in [1/4, 1/2)) cover all that
    # HPoint checks, so the points are built trusted
    moved = []
    for i, p in enumerate(points):
        mxs = tuple([scale * x + t for x, t in zip(p.x, shift)])
        for x, mx, t in zip(p.x, mxs, shift):
            if not _X_LOW_CORNER <= mx < 2 * _X_LOW_CORNER:
                # the floats near the moved x are too far apart to hold it
                raise ValueError(
                    f"point {i}: x = {x!r} moves to {mx!r}, outside [1/4, 1/2): "
                    f"at scale {scale!r} the shift {t!r} loses the 1/4 offset"
                )
        moved.append(HPoint.derived(mxs, scale * p.z))
    return transform, moved


def normalize_and_embed(points: Sequence[HPoint]) -> tuple[NormalizeTransform, list[HPoint], list[CellId]]:
    """Normalize a point set and map each point to its cell.

    Returns the transform, the moved points and their cells, in input
    order; this is how every continuous input enters the discrete models.
    The cells come from :meth:`NormalizeTransform.cell_of` over the
    inputs, the method queries use too, so a build and a query place a
    point alike.
    """
    transform, moved = normalize(points)
    return transform, moved, [transform.cell_of(p) for p in points]


def deviation_window_cells(dim: int) -> tuple[float, float]:
    """Bounds on d_H(p,q) - ln(2)*d1(p,q) for two cell centers."""
    return (-7.0 * math.log(2.0), math.log(dim) + 2.0 + 6.0 * math.log(2.0))


def deviation_window_points_d1(dim: int) -> tuple[float, float]:
    """Bounds on ln(2)*d1(b(p),b(q)) - d_H(p,q) for arbitrary halfspace points.

    Chains the cell-center window with two applications of the
    embedding displacement bound (< ln D each).
    """
    ln2, lnD = math.log(2.0), math.log(dim)
    return (-3.0 * lnD - 2.0 - 6.0 * ln2, 2.0 * lnD + 7.0 * ln2)


def deviation_window_points_d2(dim: int) -> tuple[float, float]:
    """Same window for d2; the upper side widens by 2 ln 2 since d2 <= d1 + 2."""
    lo, hi = deviation_window_points_d1(dim)
    return (lo, hi + 2.0 * math.log(2.0))


@dataclass(frozen=True)
class DistortionReport:
    """Sampled deviations between scaled discrete and true distances."""

    samples: int
    d1_min: float
    d1_max: float
    d1_mean: float
    d2_min: float
    d2_max: float
    d2_mean: float
    violations: int


_SLACK = 1e-9  # absolute slack for comparisons between smooth closed forms


def distortion_report(points: Sequence[HPoint], samples: int, seed: int = 0) -> DistortionReport:
    """Sample point pairs and compare ln(2)*d1/d2 of their cells to d_H.

    Violations count samples falling outside the closed-form windows;
    a correct embedding reports zero.  ``samples`` must be an ``int`` of
    at least 1 (not a ``bool``); anything else raises ``ValueError``.
    """
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples {samples!r} is no int >= 1")
    if len(points) < 2:
        raise ValueError("need at least two points")
    dim = points[0].dim
    w1 = deviation_window_points_d1(dim)
    w2 = deviation_window_points_d2(dim)
    rng = random.Random(seed)
    cells = [cell_of(p) for p in points]
    n = len(points)
    dev1: list[float] = []
    dev2: list[float] = []
    violations = 0
    for _ in range(samples):
        i = rng.randrange(n)
        j = rng.randrange(n)
        dh = hyperbolic_distance(points[i], points[j])
        g1 = math.log(2.0) * d1(cells[i], cells[j]) - dh
        g2 = math.log(2.0) * d2(cells[i], cells[j]) - dh
        dev1.append(g1)
        dev2.append(g2)
        if not (w1[0] - _SLACK <= g1 <= w1[1] + _SLACK):
            violations += 1
        if not (w2[0] - _SLACK <= g2 <= w2[1] + _SLACK):
            violations += 1
    return DistortionReport(
        samples=samples,
        d1_min=min(dev1),
        d1_max=max(dev1),
        d1_mean=sum(dev1) / samples,
        d2_min=min(dev2),
        d2_max=max(dev2),
        d2_mean=sum(dev2) / samples,
        violations=violations,
    )
