"""Binary tiling of the Poincare halfspace.

Space is tiled by the boxes

    [k_1*2^i, (k_1+1)*2^i] x ... x [k_{D-1}*2^i, (k_{D-1}+1)*2^i] x [2^i, 2^{i+1}]

with integer level ``i`` and integer coordinates ``k_j``.  A cell at
level ``i`` has one parent at level ``i+1``, ``2^(D-1)`` children and
``3^(D-1)-1`` horizontal neighbors (diagonals included).  Cell centers
are the vertices of the discrete models in :mod:`halfspace.metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import math
from dataclasses import dataclass
from operator import add


@dataclass(frozen=True, order=True)
class CellId:
    """A cell of the binary tiling: level plus D-1 integer coordinates.

    Coordinates are plain Python integers, so halving/doubling across
    deep level ranges never overflows.  The level and every coordinate
    must be an ``int``; anything else (``bool``, ``float``, ``str``)
    raises ``ValueError`` naming the value.
    """

    level: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        if not isinstance(coords, tuple):
            coords = tuple(coords)
            object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("a cell needs at least one horizontal coordinate (D >= 2)")
        if type(self.level) is not int:
            raise ValueError(f"cell level {self.level!r} is no int")
        for k in coords:
            if type(k) is not int:
                raise ValueError(f"cell coordinate {k!r} is no int")

    @staticmethod
    def derived(level: int, coords: tuple[int, ...]) -> CellId:
        """The cell ``(level, coords)``, built with no checks.

        For values the library derived from valid cells or computed as
        ints itself: ``level`` an ``int`` and ``coords`` a nonempty
        tuple of ``int``.  Values from outside go through ``CellId(...)``,
        which checks them.  The fields are set with
        ``object.__setattr__`` only, never through the instance
        ``__dict__``: writing that dict makes CPython give the object
        its own dict, which slows every later attribute read and ``==``.
        Equality, ordering and hashing are those of ``(level, coords)``,
        as for a checked cell.  Call it as ``CellId.derived`` so one
        patch of the class attribute reaches every trusted site.
        """
        cell = _new(CellId)
        _set(cell, "level", level)
        _set(cell, "coords", coords)
        return cell

    @property
    def dim(self) -> int:
        """Ambient dimension D."""
        return len(self.coords) + 1

    def __repr__(self) -> str:
        ks = ",".join(map(_int_repr, self.coords))
        return f"Cell({_int_repr(self.level)};[{ks}])"


_new = object.__new__
_set = object.__setattr__


def _int_repr(k: int) -> str:
    """``k`` in decimal, or ``<N-bit int>`` past Python's digit limit for
    int to str conversion, so a message naming a deep cell keeps its
    own text."""
    try:
        return str(k)
    except ValueError:
        return f"{'-' if k < 0 else ''}<{k.bit_length()}-bit int>"


@dataclass(frozen=True)
class HPoint:
    """A point of the halfspace: D-1 >= 1 finite horizontal coordinates
    and a finite height z > 0.

    Each value must be an ``int`` or a ``float`` whose float value is
    finite; anything else (``bool``, ``str``, an int past the float
    range) raises ``ValueError`` naming the value, as does an empty
    ``x``.  Values are stored as given, except that a non-tuple ``x``
    becomes a tuple of floats."""

    x: tuple[float, ...]
    z: float

    def __post_init__(self) -> None:
        x = self.x
        if not isinstance(x, tuple):
            x = tuple(x)
        if not x:
            raise ValueError("a point needs at least one horizontal coordinate (D >= 2)")
        for v in x:
            if not finite_number(v):
                raise ValueError(f"x coordinate {v!r} is no finite int or float")
        if x is not self.x:
            object.__setattr__(self, "x", tuple([float(v) for v in x]))
        z = self.z
        if not (finite_number(z) and z > 0):
            raise ValueError(f"z must be a positive finite int or float, got {z!r}")

    @staticmethod
    def derived(x: tuple[float, ...], z: float) -> HPoint:
        """The point ``(x, z)``, built with no checks.

        For values the library computed itself and checked as it did:
        ``x`` a nonempty tuple of finite floats and ``z`` a positive
        finite float.  Values from outside go through ``HPoint(...)``,
        which checks them.  As for :meth:`CellId.derived`, the fields
        are set with ``object.__setattr__`` only, never through the
        instance ``__dict__``, and equality and hashing are those of
        ``(x, z)``.  Call it as ``HPoint.derived`` so one patch of the
        class attribute reaches every trusted site.
        """
        point = _new(HPoint)
        _set(point, "x", x)
        _set(point, "z", z)
        return point

    @property
    def dim(self) -> int:
        return len(self.x) + 1


def finite_number(v) -> bool:
    """Is ``v`` an int or a float whose float value is finite?  Booleans,
    strings and other types are not."""
    t = type(v)
    if t is float:
        return math.isfinite(v)
    if t is int:
        try:
            float(v)
        except OverflowError:
            return False
        return True
    return False


def parent(c: CellId) -> CellId:
    """The cell one level up whose bottom facet carries the top facet of ``c``."""
    return CellId.derived(c.level + 1, tuple([k >> 1 for k in c.coords]))


def children(c: CellId) -> list[CellId]:
    """All 2^(D-1) cells one level down whose parent is ``c``, the first
    axis's bit most significant in the order."""
    rows = [()]
    for k in c.coords:
        k <<= 1
        rows = [row + (x,) for row in rows for x in (k, k + 1)]
    level = c.level - 1
    return [CellId.derived(level, row) for row in rows]


@functools.cache
def neighbor_offsets(axes: int) -> tuple[tuple[int, ...], ...]:
    """The coordinate offsets of the horizontal neighbors of a cell with
    ``axes`` coordinates, in :func:`horizontal_neighbors` order."""
    return tuple(off for off in itertools.product((-1, 0, 1), repeat=axes) if any(off))


def horizontal_neighbors(c: CellId) -> list[CellId]:
    """The 3^(D-1)-1 same-level cells touching ``c``, diagonals included."""
    level, coords = c.level, c.coords
    return [CellId.derived(level, tuple(map(add, coords, off))) for off in neighbor_offsets(len(coords))]


def center(c: CellId) -> HPoint:
    """Center of the cell: x_j = (k_j + 1/2)*2^i, z = 3*2^(i-1).

    Each x_j is the correctly rounded quotient (2k_j + 1) / 2^(1-i), so
    it stays finite below level -1024, where k_j + 1/2 overflows a float.
    Raises ``ValueError`` naming the cell when the center leaves the
    finite positive floats: the height overflows above level 1023 and
    rounds to 0.0 below level -1075, and a far coordinate overflows.
    The height is taken first, so no shift by a huge level is tried.
    """
    s = c.level - 1
    try:
        z = math.ldexp(3.0, s)
        if z > 0.0:
            if s < 0:
                xs = tuple([(2 * k + 1) / (1 << -s) for k in c.coords])
            else:
                xs = tuple([float((2 * k + 1) << s) for k in c.coords])
            return HPoint.derived(xs, z)
    except OverflowError:
        pass
    raise ValueError(f"the center of {c!r} leaves the finite positive floats")


def level_of_height(z: float) -> int:
    """Level i with 2^i <= z < 2^(i+1).

    Uses the exact binary exponent of the float, so heights that are
    powers of two land on the higher level without log2 rounding noise.
    An int height is read by its bit length: ``frexp`` would first round
    it to a float, which past 2^53 can carry it up to the next power of
    two and so one level too high.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"height must be a positive finite number, got {z}")
    if type(z) is int:
        return z.bit_length() - 1
    mantissa, exponent = math.frexp(z)  # z = mantissa * 2^exponent, mantissa in [0.5, 1)
    return exponent - 1


def cell_of(p: HPoint) -> CellId:
    """The cell containing ``p`` under the half-open convention.

    The level is the maximum one whose slab contains z (so a point on a
    horizontal facet belongs to the bigger cell above it); per axis the
    box is taken as [k*2^i, (k+1)*2^i), with k from :func:`floor_scaled`.
    """
    i = level_of_height(p.z)
    return CellId.derived(i, tuple([floor_scaled(x, i) for x in p.x]))


def floor_scaled(x: float, level: int) -> int:
    """floor(x / 2^level), exactly: the index of the level's dyadic
    interval holding ``x``.

    For a float ``x`` at ``level <= 0``, ``ldexp(x, -level)`` multiplies
    by a power of two, which is exact unless the result overflows, and
    ``floor`` of a finite float is exact, so one ``ldexp`` gives the
    answer.  Otherwise the floor is taken on the exact ratio of ``x``:
    when ``ldexp`` overflows (a large ``x`` at a deep level), for an int
    (past 2^53 it would round on its way to a float), and at
    ``level > 0``, where scaling down could round a tiny negative value
    to -0.0 and its floor to 0 instead of -1.
    """
    if level <= 0 and type(x) is float:
        try:
            return math.floor(math.ldexp(x, -level))
        except OverflowError:
            pass
    n, d = x.as_integer_ratio()  # d is a power of 2
    if level <= 0:
        return (n << -level) // d
    return n // (d << level)


def ancestor_at(c: CellId, level: int) -> CellId:
    """Ancestor-or-self of ``c`` at the given level (level >= c.level)."""
    shift = level - c.level
    if shift < 0:
        raise ValueError(f"level {level} is below the cell's level {c.level}")
    if shift == 0:
        return c
    return CellId.derived(level, tuple([k >> shift for k in c.coords]))


def is_ancestor_or_self(a: CellId, c: CellId) -> bool:
    """True if ``a`` is ``c`` or an ancestor of it.

    Compares the shifted coordinates of ``c`` with those of ``a`` one by
    one, so no ancestor cell is built.
    """
    shift = a.level - c.level
    if shift < 0 or len(a.coords) != len(c.coords):
        return False
    for k, x in zip(c.coords, a.coords):
        if k >> shift != x:
            return False
    return True


@contextlib.contextmanager
def collector_paused():
    """Run the block with Python's cyclic garbage collector paused.

    This touches process-global state: while the block runs, no thread
    of the process gets a cyclic collection, another thread's included.
    It is safe for the library's builders and loaders because they make
    no reference cycles (``test_builds_leave_no_cyclic_garbage``), so
    the passes the collector would make over their new objects find
    nothing to free; they only cost time, about a seventh of a D = 2
    spanner build.

    If the collector is already off, the block runs as it is and the
    state is left alone, so nested calls and callers that turned the
    collector off themselves keep it off.  Otherwise it is turned off
    and, in a ``finally``, turned back on.  Before that, while it is
    still off, one generation-1 collection runs if the block left at
    least a generation-1 cycle's worth of new tracked objects
    (threshold 0 times threshold 1, 7,000 by default).  Without it the
    collections a large build owes, full ones included, start at the
    caller's next allocations, inside whatever the caller times next;
    one collection of generations 0 and 1 here moves the survivors to
    the oldest generation at once.  A small block, a few thousand
    objects, pays no collection, as one on every call would bring the
    next full collection closer.  The count is read before the
    collector is back on: any allocation after ``gc.enable()`` can
    start a generation-0 collection that resets it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        young, older, _ = gc.get_threshold()
        if gc.get_count()[0] >= young * older:
            gc.collect(1)
        gc.enable()
