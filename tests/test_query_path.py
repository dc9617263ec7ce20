"""The AVD query path against the loops it replaced.

``query`` and ``query_hyperbolic`` are checked against their copies in
``reference.py`` (one ``d2`` per representative, a moved ``HPoint`` per
continuous query), ``d2_argmin`` against the plain ``min`` over
``(d2, index)`` and against the climb on lifted coordinate tuples at
D = 2..8 (``reference.d2_argmin_general``, the only reference for
the two-axis climb at D = 3, which ``d2`` shares), and
``QuadTree.in_root`` against ``shadow_within`` of the root cell, and
``AvdIndex.region_of`` against ``in_root`` and ``smallest_containing``;
cost guards count the cells and points a query builds, the helpers a
D = 2 continuous query calls and the ``zip`` calls of a D = 3 query.
"""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace import avd, hyperbolic, metrics, quadtree
from halfspace.avd import AvdIndex, build_avd, query, query_hyperbolic
from halfspace.hyperbolic import NormalizeTransform
from halfspace.metrics import d2, d2_argmin
from halfspace.quadtree import MAX_DIM, shadow_within
from halfspace.sampling import sample_margin_cells
from halfspace.tiling import CellId, HPoint, ancestor_at

import reference

MIN_LEVEL = -1074  # the deepest level a float height reaches


def outcome(fn, *args):
    """The answer, or ``ValueError`` when ``fn`` raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def random_coords(rng, axes, level):
    """Coordinates of a cell at ``level`` in the root shadow, mostly, or
    just outside it on either side."""
    span = 1 << max(0, -level)
    return tuple(rng.choice([rng.randrange(span), rng.randrange(span), -1 - rng.randrange(span), span + rng.randrange(span)]) for _ in range(axes))


def query_cells(rng, ix: AvdIndex, count: int) -> list[CellId]:
    """Cells at and below the nodes (ordinary nodes hold one
    representative), below and above the inputs down to level -1074,
    outside the root shadow, and above the root."""
    axes = ix.tree.dim - 1
    nodes = [n.cell for n in ix.tree.iter_nodes()]
    out = rng.sample(nodes, min(len(nodes), count))
    for c in rng.sample(ix.points, min(len(ix.points), count)):
        out.append(c)
        below = rng.randint(MIN_LEVEL, c.level)
        out.append(CellId(below, tuple((k << (c.level - below)) + rng.randrange(1 << (c.level - below)) for k in c.coords)))
        if c.level < 0:
            out.append(ancestor_at(c, rng.randint(c.level, 0)))
    for _ in range(count):
        level = rng.choice([rng.randint(MIN_LEVEL, 0), rng.randint(-40, 0), rng.randint(1, 3)])
        out.append(CellId(level, random_coords(rng, axes, level)))
    return out


@st.composite
def indexes(draw):
    """An index at D = 2..4 from discrete margin cells or continuous
    points, with repeated inputs so that d2 ties occur."""
    dim = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 8))
    depth = draw(st.sampled_from([3, 12, 60, -MIN_LEVEL]))
    if draw(st.booleans()):
        pts = sample_margin_cells(rng, dim, n, min_level=-depth)
    else:
        width = draw(st.sampled_from([1e-3, 1.0, 1e6]))
        pts = [
            HPoint(tuple(rng.uniform(-width, width) for _ in range(dim - 1)), math.ldexp(rng.random() + 0.5, -rng.randint(-3, depth)))
            for _ in range(n)
        ]
    pts += [rng.choice(pts) for _ in range(draw(st.integers(0, 3)))]
    try:
        ix = build_avd(pts)
    except ValueError:  # a height the normalizing scale takes to 0.0
        ix = build_avd(pts[:1])
        pts = pts[:1]
    return ix, pts, rng


def continuous_queries(rng, pts: list[HPoint], count: int) -> list[HPoint]:
    """The inputs themselves, points near them, points far outside the
    set, points above it, and heights down to 5e-324."""
    dim = pts[0].dim
    out = list(pts)
    for _ in range(count):
        p = rng.choice(pts)
        out.append(HPoint(tuple(x * (1 + rng.uniform(-1e-3, 1e-3)) for x in p.x), p.z * rng.uniform(0.5, 2)))
        out.append(HPoint(tuple(rng.uniform(-1e7, 1e7) for _ in range(dim - 1)), rng.choice([1e-300, 1.0, 1e300])))
        out.append(HPoint(p.x, rng.choice([5e-324, math.ldexp(1.0, rng.randint(-1074, 0)), 1e10])))
    return out


@settings(max_examples=120, deadline=None)
@given(indexes())
def test_queries_match_reference(data):
    ix, pts, rng = data
    if isinstance(pts[0], CellId):
        qs = query_cells(rng, ix, 12)
        assert [outcome(query, ix, q) for q in qs] == [outcome(reference.query, ix, q) for q in qs]
        assert outcome(query_hyperbolic, ix, HPoint((0.3,) * (ix.tree.dim - 1), 1.0)) is ValueError
    else:
        qs = continuous_queries(rng, pts, 12)
        assert [outcome(query_hyperbolic, ix, q) for q in qs] == [outcome(reference.query_hyperbolic, ix, q) for q in qs]
        cells = query_cells(rng, ix, 12)
        assert [outcome(query, ix, q) for q in cells] == [outcome(reference.query, ix, q) for q in cells]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_in_root_matches_shadow_within(seed):
    rng = random.Random(seed)
    dim = rng.randint(2, 4)
    tree = build_avd(sample_margin_cells(rng, dim, 2, min_level=-6)).tree
    for _ in range(30):
        level = rng.choice([rng.randint(MIN_LEVEL, 0), rng.randint(-8, 2)])
        axes = rng.choice([dim - 1, dim - 1, dim - 1, rng.randint(1, 4)])
        cell = CellId(level, random_coords(rng, axes, level))
        assert tree.in_root(cell) == shadow_within(cell, tree.root.cell), cell


@st.composite
def argmin_cases(draw):
    """A query cell and candidates at D = 2..8 on levels down to -1074,
    repeated cells included, with the indices as a list or a set."""
    axes = draw(st.integers(1, MAX_DIM - 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = draw(st.integers(MIN_LEVEL, 2))
    low = draw(st.integers(MIN_LEVEL, top))

    def cell():
        level = rng.randint(low, top)
        return CellId(level, random_coords(rng, axes, level))

    q = cell()
    cells = [cell() for _ in range(draw(st.integers(1, 8)))]
    cells += [rng.choice(cells) for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        cells.append(ancestor_at(q, rng.randint(q.level, q.level + 50)))
    indices = rng.sample(range(len(cells)), rng.randint(1, len(cells)))
    return q, cells, set(indices) if draw(st.booleans()) else indices


@settings(max_examples=400, deadline=None)
@given(argmin_cases())
def test_d2_argmin_matches_min(case):
    q, cells, indices = case
    want = min((d2(q, cells[i]), i) for i in indices)[1]
    assert d2_argmin(q, cells, indices) == want
    assert reference.d2_argmin_general(q, cells, indices) == want


@st.composite
def column_argmin_cases(draw, axes):
    """A query cell and candidates with ``axes`` coordinates (D = 2 or
    3): ``q`` on a level down to -1074, candidates up to 1,074 levels
    above or below it, in ``q``'s column (``q``, its ancestors, cells
    below it) or beside it on one axis or on several by ``m * 2^e``
    plus or minus a little, which puts the climb's start one level
    below the answer or at it; repeated cells, and the indices as a
    list or a set."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    lq = draw(st.integers(MIN_LEVEL, 2))
    kq = tuple(rng.randrange(1 << max(0, -lq)) for _ in range(axes))
    q = CellId(lq, kq)
    sides = [js for r in range(1, axes + 1) for js in itertools.combinations(range(axes), r)]

    # a cluster shares one level gap, one scale 2^e and the axes it is
    # beside q's column on, so that several candidates lie at equal or
    # nearly equal d2 from q and the fix-up shift decides between them
    cluster_gap = rng.choice([0, rng.randint(-3, 3), rng.randint(-1074, 1074)])
    cluster_e = rng.randint(0, 6)
    cluster_sides = rng.choice(sides)

    def column(gap):
        """The coordinates of q's ancestor ``gap`` levels up, or of a
        cell ``-gap`` levels below q."""
        if gap >= 0:
            return [k >> gap for k in kq]
        return [(k << -gap) + rng.randrange(1 << -gap) for k in kq]

    def cell():
        if rng.random() < 0.6:
            k = column(cluster_gap)
            for j in cluster_sides:
                k[j] += rng.choice([-1, 1]) * ((rng.randint(1, 9) << cluster_e) + rng.randint(-3, 3))
            return CellId(lq + cluster_gap, tuple(k))
        gap = rng.choice([0, rng.randint(-3, 3), rng.randint(-1074, 1074)])
        level = lq + gap
        pick = rng.random()
        if pick < 0.2:
            k = column(gap)
        elif pick < 0.8:
            k = column(gap)
            e = rng.randint(0, max(0, -level) + 2)
            for j in rng.choice(sides):
                k[j] += rng.choice([-1, 1]) * ((rng.choice([1, 2, 3, 4, 5, 6, 8, 9]) << e) + rng.randint(-3, 3))
        else:
            k = random_coords(rng, axes, level)
        return CellId(level, tuple(k))

    cells = [cell() for _ in range(draw(st.integers(2, 10)))]
    cells += [rng.choice(cells) for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        cells.append(ancestor_at(q, lq + rng.randint(0, 1074)))
    rng.shuffle(cells)
    indices = rng.sample(range(len(cells)), rng.randint(2, len(cells)))
    return q, cells, set(indices) if draw(st.booleans()) else indices


@settings(max_examples=500, deadline=None)
@given(column_argmin_cases(1))
def test_d2_argmin_one_axis_matches_min(case):
    q, cells, indices = case
    want = min((d2(q, cells[i]), i) for i in indices)[1]
    assert d2_argmin(q, cells, indices) == want
    assert reference.d2_argmin_general(q, cells, indices) == want


@settings(max_examples=500, deadline=None)
@given(column_argmin_cases(2))
def test_d2_argmin_two_axis_matches_general(case):
    """D = 3: ``d2`` shares the two-axis climb, so the references are
    the climb on lifted tuples alone."""
    q, cells, indices = case
    assert d2_argmin(q, cells, indices) == reference.d2_argmin_general(q, cells, indices)
    for i in indices:
        c = cells[i]
        _, a, b = reference.lift_pair(q, c)
        gap = c.level - q.level
        for t in (1, 2, 4):
            assert metrics._climb(q.coords, c.coords, max(gap, 0), max(-gap, 0), t) == reference._climb(a, b, t), (q, c, t)


def test_d2_argmin_single_candidate_evaluates_nothing():
    # a dimension mismatch would raise if d2 were evaluated
    assert d2_argmin(CellId(-3, (1,)), [CellId(-2, (1, 1))], [0]) == 0
    assert d2_argmin(CellId(-3, (1,)), [CellId(-2, (1, 1))], {0}) == 0
    with pytest.raises(ValueError):
        d2_argmin(CellId(-3, (1,)), [CellId(-2, (1,)), CellId(-2, (1, 1))], [0, 1])


def test_d2_argmin_empty_indices_raises():
    for q, cells, indices in ((CellId(-2, (1, 1)), [CellId(-2, (1, 1))], []), (CellId(-2, (1,)), [CellId(-2, (1,))], set())):
        with pytest.raises(ValueError, match=re.escape(repr(q))):
            d2_argmin(q, cells, indices)


def test_d2_argmin_ties_to_smallest_index():
    c = CellId(-5, (9,))
    cells = [CellId(-5, (11,)), CellId(-5, (7,)), CellId(-5, (7,))]
    for indices in ([2, 1, 0], {0, 1, 2}, [2, 1]):
        assert d2_argmin(c, cells, indices) == min((d2(c, cells[i]), i) for i in indices)[1]


@settings(max_examples=150, deadline=None)
@given(indexes())
def test_region_of_refuses_exactly_outside_the_root_shadow(data):
    """D = 2..4: ``region_of`` raises exactly when ``in_root`` is False,
    with its one message, and otherwise returns ``smallest_containing``'s
    node.  The cells are ``query_cells``' (levels above 0, negative
    coordinates and coordinates of 2^-level and more) and cells of 1-4
    coordinates, so the D = 2 scalar test meets trees of every dimension."""
    ix, _, rng = data
    tree = ix.tree
    cells = query_cells(rng, ix, 12)
    for _ in range(12):
        level = rng.choice([rng.randint(MIN_LEVEL, 0), rng.randint(-8, 2)])
        cells.append(CellId(level, random_coords(rng, rng.randint(1, 4), level)))
    for c in cells:
        if tree.in_root(c):
            assert ix.region_of(c) is tree.smallest_containing(c), c
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(repr(c))} lies outside the root cell's shadow$"):
                ix.region_of(c)


def failure(fn, *args):
    """The answer, or ``ValueError`` with its message when ``fn`` raises one."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@pytest.mark.parametrize(
    "scale, shift, q",
    [
        pytest.param(1.0, (1e308,), HPoint((1e308,), 1.0), id="x_1e308_shift_1e308_to_inf"),
        pytest.param(2, (0,), HPoint((0.5,), 10**308), id="int_height_10_pow_308_scale_2"),
        pytest.param(2, (0,), HPoint((10**308,), 2.0**-1000), id="int_x_10_pow_308_scale_2"),
        pytest.param(2, (0.5,), HPoint((10**308,), 1.0), id="int_x_10_pow_308_float_shift"),
        pytest.param(1e10, (0.0,), HPoint((0.3,), 1e300), id="height_1e300_scale_1e10_to_inf"),
        pytest.param(1e-300, (0.0,), HPoint((0.3,), 1e-300), id="height_1e-300_to_0"),
        pytest.param(1.0, (0.0,), HPoint((0.3, 0.3), 1.0), id="dimension_3_on_2"),
        pytest.param(2, (0,), HPoint((2**53 + 1,), 1), id="int_x_2_pow_53_plus_1_answered"),
    ],
)
def test_query_hyperbolic_errors_match_reference(scale, shift, q):
    """Hand-made transforms: the same answer, or the same refusal word
    for word."""
    base = build_avd([HPoint((0.3,), 1.0), HPoint((0.4,), 0.5)])
    ix = AvdIndex(base.tree, NormalizeTransform(scale, shift), base.highest_index)
    assert failure(query_hyperbolic, ix, q) == failure(reference.query_hyperbolic, ix, q)


def test_query_hyperbolic_moved_x_beyond_the_floats():
    # a hand-made transform: the moved x overflows to inf
    base = build_avd([HPoint((0.3,), 1.0), HPoint((0.4,), 0.5)])
    ix = AvdIndex(base.tree, NormalizeTransform(1.0, (1e308,)), base.highest_index)
    q = HPoint((1e308,), 1.0)
    assert outcome(reference.query_hyperbolic, ix, q) is ValueError
    with pytest.raises(ValueError, match="finite floats"):
        query_hyperbolic(ix, q)


# -- cost guards -------------------------------------------------------------


class Builds:
    """Counts constructions of one dataclass while installed, through
    its checks and, where it has one, its trusted ``derived``."""

    def __init__(self, monkeypatch, cls):
        self.n = 0
        original = cls.__post_init__

        def counted(obj):
            self.n += 1
            original(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)
        if hasattr(cls, "derived"):
            original_derived = cls.derived

            def counted_derived(*fields):
                self.n += 1
                return original_derived(*fields)

            monkeypatch.setattr(cls, "derived", staticmethod(counted_derived))


def test_query_path_builds_one_cell_and_no_point(monkeypatch):
    rng = random.Random(14)
    pts = [HPoint((rng.uniform(0, 1),), math.ldexp(1.0, -rng.randint(0, 24))) for _ in range(64)]
    ix = build_avd(pts)
    qs = [HPoint((rng.uniform(0, 1),), math.ldexp(1.0, -rng.randint(0, 26))) for _ in range(200)]
    cells = [rng.choice(ix.points) for _ in range(200)]
    assert all(ix.tree.in_root(c) for c in cells)
    cell_builds, point_builds = Builds(monkeypatch, CellId), Builds(monkeypatch, HPoint)
    for q in qs:
        before = cell_builds.n
        query_hyperbolic(ix, q)
        assert cell_builds.n - before == 1, q
    assert point_builds.n == 0
    before = cell_builds.n
    for c in cells:
        query(ix, c)
    assert cell_builds.n == before
    assert point_builds.n == 0
    # the reference moves an HPoint per query, so the patch is live
    reference.query_hyperbolic(ix, qs[0])
    assert point_builds.n == 1


def test_d2_query_hyperbolic_places_and_locates_inline(monkeypatch):
    """Cost guard: a D = 2 ``query_hyperbolic`` of in-range float
    queries at level <= 0 takes the level and the floor inline and
    locates its cell itself, so it calls none of ``level_of_height``,
    ``floor_scaled`` (as ``hyperbolic`` reaches them) or ``avd.query``.
    A D = 3 query calls both helpers, so their patches are live, and a
    discrete query through ``avd.query`` shows that patch live."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module, name in ((hyperbolic, "level_of_height"), (hyperbolic, "floor_scaled"), (avd, "query")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rng = random.Random(36)
    for dim in (2, 3):
        point = lambda: HPoint(tuple(rng.uniform(0, 1) for _ in range(dim - 1)), math.ldexp(rng.random() + 0.5, -rng.randint(1, 26)))
        ix = build_avd([point() for _ in range(64)])
        qs = [point() for _ in range(200)]
        cells = [ix.transform.cell_of(q) for q in qs]
        assert all(c.level <= 0 and ix.tree.in_root(c) for c in cells)
        calls.clear()
        for q in qs:
            query_hyperbolic(ix, q)
        if dim == 2:
            assert calls == []
        else:
            assert calls.count("level_of_height") == len(qs)
            assert calls.count("floor_scaled") == 2 * len(qs)
            assert "query" not in calls
    avd.query(ix, cells[0])
    assert calls[-1] == "query"


def test_d3_query_makes_no_zip_call(monkeypatch):
    """Cost guard: at D = 3 the descent and the climb take two-axis
    steps, so a query zips no coordinates in ``metrics`` or
    ``quadtree``; at D = 4 they keep the loops, so the patch is live."""
    calls = []

    def counted(*iterables):
        calls.append(len(iterables))
        return zip(*iterables)

    for module in (metrics, quadtree):
        monkeypatch.setattr(module, "zip", counted, raising=False)
    rng = random.Random(33)
    for dim in (3, 4):
        ix = build_avd(sample_margin_cells(rng, dim, 64, min_level=-14))
        cells = [rng.choice(ix.points) for _ in range(100)]
        for c in rng.sample(ix.points, 20):
            below = rng.randint(c.level - 30, c.level)
            cells.append(CellId(below, tuple((k << (c.level - below)) + rng.randrange(1 << (c.level - below)) for k in c.coords)))
        cells += [CellId(-20, random_coords(rng, dim - 1, -20)) for _ in range(100)]
        assert sum(len(ix.region_of(c).reps) > 1 for c in cells if ix.tree.in_root(c)) > 20
        calls.clear()
        for c in cells:
            query(ix, c)
        if dim == 3:
            assert calls == []
        else:
            assert calls
