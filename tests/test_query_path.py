"""The AVD query path against the loops it replaced.

``query`` and ``query_hyperbolic`` are checked against their copies in
``reference.py`` (one ``d2`` per representative, a moved ``HPoint`` per
continuous query), ``d2_argmin`` against the plain ``min`` over
``(d2, index)``, and ``QuadTree.in_root`` against ``shadow_within`` of
the root cell; cost guards count the cells and points a query builds.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.avd import AvdIndex, build_avd, query, query_hyperbolic
from halfspace.hyperbolic import NormalizeTransform
from halfspace.metrics import d2, d2_argmin
from halfspace.quadtree import shadow_within
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
        assert tree.in_root(cell) == shadow_within(cell, tree.root_cell), cell


@st.composite
def argmin_cases(draw):
    """A query cell and candidates at D = 2..4 on levels down to -1074,
    repeated cells included, with the indices as a list or a set."""
    axes = draw(st.integers(1, 3))
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
    assert d2_argmin(q, cells, indices) == min((d2(q, cells[i]), i) for i in indices)[1]


def test_d2_argmin_single_candidate_evaluates_nothing():
    # a dimension mismatch would raise if d2 were evaluated
    assert d2_argmin(CellId(-3, (1,)), [CellId(-2, (1, 1))], [0]) == 0
    assert d2_argmin(CellId(-3, (1,)), [CellId(-2, (1, 1))], {0}) == 0
    with pytest.raises(ValueError):
        d2_argmin(CellId(-3, (1,)), [CellId(-2, (1,)), CellId(-2, (1, 1))], [0, 1])


def test_d2_argmin_ties_to_smallest_index():
    c = CellId(-5, (9,))
    cells = [CellId(-5, (11,)), CellId(-5, (7,)), CellId(-5, (7,))]
    for indices in ([2, 1, 0], {0, 1, 2}, [2, 1]):
        assert d2_argmin(c, cells, indices) == min((d2(c, cells[i]), i) for i in indices)[1]


def test_query_hyperbolic_moved_x_beyond_the_floats():
    # a hand-made transform: the moved x overflows to inf
    base = build_avd([HPoint((0.3,), 1.0), HPoint((0.4,), 0.5)])
    ix = AvdIndex(base.tree, NormalizeTransform(1.0, (1e308,)), base.highest_index, "continuous")
    q = HPoint((1e308,), 1.0)
    assert outcome(reference.query_hyperbolic, ix, q) is ValueError
    with pytest.raises(ValueError, match="finite floats"):
        query_hyperbolic(ix, q)


# -- cost guards -------------------------------------------------------------


class Builds:
    """Counts constructions of one dataclass while installed."""

    def __init__(self, monkeypatch, cls):
        self.n = 0
        original = cls.__post_init__

        def counted(obj):
            self.n += 1
            original(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)


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
