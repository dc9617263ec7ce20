"""Continuous inputs over the whole float range either build or are
rejected with ``ValueError``.

Heights run from the smallest subnormal 5e-324 up to 1e308 and x
coordinates up to +-1e308, with those edge values drawn often.  Every
set goes through the AVD index, the d1 spanner of its embedded cells,
the hyperbolic spanner and the distortion report; any other exception
is a defect.  Over the same range the spanners and the halfspace
distance must match their references in ``tests/reference.py``: the
same ``to_dict()`` (or the same ``ValueError``), and the same distance
bit for bit in either argument order.  ``NormalizeTransform.cell_of``,
which places every input and every query, must give the cell of the
moved point, or raise ``ValueError`` where moving it does.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfspace import hyperbolic
from halfspace.avd import build_avd
from halfspace.hyperbolic import distortion_report, hyperbolic_distance, normalize, normalize_and_embed
from halfspace.spanner import build_hyperbolic_spanner, build_spanner
from halfspace.tiling import HPoint, cell_of

from reference import build_hyperbolic_spanner_triples, build_spanner_triples, hyperbolic_distance_general, hyperbolic_distance_map

heights = st.one_of(st.sampled_from((5e-324, 1e-323, 1e308)), st.floats(5e-324, 1e308))
coords = st.one_of(st.sampled_from((0.0, 5e-324, 1e-323, 1e308, -1e308)), st.floats(-1e308, 1e308))


def points_of(dim):
    return st.builds(HPoint, st.tuples(*[coords] * (dim - 1)), heights)


@st.composite
def point_sets(draw, dims=(2, 3)):
    dim = draw(st.sampled_from(dims))
    return draw(st.lists(points_of(dim), min_size=1, max_size=6))


def _builds_or_rejects(build, *args):
    """What ``build`` returns, or ``ValueError`` when it raises one."""
    try:
        return build(*args)
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example([HPoint((5e-324,), 5e-324), HPoint((-1e308,), 1e308)])
@example([HPoint((1e308, -1e308), 1e-323), HPoint((1e308, 1e308), 1e-323)])
@example([HPoint((0.0,), 1e308), HPoint((5e-324,), 1e308), HPoint((1e-323,), 1e308)])
def test_full_float_range_builds_or_raises_value_error(points):
    _builds_or_rejects(build_avd, points)
    _builds_or_rejects(lambda p: build_spanner(normalize_and_embed(p)[2]), points)
    _builds_or_rejects(build_hyperbolic_spanner, points, 2)
    _builds_or_rejects(distortion_report, points, 20)


@settings(max_examples=150, deadline=None)
@given(point_sets(), st.sampled_from((1, 2, 3)))
@example([HPoint((0.3,), 1.0), HPoint((0.3,), 5e-324)], 2)
@example([HPoint((-1e308,), 1.0), HPoint((1e308,), 1.0)], 1)
@example([HPoint((1e308, -1e308), 1e-323), HPoint((1e308, 1e308), 1e-323)], 3)
@example([HPoint((5e-324,), 5e-324), HPoint((-1e308,), 1e308)], 2)
def test_spanners_match_triple_set_references(points, k):
    try:
        want = build_hyperbolic_spanner_triples(points, k)
    except ValueError:
        with pytest.raises(ValueError):
            build_hyperbolic_spanner(points, k)
        return
    assert json.dumps(build_hyperbolic_spanner(points, k).to_dict()) == json.dumps(want.to_dict())
    cells = normalize_and_embed(points)[2]
    assert json.dumps(build_spanner(cells).to_dict()) == json.dumps(build_spanner_triples(cells).to_dict())


@st.composite
def point_pairs(draw):
    point = points_of(draw(st.sampled_from((2, 3, 4))))
    return draw(point), draw(point)


@settings(max_examples=1000, deadline=None)
@given(point_pairs())
@example((HPoint((0.3,), 5e-324), HPoint((0.3,), 1e-323)))
@example((HPoint((0.3,), 5e-324), HPoint((0.3,), 5e-324)))
@example((HPoint((1e308,), 1.0), HPoint((-1e308,), 1.0)))
@example((HPoint((0.0,), 5e-324), HPoint((1.0,), 5e-324)))
@example((HPoint((0.0,), 1e-170), HPoint((1.0,), 1e-170)))
@example((HPoint((0.0,), 1e200), HPoint((0.0,), 1e300)))
@example((HPoint((1e308, -1e308), 1e308), HPoint((-1e308, 1e308), 1e-323)))
def test_hyperbolic_distance_matches_general_reference_bit_for_bit(pair):
    p, q = pair
    want = hyperbolic_distance_general(p, q).hex()
    assert hyperbolic_distance_general(q, p).hex() == want
    assert hyperbolic_distance(p, q).hex() == want
    assert hyperbolic_distance(q, p).hex() == want


# pairs whose gap, height product or argument leaves the normal floats
_RESCALED = [
    (HPoint((0.3,), 5e-324), HPoint((0.3,), 1e-323)),
    (HPoint((0.0,), 5e-324), HPoint((1e308,), 1e-320)),
    (HPoint((1e308,), 1.0), HPoint((-1e308,), 1.0)),
    (HPoint((-1e308,), 5e-324), HPoint((1e308,), 1e308)),
    (HPoint((0.0,), 1e200), HPoint((0.0,), 1e300)),
    (HPoint((1e308, -1e308), 1e-320), HPoint((-1e308, 1e308), 5e-324)),
    (HPoint((-1e308, 0.0), 1e308), HPoint((1e308, 5e-324), 1e308)),
]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda dim: st.tuples(points_of(dim), points_of(dim))))
@example(_RESCALED[0])
@example(_RESCALED[1])
@example(_RESCALED[2])
@example(_RESCALED[3])
@example(_RESCALED[4])
@example(_RESCALED[5])
@example(_RESCALED[6])
@example((HPoint((5e-324,), 5e-324), HPoint((-5e-324,), 1e-323)))
@example((HPoint((0.3, 0.4), 1.0), HPoint((0.3, 0.4), 1.0)))
def test_hyperbolic_distance_matches_the_map_form_bit_for_bit(pair):
    # the D = 2 branch takes the gap as hypot(dx, dz), the call
    # hypot(*map(sub, px, qx), dz) makes with one coordinate
    p, q = pair
    assert hyperbolic_distance(p, q).hex() == hyperbolic_distance_map(p, q).hex()
    assert hyperbolic_distance(q, p).hex() == hyperbolic_distance_map(q, p).hex()


def test_rescaled_examples_take_the_fallback(monkeypatch):
    taken = []
    monkeypatch.setattr(hyperbolic, "_rescaled_distance", lambda *args: taken.append(args) or 0.0)
    for p, q in _RESCALED:
        hyperbolic_distance(p, q)
    assert len(taken) == len(_RESCALED)


@st.composite
def sets_and_queries(draw):
    points = draw(point_sets(dims=(2, 3, 4)))
    return points, draw(st.lists(points_of(points[0].dim), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(sets_and_queries())
@example(([HPoint((0.0,), 1.0), HPoint((1e300,), 1.0)], [HPoint((0.0,), 1e-30)]))
@example(([HPoint((0.3,), 1.0), HPoint((0.4,), 0.5)], [HPoint((1e308,), 1e308), HPoint((-1e308,), 5e-324)]))
@example(([HPoint((1e308, -1e308, 0.0), 1e-323)], [HPoint((1e308, 1e308, 5e-324), 1e308)]))
def test_transform_cell_of_is_cell_of_the_moved_point(case):
    # builds and queries place points with NormalizeTransform.cell_of;
    # it must agree with cell_of(apply(q)) or raise ValueError with it
    points, queries = case
    try:
        t, moved = normalize(points)
    except ValueError:
        with pytest.raises(ValueError):
            normalize_and_embed(points)
        return
    assert normalize_and_embed(points)[2] == [cell_of(m) for m in moved]
    for q in queries:
        want = _builds_or_rejects(lambda: cell_of(t.apply(q)))
        assert _builds_or_rejects(t.cell_of, q) == want
