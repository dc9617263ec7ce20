"""Continuous inputs over the whole float range either build or are
rejected with ``ValueError``.

Heights run from the smallest subnormal 5e-324 up to 1e308 and x
coordinates up to +-1e308, with those edge values drawn often.  Every
set goes through the AVD index, the d1 spanner of its embedded cells,
the hyperbolic spanner and the distortion report; any other exception
is a defect.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfspace.avd import build_avd
from halfspace.hyperbolic import distortion_report, normalize_and_embed
from halfspace.spanner import build_hyperbolic_spanner, build_spanner
from halfspace.tiling import HPoint

heights = st.one_of(st.sampled_from((5e-324, 1e-323, 1e308)), st.floats(5e-324, 1e308))
coords = st.one_of(st.sampled_from((0.0, 5e-324, 1e-323, 1e308, -1e308)), st.floats(-1e308, 1e308))


@st.composite
def point_sets(draw):
    dim = draw(st.sampled_from((2, 3)))
    point = st.builds(HPoint, st.tuples(*[coords] * (dim - 1)), heights)
    return draw(st.lists(point, min_size=1, max_size=6))


def _builds_or_rejects(build, *args) -> None:
    try:
        build(*args)
    except ValueError:
        pass


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
