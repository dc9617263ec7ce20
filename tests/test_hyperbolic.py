import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.avd import build_avd
from halfspace.hyperbolic import (
    DistortionReport,
    NormalizeTransform,
    deviation_window_cells,
    deviation_window_points_d1,
    deviation_window_points_d2,
    distortion_report,
    embedding_displacement_bound,
    hyperbolic_distance,
    normalize,
)
from halfspace.metrics import d1
from halfspace.tiling import CellId, HPoint, cell_of, center, is_ancestor_or_self

from conftest import random_cell


def H(z, *x):
    return HPoint(tuple(x), z)


def random_hpoint(rng, dim=2, x_range=(-5.0, 5.0), z_range=(0.05, 8.0)):
    return HPoint(tuple(rng.uniform(*x_range) for _ in range(dim - 1)), rng.uniform(*z_range))


# -- distance ------------------------------------------------------------


def test_vertical_special_case():
    # vertically aligned points: plain log of the height ratio
    assert hyperbolic_distance(H(1.0, 0.0), H(4.0, 0.0)) == pytest.approx(math.log(4.0), abs=1e-12)
    assert hyperbolic_distance(H(4.0, 0.0), H(1.0, 0.0)) == pytest.approx(math.log(4.0), abs=1e-12)


def test_distance_zero_iff_equal():
    p = H(1.7, 0.3)
    assert hyperbolic_distance(p, p) == 0.0
    assert hyperbolic_distance(p, H(1.7, 0.30001)) > 0.0


def test_distance_closed_form_frozen_value():
    # high-precision evaluation of 2*arsinh(sqrt(10)/(2*sqrt(2)))
    got = hyperbolic_distance(H(1.0, 0.0), H(2.0, 3.0))
    assert got == pytest.approx(1.92484730023841379, abs=1e-12)


def test_distance_symmetric_and_triangle(rng):
    for _ in range(300):
        p, q, r = (random_hpoint(rng) for _ in range(3))
        assert hyperbolic_distance(p, q) == pytest.approx(hyperbolic_distance(q, p), abs=1e-12)
        assert hyperbolic_distance(p, r) <= hyperbolic_distance(p, q) + hyperbolic_distance(q, r) + 1e-9


def test_distance_subnormal_heights_gap_1():
    # 0.5 * gap / sqrt(z(p) z(q)) overflows; the true distance is
    # 2 * ln(1 / 5e-324), about 1489
    got = hyperbolic_distance(HPoint((0.0,), 5e-324), HPoint((1.0,), 5e-324))
    assert math.isfinite(got)
    assert got == pytest.approx(-2.0 * math.log(5e-324), rel=1e-12)


def test_distance_heights_1e_170():
    # z(p) * z(q) = 1e-340 underflows to 0
    got = hyperbolic_distance(H(1e-170, 0.1), H(1e-170, 0.2))
    assert got == pytest.approx(2.0 * math.asinh(0.05e170), rel=1e-12)
    # homotheties are isometries
    s = 1e-170
    assert hyperbolic_distance(H(s, 0.1 * s), H(2 * s, 0.3 * s)) == pytest.approx(
        hyperbolic_distance(H(1.0, 0.1), H(2.0, 0.3)), rel=1e-12
    )


def test_distance_x_1e308_apart():
    # the coordinate difference 2e308 overflows; the true distance is
    # 2 * asinh(1e308) = 2 * ln(2e308), about 1420
    got = hyperbolic_distance(H(1.0, 1e308), H(1.0, -1e308))
    assert got == pytest.approx(2.0 * (math.log(2.0) + math.log(1e308)), rel=1e-12)
    # an overflowing gap over huge heights is not in the log regime
    got = hyperbolic_distance(H(1e308, 1e308), H(1e308, -1e308))
    assert got == pytest.approx(2.0 * math.asinh(1.0), rel=1e-12)
    # nor is a gap that overflows only inside hypot
    got = hyperbolic_distance(H(1.0, 1.5e308, 1.5e308), H(1.0, 0.0, 0.0))
    assert got == pytest.approx(2.0 * (math.log(1.5e308) + 0.5 * math.log(2.0)), rel=1e-12)


def test_distance_x_1e308_apart_heights_0_5():
    # rescaling the overflowing gap back by 2^8 overflowed math.ldexp,
    # which raised OverflowError; the true distance is 2 * ln(4e308)
    got = hyperbolic_distance(H(0.5, 1e308), H(0.5, -1e308))
    assert got == pytest.approx(2.0 * (2.0 * math.log(2.0) + math.log(1e308)), rel=1e-12)


def test_distance_heights_5e_324_and_1e_323():
    # 0.5 * gap underflowed to 0, and the split root sqrt(5e-324) *
    # sqrt(1e-323) rounds to 5e-324; the true distance is ln 2
    got = hyperbolic_distance(HPoint((0.3,), 5e-324), HPoint((0.3,), 1e-323))
    assert got == pytest.approx(math.log(2.0), rel=1e-12)


def test_distance_heights_1e200_and_1e300():
    # z(p) * z(q) = 1e500 overflows to inf
    got = hyperbolic_distance(H(1e200, 0.0), H(1e300, 0.0))
    assert got == pytest.approx(100.0 * math.log(10.0), rel=1e-12)


def test_distance_rejects_bad_input():
    with pytest.raises(ValueError):
        hyperbolic_distance(H(1.0, 0.0), H(1.0, 0.0, 0.0))


def test_arsinh_log_upper_bound():
    # arsinh(x) < ln(x) + 1 for x >= 1
    for x in [1.0, 1.5, 2.0, 8.0, 1e3, 1e9]:
        assert math.asinh(x) < math.log(x) + 1.0


# -- embedding -----------------------------------------------------------


def test_embed_center_is_fixed():
    for c in [CellId(0, (0,)), CellId(-3, (5,)), CellId(2, (-1, 4))]:
        b = center(c)
        assert cell_of(b) == c
        assert hyperbolic_distance(b, center(cell_of(b))) == 0.0


def test_embed_known_cell_and_distance():
    p = H(1.5, 0.3)
    c = cell_of(p)
    assert c == CellId(0, (0,))
    got = hyperbolic_distance(p, center(c))
    assert got == pytest.approx(0.13323476491110579, abs=1e-12)
    assert got < embedding_displacement_bound(2)


def test_embed_displacement_bound(rng):
    # d_H(p, center of its cell) <= 2*arsinh(sqrt(D)/4) over random points;
    # the ln(D) relaxation holds from D=3 up
    for dim in (2, 3, 4, 5, 6):
        bound = embedding_displacement_bound(dim)
        for _ in range(2000):
            p = random_hpoint(rng, dim)
            got = hyperbolic_distance(p, center(cell_of(p)))
            assert got <= bound + 1e-9
            if dim >= 3:
                assert got < math.log(dim)


# -- normalization --------------------------------------------------------


def test_normalize_identity_compatible():
    pts = [H(1.2, 0.3), H(1.5, 0.45)]
    t, moved = normalize(pts)
    assert t.scale <= 1.0
    for m in moved:
        assert all(0.25 <= x <= 0.5 for x in m.x)
        assert m.z < 2.0


def test_normalize_scales_wide_sets():
    pts = [H(1.0, 0.0), H(1.0, 8.0)]
    t, moved = normalize(pts)
    assert t.scale <= 0.25 / 8.0
    xs = [m.x[0] for m in moved]
    assert max(xs) - min(xs) <= 0.25 + 1e-12


def test_normalize_is_isometry(rng):
    for dim in (2, 3):
        pts = [random_hpoint(rng, dim, x_range=(-40, 40), z_range=(0.01, 30)) for _ in range(12)]
        _, moved = normalize(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                before = hyperbolic_distance(pts[i], pts[j])
                after = hyperbolic_distance(moved[i], moved[j])
                assert abs(before - after) <= 1e-9
        for m in moved:
            assert all(0.25 <= x <= 0.5 for x in m.x)
            assert m.z < 2.0


def test_normalize_degenerate_single_point():
    t, moved = normalize([H(5.0, 123.4)])
    assert moved[0].z < 2.0
    assert all(0.25 <= x <= 0.5 for x in moved[0].x)


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize([])


def test_normalize_heights_1e_300_x_spread_1e300():
    # the scale the spread needs (about 2.3e-301) takes height 1e-300 to 0.0,
    # which HPoint used to reject without naming the point or the scale
    with pytest.raises(ValueError, match=r"point 0: height 1e-300 underflows to 0.0 at scale 2.34375e-301"):
        normalize([H(1e-300, 0.0), H(1.0, 1e300)])


def test_normalize_x_minus_1e308_and_1e308():
    # the spread 2e308 overflowed to inf, the scale came out 0.0 and the
    # heights were rejected as underflowing "at scale 0.0"
    pts = [H(1.0, -1e308), H(1.0, 1e308)]
    t, moved = normalize(pts)
    assert t.scale == (15 / 128) / 1e308  # the diameter target 15/64 over the spread
    assert moved[0].x[0] == 0.25 and 0.25 < moved[1].x[0] < 0.5
    assert all(m.z == t.scale for m in moved)
    assert hyperbolic_distance(*moved) == pytest.approx(hyperbolic_distance(*pts), rel=1e-12)


def test_normalize_x_2251799813685249_z_5e_324():
    # floats near 2^51 are 0.5 apart, so the shift cannot carry the 1/4
    # offset: the point moved to x = 0.0 and build_avd blamed the input
    # with its margin message
    pts = [H(5e-324, 2251799813685249.0)]
    msg = r"point 0: x = 2251799813685249.0 moves to 0.5, outside \[1/4, 1/2\).*loses the 1/4 offset"
    with pytest.raises(ValueError, match=msg):
        normalize(pts)
    with pytest.raises(ValueError, match="loses the 1/4 offset"):
        build_avd(pts)


def test_normalize_x_minus_0_04():
    # the rounded shift 0.29 put the point at 0.24999999999999997, and
    # build_avd rejected it as outside the margin; the next float shift
    # puts it one step above 1/4, as none lands on 1/4 itself
    t, moved = normalize([H(1.0, -0.04)])
    assert t.shift[0] == math.nextafter(0.25 + 0.04, math.inf)
    assert moved[0].x[0] == math.nextafter(0.25, 1.0)
    assert build_avd([H(1e-3, -0.04)]).highest_index == 0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(1e-6, 10.0)),
        min_size=1,
        max_size=6,
    )
)
def test_normalize_lands_in_quarter_to_half(raw):
    """Every moved coordinate lies in [1/4, 1/2) for signed coordinates
    of ordinary size; about one set in seven moved a last bit below 1/4."""
    _, moved = normalize([H(z, x) for x, z in raw])
    assert all(0.25 <= m.x[0] < 0.5 for m in moved)


def test_transform_apply_matches_components():
    t = NormalizeTransform(0.5, (0.1,))
    p = H(1.0, 0.6)
    m = t.apply(p)
    assert m.x[0] == pytest.approx(0.6 * 0.5 + 0.1)
    assert m.z == pytest.approx(0.5)


@pytest.mark.parametrize(
    "scale, shift",
    [
        ("x", (0.1,)),
        (True, (0.1,)),
        (0.0, (0.1,)),
        (-0.5, (0.1,)),
        (math.inf, (0.1,)),
        (math.nan, (0.1,)),
        (10**400, (0.1,)),
        (0.5, ("a",)),
        (0.5, (False,)),
        (0.5, (math.inf,)),
        (0.5, ()),
        (0.5, [0.1]),
    ],
    ids=[
        "scale_x", "scale_true", "scale_0", "scale_minus_0_5", "scale_inf", "scale_nan", "scale_10_pow_400",
        "shift_a", "shift_false", "shift_inf", "shift_empty", "shift_list",
    ],
)
def test_transform_rejects_scale_or_shift(scale, shift):
    with pytest.raises(ValueError, match="transform (scale|shift)"):
        NormalizeTransform(scale, shift)


def test_transform_cell_of_x_0_3_0_9_z_0_5_on_shift_0_25():
    # the one-coordinate branch read x[0] and returned Cell(-1;[1])
    with pytest.raises(ValueError, match="dimension 3, the index 2"):
        NormalizeTransform(1.0, (0.25,)).cell_of(HPoint((0.3, 0.9), 0.5))


def test_transform_cell_of_x_0_3_z_0_5_on_shift_0_25_0_25():
    # zip dropped the second shift and returned Cell(-1;[1])
    with pytest.raises(ValueError, match="dimension 2, the index 3"):
        NormalizeTransform(1.0, (0.25, 0.25)).cell_of(HPoint((0.3,), 0.5))


def test_transform_apply_x_0_3_0_9_z_0_5_on_shift_0_25():
    with pytest.raises(ValueError, match="dimension 3, the transform 2"):
        NormalizeTransform(1.0, (0.25,)).apply(HPoint((0.3, 0.9), 0.5))


def test_transform_apply_x_0_3_z_0_5_on_shift_0_25_0_25():
    with pytest.raises(ValueError, match="dimension 2, the transform 3"):
        NormalizeTransform(1.0, (0.25, 0.25)).apply(HPoint((0.3,), 0.5))


def test_transform_takes_int_scale_and_shift():
    t = NormalizeTransform(2, (1, 0.5))
    assert (t.scale, t.shift) == (2, (1, 0.5))


# -- distortion windows ----------------------------------------------------


def test_cell_center_deviation_window(rng):
    lo, hi = deviation_window_cells(2)
    for _ in range(2000):
        p = random_cell(rng, 2)
        q = random_cell(rng, 2)
        dev = hyperbolic_distance(center(p), center(q)) - math.log(2.0) * d1(p, q)
        assert lo - 1e-9 < dev <= hi + 1e-9


def test_ancestor_deviation_window(rng):
    # for an ancestor pair: ln2*d1 <= d_H <= ln2*d1 + ln(D) + 2 + ln 4
    from halfspace.tiling import ancestor_at

    for dim in (2, 3):
        hi_extra = math.log(dim) + 2.0 + math.log(4.0)
        for _ in range(1000):
            c = random_cell(rng, dim, level_range=(-6, 0), coord_range=(-40, 40))
            a = ancestor_at(c, c.level + rng.randint(1, 6))
            assert is_ancestor_or_self(a, c)
            dh = hyperbolic_distance(center(c), center(a))
            base = math.log(2.0) * d1(c, a)
            assert base - 1e-9 <= dh <= base + hi_extra + 1e-9


def test_vertical_dyadic_pairs_have_zero_deviation():
    # two points one above the other with a power-of-two height ratio sit
    # in cells on one ancestor chain; scaled d1 matches d_H exactly
    p, q = H(1.2, 0.3), H(2.4, 0.3)
    cp, cq = cell_of(p), cell_of(q)
    assert is_ancestor_or_self(cq, cp)
    dev = hyperbolic_distance(p, q) - math.log(2.0) * d1(cp, cq)
    assert abs(dev) <= 1e-12


def test_distortion_report_identical_points():
    pts = [H(1.0, 0.2), H(1.0, 0.2)]
    rep = distortion_report(pts, samples=64)
    assert rep.violations == 0
    assert rep.d1_min == rep.d1_max == 0.0


def test_distortion_report_random_sets(rng):
    for dim in (2, 3, 4):
        pts = [random_hpoint(rng, dim, x_range=(-30, 30), z_range=(0.02, 20)) for _ in range(60)]
        rep = distortion_report(pts, samples=4000, seed=7)
        assert rep.violations == 0
        lo1, hi1 = deviation_window_points_d1(dim)
        lo2, hi2 = deviation_window_points_d2(dim)
        assert lo1 - 1e-9 <= rep.d1_min and rep.d1_max <= hi1 + 1e-9
        assert lo2 - 1e-9 <= rep.d2_min and rep.d2_max <= hi2 + 1e-9
        assert isinstance(rep, DistortionReport)


def test_distortion_report_needs_two_points():
    with pytest.raises(ValueError):
        distortion_report([H(1.0, 0.0)], samples=10)


# -- sample counts distortion_report cannot use: ValueError naming the value --


def test_distortion_report_samples_0():
    with pytest.raises(ValueError, match="samples 0 "):
        distortion_report([H(1.0, 0.2), H(2.0, 0.5)], samples=0)


def test_distortion_report_samples_minus_3():
    with pytest.raises(ValueError, match="samples -3 "):
        distortion_report([H(1.0, 0.2), H(2.0, 0.5)], samples=-3)


def test_distortion_report_samples_2_5():
    with pytest.raises(ValueError, match=r"samples 2\.5 "):
        distortion_report([H(1.0, 0.2), H(2.0, 0.5)], samples=2.5)


def test_distortion_report_samples_true():
    with pytest.raises(ValueError, match="samples True "):
        distortion_report([H(1.0, 0.2), H(2.0, 0.5)], samples=True)


def test_distortion_report_samples_1():
    assert distortion_report([H(1.0, 0.2), H(2.0, 0.5)], samples=1).samples == 1


def test_normalize_d2_point_and_d3_point():
    with pytest.raises(ValueError, match="mixed dimensions in point set"):
        normalize([HPoint((0.25,), 1.0), HPoint((0.25, 0.5), 1.0)])
