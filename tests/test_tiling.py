import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.tiling import (
    CellId,
    HPoint,
    ancestor_at,
    cell_of,
    center,
    children,
    floor_scaled,
    horizontal_neighbors,
    is_ancestor_or_self,
    level_of_height,
    parent,
)

from reference import contains_point, floor_scaled_ratio, lift_pair

cells = st.builds(
    CellId,
    level=st.integers(min_value=-8, max_value=8),
    coords=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=3).map(tuple),
)


def test_parent_examples():
    assert parent(CellId(0, (5,))) == CellId(1, (2,))
    assert parent(CellId(1, (2,))) == CellId(2, (1,))


def test_parent_negative_coordinate_matches_geometry():
    # floor semantics on negatives: the parent's box must contain the
    # child's top facet.  Cell (0,[-1]) spans [-1,0]x[1,2]; the level-1
    # cell containing [-1,0]x{2} is [-2,0]x[2,4], i.e. k=-1.
    c = CellId(0, (-1,))
    p = parent(c)
    assert p == CellId(1, (-1,))
    w_child, w_parent = 2.0**c.level, 2.0**p.level
    for k_c, k_p in zip(c.coords, p.coords):
        assert k_p * w_parent <= k_c * w_child
        assert (k_c + 1) * w_child <= (k_p + 1) * w_parent


def test_children_binary_subdivision():
    assert set(children(CellId(1, (2,)))) == {CellId(0, (4,)), CellId(0, (5,))}


def test_children_count_d3():
    assert len(children(CellId(0, (3, -7)))) == 4


@given(cells)
def test_parent_child_roundtrip(c):
    kids = children(c)
    assert len(kids) == 1 << (len(c.coords))
    assert all(parent(k) == c for k in kids)
    x_shadows = {k.coords for k in kids}
    assert len(x_shadows) == len(kids)


def test_repr_of_cell_at_level_minus_70000_coordinate_3_shl_69998():
    # str() of this coordinate raised "Exceeds the limit (4300 digits)"
    assert repr(CellId(-70000, (3 << 69998,))) == "Cell(-70000;[<70000-bit int>])"
    assert repr(CellId(-(10**5000), (-(1 << 20000), 5))) == "Cell(-<16610-bit int>;[-<20001-bit int>,5])"
    assert repr(CellId(-3, (1, 2))) == "Cell(-3;[1,2])"


def test_horizontal_neighbors_1d():
    assert set(horizontal_neighbors(CellId(0, (7,)))) == {CellId(0, (6,)), CellId(0, (8,))}


def test_horizontal_neighbors_count_d3():
    assert len(horizontal_neighbors(CellId(2, (0, 0)))) == 8


@given(cells)
def test_neighbor_symmetry(c):
    for nb in horizontal_neighbors(c):
        assert c in horizontal_neighbors(nb)


@given(cells)
def test_neighbor_parents_equal_or_neighbors(c):
    p = parent(c)
    for nb in horizontal_neighbors(c):
        np_ = parent(nb)
        assert np_ == p or np_ in horizontal_neighbors(p)


def test_center_examples():
    assert center(CellId(0, (0,))) == HPoint((0.5,), 1.5)
    assert center(CellId(2, (1,))) == HPoint((6.0,), 6.0)
    assert center(CellId(-1, (3,))) == HPoint((1.75,), 0.75)


def test_center_of_cell_of_height_5e_324():
    # k + 1/2 overflowed a float below level -1024
    c = cell_of(HPoint((0.3,), 5e-324))
    assert c.level == -1074
    b = center(c)
    assert b.x == (float(Fraction(2 * c.coords[0] + 1, 2**1075)),)
    assert b.x[0] == 0.3
    assert b.z == 1e-323


def test_center_of_level_1024_coordinate_0():
    # the height 3 * 2^1023 overflowed with a bare OverflowError
    with pytest.raises(ValueError, match=r"center of Cell\(1024;\[0\]\) leaves the finite positive floats"):
        center(CellId(1024, (0,)))


def test_center_of_level_minus_1076_coordinate_0():
    # the height 3 * 2^-1077 rounds to 0.0; HPoint refused it naming no cell
    with pytest.raises(ValueError, match=r"center of Cell\(-1076;\[0\]\) leaves the finite positive floats"):
        center(CellId(-1076, (0,)))


def test_center_of_level_minus_1075_coordinate_0():
    # the deepest level whose center height is above 0.0
    assert center(CellId(-1075, (0,))) == HPoint((0.0,), 5e-324)


def test_center_of_level_1023_coordinate_0():
    assert center(CellId(1023, (0,))) == HPoint((2.0**1022,), 3.0 * 2.0**1022)


def test_center_of_level_0_coordinate_10_pow_400():
    with pytest.raises(ValueError, match=r"center of Cell\(0;\[1000+\]\) leaves"):
        center(CellId(0, (10**400,)))


def test_derived_point_equals_the_checked_point():
    p = HPoint.derived((0.25, 0.5), 0.75)
    q = HPoint((0.25, 0.5), 0.75)
    assert (p.x, p.z, p.dim) == (q.x, q.z, q.dim)
    assert p == q and hash(p) == hash(q)


def test_cell_of_examples():
    assert cell_of(HPoint((0.3,), 1.5)) == CellId(0, (0,))
    # z exactly on a facet goes to the bigger cell above (maximum level)
    assert cell_of(HPoint((0.0,), 2.0)) == CellId(1, (0,))


def test_cell_of_derived_by_containment():
    p = HPoint((0.999,), 3.9)
    c = cell_of(p)
    assert c == CellId(1, (0,))
    assert contains_point(c, p)


def test_level_of_height_exact_at_powers_of_two():
    for i in range(-30, 31):
        z = 2.0**i
        assert level_of_height(z) == i
        assert level_of_height(z * 1.999) == i
    with pytest.raises(ValueError):
        level_of_height(0.0)
    with pytest.raises(ValueError):
        level_of_height(-1.0)


@pytest.mark.parametrize("z", [0, -1, math.inf, math.nan])
def test_level_of_height_rejects_0_minus_1_inf_and_nan(z):
    with pytest.raises(ValueError, match=f"^height must be a positive finite number, got {z}$"):
        level_of_height(z)


@given(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=-(1 << 80), max_value=1 << 80)),
    st.integers(min_value=-1200, max_value=1200),
)
def test_floor_scaled_matches_the_exact_ratio(x, level):
    assert floor_scaled(x, level) == floor_scaled_ratio(x, level)


def test_floor_scaled_minus_5e_324_at_level_0_is_minus_1():
    assert floor_scaled(-5e-324, 0) == -1


def test_floor_scaled_minus_zero_is_0():
    assert floor_scaled(-0.0, 0) == 0
    assert floor_scaled(-0.0, -1074) == 0
    assert floor_scaled(-0.0, 7) == 0


def test_floor_scaled_1e308_at_level_minus_100_takes_the_overflow_fallback():
    with pytest.raises(OverflowError):
        math.ldexp(1e308, 100)
    assert floor_scaled(1e308, -100) == int(1e308) << 100 == floor_scaled_ratio(1e308, -100)


def test_floor_scaled_2_pow_60_plus_1_at_level_minus_3():
    # as a float, 2^60 + 1 would round to 2^60
    assert floor_scaled(2**60 + 1, -3) == (2**60 + 1) << 3


def test_floor_scaled_minus_5e_324_at_level_5_is_minus_1():
    # ldexp(-5e-324, -5) rounds to -0.0, whose floor is 0
    assert floor_scaled(-5e-324, 5) == -1


@given(cells)
def test_center_roundtrip(c):
    b = center(c)
    assert contains_point(c, b)
    assert cell_of(b) == c


def test_cell_of_random_points_contained(rng):
    for _ in range(2000):
        dim = rng.choice([2, 3])
        p = HPoint(
            tuple(rng.uniform(-8, 8) for _ in range(dim - 1)),
            rng.uniform(1e-3, 60.0),
        )
        assert contains_point(cell_of(p), p)


def test_cell_of_subnormal_height():
    # x / 2^-1074 overflowed a float
    p = HPoint((0.3,), 5e-324)
    c = cell_of(p)
    assert c == CellId(-1074, (int(Fraction(0.3) * 2**1074),))
    assert contains_point(c, p)
    q = HPoint((-0.7, 0.25), 1e-310)
    assert contains_point(cell_of(q), q)


def test_ancestor_at_and_is_ancestor(rng):
    for _ in range(500):
        c = CellId(rng.randint(-5, 2), (rng.randint(-30, 30),))
        up = rng.randint(0, 6)
        a = ancestor_at(c, c.level + up)
        assert is_ancestor_or_self(a, c)
        assert not is_ancestor_or_self(c, a) or a == c
    with pytest.raises(ValueError):
        ancestor_at(CellId(0, (0,)), -1)


def test_is_ancestor_or_self_matches_ancestor_at(rng):
    for _ in range(500):
        dim = rng.choice([2, 3, 4])
        c = CellId(rng.randint(-40, 2), tuple(rng.randint(-(1 << 40), 1 << 40) for _ in range(dim - 1)))
        a = CellId(rng.randint(-42, 4), tuple(rng.randint(-3, 3) for _ in range(dim - 1)))
        if a.level >= c.level and rng.random() < 0.5:
            a = ancestor_at(c, a.level)
        expected = a.level >= c.level and ancestor_at(c, a.level) == a
        assert is_ancestor_or_self(a, c) == expected
    assert not is_ancestor_or_self(CellId(1, (0,)), CellId(0, (0, 0)))


def test_lift_pair():
    assert lift_pair(CellId(-3, (5, 9)), CellId(-1, (1, 2))) == (-1, (1, 2), (1, 2))
    assert lift_pair(CellId(2, (-1,)), CellId(-2, (-7,))) == (2, (-1,), (-1,))
    assert lift_pair(CellId(0, (3,)), CellId(0, (4,))) == (0, (3,), (4,))
    with pytest.raises(ValueError):
        lift_pair(CellId(0, (0,)), CellId(0, (0, 0)))


def test_hpoint_rejects_nonpositive_z():
    with pytest.raises(ValueError):
        HPoint((0.0,), 0.0)
    with pytest.raises(ValueError):
        HPoint((0.0,), -2.0)


def test_hpoint_rejects_nan_x():
    with pytest.raises(ValueError, match="finite"):
        HPoint((math.nan,), 1.0)


def test_hpoint_rejects_inf_x():
    with pytest.raises(ValueError, match="finite"):
        HPoint((math.inf,), 1.0)
    with pytest.raises(ValueError, match="finite"):
        HPoint([0.5, -math.inf], 1.0)


def test_hpoint_rejects_inf_z():
    with pytest.raises(ValueError, match="finite"):
        HPoint((0.3,), math.inf)


def test_hpoint_rejects_nan_z():
    with pytest.raises(ValueError):
        HPoint((0.3,), math.nan)


# -- values CellId and HPoint cannot hold: ValueError naming the value ------


def test_cellid_float_coordinate():
    with pytest.raises(ValueError, match=r"coordinate 1\.0 "):
        CellId(-2, (1.0,))


def test_cellid_coordinate_1_5():
    with pytest.raises(ValueError, match=r"coordinate 1\.5 "):
        CellId(-2, (1.5,))


def test_cellid_str_coordinate():
    with pytest.raises(ValueError, match="coordinate '1' "):
        CellId(-2, ("1",))


def test_cellid_float_level():
    with pytest.raises(ValueError, match=r"level -2\.0 "):
        CellId(-2.0, (1,))


def test_cellid_bool_coordinate():
    with pytest.raises(ValueError, match="coordinate True "):
        CellId(-1, (True,))


def test_cellid_bool_level():
    with pytest.raises(ValueError, match="level False "):
        CellId(False, (0,))


def test_cellid_int_coordinates_list():
    c = CellId(-2, [1, 3])
    assert c.coords == (1, 3) and type(c.coords) is tuple


def test_hpoint_str_x():
    with pytest.raises(ValueError, match="coordinate '0.3' "):
        HPoint(("0.3",), 1.0)


def test_hpoint_str_z():
    with pytest.raises(ValueError, match="got '1'"):
        HPoint((0.3,), "1")


def test_hpoint_x_10_pow_400():
    with pytest.raises(ValueError, match="1000000000"):
        HPoint((10**400,), 1.0)


def test_hpoint_z_10_pow_400():
    with pytest.raises(ValueError, match="1000000000"):
        HPoint((0.3,), 10**400)


def test_hpoint_bool_z():
    with pytest.raises(ValueError, match="got True"):
        HPoint((0.3,), True)


def test_hpoint_bool_x():
    with pytest.raises(ValueError, match="coordinate False "):
        HPoint((False,), 1.0)


def test_hpoint_int_values_stored_as_given():
    p = HPoint((3, -2), 2)
    assert p.x == (3, -2) and type(p.x[0]) is int and type(p.z) is int
    assert cell_of(p) == CellId(1, (1, -1))
    big = HPoint((0.3,), 2**1023)
    assert cell_of(big).level == 1023


@settings(max_examples=40)
@given(cells)
def test_neighbors_differ_by_one_per_axis(c):
    for nb in horizontal_neighbors(c):
        assert all(abs(a - b) <= 1 for a, b in zip(c.coords, nb.coords))
        assert nb.level == c.level


def test_hpoint_with_empty_x_is_refused():
    # its cell would have no coordinate; cell_of builds cells unchecked
    for x in ((), []):
        with pytest.raises(ValueError, match="at least one horizontal coordinate"):
            HPoint(x, 1.0)


def test_hpoint_from_list_x_1_and_0_5():
    p = HPoint([1, 0.5], 2)
    assert p.x == (1.0, 0.5) and all(type(v) is float for v in p.x)
    assert p.dim == 3 and p == HPoint((1.0, 0.5), 2)
