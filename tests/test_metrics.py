import itertools

import pytest

from halfspace.metrics import bridge_level_estimate, d1, d2, d2_path, lambda_
from halfspace.oracle import d1_bfs, d2_bfs, window_for
from halfspace.tiling import CellId, is_ancestor_or_self, parent

from conftest import random_cell


def C(level, *coords):
    return CellId(level, tuple(coords))


# -- lambda ------------------------------------------------------------


def test_lambda_examples():
    assert lambda_(C(0, 0), C(0, 5)) == 5
    assert lambda_(C(3, -2, 7), C(3, -2, 7)) == 0
    with pytest.raises(ValueError):
        lambda_(C(0, 0), C(1, 0))


def test_lambda_parent_recurrence(rng):
    # 2*lambda(parents) - 1 <= lambda <= 2*lambda(parents) + 1
    for _ in range(500):
        dim = rng.choice([2, 3])
        lev = rng.randint(-3, 3)
        p = CellId(lev, tuple(rng.randint(-50, 50) for _ in range(dim - 1)))
        q = CellId(lev, tuple(rng.randint(-50, 50) for _ in range(dim - 1)))
        lam = lambda_(p, q)
        lam_up = lambda_(parent(p), parent(q))
        assert 2 * lam_up - 1 <= lam <= 2 * lam_up + 1


# -- d1 ----------------------------------------------------------------


def test_d1_recurrence_example():
    # lambda = 5 forces the climb: 2 + d1 of the parents = 2 + 2
    assert d1(C(0, 0), C(0, 5)) == 4


def test_d1_identity_and_parent():
    c = C(0, 11)
    assert d1(c, c) == 0
    assert d1(c, parent(c)) == 1


def test_d1_d2_known_gap_pair():
    # a pair one cell lower and nine cells over: five moves suffice for
    # d1 but the single-bend path needs six
    p, q = C(0, 0), C(-1, 9)
    assert d1(p, q) == 5
    assert d2(p, q) == 6


def test_d1_matches_bfs_oracle(rng):
    for dim in (2, 3):
        for _ in range(250):
            p = random_cell(rng, dim, level_range=(-3, 2), coord_range=(-12, 12))
            q = random_cell(rng, dim, level_range=(-3, 2), coord_range=(-12, 12))
            assert d1(p, q) == d1_bfs(p, q), (p, q)


def test_d1_symmetric_and_triangle(rng):
    for _ in range(200):
        p = random_cell(rng, 2)
        q = random_cell(rng, 2)
        r = random_cell(rng, 2)
        assert d1(p, q) == d1(q, p)
        assert d1(p, r) <= d1(p, q) + d1(q, r)


def test_d1_small_lambda_is_horizontal():
    for lam in range(5):
        assert d1(C(0, 0), C(0, lam)) == lam


# -- d2 ----------------------------------------------------------------


def test_d2_path_bridge_example():
    path = d2_path(C(0, 0), C(0, 5))
    assert path.has_bridge
    assert path.apex_p == C(2, 0)
    assert path.apex_q == C(2, 1)
    assert path.length == 5
    assert path.bridge_level == 2


def test_d2_path_ancestor_case():
    p = C(-2, 13)
    q = C(1, 1)
    assert is_ancestor_or_self(q, p)
    path = d2_path(p, q)
    assert not path.has_bridge
    assert path.length == 3
    assert path.bridge_level == q.level


def test_d2_path_cells_walk():
    path = d2_path(C(0, 0), C(0, 5))
    cells = path.cells()
    assert cells[0] == C(0, 0) and cells[-1] == C(0, 5)
    assert len(cells) == path.length + 1
    for a, b in zip(cells, cells[1:]):
        assert (
            parent(a) == b or parent(b) == a or (a.level == b.level and lambda_(a, b) == 1)
        )


def test_d2_triangle_violation_triple():
    p, q, r = C(0, 0), C(0, 1), C(0, 2)
    assert d2(p, q) == 1
    assert d2(q, r) == 1
    assert d2(p, r) == 3


def test_d2_tight_two_above_d1():
    p, q = C(0, 1), C(0, 4)
    assert d1(p, q) == 3
    assert d2(p, q) == 5


def test_d2_mixed_level_pair():
    p, q = C(0, 0), C(1, 2)
    assert d2(p, q) == 4
    assert d1(p, q) == 3


def test_d2_matches_definition_bfs(rng):
    for dim in (2, 3):
        for _ in range(150):
            p = random_cell(rng, dim, level_range=(-3, 2), coord_range=(-10, 10))
            q = random_cell(rng, dim, level_range=(-3, 2), coord_range=(-10, 10))
            assert d2(p, q) == d2_bfs(p, q), (p, q)


def test_sandwich_exhaustive_small_window():
    cells = [C(lev, k) for lev in range(0, 3) for k in range(0, 16 >> lev)]
    for p, q in itertools.combinations(cells, 2):
        lo, hi = d1(p, q), d2(p, q)
        assert lo <= hi <= lo + 2, (p, q)


def test_d2_symmetric_and_parent_recurrence(rng):
    for _ in range(300):
        p = random_cell(rng, 2)
        q = random_cell(rng, 2)
        assert d2(p, q) == d2(q, p)
    for _ in range(300):
        lev = rng.randint(-3, 3)
        p = CellId(lev, (rng.randint(-40, 40),))
        q = CellId(lev, (rng.randint(-40, 40),))
        if lambda_(p, q) >= 2:
            assert d2(p, q) == d2(parent(p), parent(q)) + 2


# -- bridge level estimate ----------------------------------------------


def test_bridge_estimate_examples():
    assert bridge_level_estimate(C(0, 0), C(0, 5)) == 2
    assert d2_path(C(0, 0), C(0, 5)).bridge_level == 2
    assert bridge_level_estimate(C(0, 0), C(0, 1)) == 0


def test_bridge_estimate_rejects_related_pairs():
    with pytest.raises(ValueError):
        bridge_level_estimate(C(0, 0), C(0, 0))
    with pytest.raises(ValueError):
        bridge_level_estimate(C(-1, 1), C(0, 0))


def test_bridge_estimate_within_one(rng):
    done = 0
    while done < 500:
        dim = rng.choice([2, 3])
        p = random_cell(rng, dim, level_range=(-4, 3), coord_range=(-30, 30))
        q = random_cell(rng, dim, level_range=(-4, 3), coord_range=(-30, 30))
        if p == q or is_ancestor_or_self(p, q) or is_ancestor_or_self(q, p):
            continue
        lev = d2_path(p, q).bridge_level
        est = bridge_level_estimate(p, q)
        assert lev - 1 <= est <= lev, (p, q)
        done += 1


# -- oracle self-checks ---------------------------------------------------


def test_window_independence(rng):
    for _ in range(40):
        p = random_cell(rng, 2, level_range=(-2, 2), coord_range=(-8, 8))
        q = random_cell(rng, 2, level_range=(-2, 2), coord_range=(-8, 8))
        base = d1_bfs(p, q, window_for(p, q))
        wider = d1_bfs(p, q, window_for(p, q, side_slack=10, top_slack=4))
        assert base == wider


def test_d2path_dataclass_invariants(rng):
    for _ in range(300):
        p = random_cell(rng, 2)
        q = random_cell(rng, 2)
        path = d2_path(p, q)
        if path.has_bridge:
            assert path.apex_p.level == path.apex_q.level
            assert lambda_(path.apex_p, path.apex_q) == 1
            assert is_ancestor_or_self(path.apex_p, p)
            assert is_ancestor_or_self(path.apex_q, q)
        else:
            assert path.apex_p == path.apex_q
            assert is_ancestor_or_self(path.apex_p, p) or is_ancestor_or_self(path.apex_q, q)
        assert path.length == d2(p, q)
