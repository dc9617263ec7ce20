import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfspace.shortcut import reference_size, shortcut_forest

import reference


def path_parent(n):
    """Upward path 0 -> 1 -> ... -> n-1 (n-1 is the root)."""
    return {i: (i + 1 if i + 1 < n else None) for i in range(n)}


def random_tree_parent(rng, n):
    parent = {0: None}
    for v in range(1, n):
        parent[v] = rng.randrange(v)
    return parent


def ancestors(parent, v):
    out = []
    a = parent[v]
    while a is not None:
        out.append(a)
        a = parent[a]
    return out


def min_hops(adj, u, w):
    """BFS hop count over upward edges."""
    if u == w:
        return 0
    seen = {u}
    frontier = [u]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b == w:
                    return hops
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return math.inf


def check_hop_bound(parent, k):
    cuts = shortcut_forest(parent, k)
    adj = cuts.adjacency()
    for v in parent:
        for a in ancestors(parent, v):
            assert min_hops(adj, v, a) <= k, (v, a, k)
    return cuts


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        shortcut_forest(path_parent(4), 0)
    with pytest.raises(ValueError):
        shortcut_forest({0: 1, 1: 0}, 2)  # cycle
    with pytest.raises(ValueError):
        shortcut_forest({0: 7}, 2)  # unknown parent


def test_shortcut_forest_k_nan():
    # every comparison with nan is false, so it passed the k >= 1 check
    # and returned the extras ((2, 0), (4, 2)) for a 5-vertex path
    with pytest.raises(ValueError, match="nan"):
        shortcut_forest(path_parent(5), float("nan"))


def test_shortcut_forest_k_2_5():
    # acted as k = 2
    with pytest.raises(ValueError, match="2.5"):
        shortcut_forest(path_parent(5), 2.5)


def test_shortcut_forest_k_true():
    # acted as k = 1
    with pytest.raises(ValueError, match="True"):
        shortcut_forest(path_parent(5), True)


def test_shortcut_forest_labels_0_0_to_0_9_k_2():
    # float labels 0.1 apart made integer pair keys that neither order nor
    # split back as the (descendant, ancestor) tuples
    parent = {v / 10: (v + 1) / 10 if v < 9 else None for v in range(10)}
    with pytest.raises(ValueError, match="got 0.0"):
        shortcut_forest(parent, 2)


def test_shortcut_forest_label_true_k_2():
    with pytest.raises(ValueError, match="True"):
        shortcut_forest({True: None, 2: True, 3: 2, 4: 3}, 2)


def test_k1_path_is_full_closure():
    n = 20
    cuts = check_hop_bound(path_parent(n), 1)
    assert cuts.total_edges == n * (n - 1) // 2


def test_k1_tree_closure_count(rng):
    parent = random_tree_parent(rng, 30)
    cuts = check_hop_bound(parent, 1)
    assert cuts.total_edges == sum(len(ancestors(parent, v)) for v in parent)


def test_saturation_no_extras():
    # a path no longer than the hop budget needs nothing
    for k in (2, 3, 4):
        cuts = shortcut_forest(path_parent(k + 1), k)
        assert cuts.extra_edges == ()


def test_path_64_k2_exhaustive():
    n = 64
    cuts = check_hop_bound(path_parent(n), 2)
    n_pairs = n * (n - 1) // 2
    assert n_pairs == 2016
    # measured size should stay within a small factor of n log2 n
    assert cuts.total_edges <= 4 * reference_size(2, n)


def test_orientation_preserved(rng):
    parent = random_tree_parent(rng, 60)
    for k in (1, 2, 3):
        cuts = shortcut_forest(parent, k)
        for u, w in cuts.extra_edges:
            assert w in ancestors(parent, u), (u, w)


def test_hop_bound_exhaustive_paths_and_trees(rng):
    for k in (1, 2, 3, 4):
        check_hop_bound(path_parent(40), k)
        for _ in range(4):
            check_hop_bound(random_tree_parent(rng, rng.randint(2, 60)), k)


def test_forest_input():
    parent = {0: None, 1: 0, 2: 0, 3: None, 4: 3, 5: 4, 6: 5}
    for k in (1, 2):
        cuts = check_hop_bound(parent, k)
        for u, w in cuts.extra_edges:
            assert w in ancestors(parent, u)


def test_edge_counts_reported_per_k(rng):
    parent = random_tree_parent(rng, 200)
    counts = {k: shortcut_forest(parent, k).total_edges for k in (1, 2, 3, 4)}
    assert counts[1] >= counts[2] >= counts[3] >= counts[4]


def test_reference_size_values():
    assert reference_size(1, 64) == 64 * 32
    assert reference_size(2, 64) == pytest.approx(64 * 6)
    assert reference_size(3, 64) > 64
    assert reference_size(4, 2) >= 2


# -- the worklist against the recursive separator shortcutting -----------------


@st.composite
def forests(draw):
    """Upward forests of one to four trees, each a path or a random tree.
    The labels are ``range(n)`` as drawn, shuffled, or distinct ints drawn
    anywhere in +-2^40, negative ones included, so the shortcut's integer
    pair keys are checked on sparse labels too."""
    parent: dict[int, int | None] = {}
    for _ in range(draw(st.integers(1, 4))):
        base = len(parent)
        path = draw(st.booleans())
        parent[base] = None
        for v in range(1, draw(st.integers(1, 60))):
            parent[base + v] = base + (v - 1 if path else draw(st.integers(0, v - 1)))
    labels = draw(st.sampled_from(("range", "shuffled", "sparse")))
    if labels != "range":
        n = len(parent)
        if labels == "shuffled":
            label = draw(st.permutations(range(n)))
        else:
            label = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n, unique=True))
        parent = {label[v]: None if p is None else label[p] for v, p in parent.items()}
    return parent


@settings(max_examples=200, deadline=None)
@given(forests(), st.integers(1, 6))
@example({}, 2)
@example({0: None}, 2)
def test_matches_recursive_reference(parent, k):
    assert shortcut_forest(parent, k) == reference.shortcut_forest(parent, k)


@pytest.mark.parametrize("k", [2, 3])
def test_path_5000_matches_recursive_reference(k):
    parent = path_parent(5000)
    assert shortcut_forest(parent, k) == reference.shortcut_forest(parent, k)


@pytest.mark.parametrize("k", [2, 3])
def test_path_64_labels_minus_3v_minus_7_matches_recursive_reference(k):
    # sparse negative labels: the pair keys count from the smallest label
    parent = {-3 * v - 7: (-3 * v - 10 if v < 63 else None) for v in range(64)}
    cuts = shortcut_forest(parent, k)
    assert cuts == reference.shortcut_forest(parent, k)
    assert cuts.extra_edges and all(u < -6 and a < -6 for u, a in cuts.extra_edges)
