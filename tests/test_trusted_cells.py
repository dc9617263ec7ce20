"""Every cell the library builds through the trusted ``CellId.derived``
passes the checks of ``CellId(...)``, and every point it builds through
``HPoint.derived`` those of ``HPoint(...)``.

With ``derived`` patched to the checking constructor, which also asks
for a coordinate tuple (and, for points, floats only), each build below
must raise nothing and give the same output as the unpatched build.
"""

import hashlib
import io
import json
import random

import pytest

from halfspace.avd import build_avd, query, query_hyperbolic
from halfspace.oracle import d1_bfs
from halfspace.pointfile import read_points, write_points
from halfspace.sampling import STRATIFIED, sample_continuous, sample_margin_cells
from halfspace.spanner import build_hyperbolic_spanner
from halfspace.tiling import CellId, HPoint
from halfspace.verification import run_verification

from test_golden_artifacts import CASES, GOLDEN


class CheckedDerived:
    """Routes ``CellId.derived`` through ``CellId(...)`` while installed
    and counts the calls."""

    def __init__(self, monkeypatch):
        self.n = 0

        def checked(level, coords):
            self.n += 1
            if type(coords) is not tuple:
                raise ValueError(f"cell coordinates {coords!r} are no tuple")
            return CellId(level, coords)

        monkeypatch.setattr(CellId, "derived", staticmethod(checked))


class CheckedPoints:
    """Routes ``HPoint.derived`` through ``HPoint(...)`` while installed
    and counts the calls."""

    def __init__(self, monkeypatch):
        self.n = 0

        def checked(x, z):
            self.n += 1
            if type(x) is not tuple or not all(type(v) is float for v in (*x, z)):
                raise ValueError(f"point values {x!r}, {z!r} are no tuple of floats and a float")
            return HPoint(x, z)

        monkeypatch.setattr(HPoint, "derived", staticmethod(checked))


CHECKED = {"cells": CheckedDerived, "points": CheckedPoints}

# the golden cases built from continuous points, which normalize moves
CONTINUOUS_CASES = ["avd-continuous-d2", "avd-continuous-d3", "embedding-d2", "spanner-d2", "spanner-d3"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifacts_build_the_same_with_checked_derived_cells(monkeypatch, name):
    build, dim, n, seed = CASES[name]
    checked = CheckedDerived(monkeypatch)
    digest = hashlib.sha256(build(dim, n, seed).encode()).hexdigest()
    assert digest == GOLDEN[name]
    assert checked.n > 0


@pytest.mark.parametrize("name", CONTINUOUS_CASES)
def test_golden_artifacts_build_the_same_with_checked_derived_points(monkeypatch, name):
    build, dim, n, seed = CASES[name]
    checked = CheckedPoints(monkeypatch)
    digest = hashlib.sha256(build(dim, n, seed).encode()).hexdigest()
    assert digest == GOLDEN[name]
    assert checked.n > 0


def _d3_avd_and_answers():
    cells = sample_margin_cells(random.Random(21), 3, 96, min_level=-12)
    ix = build_avd(cells)
    probes = sample_margin_cells(random.Random(22), 3, 40, min_level=-14)
    return ix.to_json(), [query(ix, c) for c in probes]


def _d2_hyperbolic_spanner_and_answers():
    pts = sample_continuous(random.Random(23), 2, 256, mode=STRATIFIED, min_level=-30)
    spanner = json.dumps(build_hyperbolic_spanner(pts, k=2).to_dict(), sort_keys=True)
    ix = build_avd(pts)
    probes = sample_continuous(random.Random(24), 2, 200, mode=STRATIFIED, min_level=-32)
    answers = [query_hyperbolic(ix, q) for q in probes]
    outside = [query_hyperbolic(ix, HPoint((x,), z)) for x, z in ((-3.5, 0.25), (1e6, 1e-9), (0.5, 1e9))]
    return spanner, answers, outside


def _points_and_moves():
    cells = sample_margin_cells(random.Random(25), 3, 16, min_level=-8)
    fp = io.StringIO()
    write_points(fp, cells)
    fp.seek(0)
    _, _, back = read_points(fp)
    return back, [d1_bfs(cells[0], c) for c in cells[1:6]]


@pytest.mark.parametrize("build", [_d3_avd_and_answers, _d2_hyperbolic_spanner_and_answers, _points_and_moves])
def test_builds_and_answers_are_the_same_with_checked_derived_cells(monkeypatch, build):
    expected = build()
    checked = CheckedDerived(monkeypatch)
    assert build() == expected
    assert checked.n > 0


def test_d2_hyperbolic_spanner_and_answers_are_the_same_with_checked_derived_points(monkeypatch):
    # moved inputs (normalize) and Steiner centers (center) are trusted
    expected = _d2_hyperbolic_spanner_and_answers()
    checked = CheckedPoints(monkeypatch)
    assert _d2_hyperbolic_spanner_and_answers() == expected
    assert checked.n > 0


@pytest.mark.parametrize("kind", sorted(CHECKED))
def test_verify_dim_2_n_32_is_the_same_with_checked_derived_values(monkeypatch, kind):
    expected = run_verification(dim=2, n=32, seed=0)
    checked = CHECKED[kind](monkeypatch)
    assert run_verification(dim=2, n=32, seed=0) == expected
    assert checked.n > 0
