"""Every cell the library builds through the trusted ``CellId.derived``
passes the checks of ``CellId(...)``.

With ``derived`` patched to the checking constructor, which also asks
for a coordinate tuple, each build below must raise nothing and give
the same output as the unpatched build.
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifacts_build_the_same_with_checked_derived_cells(monkeypatch, name):
    build, dim, n, seed = CASES[name]
    checked = CheckedDerived(monkeypatch)
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
