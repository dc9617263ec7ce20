"""The verifier's own sections: the hop check of the shortcut forest
and the AVD's out-of-root queries."""

import random

from halfspace import avd, shortcut, verification
from halfspace.verification import OUT_OF_ROOT_QUERIES_PER_SET, SETS, check_avd, check_shortcut


def test_check_avd_asks_out_of_root_queries():
    report = check_avd(random.Random(0), 2, 8)
    assert report["out_of_box_queries_flagged"] == SETS * OUT_OF_ROOT_QUERIES_PER_SET
    assert report["query_mismatches"] == 0 and report["ok"]


def test_check_avd_counts_each_wrong_out_of_root_answer(monkeypatch):
    right = avd.query

    def wrong_outside(ix, q):
        got = right(ix, q)
        return got if ix.tree.in_root(q) else got + 1

    monkeypatch.setattr(avd, "query", wrong_outside)
    report = check_avd(random.Random(0), 3, 8)
    assert report["query_mismatches"] == SETS * OUT_OF_ROOT_QUERIES_PER_SET
    assert not report["ok"]


def test_check_shortcut_counts_a_missing_shortcut(monkeypatch):
    assert check_shortcut(random.Random(0), 16)["hop_violations"] == 0

    def tree_only(parent, k):
        return shortcut.ShortcutSet(dict(parent), k, ())

    monkeypatch.setattr(verification, "shortcut_forest", tree_only)
    report = check_shortcut(random.Random(0), 16)
    assert report["hop_violations"] > 0 and not report["ok"]
