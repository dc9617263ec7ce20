"""The one-pass text writers write what ``json.dumps`` wrote.

:meth:`QuadTree.to_json` and :meth:`AvdIndex.to_json` write each node's
record as text in one preorder pass.  Their output must equal, byte for
byte, ``json.dumps(..., sort_keys=True)`` of the dicts the replaced
writers built (``tests/reference.py``): for trees and indexes at D = 2-5
from discrete and continuous inputs, for loaded indexes holding ``null``
annotations, empty ``reps`` and an int transform scale, and for the
index whose coordinate has the most digits a tree takes.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.avd import AvdIndex, build_avd
from halfspace.quadtree import DEEPEST_LEVEL, QuadTree, build_quadtree
from halfspace.sampling import STRATIFIED, sample_cells, sample_continuous, sample_margin_cells
from halfspace.tiling import CellId

from reference import avd_to_json, quadtree_to_dict


def assert_written_as_before(ix: AvdIndex) -> None:
    assert ix.to_json() == avd_to_json(ix)
    assert ix.tree.to_json() == json.dumps(quadtree_to_dict(ix.tree), sort_keys=True)
    assert ix.tree.to_dict() == quadtree_to_dict(ix.tree)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 24), st.integers(0, 2**32), st.booleans())
def test_index_and_tree_text_equal_json_dumps(dim, n, seed, continuous):
    rng = random.Random(seed)
    if continuous:
        points = sample_continuous(rng, dim, n, mode=STRATIFIED, min_level=-12)
    else:
        points = sample_margin_cells(rng, dim, n, min_level=-10)
    assert_written_as_before(build_avd(points))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 2**32))
def test_tree_text_equals_json_dumps(dim, n, seed):
    tree = build_quadtree(sample_cells(random.Random(seed), dim, n, min_level=-10))
    text = tree.to_json()
    assert text == json.dumps(quadtree_to_dict(tree), sort_keys=True)
    assert QuadTree.from_dict(json.loads(text)).to_json() == text


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 16), st.integers(0, 2**32), st.data())
def test_loaded_index_with_nulls_empty_reps_and_int_scale_writes_as_before(dim, n, seed, data):
    rng = random.Random(seed)
    ix = build_avd(sample_continuous(rng, dim, n, mode=STRATIFIED, min_level=-12))
    doc = json.loads(ix.to_json())
    for note in doc["annotations"]:
        edit = data.draw(st.sampled_from(("keep", "null", "empty reps")))
        if edit == "null":
            note.update(h=None, n2=None, reps=None)
        elif edit == "empty reps":
            note["reps"] = []
    doc["annotations"][0]["h"] = data.draw(st.sampled_from((None, doc["highest_index"])))
    doc["transform"]["scale"] = 1
    text = json.dumps(doc, sort_keys=True)
    back = AvdIndex.from_json(text)
    assert type(back.transform.scale) is int
    assert_written_as_before(back)
    assert back.to_json() == text


def test_index_at_deepest_level_with_the_largest_coordinate_writes_as_before():
    margin_top = (1 << (-DEEPEST_LEVEL - 1)) - 1
    ix = build_avd([CellId(DEEPEST_LEVEL, (margin_top,)), CellId(-2, (1,))])
    assert_written_as_before(ix)
    assert_written_as_before(AvdIndex.from_json(ix.to_json()))
