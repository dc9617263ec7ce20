"""The cyclic collector pause around the library's builders and loaders.

``tiling.collector_paused`` must hand back the collector state it
found, and run one generation-1 collection on exit only when the block
left a generation-1 cycle's worth of new objects.  The cost guard
counts, with ``gc.callbacks``, the collections that start inside each
paused entry point, the point-file reader included: no full
collection, and at most one of any kind per call.  The index writer
runs unpaused, and builds too few objects the collector tracks to need
the pause: the same bound holds for it.
"""

import gc
import io
import json
import random

import pytest

from halfspace.avd import AvdIndex, build_avd
from halfspace.hyperbolic import normalize_and_embed
from halfspace.pointfile import read_points, write_points
from halfspace.quadtree import QuadTree, build_quadtree
from halfspace.sampling import STRATIFIED, sample_continuous, sample_margin_cells
from halfspace.spanner import build_embedding_graph, build_hyperbolic_spanner, build_spanner
from halfspace.tiling import collector_paused


@pytest.fixture
def collector_on():
    """The collector enabled and freshly collected, and its state restored
    after the test."""
    was = gc.isenabled()
    gc.enable()
    gc.collect()
    yield
    if not was:
        gc.disable()


def collections_during(call, *args) -> list[tuple[int, bool]]:
    """The generation of each collection that starts while ``call`` runs,
    and whether the collector was enabled then: an automatic collection
    starts enabled, the closing one of a pause disabled."""
    starts = []

    def probe(phase, info):
        if phase == "start":
            starts.append((info["generation"], gc.isenabled()))

    gc.callbacks.append(probe)
    try:
        call(*args)
    finally:
        gc.callbacks.remove(probe)
    return starts


def test_pause_turns_an_enabled_collector_off_and_back_on(collector_on):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_leaves_a_collector_the_caller_disabled_alone(collector_on):
    gc.disable()
    try:
        starts = []

        def block():
            with collector_paused():
                assert not gc.isenabled()
                starts.append([[] for _ in range(2 * _young_cycle())])

        assert collections_during(block) == []
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_pause_restores_the_collector_when_the_block_raises(collector_on):
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("inside")
    assert gc.isenabled()


def test_nested_pauses_turn_the_collector_back_on_at_the_outermost_exit(collector_on):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def _young_cycle() -> int:
    young, older, _ = gc.get_threshold()
    return young * older


def test_exit_collects_generation_1_once_after_a_large_block(collector_on):
    kept = []

    def block():
        with collector_paused():
            kept.append([[] for _ in range(_young_cycle() + 100)])

    assert collections_during(block) == [(1, False)]


def test_exit_collects_nothing_after_a_small_block(collector_on):
    # the first allocation once the collector is back on may start the
    # generation-0 collection the block's objects are due; the pause
    # itself adds none
    kept = []

    def block():
        with collector_paused():
            kept.append([[] for _ in range(_young_cycle() // 2)])

    assert [s for s in collections_during(block) if not s[1]] == []


# -- cost guard on the paused entry points -------------------------------------

# a spanner-build-sized input: 768 deep D = 2 points
_POINTS = sample_continuous(random.Random(1101), 2, 768, mode=STRATIFIED, min_level=-40)
_CELLS = normalize_and_embed(_POINTS)[2]
# an nn-query-sized input: 128 D = 2 points, down to level -24
_SMALL = sample_continuous(random.Random(1101), 2, 128, mode=STRATIFIED, min_level=-24)
_SMALL_INDEX = build_avd(_SMALL).to_json()
_TREE = json.loads(json.dumps(build_quadtree(_CELLS).to_dict()))


def _read(text: str):
    return read_points(io.StringIO(text))


_POINT_FILE = io.StringIO()
write_points(_POINT_FILE, _POINTS)

ENTRY_POINTS = {
    "build_hyperbolic_spanner_768": (build_hyperbolic_spanner, _POINTS, 2),
    "build_spanner_768": (build_spanner, _CELLS),
    "build_embedding_graph_768": (build_embedding_graph, _POINTS),
    "build_avd_128": (build_avd, _SMALL),
    "avd_from_json_128": (AvdIndex.from_json, _SMALL_INDEX),
    "quadtree_from_dict_768": (QuadTree.from_dict, _TREE),
    "read_points_768": (_read, _POINT_FILE.getvalue()),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_paused_entry_point_starts_no_full_collection_and_at_most_one(collector_on, name):
    # unpaused, one D = 2 spanner build of 768 points started about 50
    # generation-0, 5 generation-1 and 0-1 full collections, and one read
    # of its point file 2 generation-0 collections
    call, *args = ENTRY_POINTS[name]
    starts = collections_during(call, *args)
    assert all(generation < 2 for generation, _ in starts)
    assert len(starts) <= 1


def test_small_build_avd_takes_no_closing_collection(collector_on):
    # 128 points leave about 5,000 new objects, fewer than a
    # generation-1 cycle, so the pause ends with no collection of its own
    assert [s for s in collections_during(build_avd, _SMALL) if not s[1]] == []


def test_spanner_build_takes_the_closing_collection(collector_on):
    assert (1, False) in collections_during(build_hyperbolic_spanner, _POINTS, 2)


# eight avd-build-sized indexes: 128 D = 3 margin cells down to level -13
_INDEXES = [build_avd(sample_margin_cells(random.Random(1101 + s), 3, 128, min_level=-13)) for s in range(8)]


@pytest.mark.parametrize("s", range(len(_INDEXES)))
def test_index_writer_starts_no_full_collection_and_at_most_one(collector_on, s):
    # building a dict per node and annotation for json.dumps started
    # 11-13 collections per call on these indexes
    starts = collections_during(_INDEXES[s].to_json)
    assert all(generation < 2 for generation, _ in starts)
    assert len(starts) <= 1
