"""Byte-identity of built artifacts across implementation changes.

Each case builds a quadtree, an AVD index, a d1 spanner, an embedding
graph or a hyperbolic spanner from fixed ``halfspace.sampling`` inputs and compares the SHA-256 of its JSON with
a hash recorded from an earlier implementation.  A faster algorithm
must reproduce these bytes exactly; a deliberate change of output
format or content has to update the hash and say why.
"""

import hashlib
import json
import random

import pytest

from halfspace.avd import build_avd
from halfspace.quadtree import build_quadtree
from halfspace.sampling import STRATIFIED, sample_cells, sample_continuous, sample_margin_cells
from halfspace.spanner import build_embedding_graph, build_hyperbolic_spanner, build_spanner


def _avd_margin(dim, n, seed):
    return build_avd(sample_margin_cells(random.Random(seed), dim, n, min_level=-10)).to_json()


def _avd_continuous(dim, n, seed):
    pts = sample_continuous(random.Random(seed), dim, n, mode=STRATIFIED, min_level=-12)
    return build_avd(pts).to_json()


def _spanner(dim, n, seed):
    pts = sample_continuous(random.Random(seed), dim, n, mode=STRATIFIED, min_level=-12)
    return json.dumps(build_hyperbolic_spanner(pts, k=2).to_dict(), sort_keys=True)


def _quadtree(dim, n, seed):
    return json.dumps(build_quadtree(sample_cells(random.Random(seed), dim, n, min_level=-10)).to_dict(), sort_keys=True)


def _d1_spanner(dim, n, seed):
    cells = sample_margin_cells(random.Random(seed), dim, n, min_level=-10)
    return json.dumps(build_spanner(cells).to_dict(), sort_keys=True)


def _embedding(dim, n, seed):
    pts = sample_continuous(random.Random(seed), dim, n, mode=STRATIFIED, min_level=-12)
    graph, mapping, t = build_embedding_graph(pts)
    data = {"graph": graph.to_dict(), "mapping": mapping, "scale": t.scale, "shift": list(t.shift)}
    return json.dumps(data, sort_keys=True)


CASES = {
    "avd-margin-d2": (_avd_margin, 2, 200, 11),
    "avd-margin-d3": (_avd_margin, 3, 96, 12),
    "avd-continuous-d2": (_avd_continuous, 2, 128, 13),
    "avd-continuous-d3": (_avd_continuous, 3, 64, 14),
    "spanner-d2": (_spanner, 2, 400, 15),
    "spanner-d3": (_spanner, 3, 200, 16),
    "quadtree-d3": (_quadtree, 3, 300, 17),
    "d1-spanner-margin-d2": (_d1_spanner, 2, 300, 18),
    "embedding-d2": (_embedding, 2, 300, 19),
}

GOLDEN = {
    "avd-continuous-d2": "1585d739b22c1849505f05bd3a3480ee288f95f23c294990c08e15073e8cdcd6",
    "avd-continuous-d3": "c60461c75d0f2179eb1d6e5a9429c80458c93cf79631136a8c61faa0ee551351",
    "avd-margin-d2": "d37ca2677fe06d901236b413b9e1362e9dae627632e6e1cc184f5453f5e6deae",
    "avd-margin-d3": "acd81b2fbbde1d83f0f55cf56224bb6d426f8d9a5133426751318ccc68fa6822",
    "d1-spanner-margin-d2": "384bad6477dfb34540fe57e5ce1577cad25fb4648ffde5a97fbff4b5162aa58b",
    "embedding-d2": "2cb14210e51f820143c5839ee6f946f3a90b60381d231cf89880166aa37c51f7",
    "quadtree-d3": "b26375cad25e85f70f5b899acc4c20c37d36426ec81179113d65c80df36d82a4",
    "spanner-d2": "2b3b6e6d5ef0fc47531a3dd82653fd709c49c71b92aa026cbdbac513f27d802b",
    "spanner-d3": "98f788413f76c05462b2ad408f8d0cae4b14c428d96e0699c965a163a6824688",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_hash(name):
    build, dim, n, seed = CASES[name]
    digest = hashlib.sha256(build(dim, n, seed).encode()).hexdigest()
    assert digest == GOLDEN[name]
