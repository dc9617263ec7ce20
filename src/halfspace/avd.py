"""Voronoi-style index answering exact d2 nearest-neighbor queries.

Construction: build the compressed quadtree of the input cells, refine
it by building a second tree whose nodes also include the horizontal
neighbors of every occupied box (for compressed nodes both the outer
and the inner box contribute; the boxes are gathered as integer tuples
in one set, one cell is made per distinct box, and one Z-order build
takes them, with no insertions), then
annotate the refined tree bottom-up with the highest input per subtree
and top-down with the nearest input to every box center.  The top-down
pass reads the nodes under each box's horizontal neighbors from
:meth:`QuadTree.neighbor_rows`, which derives them from the parent
level's neighbors instead of locating each neighbor from the root, one
block of 4^(D-1) - 2^(D-1) boxes per ordinary node and per non-empty
compressed-gap level, lists a node only if it holds an input, and
computes no row below an empty row of a gap, so annotation is linear in
the refined tree's nodes plus their non-empty compressed-gap levels.
Each node's region is: the box center alone (ordinary), everything on
or below the box (leaf), or everything on or below the outer box but
not the inner one (compressed).  Representatives are the node's nearest
input plus, for leaf and compressed regions, the inner box's highest
input and the highest input of every compressed node of the unrefined
tree whose box meets the boundary of the region's box and whose child
box does not contain the region.  Those nodes come from one more top-down pass that
hands each refined node's boundary candidates down to its children and
searches only below the node's own box, never from the root, so a
nested chain costs a constant per level.  The search is the pruned
boundary descent :func:`~halfspace.quadtree.compressed_on_boundary`,
which the spanner's bridge search shares; at an ordinary node each
candidate is tested once against the whole block of children
(:func:`~halfspace.quadtree.block_meets`), not once per child.  A query
locates its region and takes the exact-d2 argmin over representatives,
ties to the smallest input index: one region lookup
(:meth:`~halfspace.quadtree.QuadTree.smallest_containing`: a jump to
the tree's start table, then a descent that takes a step or two at
the median on indexes of 800 to 2,500 nodes), one closed-form climb
per representative beyond the first
(:func:`~halfspace.metrics.d2_argmin`, the one argmin, which the
annotation shares), and for a continuous query one :class:`CellId`:
:meth:`~halfspace.hyperbolic.NormalizeTransform.cell_of` places the
point, the one method that placed the inputs at build time, and builds
no moved point.  In the hyperbolic plane (D = 2) every cell has one
coordinate, and the whole query path takes a scalar branch picked by
that count: the level and the floor of the moved coordinate are taken
inline, the root-shadow test is one shift, each descent step and each
d2 is a few integer shifts and compares, and no list, ``zip`` or
per-coordinate loop is made.  :func:`query_hyperbolic` calls
``cell_of``, ``region_of`` and ``d2_argmin`` itself, with no
:func:`query` layer.  At D = 3 the descent and the
climb take two-axis steps, the two coordinates unpacked and no ``zip``
made.  Both branches are picked by the coordinate count the code reads
anyway; D >= 4 keeps the loops.  The answers are the same either way.

Queries whose x-projection leaves the unit box, or that sit above the
root level, return the highest input point outright.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import asdict, dataclass
from itertools import product
from operator import itemgetter

from .hyperbolic import NormalizeTransform, normalize_and_embed
from .metrics import d2_argmin
from .pointfile import CONTINUOUS, DISCRETE
from .quadtree import COMPRESSED, ORDINARY, QuadNode, QuadTree, are_indices, block_meets, compressed_on_block, compressed_on_boundary, is_index, json_fields, meets_boundary, shadow_within
from .tiling import CellId, HPoint, collector_paused

_MARGIN_NOTE = "input x-projections must lie in [1/4, 1/2] per axis"


def _within_margin(cell: CellId) -> bool:
    """Center x-coordinates in [1/4, 1/2] per axis, checked exactly."""
    if cell.level == 0:
        return all(k == 0 for k in cell.coords)
    t = -1 - cell.level
    return all((1 << t) <= 2 * k + 1 <= (1 << (t + 1)) for k in cell.coords)


def _highest_key(points: list[CellId]):
    def key(i: int):
        return (-points[i].level, i)

    return key


def fill_highest(tree: QuadTree) -> None:
    """Bottom-up pass: h = highest-level input per subtree, ties by index."""
    key = _highest_key(tree.points)
    for node in reversed(list(tree.iter_nodes())):
        best = node.stored_index
        for ch in node.children:
            sub = ch.h_index
            if sub is not None and (best is None or key(sub) < key(best)):
                best = sub
        node.h_index = best


def refine(tree: QuadTree) -> QuadTree:
    """A new tree over the same points whose nodes include the
    horizontal neighbors of every occupied box.

    One build over the inputs plus those boxes; the input tree is left
    untouched.  Boxes that would leave the root shadow are skipped: the
    [1/4, 1/2] margin precondition makes them empty anyway.  The boxes
    are gathered as ``(level, coords)`` integer tuples in one set, per
    axis only the neighbor coordinates in ``range(2 ** -level)`` (the
    test of :meth:`QuadTree.in_root`), and one cell is made per distinct
    box.
    """
    if not tree.points:
        raise ValueError("refinement needs a nonempty point set")
    for c in tree.points:
        if not _within_margin(c):
            raise ValueError(f"{c!r} violates the margin precondition: {_MARGIN_NOTE}")
    boxes = set()
    add = boxes.add
    for node in tree.iter_nodes():
        if node.count:
            level, coords = node.cell.level, node.cell.coords
            top = 1 << -level
            for nb in product(*[[x for x in (k - 1, k, k + 1) if 0 <= x < top] for k in coords]):
                if nb != coords:
                    add((level, nb))
    return QuadTree(tree.dim, tree.points, [CellId.derived(level, nb) for level, nb in boxes])


def annotate(tree: QuadTree) -> None:
    """Fill h and n2 on every node of a refined tree.

    n2 minimizes exact d2 from the box center over four candidate
    groups: the parent's n2, the subtree's highest input, the highest
    inputs under the box's horizontal neighbors, and - when the parent
    sits more than one level up - the highest inputs under neighbors of
    every ancestor inside the compressed gap.  The nodes under those
    neighbor boxes come from one preorder pass
    (:meth:`QuadTree.neighbor_rows`) that derives each level's row from
    the row above, lists only nodes holding inputs, and computes none
    below an empty row of a gap (those rows are one shared all-None
    list, read once here, and add no candidate).  Nodes keep no parent
    link, so the parent's n2 reaches a node through its own
    ``n2_index``: each node seeds its children's once its own is set,
    and the preorder pass visits them later.
    :func:`~halfspace.metrics.d2_argmin` evaluates d2 once
    per distinct candidate (none for a single one), and the argmin over
    ``(d2, index)`` does not depend on the order.
    """
    fill_highest(tree)
    points = tree.points
    root = tree.root
    if root.h_index is None:
        raise ValueError("annotate needs at least one stored input")
    root.n2_index = root.h_index  # every input lies on or below the root
    for node, rows in tree.neighbor_rows():
        if node is not root:
            # n2_index holds the parent's n2 until the node is visited
            candidates = {node.n2_index, node.h_index}
            add = candidates.add
            last = None
            for row in rows:
                if row is not last:  # a gap's shared empty rows are read once
                    for t in row:
                        if t is not None:
                            add(t.h_index)
                    last = row
            candidates.discard(None)
            node.n2_index = d2_argmin(node.cell, points, candidates)
        # preorder visits a node's children after it: seed them
        n2 = node.n2_index
        for child in node.children:
            child.n2_index = n2


def select_representatives(refined: QuadTree, base: QuadTree) -> None:
    """Attach representative input indices to every refined node.

    An ordinary region keeps its node's nearest input alone.  A leaf or
    compressed region R keeps that input, its child's highest input when
    R is compressed (bridges landing inside R's own gap), and the
    highest input of every occupied compressed node nu of the unrefined
    tree whose box meets the boundary of R's box and whose child box does
    not contain R: nu's gap can host the far end of a query's bridge.

    The rule is exact: it gives the sets of the region-adjacency test,
    which also counts the nodes touching a compressed R's inner box I
    from inside.  Refinement only adds keys, so every node of the unrefined
    tree is a node of the refined one, and none lies under a leaf R or
    in a compressed R's annulus.  A node inside I touching the boundary
    of I away from that of R would put its horizontal neighbor across
    that face, which refinement makes a node, in the annulus; so every
    such node meets R's boundary, except I itself, whose highest input R
    keeps already (as does a node whose box is R).

    The candidates come from one top-down pass over the refined tree.
    For each node R it carries the occupied compressed unrefined nodes
    whose closed box meets R's boundary without strictly containing R's
    box, split into those outside R's box and those inside it, and
    B(R), the lowest unrefined node containing R's box.  Of the nodes
    containing R's box only B(R) can have a child box missing R, so
    B(R) is the one container a region may keep.  For a refined child
    R' of R:

    * a node outside R's box that meets the closed box of R' touches R,
      so it is among R's outside nodes, and stays if it meets the
      boundary of R';
    * the nodes inside R's box lie under the unrefined nodes right below
      it: R's own children when R is unrefined, else B(R)'s child if it
      lies inside R.  No unrefined node lies strictly between R' and R,
      so each of these lies, with its subtree, inside R' or outside it.
      A pruned descent from each (:func:`compressed_on_boundary`)
      finds the rest, since meeting a boundary is monotone upward in
      the tree; it passes through the other kinds of node and keeps
      the compressed ones.  An ordinary R' keeps its nearest input
      alone, so its inside descent is skipped;
    * B(R') is R' when R' is unrefined, and B(R) otherwise.

    At an ordinary R the children form a block of 2^(D-1) boxes, and
    each outside node and each node a descent from a start reaches is
    tested once against the whole block (:func:`block_meets`, a bitmask
    of the children whose closed box it meets) instead of once per
    child with :func:`meets_boundary`.  That is exact because every
    such node is interior-disjoint from the children it is tested
    against: an outside node lies outside R's box, and a start, with
    every node below it, lies in one child, its home, whose bit the
    descent (:func:`compressed_on_block`) drops.  For a box
    interior-disjoint from a child, meeting the child's closed box is
    meeting its boundary, since a point of the box inside the child's
    open interior would put part of the box's interior there.  The
    starts lie in distinct children: they
    are the child cells of an ordinary unrefined node, or one node.  A
    compressed R has one child and keeps :func:`meets_boundary`, as does
    the home child's inside descent (:func:`compressed_on_boundary`).

    Nothing descends from the root: per node the work is the boundary
    nodes carried from the parent plus the descents below its box, so a
    nested chain costs a constant per level.
    """
    fill_highest(base)
    inside: list[QuadNode] = []
    compressed_on_boundary(base.root, refined.root.cell, inside)
    # (refined node, outside nodes, inside nodes, B(node), node is unrefined)
    stack = [(refined.root, [], inside, base.root, True)]
    while stack:
        node, outside, inside, low, own = stack.pop()
        box = node.cell
        if node.kind == ORDINARY:
            node.reps = [node.n2_index]
        else:
            reps = {node.n2_index}
            add = reps.add
            if node.kind == COMPRESSED and node.children[0].h_index is not None:
                add(node.children[0].h_index)
            for nu in outside:
                add(nu.h_index)
            for nu in inside:
                add(nu.h_index)
            if not own and low.kind == COMPRESSED and low.count:
                add(low.h_index)
            node.reps = sorted(reps)
        kids = node.children
        if not kids:
            continue
        if own or (low.kind == COMPRESSED and shadow_within(low.children[0].cell, box)):
            starts = low.children
        else:
            starts = ()
        if node.kind == ORDINARY:
            # one test per node against the whole block of children
            outs: list[list[QuadNode]] = [[] for _ in kids]
            homes: list[QuadNode | None] = [None] * len(kids)
            for nu in outside:
                m = block_meets(nu.cell, box)
                i = 0
                while m:
                    if m & 1:
                        outs[i].append(nu)
                    m >>= 1
                    i += 1
            lev = box.level - 1
            for s in starts:
                t = lev - s.cell.level
                i = 0
                for k in s.cell.coords:
                    i = (i << 1) | ((k >> t) & 1)
                compressed_on_block(s, box, i, outs)
                homes[i] = s  # the starts lie in distinct children
            for child, out2, s in zip(kids, outs, homes):
                in2: list[QuadNode] = []
                below = low
                if s is not None:
                    if child.kind != ORDINARY:
                        compressed_on_boundary(s, child.cell, in2)
                    if s.cell.level == lev:
                        below = s  # the child is an unrefined node
                stack.append((child, out2, in2, below, below is not low))
        else:
            (child,) = kids
            c = child.cell
            out2 = [nu for nu in outside if meets_boundary(nu.cell, c)]
            in2 = []
            below = low
            for s in starts:
                if not shadow_within(s.cell, c):
                    compressed_on_boundary(s, c, out2)
                    continue
                if s.cell.level == c.level:
                    below = s  # the child is an unrefined node
                if child.kind != ORDINARY:
                    compressed_on_boundary(s, c, in2)
            stack.append((child, out2, in2, below, below is not low))


def _annotation_record(node: QuadNode) -> str:
    """A node's ``{"h": .., "n2": .., "reps": [..]}`` as JSON text, as
    ``json.dumps(..., sort_keys=True)`` writes it: ``null`` for None,
    and ``reps`` as Python writes a list of ints, which is JSON's text."""
    h, n2, reps = node.h_index, node.n2_index, node.reps
    return f'{{"h": {"null" if h is None else h}, "n2": {"null" if n2 is None else n2}, "reps": {"null" if reps is None else reps}}}'


@dataclass
class AvdIndex:
    """Refined, annotated tree plus everything a query needs."""

    tree: QuadTree
    transform: NormalizeTransform | None
    highest_index: int

    @property
    def points(self) -> list[CellId]:
        return self.tree.points

    @property
    def source_kind(self) -> str:
        """The kind of point file the index was built from: continuous
        exactly when it holds a transform, which :meth:`from_json` checks."""
        return DISCRETE if self.transform is None else CONTINUOUS

    def region_of(self, q: CellId) -> QuadNode:
        """The unique node whose Voronoi region contains the cell center:
        the lowest node whose box contains ``q``.

        Raises ``ValueError`` when ``q`` is not on or below the root
        cell, inside its shadow: no region holds it.  That is
        :meth:`QuadTree.in_root`'s test.  A cell with one coordinate
        (D = 2) takes it here on the scalar: refused in a tree of
        another dimension and where ``level > 0 or k >> -level``, as
        :meth:`QuadTree.smallest_containing` and
        :func:`~halfspace.metrics.d2_argmin` take their D = 2 branches.
        Other cells pay one ``len`` compare for it.
        """
        tree = self.tree
        coords = q.coords
        if len(coords) == 1:
            level = q.level
            outside = tree.dim != 2 or level > 0 or coords[0] >> -level
        else:
            outside = not tree.in_root(q)
        if outside:
            raise ValueError(f"{q!r} lies outside the root cell's shadow")
        return tree.smallest_containing(q)

    def to_json(self) -> str:
        """The index as JSON text, written in the tree's one preorder
        pass (:meth:`QuadTree.to_json`).

        A JSON object with sorted keys: ``annotations``, one
        ``{"h": .., "n2": .., "reps": [..]}`` per node, annotation k for
        node k; ``dim``; ``highest_index``; ``nodes``, in preorder, each
        with its parent's index; ``points``; ``source_kind``; and
        ``transform``, null or ``{"scale": .., "shift": [..]}``.  The
        text is byte for byte what ``json.dumps(data, sort_keys=True)``
        writes of the same data, which :meth:`from_json` reads back.
        """
        t = self.transform
        return self.tree.to_json(
            _annotation_record,
            highest_index=json.dumps(self.highest_index),
            source_kind=json.dumps(self.source_kind),
            transform="null" if t is None else json.dumps(asdict(t), sort_keys=True),
        )

    @classmethod
    def from_json(cls, text: str) -> "AvdIndex":
        """Load an index written by :meth:`to_json`.

        Annotation k belongs to node k of the file, in whatever order
        the file lists its nodes.  Raises ``ValueError``, naming the
        entry, unless the text is JSON whose integers Python converts
        (within its digit limit), a JSON object holding a tree
        :meth:`QuadTree.from_dict` takes, one annotation object per
        node, ``highest_index``, ``source_kind`` and ``transform``;
        every input index (``h``, ``n2``, ``reps`` and
        ``highest_index``) lies in ``range(len(points))``; node 0's
        ``h``, the root's highest input, is null or ``highest_index``;
        and the transform is null with source kind "discrete", or an
        object whose scale and ``dim - 1`` shift values
        :class:`NormalizeTransform` takes, with source kind
        "continuous".  ``null`` marks a node the AVD passes did not
        annotate; a query landing there raises ``ValueError``.  One
        pass, O(nodes + reps).
        """
        with collector_paused():
            try:
                data = json.loads(text)
            except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, or nesting too deep
                raise ValueError(f"index is no JSON: {exc}") from None
            fields = itemgetter("annotations", "highest_index", "source_kind", "transform")
            annotations, highest, source_kind, t = json_fields(data, fields, "index")
            tree, nodes = QuadTree.from_dict_with_nodes(data)
            if type(annotations) is not list:
                raise ValueError(f"annotations is no JSON array: {reprlib.repr(annotations)}")
            if len(annotations) != len(nodes):
                raise ValueError(f"index has {len(nodes)} nodes but {len(annotations)} annotations")
            n = len(tree.points)
            fields = itemgetter("h", "n2", "reps")
            # one pass checks h and n2 and links each annotation; the reps
            # entries of all of them are checked at once after it, in C-level
            # passes (are_indices), so a fault is named after the pass
            listed: list = []
            for k, (node, extra) in enumerate(zip(nodes, annotations)):
                try:
                    h, n2, reps = fields(extra)
                except (KeyError, TypeError):  # no object, or a key missing
                    break
                if not ((h is None or is_index(h, n)) and (n2 is None or is_index(n2, n)) and (reps is None or type(reps) is list)):
                    break
                if reps:
                    listed += reps
                node.h_index, node.n2_index, node.reps = h, n2, reps
            else:
                k = len(annotations)
            if k < len(annotations) or not are_indices(listed, n):
                # the first faulty annotation: one before k whose reps hold
                # no input index, else k itself
                k = next((j for j, extra in enumerate(annotations[:k]) if not are_indices(extra["reps"] or [], n)), k)
                extra = annotations[k]
                json_fields(extra, fields, "annotation", k)
                raise ValueError(f"annotation {k} {extra!r}: h, n2 and reps must be null or input indices in range({n})")
            if not is_index(highest, n):
                raise ValueError(f"highest_index {highest!r} is no input index in range({n})")
            if nodes[0].h_index not in (None, highest):
                raise ValueError(f"highest_index {highest!r} is not node 0's h {nodes[0].h_index!r}, the root's highest input")
            if t is None:
                transform = None
            else:
                scale, shift = json_fields(t, itemgetter("scale", "shift"), "transform")
                if type(shift) is not list or len(shift) != tree.dim - 1:
                    raise ValueError(f"transform shift {shift!r} is no list of {tree.dim - 1} numbers")
                transform = NormalizeTransform(scale, tuple(shift))
            index = cls(tree, transform, highest)
            if source_kind != index.source_kind:
                raise ValueError(f"source_kind {source_kind!r} is not {index.source_kind!r}, as the transform implies")
            return index


def build_avd(points: list[HPoint] | list[CellId]) -> AvdIndex:
    """Index a point set; continuous inputs are normalized and embedded."""
    if not points:
        raise ValueError("cannot index an empty point set")
    with collector_paused():
        if isinstance(points[0], HPoint):
            transform, _, cells = normalize_and_embed(points)
        else:
            transform, cells = None, list(points)
        base = QuadTree(cells[0].dim, cells)
        refined = refine(base)
        annotate(refined)
        select_representatives(refined, base)
        return AvdIndex(refined, transform, refined.root.h_index)


def query(ix: AvdIndex, q: CellId) -> int:
    """Index of the exact d2-nearest input, ties to the smallest index.

    One region lookup and one :func:`~halfspace.metrics.d2_argmin`
    over the region's representatives: no d2 for a single one.  A cell
    outside the root shadow gets the highest input, unless its
    dimension is not the index's: that raises ``ValueError``.
    """
    try:
        node = ix.region_of(q)
    except ValueError:
        # in_root rejects every cell of another dimension, so only this
        # branch needs the check
        if len(q.coords) != ix.tree.dim - 1:
            raise ValueError(f"query {q!r} has dimension {q.dim}, the index {ix.tree.dim}") from None
        return ix.highest_index
    if not node.reps:
        raise ValueError(f"region {node.cell!r} carries no representatives")
    return d2_argmin(q, ix.tree.points, node.reps)


def query_hyperbolic(ix: AvdIndex, q: HPoint) -> int:
    """Approximate nearest neighbor for a continuous query point.

    One flat path: :meth:`NormalizeTransform.cell_of`, the method that
    placed the inputs, builds ``q``'s one :class:`CellId`; one
    :meth:`AvdIndex.region_of` locates its region, and
    :func:`~halfspace.metrics.d2_argmin` takes the argmin over the
    region's representatives.  The answers are :func:`query`'s on that
    cell, which ``cell_of`` has checked for dimension already: a cell
    outside the root shadow gets the highest input.  Raises
    ``ValueError`` when the index holds no transform, when ``q``'s
    dimension is not the index's, when the move takes the height to
    0.0 or a value out of the finite floats, and when the region
    carries no representatives.
    """
    t = ix.transform
    if t is None:
        raise ValueError("index was built from discrete cells; no transform stored")
    cell = t.cell_of(q)
    try:
        node = ix.region_of(cell)
    except ValueError:
        return ix.highest_index
    reps = node.reps
    if not reps:
        raise ValueError(f"region {node.cell!r} carries no representatives")
    return d2_argmin(cell, ix.tree.points, reps)
