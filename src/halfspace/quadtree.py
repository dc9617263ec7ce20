"""Compressed quadtree over quadtree boxes of the root cell's shadow.

Cells of the tiling at level <= 0 inside the root cell [0,1]^(D-1) x
[1,2] project to dyadic boxes of [0,1]^(D-1); the tree stores a set of
such boxes (not raw points), so one input can sit above another.

A tree is made from its *keys*: the input boxes, any boxes that must be
nodes without storing an input (the AVD refinement's neighbor boxes),
the root, and the ``meet`` of every two of them.  One rule gives each
key its kind from the keys right below it (its key children):

* ordinary -- two or more key children, or an input box with another
  input strictly below it.  All 2^(D-1) child cells are nodes, in
  :func:`~halfspace.tiling.children` order, so that leaf boxes and
  compressed regions exactly partition the root shadow: a child cell
  without keys is a leaf, one whose topmost key lies lower a
  compressed node over that key,
* compressed -- one key child, the single tree child; the node owns the
  annular region between the two boxes,
* leaf -- no key children; holds at most one input (the box itself).

Every tree (base, refined, or grown by :meth:`QuadTree.insert_box`)
comes from one iterative pass over its keys in Z-order, so its shape
depends on the set of keys alone.  Nodes (:class:`QuadNode`) are
slotted and link only down, to their children: a tree holds no
reference cycle, so reference counting frees it, and passes that need
a node's parent carry it on their own stacks.

One preorder pass (:meth:`QuadTree.neighbor_rows`) hands each node
the topmost nodes holding inputs under its horizontal neighbor boxes
and those of its compressed gap (None elsewhere: the one occupancy
test), each row from the row above; below the first empty row of a gap
the rows are shared and never computed, so the pass costs the nodes
plus the non-empty gap levels.  Each row is one slice of a block of
neighbor boxes, filled once per ordinary node for all its children and
once per non-empty gap level.

A tree holds only its root, its nodes and its points (with its
dimension and the level :meth:`QuadTree.locate` starts from), and no
table of nodes or inputs by cell.  Every lookup by cell goes through
the one descent, point location (:meth:`QuadTree.smallest_containing`),
which ends at a cell exactly when that cell is a node: after it one
level compare answers :meth:`QuadTree.node_for`,
:meth:`QuadTree.stored_index`, the topmost node under a box and
:meth:`QuadTree.insert_box`'s "already a node" test.  The descent
starts at the root and reads the child's slot off coordinate bits.
With one coordinate (D = 2, the box's coordinate count decides) each
step is one shift and one mask, or at a compressed node one shift and
one compare, with no per-coordinate loop; it relies on the tree's
shape, which every build and :meth:`QuadTree.from_dict` check.  D >= 3
keeps the loop.

The predicates on dyadic boxes (containment, adjacency, touching a
boundary) live here as well, with the one pruned descent along a box's
boundary (:func:`compressed_on_boundary`) that both the spanner's
bridge search and the AVD's representatives pass use.
"""

from __future__ import annotations

import functools
import itertools
import json
import reprlib
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import Callable, Iterable

from .tiling import CellId, children, collector_paused, floor_scaled, is_ancestor_or_self, lift_pair, neighbor_offsets

ORDINARY = "ordinary"
COMPRESSED = "compressed"
LEAF = "leaf"

# The deepest level a tree takes a box at.  A build lifts every key's
# coordinates to the lowest key's level (zorder_key) and point location
# floors at one level below the lowest node, so a key at level L costs
# shifts by -L bits: at level -10**30 no such integer can be made.  A
# tree must also write its keys (QuadTree.to_json writes each int with
# str, as json.dumps does), and by default Python turns no int of more
# than 4,300 digits into a str: a coordinate at level L is at most
# 2^-L - 1, and 2^14284 - 1 is the largest such number with 4,300
# digits.
# Float heights reach level -1074; discrete inputs may go down to here.
DEEPEST_LEVEL = -14284

# The highest dimension a tree takes.  Every construction is 2^O(D):
# an ordinary node lists 2^(D-1) children, the AVD refinement lists
# 3^(D-1) - 1 neighbors per occupied node, and _block_plan makes
# 4^(D-1) block entries.  On 4 margin cells build_avd takes seconds at
# D = 8 but minutes and hundreds of MiB at D = 9.
MAX_DIM = 8


def root_cell(dim: int) -> CellId:
    """The root cell [0,1]^(D-1) x [1,2]."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return CellId(0, (0,) * (dim - 1))


def shadow_within(inner: CellId, outer: CellId) -> bool:
    """True if the x-projection of ``inner`` lies inside that of ``outer``."""
    return is_ancestor_or_self(outer, inner)


def box_adjacent(a: CellId, b: CellId) -> bool:
    """Closed shadows intersect but neither contains the other.

    Dyadic boxes are nested or interior-disjoint, so this is exactly
    "touching along the boundary", corners included, which for boxes
    that are not nested is :func:`meets_boundary`.
    """
    if shadow_within(a, b) or shadow_within(b, a):
        return False
    return meets_boundary(a, b)


def meets_boundary(box: CellId, b: CellId) -> bool:
    """Does the closed shadow of ``box`` meet the boundary of that of ``b``?

    True for boxes containing ``b`` (itself included), for boxes
    touching ``b`` from outside, and for boxes inside ``b`` that touch
    its boundary.  The closed intersection of the two shadows, a box
    inside ``b``, meets that boundary iff one of its faces lies on a
    face of ``b``.  Intervals are compared in units of the smaller box.
    """
    on_face = False
    s = box.level - b.level
    if s >= 0:
        for ka, kb in zip(box.coords, b.coords):
            lo, hi = ka << s, (ka + 1) << s
            if lo > kb + 1 or hi < kb:
                return False
            if lo <= kb or hi >= kb + 1:
                on_face = True
    else:
        s = -s
        for ka, kb in zip(box.coords, b.coords):
            lo, hi = kb << s, (kb + 1) << s
            if ka > hi or ka + 1 < lo:
                return False
            if ka <= lo or ka + 1 >= hi:
                on_face = True
    return on_face


def compressed_on_boundary(start: QuadNode, box: CellId, out: list) -> None:
    """Append to ``out`` the occupied compressed nodes on or below
    ``start`` whose closed box meets the boundary of ``box``.

    Enters only occupied nodes that meet that boundary.  A box that
    meets it is contained in each of its ancestors' boxes, so they meet
    it too: the pruning skips no qualifying node.  The work is the nodes
    passed on the way down from ``start`` to the boundary and along it,
    so callers start it under the box's neighbors or inside the box,
    not above the box.
    """
    todo = [start]
    while todo:
        nu = todo.pop()
        if nu.count and meets_boundary(nu.cell, box):
            if nu.kind == COMPRESSED:
                out.append(nu)
            todo.extend(nu.children)


# What a loaded cell and its coordinates may be: JSON gives lists, and
# callers of QuadTree.from_dict may pass tuples.
_LOADED_SEQUENCES = (list, tuple)


def is_index(value, n: int) -> bool:
    """Is a loaded value an index into a list of length ``n``?  JSON
    floats and booleans are not."""
    return type(value) is int and 0 <= value < n


_INT_ONLY = {int}


def are_indices(values: list, n: int) -> bool:
    """Is every entry of a loaded list an index into a list of length
    ``n``, as :func:`is_index` asks?  Checked in C-level passes over the
    list, one for the entries' types and one each for ``min`` and
    ``max``, with no call per entry."""
    return not values or ({*map(type, values)} == _INT_ONLY and 0 <= min(values) and max(values) < n)


def json_fields(value, fields: itemgetter, *entry) -> tuple:
    """The values ``fields`` takes from a loaded JSON object, or
    ``ValueError`` naming the entry (the words of ``entry``, such as
    ``"node", 3``, joined only then) when it is no object or lacks one
    of the keys."""
    if type(value) is not dict:
        raise ValueError(f"{' '.join(map(str, entry))} is no JSON object: {reprlib.repr(value)}")
    try:
        return fields(value)
    except KeyError as exc:
        raise ValueError(f"{' '.join(map(str, entry))} has no key {exc}") from None


def _cell_record(cell: CellId) -> str:
    """``[level, coords]`` as JSON text, as ``json.dumps`` writes it."""
    return f"[{cell.level}, [{', '.join(map(str, cell.coords))}]]"


def node_record(node: QuadNode, parent: int | None) -> str:
    """One node's record in :meth:`QuadTree.to_json`, as JSON text:
    ``{"cell": [level, coords], "kind": kind, "parent": parent,
    "stored": stored}``, byte for byte what ``json.dumps(...,
    sort_keys=True)`` writes of that dict (``null`` for None)."""
    stored = node.stored_index
    return (
        f'{{"cell": {_cell_record(node.cell)}, "kind": "{node.kind}", '
        f'"parent": {"null" if parent is None else parent}, "stored": {"null" if stored is None else stored}}}'
    )


def first_indices(points: list[CellId]) -> dict[CellId, int]:
    """Each distinct cell of ``points`` with the first index holding it."""
    index_of: dict[CellId, int] = {}
    for i, c in enumerate(points):
        index_of.setdefault(c, i)
    return index_of


def meet(a: CellId, b: CellId) -> CellId:
    """The lowest box whose shadow contains the shadows of both cells.

    After lifting the lower cell, the ancestors ``s`` levels up agree
    iff every ``x >> s == y >> s``, i.e. iff no coordinate pair differs
    in a bit at or above ``s``: the highest differing bit gives ``s``.
    Cells on opposite sides of zero in some axis have no common box.
    """
    level, ka, kb = lift_pair(a, b)
    s = 0
    for x, y in zip(ka, kb):
        diff = x ^ y
        if diff < 0:
            raise ValueError(f"{a!r} and {b!r} share no ancestor")
        s = max(s, diff.bit_length())
    return CellId.derived(level + s, tuple([x >> s for x in ka]))


@functools.cache
def _bit_spread(axes: int) -> tuple[int, ...]:
    """Per byte value: its bits moved apart, bit ``b`` to bit ``b * axes``."""
    return tuple(sum(((v >> b) & 1) << (b * axes) for b in range(8)) for v in range(256))


def zorder_key(low: int, axes: int):
    """Sort key putting cells of the root shadow at or above level
    ``low`` in preorder of the dyadic tree, children in :func:`children`
    order, so every cell follows its ancestors: the Morton interleave of
    the lower corner lifted to ``low`` (first axis most significant),
    ties to the higher cell.  With one axis the interleave is the lifted
    coordinate.

    With more axes the interleave is an integer made from a 256-entry
    bit-spread table, one byte of each coordinate at a time.  A cell at
    level ``L`` of the root shadow has coordinates of at most ``-L``
    bits, so the loop reads that many; lifting to ``low`` multiplies
    the interleave by ``2^(axes (L - low))``, one shift at the end.
    """
    if axes == 1:
        return lambda c: (c.coords[0] << (c.level - low), -c.level)
    spread = _bit_spread(axes)
    stride = 8 * axes

    def key(c: CellId):
        level = c.level
        m = 0
        for k in c.coords:
            s = i = 0
            for j in range(0, -level, 8):
                s |= spread[(k >> j) & 255] << i
                i += stride
            m = (m << 1) | s
        return m << (axes * (level - low)), -level

    return key


@functools.cache
def _block_plan(axes: int) -> tuple[tuple, tuple]:
    """The neighbor block of a box's children, and per child how to
    slice its row from the block, for :meth:`QuadTree.neighbor_rows`.

    The children of a box at coordinates ``K`` lie at ``2K + b``, ``b``
    in {0, 1}^axes.  The block lists, first axis most significant, one
    ``(v, up position, child slot)`` per ``v`` in {-1, 0, 1, 2}^axes
    outside {0, 1}^axes: the box ``2K + v`` has the parent box
    ``K + floor(v / 2)``, a neighbor of the box at that position of its
    row, and is that box's child ``v mod 2``.  The children follow the
    block in :func:`children` order, so child ``b``'s neighbor at offset
    ``off`` is entry ``b + off`` of the two together; per child the plan
    holds an ``itemgetter`` taking its row in
    :func:`~halfspace.tiling.horizontal_neighbors` order.  The box is an
    ordinary node, whose children are nodes, or a box of a compressed
    gap, the node at its top or a gap box, whose only node below is the
    gap's child."""
    offsets = neighbor_offsets(axes)
    position = {o: i for i, o in enumerate(offsets)}
    block, where = [], {}
    for v in itertools.product((-1, 0, 1, 2), repeat=axes):
        if all(x in (0, 1) for x in v):
            continue
        slot = 0
        for x in v:
            slot = (slot << 1) | (x & 1)
        where[v] = len(block)
        block.append((v, position[tuple([x >> 1 for x in v])], slot))
    slots = list(itertools.product((0, 1), repeat=axes))
    for i, b in enumerate(slots):
        where[b] = len(block) + i
    takes = tuple(itemgetter(*[where[tuple(map(add, b, off))] for off in offsets]) for b in slots)
    return tuple(block), takes


@dataclass(eq=False, slots=True)
class QuadNode:
    """One node of a :class:`QuadTree`: its box, its kind and its
    children, plus the fields the AVD passes fill.

    A node keeps no link to its parent, so a tree holds no reference
    cycle and reference counting frees it as soon as it is dropped;
    passes that need the parent carry it down with them.  Slotted, so a
    node is small and its fields are quick to read."""

    cell: CellId
    kind: str
    children: list["QuadNode"] = field(default_factory=list)
    stored_index: int | None = None  # input index when the box itself is an input
    count: int = 0  # inputs in this subtree, own box included
    h_index: int | None = None  # highest input below (filled by the Voronoi pass)
    n2_index: int | None = None  # nearest input to the box center (same pass)
    reps: list[int] | None = None  # representative input indices (same pass)

    def __repr__(self) -> str:
        return f"QuadNode({self.cell!r}, {self.kind}, count={self.count})"


class QuadTree:
    """Compressed quadtree storing input cells as boxes.

    ``points`` keeps the caller's list verbatim (duplicates included);
    each distinct cell is owned by its first index, which its node
    stores, so distance ties resolve to the smallest index everywhere
    downstream.  ``boxes`` must become nodes as well but store no input
    (the AVD refinement passes the neighbors of the occupied boxes).
    Besides ``points`` the tree keeps ``dim``, ``root_cell`` and
    ``root``, the nodes hanging below it; lookups by cell descend from
    the root.  A point or box outside the root shadow or below
    :data:`DEEPEST_LEVEL` raises ``ValueError`` naming it, and so does a
    dimension above :data:`MAX_DIM`, before anything of its size is made.
    """

    def __init__(self, dim: int, points: list[CellId], boxes: Iterable[CellId] = ()):
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} is above {MAX_DIM}, the highest a tree takes")
        self.dim = dim
        self.points = list(points)
        self.root_cell = root_cell(dim)
        boxes = list(boxes)
        for box in itertools.chain(self.points, boxes):
            self._check_key(box)
        index_of = first_indices(self.points)
        self._assemble(index_of, [self.root_cell, *index_of, *boxes])

    # -- construction -------------------------------------------------

    def _assemble(self, index_of: dict[CellId, int], cells: list[CellId]) -> None:
        """Make ``cells``, the root among them, the key boxes of a fresh
        tree whose inputs' first indices are ``index_of``.

        The keys, sorted in preorder of the dyadic tree
        (:func:`zorder_key`), pass once through a stack holding the keys
        above the last one.  The ``meet`` of each adjacent pair joins the
        keys, between two stacked ones if new, and a key is linked below
        the nearest key above it once its subtree, and so its input
        count, is complete.  A top-down pass then sets the kinds by the
        module's rule and gives each ordinary node its child cells, the
        keys' slots read off coordinate bits.  O(n log n), no recursion.
        """
        low = min(c.level for c in cells)
        self._locate_level = low - 1
        order = sorted(set(cells), key=zorder_key(low, self.dim - 1))

        def link(up: QuadNode, down: QuadNode) -> None:
            up.children.append(down)
            up.count += down.count

        stack: list[QuadNode] = []
        for cell in order:
            i = index_of.get(cell)
            node = QuadNode(cell, LEAF, stored_index=i, count=0 if i is None else 1)
            if stack:
                m = meet(stack[-1].cell, cell)
                while len(stack) > 1 and stack[-2].cell.level <= m.level:
                    down = stack.pop()
                    link(stack[-1], down)
                if stack[-1].cell.level != m.level:
                    # no key lies at m: a key there would be on the stack,
                    # so m is no input either
                    up = QuadNode(m, LEAF)
                    link(up, stack[-1])
                    stack[-1] = up
            stack.append(node)
        while len(stack) > 1:
            down = stack.pop()
            link(stack[-1], down)

        self.root = stack[0]
        todo = [self.root]
        while todo:
            node = todo.pop()
            below = node.children
            if len(below) > 1 or (node.stored_index is not None and node.count > 1):
                node.kind = ORDINARY
                lev = node.cell.level - 1
                slots: list[QuadNode | None] = [None] * (1 << (self.dim - 1))
                for key in below:
                    s = lev - key.cell.level
                    i = 0
                    for k in key.cell.coords:
                        i = (i << 1) | ((k >> s) & 1)
                    slots[i] = key
                node.children = []
                for cc, child in zip(children(node.cell), slots):
                    if child is None:
                        child = QuadNode(cc, LEAF)
                    elif child.cell.level < lev:
                        child = QuadNode(cc, COMPRESSED, children=[child], count=child.count)
                    node.children.append(child)
            elif below:
                node.kind = COMPRESSED
            todo.extend(node.children)

    # -- traversal ----------------------------------------------------

    def iter_nodes(self):
        """Depth-first preorder; children in construction order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def neighbor_rows(self):
        """Preorder pass yielding each node with the nodes beside it.

        Yields ``(node, rows)`` in :meth:`iter_nodes` order.  ``rows[0]``
        holds, in :func:`~halfspace.tiling.horizontal_neighbors` order,
        the topmost node on or below each horizontal neighbor box of
        ``node.cell`` if it holds an input (``count > 0``), else None;
        ``rows[j]`` holds the same for the ancestor box ``j`` levels up,
        for every level of the compressed gap between the node and its
        parent, so ``len(rows)`` is the gap.  The root's neighbors all
        leave the root shadow.  A row is a list or a tuple; rows are
        read-only and may be shared.

        Neighbor finding as in Samet (1982): each row comes from the
        row one level up.  The children of a box ``P`` share their
        neighbor boxes: together they have 4^(D-1) - 2^(D-1) boxes
        outside ``P``, the block, against 2^(D-1) (3^(D-1) - 1) row
        entries.  The parent box ``up`` of a block box ``nb`` is a
        neighbor of ``P``, so ``P``'s row gives ``t``, the topmost node
        on or below ``up``.  If ``t`` is ``up`` itself, ``nb`` is
        ``t``'s child when ``t`` is ordinary, ``t``'s compressed child if
        that lies in ``nb``, and empty under a leaf; if ``t`` lies lower,
        ``nb`` holds ``t`` or nothing.  An ordinary or compressed
        parent's child and the node's own children enter a row only if
        they hold an input; every other entry comes from the row above.
        Which row entry holds ``up`` and which child slot of ``up`` is
        ``nb`` depend only on ``nb``'s place in the block, so a plan made
        once per dimension (:func:`_block_plan`) lists them, and slices
        each child's row from the block and ``P``'s children.  Only a compressed child or
        a lower node is checked against ``nb``'s coordinates; the pass
        builds and hashes no cell.

        Every row is sliced from a block.  An ordinary node fills one
        block for all its children: at D = 2 it looks up 2 boxes instead
        of 4 entries, at D = 3 12 instead of 32, at D = 5 240 instead of
        1,280.  Each level of a compressed gap fills one block around
        the box one level up, anchored at that box's first child (the
        gap box's coordinates with the last bit cleared), whose other
        children hold no node: the gap's only node is its child, inside
        the gap box itself.  So a gap level costs 4^(D-1) - 2^(D-1)
        lookups.

        Inside a compressed gap, once a row is all None, so is every
        row below it.  The only node under a gap box is the gap's child,
        which lies in the gap box one level down and so in no neighbor
        box; every other neighbor box's parent is a neighbor box of the
        row above, which holds no node with an input.  So the rows below
        the first empty one are never computed: the rest of the gap
        shares that one row.  The pass costs the nodes plus the
        non-empty levels of their gaps; nothing descends from the root.
        """
        axes = self.dim - 1
        block, slices = _block_plan(axes)
        empty = [None] * (1 << axes)  # the children of a gap's box one level up

        def find(row, first, lev):
            # the block around the children of a box with the given row,
            # its first child at coordinates first on level lev
            out = []
            append = out.append
            for v, u, slot in block:
                t = row[u]
                if t is not None:
                    if t.cell.level > lev:  # t is the parent box of nb
                        if t.kind == ORDINARY:
                            t = t.children[slot]
                            append(t if t.count else None)
                            continue
                        t = t.children[0] if t.kind == COMPRESSED else None
                    if t is not None:
                        s = lev - t.cell.level
                        if not t.count or tuple([k >> s for k in t.cell.coords]) != tuple(map(add, first, v)):
                            t = None  # t is empty or lies in another child of the parent box
                append(t)
            return out

        stack = [(self.root, [[None] * (3**axes - 1)])]
        while stack:
            node, rows = stack.pop()
            yield node, rows
            kids = node.children
            if node.kind == ORDINARY:
                # each child's row is one slice of the block and the children
                src = find(rows[0], kids[0].cell.coords, node.cell.level - 1)
                src += [kid if kid.count else None for kid in kids]
                for child, take in zip(reversed(kids), reversed(slices)):
                    stack.append((child, [take(src)]))
            elif kids:
                # one block per gap level, around the box one level up:
                # the node, then gap boxes whose only node is the child
                (child,) = kids
                row, below = rows[0], []
                level, coords = child.cell.level, child.cell.coords
                for lev in range(node.cell.level - 1, level - 1, -1):
                    s = lev - level
                    p = 0
                    first = []
                    for k in coords:
                        k >>= s
                        p = (p << 1) | (k & 1)
                        first.append(k & -2)
                    src = find(row, first, lev)
                    src += empty
                    row = slices[p](src)
                    below.append(row)
                    if not any(row):
                        below.extend([row] * (lev - level))  # the rest of the gap
                        break
                below.reverse()
                stack.append((child, below))

    def __len__(self) -> int:
        """The number of nodes, counted by one :meth:`iter_nodes` pass."""
        return sum(1 for _ in self.iter_nodes())

    # -- queries ------------------------------------------------------

    def in_root(self, cell: CellId) -> bool:
        """Does the cell lie on or below the root cell, inside its shadow?

        Tested on the coordinates: level <= 0, D-1 coordinates, and each
        in ``range(2 ** -level)``.
        """
        level, coords = cell.level, cell.coords
        if level > 0 or len(coords) != self.dim - 1:
            return False
        for k in coords:
            if k >> -level:
                return False
        return True

    def _check_in_root(self, box: CellId) -> None:
        if box.dim != self.dim:
            raise ValueError(f"{box!r} has dimension {box.dim}, not the tree's {self.dim}")
        if not self.in_root(box):
            raise ValueError(f"{box!r} lies outside the root cell's shadow")

    def _check_key(self, box: CellId) -> None:
        """Refuse a box the tree cannot take as a key: one outside the
        root shadow or below :data:`DEEPEST_LEVEL`."""
        self._check_in_root(box)
        if box.level < DEEPEST_LEVEL:
            raise ValueError(f"{box!r} lies below level {DEEPEST_LEVEL}, the deepest a tree takes")

    def locate(self, x: tuple[float, ...]) -> QuadNode:
        """The leaf or compressed node whose box or region contains ``x``.

        The cell holding ``x`` one level below the lowest node lies in a
        node's box exactly when ``x`` does, so the lowest node containing
        that cell (:meth:`smallest_containing`) is the answer.
        """
        if len(x) != self.dim - 1:
            raise ValueError(f"expected {self.dim - 1} coordinates, got {len(x)}")
        if not all(0.0 <= v < 1.0 for v in x):
            raise ValueError(f"point {x} is outside the root shadow [0,1)^(D-1)")
        lev = self._locate_level
        return self.smallest_containing(CellId.derived(lev, tuple([floor_scaled(v, lev) for v in x])))

    @staticmethod
    def shadow_holds(cell: CellId, x: tuple[float, ...]) -> bool:
        """Does the half-open shadow of ``cell`` contain the point ``x``?"""
        lev = cell.level
        return all(floor_scaled(v, lev) == k for v, k in zip(x, cell.coords))

    def cell_query(self, box: CellId) -> tuple[QuadNode | None, QuadNode | None]:
        """Largest stored box inside ``box`` and smallest stored box containing it.

        One descent (:meth:`smallest_containing`) finds the second.  It
        stops at ``box`` itself if ``box`` is a node, which is then both
        answers.  Otherwise ``box`` lies below a leaf or inside the gap
        of a compressed node, and only that node's child can lie inside
        ``box``.
        """
        self._check_in_root(box)
        node = self.smallest_containing(box)
        if node.cell.level == box.level:
            return node, node
        if node.kind == COMPRESSED and shadow_within(node.children[0].cell, box):
            return node.children[0], node
        return None, node

    def smallest_containing(self, box: CellId) -> QuadNode:
        """The lowest node whose box contains ``box`` (point location).

        Descends from the root: an ordinary node hands over to its child
        cell containing ``box``, a compressed node to its child if that
        still contains ``box``.  The descent stops at a leaf, at a
        compressed node whose gap holds ``box``, or at ``box`` itself.

        An ordinary node keeps its children in :func:`children` order,
        where the first axis is the most significant bit of the index,
        so the child holding ``box`` is read off the coordinates' bits
        at the child's level.  The descent builds no cell and hashes
        nothing: one shift and one mask per coordinate and node passed.
        ``box`` must pass :meth:`in_root`; the callers check that first.

        With one coordinate (D = 2, read off ``box``) the step is scalar:
        an ordinary node's child is ``children[(k >> s) & 1]``, and a
        compressed node's test is one shift and one compare against its
        child's coordinate, with no loop and no :func:`shadow_within`.
        It relies on the tree's shape, which construction and
        :meth:`from_dict` guarantee.
        """
        node = self.root
        level, coords = box.level, box.coords
        if len(coords) == 1:
            (k,) = coords
            while True:
                kind, top = node.kind, node.cell.level
                if kind == LEAF or top == level:
                    return node
                if kind == COMPRESSED:
                    child = node.children[0]
                    s = child.cell.level - level
                    if s >= 0 and k >> s == child.cell.coords[0]:
                        node = child
                        continue
                    return node
                node = node.children[(k >> (top - 1 - level)) & 1]
        while True:
            if node.kind == LEAF or node.cell.level == level:
                return node
            if node.kind == COMPRESSED:
                child = node.children[0]
                if shadow_within(box, child.cell):
                    node = child
                    continue
                return node
            s = node.cell.level - 1 - level
            i = 0
            for k in coords:
                i = (i << 1) | ((k >> s) & 1)
            node = node.children[i]

    # -- lookups by cell ---------------------------------------------

    def node_for(self, box: CellId) -> QuadNode | None:
        """The node whose box is ``box``, if any.

        The tree keeps no table of its nodes by cell: the descent
        (:meth:`smallest_containing`) ends at ``box`` exactly when
        ``box`` is a node, so one level compare decides.  A cell
        outside the root shadow, or of another dimension, is no node.
        """
        if not self.in_root(box):
            return None
        node = self.smallest_containing(box)
        return node if node.cell.level == box.level else None

    def stored_index(self, cell: CellId) -> int | None:
        """The first input index whose box is ``cell``, if any: the one
        the node at ``cell`` stores, as every distinct input cell is a
        node storing its first index."""
        node = self.node_for(cell)
        return None if node is None else node.stored_index

    def highest_under(self, box: CellId) -> int | None:
        """Index of the highest-level input on or below ``box`` (smallest
        index among ties); requires the Voronoi pass to have filled h."""
        node = self.cell_query(box)[0]
        return None if node is None else node.h_index

    # -- insertion ----------------------------------------------------

    def insert_box(self, box: CellId) -> QuadNode:
        """Ensure ``box`` is a node and return it.

        A box that is already a node (:meth:`node_for`, one descent) is
        returned as it is.  Otherwise the tree is rebuilt over its node
        boxes plus ``box``, with the inputs' first indices read afresh
        from ``points``, which costs O(n log n) for n nodes, replaces
        every node object and drops the annotations the AVD passes left
        on the old ones.  Builds that
        need many boxes pass them to the constructor at once; demo 04
        and the tests are this method's callers.
        """
        self._check_key(box)
        if self.node_for(box) is None:
            self._assemble(first_indices(self.points), [*(n.cell for n in self.iter_nodes()), box])
        return self.node_for(box)

    # -- serialization -------------------------------------------------

    def to_json(self, note: Callable[[QuadNode], str] | None = None, **members: str) -> str:
        """The tree as JSON text, written in one preorder pass.

        The text is a JSON object with sorted keys: ``dim``; ``nodes``,
        the nodes in :meth:`iter_nodes` order, each the record
        :func:`node_record` writes with the index of its parent (taken
        from the pass's own stack, as no node links up); and ``points``,
        each ``[level, coords]``.  ``note``, when given, writes each
        node's annotation in the same pass, and annotation k, of node k,
        goes under ``annotations``.  ``members`` adds top-level members
        whose values are JSON text already.  The text is byte for byte
        what ``json.dumps(data, sort_keys=True)`` writes of the same
        data: its default separators, ``null`` for None, and ints
        through ``str``, whose digit limit json shares.
        """
        records: list[str] = []
        notes: list[str] = []
        repeat = itertools.repeat
        stack: list[tuple[QuadNode, int | None]] = [(self.root, None)]
        while stack:
            node, up = stack.pop()
            k = len(records)
            records.append(node_record(node, up))
            if note is not None:
                notes.append(note(node))
            if node.children:
                stack.extend(zip(reversed(node.children), repeat(k)))
        members["dim"] = str(self.dim)
        members["nodes"] = f"[{', '.join(records)}]"
        members["points"] = f"[{', '.join(map(_cell_record, self.points))}]"
        if note is not None:
            members["annotations"] = f"[{', '.join(notes)}]"
        return "{" + ", ".join(f'"{key}": {value}' for key, value in sorted(members.items())) + "}"

    def to_dict(self) -> dict:
        """The data :meth:`to_json` writes, parsed back: a fresh dict
        :meth:`from_dict` takes."""
        return json.loads(self.to_json())

    @classmethod
    def from_dict(cls, data: dict) -> "QuadTree":
        """Rebuild a tree written by :meth:`to_dict`.

        Raises ``ValueError``, naming the entry, unless ``dim`` is an
        integer >= 2; every point and node cell is ``[level, coords]``
        with an integer level (booleans refused) no deeper than
        :data:`DEEPEST_LEVEL` and ``dim - 1`` integer coordinates inside
        the root shadow; node 0 is the root cell and takes no parent;
        every other node's parent is an earlier node; every kind is
        ordinary, compressed or leaf; every ``stored`` index is null or
        lies in ``range(len(points))``; every ordinary node lists its
        child cells in :func:`children` order, a leaf has no child, and
        a compressed node exactly one, strictly inside its box.  Point
        location relies on that shape.  A node's ``stored``
        must also be the first index of its cell in ``points``, or null
        when the cell is no input, and every distinct input cell needs a
        node storing it, so the node and :meth:`stored_index` agree.
        The file must be a JSON object holding ``dim``, ``points`` and
        ``nodes``, and each node an object holding ``cell``, ``kind``,
        ``parent`` and ``stored``; a missing key or an entry of another
        type raises ``ValueError`` naming it as well.  The checks ride
        on the pass that links each node to its parent, one lookup per
        storing node in the inputs' first indices (a map local to the
        load), and the pass back that sums the input counts through the
        parent indices.  A node storing nothing needs no lookup: node
        cells are distinct, so a node storing nothing at an input's cell
        leaves that input with no node storing it, which the count of
        storing nodes reports.
        """
        return cls.from_dict_with_nodes(data)[0]

    @classmethod
    def from_dict_with_nodes(cls, data: dict) -> tuple["QuadTree", list[QuadNode]]:
        """:meth:`from_dict`, plus the nodes in the order the file lists
        them, which need not be :meth:`iter_nodes` order."""
        with collector_paused():
            dim, point_specs, node_specs = json_fields(data, itemgetter("dim", "points", "nodes"), "tree")
            if type(dim) is not int or dim < 2:
                raise ValueError(f"dim {dim!r} is no integer >= 2")
            if type(point_specs) is not list or type(node_specs) is not list or not node_specs:
                raise ValueError("a tree needs a JSON array of points and one of nodes, its root node first")
            tree = cls.__new__(cls)
            tree.dim = dim
            # node 0's cell holds dim - 1 coordinates of the file itself, so
            # it is loaded before anything of size dim is built
            root = tree._loaded_cell(json_fields(node_specs[0], itemgetter("cell"), "node", 0), "node", 0)
            if root.level or any(root.coords):
                raise ValueError(f"node 0 is the root and must be {root_cell(dim)!r}, got {root!r}")
            tree.root_cell = root
            tree.points = points = [tree._loaded_cell(spec, "point", i) for i, spec in enumerate(point_specs)]
            index_of = first_indices(points)
            built: list[QuadNode] = []
            ups: list[int | None] = []  # each node's parent index
            width = {ORDINARY: 1 << (dim - 1), COMPRESSED: 1, LEAF: 0}
            low = 0
            fields = itemgetter("cell", "kind", "parent", "stored")
            for k, spec in enumerate(node_specs):
                cell, kind, up, stored = json_fields(spec, fields, "node", k)
                cell = tree._loaded_cell(cell, "node", k)
                if type(kind) is not str or kind not in width:
                    raise ValueError(f"node {k}'s kind {kind!r} is none of {ORDINARY}, {COMPRESSED}, {LEAF}")
                if stored is not None and not is_index(stored, len(points)):
                    raise ValueError(f"node {k} stores {stored!r}, no input index in range({len(points)})")
                node = QuadNode(cell, kind, stored_index=stored)
                if k == 0:
                    ups.append(None)
                    if up is not None:
                        raise ValueError(f"node 0 is the root and takes no parent, got {up!r}")
                elif is_index(up, k):
                    above = built[up]
                    slot = len(above.children)
                    lev = cell.level
                    box = above.cell
                    if above.kind == ORDINARY:
                        # child number slot of the children() order: one level
                        # down, inside the box (each coordinate shifts to the
                        # box's; i = -1, no slot, when one does not), its
                        # coordinate bits spelling slot
                        i = 0
                        for c, b in zip(cell.coords, box.coords):
                            if c >> 1 != b:
                                i = -1
                                break
                            i = (i << 1) | (c & 1)
                        if i != slot or lev != box.level - 1:
                            raise ValueError(f"node {k} {cell!r} is not child {slot} of ordinary node {up} in children() order")
                    else:
                        s = box.level - lev
                        if slot == width[above.kind] or s <= 0 or any(c >> s != b for c, b in zip(cell.coords, box.coords)):
                            raise ValueError(f"node {k} {cell!r} is no lone child strictly inside the box of {above.kind} node {up}")
                    ups.append(up)
                    above.children.append(node)
                    if lev < low:
                        low = lev
                else:
                    raise ValueError(f"node {k}'s parent {up!r} is not an earlier node")
                if stored is not None and index_of.get(cell) != stored:
                    first = index_of.get(cell)
                    has = "is no input" if first is None else f"is first input {first}"
                    raise ValueError(f"node {k} {cell!r} stores {stored!r}, but its cell {has}")
                built.append(node)
            tree.root = built[0]
            tree._locate_level = low - 1
            storing = 0
            for k in range(len(built) - 1, -1, -1):  # children before parents
                node = built[k]
                if len(node.children) != width[node.kind]:
                    raise ValueError(f"{node.kind} node {k} {node.cell!r} has {len(node.children)} children, not {width[node.kind]}")
                if node.stored_index is not None:
                    node.count += 1
                    storing += 1
                if k:
                    built[ups[k]].count += node.count
            if storing != len(index_of):
                # the shape makes node cells distinct, and each storing node
                # its own cell's index: some input cell has no node storing
                # it (a node there storing nothing included)
                missing = min(set(index_of.values()) - {node.stored_index for node in built})
                raise ValueError(f"input {missing} {points[missing]!r} has no node storing it")
            return tree, built

    def _loaded_cell(self, spec, entry: str, k: int) -> CellId:
        """The cell ``[level, coords]`` of a loaded tree's entry ``k``, or
        ``ValueError`` naming the entry: a list (or tuple) of an int
        level and a list (or tuple) of ``dim - 1`` int coordinates,
        booleans refused, inside the root shadow (:meth:`in_root`: a
        level <= 0 and each coordinate in ``range(2 ** -level)``) and
        no deeper than :data:`DEEPEST_LEVEL`.  Checked on the loaded
        ints with shifts and built with ``CellId.derived``, which takes
        what these checks passed."""
        if type(spec) in _LOADED_SEQUENCES and len(spec) == 2:
            level, coords = spec
            if type(level) is int and level <= 0 and type(coords) in _LOADED_SEQUENCES and len(coords) == self.dim - 1:
                for c in coords:
                    if type(c) is not int or c >> -level:  # a negative c shifts to -1
                        break
                else:
                    cell = CellId.derived(level, tuple(coords))
                    if level < DEEPEST_LEVEL:
                        raise ValueError(f"{entry} {k}'s cell {cell!r} lies below level {DEEPEST_LEVEL}, the deepest a tree takes")
                    return cell
        raise ValueError(f"{entry} {k}'s cell {spec!r} is no [level, {self.dim - 1} coordinates] of integers inside the root shadow")


def build_quadtree(points: list[CellId]) -> QuadTree:
    """Compressed quadtree over the given cells (dimension from the first)."""
    if not points:
        raise ValueError("cannot build a quadtree over an empty point list")
    return QuadTree(points[0].dim, points)
