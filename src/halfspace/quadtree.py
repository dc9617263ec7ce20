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
depends on the set of keys alone.

One preorder pass (:meth:`QuadTree.neighbor_rows`) hands each node
the topmost nodes under its horizontal neighbor boxes and those of its
compressed gap, each row from the row above; below the first empty row
of a gap the rows are shared and never computed, so the pass costs the
nodes plus the non-empty gap levels.

The predicates on dyadic boxes (containment, adjacency, touching a
boundary) live here as well, with the one pruned descent along a box's
boundary (:func:`compressed_on_boundary`) that both the spanner's
bridge search and the AVD's representatives pass use.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import add
from typing import Iterable

from .tiling import CellId, children, floor_scaled, is_ancestor_or_self, lift_pair, neighbor_offsets

ORDINARY = "ordinary"
COMPRESSED = "compressed"
LEAF = "leaf"


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
    "touching along the boundary", corners included.
    """
    if shadow_within(a, b) or shadow_within(b, a):
        return False
    lev = min(a.level, b.level)
    sa, sb = a.level - lev, b.level - lev
    for ka, kb in zip(a.coords, b.coords):
        lo = max(ka << sa, kb << sb)
        hi = min((ka + 1) << sa, (kb + 1) << sb)
        if lo > hi:
            return False
    return True


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


def is_index(value, n: int) -> bool:
    """Is a loaded value an index into a list of length ``n``?  JSON
    floats and booleans are not."""
    return type(value) is int and 0 <= value < n


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
    return CellId(level + s, tuple([x >> s for x in ka]))


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
def _neighbor_plan(axes: int) -> tuple[tuple, tuple]:
    """The horizontal-neighbor offsets, in
    :func:`~halfspace.tiling.horizontal_neighbors` order, and per
    parity pattern of a box's coordinates (first axis most significant)
    one ``(offset, up position, child slot)`` per neighbor: the position
    of the neighbor's parent box among the parent's neighbors (-1 for
    the parent itself) and the neighbor's slot among that box's
    :func:`children`.  :meth:`QuadTree.neighbor_rows` reads it."""
    offsets = neighbor_offsets(axes)
    position = {o: i for i, o in enumerate(offsets)}
    plan = []
    for bits in itertools.product((0, 1), repeat=axes):
        entry = []
        for off in offsets:
            up = tuple([(b + o) >> 1 for b, o in zip(bits, off)])
            slot = 0
            for b, o in zip(bits, off):
                slot = (slot << 1) | ((b + o) & 1)
            entry.append((off, position.get(up, -1), slot))
        plan.append(tuple(entry))
    return offsets, tuple(plan)


@dataclass(eq=False)
class QuadNode:
    cell: CellId
    kind: str
    parent: "QuadNode | None" = None
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
    each distinct cell is owned by its first index so distance ties
    resolve to the smallest index everywhere downstream.  ``boxes``
    must become nodes as well but store no input (the AVD refinement
    passes the neighbors of the occupied boxes).
    """

    def __init__(self, dim: int, points: list[CellId], boxes: Iterable[CellId] = ()):
        self.dim = dim
        self.points = list(points)
        self.root_cell = root_cell(dim)
        self._index_of: dict[CellId, int] = {}
        for i, c in enumerate(points):
            self._check_in_root(c)
            self._index_of.setdefault(c, i)
        boxes = list(boxes)
        for box in boxes:
            self._check_in_root(box)
        self._assemble([self.root_cell, *self._index_of, *boxes])

    # -- construction -------------------------------------------------

    def _assemble(self, cells: list[CellId]) -> None:
        """Make ``cells``, the root among them, the key boxes of a fresh tree.

        The keys, sorted in preorder of the dyadic tree
        (:func:`zorder_key`), pass once through a stack holding the keys
        above the last one.  The ``meet`` of each adjacent pair joins the
        keys, between two stacked ones if new, and a key is linked below
        the nearest key above it once its subtree, and so its input
        count, is complete.  A top-down pass then sets the kinds by the
        module's rule and gives each ordinary node its child cells, the
        keys' slots read off coordinate bits.  O(n log n), no recursion.
        """
        index_of = self._index_of
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
        self.nodes_by_cell = {}
        todo = [self.root]
        while todo:
            node = todo.pop()
            self.nodes_by_cell[node.cell] = node
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
            for child in node.children:
                child.parent = node
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
        ``node.cell`` (None outside the root shadow or where no node
        lies under the box); ``rows[j]`` holds the same for the
        ancestor box ``j`` levels up, for every level of the compressed
        gap between the node and its parent, so ``len(rows)`` is the
        gap.  The root's neighbors all leave the root shadow.

        Neighbor finding as in Samet (1982): each row comes from the
        row one level up.  The parent box ``up`` of a neighbor box
        ``nb`` is either the box one level up or one of its neighbors,
        so the row above, with the box one level up as its center,
        gives ``t``, the topmost node on or below ``up``.  If ``t`` is
        ``up`` itself, ``nb`` is ``t``'s child when ``t`` is ordinary,
        ``t``'s compressed child if that lies in ``nb``, and empty under
        a leaf; if ``t`` lies lower, ``nb`` holds ``t`` or nothing.

        Which row entry holds ``up`` and which child slot of ``up`` is
        ``nb`` depend only on the offset and on the parities of the
        box's coordinates.  So a plan, made once per dimension, lists per
        parity pattern ``(offset, up position, child slot)`` for every
        neighbor: a step reads the pattern with one shift-or per
        coordinate and an ordinary ``t``'s child as ``t.children[slot]``.
        Only a compressed child or a lower node is checked against
        ``nb``'s coordinates, the one case that builds them.  A row
        costs O(3^(D-1)) and builds or hashes no cell.

        Inside a compressed gap, once a row is all None, so is every
        row below it.  The only node under a gap box is the gap's child,
        which lies in the gap box one level down and so in no neighbor
        box; every other neighbor box's parent is a neighbor box of the
        row above, which holds no node.  So the rows below the first
        empty one are never computed: the rest of the gap shares that
        one list.  Rows are read-only and may be shared.  The pass costs
        the nodes plus the non-empty levels of their gaps; nothing
        descends from the root.
        """
        offsets, plan = _neighbor_plan(self.dim - 1)

        def step(row, center, coords, lev):
            p = 0
            for k in coords:
                p = (p << 1) | (k & 1)
            out = []
            append = out.append
            for off, u, slot in plan[p]:
                t = row[u] if u >= 0 else center
                if t is not None:
                    if t.cell.level > lev:  # t is the parent box of nb
                        if t.kind == ORDINARY:
                            append(t.children[slot])
                            continue
                        t = t.children[0] if t.kind == COMPRESSED else None
                    if t is not None:
                        s = lev - t.cell.level
                        if tuple([k >> s for k in t.cell.coords]) != tuple(map(add, coords, off)):
                            t = None  # t lies in another child of the parent box
                append(t)
            return out

        stack = [(self.root, [[None] * len(offsets)])]
        while stack:
            node, rows = stack.pop()
            yield node, rows
            for child in reversed(node.children):
                # the box one level up is the node, then gap boxes whose
                # topmost node is the child itself
                row, center, below = rows[0], node, []
                level, coords = child.cell.level, child.cell.coords
                for lev in range(node.cell.level - 1, level - 1, -1):
                    s = lev - level
                    row = step(row, center, tuple([k >> s for k in coords]) if s else coords, lev)
                    center = child
                    below.append(row)
                    if not any(row):
                        below.extend([row] * (lev - level))  # the rest of the gap
                        break
                below.reverse()
                stack.append((child, below))

    def __len__(self) -> int:
        return len(self.nodes_by_cell)

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
        return self.smallest_containing(CellId(lev, tuple([floor_scaled(v, lev) for v in x])))

    @staticmethod
    def shadow_holds(cell: CellId, x: tuple[float, ...]) -> bool:
        """Does the half-open shadow of ``cell`` contain the point ``x``?"""
        lev = cell.level
        return all(floor_scaled(v, lev) == k for v, k in zip(x, cell.coords))

    def cell_query(self, box: CellId) -> tuple[QuadNode | None, QuadNode | None]:
        """Largest stored box inside ``box`` and smallest stored box containing it."""
        self._check_in_root(box)
        return self._topmost_under(box), self.smallest_containing(box)

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
        """
        node = self.root
        level, coords = box.level, box.coords
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

    # -- subtree content without materialized nodes --------------------

    def _topmost_under(self, box: CellId) -> QuadNode | None:
        """The topmost node on or below ``box``, if any.

        Either ``box`` is a node, or it is not and lies below a leaf or
        inside the gap of a compressed node; only that node's child can
        then lie inside ``box``.
        """
        node = self.nodes_by_cell.get(box)
        if node is not None:
            return node
        holder = self.smallest_containing(box)
        if holder.kind == COMPRESSED and shadow_within(holder.children[0].cell, box):
            return holder.children[0]
        return None

    def node_for(self, box: CellId) -> QuadNode | None:
        return self.nodes_by_cell.get(box)

    def stored_index(self, cell: CellId) -> int | None:
        """The first input index whose box is ``cell``, if any."""
        return self._index_of.get(cell)

    def subtree_count(self, box: CellId) -> int:
        """Number of inputs whose box lies on or below an arbitrary cell."""
        self._check_in_root(box)
        node = self._topmost_under(box)
        return 0 if node is None else node.count

    def highest_under(self, box: CellId) -> int | None:
        """Index of the highest-level input on or below ``box`` (smallest
        index among ties); requires the Voronoi pass to have filled h."""
        self._check_in_root(box)
        node = self._topmost_under(box)
        return None if node is None else node.h_index

    # -- insertion ----------------------------------------------------

    def insert_box(self, box: CellId) -> QuadNode:
        """Ensure ``box`` is a node and return it.

        A box that is already a node is returned as it is.  Otherwise the
        tree is rebuilt over its node boxes plus ``box``, which costs
        O(n log n) for n nodes, replaces every node object and drops the
        annotations the AVD passes left on the old ones.  Builds that
        need many boxes pass them to the constructor at once; demo 04
        and the tests are this method's callers.
        """
        self._check_in_root(box)
        existing = self.nodes_by_cell.get(box)
        if existing is not None:
            return existing
        self._assemble([*self.nodes_by_cell, box])
        return self.nodes_by_cell[box]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        order: dict[int, int] = {}
        nodes = []
        for i, node in enumerate(self.iter_nodes()):
            order[id(node)] = i
            nodes.append(node)
        return {
            "dim": self.dim,
            "points": [[c.level, list(c.coords)] for c in self.points],
            "nodes": [
                {
                    "cell": [n.cell.level, list(n.cell.coords)],
                    "kind": n.kind,
                    "parent": order[id(n.parent)] if n.parent is not None else None,
                    "stored": n.stored_index,
                }
                for n in nodes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuadTree":
        """Rebuild a tree written by :meth:`to_dict`.

        Raises ``ValueError`` unless node 0 is the root, every other
        node's parent is an earlier node, every ``stored`` index is null
        or lies in ``range(len(points))``, and every ordinary node lists
        its child cells in :func:`children` order.
        """
        dim = data["dim"]
        points = [CellId(lev, tuple(ks)) for lev, ks in data["points"]]
        tree = cls.__new__(cls)
        tree.dim = dim
        tree.points = points
        tree.root_cell = root_cell(dim)
        tree._index_of = {}
        for i, c in enumerate(points):
            tree._index_of.setdefault(c, i)
        tree.nodes_by_cell = {}
        built: list[QuadNode] = []
        if not data["nodes"]:
            raise ValueError("a tree needs at least its root node")
        for k, spec in enumerate(data["nodes"]):
            cell = CellId(spec["cell"][0], tuple(spec["cell"][1]))
            stored = spec["stored"]
            if stored is not None and not is_index(stored, len(points)):
                raise ValueError(f"node {k} stores {stored!r}, no input index in range({len(points)})")
            node = QuadNode(cell, spec["kind"], stored_index=stored)
            tree.nodes_by_cell[cell] = node
            up = spec["parent"]
            if k == 0:
                if up is not None:
                    raise ValueError(f"node 0 is the root and takes no parent, got {up!r}")
            elif is_index(up, k):
                node.parent = built[up]
                node.parent.children.append(node)
            else:
                raise ValueError(f"node {k}'s parent {up!r} is not an earlier node")
            built.append(node)
        for node in built:
            if node.kind == ORDINARY and [ch.cell for ch in node.children] != children(node.cell):
                raise ValueError(f"ordinary node {node.cell!r} must list its child cells in children() order")
        tree.root = built[0]
        tree._locate_level = min(node.cell.level for node in built) - 1
        for node in reversed(built):
            node.count = (1 if node.stored_index is not None else 0) + sum(ch.count for ch in node.children)
        return tree


def build_quadtree(points: list[CellId]) -> QuadTree:
    """Compressed quadtree over the given cells (dimension from the first)."""
    if not points:
        raise ValueError("cannot build a quadtree over an empty point list")
    return QuadTree(points[0].dim, points)
