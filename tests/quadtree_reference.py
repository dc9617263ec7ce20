"""The recursive build and the splice insertion the quadtree used to run.

``ReferenceQuadTree`` builds by regrouping the boxes below each node
level by level (``_build``) and inserts one box at a time by hanging a
chain below a leaf, splicing a compressed gap or branching at a
``meet`` (``insert_box`` with ``_attach_chain``, ``_split_compressed``
and ``_chain_to``).  The method bodies are the old loops, unchanged;
they walk up by parent links, which library nodes no longer keep, so
this tree's nodes are :class:`LinkedNode` (a loaded tree's nodes are
copied into them).  The splice insertion also keeps the tables it used
to look cells up in, ``nodes_by_cell`` and ``_index_of``, on this tree
alone; library trees hold only their root, nodes and points.
:class:`halfspace.quadtree.QuadTree` now makes every tree in one
iterative Z-order pass; the cross-checks in ``test_zorder_build.py``
compare the two shapes node for node.  The recursion limits the build
to chains of a few hundred nested boxes, so keep the inputs shallow.
"""

from __future__ import annotations

from dataclasses import dataclass

from halfspace.quadtree import COMPRESSED, LEAF, ORDINARY, QuadNode, QuadTree, root_cell, shadow_within
from halfspace.tiling import CellId, ancestor_at, children, horizontal_neighbors

from reference import meet


@dataclass(eq=False, slots=True)
class LinkedNode(QuadNode):
    """A node with the parent link the splice insertion walks up by;
    library nodes keep none."""

    parent: QuadNode | None = None


def _recount(node: QuadNode) -> None:
    """Inputs under a node from its children's counts and its own box."""
    node.count = (1 if node.stored_index is not None else 0) + sum(ch.count for ch in node.children)


class ReferenceQuadTree(QuadTree):
    def __init__(self, dim: int, points: list[CellId]):
        self.dim = dim
        self.points = list(points)
        self._index_of: dict[CellId, int] = {}
        for i, c in enumerate(points):
            if c.dim != dim:
                raise ValueError(f"point {c!r} has dimension {c.dim}, expected {dim}")
            if not self.in_root(c):
                raise ValueError(f"point {c!r} lies outside the root cell's shadow")
            self._index_of.setdefault(c, i)
        distinct = sorted(self._index_of, key=self._index_of.get)
        self.nodes_by_cell: dict[CellId, QuadNode] = {}
        self.root = self._build(root_cell(dim), distinct)
        self._refresh_counts()
        self._reset_start(1)

    def _reset_start(self, nodes: int) -> None:
        """A start table of one entry, the root: insertions splice nodes
        in place, and the root is the one node a splice never replaces,
        so every location starts there."""
        super()._reset_start(1)

    @classmethod
    def from_dict(cls, data: dict) -> "ReferenceQuadTree":
        """:meth:`QuadTree.from_dict`, its nodes copied into linked ones
        and its tables filled."""
        tree = super().from_dict(data)
        tree._index_of = {}
        for i, c in enumerate(tree.points):
            tree._index_of.setdefault(c, i)
        tree.nodes_by_cell = {}
        stack = [(tree.root, None)]
        while stack:
            node, up = stack.pop()
            copy = LinkedNode(node.cell, node.kind, stored_index=node.stored_index, count=node.count, parent=up)
            tree.nodes_by_cell[copy.cell] = copy
            if up is None:
                tree.root = copy
            else:
                up.children.append(copy)
            stack.extend((ch, copy) for ch in reversed(node.children))
        return tree

    # -- construction -------------------------------------------------

    def _new_node(self, cell: CellId, kind: str) -> QuadNode:
        node = LinkedNode(cell, kind, stored_index=self._index_of.get(cell))
        self.nodes_by_cell[cell] = node
        return node

    def _build(self, cell: CellId, boxes: list[CellId]) -> QuadNode:
        below = [b for b in boxes if b != cell]
        if not below:
            return self._new_node(cell, LEAF)
        groups: dict[CellId, list[CellId]] = {}
        for b in below:
            groups.setdefault(ancestor_at(b, cell.level - 1), []).append(b)
        stored_here = cell in self._index_of
        if len(groups) == 1 and not stored_here:
            (target,) = groups
            m = below[0] if len(below) == 1 else meet(*below[:2])
            for b in below[2:]:
                m = meet(m, b)
            node = self._new_node(cell, COMPRESSED)
            child = self._build(m, below)
            child.parent = node
            node.children.append(child)
            return node
        node = self._new_node(cell, ORDINARY)
        for child_cell in children(cell):
            child = self._build(child_cell, groups.get(child_cell, []))
            child.parent = node
            node.children.append(child)
        return node

    def _refresh_counts(self) -> None:
        for node in reversed(list(self.iter_nodes())):
            _recount(node)

    # -- insertion ----------------------------------------------------

    def insert_box(self, box: CellId) -> QuadNode:
        """Ensure ``box`` is a node; splits compressed gaps as needed."""
        self._check_in_root(box)
        existing = self.nodes_by_cell.get(box)
        if existing is not None:
            return existing
        holder = self.smallest_containing(box)
        if holder.kind == LEAF:
            node = self._attach_chain(holder, box)
        else:  # compressed; ordinary holders always descend further
            node = self._split_compressed(holder, box)
        return node

    def _attach_chain(self, parent_node: QuadNode, box: CellId) -> QuadNode:
        """Hang ``box`` below a node that currently has no children."""
        node = self._new_node(box, LEAF)
        node.parent = parent_node
        parent_node.children.append(node)
        parent_node.kind = COMPRESSED
        return node

    def _split_compressed(self, holder: QuadNode, box: CellId) -> QuadNode:
        child = holder.children[0]
        if shadow_within(child.cell, box):
            # box sits on the chain between holder and its child: splice
            node = self._new_node(box, COMPRESSED)
            holder.children = [node]
            node.parent = holder
            node.children = [child]
            child.parent = node
            _recount(node)
            return node
        # box lies in the annulus: branch at the meet of box and child
        # (which can be the holder cell itself)
        branch_cell = meet(box, child.cell)
        if branch_cell == holder.cell:
            branch = holder
        else:
            branch = self._new_node(branch_cell, ORDINARY)
            branch.parent = holder
            holder.children = [branch]
        old_child = child
        branch.kind = ORDINARY
        branch.children = []
        target: QuadNode | None = None
        for cc in children(branch.cell):
            if shadow_within(old_child.cell, cc):
                sub = self._chain_to(cc, old_child)
            elif shadow_within(box, cc):
                if box == cc:
                    sub = self._new_node(cc, LEAF)
                    target = sub
                else:
                    sub = self._new_node(cc, COMPRESSED)
                    inner = self._new_node(box, LEAF)
                    inner.parent = sub
                    sub.children = [inner]
                    target = inner
            else:
                sub = self._new_node(cc, LEAF)
            sub.parent = branch
            branch.children.append(sub)
        node = branch
        while node is not None:
            _recount(node)
            node = node.parent
        assert target is not None
        return target

    def _chain_to(self, cell: CellId, descendant: QuadNode) -> QuadNode:
        """A node for ``cell`` holding an existing subtree below it."""
        if descendant.cell == cell:
            return descendant
        node = self._new_node(cell, COMPRESSED)
        node.children = [descendant]
        descendant.parent = node
        _recount(node)
        return node


def reference_refine(tree: QuadTree) -> ReferenceQuadTree:
    """The old ``avd.refine`` loop: a fresh tree, then one splice
    insertion per in-root horizontal neighbor of every occupied node."""
    refined = ReferenceQuadTree(tree.dim, tree.points)
    targets = [node.cell for node in tree.iter_nodes() if node.count > 0]
    for cell in targets:
        for nb in horizontal_neighbors(cell):
            if tree.in_root(nb):
                refined.insert_box(nb)
    return refined


def shape(tree: QuadTree) -> tuple:
    """Everything a tree's layout determines: the serialized nodes (cell,
    kind, parent, stored index, in preorder) and the subtree counts.
    Checks on the way that the node cells are distinct and that
    :meth:`QuadTree.node_for` finds each node by its cell."""
    nodes = list(tree.iter_nodes())
    assert len({n.cell for n in nodes}) == len(nodes)
    assert all(tree.node_for(n.cell) is n for n in nodes)
    return tree.to_dict(), [n.count for n in nodes]
