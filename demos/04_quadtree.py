"""Compressed quadtrees over cells: location, cell queries, insertion."""

import random

from halfspace import CellId, build_quadtree
from halfspace.sampling import sample_cells

rng = random.Random(3)
pts = sample_cells(rng, 2, 12, min_level=-6)
tree = build_quadtree(pts)

print("inputs:", len(set(pts)), "tree nodes:", len(tree))
for node in tree.iter_nodes():
    print(f"{node.kind:>10}: {node.cell}  holds {node.count}")
    if node is tree.root and node.kind == "compressed":
        print("           (everything funnels through one child; the rest is its region)")
    break  # the root line is enough flavor here

# Point location returns the unique leaf box or compressed region.
x = (0.37,)
node = tree.locate(x)
print("\nlocate", x, "->", node.kind, node.cell)

# Cell queries: the largest stored box inside a query box and the
# smallest stored box containing it.
q = CellId(-1, (0,))
largest, smallest = tree.cell_query(q)
print("query box", q)
print("  largest stored inside: ", largest.cell if largest else None)
print("  smallest stored around:", smallest.cell if smallest else None)

# Inserting a box rebuilds the tree over its nodes plus the box (new
# node objects, same shape rule) and keeps the partition intact;
# re-querying the same box returns it on both sides.
box = CellId(-2, (2,))
tree.insert_box(box)
largest, smallest = tree.cell_query(box)
print("\nafter insert", box, "->", largest.cell, "and", smallest.cell)
