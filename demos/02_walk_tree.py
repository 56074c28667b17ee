"""The self-avoiding-walk tree: turning a graph with cycles into a tree.

Walks from the root extend to every neighbor except the vertex they just
arrived from.  A walk that revisits a vertex closes a cycle and ends in a
copy of that vertex pinned to + or -, decided by comparing the closing edge
against the edge the walk first used to leave the revisited vertex.  Pinned
copies stop the walk, so the tree is finite even with no depth limit.
"""

from spinz import (
    Spin,
    build_family_graph,
    build_saw_tree,
    format_saw_tree,
    frontier_count,
    ising_system,
)
from spinz.core import Graph

triangle = ising_system(build_family_graph("cycle", n=3), 0.5)
tree = build_saw_tree(triangle, root=1, depth_limit=10)
print("walk tree of a triangle from vertex 1:")
print(format_saw_tree(tree))
print(f"nodes: {tree.node_count}\n")

# Conditioning pins vertices: every walk that reaches one stops there.
path = ising_system(build_family_graph("path", n=5), 0.5)
tree = build_saw_tree(path, root=3, depth_limit=10, condition={5: Spin.PLUS})
print("walk tree of a 5-path from vertex 3 with vertex 5 held at +:")
print(format_saw_tree(tree))

# On the Petersen graph the tree grows until its girth-5 cycles close.
petersen = Graph.from_edges(10, [
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),
])
# The tree cut uniformly at each depth limit, and the tree the estimate
# walks, which splits the root's error allowance over the free branches
# and stops a branch once its share needs no further look.
system = ising_system(petersen, 0.3)
print("\nPetersen graph, tree size and open frontier by depth limit:")
print(f"  {'depth':>5}  {'nodes':>6}  {'frontier':>8}  {'split':>6}")
for depth in range(1, 9):
    tree = build_saw_tree(system, root=1, depth_limit=depth, uniform=True)
    split = build_saw_tree(system, root=1, depth_limit=depth)
    print(f"  {depth:>5}  {tree.node_count:>6}  {frontier_count(tree, depth):>8}"
          f"  {split.node_count:>6}")
full = build_saw_tree(system, root=1, depth_limit=10**6, uniform=True)
print(f"untruncated tree: {full.node_count} nodes, every leaf a pinned cycle-closing copy")
