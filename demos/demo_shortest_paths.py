"""
Shortest-path kernels, implicit and explicit
============================================

The shortest-path kernel compares two graphs by the multiset of
(source label, target label, distance) triples over all ordered vertex
pairs.  It is a walk kernel of length 1 in disguise: transform each
graph into its shortest-path closure (complete over reachable pairs,
edges labeled by distance) and compare single edges.

This demo transforms a small graph, computes the kernel with both
schemes, and inspects the explicit features.
"""

from gkern import (
    Graph,
    dot,
    sp_features_explicit,
    sp_kernel_implicit,
    sp_transform,
)

# A labeled 5-cycle and a labeled 5-path.
cycle = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
              vertex_labels=[0, 1, 0, 1, 0])
path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
             vertex_labels=[0, 1, 0, 1, 0])

# ---------------------------------------------------------------------
# 1. The transform: same vertices, one edge per reachable pair,
#    edge label = shortest-path distance.
# ---------------------------------------------------------------------
closure = sp_transform(cycle)
print(f"5-cycle: {cycle.m} edges -> closure with "
      f"{closure.m} distance-labeled edges")

# ---------------------------------------------------------------------
# 2. Both schemes agree.
# ---------------------------------------------------------------------
implicit = sp_kernel_implicit(cycle, path)
explicit = dot(sp_features_explicit(cycle), sp_features_explicit(path))
print(f"shortest-path kernel(cycle, path) = {implicit:g} "
      f"(explicit {explicit:g})")
assert implicit == explicit

# ---------------------------------------------------------------------
# 3. The explicit features are readable: (label_u, label_v, distance)
#    counts over ordered pairs.
# ---------------------------------------------------------------------
print("\ntriples of the 5-path:")
for (_, source, target, distance), count in sp_features_explicit(path).items():
    print(f"  labels {source}->{target} at distance {distance}: {count:g}")
