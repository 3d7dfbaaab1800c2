"""
Shortest-path kernels, implicit and explicit
============================================

The shortest-path kernel compares two graphs by the multiset of
(source label, target label, distance) triples over all ordered vertex
pairs.  It is a walk kernel of length 1 in disguise: transform each
graph into its shortest-path closure (complete over reachable pairs,
edges labeled by distance) and compare single edges.

This demo transforms a small graph, computes the kernel's Gram matrix
with both schemes, and inspects the explicit features.
"""

from gkern import (
    Dataset,
    EdgeKernelSpec,
    Graph,
    VertexKernelSpec,
    gram_explicit,
    gram_implicit,
    sp_features_explicit,
    sp_transform,
    walk_kernel_implicit,
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
# 2. Both schemes agree: implicitly, the length-1 walk kernel on the
#    closures, a Gram row per call; explicitly, the triple counts.
# ---------------------------------------------------------------------
ds = Dataset("cycle-and-path", [cycle, path])
closures = Dataset(ds.name, [sp_transform(x) for x in ds.graphs])
dirac_v, dirac_len = VertexKernelSpec("dirac"), EdgeKernelSpec("dirac")
implicit = gram_implicit(
    closures, lambda x, partners: walk_kernel_implicit(x, partners, dirac_v, dirac_len, 1)
)
explicit = gram_explicit(ds, sp_features_explicit)
print(f"shortest-path kernel(cycle, path) = {implicit.values[0, 1]:g} "
      f"(explicit {explicit.values[0, 1]:g})")
assert (implicit.values == explicit.values).all()

# ---------------------------------------------------------------------
# 3. The explicit features are readable: (label_u, label_v, distance)
#    counts over ordered pairs.
# ---------------------------------------------------------------------
print("\ntriples of the 5-path:")
triples = sp_features_explicit([path]).vector(0)
for (source, target, distance), count in triples.items():
    print(f"  labels {source}->{target} at distance {distance}: {count:g}")
# one triple per ordered pair of distinct vertices, all reachable: 5 x 4
assert sum(triples.values()) == 20
