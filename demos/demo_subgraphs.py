"""
Counting small subgraphs vs. matching them softly
=================================================

Two related kernels over small substructures:

* the **graphlet kernel** counts connected 3-vertex subgraphs per
  canonical class and takes a dot product of the count vectors;
* the **subgraph matching kernel** enumerates cliques of an
  association graph, scoring every local isomorphism between vertex
  subsets — with Dirac base kernels it counts matchings exactly, with
  softer kernels it degrades gracefully instead of dropping to zero.

With Dirac kernels a matching is an isomorphism between induced
subgraphs, so the matching kernel is itself a dot product of class
counts, each class weighted by its number of automorphisms.  This demo
shows the counts, that explicit map, and what a soft edge kernel changes.
"""

from collections import Counter
from itertools import permutations

from gkern import (
    EdgeKernelSpec,
    Graph,
    VertexKernelSpec,
    canonical_string,
    dot,
    graphlet_features,
    matching_features,
    subgraph_matching_kernel,
)

# Two labeled graphs on 5 vertices (vertex labels only, for now).
g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
          vertex_labels=[0, 0, 1, 0, 1])
h = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
          vertex_labels=[0, 1, 0, 1, 0])
dirac_v = VertexKernelSpec("dirac")
dirac_e = EdgeKernelSpec("dirac")

# ---------------------------------------------------------------------
# 1. Graphlet vectors: canonical class -> count.
# ---------------------------------------------------------------------
for name, graph in (("g", g), ("h", h)):
    vec = graphlet_features(graph)
    print(f"connected 3-vertex subgraphs of {name}: "
          f"{vec.nnz} classes, total {sum(c for _, c in vec.items()):g}")
print("graphlet kernel =", dot(graphlet_features(g), graphlet_features(h)))

# ---------------------------------------------------------------------
# 2. The matching kernel with Dirac kernels is a dot product: every
#    class P of induced subgraphs, counted c_P times, weighted by its
#    automorphism count (a path on labels (a, b, a) can be flipped; a
#    triangle with equal labels has six symmetries).  matching_features
#    emits each class once per automorphism, with weight c_P.
# ---------------------------------------------------------------------
for connected in (False, True):
    implicit = subgraph_matching_kernel(
        g, h, dirac_v, dirac_e, max_size=3, connected_only=connected
    )
    explicit = dot(matching_features(g, 3, connected),
                   matching_features(h, 3, connected))
    print(f"matching kernel, sizes 1..3, connected_only={connected}: "
          f"clique sum {implicit:g} = feature dot {explicit:g}")
    assert implicit == explicit

# The size-3 connected stratum alone, checked from scratch below.
matching = subgraph_matching_kernel(
    g, h, dirac_v, dirac_e,
    max_size=3,
    size_weights=lambda k: 1.0 if k == 3 else 0.0,
    connected_only=True,
)
print(f"matching kernel (exact size 3, connected) = {matching:g}")


# Recompute the right-hand side from scratch with stdlib counting.
def triple_classes(graph):
    """Counts and one representative per canonical 3-subgraph class."""
    counts, reps = Counter(), {}
    present = {tuple(sorted(e)) for e in graph.edges}
    n = graph.n
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                edges = [(x, y) for x, y in ((a, b), (a, c), (b, c))
                         if (x, y) in present]
                if len(edges) < 2:
                    continue  # not connected on 3 vertices
                order = {a: 0, b: 1, c: 2}
                sub = Graph(
                    3, [(order[x], order[y]) for x, y in edges],
                    vertex_labels=[int(graph.vertex_labels[v])
                                   for v in (a, b, c)],
                )
                cls = canonical_string(sub)
                counts[cls] += 1
                reps.setdefault(cls, sub)
    return counts, reps


def automorphism_count(sub):
    """Label- and edge-preserving permutations of a 3-vertex graph."""
    labels = [int(x) for x in sub.vertex_labels]
    edge_set = {tuple(sorted(e)) for e in sub.edges}
    total = 0
    for perm in permutations(range(3)):
        if any(labels[perm[v]] != labels[v] for v in range(3)):
            continue
        if {tuple(sorted((perm[x], perm[y])))
                for x, y in edge_set} == edge_set:
            total += 1
    return total


counts_g, reps_g = triple_classes(g)
counts_h, _ = triple_classes(h)
expected = sum(cnt * counts_h.get(cls, 0) * automorphism_count(reps_g[cls])
               for cls, cnt in counts_g.items())
print(f"class-count agreement weighted by automorphisms = {expected:g}")
assert matching == expected

# ---------------------------------------------------------------------
# 3. A soft edge kernel needs edge labels to act on.  Give both graphs
#    two bond types; structural connections whose types differ count
#    half instead of zero, so the kernel value moves up.
# ---------------------------------------------------------------------
g2 = Graph(g.n, [tuple(e) for e in g.edges],
           vertex_labels=[int(x) for x in g.vertex_labels],
           edge_labels=[0, 0, 1, 0, 1])
h2 = Graph(h.n, [tuple(e) for e in h.edges],
           vertex_labels=[int(x) for x in h.vertex_labels],
           edge_labels=[1, 0, 1, 0, 0, 1])
hard = subgraph_matching_kernel(g2, h2, dirac_v, dirac_e, max_size=3)
soft = subgraph_matching_kernel(
    g2, h2, dirac_v, EdgeKernelSpec("table", table=((0, 1, 0.5),)),
    max_size=3,
)
print(f"\nsizes 1..3 with bond types — Dirac edges: {hard:g}, "
      f"half-weight on mismatched types: {soft:g}")
assert soft > hard
