"""
One walk kernel, two computation schemes
========================================

The fixed-length walk kernel counts pairs of label-matching walks, one
walk in each graph.  It can be computed two ways:

* **implicit** — build the weighted direct product of the two graphs
  and count walks over its vertices; never materializes features, cost
  driven by the product graph's size.  The product's adjacency is
  symmetric, so walks of length l meet in the middle: each vertex's count
  of length-ceil(l/2) walks ending there, times its count of
  length-floor(l/2) ones, summed over the vertices, gives the value after
  ceil(l/2) rounds over the product edges instead of l;
* **explicit** — compute, per graph, a sparse vector counting every
  walk label sequence, then take one dot product; cost driven by how
  many distinct sequences exist.

Both return the same numbers.  This demo runs both on a dataset of two
small labeled graphs, as ``gkern compute`` does (the implicit kernel
takes one graph and a sequence of partners and returns a Gram row),
decodes a few of the explicit features into readable label sequences,
and finishes with all lengths up to a maximum from one pass.
"""

from gkern import (
    Dataset,
    EdgeKernelSpec,
    Graph,
    VertexKernelSpec,
    gram_explicit,
    gram_implicit,
    per_graph,
    walk_features_explicit,
    walk_kernel_implicit,
)

# Two labeled graphs: a labeled triangle and a labeled 4-path.
g = Graph(3, [(0, 1), (1, 2), (0, 2)], vertex_labels=[0, 1, 0],
          edge_labels=[0, 0, 1])
h = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_labels=[0, 1, 0, 1],
          edge_labels=[0, 1, 0])
dirac_v = VertexKernelSpec("dirac")
dirac_e = EdgeKernelSpec("dirac")

# ---------------------------------------------------------------------
# 1. Same Gram matrix from both schemes, at every length.
# ---------------------------------------------------------------------
ds = Dataset("triangle-and-path", [g, h])
print("length  implicit  explicit  (the (g, h) entry)")
for length in range(6):
    implicit = gram_implicit(
        ds, lambda x, partners: walk_kernel_implicit(x, partners, dirac_v, dirac_e, length)
    )
    explicit = gram_explicit(ds, per_graph(lambda x: walk_features_explicit(x, length)))
    print(f"{length:6d}  {implicit.values[0, 1]:8g}  {explicit.values[0, 1]:8g}")
    assert (implicit.values == explicit.values).all()

# ---------------------------------------------------------------------
# 2. What the explicit features actually are: counts of alternating
#    vertex/edge label sequences.  A key is the walk length, then
#    alternating vertex and edge labels.
# ---------------------------------------------------------------------
print("\nlength-2 walk features of the triangle:")
features = walk_features_explicit(g, 2)
for (length, *sequence), count in features.items():
    # vertex, edge, vertex, edge, vertex
    assert length == 2 and len(sequence) == 5
    print(f"  sequence {tuple(sequence)} (length {length}): {count:g} walk(s)")
# each of the 3 vertices starts 2 x 2 walks of length 2
assert sum(features.values()) == 12

# ---------------------------------------------------------------------
# 3. Every length 0..L from one pass over the product graph
#    (all_rounds), the same values as one call per length; weighting and
#    summing them gives the max-walk kernel.
# ---------------------------------------------------------------------
terms = walk_kernel_implicit(g, [h], dirac_v, dirac_e, 3, all_rounds=True)[0]
per_length = [walk_kernel_implicit(g, [h], dirac_v, dirac_e, l)[0] for l in range(4)]
assert terms.tolist() == per_length
coefficients = [1.0, 0.5, 0.25, 0.125]
combined = sum(c * t for c, t in zip(coefficients, terms.tolist()))
print(f"\nlengths 0..3: {terms.tolist()}; with geometric coefficients {combined:g}")

# ---------------------------------------------------------------------
# 4. A non-Dirac edge kernel: bonds of type 0 and 1 count half when
#    they differ.  The implicit scheme handles any edge kernel; the
#    explicit scheme is reserved for Dirac pipelines, where counting
#    is exact.
# ---------------------------------------------------------------------
soft_edges = EdgeKernelSpec("table", table=((0, 1, 0.5),))
print("soft edge kernel, length 2:",
      walk_kernel_implicit(g, [h], dirac_v, soft_edges, 2)[0],
      "(Dirac gave", walk_kernel_implicit(g, [h], dirac_v, dirac_e, 2)[0], ")")
