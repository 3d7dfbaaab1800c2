"""
Sparse feature vectors and the kernels they realize
===================================================

Every explicit computation scheme in this library rests on one data
structure: a sparse feature vector, a plain ``dict`` mapping keys to
non-zero weights.  A key is a plain tuple; one Gram matrix compares the
vectors of one map only, so keys carry no namespace.  This demo takes
dot products of hand-built vectors, then follows two composition rules
through the maps that realize them (a sum of walk kernels, and the
product of a vertex weight kernel with a label kernel summed over vertex
pairs), comparing each map's Gram matrix with the implicit one, and
finally keys vertices by their attribute rows, so that the dot product
reproduces the Dirac kernel on attributes exactly.
"""

from gkern import (
    Dataset,
    EdgeKernelSpec,
    Graph,
    VertexKernelSpec,
    graph_invariant_weight_maps,
    gram_explicit,
    gram_implicit,
    per_graph,
    walk_features_explicit,
    walk_kernel_implicit,
    wv_features_explicit,
    wv_kernel_implicit,
)

# ---------------------------------------------------------------------
# 1. Vectors are dictionaries; the dot product sums over the shared keys.
#    gram_explicit takes all of a dataset's dot products at once, from
#    a dataset map; per_graph makes one of a per-graph dict map.
# ---------------------------------------------------------------------
u = {(0,): 2.0, (1,): 1.0}
v = {(2,): 5.0, (1,): 3.0}
shared = u.keys() & v.keys()
uv = sum(u[key] * v[key] for key in shared)
print("u =", u)
print("v =", v)
print("u . v =", uv, f"(only the shared key {sorted(shared)} contributes: 1*3)")
assert uv == 3.0

g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], vertex_labels=[0, 1, 0, 1])
h = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_labels=[1, 0, 1, 0])
ds = Dataset("gh", [g, h])

# ---------------------------------------------------------------------
# 2. Sum kernel = concatenated maps.  The maxwalk kernel sums the walk
#    kernels of lengths 0..l; its map merges the per-length maps, whose
#    keys (length, labels...) never collide across lengths.  The walk map
#    builds every length in one pass over the dataset (all_rounds).
# ---------------------------------------------------------------------
length = 3
maxwalk = walk_features_explicit(ds.graphs, length, all_rounds=True)
parts = [walk_features_explicit(ds.graphs, l) for l in range(length + 1)]
assert maxwalk.vector(0) == {k: c for part in parts for k, c in part.vector(0).items()}

merged = gram_explicit(ds, lambda union: walk_features_explicit(union, length, True)).values
per_length = [gram_explicit(ds, lambda union, l=l: walk_features_explicit(union, l)).values
              for l in range(length + 1)]
# implicitly, one pass over the product graphs gives every length's term
implicit = gram_implicit(
    ds,
    lambda x, partners: walk_kernel_implicit(
        x, partners, VertexKernelSpec("dirac"), EdgeKernelSpec("dirac"), length,
        all_rounds=True,
    ).sum(axis=1),
).values
print(f"\nmaxwalk(l={length}) of (g, h): dot of merged maps = {merged[0, 1]:g}, "
      f"per-length dots {[int(p[0, 1]) for p in per_length]}, implicit {implicit[0, 1]:g}")
assert (merged == sum(per_length)).all() and (merged == implicit).all()

# ---------------------------------------------------------------------
# 3. Product kernel = paired keys.  The graph-invariant kernel multiplies
#    a weight kernel k_W (shared refinement colours) with a vertex kernel
#    k_V (here Dirac on labels, whose own map keys a vertex (label,)).
#    wv_features_explicit keys each vertex by (weight column, label),
#    with the product of the two weights: the map of k_W * k_V.  Summing
#    those over the vertices realizes the sum of k_W * k_V over all
#    vertex pairs.
# ---------------------------------------------------------------------
weights = graph_invariant_weight_maps(ds, 1)
dirac = VertexKernelSpec("dirac")
paired = wv_features_explicit(g, weights, dirac)
print("\nwv_features_explicit(g): paired keys (weight column, label)")
for (column, label), weight in sorted(paired.items()):
    print(f"  column {column} x label {label} -> {weight}")
explicit = gram_explicit(ds, per_graph(lambda x: wv_features_explicit(x, weights, dirac)))
implicit = gram_implicit(
    ds, lambda x, partners: wv_kernel_implicit(x, partners, weights, dirac)
)
print(f"dot of the paired maps of (g, h) = {explicit.values[0, 1]:g}, "
      f"implicit sum over vertex pairs {implicit.values[0, 1]:g}")
assert (explicit.values == implicit.values).all()

# ---------------------------------------------------------------------
# 4. A binary-valued vertex kernel is an equivalence relation in
#    disguise.  The dirac-attributes kernel's own map keys each vertex by
#    its attribute row, with weight 1: a one-hot vector over the rows, so
#    the dot product *is* the Dirac kernel on attribute rows.  Graph
#    rejects nan, which equals no row, not even its own.
# ---------------------------------------------------------------------
a = Graph(3, [(0, 1), (1, 2)], vertex_attributes=[[0.5, 1.0], [2.0, 0.0], [0.5, 1.0]])
b = Graph(2, [(0, 1)], vertex_attributes=[[2.0, 0.0], [1.5, 1.5]])
rows = VertexKernelSpec("dirac-attributes")
(keys_a, weight), (keys_b, _) = rows.features(a), rows.features(b)
print("\nattribute-row keys, weight", weight)
for name, keys in (("a", keys_a), ("b", keys_b)):
    for vertex, vertex_keys in enumerate(keys):
        print(f"  {name}[{vertex}] -> {vertex_keys}")
dirac_rows = rows.matrix(a, b)
for u, ku in enumerate(keys_a):
    for w, kw in enumerate(keys_b):
        assert weight * weight * len(set(ku) & set(kw)) == dirac_rows[u, w]
print("row-key dots reproduce the dirac-attributes kernel on all",
      a.n * b.n, "vertex pairs")
