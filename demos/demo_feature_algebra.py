"""
Sparse feature vectors and the kernels they realize
===================================================

Every explicit computation scheme in this library rests on one data
structure: a sparse feature vector, a plain ``dict`` mapping keys to
non-zero weights.  A key is a tuple that starts with an integer tag
naming its namespace.  This demo takes dot products of hand-built
vectors, then follows two composition rules through the maps that
realize them (a sum of walk kernels, a product of base kernels along
shortest paths), and finally turns an arbitrary binary-valued kernel
into one-hot vectors whose dot product reproduces it exactly.
"""

from gkern import (
    EdgeKernelSpec,
    Graph,
    VertexKernelSpec,
    binary_feature_map,
    dot,
    label_features,
    max_walk_kernel_implicit,
    sp_features_approx,
    sp_features_explicit,
    walk_features_explicit,
)
from gkern.features import TAG_LABEL

# ---------------------------------------------------------------------
# 1. Vectors are dictionaries; the dot product sums the shared keys,
#    in ascending key order, so it never depends on how a dict was built.
# ---------------------------------------------------------------------
u = {(TAG_LABEL, 0): 2.0, (TAG_LABEL, 1): 1.0}
v = {(TAG_LABEL, 2): 5.0, (TAG_LABEL, 1): 3.0}
print("u =", u)
print("v =", v)
print("dot(u, v) =", dot(u, v), "(only the shared key contributes: 1*3)")
assert dot(u, v) == dot(v, u) == 3.0

g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], vertex_labels=[0, 1, 0, 1])
h = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_labels=[1, 0, 1, 0])

# ---------------------------------------------------------------------
# 2. Sum kernel = concatenated maps.  The maxwalk kernel sums the walk
#    kernels of lengths 0..l; its map merges the per-length maps, whose
#    keys (TAG_WALK, length, labels...) never collide across lengths.
# ---------------------------------------------------------------------
length = 3


def maxwalk_features(graph):
    return {
        key: count
        for l in range(length + 1)
        for key, count in walk_features_explicit(graph, l).items()
    }


merged = dot(maxwalk_features(g), maxwalk_features(h))
per_length = [dot(walk_features_explicit(g, l), walk_features_explicit(h, l))
              for l in range(length + 1)]
implicit = max_walk_kernel_implicit(
    g, h, VertexKernelSpec("dirac"), EdgeKernelSpec("dirac"), length
)
print(f"\nmaxwalk(l={length}): dot of merged maps = {merged}, "
      f"per-length dots {per_length}, implicit {implicit:g}")
assert merged == sum(per_length) == implicit

# ---------------------------------------------------------------------
# 3. Product kernel = paired keys.  sp_features_approx keys each
#    reachable pair (u, w) by (TAG_PAIR, key(u), (TAG_PAIR, key(d), key(w)))
#    with the product of the three weights, and sums over the pairs.
#    With one-hot label maps it reproduces the direct shortest-path
#    count vector in every dot product.
# ---------------------------------------------------------------------
assembled = sp_features_approx(g, label_features)
print("\nsp_features_approx(g, label_features): first key",
      min(assembled), "->", assembled[min(assembled)])
direct = dot(sp_features_explicit(g), sp_features_explicit(h))
assert dot(assembled, sp_features_approx(h, label_features)) == direct
print("its dots equal the direct shortest-path map's:", direct)

# ---------------------------------------------------------------------
# 4. Any binary-valued kernel is a partial equivalence relation in
#    disguise (if it is a kernel at all).  binary_feature_map numbers
#    the classes and hands back one-hot vectors; the dot product then
#    *is* the kernel.  Here: two integers match when they have the same
#    last digit.
# ---------------------------------------------------------------------
items = [13, 7, 23, 101, 17, 3]
same_last_digit = lambda a, b: 1.0 if a % 10 == b % 10 else 0.0
vectors = binary_feature_map(items, same_last_digit)
print("\nlast-digit classes:")
for item, vec in zip(items, vectors):
    print(f"  {item:4d} -> {vec}")
for i, a in enumerate(items):
    for j, b in enumerate(items):
        assert dot(vectors[i], vectors[j]) == same_last_digit(a, b)
print("dot(vectors[i], vectors[j]) reproduces the kernel on all",
      len(items) ** 2, "pairs")
