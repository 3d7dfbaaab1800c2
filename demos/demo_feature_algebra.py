"""
Sparse feature vectors and the kernels they realize
===================================================

Every explicit computation scheme in this library rests on one data
structure: a sparse feature vector mapping keys to float counts.  A
key is a tuple that starts with an integer tag naming its namespace.  This demo builds vectors by hand, combines them with the
closure operations (scaling, direct sum, tensor product, set sum), and
then shows how an arbitrary binary-valued kernel is turned into one-hot
vectors whose dot product reproduces it exactly.
"""

from gkern import FeatureVector, binary_feature_map, dot, scale, set_sum
from gkern.features import TAG_LABEL, direct_sum, tensor_product

# ---------------------------------------------------------------------
# 1. Vectors are dictionaries; the dot product sums matching keys.
# ---------------------------------------------------------------------
u = FeatureVector({(TAG_LABEL, 0): 2.0, (TAG_LABEL, 1): 1.0})
v = FeatureVector({(TAG_LABEL, 1): 3.0, (TAG_LABEL, 2): 5.0})
print("u =", u.to_text())
print("v =", v.to_text())
print("dot(u, v) =", dot(u, v), "(only the shared key contributes: 1*3)")
assert dot(u, v) == 3.0

# ---------------------------------------------------------------------
# 2. Closure operations: the algebra that lets kernels compose.
#    - scale(v, alpha) is the feature map of the kernel alpha*k
#      (each weight multiplied by sqrt(alpha)),
#    - direct_sum concatenates vectors in numbered slots (kernel sum),
#    - tensor_product pairs keys (kernel product),
#    - set_sum adds up one vector per element of a set.
# ---------------------------------------------------------------------
print("\nscale(u, 2)              ->", scale(u, 2.0).to_text())
print("direct_sum([u, v])       ->", direct_sum([u, v]).to_text())
print("tensor_product(u, v)     -> nnz", tensor_product(u, v).nnz)
print("set_sum([u, u, v])       ->", set_sum([u, u, v]).to_text())

# The defining identities, checked on this example (scale goes through
# sqrt(alpha), so that one holds to float rounding, not exactly):
assert abs(dot(scale(u, 2.0), scale(v, 2.0)) - 2.0 * dot(u, v)) < 1e-12
assert dot(direct_sum([u, v]), direct_sum([u, v])) == dot(u, u) + dot(v, v)
assert dot(tensor_product(u, v), tensor_product(u, v)) == dot(u, u) * dot(v, v)

# ---------------------------------------------------------------------
# 3. Any binary-valued kernel is a partial equivalence relation in
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
    print(f"  {item:4d} -> {vec.to_text()}")
for i, a in enumerate(items):
    for j, b in enumerate(items):
        assert dot(vectors[i], vectors[j]) == same_last_digit(a, b)
print("dot(vectors[i], vectors[j]) reproduces the kernel on all",
      len(items) ** 2, "pairs")
