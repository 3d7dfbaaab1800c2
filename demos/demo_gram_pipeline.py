"""
From dataset to exported Gram matrix
====================================

The end-to-end workflow: generate (or load) a dataset, compute a Gram
matrix under both schemes, verify they agree, normalize, check positive
semidefiniteness, and export for a downstream precomputed-kernel SVM.
The command-line interface wraps exactly this pipeline; here it is as
library calls.
"""

import os
import tempfile

import numpy as np

from gkern import (
    EdgeKernelSpec,
    VertexKernelSpec,
    export_gram,
    generate_synthetic_labeled,
    gram_explicit,
    gram_implicit,
    load_gram_csv,
    min_eigenvalue_estimate,
    normalize,
    walk_features_explicit,
    walk_kernel_implicit,
)

# ---------------------------------------------------------------------
# 1. A reproducible synthetic dataset: 8 labeled graphs, ~10 vertices.
# ---------------------------------------------------------------------
ds = generate_synthetic_labeled(count=8, mean_vertices=10.0,
                                edge_prob=0.2, p_vertex=0.5, seed=3)
print(f"dataset {ds.name}: {len(ds)} graphs")

# ---------------------------------------------------------------------
# 2. Gram matrix of the length-4 walk kernel, both schemes.
# ---------------------------------------------------------------------
dirac_v, dirac_e = VertexKernelSpec("dirac"), EdgeKernelSpec("dirac")
implicit = gram_implicit(
    ds, lambda g, hs: walk_kernel_implicit(g, hs, dirac_v, dirac_e, 4),
    "walk(l=4)/implicit",
)
explicit = gram_explicit(
    ds, lambda union: walk_features_explicit(union, 4), "walk(l=4)/explicit",
)
assert (implicit.values == explicit.values).all()
print("schemes agree entrywise;", implicit.timing_block())

# ---------------------------------------------------------------------
# 3. Diagnostics: normalize to unit diagonal, estimate the smallest
#    eigenvalue (a true kernel's Gram matrix is positive semidefinite).
# ---------------------------------------------------------------------
unit = normalize(implicit)
low = min_eigenvalue_estimate(implicit.values)
print(f"normalized diagonal: {np.diag(unit.values).round(12).tolist()}")
print(f"smallest eigenvalue estimate: {low:.2e} (>= -1e-8 expected)")
assert low >= -1e-8

# ---------------------------------------------------------------------
# 4. Export: CSV for inspection, svm-precomputed for LIBSVM-style
#    consumers (one line per graph, class label first, 1-based row
#    index, then the row).
# ---------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "gram.csv")
    svm_path = os.path.join(tmp, "gram.svm")
    export_gram(unit, "csv", csv_path)
    export_gram(unit, "svm-precomputed", svm_path)
    reloaded = load_gram_csv(csv_path)
    assert np.allclose(reloaded, unit.values, atol=1e-12)
    with open(svm_path) as fh:
        first = fh.readline().strip()
    print(f"csv round-trips within 1e-12; first svm line: {first[:60]}...")
