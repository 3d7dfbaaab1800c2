"""
Attributed graphs: structural weights times attribute kernels
=============================================================

Kernels on graphs whose vertices carry continuous attribute vectors
factor into two ingredients:

* a **weight map** giving each vertex a sparse structural signature —
  here either its color-refinement trajectory or its table of
  shortest-path positions;
* an **attribute kernel** comparing the vectors — exact (Dirac on
  equal rows) or smooth (hat kernel), the latter approximable by
  randomized binning grids.

The implicit scheme sums weight-agreement times attribute-kernel over
all vertex pairs; the explicit scheme tensors weight features with
attribute features.  This demo shows both, then watches the binning
approximation converge to the hat kernel as the number of grids P
grows (error shrinking like 1/sqrt(P)).
"""

import random

from gkern import (
    Dataset,
    Graph,
    VertexKernelSpec,
    graph_invariant_weight_maps,
    gram_explicit,
    gram_implicit,
    graphhopper_weight_maps,
    sample_binning_grid,
    wv_features_explicit,
    wv_kernel_implicit,
)

# A small dataset of attributed graphs (1-D attributes in [0, 2]).
rng = random.Random(42)
graphs = []
for _ in range(6):
    n = rng.randint(4, 7)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5]
    attributes = [[rng.uniform(0.0, 2.0)] for _ in range(n)]
    graphs.append(Graph(n, edges, vertex_attributes=attributes))
ds = Dataset("attributed-demo", graphs)

# ---------------------------------------------------------------------
# 1. Two structural weight maps, shared across the dataset.
# ---------------------------------------------------------------------
refinement = graph_invariant_weight_maps(ds, 2)   # refinement colors, h=2
hopper = graphhopper_weight_maps(ds)              # shortest-path positions

# ---------------------------------------------------------------------
# 2. Exact attribute comparison: Dirac on attribute rows.  Both schemes
#    take the vertex kernel's spec; the explicit one, a dataset map, keys
#    each vertex by the rank of its attribute row among the dataset's
#    distinct rows (the spec's own feature map), a one-hot vector over
#    those rows, and the two schemes' Gram matrices agree.
# ---------------------------------------------------------------------
dirac_rows = VertexKernelSpec("dirac-attributes")


def implicit_gram(wm, vertex_kernel):
    """A Gram row per call: one graph against its partners."""
    return gram_implicit(
        ds, lambda x, partners: wv_kernel_implicit(x, partners, wm, vertex_kernel)
    ).values


def explicit_gram(wm, vertex_kernel):
    """One dataset map: every graph's vector from one pass over the union."""
    return gram_explicit(ds, lambda union: wv_features_explicit(union, wm, vertex_kernel)).values


for name, wm in (("refinement", refinement), ("path positions", hopper)):
    implicit = implicit_gram(wm, dirac_rows)
    explicit = explicit_gram(wm, dirac_rows)
    print(f"{name:15s}: (g0, g1) implicit {implicit[0, 1]:10.4f}  "
          f"explicit {explicit[0, 1]:10.4f}")
    assert abs(implicit - explicit).max() <= 1e-9 * max(1.0, abs(implicit).max())

# ---------------------------------------------------------------------
# 3. Smooth attribute comparison: the hat kernel max(0, 1 - |x-y|/d),
#    approximated by P randomly shifted grids of pitch d.  Two points
#    land in the same cell of one grid with probability exactly
#    hat(x, y), so counting collisions over P grids estimates the
#    kernel — with error falling like 1/sqrt(P).
# ---------------------------------------------------------------------
delta = 1.5
exact = implicit_gram(hopper, VertexKernelSpec("hat", delta=delta))[0, 1]
print(f"\nhat-kernel value of (g0, g1) (implicit, exact): {exact:.4f}")
print("P (grids)  binned estimate  |error|")
for num_grids in (1, 4, 16, 64, 256):
    grid = sample_binning_grid(1, delta, num_grids, seed=100 + num_grids)
    estimate = explicit_gram(hopper, VertexKernelSpec("binned", grid=grid))[0, 1]
    print(f"{num_grids:9d}  {estimate:15.4f}  {abs(estimate - exact):7.4f}")
