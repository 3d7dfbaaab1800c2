"""Weighted vertex kernels for graphs with continuous attributes.

These kernels compare all vertex pairs of two graphs through an attribute
kernel k_V, but weight every comparison by a structural kernel k_W that
factors through per-vertex feature vectors:

    K(G, H) = sum over (v in G, v' in H) of <w(v), w(v')> * k_V(v, v').

Two weight constructions are provided, both computed dataset-wide so the
vectors are comparable across graphs:

* :func:`graph_invariant_weight_maps` — w(v) stacks one-hot indicators of
  the vertex's color refinement colors (on plain structure, uniform start)
  over iterations 0..h, so <w(v), w(v')> counts the iterations at which
  the two vertices look alike.
* :func:`graphhopper_weight_maps` — w(v) flattens the table M(v) whose
  (i, j) entry counts how often v is the i-th vertex on a shortest path
  with j vertices (every ordered source/target pair, every shortest path,
  including the single-vertex path v -> v), so <w(v), w(v')> is the
  Frobenius inner product of the two tables.

The implicit scheme (:func:`wv_kernel_implicit`) evaluates the double sum
directly; the explicit scheme (:func:`wv_features_explicit`) uses that the
whole kernel factors as the dot of per-graph sums of tensor products
w(v) x phi_V(v), given a feature map phi_V for k_V (exact one-hots for
discrete comparisons, binning maps as an approximation for hat kernels).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from .errors import ContractError, MultiplicityOverflowError
from .features import (
    TAG_GH,
    TAG_LABEL,
    TAG_WL,
    FeatureVector,
    dot,
    feature_key,
    set_sum,
    tensor_product,
)
from .gram import EXACT_LIMIT
from .graphs import (
    Dataset,
    Graph,
    INF_DISTANCE,
    all_pairs_shortest_paths,
)
from .kernels import BinningGrid, VertexKernelSpec, binning_features
from .wl import wl_refine_dataset

# Multiplicities above this bound could make the table accumulation leave
# the integer-exact range of float64; we stop instead of getting it wrong.
_COUNT_LIMIT = 1 << 26


class WeightFeatureMap:
    """Per-vertex weight vectors for every graph of one dataset.

    Graphs are identified by object identity; asking for a graph that was
    not part of the construction is an error.
    """

    def __init__(self, kind: str, per_graph: Dict[int, "tuple[Graph, List[FeatureVector]]"]):
        self.kind = kind
        self._per_graph = per_graph

    def vectors(self, g: Graph) -> List[FeatureVector]:
        entry = self._per_graph.get(id(g))
        if entry is None or entry[0] is not g:
            raise ContractError(
                f"graph {g!r} is not covered by this {self.kind} weight map"
            )
        return entry[1]

    def weight(self, g: Graph, u: int, h: Graph, v: int) -> float:
        """k_W between two vertices: the dot of their weight vectors."""
        return dot(self.vectors(g)[u], self.vectors(h)[v])


def graph_invariant_weight_maps(ds: Dataset, iterations: int) -> WeightFeatureMap:
    """Stability-based weights: stacked one-hots of refinement colors.

    Refinement runs on the unlabeled structure (uniform start), dataset
    wide; every vertex vector has exactly ``iterations + 1`` entries, one
    per stratum, so dots count agreeing strata.
    """
    assignment = wl_refine_dataset(ds, iterations, init="uniform")
    per_graph: Dict[int, tuple] = {}
    for gi, g in enumerate(ds.graphs):
        rows = assignment.colors[gi]
        vectors = []
        for v in range(g.n):
            vectors.append(
                FeatureVector(
                    {
                        feature_key(TAG_WL, (i, int(rows[i][v]))): 1
                        for i in range(iterations + 1)
                    }
                )
            )
        per_graph[id(g)] = (g, vectors)
    return WeightFeatureMap(f"graph-invariant(h={iterations})", per_graph)


def _hopper_tables(g: Graph, delta: int, graph_name: str) -> List[FeatureVector]:
    dm = all_pairs_shortest_paths(g, with_counts=True)
    n = g.n
    dist = dm.dist
    counts = dm.counts
    if counts.size and int(counts.max()) > _COUNT_LIMIT:
        raise MultiplicityOverflowError(
            f"{graph_name}: shortest-path multiplicity {int(counts.max())} "
            f"exceeds the exact-arithmetic bound {_COUNT_LIMIT}"
        )
    finite = dist != INF_DISTANCE
    dist_f = np.where(finite, dist.astype(np.float64), np.inf)
    counts_f = counts.astype(np.float64)
    vectors = []
    for v in range(n):
        into = dist_f[:, v][:, None]   # d(s, v)
        out_of = dist_f[v, :][None, :]  # d(v, t)
        on_path = np.isfinite(dist_f) & (into + out_of == dist_f)
        table = np.zeros((delta, delta), dtype=np.float64)
        if on_path.any():
            position = np.broadcast_to(dist[:, v][:, None], (n, n))[on_path]
            length = dist[on_path]
            multiplicity = (counts_f[:, v][:, None] * counts_f[v, :][None, :])[
                on_path
            ]
            np.add.at(table, (position, length), multiplicity)
        if table.max() >= EXACT_LIMIT:
            raise MultiplicityOverflowError(
                f"{graph_name}: path-count table entry left the "
                f"integer-exact float64 range"
            )
        vectors.append(
            FeatureVector(
                {
                    feature_key(TAG_GH, (i + 1, j + 1)): int(table[i, j])
                    for i, j in zip(*np.nonzero(table))
                }
            )
        )
    return vectors


def graphhopper_weight_maps(ds: Dataset) -> WeightFeatureMap:
    """Path-count weights: M(v)[i, j] = #(shortest paths with j vertices
    on which v is the i-th vertex), over all ordered source/target pairs.

    The table is square with side ``ds.max_diameter`` (vertex count of the
    longest shortest path anywhere in the dataset), so vectors from
    different graphs share their key space.  The trivial path v -> v
    contributes M(v)[1, 1] += 1.
    """
    delta = ds.max_diameter
    per_graph: Dict[int, tuple] = {}
    for gi, g in enumerate(ds.graphs):
        per_graph[id(g)] = (
            g,
            _hopper_tables(g, delta, f"graph {gi} of {ds.name!r}"),
        )
    return WeightFeatureMap("graphhopper", per_graph)


def wv_kernel_implicit(
    g: Graph,
    h: Graph,
    weight_map: WeightFeatureMap,
    vertex_kernel: VertexKernelSpec,
) -> float:
    """Direct double sum of weight-vector dots times attribute kernel.

    With a Dirac vertex kernel every term is a non-negative integer, so the
    float64 total is exact below 2**53; a total that reaches 2**53 raises
    :class:`MultiplicityOverflowError` instead of losing exactness.
    """
    wg = weight_map.vectors(g)
    wh = weight_map.vectors(h)
    values = vertex_kernel.matrix(g, h)
    total = 0.0
    for u in range(g.n):
        row = values[u]
        left = wg[u]
        for v in np.nonzero(row)[0]:
            total += dot(left, wh[int(v)]) * row[v]
    if vertex_kernel.kind in ("dirac", "dirac-attributes") and total >= EXACT_LIMIT:
        raise MultiplicityOverflowError(
            f"weighted vertex total {total:.4g} reached 2**53, past the "
            f"integer-exact float64 range"
        )
    return float(total)


def wv_features_explicit(
    g: Graph,
    weight_map: WeightFeatureMap,
    vertex_features: Callable[[Graph, int], FeatureVector],
) -> FeatureVector:
    """Feature map of the weighted vertex kernel: sum over vertices of
    w(v) x phi_V(v).  Exact when phi_V realizes k_V exactly; with binning
    maps it realizes the binned approximation instead."""
    weights = weight_map.vectors(g)
    return set_sum(
        tensor_product(weights[v], vertex_features(g, v)) for v in range(g.n)
    )


# -- ready-made per-vertex attribute feature maps ---------------------------


def label_features(g: Graph, v: int) -> FeatureVector:
    """One-hot on the discrete vertex label (pseudo-label 0 if none)."""
    label = int(g.vertex_label_array()[v])
    return FeatureVector.one_hot(feature_key(TAG_LABEL, (label,)))


def attribute_class_features(ds: Dataset) -> Callable[[Graph, int], FeatureVector]:
    """Exact one-hot map over the distinct attribute rows of a dataset.

    The returned map realizes the Dirac kernel on attribute rows exactly;
    classes are numbered by first occurrence.
    """
    classes: Dict[tuple, int] = {}
    for g in ds.graphs:
        if g.vertex_attributes is None:
            raise ContractError(f"dataset {ds.name!r} has graphs without attributes")
        for row in g.vertex_attributes:
            key = tuple(row.tolist())
            if key not in classes:
                classes[key] = len(classes)

    def _features(g: Graph, v: int) -> FeatureVector:
        key = tuple(g.vertex_attributes[v].tolist())
        try:
            class_id = classes[key]
        except KeyError:
            raise ContractError(
                "attribute row not seen when the class map was built"
            ) from None
        return FeatureVector.one_hot(feature_key(TAG_LABEL, (class_id,)))

    return _features


def binned_attribute_features(
    grid: BinningGrid,
) -> Callable[[Graph, int], FeatureVector]:
    """Binning feature map on vertex attributes for a fixed grid."""

    def _features(g: Graph, v: int) -> FeatureVector:
        if g.vertex_attributes is None:
            raise ContractError("graph has no vertex attributes")
        return binning_features(g.vertex_attributes[v], grid)

    return _features
