"""Weighted vertex kernels for graphs with continuous attributes.

These kernels compare all vertex pairs of two graphs through an attribute
kernel k_V, but weight every comparison by a structural kernel k_W that
factors through per-vertex weight vectors:

    K(G, H) = sum over (v in G, v' in H) of <w(v), w(v')> * k_V(v, v').

A :class:`WeightFeatureMap` stores the vectors as one integer matrix W_G
per graph, row v = w(v), over weight columns shared by the dataset:

* :func:`graph_invariant_weight_maps` — w(v) stacks one-hot indicators of
  the vertex's color refinement colors (on plain structure, uniform start)
  over iterations 0..h, so <w(v), w(v')> counts the iterations at which
  the two vertices look alike.
* :func:`graphhopper_weight_maps` — w(v) flattens the table M(v) whose
  (i, j) entry counts how often v is the i-th vertex on a shortest path
  with j vertices (every ordered source/target pair, every shortest path,
  including the single-vertex path v -> v), so <w(v), w(v')> is the
  Frobenius inner product of the two tables.

Both schemes read W_G.  The implicit scheme (:func:`wv_kernel_implicit`)
sums (W_G W_H^T) * k_V(G, H) entrywise; the explicit scheme
(:func:`wv_features_explicit`) uses that the whole kernel factors as the
dot of per-graph sums of tensor products w(v) x phi_V(v), given a feature
map phi_V for k_V (exact one-hots for discrete comparisons, binning maps
as an approximation for hat kernels).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from .errors import ContractError, MultiplicityOverflowError
from .features import TAG_GH, TAG_LABEL, TAG_WL, FeatureVector, feature_key, pair_key
from .gram import EXACT_LIMIT
from .graphs import INF_DISTANCE, Dataset, DistanceMatrix, Graph, all_pairs_shortest_paths
from .kernels import BinningGrid, VertexKernelSpec, binning_features
from .wl import wl_refine_dataset

# Multiplicities above this bound could make the table accumulation leave
# the integer-exact range of float64; we stop instead of getting it wrong.
_COUNT_LIMIT = 1 << 26


class WeightFeatureMap:
    """Per-vertex weight vectors for every graph of one dataset.

    Weight columns are numbered dataset wide; ``keys[c]`` is column ``c``'s
    byte key in explicit feature vectors.  ``per_graph`` maps ``id(g)`` to
    ``(g, columns, W)``: the ascending columns ``g`` uses and the int64
    ``(g.n, len(columns))`` matrix whose row ``v`` is w(v) over them.

    Graphs are identified by object identity; asking for a graph that was
    not part of the construction is an error.
    """

    def __init__(self, kind: str, keys: Dict[int, bytes], per_graph: Dict[int, tuple]):
        self.kind = kind
        self.keys = keys
        self._per_graph = per_graph

    def matrix(self, g: Graph) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, W)`` of ``g``."""
        entry = self._per_graph.get(id(g))
        if entry is None or entry[0] is not g:
            raise ContractError(
                f"graph {g!r} is not covered by this {self.kind} weight map"
            )
        return entry[1], entry[2]

    def common(self, g: Graph, h: Graph) -> Tuple[np.ndarray, np.ndarray]:
        """W_g and W_h restricted to the columns both graphs use."""
        (columns_g, wg), (columns_h, wh) = self.matrix(g), self.matrix(h)
        _, at_g, at_h = np.intersect1d(
            columns_g, columns_h, assume_unique=True, return_indices=True
        )
        return wg[:, at_g], wh[:, at_h]

    def weight(self, g: Graph, u: int, h: Graph, v: int) -> int:
        """k_W between two vertices: the dot of their weight vectors."""
        wg, wh = self.common(g, h)
        return sum(a * b for a, b in zip(wg[u].tolist(), wh[v].tolist()))


def _weight_matrix(n: int, vertex, column, weight) -> Tuple[np.ndarray, np.ndarray]:
    """``(columns, W)`` from distinct (vertex, column) cells and their weights."""
    columns = np.unique(column)
    w = np.zeros((n, len(columns)), dtype=np.int64)
    w[vertex, np.searchsorted(columns, column)] = weight
    return columns, w


def graph_invariant_weight_maps(ds: Dataset, iterations: int) -> WeightFeatureMap:
    """Stability-based weights: stacked one-hots of refinement colors.

    Refinement runs on the unlabeled structure (uniform start), dataset
    wide; every vertex vector has exactly ``iterations + 1`` entries, one
    per stratum, so dots count agreeing strata.  Color ``c`` of stratum
    ``i`` is column ``c`` plus the color count of the earlier strata.
    """
    assignment = wl_refine_dataset(ds, iterations, init="uniform")
    counts = assignment.colors_per_iteration
    offsets = np.cumsum([0, *counts[:-1]])
    keys = {
        int(offsets[i]) + c: feature_key(TAG_WL, (i, c))
        for i, count in enumerate(counts)
        for c in range(count)
    }
    per_graph: Dict[int, tuple] = {}
    for g, strata in zip(ds.graphs, assignment.colors):
        column = (np.stack(strata, axis=1) + offsets).ravel()
        vertex = np.repeat(np.arange(g.n), iterations + 1)
        per_graph[id(g)] = (g, *_weight_matrix(g.n, vertex, column, 1))
    return WeightFeatureMap(f"graph-invariant(h={iterations})", keys, per_graph)


def _hopper_tables(
    dm: DistanceMatrix, delta: int, graph_name: str
) -> Tuple[np.ndarray, np.ndarray]:
    """``(columns, W)`` of one graph: cell (i, j) of M(v), 0-based, is
    column ``i * delta + j`` of row ``v``."""
    dist, counts, n = dm.dist, dm.counts, dm.n
    if counts.size and int(counts.max()) > _COUNT_LIMIT:
        raise MultiplicityOverflowError(
            f"{graph_name}: shortest-path multiplicity {int(counts.max())} "
            f"exceeds the exact-arithmetic bound {_COUNT_LIMIT}"
        )
    finite = dist != INF_DISTANCE
    # n exceeds every finite distance, so no path runs through an
    # unreachable vertex
    d = np.where(finite, dist, n)
    counts_f = counts.astype(np.float64)
    cells, multiplicities = [np.zeros(0, np.int64)], [np.zeros(0)]
    for v in range(n):
        s, t = np.nonzero(finite & (d[:, v, None] + d[v] == d))
        cells.append((v * delta + d[s, v]) * delta + d[s, t])
        multiplicities.append(counts_f[s, v] * counts_f[v, t])
    cell, at = np.unique(np.concatenate(cells), return_inverse=True)
    table = np.bincount(at, weights=np.concatenate(multiplicities))
    if table.max(initial=0) >= EXACT_LIMIT:
        raise MultiplicityOverflowError(
            f"{graph_name}: path-count table entry left the "
            f"integer-exact float64 range"
        )
    vertex, column = np.divmod(cell, delta * delta)
    return _weight_matrix(n, vertex, column, table.astype(np.int64))


def graphhopper_weight_maps(ds: Dataset) -> WeightFeatureMap:
    """Path-count weights: M(v)[i, j] = #(shortest paths with j vertices
    on which v is the i-th vertex), over all ordered source/target pairs.

    The table is square with side ``delta``, the vertex count of the
    longest shortest path anywhere in the dataset, so vectors from
    different graphs share their key space.  The trivial path v -> v
    contributes M(v)[1, 1] += 1.  One all-pairs shortest-path pass per
    graph gives both ``delta`` and the tables.
    """
    distances = [all_pairs_shortest_paths(g, with_counts=True) for g in ds.graphs]
    delta = max(
        (int(dm.dist[dm.dist != INF_DISTANCE].max()) + 1 for dm in distances if dm.n),
        default=0,
    )
    per_graph = {
        id(g): (g, *_hopper_tables(dm, delta, f"graph {gi} of {ds.name!r}"))
        for gi, (g, dm) in enumerate(zip(ds.graphs, distances))
    }
    used = set().union(*(entry[1].tolist() for entry in per_graph.values()))
    keys = {c: feature_key(TAG_GH, (c // delta + 1, c % delta + 1)) for c in used}
    return WeightFeatureMap("graphhopper", keys, per_graph)


def wv_kernel_implicit(
    g: Graph,
    h: Graph,
    weight_map: WeightFeatureMap,
    vertex_kernel: VertexKernelSpec,
) -> float:
    """Sum of (W_g W_h^T) * k_V(g, h) entrywise: every vertex pair's
    weight dot times its attribute kernel value.

    With a Dirac vertex kernel every term is a non-negative integer, so the
    float64 total is exact below 2**53; a total that reaches 2**53 raises
    :class:`MultiplicityOverflowError` instead of losing exactness.
    """
    wg, wh = weight_map.common(g, h)
    # einsum runs in this thread; BLAS would spread these tiny products
    # over every core (see gram._blocked_product)
    weights = np.einsum("ik,jk->ij", wg, wh, dtype=np.float64)
    total = float(np.einsum("ij,ij->", weights, vertex_kernel.matrix(g, h)))
    if vertex_kernel.kind in ("dirac", "dirac-attributes") and total >= EXACT_LIMIT:
        raise MultiplicityOverflowError(
            f"weighted vertex total {total:.4g} reached 2**53, past the "
            f"integer-exact float64 range"
        )
    return total


def wv_features_explicit(
    g: Graph,
    weight_map: WeightFeatureMap,
    vertex_features: Callable[[Graph, int], FeatureVector],
) -> FeatureVector:
    """Feature map of the weighted vertex kernel: sum over vertices of
    w(v) x phi_V(v), from the rows of W_g in vertex order.  Exact when
    phi_V realizes k_V exactly; with binning maps it realizes the binned
    approximation instead.  Integer weights stay Python ints, which
    :func:`gkern.gram.gram_explicit` guards at 2**53.
    """
    columns, w = weight_map.matrix(g)
    keys = [weight_map.keys[c] for c in columns.tolist()]
    entries: Dict[bytes, float] = {}
    for v, row in enumerate(w.tolist()):
        phi = vertex_features(g, v).items()
        for key, weight in zip(keys, row):
            if weight:
                for phi_key, phi_weight in phi:
                    pair = pair_key(key, phi_key)
                    entries[pair] = entries.get(pair, 0) + weight * phi_weight
    return FeatureVector(entries)


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
