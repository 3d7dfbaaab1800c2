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

Both schemes read W_G.  The implicit scheme (:func:`wv_kernel_implicit`,
a Gram row per call) sums (W_G W_H^T) * k_V(G, H) entrywise.  The
explicit scheme (:func:`wv_features_explicit`) composes the feature maps
of the two base kernels:

* product kernel, paired keys — k_W(v, v') * k_V(v, v') is the dot of the
  tensor products w(v) x phi_V(v), whose keys pair a weight column with a
  key of phi_V as ``(column, *vertex key)`` and whose weights multiply;
* R-convolution, summed part maps — the kernel sums those products over
  the vertex pairs, so the map sums w(v) x phi_V(v) over the vertices.

phi_V is the vertex kernel's own map, :meth:`VertexKernelSpec.features`:
exact one-hots for the Dirac kinds, binning maps as an approximation of
the hat kernel.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from . import walks
from .errors import ContractError, MultiplicityOverflowError
from .gram import EXACT_LIMIT
from .graphs import INF_DISTANCE, Dataset, DisjointUnion, DistanceMatrix, Graph
from .graphs import all_pairs_shortest_paths, partner_runs
from .kernels import VertexKernelSpec
from .wl import wl_refine_dataset

# Multiplicities above this bound could make the table accumulation leave
# the integer-exact range of float64; we stop instead of getting it wrong.
_COUNT_LIMIT = 1 << 26

#: Most (source, vertex, target) cells one slice of a graph's
#: graphhopper triples holds, so peak memory stays flat however large the
#: graph; a vertex whose n * n cells alone exceed it forms a slice alone.
TRIPLE_CELLS = 1 << 15


class WeightFeatureMap:
    """Per-vertex weight vectors for every graph of one dataset.

    Weight columns are numbered dataset wide.  ``per_graph`` maps ``id(g)``
    to ``(g, columns, W)``: the ascending columns ``g`` uses and the int64
    ``(g.n, len(columns))`` matrix whose row ``v`` is w(v) over them.

    Graphs are identified by object identity; asking for a graph that was
    not part of the construction is an error.
    """

    def __init__(self, kind: str, per_graph: Dict[int, tuple]):
        self.kind = kind
        self._per_graph = per_graph

    def matrix(self, g: Graph) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, W)`` of ``g``."""
        entry = self._per_graph.get(id(g))
        if entry is None or entry[0] is not g:
            raise ContractError(
                f"graph {g!r} is not covered by this {self.kind} weight map"
            )
        return entry[1], entry[2]


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
    per_graph: Dict[int, tuple] = {}
    for g, strata in zip(ds.graphs, assignment.colors):
        column = (np.stack(strata, axis=1) + offsets).ravel()
        vertex = np.repeat(np.arange(g.n), iterations + 1)
        per_graph[id(g)] = (g, *_weight_matrix(g.n, vertex, column, 1))
    return WeightFeatureMap(f"graph-invariant(h={iterations})", per_graph)


def _hopper_tables(
    dm: DistanceMatrix, delta: int, graph_name: str
) -> Tuple[np.ndarray, np.ndarray]:
    """``(columns, W)`` of one graph: cell (i, j) of M(v), 0-based, is
    column ``i * delta + j`` of row ``v``.

    Each (source s, vertex v, target t) with v on a shortest s-t path
    adds #(s-v paths) * #(v-t paths) to cell (d(s, v), d(s, t)) of M(v).
    The triples are found for a slice of vertices at a time, each slice's
    (s, v, t) cells within :data:`TRIPLE_CELLS`, and one ``np.unique``
    sums them into the tables.
    """
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
    step = max(1, TRIPLE_CELLS // max(1, n * n))
    cells, multiplicities = [np.zeros(0, np.int64)], [np.zeros(0)]
    for a in range(0, n, step):
        on_path = d[:, a : a + step, None] + d[None, a : a + step, :] == d[:, None, :]
        s, v, t = np.nonzero(on_path & finite[:, None, :])
        v += a
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
    return WeightFeatureMap("graphhopper", per_graph)


def wv_kernel_implicit(
    g: Graph,
    hs: Sequence[Graph],
    weight_map: WeightFeatureMap,
    vertex_kernel: VertexKernelSpec,
) -> np.ndarray:
    """Weighted vertex kernels of ``g`` against each partner in ``hs``;
    one pair's value is ``wv_kernel_implicit(g, [h], ...)[0]``.

    Partners go in blocks, slices of ``hs`` as a :class:`DisjointUnion`
    whose ``g.n * H.n`` vertex pairs stay within :data:`walks.BLOCK_CELLS`.
    A block stacks its partners' W on ``g``'s columns (columns ``g`` lacks
    add nothing); one weight product times one vertex-kernel matrix
    against the block, summed per partner, gives its values.  With a Dirac
    vertex kernel the totals are exact integers below 2**53, and a partner
    whose total reaches 2**53 is named by a :class:`MultiplicityOverflowError`.
    """
    hs = DisjointUnion.of(hs)
    out = np.zeros(len(hs), dtype=np.float64)
    counting = vertex_kernel.kind in ("dirac", "dirac-attributes")
    columns_g, wg = weight_map.matrix(g)
    padded = np.append(columns_g, -1)  # searchsorted past the end: no column
    vertices = hs.vertex_offsets.tolist()
    cells = lambda a, b: g.n * (vertices[b] - vertices[a])
    for start, stop in partner_runs(len(hs), cells, walks.BLOCK_CELLS):
        block = hs[start:stop]
        wh = np.zeros((block.n, len(columns_g)), dtype=np.int64)
        for h, row in zip(block, block.vertex_offsets.tolist()):
            columns_h, w = weight_map.matrix(h)
            at = np.searchsorted(columns_g, columns_h)
            shared = padded[at] == columns_h
            wh[row : row + h.n, at[shared]] = w[:, shared]
        # einsum keeps these small products off BLAS's threads (as gram does)
        weights = np.einsum("ik,jk->ij", wg, wh, dtype=np.float64)
        per_vertex = (weights * vertex_kernel.matrix(g, block)).sum(axis=0)
        totals = np.bincount(block.owner, weights=per_vertex, minlength=stop - start)
        worst = int(np.argmax(totals))
        if counting and totals[worst] >= EXACT_LIMIT:
            raise MultiplicityOverflowError(
                f"weighted vertex total {totals[worst]:.4g} against partner "
                f"{start + worst} reached 2**53, past float64's exact range"
            )
        out[start:stop] = totals
    return out


def wv_features_explicit(
    g: Graph, weight_map: WeightFeatureMap, vertex_kernel: VertexKernelSpec
) -> Dict[tuple, float]:
    """Feature map of the weighted vertex kernel: the sum over vertices of
    w(v) x phi_V(v), keyed ``(weight column, *vertex key)``, with phi_V
    the vertex kernel's :meth:`~VertexKernelSpec.features`.  Exact for the
    Dirac kinds, where the weights stay Python ints, which
    :func:`gkern.gram.gram_explicit` guards at 2**53; the binned kind
    gives the binned approximation of the hat kernel, and the hat and rbf
    kinds have no map (ParameterError).
    """
    columns, w = weight_map.matrix(g)
    columns = columns.tolist()
    phis, phi_weight = vertex_kernel.features(g)
    entries: Dict[tuple, float] = {}
    for phi, row in zip(phis, w.tolist()):
        for column, weight in zip(columns, row):
            if weight:
                weight *= phi_weight
                for key in phi:
                    pair = (column, *key)
                    entries[pair] = entries.get(pair, 0) + weight
    return entries
