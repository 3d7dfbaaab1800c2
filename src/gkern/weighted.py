"""Weighted vertex kernels for graphs with continuous attributes.

These kernels compare all vertex pairs of two graphs through an attribute
kernel k_V, but weight every comparison by a structural kernel k_W that
factors through per-vertex weight vectors:

    K(G, H) = sum over (v in G, v' in H) of <w(v), w(v')> * k_V(v, v').

A :class:`WeightFeatureMap` stores the vectors of a whole dataset as one
integer table of ``(vertex, column, weight)`` rows over the vertices of
its union, weight columns shared by the dataset:

* :func:`graph_invariant_weight_maps` — w(v) stacks one-hot indicators of
  the vertex's color refinement colors (on plain structure, uniform start)
  over iterations 0..h, so <w(v), w(v')> counts the iterations at which
  the two vertices look alike.
* :func:`graphhopper_weight_maps` — w(v) flattens the table M(v) whose
  (i, j) entry counts how often v is the i-th vertex on a shortest path
  with j vertices (every ordered source/target pair, every shortest path,
  including the single-vertex path v -> v), so <w(v), w(v')> is the
  Frobenius inner product of the two tables.

Both schemes read the table.  The implicit scheme
(:func:`wv_kernel_implicit`, a Gram row per call) fills the matrices W_G
and W_H, row v = w(v), and sums (W_G W_H^T) * k_V(G, H) entrywise.  The
explicit scheme (:func:`wv_features_explicit`, a dataset map) composes
the feature maps of the two base kernels:

* product kernel, paired keys — k_W(v, v') * k_V(v, v') is the dot of the
  tensor products w(v) x phi_V(v), whose keys pair a weight column with a
  key of phi_V as ``(column, *vertex key)`` and whose weights multiply;
* R-convolution, summed part maps — the kernel sums those products over
  the vertex pairs, so the map sums w(v) x phi_V(v) over the vertices.

phi_V is the vertex kernel's own map, :meth:`VertexKernelSpec.features`:
exact one-hots for the Dirac kinds, binning maps as an approximation of
the hat kernel.  The map pairs each table row with its vertex's keys and
counts the ``(column, *vertex key)`` rows of every graph in one pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import walks
from .errors import ContractError, GKError, GramError, MultiplicityOverflowError
from .gram import EXACT_LIMIT, FeatureMatrix, count_rows
from .graphs import INF_DISTANCE, Dataset, DisjointUnion, DistanceMatrix, Graph
from .graphs import partner_runs, shortest_path_blocks
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
    """Per-vertex weight vectors for every graph of one dataset, as one
    table.

    ``table`` holds an int64 row ``(vertex, column, weight)`` for each
    nonzero entry of w(v), vertices numbered as in the
    :class:`~gkern.graphs.DisjointUnion` of the graphs, sorted by vertex
    and then by column.  Weight columns are numbered dataset wide, from 0
    to ``columns - 1``; :meth:`rows` reads any graphs' rows.

    Graphs are identified by object identity (the map holds its graphs, so
    no other graph shares an id with one of them); asking for a graph that
    was not part of the construction is a :class:`ContractError`.
    """

    def __init__(self, kind: str, graphs: Sequence[Graph], table: np.ndarray):
        self.kind, self.table = kind, table
        self._graphs = tuple(graphs)
        self._index = {id(g): i for i, g in enumerate(self._graphs)}
        self.columns = int(table[:, 1].max(initial=-1)) + 1
        self._vertices = np.cumsum([0] + [g.n for g in self._graphs], dtype=np.int64)
        # graph i's rows run from entries[i] to entries[i + 1]
        self._entries = np.searchsorted(table[:, 0], self._vertices)

    def rows(self, graphs: Sequence[Graph]) -> np.ndarray:
        """The table's rows of ``graphs``, in their order, with vertices
        numbered as in the union of ``graphs``."""
        at = np.fromiter((self._index.get(id(g), -1) for g in graphs), np.int64, len(graphs))
        if (at < 0).any():
            missing = graphs[int(np.argmax(at < 0))]
            raise ContractError(f"graph {missing!r} is not covered by this {self.kind} weight map")
        if len(at) and (np.diff(at) == 1).all():
            # a run of the map's graphs, as a Gram row's partners are
            rows = self.table[self._entries[at[0]] : self._entries[at[-1] + 1]].copy()
            rows[:, 0] -= self._vertices[at[0]]
            return rows
        lo, counts = self._entries[at], self._entries[at + 1] - self._entries[at]
        starts = np.cumsum(counts) - counts
        rows = np.take(self.table, np.arange(counts.sum()) + np.repeat(lo - starts, counts), 0)
        sizes = self._vertices[at + 1] - self._vertices[at]
        rows[:, 0] -= np.repeat(self._vertices[at] - (np.cumsum(sizes) - sizes), counts)
        return rows


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
    none = np.zeros((0, iterations + 1), dtype=np.int64)
    column = np.concatenate([none, *map(np.column_stack, assignment.colors)]) + offsets
    vertex = np.repeat(np.arange(len(column)), iterations + 1)
    table = np.column_stack((vertex, column.ravel(), np.ones_like(vertex)))
    return WeightFeatureMap(f"graph-invariant(h={iterations})", ds.graphs, table)


def _hopper_tables(dm: DistanceMatrix, delta: int, graph_name: str) -> np.ndarray:
    """The ``(vertex, column, weight)`` rows of one graph: cell (i, j) of
    M(v), 0-based, is column ``i * delta + j`` of vertex ``v``.

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
    return np.column_stack((*np.divmod(cell, delta * delta), table.astype(np.int64)))


def graphhopper_weight_maps(ds: Dataset) -> WeightFeatureMap:
    """Path-count weights: M(v)[i, j] = #(shortest paths with j vertices
    on which v is the i-th vertex), over all ordered source/target pairs.

    The table is square with side ``delta``, the vertex count of the
    longest shortest path anywhere in the dataset, so vectors from
    different graphs share their key space.  The trivial path v -> v
    contributes M(v)[1, 1] += 1.  One shortest-path search over the
    dataset's union gives every graph's distances and path counts, so
    both ``delta`` and the tables.
    """
    dist, counts, starts = shortest_path_blocks(ds.graphs, with_counts=True)
    delta = int(dist[dist != INF_DISTANCE].max(initial=-1)) + 1
    tables, first = [], 0
    for gi, (g, a, b) in enumerate(zip(ds.graphs, starts.tolist(), starts[1:].tolist())):
        dm = DistanceMatrix(dist[a:b].reshape(g.n, g.n), counts[a:b].reshape(g.n, g.n))
        # the graph's rows, its vertices renumbered from its first in the union
        tables.append(_hopper_tables(dm, delta, f"graph {gi} of {ds.name!r}") + [first, 0, 0])
        first += g.n
    table = np.concatenate([np.zeros((0, 3), dtype=np.int64), *tables])
    return WeightFeatureMap("graphhopper", ds.graphs, table)


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
    The partners' table rows are gathered once per call, each placed on
    ``g``'s columns by one lookup, and one scatter fills a block's W_H;
    one weight product times one vertex-kernel matrix against the block,
    summed per partner, gives its values.  With a Dirac
    vertex kernel the totals are exact integers below 2**53, and a partner
    whose total reaches 2**53 is named by a :class:`MultiplicityOverflowError`.
    """
    hs = DisjointUnion.of(hs)
    out = np.zeros(len(hs), dtype=np.float64)
    counting = vertex_kernel.kind in ("dirac", "dirac-attributes")
    vertex, column, weight = weight_map.rows([g]).T
    columns_g = np.unique(column)
    # each column's place among g's; the columns g lacks share a spare
    # last one, whose zeros in W_G make them add nothing
    place = np.full(weight_map.columns, len(columns_g))
    place[columns_g] = np.arange(len(columns_g))
    wg = np.zeros((g.n, len(columns_g) + 1), dtype=np.int64)
    wg[vertex, place[column]] = weight
    vertex, column, weight = weight_map.rows(hs).T
    at = place[column]
    # partner j's rows run from bounds[j] to bounds[j + 1]
    bounds = np.searchsorted(vertex, hs.vertex_offsets).tolist()
    vertices = hs.vertex_offsets.tolist()
    cells = lambda a, b: g.n * (vertices[b] - vertices[a])
    for start, stop in partner_runs(len(hs), cells, walks.BLOCK_CELLS):
        block = hs[start:stop]
        part = slice(bounds[start], bounds[stop])
        wh = np.zeros((block.n, len(columns_g) + 1), dtype=np.int64)
        wh[vertex[part] - vertices[start], at[part]] = weight[part]
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
    graphs: Sequence[Graph], weight_map: WeightFeatureMap, vertex_kernel: VertexKernelSpec
) -> FeatureMatrix:
    """The dataset map of the weighted vertex kernel: each graph's sum
    over its vertices of w(v) x phi_V(v), keyed ``(weight column, *vertex
    key)``, with phi_V the vertex kernel's
    :meth:`~VertexKernelSpec.features` on the union of ``graphs``.

    Each table row of ``weight_map`` pairs with its vertex's keys, and
    :func:`~gkern.gram.count_rows` sums the rows' integer weights per
    graph and key.  The sums are float64: exact below 2**53 and never
    below it once past it, so no sum wraps and a weight past 2**53 keeps
    its pairs failing :func:`~gkern.gram.gram_explicit`'s exactness guard.
    Exact for the Dirac kinds; the binned kind scales the sums by
    1/sqrt(P) and gives the binned approximation of the hat kernel, its
    graphs non-integral.  The hat and rbf kinds have no map.  A graph the
    vertex kernel's map fails on alone, as one without attributes, fails
    with a :class:`GramError` that names it.
    """
    union = DisjointUnion.of(graphs)
    if not len(union):
        return count_rows(0, [])
    vertex, column, weight = weight_map.rows(union).T
    try:
        keys, scale = vertex_kernel.features(union)
    except GKError:
        # the first graph that fails alone is named
        for i, g in enumerate(union):
            try:
                vertex_kernel.features(g)
            except GKError as exc:
                raise GramError(f"graph {i} failed: {exc}") from exc
        raise
    k, width = keys.shape[1:]
    rows = np.concatenate((np.repeat(column, k)[:, None], keys[vertex].reshape(-1, width)), axis=1)
    counts = np.repeat(weight, k).astype(np.float64)
    features = count_rows(len(union), [(np.repeat(union.owner[vertex], k), rows, counts)])
    if vertex_kernel.kind == "binned":
        features.weight *= scale
        features.integral[:] = False
    return features
