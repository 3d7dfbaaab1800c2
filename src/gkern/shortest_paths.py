"""Shortest-path kernels: transform once, then compare path ends.

The kernel sums, over every ordered vertex pair (u, v), u != v, of one
graph and every ordered pair (w, z) of the other, the product

    k_V(u, w) * k_len(d(u, v), d(w, z)) * k_V(v, z),

with unreachable pairs contributing nothing.  Computationally this is a
length-1 walk kernel on the *shortest-path transform* — the graph on the
same vertices whose edges connect every reachable pair and carry the hop
distance as their annotation.  So the implicit scheme is
:func:`gkern.walks.walk_kernel_implicit` with length 1 on the transforms,
the length kernel as its edge kernel, a Gram row per call.

With Dirac base kernels the explicit map is a count vector over
(source label, target label, distance) triples (:func:`sp_features_explicit`,
a dataset map counting both orientations of each pair, so e.g. the
3-vertex path with uniform labels maps to {(0,0,1): 4, (0,0,2): 2} and
has self-kernel 20).
Other base kernels have only the implicit scheme here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .gram import FeatureMatrix, count_rows
from .graphs import INF_DISTANCE, DisjointUnion, Graph, graphs_from_union, shortest_path_blocks


def _reachable_pairs(graphs: Sequence[Graph]) -> Tuple[np.ndarray, ...]:
    """``(graph, source, target, hops)`` of every ordered pair of distinct
    vertices of one of ``graphs`` that reach each other, vertices numbered
    as in the graphs' union, ascending by source and then target: the
    finite cells off the diagonals of
    :func:`~gkern.graphs.shortest_path_blocks`, found with one ``nonzero``."""
    dist, _, starts = shortest_path_blocks(graphs)
    cells = np.flatnonzero((dist != INF_DISTANCE) & (dist != 0))
    graph = np.searchsorted(starts, cells, side="right") - 1
    sizes = np.fromiter((g.n for g in graphs), np.int64, len(graphs))
    source, target = np.divmod(cells - starts[graph], sizes[graph])
    first = (np.cumsum(sizes) - sizes)[graph]
    return graph, first + source, first + target, dist[cells]


def sp_transforms(graphs: Sequence[Graph]) -> List[Graph]:
    """The :func:`sp_transform` of each of ``graphs``, in one pass: one
    breadth-first search over their union, and every transform's arrays
    cut from the union's (:func:`~gkern.graphs.graphs_from_union`)."""
    _, source, target, hops = _reachable_pairs(graphs)
    once = source < target  # already in sorted edge order
    return graphs_from_union(
        np.fromiter((g.n for g in graphs), np.int64, len(graphs)),
        np.column_stack((source[once], target[once])),
        hops[once],
        [g.vertex_labels for g in graphs],
        [g.vertex_attributes for g in graphs],
    )


def sp_transform(g: Graph) -> Graph:
    """Graph connecting every reachable vertex pair, annotated by distance.

    Vertex labels and attributes are carried over; pairs at infinite
    distance are simply not connected (the length kernel treats them as
    incomparable anyway).
    """
    return sp_transforms([g])[0]


def sp_features_explicit(graphs: Sequence[Graph]) -> FeatureMatrix:
    """Count vectors over (source label, target label, distance) triples,
    the dataset map of the shortest-path kernel with Dirac vertex and
    length kernels.

    Every ordered pair of distinct, mutually reachable vertices of a graph
    counts once; the dot product of two graphs' vectors equals their
    kernel value.  One search over the union of ``graphs`` gives the rows
    ``(source label, target label, hops)``, and one sort counts them
    (:func:`gkern.gram.count_rows`).
    """
    union = DisjointUnion.of(graphs)
    labels = union.vertex_label_array()
    graph, source, target, hops = _reachable_pairs(union)
    rows = np.column_stack((labels[source], labels[target], hops))
    return count_rows(len(union), [(graph, rows, None)])
