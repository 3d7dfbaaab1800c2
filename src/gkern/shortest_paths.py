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

from typing import Sequence

import numpy as np

from .gram import FeatureMatrix, count_rows
from .graphs import DisjointUnion, Graph, all_pairs_shortest_paths, INF_DISTANCE


def sp_transform(g: Graph) -> Graph:
    """Graph connecting every reachable vertex pair, annotated by distance.

    Vertex labels and attributes are carried over; pairs at infinite
    distance are simply not connected (the length kernel treats them as
    incomparable anyway).
    """
    dist = all_pairs_shortest_paths(g).dist
    pairs = np.stack(np.triu_indices(g.n, k=1), axis=1)  # already in sorted edge order
    hops = dist[pairs[:, 0], pairs[:, 1]]
    reachable = hops != INF_DISTANCE
    return Graph(
        g.n,
        pairs[reachable],
        vertex_labels=g.vertex_labels,
        edge_labels=hops[reachable],
        vertex_attributes=g.vertex_attributes,
    )


def sp_features_explicit(graphs: Sequence[Graph]) -> FeatureMatrix:
    """Count vectors over (source label, target label, distance) triples,
    the dataset map of the shortest-path kernel with Dirac vertex and
    length kernels.

    Every ordered pair of distinct, mutually reachable vertices of a graph
    counts once; the dot product of two graphs' vectors equals their
    kernel value.  One distance matrix per graph gives the rows
    ``(source label, target label, hops)``, and one sort counts the rows
    of all graphs (:func:`gkern.gram.count_rows`).
    """
    union = DisjointUnion.of(graphs)
    labels = union.vertex_label_array()
    rows, owners = [np.zeros((0, 3), np.int64)], [np.zeros(0, np.int64)]
    for i, (g, first) in enumerate(zip(union, union.vertex_offsets.tolist())):
        dist = all_pairs_shortest_paths(g).dist
        np.fill_diagonal(dist, INF_DISTANCE)
        u, v = np.nonzero(dist != INF_DISTANCE)
        rows.append(np.column_stack((labels[first + u], labels[first + v], dist[u, v])))
        owners.append(np.full(u.size, i))
    return count_rows(len(union), [(np.concatenate(owners), np.concatenate(rows), None)])
