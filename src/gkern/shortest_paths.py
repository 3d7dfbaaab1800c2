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
counting both orientations of each pair, so e.g. the 3-vertex path with
uniform labels maps to {(0,0,1): 4, (0,0,2): 2} and has self-kernel 20).
Other base kernels have only the implicit scheme here.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .graphs import Graph, all_pairs_shortest_paths, INF_DISTANCE


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


def sp_features_explicit(g: Graph) -> Dict[tuple, int]:
    """Count vector over (source label, target label, distance) triples.

    Every ordered pair of distinct, mutually reachable vertices counts
    once; the dot product of two such vectors equals the shortest-path
    kernel with Dirac vertex and length kernels.
    """
    labels = g.vertex_label_array().tolist()
    dist = all_pairs_shortest_paths(g).dist
    counts: dict = {}
    for u in range(g.n):
        row = dist[u]
        lu = labels[u]
        for v in range(g.n):
            if u == v or row[v] == INF_DISTANCE:
                continue
            key = (lu, labels[v], int(row[v]))
            counts[key] = counts.get(key, 0) + 1
    return counts
