"""Shortest-path kernels: transform once, then compare path ends.

The kernel sums, over every ordered vertex pair (u, v), u != v, of one
graph and every ordered pair (w, z) of the other, the product

    k_V(u, w) * k_len(d(u, v), d(w, z)) * k_V(v, z),

with unreachable pairs contributing nothing.  Computationally this is a
length-1 walk kernel on the *shortest-path transform* — the graph on the
same vertices whose edges connect every reachable pair and carry the hop
distance as their annotation — which is how :func:`sp_kernel_implicit`
evaluates it.

With Dirac base kernels the explicit map is a count vector over
(source label, target label, distance) triples (:func:`sp_features_explicit`,
counting both orientations of each pair, so e.g. the 3-vertex path with
uniform labels maps to {(0,0,1): 4, (0,0,2): 2} and has self-kernel 20).
For other factorizable choices, :func:`sp_features_approx` assembles the
map from per-vertex and per-length feature maps.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import ParameterError, ResourceBudgetError
from .features import (
    TAG_LEN,
    TAG_SP,
    FeatureVector,
    feature_key,
    tensor_product,
)
from .graphs import Graph, all_pairs_shortest_paths, INF_DISTANCE
from .kernels import EdgeKernelSpec, VertexKernelSpec
from .walks import explicit_labels, walk_kernel_implicit


def sp_transform(g: Graph) -> Graph:
    """Graph connecting every reachable vertex pair, annotated by distance.

    Vertex labels and attributes are carried over; pairs at infinite
    distance are simply not connected (the length kernel treats them as
    incomparable anyway).
    """
    dist = all_pairs_shortest_paths(g).dist
    edges = []
    labels = []
    for u in range(g.n):
        row = dist[u]
        for v in range(u + 1, g.n):
            if row[v] != INF_DISTANCE:
                edges.append((u, v))
                labels.append(int(row[v]))
    return Graph(
        g.n,
        edges,
        vertex_labels=g.vertex_labels,
        edge_labels=labels,
        vertex_attributes=g.vertex_attributes,
    )


def sp_kernel_implicit(
    g: Graph,
    h: Graph,
    vertex_kernel: VertexKernelSpec = VertexKernelSpec("dirac"),
    length_kernel: EdgeKernelSpec = EdgeKernelSpec("dirac"),
    transformed: bool = False,
) -> float:
    """Shortest-path kernel as the length-1 walk kernel on transforms.

    Pass ``transformed=True`` when the inputs already are shortest-path
    transforms (a Gram computation transforms each graph once).
    """
    tg = g if transformed else sp_transform(g)
    th = h if transformed else sp_transform(h)
    return walk_kernel_implicit(tg, th, vertex_kernel, length_kernel, length=1)


def sp_features_explicit(g: Graph) -> FeatureVector:
    """Count vector over (source label, target label, distance) triples.

    Every ordered pair of distinct, mutually reachable vertices counts
    once; the dot product of two such vectors equals the shortest-path
    kernel with Dirac vertex and length kernels.
    """
    labels = explicit_labels(g, "shortest-path")
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
    return FeatureVector(
        {feature_key(TAG_SP, key): c for key, c in counts.items()}
    )


def dirac_length_features(distance: int) -> FeatureVector:
    """One-hot feature map of the Dirac kernel on path lengths."""
    return FeatureVector.one_hot(feature_key(TAG_LEN, (int(distance),)))


def sp_features_approx(
    g: Graph,
    vertex_features: Callable[[Graph, int], FeatureVector],
    length_features: Callable[[int], FeatureVector] = dirac_length_features,
    max_entries: Optional[int] = 10_000_000,
) -> FeatureVector:
    """Shortest-path feature map assembled from factor feature maps.

    Each ordered reachable pair (u, v) contributes the tensor product
    ``phi_V(u) x (phi_len(d(u,v)) x phi_V(v))``; the sum over pairs is the
    feature map of the shortest-path kernel whose factors have those maps
    (e.g. binning maps for continuous attributes).  ``max_entries`` bounds
    the accumulated entry count; exceeding it raises
    :class:`ResourceBudgetError` rather than exhausting memory.
    """
    if max_entries is not None and max_entries < 1:
        raise ParameterError(f"max_entries must be positive, got {max_entries}")
    dist = all_pairs_shortest_paths(g).dist
    vertex_maps = [vertex_features(g, v) for v in range(g.n)]
    length_maps: dict = {}
    total: dict = {}
    for u in range(g.n):
        row = dist[u]
        left = vertex_maps[u]
        for v in range(g.n):
            if u == v or row[v] == INF_DISTANCE:
                continue
            d = int(row[v])
            if d not in length_maps:
                length_maps[d] = length_features(d)
            contribution = tensor_product(
                left, tensor_product(length_maps[d], vertex_maps[v])
            )
            for key, weight in contribution.items():
                accumulated = total.get(key, 0) + weight
                if accumulated == 0:
                    total.pop(key, None)
                else:
                    total[key] = accumulated
            if max_entries is not None and len(total) > max_entries:
                raise ResourceBudgetError(
                    f"shortest-path feature map exceeded {max_entries} entries"
                )
    return FeatureVector(total)
