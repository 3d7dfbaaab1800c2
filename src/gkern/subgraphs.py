"""Kernels built from small subgraphs.

:func:`graphlet_features` counts the connected induced 3-vertex subgraphs
of a graph — triangles and 2-edge paths, with their vertex and edge labels
— keyed by a canonical form, so the dot product of two count vectors is a
kernel comparing subgraph content.  Enumeration is edge-anchored (each
triangle found at its lexicographically smallest edge, each path at its
center), which costs sum-of-squared-degrees rather than all vertex triples.

:func:`subgraph_matching_kernel` scores *mappings* between subgraphs
instead of counting isomorphism classes: each common-subgraph isomorphism
of size up to ``max_size`` appears as a clique in the association graph of
compatible vertex pairs, and contributes the product of its vertex- and
edge-kernel values, weighted by a function of its size.  With Dirac
kernels, exact size 3 and the connectedness filter, the value equals the
graphlet count agreement with each class weighted by its automorphism
count (6 per triangle pairing, 2 per path pairing with uniform labels).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ContractError, ParameterError
from .features import TAG_GRAPHLET, FeatureVector, feature_key
from .graphs import Graph
from .kernels import EdgeKernelSpec, VertexKernelSpec

_TRIPLE_ORDERS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def _canonical_triple(
    labels: Tuple[int, int, int],
    edges: dict,
) -> Tuple[int, ...]:
    """Smallest encoding of a labeled 3-vertex graph over all orderings.

    ``edges`` maps local unordered pairs to labels; absent pairs encode as
    (0, 0) and present ones as (1, label), so arbitrary label values stay
    unambiguous.
    """
    best = None
    for order in _TRIPLE_ORDERS:
        encoded = [labels[order[0]], labels[order[1]], labels[order[2]]]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            pair = (min(order[a], order[b]), max(order[a], order[b]))
            if pair in edges:
                encoded.extend((1, edges[pair]))
            else:
                encoded.extend((0, 0))
        candidate = tuple(encoded)
        if best is None or candidate < best:
            best = candidate
    return best


def canonical_string(sub: Graph) -> str:
    """Canonical text form of a connected 3-vertex graph.

    Two such graphs get the same string iff they are isomorphic respecting
    vertex and edge labels.
    """
    if sub.n != 3:
        raise ContractError(f"canonical form is defined for 3 vertices, got {sub.n}")
    if sub.m < 2:
        raise ContractError("canonical form is defined for connected graphs")
    labels = tuple(sub.vertex_label_array().tolist())
    edges = {
        (int(u), int(v)): label
        for (u, v), label in sub.edge_label_map.items()
    }
    canon = _canonical_triple(labels, edges)
    vertex_part = ",".join(map(str, canon[:3]))
    edge_part = ",".join(
        f"{canon[3 + 2 * i]}:{canon[4 + 2 * i]}" for i in range(3)
    )
    return f"{vertex_part}|{edge_part}"


def _connected_triples(g: Graph):
    """Yield each connected 3-subset exactly once as a sorted tuple."""
    nbr = g.neighbor_sets()
    for u, v in g.edges.tolist():
        for w in sorted(nbr[u] & nbr[v]):
            if w > v:
                yield (u, v, w)
    for c in range(g.n):
        around = g.adj[c]
        for i in range(len(around)):
            a = around[i]
            for j in range(i + 1, len(around)):
                b = around[j]
                if b not in nbr[a]:
                    yield tuple(sorted((a, c, b)))


def graphlet_features(g: Graph) -> FeatureVector:
    """Counts of connected induced 3-vertex subgraphs by canonical form.

    Unlabeled graphs behave as uniformly labeled; the triangle count and
    path count of e.g. the complete graph K4 come out as 4 and 0.
    """
    labels = g.vertex_label_array().tolist()
    label_of = g.edge_label_map
    counts: dict = {}
    for a, b, c in _connected_triples(g):
        local_edges = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            pair = ((a, b, c)[i], (a, b, c)[j])
            if pair in label_of:
                local_edges[(i, j)] = label_of[pair]
        canon = _canonical_triple((labels[a], labels[b], labels[c]), local_edges)
        counts[canon] = counts.get(canon, 0) + 1
    return FeatureVector(
        {feature_key(TAG_GRAPHLET, canon): c for canon, c in counts.items()}
    )


def _edge_label_matrix(g: Graph) -> np.ndarray:
    lab = np.zeros((g.n, g.n), dtype=np.int64)
    for (u, v), label in g.edge_label_map.items():
        lab[u, v] = label
        lab[v, u] = label
    return lab


def _association_graph(
    g: Graph,
    h: Graph,
    vertex_kernel: VertexKernelSpec,
    edge_kernel: EdgeKernelSpec,
):
    """Compatibility structure for common-subgraph mappings.

    Vertices: pairs (u in g, v in h) with positive vertex kernel, in
    lexicographic order.  Two pairs can belong to one mapping ("allowed")
    when their components are distinct on both sides and edge presence
    agrees; where both sides have an edge the connection is "structural"
    and weighted by the edge kernel, where neither does it has weight 1.
    """
    kv = vertex_kernel.matrix(g, h)
    mask = kv > 0
    pairs = np.argwhere(mask).astype(np.int64)
    vertex_weights = kv[mask].astype(np.float64)
    count = pairs.shape[0]
    if count == 0:
        empty = np.zeros((0, 0))
        return pairs, vertex_weights, empty, empty.astype(bool), empty.astype(bool)

    pg, ph = pairs[:, 0], pairs[:, 1]
    adj_g = g.adjacency_matrix()[np.ix_(pg, pg)]
    adj_h = h.adjacency_matrix()[np.ix_(ph, ph)]
    distinct = (pg[:, None] != pg[None, :]) & (ph[:, None] != ph[None, :])
    structural = adj_g & adj_h & distinct
    both_absent = ~adj_g & ~adj_h & distinct

    edge_values = edge_kernel.elementwise(
        _edge_label_matrix(g)[np.ix_(pg, pg)],
        _edge_label_matrix(h)[np.ix_(ph, ph)],
    )
    weights = np.where(structural, edge_values, 0.0) + both_absent
    allowed = (structural & (edge_values > 0)) | both_absent
    return pairs, vertex_weights, weights, allowed, structural


def _spans_connectedly(members: List[int], structural: np.ndarray) -> bool:
    """True when the structural connections alone connect all members."""
    if len(members) <= 1:
        return True
    seen = {members[0]}
    frontier = [members[0]]
    rest = set(members[1:])
    while frontier and rest:
        x = frontier.pop()
        for y in list(rest):
            if structural[x, y]:
                rest.discard(y)
                seen.add(y)
                frontier.append(y)
    return not rest


def subgraph_matching_kernel(
    g: Graph,
    h: Graph,
    vertex_kernel: VertexKernelSpec = VertexKernelSpec("dirac"),
    edge_kernel: EdgeKernelSpec = EdgeKernelSpec("dirac"),
    max_size: int = 3,
    size_weights: Optional[Callable[[int], float]] = None,
    connected_only: bool = False,
    normalize_by_size: bool = False,
) -> float:
    """Sum over common-subgraph mappings of their kernel value.

    Enumerates cliques of the association graph up to ``max_size``
    vertices in index order (each clique once); a clique contributes
    ``size_weights(size)`` times the product of its vertex weights and of
    the weights of all its internal connections.  ``connected_only``
    keeps only mappings whose shared edges connect the mapped vertices;
    ``normalize_by_size`` divides each contribution by size factorial,
    at which point the Dirac/uniform value counts each unordered common
    subgraph selection once.  ``max_size`` beyond the association graph
    order is harmless.
    """
    if max_size < 1:
        raise ParameterError(f"max_size must be >= 1, got {max_size}")
    weight_of = size_weights if size_weights is not None else (lambda k: 1.0)

    pairs, vertex_weights, weights, allowed, structural = _association_graph(
        g, h, vertex_kernel, edge_kernel
    )
    count = pairs.shape[0]
    total = 0.0
    if count == 0:
        return total

    indices = np.arange(count, dtype=np.int64)
    scale = [0.0] * (max_size + 1)
    for k in range(1, max_size + 1):
        scale[k] = weight_of(k) / (math.factorial(k) if normalize_by_size else 1)

    def grow(members: List[int], candidates: np.ndarray, product: float):
        nonlocal total
        size = len(members)
        factor = scale[size]
        if factor != 0 and (
            not connected_only or _spans_connectedly(members, structural)
        ):
            total += factor * product
        if size == max_size:
            return
        for pos in range(candidates.shape[0]):
            nxt = int(candidates[pos])
            extended = product * vertex_weights[nxt]
            for m in members:
                extended *= weights[m, nxt]
            rest = candidates[pos + 1 :]
            grow(members + [nxt], rest[allowed[nxt, rest]], extended)

    for start in range(count):
        rest = indices[start + 1 :]
        grow([start], rest[allowed[start, rest]], float(vertex_weights[start]))
    return total
