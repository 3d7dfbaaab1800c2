"""Kernels built from small subgraphs.

One counter underlies the explicit maps: it visits every vertex set of
1..``max_size`` vertices (all of them, or only those inducing a connected
subgraph), keys the induced subgraph by its smallest encoding over all
vertex orders — vertex labels, then for each position pair ``(0, 0)`` if
absent or ``(1, label)`` if an edge — and counts the sets per key.  The
number of vertex orders reaching the smallest encoding is the class's
automorphism count |Aut(P)|.  Connected sets are enumerated by extension
from their smallest vertex (ESU, Wernicke 2006), so each comes up once at
a cost that follows the sets, not all k-subsets.

:func:`graphlet_features` is the counter's connected 3-vertex slice:
triangles and 2-edge paths with their vertex and edge labels, so the dot
product of two count vectors compares subgraph content.

:func:`subgraph_matching_kernel` scores *mappings* between subgraphs
instead of counting isomorphism classes: each common-subgraph isomorphism
of size up to ``max_size`` appears as a clique in the association graph of
compatible vertex pairs, and contributes the product of its vertex- and
edge-kernel values, weighted by a function of its size.  With Dirac
kernels a mapping is an isomorphism between induced subgraphs, so the
kernel is Σ_P |Aut(P)|·c_P(G)·c_P(H) over the classes P the counter keys;
:func:`matching_features` is that explicit feature map.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations, product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import ContractError, MultiplicityOverflowError, ParameterError
from .features import TAG_GRAPHLET
from .gram import EXACT_LIMIT
from .graphs import Graph
from .kernels import EdgeKernelSpec, VertexKernelSpec


def _connected_sets(g: Graph, max_size: int) -> Iterator[Tuple[int, ...]]:
    """Each vertex set of 1..``max_size`` vertices inducing a connected
    subgraph, once, grown from its smallest vertex."""
    adj = g.adj

    def grow(members, extension, closed, root):
        yield members
        if len(members) == max_size:
            return
        while extension:
            w = extension.pop()
            fresh = [u for u in adj[w] if u > root and u not in closed]
            yield from grow(
                (*members, w), extension + fresh, closed.union(fresh), root
            )

    for v in range(g.n):
        above = [u for u in adj[v] if u > v]
        yield from grow((v,), above, {v, *above}, v)


def _canonical(
    members: Tuple[int, ...], labels: List[int], label_of: Dict
) -> Tuple[Tuple[int, ...], int]:
    """(smallest encoding of the subgraph ``members`` induce over all
    vertex orders, how many orders reach it).

    Only orders that sort the vertex labels can reach the smallest
    encoding, so just those are tried: permutations within each group of
    equal labels.
    """
    pairs = list(combinations(range(len(members)), 2))
    local = [labels[v] for v in members]
    code: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for a, b in pairs:
        u, v = members[a], members[b]
        label = label_of.get((u, v) if u < v else (v, u))
        code[a, b] = code[b, a] = (0, 0) if label is None else (1, label)
    groups: Dict[int, List[int]] = {}
    for i in sorted(range(len(local)), key=local.__getitem__):
        groups.setdefault(local[i], []).append(i)
    best, reach = None, 0
    for parts in product(*(permutations(group) for group in groups.values())):
        order = tuple(chain.from_iterable(parts))
        encoding = [code[order[a], order[b]] for a, b in pairs]
        if best is None or encoding < best:
            best, reach = encoding, 1
        elif encoding == best:
            reach += 1
    return (*sorted(local), *chain.from_iterable(best)), reach


def _class_counts(
    g: Graph, max_size: int, connected_only: bool, smallest: int = 1
) -> Dict[Tuple[int, ...], List[int]]:
    """``{encoding: [count, automorphisms]}`` over the induced subgraphs on
    ``smallest``..``max_size`` vertices (connected ones only with
    ``connected_only``); unlabeled graphs read as label 0 throughout."""
    if max_size < 1:
        raise ParameterError(f"max_size must be >= 1, got {max_size}")
    labels = g.vertex_label_array().tolist()
    label_of = g.edge_label_map
    if connected_only:
        sets = _connected_sets(g, max_size)
    else:
        sizes = range(smallest, max_size + 1)
        sets = chain.from_iterable(combinations(range(g.n), k) for k in sizes)
    classes: Dict[Tuple[int, ...], List[int]] = {}
    for members in sets:
        if len(members) < smallest:
            continue
        encoding, automorphisms = _canonical(members, labels, label_of)
        classes.setdefault(encoding, [0, automorphisms])[0] += 1
    return classes


def canonical_string(sub: Graph) -> str:
    """Canonical text form of a connected 3-vertex graph.

    Two such graphs get the same string iff they are isomorphic respecting
    vertex and edge labels.
    """
    if sub.n != 3:
        raise ContractError(f"canonical form is defined for 3 vertices, got {sub.n}")
    if sub.m < 2:
        raise ContractError("canonical form is defined for connected graphs")
    (canon,) = _class_counts(sub, 3, True, smallest=3)
    vertex_part = ",".join(map(str, canon[:3]))
    edge_part = ",".join(
        f"{canon[3 + 2 * i]}:{canon[4 + 2 * i]}" for i in range(3)
    )
    return f"{vertex_part}|{edge_part}"


def graphlet_features(g: Graph) -> Dict[tuple, int]:
    """Counts of connected induced 3-vertex subgraphs by canonical form.

    Unlabeled graphs behave as uniformly labeled; the triangle count and
    path count of e.g. the complete graph K4 come out as 4 and 0.
    """
    classes = _class_counts(g, 3, True, smallest=3)
    return {(TAG_GRAPHLET, *canon): c for canon, (c, _) in classes.items()}


def matching_features(
    g: Graph, max_size: int = 3, connected_only: bool = False
) -> Dict[tuple, int]:
    """Explicit map of the Dirac subgraph matching kernel.

    Each class P of induced subgraphs on 1..``max_size`` vertices
    (connected ones only with ``connected_only``) appears as |Aut(P)|
    keys, each weighted by its count c_P, so the dot product of two
    vectors is Σ_P |Aut(P)|·c_P(G)·c_P(H) in integers: the value of
    :func:`subgraph_matching_kernel` with Dirac vertex and edge kernels
    and unit size weights.
    """
    entries = {}
    for canon, (count, automorphisms) in _class_counts(
        g, max_size, connected_only
    ).items():
        for copy in range(automorphisms):
            entries[(TAG_GRAPHLET, *canon, copy)] = count
    return entries


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
) -> float:
    """Sum over common-subgraph mappings of their kernel value.

    Enumerates cliques of the association graph up to ``max_size``
    vertices in index order (each clique once); a clique contributes
    ``size_weights(size)`` times the product of its vertex weights and of
    the weights of all its internal connections.  ``connected_only``
    keeps only mappings whose shared edges connect the mapped vertices.
    With ``size_weights=lambda k: 1 / math.factorial(k)`` the
    Dirac/uniform value counts each unordered common subgraph selection
    once.  ``max_size`` beyond the association graph order is harmless.

    When every clique contributes an integer — all vertex and connection
    weights 1 (Dirac or uniform kernels) and integer size factors — the
    float64 total counts exactly below 2**53 only, so reaching it raises
    :class:`MultiplicityOverflowError`.
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
    scale = [0.0] + [weight_of(k) for k in range(1, max_size + 1)]

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
    integral = (
        (vertex_weights == 1).all()
        and (weights[allowed] == 1).all()
        and all(float(factor).is_integer() for factor in scale)
    )
    if integral and total >= EXACT_LIMIT:
        raise MultiplicityOverflowError(
            f"{total:.4g} common-subgraph mappings, past 2**53, where float64 "
            f"stops counting exactly"
        )
    return total
