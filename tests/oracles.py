"""Brute-force reference implementations used to check the library.

Everything here is written straight from the definitions — explicit walk
enumeration, Floyd–Warshall, quadruple loops, subset enumeration — with no
shared code paths with the package (library graphs are used as read-only
containers for n / edges / labels / attributes only, and kernel specs for
their parameters only).  Slow on purpose; meant for tiny graphs.
"""

from __future__ import annotations

import itertools
import math
from itertools import chain, combinations, permutations, product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from gkern.errors import ParameterError
from gkern.graphs import INF_DISTANCE, Graph


# ---------------------------------------------------------------------------
# plain data access (independent of library helper methods)

def edge_list(g) -> List[Tuple[int, int]]:
    return [(int(u), int(v)) for u, v in g.edges.tolist()]


def edge_label_dict(g) -> Dict[Tuple[int, int], int]:
    """Unordered-pair -> label map built from the raw arrays (0 if unlabeled)."""
    labels = (
        [int(x) for x in g.edge_labels]
        if g.edge_labels is not None
        else [0] * len(edge_list(g))
    )
    table: Dict[Tuple[int, int], int] = {}
    for (u, v), lab in zip(edge_list(g), labels):
        table[(u, v)] = lab
        table[(v, u)] = lab
    return table


def vertex_label_list(g) -> List[int]:
    if g.vertex_labels is None:
        return [0] * g.n
    return [int(x) for x in g.vertex_labels]


def adjacency_lists(g) -> List[List[int]]:
    out: List[List[int]] = [[] for _ in range(g.n)]
    for u, v in edge_list(g):
        out[u].append(v)
        out[v].append(u)
    return [sorted(nbrs) for nbrs in out]


# scalar base kernels for oracle use
def dirac_fn(x, y) -> int:
    return 1 if x == y else 0


def uniform_fn(x, y) -> int:
    return 1


def brownian_bridge_fn(a, b, c: float = 3.0) -> float:
    """Triangular kernel on finite path lengths."""
    return max(0.0, c - abs(a - b))


def hat_fn(x, y, delta: float) -> float:
    """prod_i max(0, 1 - |x_i - y_i| / delta)."""
    value = 1.0
    for a, b in zip(x, y):
        value *= max(0.0, 1.0 - abs(a - b) / delta)
    return value


def rbf_fn(x, y, sigma: float) -> float:
    """exp(-||x - y||^2 / (2 sigma^2))."""
    return math.exp(-sum((a - b) ** 2 for a, b in zip(x, y)) / (2.0 * sigma * sigma))


def binned_fn(x, y, shifts, delta: float) -> float:
    """Fraction of the shifted grids of pitch ``delta`` that put ``x`` and
    ``y`` in one cell: cell_i = floor((x_i + shift_i) / delta)."""

    def cell(point, shift):
        return [math.floor((a + s) / delta) for a, s in zip(point, shift)]

    return sum(cell(x, shift) == cell(y, shift) for shift in shifts) / len(shifts)


# the base kernels of the kernel specs, one evaluator per kind, read from
# the spec's parameters and the graphs' raw arrays (a partner union too)

def _attribute_row(g, u: int) -> Tuple[float, ...]:
    return tuple(float(x) for x in g.vertex_attributes[u])


def vertex_kernel_fn(spec) -> Callable:
    """``k(g, u, h, v)`` for a ``VertexKernelSpec``."""
    if spec.kind == "dirac":
        return lambda g, u, h, v: dirac_fn(vertex_label_list(g)[u], vertex_label_list(h)[v])
    attributes = {
        "dirac-attributes": dirac_fn,
        "hat": lambda x, y: hat_fn(x, y, spec.delta),
        "rbf": lambda x, y: rbf_fn(x, y, spec.sigma),
        "binned": lambda x, y: binned_fn(x, y, spec.grid.shifts.tolist(), spec.grid.delta),
    }[spec.kind]
    return lambda g, u, h, v: attributes(_attribute_row(g, u), _attribute_row(h, v))


def edge_kernel_fn(spec) -> Callable[[int, int], float]:
    """``k(a, b)`` on two edge annotations for an ``EdgeKernelSpec``; the
    bridge compares unreachable-pair sentinels as 0."""
    if spec.kind == "dirac":
        return dirac_fn
    if spec.kind == "uniform":
        return uniform_fn
    if spec.kind == "brownian-bridge":
        return lambda a, b: (
            0.0 if INF_DISTANCE in (a, b) else brownian_bridge_fn(a, b, spec.c)
        )
    exceptions = {}
    for a, b, w in spec.table:
        exceptions[a, b] = exceptions[b, a] = w
    return lambda a, b: exceptions.get((a, b), dirac_fn(a, b))


# ---------------------------------------------------------------------------
# sparse feature vectors

def dot(u: Dict[tuple, float], v: Dict[tuple, float]) -> float:
    """Sparse inner product of two feature dicts, summed over the shared
    keys in ascending order; integer weights give an exact integer."""
    total = 0
    for key in sorted(u.keys() & v.keys()):
        total += u[key] * v[key]
    return total


# ---------------------------------------------------------------------------
# walks

def enumerate_walks(g, length: int) -> List[Tuple[int, ...]]:
    """All vertex sequences (v_0..v_length) following edges at every step."""
    adj = adjacency_lists(g)
    walks: List[Tuple[int, ...]] = [(v,) for v in range(g.n)]
    for _ in range(length):
        walks = [walk + (nxt,) for walk in walks for nxt in adj[walk[-1]]]
    return walks


def oracle_walk_kernel(
    g,
    h,
    length: int,
    vertex_kernel: Callable[[int, int], float] = dirac_fn,
    edge_kernel: Callable[[int, int], float] = dirac_fn,
) -> float:
    """Double sum over equal-length walk pairs of kernel-value products."""
    lg, lh = vertex_label_list(g), vertex_label_list(h)
    eg, eh = edge_label_dict(g), edge_label_dict(h)
    total = 0.0
    for wg in enumerate_walks(g, length):
        for wh in enumerate_walks(h, length):
            value = 1.0
            for a, b in zip(wg, wh):
                value *= vertex_kernel(lg[a], lh[b])
                if value == 0:
                    break
            else:
                for i in range(length):
                    value *= edge_kernel(
                        eg[(wg[i], wg[i + 1])], eh[(wh[i], wh[i + 1])]
                    )
                    if value == 0:
                        break
            total += value
    return total


def oracle_product_graph(
    g,
    h,
    vertex_kernel: Callable,
    edge_kernel: Callable[[int, int], float],
) -> Tuple[Dict[Tuple[int, int], float], Dict[frozenset, float]]:
    """Weighted direct product of ``g`` and ``h`` from its definition.

    ``vertex_kernel(g, u, h, v)`` and ``edge_kernel(label_g, label_h)``
    are scalar kernels.  Returns ``(vertices, edges)``: ``vertices`` maps
    each pair (u, v) of positive vertex-kernel value to that value, and
    ``edges`` maps each unordered pair {(u, v), (u2, v2)} of product
    vertices, with u u2 an edge of g and v v2 one of h and a positive
    edge-kernel value on their labels, to that value.
    """
    vertices: Dict[Tuple[int, int], float] = {}
    for u in range(g.n):
        for v in range(h.n):
            value = vertex_kernel(g, u, h, v)
            if value > 0:
                vertices[(u, v)] = value
    eg, eh = edge_label_dict(g), edge_label_dict(h)
    edges: Dict[frozenset, float] = {}
    # each g-edge once, each h-edge in both orientations: every unordered
    # product edge arises exactly once
    for a, b in edge_list(g):
        for (c, d), label in eh.items():
            if (a, c) in vertices and (b, d) in vertices:
                value = edge_kernel(eg[(a, b)], label)
                if value > 0:
                    edges[frozenset(((a, c), (b, d)))] = value
    return vertices, edges


def oracle_walk_label_counts(g, length: int) -> Dict[Tuple[int, ...], int]:
    """Alternating label sequence -> number of walks carrying it."""
    labels = vertex_label_list(g)
    elabels = edge_label_dict(g)
    counts: Dict[Tuple[int, ...], int] = {}
    for walk in enumerate_walks(g, length):
        seq: List[int] = [labels[walk[0]]]
        for i in range(length):
            seq.append(elabels[(walk[i], walk[i + 1])])
            seq.append(labels[walk[i + 1]])
        key = tuple(seq)
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_total_walks(g, length: int) -> int:
    """1^T A^length 1 in exact Python integers."""
    n = g.n
    adj = [[0] * n for _ in range(n)]
    for u, v in edge_list(g):
        adj[u][v] = 1
        adj[v][u] = 1
    vec = [1] * n
    for _ in range(length):
        vec = [sum(adj[i][j] * vec[j] for j in range(n)) for i in range(n)]
    return sum(vec)


def oracle_walk_features(g, length: int) -> Dict[Tuple[int, ...], int]:
    """One graph's walk vector ``{(length, *labels): count}`` by a backward
    dynamic program over per-vertex dicts of Python ints: a vertex's
    length-``r`` sequences are its label and each edge's label put before
    its neighbour's length-``r - 1`` sequences.  Polynomial, unlike
    :func:`oracle_walk_label_counts`, so it reaches lengths and counts
    that enumerating walks cannot."""
    labels = vertex_label_list(g)
    elabels = edge_label_dict(g)
    adj = adjacency_lists(g)
    per_vertex: List[Dict[tuple, int]] = [{(labels[v],): 1} for v in range(g.n)]
    for _ in range(length):
        extended: List[Dict[tuple, int]] = [{} for _ in range(g.n)]
        for u in range(g.n):
            for v in adj[u]:
                prefix = (labels[u], elabels[(u, v)])
                for seq, count in per_vertex[v].items():
                    key = prefix + seq
                    extended[u][key] = extended[u].get(key, 0) + count
        per_vertex = extended
    total: Dict[tuple, int] = {}
    for bucket in per_vertex:
        for seq, count in bucket.items():
            total[(length, *seq)] = total.get((length, *seq), 0) + count
    return total


# ---------------------------------------------------------------------------
# shortest paths

def oracle_apsp(g) -> List[List[float]]:
    """Floyd–Warshall; math.inf marks unreachable pairs."""
    n = g.n
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v in edge_list(g):
        dist[u][v] = 1
        dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def oracle_shortest_path_counts(g) -> List[List[int]]:
    """Number of distinct shortest paths per ordered pair (0 if unreachable)."""
    dist = oracle_apsp(g)
    adj = adjacency_lists(g)
    n = g.n
    counts = [[0] * n for _ in range(n)]
    for s in range(n):
        order = sorted(
            (v for v in range(n) if dist[s][v] < math.inf),
            key=lambda v: dist[s][v],
        )
        for v in order:
            if v == s:
                counts[s][s] = 1
                continue
            counts[s][v] = sum(
                counts[s][p] for p in adj[v] if dist[s][p] == dist[s][v] - 1
            )
    return counts


def oracle_sp_features(g) -> Dict[Tuple[int, int, int], int]:
    """(source label, target label, hops) -> count over ordered pairs of
    distinct, mutually reachable vertices: the explicit shortest-path map,
    one graph at a time."""
    dist = oracle_apsp(g)
    labels = vertex_label_list(g)
    counts: Dict[Tuple[int, int, int], int] = {}
    for u in range(g.n):
        for v in range(g.n):
            if u != v and dist[u][v] < math.inf:
                key = (labels[u], labels[v], int(dist[u][v]))
                counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_sp_kernel(
    g,
    h,
    vertex_kernel: Callable[[int, int], float] = dirac_fn,
    length_kernel: Callable[[float, float], float] = dirac_fn,
) -> float:
    """Quadruple loop over ordered reachable vertex pairs of both graphs."""
    dg, dh = oracle_apsp(g), oracle_apsp(h)
    lg, lh = vertex_label_list(g), vertex_label_list(h)
    total = 0.0
    for u in range(g.n):
        for v in range(g.n):
            if u == v or dg[u][v] == math.inf:
                continue
            for x in range(h.n):
                for y in range(h.n):
                    if x == y or dh[x][y] == math.inf:
                        continue
                    total += (
                        vertex_kernel(lg[u], lh[x])
                        * vertex_kernel(lg[v], lh[y])
                        * length_kernel(dg[u][v], dh[x][y])
                    )
    return total


def enumerate_shortest_paths(g, s: int, t: int) -> List[Tuple[int, ...]]:
    """Every shortest s-t path as a vertex tuple ([s] itself when s == t)."""
    dist = oracle_apsp(g)
    if dist[s][t] == math.inf:
        return []
    adj = adjacency_lists(g)

    def extend(path: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        last = path[-1]
        if last == t:
            return [path]
        out: List[Tuple[int, ...]] = []
        for nxt in adj[last]:
            if dist[nxt][t] == dist[last][t] - 1:
                out.extend(extend(path + (nxt,)))
        return out

    return extend((s,))


def oracle_hopper_tables(g) -> List[Dict[Tuple[int, int], int]]:
    """Per vertex: (position, path vertex count) -> occurrence count.

    Counts every distinct shortest path between every ordered pair,
    including the single-vertex path from each vertex to itself; positions
    and path sizes are 1-based.
    """
    tables: List[Dict[Tuple[int, int], int]] = [dict() for _ in range(g.n)]
    for s in range(g.n):
        for t in range(g.n):
            for path in enumerate_shortest_paths(g, s, t):
                size = len(path)
                for position, vertex in enumerate(path, start=1):
                    key = (position, size)
                    tables[vertex][key] = tables[vertex].get(key, 0) + 1
    return tables


# ---------------------------------------------------------------------------
# connected 3-vertex subgraphs

def _triple_invariant(
    triple: Tuple[int, int, int],
    labels: Sequence[int],
    elabels: Dict[Tuple[int, int], int],
) -> Optional[tuple]:
    """Complete isomorphism invariant of an induced labeled 3-vertex graph.

    Triangles are determined by the vertex-label multiset plus the multiset
    of (sorted endpoint labels, edge label) descriptors; paths by the center
    label plus the multiset of (end label, edge label) arms.  Disconnected
    triples return None.
    """
    a, b, c = triple
    present = [
        (u, v) for u, v in ((a, b), (a, c), (b, c)) if (u, v) in elabels
    ]
    if len(present) == 3:
        descriptors = sorted(
            (min(labels[u], labels[v]), max(labels[u], labels[v]), elabels[(u, v)])
            for u, v in present
        )
        return ("triangle", tuple(sorted(labels[x] for x in triple)), tuple(descriptors))
    if len(present) == 2:
        endpoints = [u for u, v in present] + [v for u, v in present]
        center = next(x for x in triple if endpoints.count(x) == 2)
        arms = sorted(
            (labels[u if v == center else v], elabels[(u, v)])
            for u, v in present
        )
        return ("path", labels[center], tuple(arms))
    return None


def oracle_triple_class_counts(g) -> Dict[tuple, int]:
    """Count connected induced 3-vertex subgraphs per isomorphism class."""
    labels = vertex_label_list(g)
    elabels = edge_label_dict(g)
    counts: Dict[tuple, int] = {}
    for triple in itertools.combinations(range(g.n), 3):
        inv = _triple_invariant(triple, labels, elabels)
        if inv is not None:
            counts[inv] = counts.get(inv, 0) + 1
    return counts


def oracle_graphlet_kernel(g, h) -> int:
    """Sum over classes of count products — the graphlet dot product."""
    cg = oracle_triple_class_counts(g)
    ch = oracle_triple_class_counts(h)
    return sum(cnt * ch.get(cls, 0) for cls, cnt in cg.items())


def oracle_triple_class_reps(g) -> Dict[tuple, Tuple[Tuple[int, int, int], dict]]:
    """One concrete (labels, local edge dict) representative per class."""
    labels = vertex_label_list(g)
    elabels = edge_label_dict(g)
    reps: Dict[tuple, Tuple[Tuple[int, int, int], dict]] = {}
    for triple in itertools.combinations(range(g.n), 3):
        inv = _triple_invariant(triple, labels, elabels)
        if inv is None or inv in reps:
            continue
        local_labels = tuple(labels[x] for x in triple)
        local_edges = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            pair = (triple[i], triple[j])
            if pair in elabels:
                local_edges[(i, j)] = elabels[pair]
        reps[inv] = (local_labels, local_edges)
    return reps


def oracle_triple_automorphisms(labels: Tuple[int, int, int], edges: dict) -> int:
    """Permutations of three local vertices preserving labels and edges."""
    normalized = {
        (min(i, j), max(i, j)): lab for (i, j), lab in edges.items()
    }
    count = 0
    for perm in itertools.permutations(range(3)):
        if any(labels[perm[i]] != labels[i] for i in range(3)):
            continue
        ok = True
        for i, j in ((0, 1), (0, 2), (1, 2)):
            source = (min(perm[i], perm[j]), max(perm[i], perm[j]))
            if normalized.get(source) != normalized.get((i, j)):
                ok = False
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# subgraph matching

def oracle_subgraph_matching(
    g,
    h,
    max_size: int,
    vertex_kernel: Callable[[int, int], float] = dirac_fn,
    edge_kernel: Callable[[int, int], float] = dirac_fn,
    connected_only: bool = False,
    normalize_by_size: bool = False,
    size_weights: Optional[Callable[[int], float]] = None,
) -> float:
    """Enumerate candidate vertex-pair sets directly and sum their weights.

    A set of pairs {(u_i, v_i)} is a common-subgraph mapping when the u_i
    are distinct, the v_i are distinct, and every two pairs agree on edge
    presence.  Its weight multiplies all vertex-kernel values, the edge
    kernel over shared edges, and 1 over shared non-edges.
    """
    lg, lh = vertex_label_list(g), vertex_label_list(h)
    eg, eh = edge_label_dict(g), edge_label_dict(h)
    weight_of = size_weights if size_weights is not None else (lambda k: 1.0)

    candidates = [
        (u, v)
        for u in range(g.n)
        for v in range(h.n)
        if vertex_kernel(lg[u], lh[v]) > 0
    ]
    total = 0.0
    for k in range(1, max_size + 1):
        factor = weight_of(k) / (math.factorial(k) if normalize_by_size else 1)
        if factor == 0:
            continue
        for subset in itertools.combinations(candidates, k):
            us = [p[0] for p in subset]
            vs = [p[1] for p in subset]
            if len(set(us)) < k or len(set(vs)) < k:
                continue
            weight = 1.0
            shared_edges: List[Tuple[int, int]] = []
            ok = True
            for (u1, v1), (u2, v2) in itertools.combinations(subset, 2):
                in_g = (u1, u2) in eg
                in_h = (v1, v2) in eh
                if in_g != in_h:
                    ok = False
                    break
                if in_g:
                    weight *= edge_kernel(eg[(u1, u2)], eh[(v1, v2)])
                    shared_edges.append((u1, u2))
            if not ok or weight == 0:
                continue
            if connected_only and not _connected_through(us, shared_edges):
                continue
            for u, v in subset:
                weight *= vertex_kernel(lg[u], lh[v])
            total += factor * weight
    return total


def _connected_through(vertices: List[int], edges: List[Tuple[int, int]]) -> bool:
    if len(vertices) <= 1:
        return True
    reached = {vertices[0]}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached.update((u, v))
                changed = True
    return all(v in reached for v in vertices)


# ---------------------------------------------------------------------------
# induced-subgraph classes, by permutation search in plain Python: the
# reference for the array counter in gkern.subgraphs

def _connected_sets(g: Graph, max_size: int) -> Iterator[Tuple[int, ...]]:
    """Each vertex set of 1..``max_size`` vertices inducing a connected
    subgraph, once, grown from its smallest vertex."""
    adj = adjacency_lists(g)

    def visit(members, extension, closed, root):
        yield members
        if len(members) == max_size:
            return
        while extension:
            w = extension.pop()
            fresh = [u for u in adj[w] if u > root and u not in closed]
            yield from visit(
                (*members, w), extension + fresh, closed.union(fresh), root
            )

    for v in range(g.n):
        above = [u for u in adj[v] if u > v]
        yield from visit((v,), above, {v, *above}, v)


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
    labels = vertex_label_list(g)
    label_of = edge_label_dict(g)
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


def oracle_graphlet_features(g) -> Dict[Tuple[int, ...], int]:
    """Encoding -> count of the connected induced 3-vertex subgraphs: the
    graphlet map, one graph at a time."""
    return {key: count for key, (count, _) in _class_counts(g, 3, True, 3).items()}


def oracle_matching_features(
    g, max_size: int, connected_only: bool
) -> Dict[Tuple[int, ...], int]:
    """(*encoding, copy) -> count, ``copy`` below the class's automorphism
    count: the Dirac subgraph matching map, one graph at a time."""
    return {
        (*key, copy): count
        for key, (count, automorphisms) in _class_counts(g, max_size, connected_only).items()
        for copy in range(automorphisms)
    }


# ---------------------------------------------------------------------------
# refinement

def oracle_color_histogram_kernel(
    colors_g: Sequence[Sequence[int]], colors_h: Sequence[Sequence[int]]
) -> int:
    """Sum over vertex pairs of full-trajectory agreement indicators."""
    total = 0
    for cg in colors_g:
        for ch in colors_h:
            total += 1 if tuple(cg) == tuple(ch) else 0
    return total


# ---------------------------------------------------------------------------
# weighted vertex kernels

def oracle_vertex_weight(weight_map, g, u: int, h, v: int) -> int:
    """k_W between vertex ``u`` of ``g`` and vertex ``v`` of ``h``: the dot
    of their weight rows, matched column by column from ``matrix()``."""
    columns_g, wg = weight_map.matrix(g)
    columns_h, wh = weight_map.matrix(h)
    row_h = dict(zip(columns_h.tolist(), wh[v].tolist()))
    return sum(x * row_h.get(c, 0) for c, x in zip(columns_g.tolist(), wg[u].tolist()))


# ---------------------------------------------------------------------------
# graph construction


def oracle_graph(n: int, edges, edge_labels=None):
    """Normalized ``(edges, edge labels)`` of an edge list, in plain
    Python: ``(min, max)`` pairs sorted ascending, labels carried along.
    The first bad edge in input order raises ``ValueError``: a self-loop,
    then an id out of range, then a repeat of an earlier edge."""
    seen = set()
    keys = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        keys.append(key)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    labels = None if edge_labels is None else [int(edge_labels[i]) for i in order]
    return [list(keys[i]) for i in order], labels
