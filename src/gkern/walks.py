"""Fixed-length walk kernels, computed two ways.

The kernel between graphs G and H sums, over all pairs of equal-length
walks (one from each graph), the product of vertex-kernel values along the
walk positions and edge-kernel values along the steps.

*Implicit scheme* — :func:`walk_kernel_implicit`, ``g`` against a
sequence of partners, one value per partner: build the weighted direct
product graph (one vertex per compatible vertex pair, one edge per
compatible edge pair) and count walk pairs over it.  With ``w`` its vertex
weights and ``A`` its weighted adjacency, both symmetric, the walks meet
in the middle: with ``r_0 = w``, ``f_a = A r_{a-1}`` and ``r_a = w * f_a``,
the length-``i`` value ``1' diag(w) (A diag(w))^i 1`` is the sum of
``r_{i//2} * f_{ceil(i/2)}`` (of ``w`` at ``i = 0``).  So ``ceil(length/2)``
products by ``A``, each touching each product edge twice, serve every
length up to ``length``: a pair costs O(product size * ceil(length/2))
and never materializes features.

:func:`build_wdpg` is the one construction of the product, whatever the
base kernels.  Each kernel reports an equality key per element (the label
for the Dirac kinds, a constant for every other kind; elements with
different keys compare as 0), and the build joins the two graphs' edges
on (vertex key, edge key, vertex key): a sort and ``searchsorted``, so it
touches only the matching edge pairs, and the vertex keep-mask and edge
values are applied to those alone.  With Dirac kernels a key match is
already a product edge of weight 1, so nothing else is read.  Constant
keys match everything, so the non-Dirac kinds fall back to the dense
enumeration through the same code.

*A Gram row per call*: the product of ``g`` with a disjoint union
``h_1 + ... + h_k`` is the disjoint union of the products ``g x h_j``,
since no product vertex or edge pairs ``g`` with two partners at once.
So a Gram row is evaluated a block of partners at a time: one product
build and one recursion over the union, then one bincount over each
product vertex's partner reads off the per-partner totals.  The
values are the pairwise ones: every product vertex keeps its pair's
neighbours and its edges in their one-partner order, so the per-vertex
sums add the same terms in the same relative order as a one-partner
call, and each partner's total sums the same vertices in the same order.
This removes the fixed per-pair cost (a build and a recursion setup per
pair), which dominates on small product graphs.  A row's partners form a
:class:`~gkern.graphs.DisjointUnion`, keyed once; a block is a slice with
its share of the keys, and :data:`BLOCK_CELLS` bounds its vertex index
and matched edge pairs (counted from the keys before anything is
gathered), so memory stays flat however long the row is, and sparse
matches (many labels) let a whole row share a few builds.

*Explicit scheme* — :func:`walk_features_explicit`: for Dirac base kernels
on discrete annotations, a walk contributes through its label sequence
(vertex and edge labels, alternating) only, so each graph maps to a sparse
count vector over sequences, built by a backward dynamic program that
keeps one map per vertex and extends walks one step per round.  Kernel
values are then plain sparse dot products.

Both schemes stay in exact integer arithmetic for Dirac kernels (the
recursion sums float64 integers, exact below 2**53; the feature counts are
Python ints), which is what makes their equality testable bit for bit.
With weight-1 kernels ``r_a(x)`` and ``f_a(x)`` count the length-``a``
walks ending at ``x``, and ``r_a(x) * f_b(x)`` the length-``(a + b)`` walks
through ``x`` at step ``a``.  Walks counted at a vertex with an edge extend
(back and forth along it) to distinct longer walks, and an isolated vertex
holds 1 or 0, so no factor, product or partial sum exceeds the pair's
total at the longest length it feeds: checking each final total against
2**53 guards every float64 sum, and it is checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ContractError,
    MultiplicityOverflowError,
    ParameterError,
    ResourceBudgetError,
)
from .gram import EXACT_LIMIT
from .graphs import DisjointUnion, Graph, partner_runs
from .kernels import EdgeKernelSpec, VertexKernelSpec


@dataclass
class WeightedProductGraph:
    """Direct product of two graphs restricted to positive kernel weights.

    ``pairs[x] = (u, v)`` lists the product vertices in lexicographic
    (u, v) order; ``vertex_weights[x]`` is the vertex-kernel value.  Edges
    are stored once per unordered pair as parallel arrays; an edge exists
    where both factor edges exist and the edge kernel is positive, and its
    weight is that kernel value.  ``vertex_weights`` and ``edge_weights``
    are ``None`` when every weight is 1 (as with Dirac kernels), so a
    unit product stores no weights and its walk totals count walks.
    """

    pairs: np.ndarray                      # (N, 2) int64
    vertex_weights: Optional[np.ndarray]   # (N,) float64, or None: all 1
    edge_u: np.ndarray                     # (M,) int64, indices into pairs
    edge_v: np.ndarray                     # (M,) int64
    edge_weights: Optional[np.ndarray]     # (M,) float64, or None: all 1

    @property
    def num_vertices(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.shape[0])


def build_wdpg(
    g: Graph,
    h: Graph,
    vertex_kernel: VertexKernelSpec,
    edge_kernel: EdgeKernelSpec,
) -> WeightedProductGraph:
    """Construct the weighted direct product of ``g`` and ``h``.

    Product vertices are the pairs the vertex kernel keeps (positive
    value), in lexicographic order, numbered through one (u, v) index.
    Every unordered product edge arises from exactly one (g-edge, h-edge,
    orientation) combination, found by a join on the kernels' equality
    keys (see :func:`_join`): ``h``'s edges are sorted by key, and
    each g-edge, read in both orientations, finds its matching range with
    ``searchsorted``.  Only those candidates meet the vertex keep-mask
    and, unless the edge kernel is 1 on equal keys, its values.  Edges
    come out in (orientation, g-edge, h-edge) order.  When every g-edge
    has one key (a single label, or the constant key of a non-Dirac
    kernel) the candidates form one dense block, read off like the full
    cross product.
    """
    keep, values = vertex_kernel.support(g, h)
    flat = np.flatnonzero(keep)
    count = flat.size
    pairs = np.empty((count, 2), dtype=np.int64)
    np.divmod(flat, h.n, out=(pairs[:, 0], pairs[:, 1]))
    vertex_weights = None if values is None else _unless_unit(values.ravel()[flat])

    empty = np.zeros(0, dtype=np.int64)
    if count == 0 or g.m == 0 or h.m == 0:
        return WeightedProductGraph(pairs, vertex_weights, empty, empty, None)

    index = np.full((g.n, h.n), -1, dtype=np.int64)
    index[keep] = np.arange(count, dtype=np.int64)
    queries, keys, order = getattr(h, "join", None) or _join(
        g, h, vertex_kernel, edge_kernel
    )
    ha, hb = h.edges[order].T
    ga, gb = g.edges[:, 0], g.edges[:, 1]
    # equal keys make both ends product vertices and the edge value 1
    unit = vertex_kernel.unit and edge_kernel.unit
    if not edge_kernel.unit:
        label_g = g.edge_label_array()
        label_h = h.edge_label_array()[order]
    chunks_u: List[np.ndarray] = []
    chunks_v: List[np.ndarray] = []
    chunks_w: List[np.ndarray] = []
    for query, (l0, l1), (r0, r1) in zip(
        queries, ((ga, ha), (ga, hb)), ((gb, hb), (gb, ha))
    ):
        if (query == query[0]).all():
            # one bucket serves every g-edge: a dense (g.m, width) block;
            # take keeps it C-ordered, which the selections below are fast on
            lo = np.searchsorted(keys, query[0], "left")
            hi = np.searchsorted(keys, query[0], "right")
            rows, cols = np.arange(g.m)[:, None], np.arange(lo, hi)
            side_a = index[l0].take(l1[cols], axis=1)
            side_b = index[r0].take(r1[cols], axis=1)
        else:
            # each g-edge's range of sorted h-edges, the ranges end to end
            lo = np.searchsorted(keys, query, "left")
            counts = np.searchsorted(keys, query, "right") - lo
            rows = np.repeat(np.arange(g.m), counts)
            cols = np.arange(rows.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)
            side_a = index[l0[rows], l1[cols]]
            side_b = index[r0[rows], r1[cols]]
        if unit:
            chunks_u.append(side_a.ravel())
            chunks_v.append(side_b.ravel())
            continue
        valid = (side_a >= 0) & (side_b >= 0)
        if not edge_kernel.unit:
            weights = edge_kernel.elementwise(label_g[rows], label_h[cols])
            valid &= weights > 0
            chunks_w.append(weights[valid])
        chunks_u.append(side_a[valid])
        chunks_v.append(side_b[valid])
    return WeightedProductGraph(
        pairs,
        vertex_weights,
        np.concatenate(chunks_u),
        np.concatenate(chunks_v),
        _unless_unit(np.concatenate(chunks_w)) if chunks_w else None,
    )


def _unless_unit(weights: np.ndarray) -> Optional[np.ndarray]:
    """``weights``, or ``None`` when every one is 1."""
    return None if bool((weights == 1.0).all()) else weights


def _codes(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys`` and each key's position among them."""
    ordered = np.sort(keys)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    vocab = ordered[first]
    return vocab, np.searchsorted(vocab, keys)


def _rank(vocab: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the sorted ``vocab``, or -1 if absent."""
    at = np.searchsorted(vocab, keys)
    found = np.zeros(keys.shape, dtype=bool)
    inside = at < vocab.size
    found[inside] = vocab[at[inside]] == keys[inside]
    return np.where(found, at, -1)


def _join(
    g: Graph, h: Graph, vertex_kernel: VertexKernelSpec, edge_kernel: EdgeKernelSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(queries, keys, order)``: ``g``'s and ``h``'s edges keyed for the
    product join.

    An h-edge's key packs the ranks, among ``h``'s keys, of its (vertex
    key, edge key, vertex key) into one int64; ``keys`` holds them
    ascending, ``order`` the h-edges in that order (stably).
    ``queries[0]`` and ``queries[1]`` key each g-edge read forwards and
    backwards in the same ranks, -1 where one of its keys does not occur
    in ``h``.  A g-edge pairs with an h-edge only where their keys are
    equal.
    """
    vertex_vocab, vertex_h = _codes(vertex_kernel.keys(h))
    edge_vocab, edge_h = _codes(edge_kernel.keys(h.edge_label_array()))
    nv, ne = vertex_vocab.size, edge_vocab.size
    if nv * nv * ne * h.m >= 2**63:
        raise ContractError(
            f"{nv} vertex keys and {ne} edge keys on {h.m} edges overflow "
            f"an int64 join key"
        )
    keys = (vertex_h[h.edges[:, 0]] * ne + edge_h) * nv + vertex_h[h.edges[:, 1]]
    vertex_g = _rank(vertex_vocab, vertex_kernel.keys(g))
    edge_g = _rank(edge_vocab, edge_kernel.keys(g.edge_label_array()))
    a, b = vertex_g[g.edges[:, 0]], vertex_g[g.edges[:, 1]]
    queries = np.stack(((a * ne + edge_g) * nv + b, (b * ne + edge_g) * nv + a))
    queries[:, (a < 0) | (b < 0) | (edge_g < 0)] = -1
    # sorting key * m + edge id is a stable sort by key, and many times
    # faster than a stable argsort
    packed = np.sort(keys * h.m + np.arange(h.m))
    size = max(h.m, 1)
    return queries, packed // size, packed % size


#: Budget on the cells one batched product build allocates for ``g``
#: against the union ``H`` of a block of partners: the ``g.n * H.n``
#: vertex index, and per orientation the (g-edge, H-edge) pairs whose
#: join keys match, which is ``g.m * H.m`` when every key agrees.  It
#: keeps a row's peak memory flat however long the row is; a partner
#: that alone exceeds it forms a block of its own.
BLOCK_CELLS = 8192


def _matched_pairs(union: DisjointUnion, join: tuple) -> np.ndarray:
    """Matched (g-edge, union-edge) pairs per orientation, ``(2, k + 1)``
    prefix sums over the union's ``k`` partners, from their ``join``.

    Counted before anything is gathered: each union edge matches as many
    g-edges as share its key.  With unit kernels every matched pair is a
    product edge, so the two totals sum to the product's edge count.
    """
    queries, keys, order = join
    matched = np.zeros((2, union.m + 1), dtype=np.int64)
    for query, prefix in zip(queries, matched):
        # +1 over each g-edge's range of sorted union edges
        ranges = np.bincount(np.searchsorted(keys, query), minlength=union.m + 1)
        ranges -= np.bincount(np.searchsorted(keys, query, "right"), minlength=union.m + 1)
        prefix[1:][order] = np.cumsum(ranges[:-1])
        np.cumsum(prefix, out=prefix)
    return matched[:, union.edge_offsets]


def _blocks(
    g: Graph, union: DisjointUnion, join: tuple
) -> Iterator[Tuple[int, int, DisjointUnion]]:
    """Consecutive partner ranges ``(start, stop)`` within :data:`BLOCK_CELLS`,
    each with its slice of ``union`` keyed by its share of ``join``, which
    :func:`build_wdpg` reads instead of joining anew."""
    queries, keys, order = join
    vertices = union.vertex_offsets.tolist()
    forwards, backwards = _matched_pairs(union, join).tolist()
    cells = lambda a, b: max(g.n * (vertices[b] - vertices[a]), forwards[b] - forwards[a],
                             backwards[b] - backwards[a])
    for start, stop in partner_runs(len(union), cells, BLOCK_CELLS):
        e0, e1 = union.edge_offsets[start], union.edge_offsets[stop]
        inside = (order >= e0) & (order < e1)
        block = union[start:stop]
        block.join = (queries, keys[inside], order[inside] - e0)
        yield start, stop, block


def _walk_totals(
    pg: WeightedProductGraph,
    partner: np.ndarray,
    count: int,
    length: int,
    all_rounds: bool,
) -> Tuple[np.ndarray, bool]:
    """Walk totals per partner for lengths 0..length (or only the last).

    The module docstring's recursion: ``ceil(length/2)`` products by the
    weighted adjacency, each spread over the unordered edges in two
    bincounts (``u`` collects ``r[v]``, ``v`` collects ``r[u]``), then one
    bincount of ``r * f`` by ``partner`` per kept length.  Also returns
    whether every weight was 1 (the product stores none), i.e. whether
    the totals count walks; then no factor, product or partial sum exceeds
    the last total, so the caller's 2**53 check on the totals guards every
    float64 sum.
    """
    ew, u, v, n = pg.edge_weights, pg.edge_u, pg.edge_v, pg.num_vertices
    unit_vertices = pg.vertex_weights is None
    w = np.ones(n) if unit_vertices else pg.vertex_weights

    def spread(r: np.ndarray) -> np.ndarray:
        at_u, at_v = (r.take(v), r.take(u)) if ew is None else (ew * r.take(v), ew * r.take(u))
        return np.bincount(u, at_u, n) + np.bincount(v, at_v, n)

    r, f = [w], [None]
    for _ in range((length + 1) // 2):
        f.append(spread(r[-1]))
        r.append(f[-1] if unit_vertices else w * f[-1])
    kept = range(length + 1) if all_rounds else (length,)
    totals = [np.bincount(partner, r[i // 2] * f[(i + 1) // 2] if i else w, count) for i in kept]
    return np.stack(totals, axis=1), unit_vertices and ew is None


def walk_kernel_implicit(
    g: Graph,
    hs: Sequence[Graph],
    vertex_kernel: VertexKernelSpec,
    edge_kernel: EdgeKernelSpec,
    length: int,
    all_rounds: bool = False,
) -> np.ndarray:
    """Walk kernels of ``g`` against every partner in ``hs``, batched.

    Returns one value per partner, or with ``all_rounds`` one row of the
    per-length values ``0..length`` per partner (the terms of the max-walk
    kernel); one pair's value is ``walk_kernel_implicit(g, [h], ...)[0]``.
    ``length = 0`` compares single vertices: the value is the sum of all
    positive vertex-kernel values.  Partners are grouped into blocks,
    slices of ``hs`` as a :class:`~gkern.graphs.DisjointUnion`, within
    :data:`BLOCK_CELLS`; each block costs one product build and one
    recursion.

    With weight-1 kernels the values are walk counts.  Should a partner's
    total (summed over the returned lengths) reach 2**53, float64 would no
    longer have counted it exactly, and :class:`MultiplicityOverflowError`
    names that partner.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    hs = DisjointUnion.of(hs)
    out = np.empty((len(hs), length + 1 if all_rounds else 1), dtype=np.float64)
    if not len(hs):
        return out if all_rounds else out[:, 0]
    for start, stop, block in _blocks(g, hs, _join(g, hs, vertex_kernel, edge_kernel)):
        pg = build_wdpg(g, block, vertex_kernel, edge_kernel)
        totals, counting = _walk_totals(
            pg, block.owner[pg.pairs[:, 1]], stop - start, length, all_rounds
        )
        if counting:
            mass = totals.sum(axis=1)
            worst = int(np.argmax(mass))
            if mass[worst] >= EXACT_LIMIT:
                raise MultiplicityOverflowError(
                    f"walk kernel against partner {start + worst} counts "
                    f"{mass[worst]:.4g} walks, past 2**53, where float64 "
                    f"stops being exact"
                )
        out[start:stop] = totals
    return out if all_rounds else out[:, 0]


#: Most (vertex, label sequence) entries one round of
#: :func:`walk_features_explicit` may store across a graph's vertices.  The
#: per-vertex maps grow with the number of distinct labelled walks, which
#: on dense edge-labelled graphs is exponential in the length.
WALK_MAP_ENTRIES = 2**20


def walk_features_explicit(g: Graph, length: int) -> Dict[tuple, int]:
    """Count vector over walk label sequences of one fixed length.

    A walk (v_0, e_1, v_1, ..., v_len) is keyed by its alternating label
    sequence prefixed with the length, so different lengths never collide.
    Unlabeled edges contribute a shared pseudo-label 0.  The dot product
    of two such vectors equals the implicit walk kernel with Dirac vertex
    and edge kernels.  A round whose maps grow past
    :data:`WALK_MAP_ENTRIES` entries raises :class:`ResourceBudgetError`.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    labels = g.vertex_label_array().tolist()
    per_vertex: List[dict] = [{(labels[v],): 1} for v in range(g.n)]
    if length and g.n:
        # (neighbour, edge label) per arc of the CSR, one list per vertex
        arcs = list(zip(g.neighbors.tolist(), g.edge_label_array()[g.arc_edges].tolist()))
        ends = g.arc_starts.tolist()
        ladj = [arcs[a:b] for a, b in zip(ends, ends[1:])]
        for step in range(1, length + 1):
            nxt: List[dict] = [{} for _ in range(g.n)]
            stored = 0
            for u in range(g.n):
                lu = labels[u]
                bucket = nxt[u]
                for v, edge_label in ladj[u]:
                    prefix = (lu, edge_label)
                    for seq, count in per_vertex[v].items():
                        key = prefix + seq
                        bucket[key] = bucket.get(key, 0) + count
                stored += len(bucket)
                if stored > WALK_MAP_ENTRIES:
                    raise ResourceBudgetError(
                        f"walk feature map of length {step} exceeded "
                        f"{WALK_MAP_ENTRIES} stored (vertex, sequence) entries"
                    )
            per_vertex = nxt  # previous round's maps are released here
    total: dict = {}
    for bucket in per_vertex:
        for seq, count in bucket.items():
            total[seq] = total.get(seq, 0) + count
    return {(length, *seq): c for seq, c in total.items()}
