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
already a product edge of weight 1, so nothing else is read, and the
product vertices are numbered from the keys as well, without a dense
index over all vertex pairs.  Constant keys match everything, so the
non-Dirac kinds fall back to the dense enumeration through the same code.

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
its share of the keys, and :data:`BLOCK_CELLS` bounds its vertex pairs
and matched edge pairs (counted from the keys before anything is
gathered), so memory stays flat however long the row is, and sparse
matches (many labels) let a whole row share a few builds.  The same
holds with ``g`` itself a union of several graphs, a run of Gram rows:
the product of a run with a block is the union of its rows' products,
so a Gram takes :data:`GRAM_ROWS` rows per call and shares the join and
the builds among them.

*Explicit scheme* — :func:`walk_features_explicit`: for Dirac base kernels
on discrete annotations, a walk contributes through its label sequence
(vertex and edge labels, alternating) only, so each graph maps to a sparse
count vector over sequences, and kernel values are plain sparse dot
products.  The map is a dataset map (see :mod:`gkern.gram`): a backward
dynamic program over the dataset's union whose states are (vertex,
sequence, count) arrays.  Each round joins every arc ``u -> v`` with the
states at ``v`` and merges the candidates with one sort; sequences are
interned per round over the whole dataset as words packing (first vertex
label, first edge label, previous round's sequence), the way WL numbers
its colours, and the keys are rebuilt from those tables at the end.  With
``all_rounds`` one pass gives every length, the max-walk kernel's map.

Both schemes stay in exact integer arithmetic for Dirac kernels (the
recursion and the walk map's counts are float64 integers, exact below
2**53), which is what makes their equality testable bit for bit.  The walk
map's counts only add, so one that passes 2**53 stays past it where an
int64 would wrap; a graph's weight saturates at 2**53, and its pairs fail
the explicit Gram's guard.
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
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ContractError,
    GramError,
    MultiplicityOverflowError,
    ParameterError,
    ResourceBudgetError,
)
from .gram import EXACT_LIMIT, FeatureMatrix, KeyRows, row_order, tally_rows
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
    value), in lexicographic order.  A unit (Dirac) kernel keeps the
    pairs with equal keys, numbered from ``h``'s vertices sorted by key
    (see :func:`_key_pairs`), so no ``(g.n, h.n)`` array is filled where
    few pairs match; any other kernel's keep-mask is numbered through one
    (u, v) index.
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
    if vertex_kernel.unit:
        pairs, offset, within = _key_pairs(g, h, vertex_kernel)
        vertex_weights = None
        index = lambda us, vs: offset[us] + within[vs]
    else:
        keep, values = vertex_kernel.support(g, h)
        flat = np.flatnonzero(keep)
        pairs = np.empty((flat.size, 2), dtype=np.int64)
        np.divmod(flat, h.n, out=(pairs[:, 0], pairs[:, 1]))
        vertex_weights = _unless_unit(values.ravel()[flat])
        numbers = np.full((g.n, h.n), -1, dtype=np.int64)
        numbers[keep] = np.arange(flat.size, dtype=np.int64)
        index = lambda us, vs: numbers[us, vs]

    empty = np.zeros(0, dtype=np.int64)
    if len(pairs) == 0 or g.m == 0 or h.m == 0:
        return WeightedProductGraph(pairs, vertex_weights, empty, empty, None)

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
            side_a = index(l0[:, None], l1[cols])
            side_b = index(r0[:, None], r1[cols])
        else:
            # each g-edge's range of sorted h-edges, the ranges end to end
            lo = np.searchsorted(keys, query, "left")
            counts = np.searchsorted(keys, query, "right") - lo
            rows = np.repeat(np.arange(g.m), counts)
            cols = _ranges(lo, counts)
            side_a = index(l0[rows], l1[cols])
            side_b = index(r0[rows], r1[cols])
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[k] .. starts[k] + counts[k] - 1``, end to end."""
    out = np.repeat(starts - np.cumsum(counts) + counts, counts)
    out += np.arange(out.size)
    return out


def _key_pairs(
    g: Graph, h: Graph, vertex_kernel: VertexKernelSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pairs, offset, within)``: the vertex pairs of ``g`` and ``h``
    with equal keys, in lexicographic order, and their numbering.

    With ``h``'s vertices sorted stably by key, a ``g`` vertex's partners
    are one range of that order, ``v`` ascending; the pair ``(u, v)`` is
    number ``offset[u] + within[v]``, ``within[v]`` being ``v``'s place
    among the ``h`` vertices sharing its key.  The numbers hold for equal
    keys only, which is all a unit kernel's product edges join.
    """
    keys_h = vertex_kernel.keys(h)
    order = np.argsort(keys_h, kind="stable")
    ranked = keys_h[order]
    keys_g = vertex_kernel.keys(g)
    lo = np.searchsorted(ranked, keys_g, "left")
    width = np.searchsorted(ranked, keys_g, "right") - lo
    within = np.empty(h.n, dtype=np.int64)
    within[order] = np.arange(h.n) - np.searchsorted(ranked, ranked, "left")
    pairs = np.empty((int(width.sum()), 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(np.arange(g.n), width)
    pairs[:, 1] = order[_ranges(lo, width)]
    return pairs, np.cumsum(width) - width, within


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
#: against the union ``H`` of a block of partners: its vertex pairs (those
#: with equal keys for a unit kernel, all ``g.n * H.n`` for any other)
#: and ``H``'s vertices, and the (g-edge, H-edge) pairs whose join keys
#: match in either orientation (a unit product's edges), which is
#: ``2 * g.m * H.m`` when every key agrees.  It keeps a row's peak memory
#: flat however long the row is; a partner that alone exceeds it forms a
#: block of its own.
BLOCK_CELLS = 16384


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


def _vertex_cells(g: Graph, union: DisjointUnion, vertex_kernel: VertexKernelSpec) -> np.ndarray:
    """Vertex cells :func:`build_wdpg` fills for ``g`` against each of the
    union's ``k`` partners, as ``k + 1`` prefix sums: each union vertex
    counts itself and its pairs, with the ``g`` vertices sharing its key
    for a unit kernel, with all of them for any other."""
    if vertex_kernel.unit:
        ranked, keys = np.sort(vertex_kernel.keys(g)), vertex_kernel.keys(union)
        per_vertex = np.searchsorted(ranked, keys, "right") - np.searchsorted(ranked, keys, "left")
    else:
        per_vertex = np.full(union.n, g.n, dtype=np.int64)
    return np.concatenate(([0], np.cumsum(per_vertex + 1)))[union.vertex_offsets]


def _blocks(
    g: Graph, union: DisjointUnion, vertex_kernel: VertexKernelSpec, join: tuple
) -> Iterator[Tuple[int, int, DisjointUnion]]:
    """Consecutive partner ranges ``(start, stop)`` within :data:`BLOCK_CELLS`,
    each with its slice of ``union`` keyed by its share of ``join``, which
    :func:`build_wdpg` reads instead of joining anew."""
    queries, keys, order = join
    vertices = _vertex_cells(g, union, vertex_kernel).tolist()
    edges = _matched_pairs(union, join).sum(axis=0).tolist()
    cells = lambda a, b: max(vertices[b] - vertices[a], edges[b] - edges[a])
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
    bincount of ``r * f`` by ``partner`` per kept length.  Lengths
    ``2a - 1`` and ``2a`` meet at step ``a`` (``r_{a-1} * f_a`` and
    ``r_a * f_a``), so each is tallied as its step is reached and only
    one step's vectors are held.  Also returns whether every weight was 1
    (the product stores none), i.e. whether the totals count walks; then
    no factor, product or partial sum exceeds the last total, so the
    caller's 2**53 check on the totals guards every float64 sum.
    """
    ew, u, v, n = pg.edge_weights, pg.edge_u, pg.edge_v, pg.num_vertices
    unit_vertices = pg.vertex_weights is None
    # unit vertex weights are left implicit: r_0 = None stands for all ones
    w = None if unit_vertices else pg.vertex_weights

    def spread(r: Optional[np.ndarray]) -> np.ndarray:
        if r is None:
            # r all ones: the weighted degrees, ew * 1 being ew exactly
            return (np.bincount(u, ew, n) + np.bincount(v, ew, n)).astype(np.float64, copy=False)
        f = np.bincount(u, r.take(v) if ew is None else ew * r.take(v), n)
        f += np.bincount(v, r.take(u) if ew is None else ew * r.take(u), n)
        return f

    kept = range(length + 1) if all_rounds else (length,)
    totals = np.empty((count, len(kept)))
    column = {i: c for c, i in enumerate(kept)}
    if 0 in column:
        totals[:, column[0]] = np.bincount(partner, w, count)
    r = w
    for a in range(1, (length + 1) // 2 + 1):
        f = spread(r)
        if 2 * a - 1 in column:
            totals[:, column[2 * a - 1]] = np.bincount(partner, f if r is None else r * f, count)
        r = f if unit_vertices else w * f
        if 2 * a in column:
            totals[:, column[2 * a]] = np.bincount(partner, r * f, count)
    return totals, unit_vertices and ew is None


def walk_kernel_implicit(
    g: Union[Graph, DisjointUnion],
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

    ``g`` may also be a :class:`~gkern.graphs.DisjointUnion` of several
    graphs, a run of Gram rows: a block's product is then that of the
    run with the partners, and the values come one row per graph of the
    run (``out[x]`` is ``walk_kernel_implicit(g[x], hs, ...)``), so a
    run shares one join and one build per block.

    With weight-1 kernels the values are walk counts.  Should a pair's
    total (summed over the returned lengths) reach 2**53, float64 would no
    longer have counted it exactly, and :class:`MultiplicityOverflowError`
    names that partner.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    hs = DisjointUnion.of(hs)
    run = isinstance(g, DisjointUnion)
    rows, row_of = (len(g), g.owner) if run else (1, np.zeros(g.n, dtype=np.int64))
    out = np.empty((rows, len(hs), length + 1 if all_rounds else 1), dtype=np.float64)
    if rows and len(hs):
        join = _join(g, hs, vertex_kernel, edge_kernel)
        for start, stop, block in _blocks(g, hs, vertex_kernel, join):
            pg = build_wdpg(g, block, vertex_kernel, edge_kernel)
            width = stop - start
            pair = row_of[pg.pairs[:, 0]] * width + block.owner[pg.pairs[:, 1]]
            totals, counting = _walk_totals(pg, pair, rows * width, length, all_rounds)
            if counting:
                mass = totals.sum(axis=1)
                worst = int(np.argmax(mass))
                if mass[worst] >= EXACT_LIMIT:
                    row, partner = divmod(worst, width)
                    raise MultiplicityOverflowError(
                        f"walk kernel {f'of row {row} ' if run else ''}against "
                        f"partner {start + partner} counts {mass[worst]:.4g} "
                        f"walks, past 2**53, where float64 stops being exact"
                    )
            out[:, start:stop] = totals.reshape(rows, width, -1)
            # so one block's product at a time is held, not two
            del pg, pair
    out = out if all_rounds else out[..., 0]
    return out if run else out[0]


#: Gram rows one :func:`walk_kernel_implicit` call evaluates in a Gram
#: (the ``rows`` of :func:`gkern.gram.gram_implicit`), as the walk,
#: max-walk and shortest-path plans build theirs.  A run shares its join
#: and its product builds, which on small products are mostly fixed cost;
#: it also evaluates the pairs below the diagonal within the run, a share
#: of about ``rows / n`` more of the work.  On 150 graphs of 20 vertices
#: (l 7, one label and three) 8 rows ran faster than 1, 16 or 32 (2-vCPU
#: Xeon, numpy 2.4).
GRAM_ROWS = 8


#: Most (vertex, label sequence) states one round of
#: :func:`walk_features_explicit` may store for one graph.  They grow with
#: the number of distinct labelled walks, which on dense edge-labelled
#: graphs is exponential in the length.
WALK_MAP_ENTRIES = 2**20

#: Budget on the (vertex, sequence) states that a run of consecutive
#: graphs holds in one round of :func:`walk_features_explicit`, the joined
#: candidates before they merge included.  Graphs share a run while an
#: upper bound on their states stays within it (a graph past it alone
#: forms a run of its own), and a round joins a run's arcs a vertex range
#: at a time within it, so memory stays flat however many graphs there are.
WALK_RUN_STATES = 2**17


class _Exceeded(Exception):
    """Graph ``graph`` of a dataset failed the walk map with ``cause``."""

    def __init__(self, graph: int, cause: ResourceBudgetError):
        super().__init__(graph, cause)
        self.graph, self.cause = graph, cause


class _Sequences:
    """One round's label sequences over a dataset, numbered as runs first
    hold them.  Sequence ``s`` is a word, the previous round's sequence
    times the number of first steps plus its first step (first vertex
    label, first edge label); ``words`` holds them in number order."""

    def __init__(self) -> None:
        self.sorted = np.zeros(0, np.int64)  # the words, ascending
        self.ids = np.zeros(0, np.int64)  # their sequence numbers
        self.words: List[np.ndarray] = []

    def intern(self, words: np.ndarray) -> np.ndarray:
        """The sequence number of each word, numbering those not yet held."""
        distinct, inverse = np.unique(words, return_inverse=True)
        ids = _rank(self.sorted, distinct)
        new = ids < 0
        ids[~new] = self.ids[ids[~new]]
        ids[new] = np.arange(int(new.sum())) + self.ids.size
        place = np.searchsorted(self.sorted, distinct[new])
        self.sorted = np.insert(self.sorted, place, distinct[new])
        self.ids = np.insert(self.ids, place, ids[new])
        self.words.append(distinct[new])
        return ids[inverse]


class _WalkMap:
    """The dataset-wide side of :func:`walk_features_explicit`: the union's
    arcs with their first steps, and one :class:`_Sequences` per round."""

    def __init__(self, union: DisjointUnion, length: int):
        self.union, self.length = union, length
        self.vocab, self.ranks = np.unique(union.vertex_label_array(), return_inverse=True)
        self.edge_vocab, edge_ranks = np.unique(union.edge_label_array(), return_inverse=True)
        self.labels = max(self.edge_vocab.size, 1)
        self.steps = self.vocab.size * self.labels
        # arc a runs from source[a] to neighbors[a], its first step step[a]
        self.source = np.repeat(np.arange(union.n), np.diff(union.arc_starts))
        self.step = self.ranks[self.source] * self.labels + edge_ranks[union.arc_edges]
        self.tables = [_Sequences() for _ in range(length + 1)]
        self.cells = self._cells()

    def _cells(self) -> np.ndarray:
        """Per graph, an upper bound on its states and joined candidates in
        any round.

        A vertex starts at most as many length-``r`` sequences as its
        neighbours start of length ``r - 1`` together, which is also its
        count of candidates, and at most ``steps ** r``, one per choice of
        (vertex label, edge label) at each step.  Uniform labels keep
        that at 1, so such a dataset forms one run.
        """
        union, count = self.union, len(self.union)
        bound = np.ones(union.n)
        cells = np.bincount(union.owner, minlength=count).astype(np.float64)
        for r in range(1, self.length + 1):
            joined = np.bincount(self.source, bound[union.neighbors], union.n)
            np.maximum(cells, np.bincount(union.owner, joined, count), out=cells)
            bound = np.minimum(joined, float(self.steps) ** r)
        return cells

    def run(self, start: int, stop: int, kept: Sequence[int]) -> List[tuple]:
        """``(graph, round, sequence, count)`` tallies of graphs
        ``start..stop-1``, one per kept round, ascending by graph and
        sequence."""
        union = self.union
        v0, v1 = union.vertex_offsets[[start, stop]].tolist()
        a0, a1 = union.arc_starts[[v0, v1]].tolist()
        arcs = (
            union.arc_starts[v0 : v1 + 1] - a0,
            self.source[a0:a1] - v0,
            union.neighbors[a0:a1] - v0,
            self.step[a0:a1],
        )
        graph = union.owner[v0:v1]
        states = np.arange(v1 - v0), self.ranks[v0:v1], np.ones(v1 - v0)
        tallies = []
        for r in range(self.length + 1):
            if r:
                states = self._round(r, states, arcs, graph - start, start)
            if r in kept:
                vertex, sequence, count = states
                first, sums = tally_rows((graph[vertex], sequence), count)
                np.minimum(sums, EXACT_LIMIT, out=sums)
                owners = graph[vertex[first]].astype(np.int32)
                tallies.append((owners, r, sequence[first].astype(np.int32), sums))
        return tallies

    def _round(
        self, r: int, states: tuple, arcs: tuple, graph: np.ndarray, start: int
    ) -> tuple:
        """Round ``r``'s states of a run from round ``r - 1``'s: each arc
        ``u -> v`` joined with the states at ``v``, merged by ``u`` and
        word, a vertex range of at most :data:`WALK_RUN_STATES` candidates
        at a time.  ``graph`` holds each vertex's graph within the run,
        whose first graph is the dataset's ``start``."""
        vertex, sequence, count = states
        starts, near, far, step = arcs
        previous = self.tables[r - 1].ids.size if r > 1 else self.vocab.size
        if previous * self.steps >= 2**63:
            raise ContractError(f"walk sequences of length {r} overflow an int64 word")
        held = np.bincount(vertex, minlength=starts.size - 1)
        first_state = np.cumsum(held) - held
        take = held[far]
        # candidates before each vertex's arcs
        before = np.concatenate(([0], np.cumsum(take)))[starts]
        stored = np.zeros(int(graph[-1]) + 1 if graph.size else 0, dtype=np.int64)
        parts = [(vertex[:0], sequence[:0], count[:0])]
        lo = 0
        while lo < starts.size - 1:
            hi = int(np.searchsorted(before, before[lo] + WALK_RUN_STATES, "right")) - 1
            hi = max(lo + 1, hi)
            a, b = starts[lo], starts[hi]
            joined = take[a:b]
            arc = np.repeat(np.arange(a, b), joined)
            # candidate j of arc k reads state first_state[far[k]] + j
            at = np.arange(arc.size) + np.repeat(
                first_state[far[a:b]] - np.cumsum(joined) + joined, joined
            )
            tails, words = near[arc], sequence[at] * self.steps + step[arc]
            first, sums = tally_rows((tails, words), count[at])
            tails = tails[first]
            stored += np.bincount(graph[tails], minlength=stored.size)
            over = np.flatnonzero(stored > WALK_MAP_ENTRIES)
            if over.size:
                raise _Exceeded(start + int(over[0]), ResourceBudgetError(
                    f"walk feature map of length {r} exceeded "
                    f"{WALK_MAP_ENTRIES} stored (vertex, sequence) entries"
                ))
            parts.append((tails, self.tables[r].intern(words[first]), sums))
            lo = hi
        return tuple(map(np.concatenate, zip(*parts)))

    def keys(self, kept: Sequence[int]) -> List[np.ndarray]:
        """Each kept round's label sequences as rows ``(*labels)`` in
        sequence-number order, rebuilt from the words of every round."""
        rows = [self.vocab[:, None]]
        for r in range(1, max(kept) + 1):
            words = np.concatenate([np.zeros(0, np.int64), *self.tables[r].words])
            previous, step = np.divmod(words, self.steps)
            label, edge_label = np.divmod(step, self.labels)
            rows.append(np.column_stack(
                (self.vocab[label], self.edge_vocab[edge_label], rows[-1][previous])
            ))
        return [rows[r] for r in kept]


def walk_features_explicit(
    graphs: Sequence[Graph], length: int, all_rounds: bool = False
) -> FeatureMatrix:
    """Count vectors over walk label sequences, the dataset map of the
    walk kernel with Dirac vertex and edge kernels.

    A walk (v_0, e_1, v_1, ..., v_len) is keyed by its alternating label
    sequence prefixed with the length, ``(length, l(v_0), l(e_1), ...)``,
    so different lengths never collide; unlabeled edges read as label 0.
    The dot product of two graphs' vectors equals their walk kernel.
    With ``all_rounds`` the map holds every length ``0..length``: the
    max-walk kernel's map, which concatenates its terms' maps.  One
    graph's vector is ``walk_features_explicit([g], length).vector(0)``.

    Round ``r``'s states are (vertex, sequence, count) arrays: how many
    length-``r`` walks from the vertex carry the sequence.  A round joins
    every arc ``(u -> v, edge label)`` with the states at ``v`` and merges
    the candidates by (u, first step, sequence at v) with one sort.
    Sequences are numbered per round across the dataset, and the kept
    rounds' tables give the keys at the end; columns ascend by key.
    Graphs go through the rounds in runs of consecutive graphs within
    :data:`WALK_RUN_STATES`.

    Counts are float64 sums of integers, exact below 2**53 and never
    below it once past it; a graph's weight saturates at 2**53, which
    keeps its pairs failing :func:`~gkern.gram.gram_explicit`'s
    exactness guard.  A graph whose
    states in one round exceed :data:`WALK_MAP_ENTRIES` fails with a
    :class:`GramError` whose cause, a :class:`ResourceBudgetError`, names
    the length; the first such graph is named, whatever the runs.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    union = DisjointUnion.of(graphs)
    kept = range(length + 1) if all_rounds else (length,)
    walks = _WalkMap(union, length)
    prefix = np.concatenate(([0.0], np.cumsum(walks.cells))).tolist()
    tallies: List[tuple] = []
    for start, stop in partner_runs(
        len(union), lambda a, b: prefix[b] - prefix[a], WALK_RUN_STATES
    ):
        try:
            tallies += walks.run(start, stop, kept)
        except _Exceeded as failed:
            # a graph before it may fail at a later round; as when graphs
            # are mapped one by one, the first failing graph is named
            while failed.graph > start:
                try:
                    walks.run(start, failed.graph, kept)
                    break
                except _Exceeded as earlier:
                    failed = earlier
            raise GramError(f"graph {failed.graph} failed: {failed.cause}") from failed.cause
    # column of each kept round's sequence: its key's rank among all keys
    blocks, columns = [], {}
    for r, rows in zip(kept, walks.keys(kept)):
        order = row_order(rows.T)
        columns[r] = np.empty(len(rows), np.int32)
        columns[r][order] = np.arange(len(rows)) + sum(map(len, blocks))
        blocks.append(np.column_stack((np.full(len(rows), r), rows[order])))
    # a counting sort by column: runs come in graph order and tally by
    # graph, so each run's entries go after those already in their columns
    for k, (graph, r, sequence, weight) in enumerate(tallies):
        tallies[k] = (graph, columns[r][sequence], weight)
    held = np.bincount(
        np.concatenate([np.zeros(0, np.int32), *(column for _, column, _ in tallies)]),
        minlength=sum(map(len, blocks)),
    )
    free = np.cumsum(held) - held  # each column's next free entry
    size = int(held.sum())
    graph, column, weight = np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size)
    for part_graph, part_column, part_weight in tallies:
        order = np.argsort(part_column, kind="stable")
        into = part_column[order]
        at = free[into] + np.arange(into.size) - np.searchsorted(into, into)
        graph[at], column[at], weight[at] = part_graph[order], into, part_weight[order]
        np.add.at(free, into, 1)
    return FeatureMatrix(graph, column, weight, np.ones(len(union), dtype=bool), KeyRows(blocks))
