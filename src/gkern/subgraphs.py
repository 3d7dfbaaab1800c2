"""Kernels built from small subgraphs.

One numpy counter underlies the explicit maps.  It lists the vertex sets
of 1..``max_size`` vertices as int arrays, a chunk of one size at a
time: every subset, or only those inducing a connected subgraph, grown a
size at a time from the edges by the neighbours of their members above
their smallest vertex, each set from one parent only, so none repeats.
It keys each induced subgraph by its smallest encoding over the vertex
orders that sort its labels (sorted vertex labels, then for each
position pair ``(0, 0)`` if absent or ``(1, label)`` if an edge), trying
the orders for all sets of one tie pattern at once, and counts the sets
per key with one sort.  The number of vertex orders reaching the
smallest encoding is the class's automorphism count |Aut(P)|.

The counter runs once over a dataset's :class:`~gkern.graphs.DisjointUnion`
and counts each set with its graph, so one sort per size counts every
(class, graph).  :func:`graphlet_features` is its connected 3-vertex
slice, a dataset map: triangles and 2-edge paths with their vertex and
edge labels, so the dot product of two count vectors compares subgraph
content.

:func:`subgraph_matching_kernel` scores *mappings* between subgraphs
instead of counting isomorphism classes: each common-subgraph isomorphism
of size up to ``max_size`` appears as a clique in the association graph of
compatible vertex pairs, and contributes the product of its vertex- and
edge-kernel values, weighted by a function of its size.  With Dirac
kernels a mapping is an isomorphism between induced subgraphs, so the
kernel is Σ_P |Aut(P)|·c_P(G)·c_P(H) over the classes P the counter keys;
:func:`matching_features` is that explicit dataset map.

The implicit side runs a Gram row at a time
(:func:`subgraph_matching_kernel` takes ``g`` and a sequence of
partners; one pair is the one-partner case).  ``g`` is paired with the
disjoint union of a block of partners, and pairs of different partners
are never connected, so the association graph of the union is the
disjoint union of the per-partner ones; it is stored as such, one flat
square of connections per partner, and nothing between partners is
built or read.  Its cliques are enumerated in numpy,
a chunk of one size at a time: a chunk is one int array of ascending
member indices, and each clique grows by the candidates in its window.
A one-vertex clique's window is the later vertices of its partner; a
grown clique's window is the candidates its parent had above its new
member, which every earlier member already allows, so a candidate costs
one read of the new member's row.  Products follow the
one-clique-at-a-time order and are summed per partner, size by size.
With Dirac kernels every term is an integer, exact in float64 below
2**53 in any order, so the Grams equal the explicit ones bit for bit,
and the 2**53 bound is checked per partner.  :data:`ASSOCIATION_CELLS`
bounds a block's summed squares and each extension chunk's summed
windows, and chunks grow depth first, so a row holds one chunk per
clique size however many cliques a size has.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations, islice, permutations, product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import MultiplicityOverflowError, ParameterError
from .gram import EXACT_LIMIT, FeatureMatrix, count_rows, tally_rows
from .graphs import DisjointUnion, Graph, partner_runs
from .kernels import EdgeKernelSpec, VertexKernelSpec


#: Budget on the cells one step of this module holds.  The counter: the
#: candidate cells of one chunk of sets grown a size (see
#: :func:`_connected_sets`), the cells of one chunk of vertex subsets and
#: the (set, vertex order, pair) cells of one slice of canonical forms;
#: beyond these it holds the classes counted so far.  Implicit subgraph
#: matching: the vertex-kernel grid of ``g`` against a group of partners,
#: the association graph of ``g`` against one block of them (the sum of
#: its partners' squares, as pairs of different partners are not stored)
#: and the candidate cells of one extension chunk (the sum of its cliques'
#: windows).  It keeps peak memory flat however many sets a graph has,
#: however long a row is and however many cliques a size has; a set,
#: partner or clique that alone exceeds it forms a chunk, slice, group or
#: block of its own.
ASSOCIATION_CELLS = 1 << 15


def _connected_sets(g: Graph, max_size: int) -> Iterator[np.ndarray]:
    """Every vertex set of 1..``max_size`` vertices inducing a connected
    subgraph, once, in chunks of one size, as rows that start with their
    smallest vertex (the root) and end with their *tip*: the largest of
    their vertices farthest from the root within the set.

    Sizes 1 and 2 are the vertices and the edges.  A larger set grows from
    one parent only, itself less its tip.  No other vertex's shortest path
    to the root passes the tip, so the parent is connected, has the same
    root and gives every other vertex its distance.  Rows carry their
    members' distances, and a parent's neighbour above its root is kept,
    once however many members it touches, iff it is the grown set's tip:
    its distance (one more than its nearest adjacent member's) exceeds the
    parent tip's, or equals it and the neighbour lies above the parent's
    tip, which no member of the parent does.  Sets need no deduplication,
    so a chunk may end at any row: it grows the most rows whose candidate
    cells fit :data:`ASSOCIATION_CELLS` (at least one), and chunks grow
    depth first, so one per size is held at a time.
    """
    n = g.n
    starts = g.arc_starts
    degree = np.diff(starts)
    yield np.arange(n)[:, None]
    if max_size > 1 and g.m:
        yield g.edges
    pending = [(g.edges, np.tile([0, 1], (g.m, 1)))] if max_size > 2 and g.m else []
    while pending:
        rows, depth = pending.pop()
        size = rows.shape[1] + 1
        counts = degree[rows]
        cells = np.cumsum(counts.sum(axis=1)) * size
        cut = max(1, int(np.searchsorted(cells, ASSOCIATION_CELLS, "right")))
        if cut < len(rows):
            pending.append((rows[cut:], depth[cut:]))
        rows, depth, counts = rows[:cut], depth[:cut], counts[:cut].ravel()
        # one candidate per member and neighbour above the root, grouped
        # by row and neighbour: a group's members are the neighbour's own
        # (never none, as every member above the root neighbours another)
        at = np.repeat(starts[rows.ravel()] - (np.cumsum(counts) - counts), counts)
        new = g.neighbors[at + np.arange(at.size)]
        member = np.repeat(np.arange(counts.size), counts)
        row = member // (size - 1)
        keep = new > rows[row, 0]
        key = row[keep] * n + new[keep]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        near = np.minimum.reduceat(depth.ravel()[member[keep][order]], first) + 1
        row, new = np.divmod(key[first], n)
        # a row's tip is its last vertex
        base, dist = rows[row], depth[row]
        far, top = dist[:, -1], base[:, -1]
        keep = (near > far) | ((near == far) & (new > top))
        grown = np.column_stack((base[keep], new[keep]))
        if len(grown):
            yield grown
            if size < max_size:
                pending.append((grown, np.column_stack((dist[keep], near[keep]))))


def _subsets(
    offsets: Sequence[int], smallest: int, max_size: int
) -> Iterator[np.ndarray]:
    """Every set of ``smallest``..``max_size`` vertices of one graph, the
    graphs' vertices running from each of ``offsets`` to the next, as rows
    of ascending ids in chunks of one size and at most
    :data:`ASSOCIATION_CELLS` cells."""
    bounds = list(zip(offsets[:-1], offsets[1:]))
    for size in range(smallest, max_size + 1):
        per_graph = (combinations(range(a, b), size) for a, b in bounds)
        sets = chain.from_iterable(chain.from_iterable(per_graph))
        cells = max(1, ASSOCIATION_CELLS // size) * size
        while (flat := np.fromiter(islice(sets, cells), np.int64)).size:
            yield flat.reshape(-1, size)


@lru_cache(maxsize=None)
def _label_orders(size: int, ties: int) -> np.ndarray:
    """``(orders, pairs)``: for each order of ``size`` label-sorted
    positions that keeps them sorted (bit ``i`` of ``ties`` says positions
    ``i`` and ``i + 1`` share a label), the position pair, as an index
    into ``combinations(range(size), 2)``, that lands on each pair."""
    pairs = list(combinations(range(size), 2))
    index = {pair: j for j, pair in enumerate(pairs)}
    cuts = [i + 1 for i in range(size - 1) if not ties >> i & 1]
    runs = [range(a, b) for a, b in zip([0, *cuts], [*cuts, size])]
    orders = [tuple(chain.from_iterable(parts)) for parts in product(*map(permutations, runs))]
    table = np.array(
        [[index[min(o[a], o[b]), max(o[a], o[b])] for a, b in pairs] for o in orders],
        dtype=np.intp,
    ).reshape(len(orders), len(pairs))
    table.setflags(write=False)
    return table


def _canonical(
    sets: np.ndarray, labels: np.ndarray, pair_code: Callable[..., np.ndarray], bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(encodings, automorphisms)`` of the subgraphs that rows of
    ``sets`` induce: each one's sorted labels then its smallest pair-code
    sequence over the vertex orders that sort its labels, and how many of
    those orders reach it.

    Only orders that permute equal labels are tried, for the sets of one
    tie pattern at a time and in slices of at most :data:`ASSOCIATION_CELLS`
    (set, order, pair) cells.  A pair-code sequence is packed ``bits`` per
    code into words, which compare in turn.
    """
    count, size = sets.shape
    rows = np.arange(count)[:, None]
    local = labels[sets]
    order = np.argsort(local, axis=1, kind="stable")
    local, sets = local[rows, order], sets[rows, order]
    first, second = np.array([*combinations(range(size), 2)], dtype=np.intp).reshape(-1, 2).T
    best = pair_code(sets[:, first], sets[:, second])
    automorphisms = np.ones(count, dtype=np.int64)
    pattern = (local[:, 1:] == local[:, :-1]) @ (1 << np.arange(size - 1))
    per_word = 63 // bits
    # sets whose labels are all distinct (pattern 0) keep their one order
    tied = np.flatnonzero(np.bincount(pattern))
    for ties in tied[tied > 0].tolist():
        moves = _label_orders(size, ties)
        chosen = np.flatnonzero(pattern == ties)
        step = max(1, ASSOCIATION_CELLS // moves.size)
        for lo in range(0, chosen.size, step):
            part = chosen[lo : lo + step]
            codes = best[part][:, moves]
            reach = np.ones(codes.shape[:2], dtype=bool)
            for column in range(0, first.size, per_word):
                columns = codes[:, :, column : column + per_word]
                word = columns @ (1 << bits * np.arange(columns.shape[2] - 1, -1, -1))
                low = np.where(reach, word, np.iinfo(np.int64).max).min(axis=1)
                reach &= word == low[:, None]
            automorphisms[part] = reach.sum(axis=1)
            best[part] = codes[np.arange(part.size), reach.argmax(axis=1)]
    return np.column_stack((local, best)), automorphisms


def _tally(
    encodings: np.ndarray, counts: np.ndarray, automorphisms: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ``encodings`` in ascending order, the sum of
    ``counts`` over each one's repeats, and the ``automorphisms`` of one
    of them."""
    first, counts = tally_rows(encodings, counts)
    return encodings[first], counts, automorphisms[first]


def _class_counts(
    graphs: Sequence[Graph], max_size: int, connected_only: bool, smallest: int = 1
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``(graph, encodings, counts, automorphisms)`` of the classes of
    induced subgraphs on ``smallest``..``max_size`` vertices (connected
    ones only with ``connected_only``) in each of ``graphs``, one row per
    graph and class that it has, ascending by class and then graph, for
    each size that has any; unlabeled graphs read as label 0 throughout.

    One pass over the graphs' :class:`~gkern.graphs.DisjointUnion` lists
    the sets, none spanning two graphs, and each set's graph is counted
    with its encoding.  An encoding is the sorted vertex labels, then
    ``0, 0`` for an absent pair or ``1, label`` for an edge, over the
    position pairs in ``combinations`` order, smallest over the vertex
    orders that sort the labels.  The counter codes a pair 0 for no edge
    and 1 + the edge label's rank, which keeps that order.
    """
    if max_size < 1:
        raise ParameterError(f"max_size must be >= 1, got {max_size}")
    union = DisjointUnion.of(graphs)
    n = union.n
    labels = union.vertex_label_array()
    edge_labels, ranks = np.unique(union.edge_label_array(), return_inverse=True)
    # a key above every pair's closes the edge table, with code 0
    keys = np.append(union.edges @ [n, 1], n * n)
    table = np.append(ranks + 1, 0)

    def pair_code(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        pair = np.minimum(u, v) * n + np.maximum(u, v)
        at = np.searchsorted(keys, pair)
        return np.where(keys[at] == pair, table[at], 0)

    if connected_only:
        chunks = _connected_sets(union, max_size)
    else:
        chunks = _subsets(union.vertex_offsets.tolist(), smallest, max_size)
    bits = max(1, edge_labels.size.bit_length())
    tallies: Dict[int, list] = {}
    for sets in chunks:
        size = sets.shape[1]
        if size >= smallest and len(sets):
            encodings, automorphisms = _canonical(sets, labels, pair_code, bits)
            # each set's graph, last, so rows sort by class and then graph
            rows = np.column_stack((encodings, union.owner[sets[:, 0]]))
            ones = np.ones(len(sets), dtype=np.int64)
            parts = tallies.setdefault(size, [])
            parts.append(_tally(rows, ones, automorphisms))
            # merged once the later parts outgrow the first, so a size's
            # parts hold at most about twice its rows and one chunk's
            if sum(len(part[1]) for part in parts[1:]) > len(parts[0][1]):
                parts[:] = [_tally(*map(np.concatenate, zip(*parts)))]
    classes = []
    for size, parts in sorted(tallies.items()):
        merged = parts[0] if len(parts) == 1 else _tally(*map(np.concatenate, zip(*parts)))
        rows, counts, automorphisms = merged
        # codes back to (0, 0) and (1, label) per pair
        codes = rows[:, size:-1]
        written = np.empty((len(codes), size + 2 * codes.shape[1]), dtype=np.int64)
        written[:, :size] = rows[:, :size]
        written[:, size::2] = codes > 0
        written[:, size + 1 :: 2] = np.append(0, edge_labels)[codes]
        classes.append((rows[:, -1], written, counts, automorphisms))
    return classes


def graphlet_features(graphs: Sequence[Graph]) -> FeatureMatrix:
    """Counts of connected induced 3-vertex subgraphs by canonical form,
    the dataset map of the graphlet kernel.

    A class's key is its encoding (see :func:`_class_counts`): two
    subgraphs share a key iff they are isomorphic respecting vertex and
    edge labels.  Unlabeled graphs behave as uniformly labeled; the
    triangle count and path count of e.g. the complete graph K4 come out
    as 4 and 0.
    """
    union = DisjointUnion.of(graphs)
    classes = _class_counts(union, 3, True, smallest=3)
    return count_rows(len(union), [(graph, keys, counts) for graph, keys, counts, _ in classes])


def matching_features(
    graphs: Sequence[Graph], max_size: int = 3, connected_only: bool = False
) -> FeatureMatrix:
    """Dataset map of the Dirac subgraph matching kernel.

    Each class P of induced subgraphs on 1..``max_size`` vertices
    (connected ones only with ``connected_only``) appears as |Aut(P)|
    keys ``(*encoding, copy)``, each weighted by its count c_P, so the dot
    product of two vectors is Σ_P |Aut(P)|·c_P(G)·c_P(H) in integers: the
    value of :func:`subgraph_matching_kernel` with Dirac vertex and edge
    kernels and unit size weights.  Columns run through the sizes in
    turn.
    """
    union = DisjointUnion.of(graphs)
    parts = []
    for graph, encodings, counts, automorphisms in _class_counts(
        union, max_size, connected_only
    ):
        # row i as keys (*encoding i, copy), copy < |Aut|
        of = np.repeat(np.arange(len(counts)), automorphisms)
        copy = np.arange(of.size) - (np.cumsum(automorphisms) - automorphisms)[of]
        parts.append((graph[of], np.column_stack((encodings[of], copy)), counts[of]))
    return count_rows(len(union), parts)


def _squares(
    n: int, edges: np.ndarray, labels: np.ndarray, ids: np.ndarray, group: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(adjacency, labels, row, col)``: one flat square per group of the
    distinct ``ids`` (vertex ids of a graph with ``n`` vertices, repeats
    allowed, ``group`` giving each vertex's), such that entries ``x`` and
    ``y`` of ``ids`` of one group are adjacent iff ``adjacency[row[x] +
    col[y]]``.  No edge joins two groups."""
    used = np.flatnonzero(np.bincount(ids, minlength=n))
    lookup = np.full(n, -1, dtype=np.int64)
    lookup[used] = np.arange(used.size)
    part = group[used]
    sizes = np.bincount(part)
    first = np.cumsum(sizes) - sizes
    pos = np.arange(used.size) - first[part]
    row = (np.cumsum(sizes * sizes) - sizes * sizes)[part] + pos * sizes[part]
    a, b = lookup[edges[:, 0]], lookup[edges[:, 1]]
    kept = (a >= 0) & (b >= 0)
    a, b = a[kept], b[kept]
    adj = np.zeros(int((sizes * sizes).sum()), dtype=bool)
    lab = np.zeros(adj.size, dtype=np.int64)
    adj[row[a] + pos[b]] = adj[row[b] + pos[a]] = True
    lab[row[a] + pos[b]] = lab[row[b] + pos[a]] = labels[kept]
    local = lookup[ids]
    return adj, lab, row[local], pos[local]


def _closure(cliques: np.ndarray, structural: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(cliques, k, k)``: whether two members of a clique (rows of member
    indices) are joined by a path of its structural connections."""
    size = cliques.shape[1]
    sub = structural[rows[cliques[:, :, None]] + cliques[:, None, :]]
    reach = sub | np.eye(size, dtype=bool)
    for _ in range(size - 2):
        reach |= (reach[:, :, :, None] & sub[:, None, :, :]).any(axis=2)
    return reach


def _candidates(
    last: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    pool: np.ndarray,
    allowed: np.ndarray,
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(parent, nxt)``: each clique's window ``pool[lo:hi]`` (candidates
    every earlier member allows, above its ``last`` member), kept where
    ``last`` allows it too, in (clique, candidate) order."""
    width = hi - lo
    starts = np.cumsum(width) - width
    at = np.repeat(lo - starts, width)
    at += np.arange(at.size)
    nxt = pool.take(at)
    at = np.repeat(rows.take(last), width)
    at += nxt
    keep = allowed.take(at)
    kept = np.add.reduceat(keep, starts, dtype=np.int64)
    return np.repeat(np.arange(last.size), kept), nxt[keep]


def _joining(
    cliques: np.ndarray,
    structural: np.ndarray,
    rows: np.ndarray,
    parent: np.ndarray,
    touches: List[np.ndarray],
) -> np.ndarray:
    """Which grown cliques are connected: those whose new member touches,
    structurally, every component of its ``parent`` clique; ``touches[t]``
    says whether member ``t`` does."""
    size = cliques.shape[1]
    reach = _closure(cliques, structural, rows).take(parent, axis=0)
    joins = np.ones(parent.size, dtype=bool)
    for t in range(size):
        touch = touches[t].copy()
        for u in range(size):
            if u != t:
                touch |= reach[:, t, u] & touches[u]
        joins &= touch
    return joins


def _chunk_size(cells: np.ndarray, first: int) -> int:
    """How many leading cliques one extension chunk takes: the most whose
    windows sum to at most :data:`ASSOCIATION_CELLS` cells, and at least
    one.  ``cells`` is the running total of the pending windows, kept
    with them since they were grown, and ``first`` the first one's width,
    so the cut is one search."""
    budget = cells[0] - first + ASSOCIATION_CELLS
    return max(1, int(np.searchsorted(cells, budget, "right")))


def _clique_sums(
    allowed: np.ndarray,
    structural: np.ndarray,
    weights: np.ndarray,
    vertex_weights: np.ndarray,
    rows: np.ndarray,
    stop_of: np.ndarray,
    partner: np.ndarray,
    count: int,
    factors: List[float],
    connected_only: bool,
) -> np.ndarray:
    """``(len(factors), count)`` sums of the clique products of each size,
    by the partner of their members, over one association graph stored
    as per-partner squares (connection ``(x, y)`` at ``rows[x] + y``).

    A clique's window is its parent's candidates above its last member
    (for one vertex, the later vertices of its partner), which its earlier
    members all allow, so growing it reads one row per candidate.  Cliques
    grow depth first in chunks of at most :data:`ASSOCIATION_CELLS` window
    cells (see :func:`_chunk_size`): each chunk's grown cliques are grown on
    to the largest size before the next chunk starts, so one chunk per size
    is held at a time.  The grown products are summed by ``np.add.at``,
    which adds each partner's products one at a time in ascending member
    order, so the chunking never changes a sum.
    """
    sums = np.zeros((len(factors), count), dtype=np.float64)
    top = max((k for k, f in enumerate(factors, 1) if f != 0), default=0)
    if not top:
        return sums
    np.add.at(sums[0], partner, vertex_weights)
    # a stack of (cliques, products, pool, lo, hi, cells), each clique's
    # window being pool[lo:hi] and holding a candidate, and cells the
    # running total of the windows: the last chunk grown is the first
    # grown on.  A vertex's window is its partner's later vertices.
    vertices = np.arange(vertex_weights.size)
    keep = vertices + 1 < stop_of
    lo, hi = vertices[keep] + 1, stop_of[keep]
    pending = [(vertices[keep, None], vertex_weights[keep], vertices, lo, hi, np.cumsum(hi - lo))]
    while top > 1 and pending:
        cliques, products, pool, lo, hi, cells = pending.pop()
        if not lo.size:
            continue
        chunk = _chunk_size(cells, hi[0] - lo[0])
        if lo.size > chunk:
            rest = slice(chunk, None)
            pending.append(
                (cliques[rest], products[rest], pool, lo[rest], hi[rest], cells[rest])
            )
        parents = cliques[:chunk]
        size = parents.shape[1] + 1
        parent, nxt = _candidates(parents[:, -1], lo[:chunk], hi[:chunk], pool, allowed, rows)
        # the product of the one-clique-at-a-time order: vertex, then each
        # member's connection to the new one
        extended = products.take(parent) * vertex_weights.take(nxt)
        touches = []
        for member in parents.T:
            at = rows.take(member).take(parent) + nxt
            extended *= weights.take(at)
            touches.append(structural.take(at))
        if factors[size - 1] != 0:
            # a grown clique's partner is its new member's
            if connected_only:
                counted = _joining(parents, structural, rows, parent, touches)
                np.add.at(sums[size - 1], partner[nxt[counted]], extended[counted])
            else:
                np.add.at(sums[size - 1], partner[nxt], extended)
        if size < top:
            # a grown clique's window: its later siblings' new members
            lo = np.arange(1, nxt.size + 1)
            hi = np.cumsum(np.bincount(parent, minlength=chunk)).take(parent)
            keep = lo < hi
            lo, hi = lo[keep], hi[keep]
            grown = np.column_stack((parents.take(parent[keep], axis=0), nxt[keep]))
            pending.append((grown, extended[keep], nxt, lo, hi, np.cumsum(hi - lo)))
    return sums


def _association(
    sides: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    heads: np.ndarray,
    width: np.ndarray,
    rows: np.ndarray,
    edge_kernel: EdgeKernelSpec,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(allowed, structural, weights)`` of one block's association graph
    as flat per-partner squares: row ``x`` holds ``width[x]`` cells from
    ``heads[x]`` on, and its connection to ``y`` is cell ``rows[x] + y``.

    From the :func:`_squares` of ``g`` and of the partners, an edge on
    both sides is structural, weighted by the edge kernel and allowed
    where that is positive; distinct vertices with no edge on either side
    are allowed with weight 1.  Rows are built in slabs of about
    :data:`ASSOCIATION_CELLS` cells.
    """
    total = int(heads[-1] + width[-1])
    allowed = np.empty(total, dtype=bool)
    structural = np.empty(total, dtype=bool)
    weights = np.ones(total, dtype=np.float64)
    # a slab starts at the row holding each multiple of the budget
    marks = np.arange(0, total, ASSOCIATION_CELLS)
    slabs = np.unique(np.searchsorted(heads, marks, "right") - 1)
    for a, b in zip(slabs.tolist(), [*slabs[1:].tolist(), heads.size]):
        x = np.repeat(np.arange(a, b), width[a:b])
        part = slice(int(heads[a]), int(heads[a]) + x.size)
        y = np.arange(part.start, part.stop) - rows.take(x)
        at, adjacent = [], []
        apart = np.ones(x.size, dtype=bool)
        for square, _, row, col in sides:
            cy = col.take(y)
            apart &= col.take(x) != cy
            cy += row.take(x)
            at.append(cy)
            adjacent.append(square.take(cy))
        both = adjacent[0] & adjacent[1]
        labels = [side[1].take(cells[both]) for side, cells in zip(sides, at)]
        edge_values = edge_kernel.elementwise(*labels)
        allowed[part] = ~(adjacent[0] | adjacent[1]) & apart
        structural[part] = both
        hit = part.start + np.flatnonzero(both)
        allowed[hit] = edge_values > 0
        weights[hit] = edge_values
    return allowed, structural, weights


def _level_sums(
    g: Graph,
    union: DisjointUnion,
    vertex_kernel: VertexKernelSpec,
    edge_kernel: EdgeKernelSpec,
    factors: List[float],
    connected_only: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sums, unit)``: the ``(len(factors), len(union))`` clique sums of
    ``g`` against each partner by size, and which partners have only
    weight-1 vertices and allowed connections (see
    :func:`subgraph_matching_kernel`)."""
    keep, values = vertex_kernel.support(g, union)
    us, vs = np.nonzero(keep)
    by_partner = np.argsort(union.owner[vs], kind="stable")
    us, vs = us[by_partner], vs[by_partner]
    vertex_weights = np.ones(us.size) if values is None else values[us, vs]
    owner = union.owner[vs]
    orders = np.bincount(owner, minlength=len(union))
    pair_ends = list(accumulate(orders.tolist(), initial=0))
    # a block stores only its partners' squares
    squares = list(accumulate((orders * orders).tolist(), initial=0))
    sides = (
        _squares(g.n, g.edges, g.edge_label_array(), us, np.zeros(g.n, dtype=np.int64)),
        _squares(union.n, union.edges, union.edge_label_array(), vs, union.owner),
    )
    sums = np.zeros((len(factors), len(union)), dtype=np.float64)
    unit = np.ones(len(union), dtype=bool)
    cells = lambda a, b: squares[b] - squares[a]
    for start, stop in partner_runs(len(union), cells, ASSOCIATION_CELLS):
        lo, hi = pair_ends[start], pair_ends[stop]
        if lo == hi:
            continue
        block = slice(lo, hi)
        partner = owner[block] - start
        width = orders.take(owner[block])
        ends = np.cumsum(orders[start:stop]).take(partner)
        first = ends - width
        # row x of the squares starts at cell heads[x], and its connection
        # to y is cell rows[x] + y
        heads = np.take(squares, owner[block]) - squares[start]
        heads += (np.arange(hi - lo) - first) * width
        rows = heads - first
        block_sides = [(*side[:2], side[2][block], side[3][block]) for side in sides]
        allowed, structural, weights = _association(
            block_sides, heads, width, rows, edge_kernel
        )
        odd = vertex_weights[block] != 1
        odd |= np.logical_or.reduceat(allowed & (weights != 1), heads)
        unit[start:stop] = np.bincount(partner[odd], minlength=stop - start) == 0
        sums[:, start:stop] = _clique_sums(
            allowed,
            structural,
            weights,
            vertex_weights[block],
            rows,
            ends,
            partner,
            stop - start,
            factors,
            connected_only,
        )
    return sums, unit


def subgraph_matching_kernel(
    g: Graph,
    hs: Sequence[Graph],
    vertex_kernel: VertexKernelSpec = VertexKernelSpec("dirac"),
    edge_kernel: EdgeKernelSpec = EdgeKernelSpec("dirac"),
    max_size: int = 3,
    size_weights: Optional[Callable[[int], float]] = None,
    connected_only: bool = False,
) -> np.ndarray:
    """Subgraph matching kernels of ``g`` against every partner in ``hs``.

    One association graph per block of partners, a slice of ``hs`` as a
    :class:`~gkern.graphs.DisjointUnion`: its vertices are the
    pairs (u in g, v in a partner) with positive vertex kernel, partner
    by partner and in (u, v) order within each, so a partner's pairs keep
    their one-partner order.  Two pairs of one partner are "allowed" in
    one mapping when their components are distinct on both sides and edge
    presence agrees; where both sides have an edge the connection is
    "structural" and weighted by the edge kernel (allowed only where that
    is positive), where neither does it has weight 1.  Pairs of different
    partners are never connected, so every clique maps into one partner.

    Each clique of up to ``max_size`` vertices, enumerated once, a chunk
    of one size at a time, contributes ``size_weights(size)`` times the
    product of its vertex weights and of the weights of all its internal
    connections; ``connected_only`` keeps only cliques whose structural
    connections connect them.  With ``size_weights=lambda k: 1 /
    math.factorial(k)`` the Dirac/uniform value counts each unordered
    common subgraph selection once.  ``max_size`` beyond the association
    graph order is harmless.

    When a partner's cliques all contribute integers (all its vertex and
    allowed connection weights 1, and integer size factors), float64
    sums them exactly below 2**53 only; should the partner's total
    clique mass (each size's sum times its factor's magnitude) reach
    2**53, :class:`MultiplicityOverflowError` names that partner.
    """
    if max_size < 1:
        raise ParameterError(f"max_size must be >= 1, got {max_size}")
    weight_of = size_weights if size_weights is not None else (lambda k: 1.0)
    factors = [weight_of(k) for k in range(1, max_size + 1)]
    integral_factors = all(float(f).is_integer() for f in factors)
    hs = DisjointUnion.of(hs)
    out = np.zeros(len(hs), dtype=np.float64)
    # the vertex-kernel grid of g against a group of partners stays within
    # the budget too; association blocks subdivide each group
    vertices = hs.vertex_offsets.tolist()
    grid = lambda a, b: g.n * (vertices[b] - vertices[a])
    for first, last in partner_runs(len(hs), grid, ASSOCIATION_CELLS):
        sums, unit = _level_sums(
            g, hs[first:last], vertex_kernel, edge_kernel, factors, connected_only
        )
        for k, factor in enumerate(factors):
            if factor != 0:
                out[first:last] += factor * sums[k]
        if integral_factors:
            mass = np.abs(factors) @ sums
            mass[~unit] = 0.0
            worst = int(np.argmax(mass))
            if mass[worst] >= EXACT_LIMIT:
                raise MultiplicityOverflowError(
                    f"subgraph matching against partner {first + worst} sums "
                    f"{mass[worst]:.4g} common-subgraph mappings, past 2**53, "
                    f"where float64 stops counting exactly"
                )
    return out
