"""Fixed-length walk kernels, computed two ways.

The kernel between graphs G and H sums, over all pairs of equal-length
walks (one from each graph), the product of vertex-kernel values along the
walk positions and edge-kernel values along the steps.

*Implicit scheme* — :func:`walk_kernel_implicit`: build the weighted
direct product graph (one vertex per compatible vertex pair, one edge per
compatible edge pair) and run the counting recursion

    r_0(x) = w(x),     r_i(x) = w(x) * sum over xy of w(xy) * r_{i-1}(y)

whose total after ``length`` rounds is exactly the kernel value.  The
recursion touches each product edge once per round, so a pair evaluation
costs O(product size * length) and never materializes features.

:func:`build_wdpg` is the one construction of the product, whatever the
base kernels: each kernel reports its support (a keep-mask, plus its
values unless every kept value is 1), and the build keeps the masked
pairs.  Binary kernels (Dirac, uniform) report no values, so the Dirac
hot path gathers no weight arrays; its weights are ones.

*Row scheme* — :func:`walk_kernel_row`: the product of ``g`` with a
disjoint union ``h_1 + ... + h_k`` is the disjoint union of the products
``g x h_j``, since no product vertex or edge pairs ``g`` with two partners
at once.  So a Gram row is evaluated a block of partners at a time: one
product build and one recursion over the union, then one bincount over
each product vertex's partner reads off the per-partner totals.  The
values are the pairwise ones: every product vertex keeps its pair's
neighbours, so the per-vertex sums add the same terms in the same
relative order as a one-partner call, and each partner's total sums the
same vertices in the same order.  This removes the fixed per-pair cost
(a build and a recursion setup per pair), which dominates on small
product graphs.  :data:`BLOCK_CELLS` bounds the dense arrays one build
allocates, so memory stays flat however long the row is.

*Explicit scheme* — :func:`walk_features_explicit`: for Dirac base kernels
on discrete annotations, a walk contributes through its label sequence
(vertex and edge labels, alternating) only, so each graph maps to a sparse
count vector over sequences, built by a backward dynamic program that
keeps one map per vertex and extends walks one step per round.  Kernel
values are then plain sparse dot products.

Both schemes stay in exact integer arithmetic for Dirac kernels (the
recursion sums float64 integers, exact below 2**53; the feature counts are
Python ints), which is what makes their equality testable bit for bit.
With weight-1 kernels every recursion value and every partial sum counts
walks.  From the first round on, no such count exceeds the pair's final
total (a walk of length i >= 1 extends back along its last edge), and
round 0 counts product vertices; so checking each final total against
2**53 guards every float64 sum of the recursion, and it is checked rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError, MultiplicityOverflowError, ParameterError
from .features import TAG_WALK, FeatureVector, feature_key
from .gram import EXACT_LIMIT
from .graphs import Graph
from .kernels import EdgeKernelSpec, VertexKernelSpec


@dataclass
class WeightedProductGraph:
    """Direct product of two graphs restricted to positive kernel weights.

    ``pairs[x] = (u, v)`` lists the product vertices in lexicographic
    (u, v) order; ``vertex_weights[x]`` is the vertex-kernel value.  Edges
    are stored once per unordered pair as parallel arrays; an edge exists
    where both factor edges exist and the edge kernel is positive, and its
    weight is that kernel value.
    """

    pairs: np.ndarray            # (N, 2) int64
    vertex_weights: np.ndarray   # (N,) float64
    edge_u: np.ndarray           # (M,) int64, indices into pairs
    edge_v: np.ndarray           # (M,) int64
    edge_weights: np.ndarray     # (M,) float64

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
    orientation) combination, so enumerating both orientations of every
    edge pair emits each edge once.  The kernels' ``support`` says which
    pairs are kept and with what weight; a binary kernel (Dirac, uniform)
    keeps weight 1 everywhere, so its weights are ones and no weight
    array is gathered.
    """
    keep, values = vertex_kernel.support(g, h)
    flat = np.flatnonzero(keep)
    count = flat.size
    pairs = np.empty((count, 2), dtype=np.int64)
    np.divmod(flat, h.n, out=(pairs[:, 0], pairs[:, 1]))
    vertex_weights = np.ones(count) if values is None else values.ravel()[flat]

    empty = np.zeros(0, dtype=np.int64)
    if count == 0 or g.m == 0 or h.m == 0:
        return WeightedProductGraph(
            pairs, vertex_weights, empty, empty, np.zeros(0, dtype=np.float64)
        )

    index = np.full((g.n, h.n), -1, dtype=np.int64)
    index[keep] = np.arange(count, dtype=np.int64)
    compatible, edge_values = edge_kernel.support(
        g.edge_label_array(), h.edge_label_array()
    )
    ga, gb = g.edges[:, 0], g.edges[:, 1]
    ha, hb = h.edges[:, 0], h.edges[:, 1]
    chunks_u: List[np.ndarray] = []
    chunks_v: List[np.ndarray] = []
    chunks_w: List[np.ndarray] = []
    for (l0, l1), (r0, r1) in (((ga, ha), (gb, hb)), ((ga, hb), (gb, ha))):
        # (g.m, h.m) product-vertex ids of the two edge ends; take keeps
        # them C-ordered, which the boolean selections below are fast on
        side_a = index[l0].take(l1, axis=1)
        side_b = index[r0].take(r1, axis=1)
        valid = (side_a >= 0) & (side_b >= 0)
        if compatible is not None:
            valid &= compatible
        chunks_u.append(side_a[valid])
        chunks_v.append(side_b[valid])
        if edge_values is not None:
            chunks_w.append(edge_values[valid])
    edge_u = np.concatenate(chunks_u)
    return WeightedProductGraph(
        pairs,
        vertex_weights,
        edge_u,
        np.concatenate(chunks_v),
        np.ones(edge_u.size) if edge_values is None else np.concatenate(chunks_w),
    )


#: Budget on the dense cells one batched product build allocates,
#: max(g.n * H.n, g.m * H.m) for ``g`` against the union ``H`` of a block
#: of partners.  It keeps a row's peak memory flat however long the row
#: is; a partner that alone exceeds it forms a block of its own.
BLOCK_CELLS = 8192


@dataclass
class _DisjointUnion:
    """Partner graphs side by side, vertex ids offset in partner order.

    Carries what :func:`build_wdpg` and the vertex kernels read from a
    graph, so a block's product is built by the same code as a single
    pair's.  ``owner[v]`` is the index of the partner that union vertex
    ``v`` came from.
    """

    n: int
    edges: np.ndarray
    vertex_labels: np.ndarray
    edge_labels: np.ndarray
    vertex_attributes: Optional[np.ndarray]
    owner: np.ndarray

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def vertex_label_array(self) -> np.ndarray:
        return self.vertex_labels

    def edge_label_array(self) -> np.ndarray:
        return self.edge_labels


def _disjoint_union(hs: Sequence[Graph]) -> _DisjointUnion:
    sizes = np.array([h.n for h in hs], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    edge_counts = np.array([h.m for h in hs], dtype=np.int64)
    edges = np.concatenate([h.edges for h in hs]) + np.repeat(offsets, edge_counts)[:, None]
    attributes = [h.vertex_attributes for h in hs]
    # without every partner's attributes, a kernel that needs them fails on
    # the union, and the Gram finds the failing pair by evaluating it alone
    attributes = None if any(a is None for a in attributes) else np.concatenate(attributes)
    return _DisjointUnion(
        int(sizes.sum()),
        edges,
        np.concatenate([h.vertex_label_array() for h in hs]),
        np.concatenate([h.edge_label_array() for h in hs]),
        attributes,
        np.repeat(np.arange(len(hs), dtype=np.int64), sizes),
    )


def _blocks(g: Graph, hs: Sequence[Graph]) -> Iterator[Tuple[int, int]]:
    """Consecutive ``(start, stop)`` partner ranges within :data:`BLOCK_CELLS`."""
    start = vertices = edges = 0
    for j, h in enumerate(hs):
        vertices += h.n
        edges += h.m
        if j > start and max(g.n * vertices, g.m * edges) > BLOCK_CELLS:
            yield start, j
            start, vertices, edges = j, h.n, h.m
    if hs:
        yield start, len(hs)


def _walk_totals(
    pg: WeightedProductGraph,
    partner: np.ndarray,
    count: int,
    length: int,
    all_rounds: bool,
) -> Tuple[np.ndarray, bool]:
    """Recursion mass per partner after 0..length rounds (or only the last).

    ``partner[x]`` names the partner of product vertex ``x``; one bincount
    per kept round sums the mass by partner.  Returns the ``(count,
    rounds)`` totals and whether every weight was 1, i.e. whether the
    values are walk counts.  Unit vertex or edge weights (the Dirac hot
    path) skip their multiplies; the two bincount passes per round are
    fused over a symmetric edge list built once.
    """
    weights = pg.vertex_weights
    unit_vertices = bool((weights == 1.0).all())
    sym_weights = None
    if not bool((pg.edge_weights == 1.0).all()):
        sym_weights = np.concatenate((pg.edge_weights, pg.edge_weights))
    src = np.concatenate((pg.edge_u, pg.edge_v))
    dst = np.concatenate((pg.edge_v, pg.edge_u))
    n = pg.num_vertices

    def by_partner(r: np.ndarray) -> np.ndarray:
        return np.bincount(partner, weights=r, minlength=count)

    r = weights
    rounds = [by_partner(r)] if all_rounds or length == 0 else []
    for step in range(1, length + 1):
        message = r[dst] if sym_weights is None else sym_weights * r[dst]
        flow = np.bincount(src, weights=message, minlength=n)
        r = flow if unit_vertices else weights * flow
        if all_rounds or step == length:
            rounds.append(by_partner(r))
    return np.stack(rounds, axis=1), unit_vertices and sym_weights is None


def walk_kernel_row(
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
    kernel).  Partners are grouped into blocks within :data:`BLOCK_CELLS`;
    each block costs one product build and one recursion.

    With weight-1 kernels the values are walk counts.  Should a partner's
    total (summed over the returned lengths) reach 2**53, float64 would no
    longer have counted it exactly, and :class:`MultiplicityOverflowError`
    names that partner.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    out = np.empty((len(hs), length + 1 if all_rounds else 1), dtype=np.float64)
    for start, stop in _blocks(g, hs):
        if stop - start == 1:
            union, owner = hs[start], np.zeros(hs[start].n, dtype=np.int64)
        else:
            union = _disjoint_union(hs[start:stop])
            owner = union.owner
        pg = build_wdpg(g, union, vertex_kernel, edge_kernel)
        totals, counting = _walk_totals(
            pg, owner[pg.pairs[:, 1]], stop - start, length, all_rounds
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


def walk_kernel_implicit(
    g: Graph,
    h: Graph,
    vertex_kernel: VertexKernelSpec,
    edge_kernel: EdgeKernelSpec,
    length: int,
) -> float:
    """Walk kernel for one fixed length, via the product-graph recursion.

    ``length = 0`` compares single vertices: the value is the sum of all
    positive vertex-kernel values.  This is the one-partner case of
    :func:`walk_kernel_row`.
    """
    return float(walk_kernel_row(g, [h], vertex_kernel, edge_kernel, length)[0])


def max_walk_kernel_implicit(
    g: Graph,
    h: Graph,
    vertex_kernel: VertexKernelSpec,
    edge_kernel: EdgeKernelSpec,
    length: int,
    coefficients: Optional[Sequence[float]] = None,
) -> float:
    """Sum of per-length walk kernels up to ``length``, one recursion pass.

    ``coefficients[i]`` weights the length-``i`` term (all 1 by default).
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    if coefficients is None:
        coefficients = [1.0] * (length + 1)
    if len(coefficients) != length + 1:
        raise ParameterError(
            f"need {length + 1} coefficients for length {length}, "
            f"got {len(coefficients)}"
        )
    sums = walk_kernel_row(
        g, [h], vertex_kernel, edge_kernel, length, all_rounds=True
    )[0].tolist()
    return float(sum(c * s for c, s in zip(coefficients, sums)))


def explicit_labels(g: Graph, features: str) -> List[int]:
    """Vertex labels for an explicit Dirac feature map, as Python ints.

    An unlabeled graph reads as label 0 everywhere, but a graph that
    carries continuous attributes instead of labels has nothing discrete
    to count, so ``features`` (the map's name) fails with
    :class:`ContractError`.
    """
    if g.vertex_labels is None and g.vertex_attributes is not None:
        raise ContractError(
            f"explicit {features} features need discrete vertex labels; this "
            f"graph carries only continuous attributes — use the implicit scheme"
        )
    return g.vertex_label_array().tolist()


def walk_features_explicit(g: Graph, length: int) -> FeatureVector:
    """Count vector over walk label sequences of one fixed length.

    A walk (v_0, e_1, v_1, ..., v_len) is keyed by its alternating label
    sequence prefixed with the length, so different lengths never collide.
    Unlabeled edges contribute a shared pseudo-label 0.  The dot product
    of two such vectors equals the implicit walk kernel with Dirac vertex
    and edge kernels.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    labels = explicit_labels(g, "walk")
    per_vertex: List[dict] = [{(labels[v],): 1} for v in range(g.n)]
    if length and g.n:
        ladj = g.labeled_adjacency()
        for _ in range(length):
            nxt: List[dict] = [{} for _ in range(g.n)]
            for u in range(g.n):
                lu = labels[u]
                bucket = nxt[u]
                for v, edge_label in ladj[u]:
                    prefix = (lu, edge_label)
                    for seq, count in per_vertex[v].items():
                        key = prefix + seq
                        bucket[key] = bucket.get(key, 0) + count
            per_vertex = nxt  # previous round's maps are released here
    total: dict = {}
    for bucket in per_vertex:
        for seq, count in bucket.items():
            total[seq] = total.get(seq, 0) + count
    return FeatureVector(
        {feature_key(TAG_WALK, (length, *seq)): c for seq, c in total.items()}
    )
