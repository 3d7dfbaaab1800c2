"""Graph and dataset model: construction, disk formats, synthetic data.

Graphs are simple, undirected and unweighted: ``n`` vertices indexed
``0..n-1`` and a deduplicated edge array with ``u < v`` per row.  Optional
annotations are integer vertex labels, integer labels on undirected edges,
and real-valued vertex attribute rows.  Instances are treated as immutable
after construction; transformations return new objects.

:class:`DisjointUnion` lays graphs side by side as one, the layout every
implicit row kernel and every dataset map reads: a Gram builds one and
slices it per row, and :func:`partner_runs` cuts a row into blocks.

Datasets bundle graphs with integer class labels and lend themselves to the
benchmark collection layout used by the TU graph-learning archives
(``<name>_A.txt`` plus indicator/label/attribute side files), which
:func:`load_tu_dataset` reads and :func:`write_tu_dataset` emits.

Synthetic data comes from two generators driven by the pinned
:class:`~gkern.rng.SplitMix64` stream, so a seed identifies a dataset
permanently:

* :func:`generate_synthetic_labeled` — sparse graphs whose vertex-label
  diversity is controlled by a probability ``p_vertex`` (label 0 with
  probability ``1 - p_vertex``, else 1 or 2 equiprobably; one shared edge
  label).
* :func:`generate_synthetic_alphabet` — denser graphs with vertex and edge
  labels drawn uniformly from an alphabet of configurable size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ContractError,
    DatasetFormatError,
    DatasetLoadError,
    MultiplicityOverflowError,
    ParameterError,
)
from .rng import SplitMix64, poisson_limit

#: Sentinel for "no path" in distance matrices.
INF_DISTANCE = np.iinfo(np.int64).max

class Graph:
    """Simple undirected graph with optional discrete labels and attributes.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : sequence of (u, v) pairs
        Undirected edges; orientation and order are normalized internally.
        Self-loops and duplicate edges are rejected.
    vertex_labels : sequence of int, optional
    edge_labels : sequence of int, optional
        Aligned with ``edges`` as passed in; realigned during normalization.
    vertex_attributes : array-like of shape (n, d), optional
    """

    __slots__ = (
        "n",
        "edges",
        "vertex_labels",
        "edge_labels",
        "vertex_attributes",
        "neighbors",
        "arc_starts",
        "arc_edges",
    )

    def __init__(
        self,
        n: int,
        edges: Sequence[Tuple[int, int]] = (),
        vertex_labels: Optional[Sequence[int]] = None,
        edge_labels: Optional[Sequence[int]] = None,
        vertex_attributes=None,
    ):
        if n < 0:
            raise ParameterError(f"vertex count must be non-negative, got {n}")
        self.n = int(n)

        pairs = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        labels = None if edge_labels is None else np.asarray(edge_labels, dtype=np.int64)
        if labels is not None and len(labels) != len(pairs):
            raise ContractError(
                f"got {len(labels)} edge labels for {len(pairs)} edges"
            )
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        # (min, max) order for edges in range; stable, so a repeated edge
        # sorts right after its first occurrence
        key = lo * self.n + hi
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        repeat = np.zeros(len(pairs), dtype=bool)
        repeat[order[1:]] = ranked[1:] == ranked[:-1]
        bad = (lo == hi) | (lo < 0) | (hi >= self.n) | repeat
        if bad.any():
            u, v = pairs[np.argmax(bad)].tolist()
            if u == v:
                raise ContractError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ContractError(f"edge ({u}, {v}) out of range for n={self.n}")
            raise ContractError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
        lo, hi = lo[order], hi[order]
        self.edges = np.column_stack((lo, hi))
        self.edge_labels = None if labels is None else labels[order]

        vl = None if vertex_labels is None else np.asarray(vertex_labels, dtype=np.int64)
        if vl is not None and vl.shape != (self.n,):
            raise ContractError(f"vertex labels have shape {vl.shape}, expected ({self.n},)")
        attrs = (
            None if vertex_attributes is None else np.asarray(vertex_attributes, dtype=np.float64)
        )
        if attrs is not None and (attrs.ndim != 2 or attrs.shape[0] != self.n):
            raise ContractError(
                f"vertex attributes have shape {attrs.shape}, expected ({self.n}, d)"
            )
        if attrs is not None and not np.isfinite(attrs).all():
            # a nan row equals no row, not even itself, and binning a
            # non-finite value has no cell
            v = int(np.argwhere(~np.isfinite(attrs))[0, 0])
            raise ContractError(f"vertex {v} has a non-finite attribute: {attrs[v].tolist()}")
        self.vertex_labels, self.vertex_attributes = vl, attrs

        self.neighbors, self.arc_starts, self.arc_edges = _csr(self.n, self.edges)

    # -- basic accessors -----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.shape[0])

    def vertex_label_array(self) -> np.ndarray:
        """Vertex labels as an int64 array of length ``n``.

        An unlabeled graph reads as uniformly labeled: every vertex gets
        label 0.  Every kernel and feature map that compares discrete
        vertex labels reads them through here.
        """
        if self.vertex_labels is None:
            return np.zeros(self.n, dtype=np.int64)
        return self.vertex_labels

    def edge_label_array(self) -> np.ndarray:
        """Edge labels as an int64 array aligned with ``edges``; an
        unlabeled graph reads as label 0 on every edge."""
        if self.edge_labels is None:
            return np.zeros(self.m, dtype=np.int64)
        return self.edge_labels

    def neighbor_lists(self) -> List[List[int]]:
        """Each vertex's neighbors, ascending, read off the CSR as lists of
        Python ints, which loops index lists with; built on every call."""
        nbrs, ends = self.neighbors.tolist(), self.arc_starts.tolist()
        return [nbrs[a:b] for a, b in zip(ends, ends[1:])]

    def __repr__(self) -> str:
        parts = [f"n={self.n}", f"m={self.m}"]
        if self.vertex_labels is not None:
            parts.append("vertex-labeled")
        if self.edge_labels is not None:
            parts.append("edge-labeled")
        if self.vertex_attributes is not None:
            parts.append(f"attributes[{self.vertex_attributes.shape[1]}]")
        return f"Graph({', '.join(parts)})"


def _csr(n: int, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(neighbors, arc_starts, arc_edges)`` of ``n`` vertices and sorted
    ``(u < v)`` edges: both orientations of each edge, ascending by (tail,
    head); vertex u's arcs run from ``arc_starts[u]`` to ``arc_starts[u +
    1]``, and arc i reaches ``neighbors[i]`` along edge ``arc_edges[i]``."""
    lo, hi = edges[:, 0], edges[:, 1]
    arcs = np.argsort(np.concatenate((lo * n + hi, hi * n + lo)))
    neighbors = np.concatenate((hi, lo))[arcs]
    degree = np.bincount(np.concatenate((lo, hi)), minlength=n)
    return neighbors, np.concatenate(([0], np.cumsum(degree))), arcs % max(len(edges), 1)


def graphs_from_union(
    sizes: np.ndarray,
    edges: np.ndarray,
    edge_labels: Optional[np.ndarray],
    vertex_labels: Sequence[Optional[np.ndarray]],
    vertex_attributes: Sequence[Optional[np.ndarray]],
) -> List[Graph]:
    """Graphs laid side by side, built from their union's arrays without
    the checks and sorts of :class:`Graph`'s constructor.

    Graph ``i`` has ``sizes[i]`` vertices, numbered in the union from the
    sum of the sizes before it.  ``edges`` are the union's ``(lo < hi)``
    rows in union ids, ascending, so each graph's edges are consecutive
    and in :class:`Graph` order; ``edge_labels`` align with them or are
    ``None`` for every graph.  ``vertex_labels`` and ``vertex_attributes``
    hold one entry per graph, an array or ``None``.  One :func:`_csr` call
    covers the union; each graph's edges, neighbours and arc edges, in its
    own ids, are slices of arrays shared by all the graphs.
    """
    first = np.concatenate(([0], np.cumsum(sizes)))
    neighbors, arc_starts, arc_edges = _csr(int(first[-1]), edges)
    first_edge = np.searchsorted(edges[:, 0], first)
    first_arc = arc_starts[first]
    arcs = np.diff(first_arc)
    local = edges - np.repeat(first[:-1], np.diff(first_edge))[:, None]
    neighbors = neighbors - np.repeat(first[:-1], arcs)
    arc_edges = arc_edges - np.repeat(first_edge[:-1], arcs)
    graphs = []
    bounds = zip(
        first.tolist(), first[1:].tolist(), first_edge.tolist(), first_edge[1:].tolist(),
        first_arc.tolist(), first_arc[1:].tolist(), vertex_labels, vertex_attributes,
    )
    for v0, v1, e0, e1, a0, a1, labels, rows in bounds:
        g = Graph.__new__(Graph)
        g.n, g.edges, g.vertex_labels, g.vertex_attributes = v1 - v0, local[e0:e1], labels, rows
        g.edge_labels = None if edge_labels is None else edge_labels[e0:e1]
        g.neighbors, g.arc_edges = neighbors[a0:a1], arc_edges[a0:a1]
        g.arc_starts = arc_starts[v0 : v1 + 1] - a0
        graphs.append(g)
    return graphs


class DisjointUnion(Sequence[Graph]):
    """Partner graphs side by side as one graph: a Gram row's layout.

    As a sequence it holds the original graphs; as a graph, what product
    builds, vertex kernels and the subgraph counter read (its CSR built on
    first use), partner ``j`` holding the vertices and edges from
    ``vertex_offsets[j]`` and ``edge_offsets[j]`` on, and ``owner[v]`` the
    partner of vertex ``v``.  A slice ``u[a:b]``, the
    union of partners ``a..b-1``, is views of ``u``'s arrays with ids and
    offsets rebased.  Vertex attributes are there when there are partners
    and each has them; a kernel needing them fails on a union without, and
    a Gram finds the failing pair by evaluating it alone.  Partners whose
    attribute widths differ make reading them a :class:`ContractError`
    that names the first partner whose width differs from the first's.
    """

    #: a product join a row kernel attaches to a slice (see gkern.walks)
    join = None

    def __init__(self, graphs: Sequence[Graph]):
        self.graphs = tuple(graphs)
        sizes = np.array([h.n for h in self.graphs], dtype=np.int64)
        counts = np.array([h.m for h in self.graphs], dtype=np.int64)
        self.vertex_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.edge_offsets = np.concatenate(([0], np.cumsum(counts)))
        self.n = int(self.vertex_offsets[-1])
        stack = lambda parts, empty: np.concatenate([empty, *parts])
        none = np.zeros((0, 2), dtype=np.int64)
        self.edges = stack((h.edges for h in self.graphs), none)
        self.edges += np.repeat(self.vertex_offsets[:-1], counts)[:, None]
        self.vertex_labels = stack((h.vertex_label_array() for h in self.graphs), none[:, 0])
        self.edge_labels = stack((h.edge_label_array() for h in self.graphs), none[:, 0])
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        rows = [h.vertex_attributes for h in self.graphs]
        # each partner's attribute width, -1 for none; _first numbers the
        # partners in errors as the union a slice was cut from does
        self._widths = np.array([-1 if a is None else a.shape[1] for a in rows], dtype=np.int64)
        self._first = 0
        # every partner's rows zero-padded to the widest, zeros for a
        # partner without attributes; no union shows the padding
        self._rows = np.zeros((self.n, int(self._widths.max(initial=0))))
        for a, v in zip(rows, self.vertex_offsets.tolist()):
            if a is not None:
                self._rows[v : v + len(a), : a.shape[1]] = a

    @classmethod
    def of(cls, hs: Sequence[Graph]) -> "DisjointUnion":
        """``hs`` itself if it is a union, else the union of its graphs."""
        return hs if isinstance(hs, cls) else cls(hs)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self.graphs[index]
        a, b, step = index.indices(len(self))
        if step != 1:
            raise ContractError(f"a union slices in steps of 1, got {step}")
        b = max(a, b)
        (v0, v1), (e0, e1) = self.vertex_offsets[[a, b]], self.edge_offsets[[a, b]]
        union = DisjointUnion.__new__(DisjointUnion)
        union.graphs, union.n = self.graphs[a:b], int(v1 - v0)
        union.vertex_offsets = self.vertex_offsets[a : b + 1] - v0
        union.edge_offsets = self.edge_offsets[a : b + 1] - e0
        union.edges, union.edge_labels = self.edges[e0:e1] - v0, self.edge_labels[e0:e1]
        union.owner, union.vertex_labels = self.owner[v0:v1] - a, self.vertex_labels[v0:v1]
        union._rows, union._widths = self._rows[v0:v1], self._widths[a:b]
        union._first = self._first + a
        return union

    # read as a graph reads its own
    m, vertex_label_array = Graph.m, Graph.vertex_label_array
    edge_label_array = Graph.edge_label_array

    @cached_property
    def _arcs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _csr(self.n, self.edges)

    # the CSR a graph has
    neighbors = property(lambda self: self._arcs[0])
    arc_starts = property(lambda self: self._arcs[1])
    arc_edges = property(lambda self: self._arcs[2])

    @property
    def vertex_attributes(self) -> Optional[np.ndarray]:
        widths = self._widths
        if not len(widths) or (widths < 0).any():
            return None
        other = np.flatnonzero(widths != widths[0])
        if len(other):
            i = int(other[0])
            raise ContractError(
                f"graph {self._first + i} has attributes of width {widths[i]} but graph "
                f"{self._first} has attributes of width {widths[0]}"
            )
        return self._rows[:, : widths[0]]


def partner_runs(
    count: int, cells: Callable[[int, int], int], budget: int
) -> Iterator[Tuple[int, int]]:
    """Consecutive ``(start, stop)`` ranges of ``count`` partners whose
    ``cells(start, stop)`` stay within ``budget``; a partner that alone
    exceeds it forms a range of its own."""
    start = 0
    for j in range(1, count):
        if cells(start, j + 1) > budget:
            yield start, j
            start = j
    if count:
        yield start, count


@dataclass
class DistanceMatrix:
    """All-pairs shortest-path distances (hop counts) for one graph.

    ``dist[u, v]`` is the number of edges on a shortest path, or
    :data:`INF_DISTANCE` when ``v`` is unreachable from ``u``.  When
    requested, ``counts[u, v]`` is the number of distinct shortest paths
    (0 for unreachable pairs, 1 on the diagonal).
    """

    dist: np.ndarray
    counts: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return int(self.dist.shape[0])


#: Most arcs one step of :func:`shortest_path_blocks` follows at once, so
#: its memory stays flat however dense the graphs are; a state whose arcs
#: alone exceed it is followed alone.
BFS_ARCS = 1 << 14


def shortest_path_blocks(
    graphs: Sequence[Graph], with_counts: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Hop distances, and optionally shortest-path counts, of every graph
    of ``graphs``, as one flat array of per-graph ``n x n`` blocks.

    Graph ``i``'s block runs from cell ``starts[i]`` to ``starts[i + 1]``,
    row ``u`` and column ``v`` at ``starts[i] + u * n + v`` in its own ids;
    returns ``(dist, counts, starts)``, ``counts`` ``None`` unless asked
    for.  Distances are :data:`INF_DISTANCE` between vertices that do not
    reach each other; counts are 0 there and 1 on the diagonal.

    One level-synchronous breadth-first search runs from every vertex of
    every graph at once, over the CSR of the graphs' union (laid out from
    their own CSRs, so no union is sorted): a state is a (source, vertex)
    pair, and each level follows the arcs of the last level's states, at
    most :data:`BFS_ARCS` at a time, to the cells not reached before.
    Counts are summed exactly in int64 (in 32-bit halves, so a sum cannot
    wrap); one that passes 2**63 - 1 raises
    :class:`MultiplicityOverflowError`, naming its source and graph.
    """
    sizes = np.fromiter((g.n for g in graphs), np.int64, len(graphs))
    arcs = np.fromiter((len(g.neighbors) for g in graphs), np.int64, len(graphs))
    offsets, arc_offsets = (np.concatenate(([0], np.cumsum(x))) for x in (sizes, arcs))
    owner = np.repeat(np.arange(len(graphs)), sizes)
    neighbors = np.concatenate([offsets[:0], *(g.neighbors for g in graphs)])
    neighbors += np.repeat(offsets[:-1], arcs)
    arc_starts = np.concatenate([offsets[:1], *(g.arc_starts[1:] for g in graphs)])
    arc_starts[1:] += arc_offsets[owner]
    starts = np.concatenate(([0], np.cumsum(sizes * sizes)))
    first = offsets[owner]
    dist = np.full(int(starts[-1]), -1, dtype=np.int64)
    counts = np.zeros(len(dist), dtype=np.int64) if with_counts else None
    # while a level sums, counts holds the sums of the low 32 bits, high
    # the sums of the rest
    high = np.zeros(len(dist), dtype=np.int64) if with_counts else None
    # a state is its cell, the cell of (source s, vertex v) in union ids
    # being row[s] + v, and its vertex
    vertex = np.arange(len(owner))
    cell = starts[:-1][owner] + (vertex - first) * sizes[owner] - first + vertex
    dist[cell] = 0
    if with_counts:
        counts[cell] = 1
    level = 0
    while len(vertex):
        level += 1
        degree = arc_starts[vertex + 1] - arc_starts[vertex]
        # the level's arcs in state order: state p's from before[p] on
        before = np.cumsum(degree) - degree
        cuts = np.searchsorted(before, np.arange(BFS_ARCS, int(before[-1]) + 1, BFS_ARCS))
        row, paths = cell - vertex, counts[cell] if with_counts else None
        reached = []
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(vertex)]):
            state = np.repeat(np.arange(a, b), degree[a:b])
            arc = np.repeat(arc_starts[vertex[a:b]] - before[a:b], degree[a:b])
            arc += np.arange(len(arc)) + (before[a] if a < b else 0)
            head = neighbors[arc]
            into = row[state] + head
            new = np.flatnonzero(dist[into] < 0)
            # one state per cell reached first: of the marks a cell takes,
            # one survives
            marks = -2 - np.arange(len(new))
            dist[into[new]] = marks
            new = new[dist[into[new]] == marks]
            dist[into[new]] = level
            reached.append((into[new], head[new]))
            if with_counts:
                # every arc into a cell of this level, this run's or an earlier's
                arrived = dist[into] == level
                into, state = into[arrived], state[arrived]
                np.add.at(counts, into, paths[state] & 0xFFFFFFFF)
                np.add.at(high, into, paths[state] >> 32)
        cell = np.concatenate([cell[:0], *(c for c, _ in reached)])
        vertex = np.concatenate([vertex[:0], *(v for _, v in reached)])
        if with_counts:
            total = high[cell] + (counts[cell] >> 32)
            if total.max(initial=0) >= 1 << 31:
                c = int(cell[np.argmax(total >= 1 << 31)])
                g = int(np.searchsorted(starts, c, side="right")) - 1
                raise MultiplicityOverflowError(
                    f"shortest-path multiplicity from vertex {(c - starts[g]) // sizes[g]} "
                    f"of graph {g} exceeds 64-bit range"
                )
            counts[cell] = (total << 32) | (counts[cell] & 0xFFFFFFFF)
    dist[dist < 0] = INF_DISTANCE
    return dist, counts, starts


def all_pairs_shortest_paths(g: Graph, with_counts: bool = False) -> DistanceMatrix:
    """Breadth-first all-pairs shortest paths, optionally with multiplicities:
    :func:`shortest_path_blocks` of ``g`` alone.

    Multiplicities are exact and must fit in a signed 64-bit integer; a
    count that does not raises :class:`MultiplicityOverflowError` rather
    than wrapping around.
    """
    dist, counts, _ = shortest_path_blocks([g], with_counts)
    shape = (g.n, g.n)
    return DistanceMatrix(dist.reshape(shape), None if counts is None else counts.reshape(shape))


class Dataset:
    """A named list of graphs with one integer class label per graph."""

    __slots__ = ("name", "graphs", "class_labels")

    def __init__(self, name: str, graphs: Sequence[Graph], class_labels=None):
        self.name = name
        self.graphs = list(graphs)
        if class_labels is None:
            class_labels = np.zeros(len(self.graphs), dtype=np.int64)
        self.class_labels = np.asarray(class_labels, dtype=np.int64)
        if self.class_labels.shape != (len(self.graphs),):
            raise ContractError(
                f"{self.class_labels.shape[0]} class labels for "
                f"{len(self.graphs)} graphs"
            )

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __getitem__(self, i: int) -> Graph:
        return self.graphs[i]

    @property
    def has_vertex_labels(self) -> bool:
        """True when every non-empty graph carries vertex labels."""
        populated = [g for g in self.graphs if g.n]
        return bool(populated) and all(
            g.vertex_labels is not None for g in populated
        )

    @property
    def has_edge_labels(self) -> bool:
        """True when every graph that has edges carries edge labels."""
        populated = [g for g in self.graphs if g.m]
        return bool(populated) and all(
            g.edge_labels is not None for g in populated
        )

    @property
    def attribute_dim(self) -> Optional[int]:
        dims = {
            g.vertex_attributes.shape[1]
            for g in self.graphs
            if g.vertex_attributes is not None
        }
        if not dims:
            return None
        if len(dims) > 1 or any(g.vertex_attributes is None for g in self.graphs):
            raise ContractError(
                f"inconsistent vertex attributes across graphs in {self.name!r}"
            )
        return dims.pop()

    def subset(self, count: int, name: Optional[str] = None) -> "Dataset":
        """Prefix subset of the first ``count`` graphs."""
        if not 0 <= count <= len(self.graphs):
            raise ParameterError(
                f"subset size {count} out of range for {len(self.graphs)} graphs"
            )
        return Dataset(
            name if name is not None else f"{self.name}[:{count}]",
            self.graphs[:count],
            self.class_labels[:count],
        )

    def stats(self) -> Dict[str, object]:
        """Summary row: counts, average sizes, annotation availability."""
        count = len(self.graphs)
        total_v = sum(g.n for g in self.graphs)
        total_e = sum(g.m for g in self.graphs)
        return {
            "name": self.name,
            "graphs": count,
            "classes": len(set(self.class_labels.tolist())) if count else 0,
            "avg_vertices": total_v / count if count else 0.0,
            "avg_edges": total_e / count if count else 0.0,
            "vertex_labels": self.has_vertex_labels,
            "edge_labels": self.has_edge_labels,
            "attribute_dim": self.attribute_dim if count else None,
        }


def scale_attributes(ds: Dataset) -> Dataset:
    """Rescale every attribute dimension to [0, 1] over the whole dataset.

    Constant dimensions map to 0.  Returns a new dataset; graph structure
    arrays are shared with the input.
    """
    dim = ds.attribute_dim
    if dim is None:
        raise ContractError(f"dataset {ds.name!r} has no vertex attributes")
    stacked = np.vstack([g.vertex_attributes for g in ds.graphs if g.n])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    # finite extremes can span past float64 (-1e308 to 1e308): such a
    # dimension is halved first; a factor 1.0 leaves the others bit for bit
    factor = np.where(np.isinf(span), 0.5, 1.0)
    lo, span = lo * factor, hi * factor - lo * factor
    safe = np.where(span > 0, span, 1.0)
    graphs = []
    for g in ds.graphs:
        attrs = (g.vertex_attributes * factor - lo) / safe
        attrs[:, span == 0] = 0.0
        clone = Graph.__new__(Graph)
        for slot in Graph.__slots__:
            setattr(clone, slot, getattr(g, slot))
        clone.vertex_attributes = attrs
        graphs.append(clone)
    return Dataset(ds.name, graphs, ds.class_labels)


# ---------------------------------------------------------------------------
# Benchmark-collection disk format
# ---------------------------------------------------------------------------


def _dataset_dir(path: str, name: str) -> str:
    nested = os.path.join(path, name)
    if os.path.isfile(os.path.join(nested, f"{name}_A.txt")):
        return nested
    return path


def _read_lines(filename: str) -> List[str]:
    with open(filename, "r", encoding="ascii") as fh:
        return [line for line in map(str.strip, fh.read().split("\n")) if line]


def _line_number(filename: str, i: int) -> int:
    """The physical line number (from 1) of the ``i``-th non-blank line of
    ``filename``, counted from 0; the file is read again only to name an
    error, so a clean load pays nothing for it."""
    with open(filename, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    return [ln for ln, line in enumerate(lines, start=1) if line.strip()][i]


def _at(filename: str, i: int) -> str:
    """``file:line`` of the ``i``-th non-blank line, counting physical lines."""
    return f"{filename}:{_line_number(filename, i)}"


# byte classes of an integer side file: anything else, a blank within a
# line (in the edge file a comma too), a line end, a digit and a minus
_OTHER, _BLANK, _LINE_END, _DIGIT, _MINUS = range(5)
_BYTES = np.full(256, _OTHER, dtype=np.int8)
_BYTES[list(b" \t")], _BYTES[list(b"\n\r")] = _BLANK, _LINE_END
_BYTES[list(b"0123456789")], _BYTES[ord("-")] = _DIGIT, _MINUS
_EDGE_BYTES = _BYTES.copy()
_EDGE_BYTES[ord(",")] = _BLANK


def _clean_integers(filename: str, width: int) -> Optional[np.ndarray]:
    """The ``(lines, width)`` int64 values of a side file whose non-blank
    lines each hold ``width`` integers, read in one call; ``None`` for any
    other file.

    Only files made of integers of at most 18 digits, each with an
    optional leading minus, blanks (spaces and tabs; in the edge file,
    ``width`` 2, commas too) and line ends are read here.  Such a file
    reads as the line-by-line readers read it: a lone ``\\r`` ends a line
    there too, as text mode reads it, and 18 digits stay inside int64,
    where ``np.fromstring`` would clamp a longer number without a word.
    Every other file, defects and all, is left to those readers.
    """
    with open(filename, "rb") as fh:
        data = fh.read()
    kind = (_EDGE_BYTES if width == 2 else _BYTES)[np.frombuffer(data, np.uint8)]
    if (kind == _OTHER).any():
        return None
    solid = np.concatenate(([False], kind >= _DIGIT, [False]))
    bounds = np.flatnonzero(solid[1:] != solid[:-1])
    starts, stops = bounds[0::2], bounds[1::2]
    signed = kind[starts] == _MINUS
    digits = stops - starts - signed
    # the line of each integer: the count of line ends before it
    line = np.searchsorted(np.flatnonzero(kind == _LINE_END), starts)
    line = line.reshape(-1, width) if len(line) % width == 0 else None
    if (
        line is None
        or signed.sum() != (kind == _MINUS).sum()
        or not ((digits >= 1) & (digits <= 18)).all()
        or not (line == line[:, :1]).all()
        or not (np.diff(line[:, 0]) > 0).all()
    ):
        return None
    if not len(starts):
        return np.zeros((0, width), dtype=np.int64)
    text = data.replace(b",", b" ") if width == 2 else data
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, width)


def _column(
    filename: str, dtype=np.int64, count: Optional[int] = None, unit: str = ""
) -> Optional[np.ndarray]:
    """One side file as int64 values, or float64 comma-separated rows;
    ``None`` when the file does not exist.

    Each non-blank line is one value (one row).  With ``count``, the file
    must hold that many lines; ``unit`` names them in the error (``"labels
    for 5 vertices"``).  An integer file that :func:`_clean_integers`
    reads, with the right count, is done; any other file's tokens convert
    in one call, and only when that fails does a pass line by line name
    the first bad ``file:line``.
    """
    if not os.path.isfile(filename):
        return None
    if dtype == np.int64:
        values = _clean_integers(filename, 1)
        if values is not None and count in (None, len(values)):
            return values[:, 0]
    lines = _read_lines(filename)
    if count is not None and len(lines) != count:
        raise DatasetFormatError(f"{filename}: {len(lines)} {unit}")
    rows = [line.split(",") for line in lines] if dtype == np.float64 else lines
    try:
        values = np.array(rows, dtype=dtype)
    except (ValueError, OverflowError):
        width = None
        for i, (text, row) in enumerate(zip(lines, rows)):
            try:
                values = np.array([row], dtype=dtype)
            except (ValueError, OverflowError):
                what = "bad attribute row" if dtype == np.float64 else "not an integer:"
                raise DatasetFormatError(f"{_at(filename, i)}: {what} {text!r}") from None
            width = width or values.size
            if values.size != width:
                raise DatasetFormatError(
                    f"{_at(filename, i)}: expected {width} values, got {values.size}"
                ) from None
        raise
    if dtype == np.float64 and not np.isfinite(values).all():
        i = int(np.argwhere(~np.isfinite(values))[0, 0])
        raise DatasetFormatError(f"{_at(filename, i)}: non-finite attribute in {lines[i]!r}")
    return values


def _edge_pairs(filename: str) -> np.ndarray:
    """The edge file's ``(lines, 2)`` int64 ids, one row per non-blank
    line: read by :func:`_clean_integers`, or else converted in one call,
    and only on failure does a pass line by line name the first line that
    is not two integers."""
    pairs = _clean_integers(filename, 2)
    if pairs is not None:
        return pairs
    lines = _read_lines(filename)
    rows = [line.replace(",", " ").split() for line in lines]
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), 2)
    except (ValueError, OverflowError):
        for i, (text, row) in enumerate(zip(lines, rows)):
            if len(row) != 2:
                raise DatasetFormatError(
                    f"{_at(filename, i)}: expected 'u, v', got {text!r}"
                ) from None
            try:
                np.array(row, dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                # an id past int64 is out of range, as range checks would report it
                overflow = isinstance(exc, OverflowError)
                bad = "vertex id out of range" if overflow else "non-integer vertex id"
                raise DatasetFormatError(f"{_at(filename, i)}: {bad} in {text!r}") from None
        raise


def _first_defect(*checks: Tuple[np.ndarray, Callable[[int], str]]) -> None:
    """Raise the message of the first check failing on the first line
    where any of the per-line ``(mask, message)`` checks fails."""
    failing = np.array([mask for mask, _ in checks], dtype=bool)
    lines = np.flatnonzero(failing.any(axis=0))
    if len(lines):
        i = int(lines[0])
        raise DatasetFormatError(checks[int(np.argmax(failing[:, i]))][1](i))


def load_tu_dataset(path: str, name: str) -> Dataset:
    """Load a dataset in the TU benchmark-collection layout.

    Mandatory files under ``path`` (or ``path/name``): ``<name>_A.txt``
    with one ``u, v`` edge per line (vertex ids are 1-based and global
    across graphs; every undirected edge must appear in both orientations),
    ``<name>_graph_indicator.txt`` mapping each vertex to its graph, and
    ``<name>_graph_labels.txt`` with one class label per graph.  Optional
    side files add vertex labels, edge labels (aligned with ``_A.txt``)
    and comma-separated real vertex attributes.

    A missing mandatory file raises :class:`DatasetLoadError`.  These
    defects raise :class:`DatasetFormatError`:

    * a graph id, class label, vertex label or edge label that is not an
      integer; an attribute row that is not comma-separated reals, whose
      width differs from the first row's, or that holds a non-finite
      value (``nan``, ``inf``);
    * a graph id below 1;
    * a side file with the wrong line count: class labels against graphs,
      edge labels against edge lines, vertex labels and attribute rows
      against vertices;
    * an edge line that is not two integer ids;
    * an edge line with an id out of range, a self-loop, an edge between
      two graphs, a repeated edge line, an edge without its mirror line,
      or a mirror pair with two different edge labels.

    The error names the first offending line in file order, counting
    physical lines, blank ones included (a side file's line count ignores
    blank lines).  The edge file is checked for syntax first, then for
    ids, then for mirrors.

    Each integer file is read in one call when a byte scan finds it clean
    (:func:`_clean_integers`); any other file, a defective one included,
    goes through the line-by-line readers, which name its defect.  One
    stable sort by graph id lays the graphs side by side, in the order of
    their ids: a graph's vertices are its global ids in ascending order,
    and its edges come from the ``u < v`` lines, sorted by (graph, lo, hi).
    Every graph's arrays but its arc starts are slices of the dataset's
    (:func:`graphs_from_union`).
    """
    base = _dataset_dir(path, name)
    keys = ("A", "graph_indicator", "graph_labels", "node_labels", "edge_labels",
            "node_attributes")
    files = {key: os.path.join(base, f"{name}_{key}.txt") for key in keys}
    for key in keys[:3]:
        if not os.path.isfile(files[key]):
            raise DatasetLoadError(f"missing mandatory file {files[key]}")

    graph_ids = _column(files["graph_indicator"])
    if len(graph_ids) and graph_ids.min() < 1:
        raise DatasetFormatError(f"{files['graph_indicator']}: graph ids must be >= 1")
    num_graphs, size = int(graph_ids.max()) if len(graph_ids) else 0, len(graph_ids)
    graph_of = graph_ids - 1
    class_labels = _column(
        files["graph_labels"], np.int64, num_graphs, f"class labels for {num_graphs} graphs"
    )
    a_file, l_file = files["A"], files["edge_labels"]
    pairs = _edge_pairs(a_file)
    edge_labels = _column(l_file, np.int64, len(pairs), f"labels for {len(pairs)} edge lines")

    u, v = pairs[:, 0], pairs[:, 1]
    inside = (pairs >= 1).all(axis=1) & (pairs <= size).all(axis=1)
    key = np.where(inside, u * (size + 1) + v, -1)
    uniq, firsts = np.unique(key, return_index=True)
    repeat = np.ones(len(key), dtype=bool)
    repeat[firsts] = False
    # graph of each end; ids out of range index the -1 appended at the end
    ends = np.append(graph_of, -1)[np.where(inside[:, None], pairs, 0) - 1]
    _first_defect(
        (
            ~inside,
            lambda i: f"{_at(a_file, i)}: vertex id out of range in {_read_lines(a_file)[i]!r}",
        ),
        (u == v, lambda i: f"{_at(a_file, i)}: self-loop at vertex {u[i]}"),
        (
            ends[:, 0] != ends[:, 1],
            lambda i: f"{_at(a_file, i)}: edge ({u[i]}, {v[i]}) crosses graph boundaries",
        ),
        (repeat, lambda i: f"{_at(a_file, i)}: duplicate edge ({u[i]}, {v[i]})"),
    )
    back = v * (size + 1) + u
    mirror = firsts[np.minimum(np.searchsorted(uniq, back), len(uniq) - 1)]
    labels = np.zeros(len(key), dtype=np.int64) if edge_labels is None else edge_labels
    _first_defect(
        (
            key[mirror] != back,
            lambda i: f"{_at(a_file, i)}: edge ({u[i]}, {v[i]}) lacks its mirror ({v[i]}, {u[i]})",
        ),
        (
            labels != labels[mirror],
            lambda i: f"{l_file}: edge ({u[i]}, {v[i]}) labeled {labels[i]} at line "
            f"{_line_number(l_file, i)} but {labels[mirror[i]]} at line "
            f"{_line_number(l_file, mirror[i])}",
        ),
    )
    node_labels = _column(files["node_labels"], np.int64, size, f"labels for {size} vertices")
    attributes = _column(files["node_attributes"], np.float64, size, f"rows for {size} vertices")

    # one sort lays the graphs side by side: a graph's global ids ascend,
    # so their ranks in the union are its local ids in order
    sizes = np.bincount(graph_of, minlength=num_graphs)
    order = np.argsort(graph_of, kind="stable")
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    once = u < v  # one line per undirected edge
    edges = rank[pairs[once] - 1]
    by = np.argsort(edges[:, 0] * size + edges[:, 1])
    first = np.concatenate(([0], np.cumsum(sizes))).tolist()

    def parts(values: Optional[np.ndarray]) -> list:
        """``values`` of each graph, in the union's vertex order."""
        if values is None:
            return [None] * num_graphs
        values = values[order]
        return [values[a:b] for a, b in zip(first, first[1:])]

    graphs = graphs_from_union(
        sizes, edges[by], None if edge_labels is None else edge_labels[once][by],
        parts(node_labels), parts(attributes),
    )
    return Dataset(name, graphs, class_labels)


def write_tu_dataset(ds: Dataset, path: str) -> str:
    """Write ``ds`` in the benchmark-collection layout under ``path/name``.

    Every undirected edge is emitted in both orientations.  Label files are
    written when any graph has labels; an unlabeled graph reads as label 0
    there.  One attribute file holds rows of one width for every vertex, so
    graphs with vertices that differ in whether they carry attributes, or
    in their width, raise :class:`ContractError` before any file is
    written.  Returns the dataset directory.
    """
    graphs = ds.graphs
    populated = [(i, g.vertex_attributes) for i, g in enumerate(graphs) if g.n]
    kinds = [
        "no vertex attributes" if a is None else f"attributes of width {a.shape[1]}"
        for _, a in populated
    ]
    for (i, _), kind in zip(populated, kinds):
        if kind != kinds[0]:
            raise ContractError(
                f"graph {i} of {ds.name!r} has {kind} but graph {populated[0][0]} has "
                f"{kinds[0]}; one attribute file holds one width for every vertex"
            )
    base = os.path.join(path, ds.name)
    os.makedirs(base, exist_ok=True)
    union = DisjointUnion(graphs)  # file ids are its vertex ids + 1
    rows = {
        "A": [line for u, v in (union.edges + 1).tolist() for line in (f"{u}, {v}", f"{v}, {u}")],
        "graph_indicator": union.owner + 1,
        "graph_labels": ds.class_labels,
    }
    if any(g.vertex_labels is not None for g in graphs):
        rows["node_labels"] = union.vertex_labels
    if any(g.edge_labels is not None for g in graphs):
        rows["edge_labels"] = np.repeat(union.edge_labels, 2)
    if populated and populated[0][1] is not None:
        rows["node_attributes"] = [
            ",".join(f"{x:.17g}" for x in row) for _, a in populated for row in a.tolist()
        ]
    for suffix, lines in rows.items():
        if isinstance(lines, np.ndarray):
            lines = [str(x) for x in lines.tolist()]
        with open(os.path.join(base, f"{ds.name}_{suffix}.txt"), "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    return base


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def _draw_size(stream: SplitMix64, mean_vertices: float) -> int:
    n = stream.poisson(mean_vertices)
    while n == 0:
        n = stream.poisson(mean_vertices)
    return n


def generate_synthetic_labeled(
    count: int,
    mean_vertices: float = 20.0,
    edge_prob: float = 0.1,
    p_vertex: float = 0.5,
    seed: int = 0,
    name: Optional[str] = None,
) -> Dataset:
    """Sparse random graphs with tunable vertex-label diversity.

    Per graph, in stream order: the vertex count is Poisson(``mean_vertices``)
    resampled until positive; each vertex gets label 0 with probability
    ``1 - p_vertex`` and otherwise (second draw) label 1 or 2 equiprobably;
    each vertex pair ``u < v`` (u ascending, then v) becomes an edge with
    probability ``edge_prob``.  All edges carry the shared label 0.
    """
    if not 0.0 <= p_vertex <= 1.0:
        raise ParameterError(f"p_vertex must be in [0, 1], got {p_vertex}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ParameterError(f"edge_prob must be in [0, 1], got {edge_prob}")
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    poisson_limit(mean_vertices)  # a bad mean fails before any draw
    stream = SplitMix64(seed)
    graphs = []
    for _ in range(count):
        n = _draw_size(stream, mean_vertices)
        labels = [1 + stream.randint(2) if stream.bernoulli(p_vertex) else 0 for _ in range(n)]
        # one Bernoulli draw per pair, u ascending then v, as one array
        u, v = np.triu_indices(n, 1)
        drawn = stream.uniforms(u.size) < edge_prob
        edges = np.column_stack((u[drawn], v[drawn]))
        graphs.append(
            Graph(n, edges, vertex_labels=labels, edge_labels=np.zeros(len(edges), np.int64))
        )
    return Dataset(
        name
        or f"synth-labeled-c{count}-m{mean_vertices:g}-p{edge_prob:g}"
        f"-pv{p_vertex:g}-s{seed}",
        graphs,
        np.arange(count, dtype=np.int64) % 2,
    )


def generate_synthetic_alphabet(
    count: int,
    mean_vertices: float = 60.0,
    edge_prob: float = 0.5,
    alphabet_size: int = 4,
    seed: int = 0,
    name: Optional[str] = None,
) -> Dataset:
    """Denser random graphs with uniform labels from a shared alphabet.

    Per graph, in stream order: Poisson vertex count (resampled until
    positive); one uniform label draw per vertex; per vertex pair ``u < v``
    an edge draw, immediately followed — when the edge exists — by its
    uniform label draw.
    """
    if alphabet_size < 1:
        raise ParameterError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ParameterError(f"edge_prob must be in [0, 1], got {edge_prob}")
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    poisson_limit(mean_vertices)  # a bad mean fails before any draw
    stream = SplitMix64(seed)
    graphs = []
    for _ in range(count):
        n = _draw_size(stream, mean_vertices)
        labels = [stream.randint(alphabet_size) for _ in range(n)]
        edges = []
        elabels = []
        for u in range(n):
            for v in range(u + 1, n):
                if stream.bernoulli(edge_prob):
                    edges.append((u, v))
                    elabels.append(stream.randint(alphabet_size))
        graphs.append(
            Graph(n, edges, vertex_labels=labels, edge_labels=elabels)
        )
    return Dataset(
        name
        or f"synth-alphabet-c{count}-m{mean_vertices:g}-p{edge_prob:g}"
        f"-a{alphabet_size}-s{seed}",
        graphs,
        np.arange(count, dtype=np.int64) % 2,
    )
