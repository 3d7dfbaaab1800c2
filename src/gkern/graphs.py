"""Graph and dataset model: construction, disk formats, synthetic data.

Graphs are simple, undirected and unweighted: ``n`` vertices indexed
``0..n-1`` and a deduplicated edge array with ``u < v`` per row.  Optional
annotations are integer vertex labels, integer labels on undirected edges,
and real-valued vertex attribute rows.  Instances are treated as immutable
after construction; transformations return new objects.

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
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ContractError,
    DatasetFormatError,
    DatasetLoadError,
    MultiplicityOverflowError,
    ParameterError,
)
from .rng import SplitMix64

#: Sentinel for "no path" in distance matrices.
INF_DISTANCE = np.iinfo(np.int64).max

_INT64_MAX = int(np.iinfo(np.int64).max)


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
        "adj",
        "_edge_label_map",
        "_labeled_adj",
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

        raw = [(int(u), int(v)) for u, v in edges]
        labels = list(edge_labels) if edge_labels is not None else None
        if labels is not None and len(labels) != len(raw):
            raise ContractError(
                f"got {len(labels)} edge labels for {len(raw)} edges"
            )
        seen: Dict[Tuple[int, int], int] = {}
        normalized: List[Tuple[int, int]] = []
        for idx, (u, v) in enumerate(raw):
            if u == v:
                raise ContractError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ContractError(f"edge ({u}, {v}) out of range for n={self.n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ContractError(f"duplicate edge {key}")
            seen[key] = idx
            normalized.append(key)

        order = sorted(range(len(normalized)), key=normalized.__getitem__)
        self.edges = np.array(
            [normalized[i] for i in order], dtype=np.int64
        ).reshape(len(normalized), 2)
        self.edge_labels = (
            np.array([labels[order[i]] for i in range(len(order))], dtype=np.int64)
            if labels is not None
            else None
        )

        if vertex_labels is not None:
            vl = np.asarray(vertex_labels, dtype=np.int64)
            if vl.shape != (self.n,):
                raise ContractError(
                    f"vertex labels have shape {vl.shape}, expected ({self.n},)"
                )
            self.vertex_labels = vl
        else:
            self.vertex_labels = None

        if vertex_attributes is not None:
            attrs = np.asarray(vertex_attributes, dtype=np.float64)
            if attrs.ndim != 2 or attrs.shape[0] != self.n:
                raise ContractError(
                    f"vertex attributes have shape {attrs.shape}, "
                    f"expected ({self.n}, d)"
                )
            self.vertex_attributes = attrs
        else:
            self.vertex_attributes = None

        nbrs: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in normalized:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj = tuple(tuple(sorted(lst)) for lst in nbrs)

        self._edge_label_map = None
        self._labeled_adj = None

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

    @property
    def edge_label_map(self) -> Dict[Tuple[int, int], int]:
        """Mapping from ordered pair ``(min(u,v), max(u,v))`` to edge label
        (see :meth:`edge_label_array`)."""
        if self._edge_label_map is None:
            self._edge_label_map = dict(
                zip(
                    map(tuple, self.edges.tolist()),
                    self.edge_label_array().tolist(),
                )
            )
        return self._edge_label_map

    def labeled_adjacency(self) -> List[List[Tuple[int, int]]]:
        """Per-vertex list of ``(neighbor, edge label)`` pairs, neighbor
        ascending; edge label 0 substitutes when the graph has none."""
        if self._labeled_adj is None:
            label_of = self.edge_label_map
            out: List[List[Tuple[int, int]]] = []
            for u in range(self.n):
                out.append(
                    [
                        (v, label_of[(u, v) if u < v else (v, u)])
                        for v in self.adj[u]
                    ]
                )
            self._labeled_adj = out
        return self._labeled_adj

    def __repr__(self) -> str:
        parts = [f"n={self.n}", f"m={self.m}"]
        if self.vertex_labels is not None:
            parts.append("vertex-labeled")
        if self.edge_labels is not None:
            parts.append("edge-labeled")
        if self.vertex_attributes is not None:
            parts.append(f"attributes[{self.vertex_attributes.shape[1]}]")
        return f"Graph({', '.join(parts)})"


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


def all_pairs_shortest_paths(g: Graph, with_counts: bool = False) -> DistanceMatrix:
    """Breadth-first all-pairs shortest paths, optionally with multiplicities.

    Multiplicities are accumulated exactly (arbitrary-precision) and must
    fit in a signed 64-bit integer; a count that does not raises
    :class:`MultiplicityOverflowError` rather than wrapping around.
    """
    n = g.n
    dist = np.full((n, n), INF_DISTANCE, dtype=np.int64)
    counts = np.zeros((n, n), dtype=np.int64) if with_counts else None
    adj = [list(a) for a in g.adj]
    for s in range(n):
        d = [-1] * n
        c = [0] * n
        d[s] = 0
        c[s] = 1
        queue = deque((s,))
        while queue:
            u = queue.popleft()
            du1 = d[u] + 1
            cu = c[u]
            for v in adj[u]:
                if d[v] < 0:
                    d[v] = du1
                    c[v] = cu
                    queue.append(v)
                elif d[v] == du1:
                    c[v] += cu
        row = dist[s]
        for v in range(n):
            if d[v] >= 0:
                row[v] = d[v]
        if with_counts:
            if max(c) > _INT64_MAX:
                raise MultiplicityOverflowError(
                    f"shortest-path multiplicity from vertex {s} exceeds "
                    f"64-bit range"
                )
            counts[s] = c
    return DistanceMatrix(dist, counts)


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
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    graphs = []
    for g in ds.graphs:
        attrs = (g.vertex_attributes - lo) / safe
        attrs[:, span == 0] = 0.0
        clone = Graph.__new__(Graph)
        for slot in Graph.__slots__:
            setattr(clone, slot, getattr(g, slot))
        clone.vertex_attributes = attrs
        clone._edge_label_map = g._edge_label_map
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
        return [line.strip() for line in fh if line.strip()]


def load_tu_dataset(path: str, name: str) -> Dataset:
    """Load a dataset in the TU benchmark-collection layout.

    Mandatory files under ``path`` (or ``path/name``): ``<name>_A.txt``
    with one ``u, v`` edge per line (vertex ids are 1-based and global
    across graphs; every undirected edge must appear in both orientations),
    ``<name>_graph_indicator.txt`` mapping each vertex to its graph, and
    ``<name>_graph_labels.txt`` with one class label per graph.  Optional
    side files add vertex labels, edge labels (aligned with ``_A.txt``)
    and comma-separated real vertex attributes.
    """
    base = _dataset_dir(path, name)
    files = {
        key: os.path.join(base, f"{name}_{key}.txt")
        for key in (
            "A",
            "graph_indicator",
            "graph_labels",
            "node_labels",
            "edge_labels",
            "node_attributes",
        )
    }
    for key in ("A", "graph_indicator", "graph_labels"):
        if not os.path.isfile(files[key]):
            raise DatasetLoadError(f"missing mandatory file {files[key]}")

    indicator = []
    for ln, text in enumerate(_read_lines(files["graph_indicator"]), start=1):
        try:
            indicator.append(int(text))
        except ValueError:
            raise DatasetFormatError(
                f"{files['graph_indicator']}:{ln}: not an integer: {text!r}"
            ) from None
    total_vertices = len(indicator)
    num_graphs = max(indicator) if indicator else 0
    if indicator and min(indicator) < 1:
        raise DatasetFormatError(
            f"{files['graph_indicator']}: graph ids must be >= 1"
        )

    class_lines = _read_lines(files["graph_labels"])
    if len(class_lines) != num_graphs:
        raise DatasetFormatError(
            f"{files['graph_labels']}: {len(class_lines)} class labels for "
            f"{num_graphs} graphs"
        )
    class_labels = []
    for ln, text in enumerate(class_lines, start=1):
        try:
            class_labels.append(int(text))
        except ValueError:
            raise DatasetFormatError(
                f"{files['graph_labels']}:{ln}: not an integer: {text!r}"
            ) from None

    # Per-graph local vertex numbering, in global id order.
    graph_of = np.array(indicator, dtype=np.int64) - 1
    sizes = [0] * num_graphs
    local_id = [0] * total_vertices
    for v, gi in enumerate(graph_of):
        local_id[v] = sizes[gi]
        sizes[gi] += 1

    edge_label_lines: Optional[List[str]] = None
    if os.path.isfile(files["edge_labels"]):
        edge_label_lines = _read_lines(files["edge_labels"])

    directed: Dict[Tuple[int, int], Tuple[int, Optional[int]]] = {}
    a_lines = _read_lines(files["A"])
    if edge_label_lines is not None and len(edge_label_lines) != len(a_lines):
        raise DatasetFormatError(
            f"{files['edge_labels']}: {len(edge_label_lines)} labels for "
            f"{len(a_lines)} edge lines"
        )
    for ln, text in enumerate(a_lines, start=1):
        parts = text.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetFormatError(f"{files['A']}:{ln}: expected 'u, v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetFormatError(
                f"{files['A']}:{ln}: non-integer vertex id in {text!r}"
            ) from None
        if not (1 <= u <= total_vertices and 1 <= v <= total_vertices):
            raise DatasetFormatError(
                f"{files['A']}:{ln}: vertex id out of range in {text!r}"
            )
        if u == v:
            raise DatasetFormatError(f"{files['A']}:{ln}: self-loop at vertex {u}")
        if graph_of[u - 1] != graph_of[v - 1]:
            raise DatasetFormatError(
                f"{files['A']}:{ln}: edge ({u}, {v}) crosses graph boundaries"
            )
        if (u, v) in directed:
            raise DatasetFormatError(f"{files['A']}:{ln}: duplicate edge ({u}, {v})")
        label = None
        if edge_label_lines is not None:
            try:
                label = int(edge_label_lines[ln - 1])
            except ValueError:
                raise DatasetFormatError(
                    f"{files['edge_labels']}:{ln}: not an integer: "
                    f"{edge_label_lines[ln - 1]!r}"
                ) from None
        directed[(u, v)] = (ln, label)

    undirected: Dict[Tuple[int, int], Optional[int]] = {}
    for (u, v), (ln, label) in directed.items():
        if (v, u) not in directed:
            raise DatasetFormatError(
                f"{files['A']}:{ln}: edge ({u}, {v}) lacks its mirror ({v}, {u})"
            )
        back_ln, back_label = directed[(v, u)]
        if label != back_label:
            raise DatasetFormatError(
                f"{files['edge_labels']}: edge ({u}, {v}) labeled {label} at line "
                f"{ln} but {back_label} at line {back_ln}"
            )
        if u < v:
            undirected[(u, v)] = label

    node_labels: Optional[List[int]] = None
    if os.path.isfile(files["node_labels"]):
        lines = _read_lines(files["node_labels"])
        if len(lines) != total_vertices:
            raise DatasetFormatError(
                f"{files['node_labels']}: {len(lines)} labels for "
                f"{total_vertices} vertices"
            )
        node_labels = []
        for ln, text in enumerate(lines, start=1):
            try:
                node_labels.append(int(text))
            except ValueError:
                raise DatasetFormatError(
                    f"{files['node_labels']}:{ln}: not an integer: {text!r}"
                ) from None

    attributes: Optional[List[List[float]]] = None
    if os.path.isfile(files["node_attributes"]):
        lines = _read_lines(files["node_attributes"])
        if len(lines) != total_vertices:
            raise DatasetFormatError(
                f"{files['node_attributes']}: {len(lines)} rows for "
                f"{total_vertices} vertices"
            )
        attributes = []
        width = None
        for ln, text in enumerate(lines, start=1):
            try:
                row = [float(tok) for tok in text.split(",")]
            except ValueError:
                raise DatasetFormatError(
                    f"{files['node_attributes']}:{ln}: bad attribute row {text!r}"
                ) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetFormatError(
                    f"{files['node_attributes']}:{ln}: expected {width} values, "
                    f"got {len(row)}"
                )
            attributes.append(row)

    per_graph_edges: List[List[Tuple[int, int]]] = [[] for _ in range(num_graphs)]
    per_graph_elabels: List[List[int]] = [[] for _ in range(num_graphs)]
    for (u, v), label in undirected.items():
        gi = graph_of[u - 1]
        per_graph_edges[gi].append((local_id[u - 1], local_id[v - 1]))
        if label is not None:
            per_graph_elabels[gi].append(label)

    per_graph_vertices: List[List[int]] = [[] for _ in range(num_graphs)]
    for v in range(total_vertices):
        per_graph_vertices[graph_of[v]].append(v)

    graphs = []
    for gi in range(num_graphs):
        vids = per_graph_vertices[gi]
        graphs.append(
            Graph(
                n=len(vids),
                edges=per_graph_edges[gi],
                vertex_labels=(
                    [node_labels[v] for v in vids] if node_labels is not None else None
                ),
                edge_labels=(
                    per_graph_elabels[gi] if edge_label_lines is not None else None
                ),
                vertex_attributes=(
                    [attributes[v] for v in vids] if attributes is not None else None
                ),
            )
        )
    return Dataset(name, graphs, class_labels)


def write_tu_dataset(ds: Dataset, path: str) -> str:
    """Write ``ds`` in the benchmark-collection layout under ``path/name``.

    Every undirected edge is emitted in both orientations.  Returns the
    dataset directory.
    """
    base = os.path.join(path, ds.name)
    os.makedirs(base, exist_ok=True)
    offset = 0
    a_rows: List[str] = []
    elabel_rows: List[str] = []
    indicator_rows: List[str] = []
    nlabel_rows: List[str] = []
    attr_rows: List[str] = []
    for gi, g in enumerate(ds.graphs, start=1):
        for v in range(g.n):
            indicator_rows.append(str(gi))
            if g.vertex_labels is not None:
                nlabel_rows.append(str(int(g.vertex_labels[v])))
            if g.vertex_attributes is not None:
                attr_rows.append(
                    ",".join(f"{x:.17g}" for x in g.vertex_attributes[v])
                )
        for (u, v), l in zip(g.edges, g.edge_label_array()):
            a_rows.append(f"{offset + int(u) + 1}, {offset + int(v) + 1}")
            a_rows.append(f"{offset + int(v) + 1}, {offset + int(u) + 1}")
            elabel_rows.append(str(int(l)))
            elabel_rows.append(str(int(l)))
        offset += g.n

    def _dump(suffix: str, rows: List[str]) -> None:
        with open(os.path.join(base, f"{ds.name}_{suffix}.txt"), "w") as fh:
            fh.write("\n".join(rows) + ("\n" if rows else ""))

    _dump("A", a_rows)
    _dump("graph_indicator", indicator_rows)
    _dump("graph_labels", [str(int(c)) for c in ds.class_labels])
    if ds.has_vertex_labels:
        _dump("node_labels", nlabel_rows)
    if ds.has_edge_labels:
        _dump("edge_labels", elabel_rows)
    if all(g.vertex_attributes is not None for g in ds.graphs) and ds.graphs:
        _dump("node_attributes", attr_rows)
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
    stream = SplitMix64(seed)
    graphs = []
    for _ in range(count):
        n = _draw_size(stream, mean_vertices)
        labels = []
        for _ in range(n):
            if stream.bernoulli(p_vertex):
                labels.append(1 + stream.randint(2))
            else:
                labels.append(0)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if stream.bernoulli(edge_prob)
        ]
        graphs.append(
            Graph(
                n,
                edges,
                vertex_labels=labels,
                edge_labels=[0] * len(edges),
            )
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
