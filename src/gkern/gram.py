"""Gram matrices over datasets: assembly, normalization, diagnostics, export.

Two assembly routes mirror the two computation schemes.
:func:`gram_implicit` calls an implicit kernel function
(:func:`gkern.walks.walk_kernel_implicit`,
:func:`gkern.weighted.wv_kernel_implicit` or
:func:`gkern.subgraphs.subgraph_matching_kernel`, each taking one graph
and a sequence of partners) on slices of one union of the graphs, a row
of the upper triangle per call (or a run of rows, for a kernel that takes
one); its cost is all in those calls.
:func:`gram_explicit` first calls a *dataset map* once on that union,
which returns the dataset's sparse graphs-by-features matrix as a
:class:`FeatureMatrix` (the walk, shortest-path and subgraph-class maps
count their keys in one pass over the union, and :func:`per_graph`
interns the keys of a per-graph dict map), then computes the whole Gram
as one product X·Xᵀ, in dense column blocks; the timing breakdown keeps
the two phases separate because their balance is exactly what
distinguishes the schemes.

Values are deterministic functions of the inputs — evaluation order never
changes a result, only the wall-clock numbers in ``timings``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractError, GKError, GramError, ParameterError
from .errors import MultiplicityOverflowError
from .graphs import Dataset, DisjointUnion, Graph

#: float64 holds every integer below this bound exactly.
EXACT_LIMIT = 2**53

#: Most dense cells (graphs x feature columns) of one column block of
#: :func:`gram_explicit`'s feature matrix.  A block is an ``n x width``
#: float64 array multiplied with its own transpose; the bound keeps its
#: memory flat however many distinct features the dataset has.
BLOCK_CELLS = 1 << 14

#: About what one pair of entries costs :func:`gram_explicit`'s product,
#: in dense block cells (2-vCPU Xeon, numpy 2.4: ~8 ns against ~0.3 ns).
#: A column that ``k`` of ``n`` graphs hold fills ``n * n`` cells of
#: products in a dense block but makes only ``k * k`` pairs, so an
#: integral column is summed by pairs when ``k * k * PAIR_COST < n * n``.
PAIR_COST = 32


@dataclass
class GramMatrix:
    """A kernel matrix with its provenance and timing breakdown."""

    values: np.ndarray
    kernel: str
    graph_ids: List[str]
    class_labels: Optional[np.ndarray] = None
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def timing_block(self) -> str:
        """Key/value text block (JSON) describing how time was spent."""
        import json

        payload: Dict[str, object] = {"kernel": self.kernel, "graphs": self.n}
        payload.update(
            {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in self.timings.items()
            }
        )
        return json.dumps(payload, indent=2)


def _ids(ds: Dataset) -> List[str]:
    return [f"{ds.name}[{i}]" for i in range(len(ds))]


def gram_implicit(
    ds: Dataset,
    kernel: Callable[[Graph, Sequence[Graph]], Sequence[float]],
    kernel_name: str = "implicit",
    rows: int = 1,
) -> GramMatrix:
    """Fill the Gram matrix row by row of its upper triangle.

    ``kernel(g, hs)`` is a row kernel, called once per graph ``i`` with
    ``hs = union[i:]``, ``union`` the :class:`~gkern.graphs.DisjointUnion`
    of ``ds`` built once per call.  It returns one value per partner (as
    :func:`gkern.walks.walk_kernel_implicit`,
    :func:`gkern.subgraphs.subgraph_matching_kernel` and
    :func:`gkern.weighted.wv_kernel_implicit` do); a row of any other shape
    fails with :class:`ContractError`.  A row whose evaluation raises is
    re-evaluated pair by pair, and the error names its failing pair.

    With ``rows`` above 1 the kernel takes runs of up to ``rows`` rows,
    ``kernel(union[i:i + rows], union[i:])``, and returns one row of
    values per graph of the run, each against all of ``union[i:]`` (as
    :func:`gkern.walks.walk_kernel_implicit` does for a union of rows);
    row ``i + x`` keeps the values from its own graph on.
    """
    if rows < 1:
        raise ParameterError(f"rows must be >= 1, got {rows}")
    n = len(ds)
    values = np.zeros((n, n), dtype=np.float64)
    start = time.perf_counter()
    union = DisjointUnion(ds.graphs)
    for i in range(0, n, rows):
        run = union[i] if rows == 1 else union[i : i + rows]
        count = 1 if rows == 1 else len(run)
        try:
            block = np.asarray(kernel(run, union[i:]), dtype=np.float64)
        except GKError as exc:
            i, j, cause = _failing_pair(kernel, union, range(i, i + count), exc)
            raise GramError(
                f"{kernel_name}: pair ({i}, {j}) failed: {cause}"
            ) from cause
        if block.shape != ((n - i,) if rows == 1 else (count, n - i)):
            what = f"row {i}" if rows == 1 else f"rows {i}..{i + count - 1}"
            cause = ContractError(f"row shape {block.shape} for {n - i} partners")
            raise GramError(f"{kernel_name}: {what} failed: {cause}") from cause
        for x, row in enumerate(block.reshape(count, n - i)):
            values[i + x, i + x :] = row[x:]
            values[i + x :, i + x] = row[x:]
    elapsed = time.perf_counter() - start
    return GramMatrix(
        values,
        kernel_name,
        _ids(ds),
        ds.class_labels.copy(),
        {"scheme": "implicit", "seconds_pairs": elapsed, "seconds_total": elapsed},
    )


def _failing_pair(kernel, union, rows, exc):
    """The first pair ``(i, j)``, ``i`` in ``rows`` and ``j >= i``, that
    fails alone."""
    for i in rows:
        for j in range(i, len(union)):
            try:
                kernel(union[i], union[j : j + 1])
            except GKError as single:
                return i, j, single
    return rows[0], rows[0], exc


class KeyRows(Sequence[tuple]):
    """Feature keys held as rows of integers: one 2-D int array per key
    width, each ascending, so column ``c`` is the ``c``-th row through the
    arrays in turn, read as a tuple of Python ints."""

    def __init__(self, blocks: Sequence[np.ndarray]):
        self.blocks = list(blocks)
        self._ends = np.cumsum([len(b) for b in self.blocks], dtype=np.int64)

    def __len__(self) -> int:
        return int(self._ends[-1]) if self.blocks else 0

    def __getitem__(self, c: int) -> tuple:
        if not 0 <= c < len(self):
            raise IndexError(f"column {c} of {len(self)}")
        b = int(np.searchsorted(self._ends, c, "right"))
        block = self.blocks[b]
        return tuple(block[c - int(self._ends[b]) + len(block)].tolist())


@dataclass
class FeatureMatrix:
    """A dataset's sparse graphs x features matrix: what a dataset map
    returns to :func:`gram_explicit`.

    Entry ``e`` puts ``weight[e]`` (float64) in row ``graph[e]`` and
    column ``column[e]``; no (graph, column) cell repeats.  ``keys[c]`` is
    column ``c``'s feature key, distinct per column.  ``integral[i]`` says
    that graph ``i``'s weights are exact non-negative integers (a weight
    that reached 2**53 keeps its pairs failing the exactness guard).
    """

    graph: np.ndarray
    column: np.ndarray
    weight: np.ndarray
    integral: np.ndarray
    keys: Sequence[tuple]

    def __len__(self) -> int:
        """The stored entries: read as one vector of the whole dataset,
        the matrix has as many as its graphs' dicts hold together."""
        return len(self.column)

    def __iter__(self) -> Iterator[tuple]:
        """The column keys, as a dict iterates its keys."""
        return iter(self.keys)

    def vector(self, i: int) -> Dict[tuple, Union[int, float]]:
        """Graph ``i``'s features as a dict of key -> weight, the weights
        Python ints when ``integral[i]``."""
        at = np.flatnonzero(self.graph == i)
        weights = self.weight[at]
        weights = (weights.astype(np.int64) if self.integral[i] else weights).tolist()
        return {self.keys[c]: w for c, w in zip(self.column[at].tolist(), weights)}


def _words(columns: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Equal-length int64 ``columns`` packed into as few int64 words as
    keep their order: consecutive columns share a word while their value
    spans multiply to below 2**63, so rows compare, word by word, as
    their columns do."""
    words, word, room = [], np.zeros(len(columns[0]), np.int64), 1
    for column in columns:
        low = int(column.min(initial=0))
        span = int(column.max(initial=0)) - low + 1
        if room * span < 2**63:
            word, room = word * span + (column - low), room * span
        else:
            words.append(word)
            # a column too wide to shift compares as it is
            word, room = (column - low, span) if span < 2**63 else (column, 2**63)
    words.append(word)
    return words


def _sort(words: List[np.ndarray]) -> np.ndarray:
    # one word (the usual case for a few small labels) sorts with one
    # argsort, several with one lexsort
    return np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])


def row_order(columns: Sequence[np.ndarray]) -> np.ndarray:
    """An order (not a stable one) that sorts the rows of equal-length
    int64 ``columns`` ascending, compared column by column (see
    :func:`_words`)."""
    return _sort(_words(columns))


def tally_rows(
    columns: Sequence[np.ndarray], counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, sums)``: for each distinct row of the equal-length int64
    ``columns``, in ascending order, the index of one of its repeats and
    the sum of ``counts`` over them.

    One sort of the packed words (:func:`_words`) finds them; only the
    words and ``counts`` are gathered in that order, never the rows.
    """
    words = _words(columns)
    order = _sort(words)
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for word in words:
        ranked = word[order]
        fresh[1:] |= ranked[1:] != ranked[:-1]
    first = np.flatnonzero(fresh)
    return order[first], np.add.reduceat(counts[order], first)


def count_rows(
    graphs: int, parts: Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]
) -> FeatureMatrix:
    """The map of ``graphs`` graphs that counts rows of keys per graph.

    Each part ``(graph, keys, counts)`` holds a 2-D int array ``keys`` of
    one width whose row ``r`` belongs to graph ``graph[r]``; a graph's
    weight on a distinct row is the number of its repeats there, or the
    sum of their integer ``counts``.  Columns run through the parts in
    turn, each part's distinct rows in ascending order.
    """
    # (graph, column, weight) per part, after an empty one
    entries = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    blocks: List[np.ndarray] = []
    for graph, keys, counts in parts:
        ones = np.ones(len(keys), dtype=np.int64)
        first, weight = tally_rows([*keys.T, graph], ones if counts is None else counts)
        keys, graph = keys[first], graph[first]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        offset = sum(map(len, blocks))
        entries.append((graph, np.cumsum(fresh) - 1 + offset, weight.astype(np.float64)))
        blocks.append(keys[fresh])
    graph, column, weight = map(np.concatenate, zip(*entries))
    return FeatureMatrix(graph, column, weight, np.ones(graphs, dtype=bool), KeyRows(blocks))


def per_graph(
    feature_fn: Callable[[Graph], Dict[tuple, float]]
) -> Callable[[DisjointUnion], FeatureMatrix]:
    """The dataset map of a per-graph map ``feature_fn``, which gives each
    graph's vector as a dict of key -> weight (the weighted-vertex maps,
    whose weights may be floats, and hand-built vectors).

    Its keys are interned into one numbering for the dataset, then
    renumbered in ascending key order, so the columns (and any float sums
    over them) never depend on the order in which graphs bring keys in.
    A graph's weights are integral when each is a non-negative Python
    ``int``.  A failing graph is named by a :class:`GramError` whose
    cause is its error.
    """

    def feature_map(union: DisjointUnion) -> FeatureMatrix:
        columns: Dict[tuple, int] = {}
        row_cols: List[np.ndarray] = [np.zeros(0, np.int32)]
        row_weights: List[np.ndarray] = [np.zeros(0)]
        integral = np.zeros(len(union), dtype=bool)
        for i, g in enumerate(union):
            try:
                vector = feature_fn(g)
            except GKError as exc:
                raise GramError(f"graph {i} failed: {exc}") from exc
            cols, weights, integral[i] = _intern(vector, columns)
            row_cols.append(cols)
            row_weights.append(weights)
        counts = [len(cols) for cols in row_cols[1:]]
        keys, ranks = _ascending_keys(columns)
        column = ranks[np.concatenate(row_cols)]
        row_cols.clear()
        order = np.argsort(column, kind="stable")
        column = column[order]
        weight = np.concatenate(row_weights)[order]
        row_weights.clear()
        graph = np.repeat(np.arange(len(union), dtype=np.int32), counts)[order]
        return FeatureMatrix(graph, column, weight, integral, keys)

    return feature_map


def gram_explicit(
    ds: Dataset,
    feature_map: Callable[[DisjointUnion], FeatureMatrix],
    kernel_name: str = "explicit",
) -> GramMatrix:
    """Build the dataset's feature matrix X, then take one matrix product.

    ``feature_map`` is called once with the :class:`~gkern.graphs.DisjointUnion`
    of ``ds`` and returns its :class:`FeatureMatrix`
    (:func:`gkern.walks.walk_features_explicit`,
    :func:`gkern.shortest_paths.sp_features_explicit`,
    :func:`gkern.subgraphs.graphlet_features` and
    :func:`gkern.subgraphs.matching_features` build theirs in one pass
    over the union; :func:`per_graph` turns a per-graph dict map into
    one).  The Gram is X·Xᵀ, summed over column blocks of at most
    :data:`BLOCK_CELLS` dense cells, columns in ascending order.

    The timing breakdown reports the feature-map phase (the map's call)
    and the dot phase (the product) separately, plus the stored and the
    distinct feature counts.

    When both graphs of a pair are integral, their entry is exact below
    2**53 and reaches 2**53 exactly when the integer dot does, so the
    first such pair in row-major order of the upper triangle whose dot
    reaches 2**53 fails with a :class:`MultiplicityOverflowError`.  Float
    weights make no exactness claim.  A failing map fails the Gram with
    a :class:`GramError` whose cause is the map's error.
    """
    n = len(ds)
    start = time.perf_counter()
    try:
        features = feature_map(DisjointUnion(ds.graphs))
    except GKError as exc:
        cause = exc.__cause__ if isinstance(exc, GramError) else exc
        raise GramError(f"{kernel_name}: {exc}") from cause
    map_seconds = time.perf_counter() - start
    values = _blocked_product(features, n)
    exact = features.integral[:, None] & features.integral[None, :]
    over = np.argwhere(np.triu(exact & (values >= EXACT_LIMIT)))
    if len(over):
        i, j = over[0]
        cause = MultiplicityOverflowError(f"integer dot {values[i, j]:.4g} past 2**53")
        message = f"{kernel_name}: pair ({i}, {j}) failed: {cause}"
        raise GramError(message) from cause
    total_seconds = time.perf_counter() - start
    return GramMatrix(
        values,
        kernel_name,
        _ids(ds),
        ds.class_labels.copy(),
        {
            "scheme": "explicit",
            "seconds_feature_maps": map_seconds,
            "seconds_dot": total_seconds - map_seconds,
            "seconds_total": total_seconds,
            "stored_features": len(features.column),
            "distinct_features": len(features.keys),
        },
    )


def _intern(
    entries: Dict[tuple, float], columns: Dict[tuple, int]
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """One vector as (column ids, float64 weights, whether exact-integral).

    Keys not yet in ``columns`` get the next free ids.  A vector is
    exact-integral when every weight is a non-negative Python ``int``.
    """
    count = len(entries)
    # one lookup per key: a tuple hashes its items anew on every lookup
    cols = np.fromiter(
        (columns.setdefault(key, len(columns)) for key in entries), np.int32, count
    )
    weights = entries.values()
    integral = all(type(w) is int for w in weights)
    try:
        array = np.fromiter(weights, np.float64, count)
    except OverflowError:
        # an integer past float64's range; 2**53 keeps its pairs failing
        array = np.fromiter(
            (min(w, EXACT_LIMIT) if type(w) is int else w for w in weights),
            np.float64,
            count,
        )
    return cols, array, integral and not (array < 0).any()


def _ascending_keys(columns: Dict[tuple, int]) -> Tuple[List[tuple], np.ndarray]:
    """The keys of ``columns`` in ascending order, and ``ranks[c]``: the
    position of column ``c``'s key among them."""
    keys = list(columns)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys), dtype=np.int32)
    ranks[order] = np.arange(len(keys))
    return [keys[c] for c in order], ranks


def _blocked_product(features: FeatureMatrix, n: int) -> np.ndarray:
    """X·Xᵀ for the feature matrix X, as a sum over dense column blocks
    of X, in ascending column order.

    When every graph is integral, every sum is exact in any order, so the
    columns that few graphs hold (see :data:`PAIR_COST`) are summed as
    their pairs of entries instead (:func:`_pair_sums`), and only the
    others fill dense blocks.
    """
    values = np.zeros((n, n), dtype=np.float64)
    total = len(features.keys)
    if not total:
        return values
    cols, weights, owner = features.column, features.weight, features.graph
    if (cols[1:] < cols[:-1]).any():
        order = np.argsort(cols, kind="stable")
        cols, weights, owner = cols[order], weights[order], owner[order]
    # column c's entries run from starts[c] to starts[c + 1]
    starts = np.searchsorted(cols, np.arange(total + 1))
    held = np.diff(starts)
    dense = np.ones(total, dtype=bool)
    if features.integral.all():
        dense = held * held * PAIR_COST >= n * n
        _pair_sums(values, starts, held, np.flatnonzero(~dense), owner, weights)
    kept = np.flatnonzero(dense)
    rank = np.cumsum(dense) - 1
    width = max(1, min(BLOCK_CELLS // n, kept.size))
    block = np.zeros((n, width), dtype=np.float64)
    for first in range(0, kept.size, width):
        part = slice(starts[kept[first]], starts[kept[min(first + width, kept.size) - 1] + 1])
        inside = dense[cols[part]]
        at = (owner[part][inside], rank[cols[part][inside]] - first)
        block[at] = weights[part][inside]
        # einsum runs in this thread.  ``block @ block.T`` goes to BLAS,
        # which spreads even these small products over every core and
        # keeps its worker threads spinning ~0.2 s after the last one, and
        # whose packing buffers stay resident (2-vCPU Xeon, OpenBLAS
        # 0.3.31); einsum costs ~0.04 s more on 150 graphs x 6.5k features.
        values += np.einsum("ik,jk->ij", block, block)
        block[at] = 0.0
    return values


def _pair_sums(
    values: np.ndarray,
    starts: np.ndarray,
    held: np.ndarray,
    columns: np.ndarray,
    owner: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Add to ``values``, for each of ``columns``, the products of every
    ordered pair of its entries ``(owner, weight)``, the ``held[c]``
    entries from ``starts[c]`` on; a chunk of whole columns holds about
    :data:`BLOCK_CELLS` pairs."""
    n = len(values)
    count = held[columns] ** 2
    ends = np.cumsum(count)
    lo = 0
    while lo < columns.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + BLOCK_CELLS, "right")))
        pairs = count[lo:hi]
        # pair p of a column holding k entries joins its entries p // k and p % k
        p = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        k = np.repeat(held[columns[lo:hi]], pairs)
        first = np.repeat(starts[columns[lo:hi]], pairs)
        left, right = first + p // k, first + p % k
        np.add.at(values.ravel(), owner[left] * n + owner[right], weights[left] * weights[right])
        lo = hi


def normalize(gram: GramMatrix) -> GramMatrix:
    """Unit-diagonal normalization K'_ij = K_ij / sqrt(K_ii * K_jj).

    Rows and columns whose diagonal entry is 0 are set to 0.  Applying the
    normalization twice changes nothing.
    """
    diag = np.diag(gram.values).copy()
    if (diag < 0).any():
        raise ParameterError("normalization needs a non-negative diagonal")
    scale = np.sqrt(diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = gram.values / np.outer(scale, scale)
    values[~np.isfinite(values)] = 0.0
    values[diag == 0, :] = 0.0
    values[:, diag == 0] = 0.0
    return GramMatrix(
        values,
        f"{gram.kernel}/normalized",
        list(gram.graph_ids),
        None if gram.class_labels is None else gram.class_labels.copy(),
        dict(gram.timings),
    )


def min_eigenvalue_estimate(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, by dense ``eigvalsh``.

    The matrix must be square, non-empty, finite and symmetric up to a
    relative 1e-12; a 1x1 matrix returns its entry exactly.
    """
    k = np.asarray(matrix, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ParameterError(f"need a square matrix, got shape {k.shape}")
    if k.shape[0] == 0:
        raise ParameterError("need a non-empty matrix")
    bad = np.argwhere(~np.isfinite(k))
    if len(bad):
        i, j = bad[0]
        raise ParameterError(f"entry ({i}, {j}) is {k[i, j]}, not finite")
    if not np.allclose(k, k.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(k).max()))):
        raise ParameterError("matrix is not symmetric")
    if k.shape[0] == 1:
        return float(k[0, 0])
    return float(np.linalg.eigvalsh(k)[0])


def export_gram(gram: GramMatrix, fmt: str, path: str) -> str:
    """Write the matrix as ``csv`` or ``svm-precomputed``; returns ``path``.

    CSV rows hold the full-precision values.  The SVM precomputed-kernel
    layout prefixes each row with the graph's class label and a 1-based
    row index feature: ``<label> 0:<i+1> 1:<K_i1> ... n:<K_in>``.
    """
    if fmt == "csv":
        # one %-template per row formats as f"{v:.17g}" does, at half the cost
        template = ",".join(["%.17g"] * gram.values.shape[1]) + "\n"
        with open(path, "w") as fh:
            for row in gram.values:
                fh.write(template % tuple(row.tolist()))
        return path
    if fmt == "svm-precomputed":
        labels = (
            gram.class_labels
            if gram.class_labels is not None
            else np.zeros(gram.n, dtype=np.int64)
        )
        with open(path, "w") as fh:
            for i, row in enumerate(gram.values):
                cells = " ".join(f"{j + 1}:{v:.12g}" for j, v in enumerate(row))
                fh.write(f"{int(labels[i])} 0:{i + 1} {cells}\n")
        return path
    raise ParameterError(f"unknown export format {fmt!r} (csv, svm-precomputed)")


def load_gram_csv(path: str) -> np.ndarray:
    """Read back a CSV written by :func:`export_gram` (empty: 0 graphs)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows, dtype=np.float64) if rows else np.zeros((0, 0))
