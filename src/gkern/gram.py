"""Gram matrices over datasets: assembly, normalization, diagnostics, export.

Two assembly routes mirror the two computation schemes.
:func:`gram_implicit` calls an implicit kernel function
(:func:`gkern.walks.walk_kernel_implicit`,
:func:`gkern.weighted.wv_kernel_implicit` or
:func:`gkern.subgraphs.subgraph_matching_kernel`, each taking one graph
and a sequence of partners) on slices of one union of the graphs, a row
of the upper triangle per call; its cost is all in those calls.
:func:`gram_explicit` first materializes one sparse feature vector per
graph, interning its keys into dataset-wide columns, then computes the
whole matrix as one product X·Xᵀ of the graphs-by-features matrix, in
dense column blocks; the timing breakdown keeps the two phases separate
because their balance is exactly what distinguishes the schemes.

Values are deterministic functions of the inputs — evaluation order never
changes a result, only the wall-clock numbers in ``timings``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    """
    n = len(ds)
    values = np.zeros((n, n), dtype=np.float64)
    start = time.perf_counter()
    union = DisjointUnion(ds.graphs)
    for i in range(n):
        try:
            row = np.asarray(kernel(union[i], union[i:]), dtype=np.float64)
        except GKError as exc:
            j, cause = _failing_pair(kernel, union, i, exc)
            raise GramError(
                f"{kernel_name}: pair ({i}, {j}) failed: {cause}"
            ) from cause
        if row.shape != (n - i,):
            cause = ContractError(f"row shape {row.shape} for {n - i} partners")
            raise GramError(f"{kernel_name}: row {i} failed: {cause}") from cause
        values[i, i:] = row
        values[i:, i] = row
    elapsed = time.perf_counter() - start
    return GramMatrix(
        values,
        kernel_name,
        _ids(ds),
        ds.class_labels.copy(),
        {"scheme": "implicit", "seconds_pairs": elapsed, "seconds_total": elapsed},
    )


def _failing_pair(kernel, union, i, exc):
    """The first partner ``j >= i`` whose pair with ``i`` fails alone."""
    for j in range(i, len(union)):
        try:
            kernel(union[i], union[j : j + 1])
        except GKError as single:
            return j, single
    return i, exc


def gram_explicit(
    ds: Dataset,
    feature_fn: Callable[[Graph], Dict[tuple, float]],
    kernel_name: str = "explicit",
) -> GramMatrix:
    """Materialize per-graph feature vectors, then take one matrix product.

    Each vector is a dict of key -> weight.  Its keys are interned into
    one dataset-wide column numbering (ascending key order) and the vector
    is kept as two arrays, columns and float64 weights.  The Gram is then
    X·Xᵀ for the ``n x features`` matrix X, summed over column blocks of
    at most :data:`BLOCK_CELLS` dense cells.

    The timing breakdown reports the feature-map phase (``feature_fn``
    only) and the dot phase (interning and product) separately, plus the
    stored and the distinct (interned) feature counts.

    When both vectors of a pair hold only non-negative Python ``int``
    weights, their entry is exact below 2**53 and reaches 2**53 exactly
    when the integer dot does, so the first such pair in row-major order
    of the upper triangle whose dot reaches 2**53 fails with a
    :class:`MultiplicityOverflowError`.  Float weights make no exactness
    claim.
    """
    n = len(ds)
    columns: Dict[tuple, int] = {}
    row_cols: List[np.ndarray] = []
    row_weights: List[np.ndarray] = []
    integral = np.zeros(n, dtype=bool)
    map_seconds = 0.0
    start = time.perf_counter()
    for i, g in enumerate(ds.graphs):
        begin = time.perf_counter()
        try:
            vector = feature_fn(g)
        except GKError as exc:
            raise GramError(f"{kernel_name}: graph {i} failed: {exc}") from exc
        map_seconds += time.perf_counter() - begin
        cols, weights, integral[i] = _intern(vector, columns)
        row_cols.append(cols)
        row_weights.append(weights)

    stored = sum(len(cols) for cols in row_cols)
    ranks = _ascending_key_ranks(columns)
    values = _blocked_product(row_cols, row_weights, ranks, n)
    exact = integral[:, None] & integral[None, :]
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
            "stored_features": stored,
            "distinct_features": len(columns),
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


def _ascending_key_ranks(columns: Dict[tuple, int]) -> np.ndarray:
    """``ranks[c]``: the position of column ``c``'s key in ascending key order."""
    keys = list(columns)
    ranks = np.empty(len(keys), dtype=np.int32)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def _blocked_product(
    row_cols: List[np.ndarray],
    row_weights: List[np.ndarray],
    ranks: np.ndarray,
    n: int,
) -> np.ndarray:
    """X·Xᵀ for the sparse rows ``(row_cols[i], row_weights[i])``, columns
    renumbered by ``ranks``, as a sum over dense column blocks of X.

    Empties both lists, so the rows are freed once they are flattened.
    """
    values = np.zeros((n, n), dtype=np.float64)
    if not len(ranks):
        return values
    counts = [len(cols) for cols in row_cols]
    cols = ranks[np.concatenate(row_cols)]
    row_cols.clear()
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    weights = np.concatenate(row_weights)[order]
    row_weights.clear()
    owner = np.repeat(np.arange(n, dtype=np.int32), counts)[order]
    del order
    width = max(1, min(BLOCK_CELLS // n, len(ranks)))
    edges = np.searchsorted(cols, np.arange(0, len(ranks) + width, width))
    block = np.zeros((n, width), dtype=np.float64)
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        at = (owner[lo:hi], cols[lo:hi] - b * width)
        block[at] = weights[lo:hi]
        # einsum runs in this thread.  ``block @ block.T`` goes to BLAS,
        # which spreads even these small products over every core and
        # keeps its worker threads spinning ~0.2 s after the last one, and
        # whose packing buffers stay resident (2-vCPU Xeon, OpenBLAS
        # 0.3.31); einsum costs ~0.04 s more on 150 graphs x 6.5k features.
        values += np.einsum("ik,jk->ij", block, block)
        block[at] = 0.0
    return values


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
        with open(path, "w") as fh:
            for row in gram.values:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
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
