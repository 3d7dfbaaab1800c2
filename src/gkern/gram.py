"""Gram matrices over datasets: assembly, normalization, diagnostics, export.

Two assembly routes mirror the two computation schemes.
:func:`gram_implicit` evaluates a kernel on the upper triangle, one row
at a time, and mirrors it; its cost is all in the kernel evaluations.
:func:`gram_explicit` first materializes one sparse feature vector per
graph, then fills the triangle with sparse dot products; the timing
breakdown keeps the two phases separate because their balance is exactly
what distinguishes the schemes.

Values are deterministic functions of the inputs — evaluation order never
changes a result, only the wall-clock numbers in ``timings``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .errors import GKError, GramError, MultiplicityOverflowError, ParameterError
from .features import FeatureVector, dot
from .graphs import Dataset, Graph

#: float64 holds every integer below this bound exactly.
_EXACT_LIMIT = 2**53


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
    kernel: Callable,
    kernel_name: str = "implicit",
    rows: bool = False,
) -> GramMatrix:
    """Fill the Gram matrix row by row of its upper triangle.

    By default ``kernel(g, h)`` evaluates one pair, and each pair is a row
    of its own.  With ``rows`` it is a row kernel: ``kernel(g, hs)``
    returns one value per partner in ``hs``, and graph ``i`` is evaluated
    against all of ``ds[i:]`` in one call (see
    :func:`gkern.walks.walk_kernel_row`, which batches a row into a few
    product graphs).

    Any exception during an evaluation aborts the computation with the
    failing pair's indices attached; a failed batched row is re-evaluated
    pair by pair to find that pair.
    """
    n = len(ds)
    graphs = ds.graphs
    row_kernel = kernel if rows else lambda g, hs: [kernel(g, hs[0])]
    width = n if rows else 1
    values = np.zeros((n, n), dtype=np.float64)
    start = time.perf_counter()
    for i in range(n):
        for lo in range(i, n, width):
            hi = min(lo + width, n)
            try:
                row = row_kernel(graphs[i], graphs[lo:hi])
            except GKError as exc:
                j, cause = _failing_pair(row_kernel, graphs, i, lo, hi, exc)
                raise GramError(
                    f"{kernel_name}: pair ({i}, {j}) failed: {cause}"
                ) from cause
            values[i, lo:hi] = row
            values[lo:hi, i] = row
    elapsed = time.perf_counter() - start
    return GramMatrix(
        values,
        kernel_name,
        _ids(ds),
        ds.class_labels.copy(),
        {"scheme": "implicit", "seconds_pairs": elapsed, "seconds_total": elapsed},
    )


def _failing_pair(row_kernel, graphs, i, lo, hi, exc):
    """The first partner ``j`` in ``lo..hi-1`` whose pair with ``i`` fails."""
    if hi - lo > 1:
        for j in range(lo, hi):
            try:
                row_kernel(graphs[i], graphs[j : j + 1])
            except GKError as single:
                return j, single
    return lo, exc


def gram_explicit(
    ds: Dataset,
    feature_fn: Callable[[Graph], FeatureVector],
    kernel_name: str = "explicit",
) -> GramMatrix:
    """Materialize per-graph feature vectors, then dot them pairwise.

    The timing breakdown reports the feature-map phase and the dot phase
    separately, plus the accumulated number of stored features.  An
    integer dot at or above 2**53, where float64 stops holding every
    integer, fails the pair with a :class:`MultiplicityOverflowError`.
    """
    n = len(ds)
    start = time.perf_counter()
    vectors: List[FeatureVector] = []
    for i, g in enumerate(ds.graphs):
        try:
            vectors.append(feature_fn(g))
        except GKError as exc:
            raise GramError(f"{kernel_name}: graph {i} failed: {exc}") from exc
    map_seconds = time.perf_counter() - start

    values = np.zeros((n, n), dtype=np.float64)
    start = time.perf_counter()
    for i in range(n):
        a = vectors[i]
        for j in range(i, n):
            total = dot(a, vectors[j])
            if total >= _EXACT_LIMIT and isinstance(total, int):
                cause = MultiplicityOverflowError(f"integer dot {total:.4g} past 2**53")
                message = f"{kernel_name}: pair ({i}, {j}) failed: {cause}"
                raise GramError(message) from cause
            values[i, j] = total
            values[j, i] = total
    dot_seconds = time.perf_counter() - start
    return GramMatrix(
        values,
        kernel_name,
        _ids(ds),
        ds.class_labels.copy(),
        {
            "scheme": "explicit",
            "seconds_feature_maps": map_seconds,
            "seconds_dot": dot_seconds,
            "seconds_total": map_seconds + dot_seconds,
            "stored_features": int(sum(len(v) for v in vectors)),
        },
    )


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

    The matrix must be square, non-empty and symmetric up to a relative
    1e-12; a 1x1 matrix returns its entry exactly.
    """
    k = np.asarray(matrix, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ParameterError(f"need a square matrix, got shape {k.shape}")
    if k.shape[0] == 0:
        raise ParameterError("need a non-empty matrix")
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
    """Read back a CSV written by :func:`export_gram`."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows, dtype=np.float64)
