"""Base kernels on vertex/edge annotations, and feature maps for them.

Walk, shortest-path and weighted-vertex graph kernels are all assembled
from small kernels that compare single annotations: discrete labels, real
attribute vectors, or path lengths.  This module provides

* the scalar functions (:func:`dirac`, :func:`hat_kernel`,
  :func:`rbf_kernel`, :func:`brownian_bridge`),
* :class:`VertexKernelSpec` / :class:`EdgeKernelSpec` — parameterized
  kernel choices that also expose vectorized all-pairs evaluation and
  their support (where they are positive), which the product-graph
  construction relies on,
* randomized binning grids, whose collision feature map approximates the
  hat kernel (:func:`sample_binning_grid`, :func:`binning_features`), and
* :func:`binary_feature_map`, the exact finite-dimensional feature map
  that any binary-valued kernel admits via its equivalence classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError, InvalidKernelError, ParameterError
from .features import TAG_BIN, TAG_CLASS, FeatureVector, feature_key
from .graphs import INF_DISTANCE, Graph
from .rng import SplitMix64

# ---------------------------------------------------------------------------
# Scalar base kernels
# ---------------------------------------------------------------------------


def dirac(x, y) -> int:
    """1 if the two values compare equal, else 0."""
    return 1 if x == y else 0


def hat_kernel(x, y, delta: float) -> float:
    """Product of per-dimension triangular bumps with support radius
    ``delta``: prod_i max(0, 1 - |x_i - y_i| / delta)."""
    if delta <= 0:
        raise ParameterError(f"hat kernel needs delta > 0, got {delta}")
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))
    b = np.atleast_1d(np.asarray(y, dtype=np.float64))
    terms = 1.0 - np.abs(a - b) / delta
    if (terms <= 0).any():
        return 0.0
    return float(np.prod(terms))


def rbf_kernel(x, y, sigma: float) -> float:
    """Gaussian kernel exp(-||x - y||^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ParameterError(f"rbf kernel needs sigma > 0, got {sigma}")
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))
    b = np.atleast_1d(np.asarray(y, dtype=np.float64))
    return float(np.exp(-float(np.dot(a - b, a - b)) / (2.0 * sigma * sigma)))


def brownian_bridge(d, d2, c: float = 3.0) -> float:
    """Triangular kernel on path lengths: max(0, c - |d - d2|).

    Unreachable-pair sentinels compare as 0 against everything.
    """
    if c <= 0:
        raise ParameterError(f"brownian bridge needs c > 0, got {c}")
    if d == INF_DISTANCE or d2 == INF_DISTANCE:
        return 0.0
    return max(0.0, c - abs(int(d) - int(d2)))


# ---------------------------------------------------------------------------
# Randomized binning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinningGrid:
    """``P`` independently shifted grids of pitch ``delta`` over R^dim.

    Two points land in the same cell of one grid with probability
    max(0, 1 - |x_i - y_i| / delta) per dimension, so the average collision
    indicator over the ``P`` grids is an unbiased estimate of the hat
    kernel; its feature map assigns weight ``1/sqrt(P)`` to each of the
    ``P`` occupied cells.
    """

    delta: float
    shifts: np.ndarray  # (P, dim) offsets in [0, delta)

    @property
    def num_grids(self) -> int:
        return int(self.shifts.shape[0])

    @property
    def dim(self) -> int:
        return int(self.shifts.shape[1])

    def bin_indices(self, points: np.ndarray) -> np.ndarray:
        """Cell indices of shape (len(points), P, dim)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ContractError(
                f"points of shape {pts.shape} for a {self.dim}-dimensional grid"
            )
        return np.floor(
            (pts[:, None, :] + self.shifts[None, :, :]) / self.delta
        ).astype(np.int64)


def sample_binning_grid(
    dim: int, delta: float, num_grids: int, seed: int
) -> BinningGrid:
    """Draw grid shifts uniformly from [0, delta), row-major in (grid, dim)."""
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if delta <= 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    if num_grids < 1:
        raise ParameterError(f"num_grids must be >= 1, got {num_grids}")
    stream = SplitMix64(seed)
    shifts = np.array(
        [[stream.uniform() * delta for _ in range(dim)] for _ in range(num_grids)],
        dtype=np.float64,
    )
    return BinningGrid(delta, shifts)


def binning_features(x, grid: BinningGrid) -> FeatureVector:
    """Feature map of one point: its cell in each grid, weight 1/sqrt(P).

    Keys from different grids never coincide (the grid index is part of
    the key), so the vector always has exactly ``P`` entries.
    """
    cells = grid.bin_indices(np.atleast_2d(np.asarray(x, dtype=np.float64)))[0]
    weight = 1.0 / grid.num_grids**0.5
    return FeatureVector(
        {
            feature_key(TAG_BIN, (p, *cells[p].tolist())): weight
            for p in range(grid.num_grids)
        }
    )


# ---------------------------------------------------------------------------
# Kernel specifications with vectorized all-pairs evaluation
# ---------------------------------------------------------------------------


def _attributes_of(g: Graph) -> np.ndarray:
    if g.vertex_attributes is None:
        raise ContractError("graph has no vertex attributes")
    return g.vertex_attributes


@dataclass(frozen=True)
class VertexKernelSpec:
    """A choice of kernel comparing two vertices.

    Kinds: ``dirac`` on discrete labels (unlabeled graphs behave as
    uniformly labeled), ``dirac-attributes`` on exact attribute rows,
    ``hat`` / ``rbf`` on attribute rows with bandwidth ``delta`` / ``sigma``,
    and ``binned`` — the inner product of binning features, i.e. the
    randomized approximation of ``hat``.
    """

    kind: str
    delta: Optional[float] = None
    sigma: Optional[float] = None
    grid: Optional[BinningGrid] = None

    def __post_init__(self):
        if self.kind not in ("dirac", "dirac-attributes", "hat", "rbf", "binned"):
            raise ParameterError(f"unknown vertex kernel kind {self.kind!r}")
        if self.kind == "hat" and (self.delta is None or self.delta <= 0):
            raise ParameterError("hat vertex kernel needs delta > 0")
        if self.kind == "rbf" and (self.sigma is None or self.sigma <= 0):
            raise ParameterError("rbf vertex kernel needs sigma > 0")
        if self.kind == "binned" and self.grid is None:
            raise ParameterError("binned vertex kernel needs a BinningGrid")

    def describe(self) -> str:
        if self.kind == "hat":
            return f"hat(delta={self.delta:g})"
        if self.kind == "rbf":
            return f"rbf(sigma={self.sigma:g})"
        if self.kind == "binned":
            return f"binned(P={self.grid.num_grids},delta={self.grid.delta:g})"
        return self.kind

    def value(self, g: Graph, u: int, h: Graph, v: int) -> float:
        """Kernel between vertex ``u`` of ``g`` and vertex ``v`` of ``h``."""
        if self.kind == "dirac":
            return dirac(
                int(g.vertex_label_array()[u]), int(h.vertex_label_array()[v])
            )
        if self.kind == "dirac-attributes":
            return dirac(
                tuple(_attributes_of(g)[u].tolist()),
                tuple(_attributes_of(h)[v].tolist()),
            )
        if self.kind == "hat":
            return hat_kernel(_attributes_of(g)[u], _attributes_of(h)[v], self.delta)
        if self.kind == "rbf":
            return rbf_kernel(_attributes_of(g)[u], _attributes_of(h)[v], self.sigma)
        from .features import dot as _dot

        return _dot(
            binning_features(_attributes_of(g)[u], self.grid),
            binning_features(_attributes_of(h)[v], self.grid),
        )

    def support(
        self, g: Graph, h: Graph
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Where the kernel is positive, and its values.

        Returns the boolean ``(g.n, h.n)`` keep-mask and the all-pairs
        values, or ``None`` for the values when every kept value is 1
        (the Dirac kinds), so callers need not gather weights.
        """
        if self.kind == "dirac":
            keep = np.equal.outer(g.vertex_label_array(), h.vertex_label_array())
            return keep, None
        if self.kind == "dirac-attributes":
            xg, xh = _attributes_of(g), _attributes_of(h)
            return (xg[:, None, :] == xh[None, :, :]).all(axis=2), None
        values = self.matrix(g, h)
        return values > 0, values

    def matrix(self, g: Graph, h: Graph) -> np.ndarray:
        """All-pairs kernel values, shape (g.n, h.n)."""
        if self.kind in ("dirac", "dirac-attributes"):
            return self.support(g, h)[0].astype(np.float64)
        if self.kind == "hat":
            xg, xh = _attributes_of(g), _attributes_of(h)
            terms = 1.0 - np.abs(xg[:, None, :] - xh[None, :, :]) / self.delta
            return np.where(terms > 0, terms, 0.0).prod(axis=2)
        if self.kind == "rbf":
            xg, xh = _attributes_of(g), _attributes_of(h)
            sq = ((xg[:, None, :] - xh[None, :, :]) ** 2).sum(axis=2)
            return np.exp(-sq / (2.0 * self.sigma * self.sigma))
        bg = self.grid.bin_indices(_attributes_of(g))
        bh = self.grid.bin_indices(_attributes_of(h))
        hits = np.zeros((g.n, h.n), dtype=np.int64)
        for p in range(self.grid.num_grids):
            hits += (bg[:, None, p, :] == bh[None, :, p, :]).all(axis=2)
        return hits / float(self.grid.num_grids)


@dataclass(frozen=True)
class EdgeKernelSpec:
    """A choice of kernel comparing two edge annotations.

    The annotation is the integer edge label — which, for shortest-path
    transformed graphs, holds the path length.  Kinds: ``dirac`` (equal
    annotations), ``uniform`` (constantly 1, i.e. edges unlabeled),
    ``brownian-bridge`` (max(0, c - |d - d'|) on lengths), and ``table``
    (Dirac plus explicit exceptions: ``table`` holds (a, b, weight)
    triples applied symmetrically, e.g. a half weight for one pair of
    bond types).
    """

    kind: str
    c: float = 3.0
    table: Optional[Tuple[Tuple[int, int, float], ...]] = None

    def __post_init__(self):
        if self.kind not in ("dirac", "uniform", "brownian-bridge", "table"):
            raise ParameterError(f"unknown edge kernel kind {self.kind!r}")
        if self.kind == "brownian-bridge" and self.c <= 0:
            raise ParameterError("brownian-bridge edge kernel needs c > 0")
        if self.kind == "table":
            if not self.table:
                raise ParameterError("table edge kernel needs (a, b, weight) entries")
            seen = {}
            for a, b, w in self.table:
                if w < 0:
                    raise ParameterError(
                        f"edge kernel weights must be >= 0, got {w} for ({a}, {b})"
                    )
                key = (min(a, b), max(a, b))
                if seen.get(key, w) != w:
                    raise ParameterError(
                        f"conflicting weights for label pair ({a}, {b})"
                    )
                seen[key] = w
        elif self.table is not None:
            raise ParameterError(f"{self.kind} edge kernel takes no table")

    def describe(self) -> str:
        if self.kind == "brownian-bridge":
            return f"brownian-bridge(c={self.c:g})"
        if self.kind == "table":
            entries = ",".join(f"({a},{b})={w:g}" for a, b, w in self.table)
            return f"table[{entries}]"
        return self.kind

    def value(self, label_g: int, label_h: int) -> float:
        if self.kind == "dirac":
            return dirac(label_g, label_h)
        if self.kind == "uniform":
            return 1
        if self.kind == "table":
            for a, b, w in self.table:
                if (label_g, label_h) in ((a, b), (b, a)):
                    return w
            return dirac(label_g, label_h)
        return brownian_bridge(label_g, label_h, self.c)

    def support(
        self, labels_g: np.ndarray, labels_h: np.ndarray
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Where the kernel is positive, and its values, for all pairs of
        two edge-annotation arrays.

        Returns a boolean keep-mask, ``None`` when every pair is kept (the
        uniform kind), and the all-pairs values, ``None`` when every kept
        value is 1 (the uniform and Dirac kinds).
        """
        if self.kind == "uniform":
            return None, None
        if self.kind == "dirac":
            return np.equal.outer(labels_g, labels_h), None
        values = self.matrix(labels_g, labels_h)
        return values > 0, values

    def matrix(self, labels_g: np.ndarray, labels_h: np.ndarray) -> np.ndarray:
        """All-pairs kernel values for two edge-annotation arrays."""
        lg = np.asarray(labels_g, dtype=np.int64)
        lh = np.asarray(labels_h, dtype=np.int64)
        return self.elementwise(lg[:, None], lh[None, :])

    def elementwise(self, labels_g: np.ndarray, labels_h: np.ndarray) -> np.ndarray:
        """Kernel values for two edge-annotation arrays of one shape (or
        shapes that broadcast to one)."""
        lg = np.asarray(labels_g, dtype=np.int64)
        lh = np.asarray(labels_h, dtype=np.int64)
        if self.kind == "uniform":
            return np.ones(np.broadcast_shapes(lg.shape, lh.shape), dtype=np.float64)
        if self.kind in ("dirac", "table"):
            out = (lg == lh).astype(np.float64)
            if self.kind == "table":
                for a, b, w in self.table:
                    hit = ((lg == a) & (lh == b)) | ((lg == b) & (lh == a))
                    out[hit] = w
            return out
        return self._bridge(lg.astype(np.float64), lh.astype(np.float64))

    def _bridge(self, dg: np.ndarray, dh: np.ndarray) -> np.ndarray:
        """Vectorized brownian bridge; the unreachable sentinel yields 0."""
        values = np.maximum(0.0, self.c - np.abs(dg - dh))
        reachable = (dg != float(INF_DISTANCE)) & (dh != float(INF_DISTANCE))
        return values * reachable


# ---------------------------------------------------------------------------
# Feature maps of binary kernels
# ---------------------------------------------------------------------------


def binary_feature_map(
    items: Sequence,
    kernel: Callable,
    tag: int = TAG_CLASS,
) -> List[FeatureVector]:
    """One-hot feature vectors realizing a binary-valued kernel exactly.

    A kernel that only takes values 0 and 1 is positive semidefinite iff
    ``k(x, y) = 1`` is a partial equivalence relation; its feature map
    sends each item to the indicator of its equivalence class, and items
    with ``k(x, x) = 0`` to the zero vector.  Classes are numbered by
    first occurrence in ``items``.

    Each item is compared against one representative per known class;
    inconsistencies that surface this way (a value outside {0, 1},
    asymmetry against a representative, an item matching two classes, or
    a self-incompatible item matching anything) raise
    :class:`InvalidKernelError`.
    """

    def _binary(value, x, y):
        if value not in (0, 1):
            raise InvalidKernelError(
                f"kernel is not binary-valued: k({x!r}, {y!r}) = {value!r}"
            )
        return int(value)

    representatives: List[Tuple[object, int]] = []
    vectors: List[FeatureVector] = []
    for x in items:
        self_value = _binary(kernel(x, x), x, x)
        matches = []
        for rep, class_id in representatives:
            forward = _binary(kernel(x, rep), x, rep)
            backward = _binary(kernel(rep, x), rep, x)
            if forward != backward:
                raise InvalidKernelError(
                    f"kernel is asymmetric on ({x!r}, {rep!r}):"
                    f" {forward} vs {backward}"
                )
            if forward:
                matches.append(class_id)
        if self_value == 0:
            if matches:
                raise InvalidKernelError(
                    f"item {x!r} has k(x, x) = 0 but matches class"
                    f" {matches[0]}; relation is not a partial equivalence"
                )
            vectors.append(FeatureVector())
            continue
        if len(matches) > 1:
            raise InvalidKernelError(
                f"item {x!r} matches classes {matches}; relation is not"
                f" transitive"
            )
        if matches:
            class_id = matches[0]
        else:
            class_id = len(representatives)
            representatives.append((x, class_id))
        vectors.append(FeatureVector.one_hot(feature_key(tag, (class_id,))))
    return vectors
