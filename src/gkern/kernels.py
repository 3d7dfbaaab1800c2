"""Base kernels on vertex/edge annotations, and feature maps for them.

Walk, shortest-path and weighted-vertex graph kernels are all assembled
from small kernels that compare single annotations: discrete labels, real
attribute vectors, or path lengths.  This module provides

* :class:`VertexKernelSpec` / :class:`EdgeKernelSpec` — parameterized
  kernel choices, evaluated only in bulk (all vertex pairs of two graphs,
  or two arrays of edge annotations), each with an equality key per
  element (two elements with different keys compare as 0) that the
  product-graph construction joins on; a vertex kernel with a finite
  feature map also gives each vertex's features
  (:meth:`VertexKernelSpec.features`), and
* randomized binning grids, whose collision feature map approximates the
  hat kernel (:func:`sample_binning_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ContractError, ParameterError
from .graphs import INF_DISTANCE, Graph
from .rng import SplitMix64

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


def _finite_positive(value: float) -> bool:
    """Whether a kernel parameter is finite and positive (a NaN is not)."""
    return 0 < value < math.inf


def sample_binning_grid(
    dim: int, delta: float, num_grids: int, seed: int
) -> BinningGrid:
    """Draw grid shifts uniformly from [0, delta), row-major in (grid, dim)."""
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if not _finite_positive(delta):
        raise ParameterError(f"delta must be finite and > 0, got {delta}")
    if num_grids < 1:
        raise ParameterError(f"num_grids must be >= 1, got {num_grids}")
    stream = SplitMix64(seed)
    shifts = np.array(
        [[stream.uniform() * delta for _ in range(dim)] for _ in range(num_grids)],
        dtype=np.float64,
    )
    return BinningGrid(delta, shifts)


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
        for name, value in (("delta", self.delta), ("sigma", self.sigma)):
            if value is not None and not _finite_positive(value):
                raise ParameterError(f"vertex kernel {name} must be finite and > 0, got {value}")
        if self.kind == "hat" and self.delta is None:
            raise ParameterError("hat vertex kernel needs delta > 0")
        if self.kind == "rbf" and self.sigma is None:
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

    @property
    def unit(self) -> bool:
        """Whether the kernel is 1 wherever the :meth:`keys` agree (the
        Dirac kinds), so a key match alone gives the value."""
        return self.kind in ("dirac", "dirac-attributes")

    def keys(self, g: Graph) -> np.ndarray:
        """Equality key per vertex of ``g``, which numpy sorts and
        searches: the label for the ``dirac`` kind, the attribute row's
        bytes for ``dirac-attributes`` (``-0.0`` stored as ``0.0``, so the
        keys agree exactly where the rows do), a constant for every other
        kind.  The kernel is 0 between vertices whose keys differ."""
        if self.kind == "dirac":
            return g.vertex_label_array()
        if self.kind == "dirac-attributes" and _attributes_of(g).shape[1]:
            rows = np.ascontiguousarray(g.vertex_attributes + 0.0)
            return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        return np.zeros(g.n, dtype=np.int64)

    def features(self, g: Graph) -> Tuple[np.ndarray, Union[int, float]]:
        """The feature map of the kernel on the vertices of ``g``: an int64
        ``(g.n, k, width)`` array of each vertex's ``k`` keys, and the one
        weight that every key carries.

        ``dirac`` gives the label and ``dirac-attributes`` the rank of the
        attribute row among the distinct rows of ``g``, ascending as
        ``np.unique(axis=0)`` orders them, each with the Python ``int``
        weight 1, so integer weights stay exact; ``binned`` gives
        ``(p, *cell)`` for the cell of each of the ``P`` grids, weight
        1/sqrt(P).  The hat and rbf kernels have no finite feature map:
        ParameterError.
        """
        if self.kind == "dirac":
            return g.vertex_label_array().reshape(g.n, 1, 1), 1
        if self.kind == "dirac-attributes":
            _, rank = np.unique(_attributes_of(g), axis=0, return_inverse=True)
            return rank.astype(np.int64).reshape(g.n, 1, 1), 1
        if self.kind != "binned":
            raise ParameterError(f"the {self.kind} vertex kernel has no exact finite feature map")
        num_grids = self.grid.num_grids
        cells = self.grid.bin_indices(_attributes_of(g))  # (n, P, dim)
        grids = np.broadcast_to(np.arange(num_grids)[:, None], (g.n, num_grids, 1))
        return np.concatenate((grids, cells), axis=2), 1.0 / num_grids**0.5

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
        if not _finite_positive(self.c):
            raise ParameterError(f"edge kernel c must be finite and > 0, got {self.c}")
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

    @property
    def unit(self) -> bool:
        """Whether the kernel is 1 wherever the :meth:`keys` agree (the
        Dirac and uniform kinds), so a key match alone gives the value."""
        return self.kind in ("dirac", "uniform")

    def keys(self, labels: np.ndarray) -> np.ndarray:
        """Equality key per edge annotation: the label for the Dirac kind,
        a constant for every other kind.  The kernel is 0 between
        annotations whose keys differ."""
        if self.kind == "dirac":
            return np.asarray(labels, dtype=np.int64)
        return np.zeros(len(labels), dtype=np.int64)

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

