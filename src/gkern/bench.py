"""Kernel plans, and timing sweeps comparing the two computation schemes.

:func:`kernel_plan` is the one place that says how each kernel is
computed: its :class:`KernelPlan` holds an implicit and an explicit Gram
builder, or, for a scheme the kernel lacks, the reason why.

:func:`sweep`, the one sweep driver, builds synthetic datasets along one
axis (vertex-label diversity, walk length, or label-alphabet size; each
sweep function binds a generator and a plan) and the dataset-size axis,
computes a plan's two Grams, and records the median wall time of each
over repeated runs (medians are robust against scheduler noise).  Rows
also carry the largest entrywise relative discrepancy between the two
matrices, so a sweep doubles as an end-to-end consistency check.

Datasets are nested along the size axis: one generator call produces the
largest dataset per axis point and smaller sizes are prefixes, matching
the incremental-growth protocol of the experiments this reproduces, and
keeping generation cost flat.

Desk-scale default grids live in :data:`DESK_GRIDS`; the full-scale grids
(:data:`FULL_GRIDS`) match the published protocol and can take hours in
pure Python — they are opt-in.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractError, ParameterError
from .features import direct_sum
from .gram import GramMatrix, gram_explicit, gram_implicit
from .graphs import (
    Dataset,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
    scale_attributes,
)
from .kernels import EdgeKernelSpec, VertexKernelSpec, sample_binning_grid
from .shortest_paths import sp_features_explicit, sp_transform
from .subgraphs import graphlet_features, matching_features, subgraph_matching_kernel
from .walks import walk_features_explicit, walk_kernel_row
from .weighted import (
    attribute_class_features,
    binned_attribute_features,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    label_features,
    wv_features_explicit,
    wv_kernel_implicit,
)

DESK_GRIDS = {
    "pv": {
        "sizes": (50, 100, 150),
        "grid": (0.0, 0.3, 0.6, 0.9),
        "length": 7,
        "mean_vertices": 20.0,
        "edge_prob": 0.1,
    },
    "length": {
        "sizes": (50, 100),
        "grid": (1, 2, 3, 5, 7),
        "p_vertex": 0.4,
        "mean_vertices": 20.0,
        "edge_prob": 0.1,
    },
    "alphabet": {
        "sizes": (20, 40),
        "grid": (1, 2, 4, 8, 16),
        "mean_vertices": 15.0,
        "edge_prob": 0.3,
    },
}

FULL_GRIDS = {
    "pv": {
        "sizes": tuple(range(100, 301, 20)),
        "grid": tuple(round(0.1 * i, 1) for i in range(10)),
        "length": 7,
        "mean_vertices": 20.0,
        "edge_prob": 0.1,
    },
    "length": {
        "sizes": (100, 200, 300),
        "grid": tuple(range(1, 11)),
        "p_vertex": 0.4,
        "mean_vertices": 20.0,
        "edge_prob": 0.1,
    },
    "alphabet": {
        "sizes": (100, 200, 300),
        "grid": (1, 2, 3, 4, 5, 10, 15, 20, 30, 45, 65),
        "mean_vertices": 60.0,
        "edge_prob": 0.5,
    },
}


KERNELS = (
    "walk",
    "maxwalk",
    "sp",
    "graphlet",
    "subgraph-matching",
    "graph-invariant",
    "graphhopper",
)

REGIMES = ("implicit", "explicit")


@dataclass
class KernelPlan:
    """How to compute one kernel on one dataset, scheme by scheme.

    ``implicit`` and ``explicit`` each hold a no-argument Gram builder,
    or, for a scheme the kernel lacks, the reason as a string.
    """

    implicit: Union[Callable[[], GramMatrix], str]
    explicit: Union[Callable[[], GramMatrix], str]

    def builder(self, regime: str) -> Callable[[], GramMatrix]:
        """The Gram builder of ``regime``; ParameterError if there is none."""
        if regime not in REGIMES:
            raise ParameterError(f"unknown regime {regime!r} (implicit, explicit)")
        build = getattr(self, regime)
        if isinstance(build, str):
            raise ParameterError(build)
        return build

    def grams(self, regimes: Sequence[str]) -> List[GramMatrix]:
        """One Gram per regime; every regime is checked before any is built."""
        builds = [self.builder(regime) for regime in regimes]
        return [build() for build in builds]


def kernel_plan(
    kernel: str,
    ds: Dataset,
    *,
    length: int = 4,
    wl_iters: int = 3,
    delta: float = 1.0,
    sigma: float = 1.0,
    binning: int = 16,
    max_size: int = 3,
    connected_only: bool = False,
    vertex_kernel: str = "dirac",
    length_kernel: str = "dirac",
    bridge_c: float = 3.0,
    seed: int = 0,
) -> KernelPlan:
    """The plan of one of :data:`KERNELS` on ``ds``.

    The keyword parameters are exactly the flags of ``gkern compute``
    (``seed`` draws the binning grid).  Discrete labels are compared with
    Dirac kernels, and an unlabeled graph reads as label 0 throughout.
    Per-dataset preparation that both schemes share (attribute scaling,
    weight maps) runs here; the rest runs when a builder is called.
    A walk ``length`` below 0 or a ``max_size`` below 1 is rejected here,
    before any Gram is built.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    if max_size < 1:
        raise ParameterError(f"max_size must be >= 1, got {max_size}")
    # Kernel functions are looked up by name when a builder runs, never
    # stored at import, so replacing a module attribute (as a tracer does)
    # reaches every call.
    dirac = VertexKernelSpec("dirac")
    edges = EdgeKernelSpec("dirac")
    if kernel in ("walk", "maxwalk"):
        name = f"{kernel}(l={length})"
        if kernel == "walk":
            row = lambda g, hs: walk_kernel_row(g, hs, dirac, edges, length)
            features = lambda g: walk_features_explicit(g, length)
        else:
            row = lambda g, hs: walk_kernel_row(
                g, hs, dirac, edges, length, all_rounds=True
            ).sum(axis=1)
            features = lambda g: direct_sum(
                [walk_features_explicit(g, l) for l in range(length + 1)]
            )
        return KernelPlan(
            lambda: gram_implicit(ds, row, f"{name}/implicit", rows=True),
            lambda: gram_explicit(ds, features, f"{name}/explicit"),
        )

    if kernel == "sp":
        lk = EdgeKernelSpec(length_kernel, c=bridge_c)

        def implicit() -> GramMatrix:
            transformed = Dataset(
                ds.name, [sp_transform(g) for g in ds.graphs], ds.class_labels
            )
            # the shortest-path kernel is the length-1 walk kernel on the
            # transforms (see sp_kernel_implicit)
            return gram_implicit(
                transformed,
                lambda g, hs: walk_kernel_row(g, hs, dirac, lk, 1),
                f"sp({lk.describe()})/implicit",
                rows=True,
            )

        explicit = lambda: gram_explicit(ds, sp_features_explicit, "sp/explicit")
        if length_kernel != "dirac":
            explicit = (
                "explicit shortest-path features require the dirac length "
                "kernel; brownian-bridge is implicit-only"
            )
        return KernelPlan(implicit, explicit)

    if kernel == "graphlet":
        return KernelPlan(
            "graphlet counts have no implicit scheme; their implicit "
            "counterpart is subgraph matching (--kernel subgraph-matching "
            "--connected-only)",
            lambda: gram_explicit(ds, graphlet_features, "graphlet(3)/explicit"),
        )

    if kernel == "subgraph-matching":
        name = f"subgraph-matching(max={max_size})"
        implicit = lambda: gram_implicit(
            ds,
            lambda a, b: subgraph_matching_kernel(
                a, b, dirac, edges, max_size, connected_only=connected_only
            ),
            f"{name}/implicit",
        )
        explicit = lambda: gram_explicit(
            ds,
            lambda g: matching_features(g, max_size, connected_only),
            f"{name}/explicit",
        )
        if max_size > 5:
            # the class counter tries up to max_size! vertex orders per subgraph
            explicit = f"explicit subgraph matching stops at max_size 5, got {max_size}"
        return KernelPlan(implicit, explicit)

    if kernel not in ("graph-invariant", "graphhopper"):
        raise ParameterError(f"unknown kernel {kernel!r} (expected one of {KERNELS})")
    # weighted vertex kernels
    grid = None
    if vertex_kernel == "binned":
        if ds.attribute_dim is None:
            raise ContractError("binned vertex kernel needs vertex attributes")
        grid = sample_binning_grid(ds.attribute_dim, delta, binning, seed)
    vk = VertexKernelSpec(vertex_kernel, delta=delta, sigma=sigma, grid=grid)
    if ds.attribute_dim is not None:
        ds = scale_attributes(ds)
    weight_map = (
        graph_invariant_weight_maps(ds, wl_iters)
        if kernel == "graph-invariant"
        else graphhopper_weight_maps(ds)
    )
    name = f"{kernel}[{vk.describe()}]"
    implicit = lambda: gram_implicit(
        ds,
        lambda a, b: wv_kernel_implicit(a, b, weight_map, vk),
        f"{name}/implicit",
    )

    def explicit() -> GramMatrix:
        if vk.kind == "dirac":
            vertex_features = label_features
        elif vk.kind == "binned":
            vertex_features = binned_attribute_features(grid)
        else:
            vertex_features = attribute_class_features(ds)
        return gram_explicit(
            ds,
            lambda g: wv_features_explicit(g, weight_map, vertex_features),
            f"{name}/explicit",
        )

    if vk.kind in ("hat", "rbf"):
        explicit = (
            f"the {vk.kind} vertex kernel has no exact finite feature map; "
            f"use --vertex-kernel binned for the explicit scheme"
        )
    return KernelPlan(implicit, explicit)


def max_relative_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """max_ij |a_ij - b_ij| / max(1, |a_ij|); 0.0 for empty matrices."""
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(a))).max(initial=0.0))


def _median_time(
    build: Callable[[], GramMatrix], reps: int
) -> Tuple[float, GramMatrix]:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        gram = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), gram


def sweep(
    axis: str,
    grid: Sequence,
    sizes: Sequence[int],
    dataset_at: Callable[[int, object], Dataset],
    plan_at: Callable[[object, Dataset], KernelPlan],
    reps: int,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Time both schemes at every (grid value, dataset size) cell of an axis.

    ``dataset_at(step, value)`` draws the largest dataset of the ``step``-th
    grid value; smaller sizes are its prefixes.  ``plan_at(value, ds)``
    gives the plan whose two builders are timed on ``ds``, each as the
    median of ``reps`` runs.  A row carries the largest relative
    discrepancy between the two Grams, 0.0 wherever the plan's kernel is
    exact on both schemes.
    """
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    rows = []
    for step, value in enumerate(grid):
        full = dataset_at(step, value)
        for size in sorted(sizes):
            plan = plan_at(value, full.subset(size))
            builds = [plan.builder(regime) for regime in REGIMES]
            (implicit_seconds, gram_i), (explicit_seconds, gram_e) = [
                _median_time(build, reps) for build in builds
            ]
            winner = "implicit" if implicit_seconds < explicit_seconds else "explicit"
            discrepancy = max_relative_discrepancy(gram_i.values, gram_e.values)
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "size": size,
                    "implicit_seconds": implicit_seconds,
                    "explicit_seconds": explicit_seconds,
                    "winner": winner,
                    "max_rel_discrepancy": discrepancy,
                }
            )
            if progress:
                progress(
                    f"{axis}={value:g} size={size}: implicit "
                    f"{implicit_seconds:.3f}s explicit {explicit_seconds:.3f}s "
                    f"-> {winner}"
                )
    return rows


def walk_pv_sweep(
    sizes: Sequence[int] = DESK_GRIDS["pv"]["sizes"],
    grid: Sequence[float] = DESK_GRIDS["pv"]["grid"],
    length: int = 7,
    mean_vertices: float = 20.0,
    edge_prob: float = 0.1,
    reps: int = 5,
    seed: int = 7,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Fixed-length walk kernel across vertex-label diversity and size.

    Low diversity floods the product graphs (implicit pays), high
    diversity floods the feature space (explicit pays); the sweep exposes
    where the winner flips.
    """
    return sweep(
        "pv",
        grid,
        sizes,
        lambda step, p_vertex: generate_synthetic_labeled(
            max(sizes), mean_vertices, edge_prob, p_vertex, seed + step
        ),
        lambda p_vertex, ds: kernel_plan("walk", ds, length=length),
        reps,
        progress=progress,
    )


def walk_length_sweep(
    sizes: Sequence[int] = DESK_GRIDS["length"]["sizes"],
    grid: Sequence[int] = DESK_GRIDS["length"]["grid"],
    p_vertex: float = 0.4,
    mean_vertices: float = 20.0,
    edge_prob: float = 0.1,
    reps: int = 5,
    seed: int = 11,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Fixed-length walk kernel across walk length, molecular-style labels
    (a skewed three-letter alphabet)."""
    full = generate_synthetic_labeled(
        max(sizes), mean_vertices, edge_prob, p_vertex, seed
    )
    return sweep(
        "length",
        grid,
        sizes,
        lambda step, length: full,
        lambda length, ds: kernel_plan("walk", ds, length=length),
        reps,
        progress=progress,
    )


def alphabet_sweep(
    sizes: Sequence[int] = DESK_GRIDS["alphabet"]["sizes"],
    grid: Sequence[int] = DESK_GRIDS["alphabet"]["grid"],
    mean_vertices: float = 15.0,
    edge_prob: float = 0.3,
    reps: int = 3,
    seed: int = 13,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Subgraph matching (connected, up to 3 vertices) across
    label-alphabet size.

    Implicit: cliques of the association graph.  Explicit: counts of
    labeled subgraph classes, each repeated once per automorphism.  Small
    alphabets blow up the association graph, so this axis is the hardest
    on the implicit side.
    """
    return sweep(
        "alphabet",
        grid,
        sizes,
        lambda step, alphabet: generate_synthetic_alphabet(
            max(sizes), mean_vertices, edge_prob, alphabet, seed + step
        ),
        lambda alphabet, ds: kernel_plan(
            "subgraph-matching", ds, max_size=3, connected_only=True
        ),
        reps,
        progress=progress,
    )


def write_sweep_csv(rows: List[Dict[str, object]], path: str) -> str:
    """Write sweep rows as CSV with a stable column order."""
    columns = [
        "axis",
        "value",
        "size",
        "implicit_seconds",
        "explicit_seconds",
        "winner",
        "max_rel_discrepancy",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path
