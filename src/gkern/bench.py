"""Kernel plans, and timing sweeps comparing the two computation schemes.

:func:`kernel_plan` is the one place that says how each kernel is
computed: its :class:`KernelPlan` holds an implicit and an explicit Gram
builder, or, for a scheme the kernel lacks, the reason why.

:data:`AXES` is the one table of phase-transition axes (vertex-label
diversity, walk length, label-alphabet size for subgraph matching and for
walks, subgraph size).  A row names the generator that draws the axis's
datasets, the kernel it times, the keyword its grid values set, its fixed
generator and plan keywords, and its desk-scale and full-scale sizes and
grids; the full-scale ones follow the published protocol and can take
hours in pure Python.

:func:`sweep`, the one sweep driver, walks a row's grid and the
dataset-size axis, computes the plan's two Grams per cell, and records the
median wall time of each over repeated runs (medians are robust against
scheduler noise).  Rows also carry the largest entrywise relative
discrepancy between the two matrices, so a sweep doubles as an end-to-end
consistency check.  Datasets are nested along the size axis: one
generator call draws the largest dataset and smaller sizes are prefixes,
matching the incremental-growth protocol of the experiments this
reproduces and keeping generation cost flat.
"""

from __future__ import annotations

import csv
import inspect
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractError, ParameterError
from .gram import GramMatrix, gram_explicit, gram_implicit, per_graph
from .graphs import (
    Dataset,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
    scale_attributes,
)
from .kernels import EdgeKernelSpec, VertexKernelSpec, sample_binning_grid
from .shortest_paths import sp_features_explicit, sp_transform
from .subgraphs import graphlet_features, matching_features, subgraph_matching_kernel
from .walks import GRAM_ROWS, walk_features_explicit, walk_kernel_implicit
from .weighted import (
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    wv_features_explicit,
    wv_kernel_implicit,
)

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

# the keys of a sweep row, in CSV column order
_COLUMNS = ("axis", "value", "size", "implicit_seconds", "explicit_seconds",
            "implicit_iqr_seconds", "explicit_iqr_seconds", "winner", "max_rel_discrepancy")


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
    (``seed`` draws the binning grid).  Every kernel compares vertices
    with the one ``vertex_kernel``, and edges with the Dirac kernel.
    ``dirac`` reads labels (an unlabeled graph reads as label 0), the
    other kinds attributes scaled to [0, 1] over ``ds``, which the
    explicit label maps (all but graph-invariant's and graphhopper's)
    cannot read.  Gram names end in ``[<vertex kernel>]`` unless it is
    ``dirac``.  Per-dataset preparation that both schemes share runs
    here, the rest when a builder is called.  A walk ``length`` below 0
    or a ``max_size`` below 1 is rejected here, before any Gram is built.
    """
    if length < 0:
        raise ParameterError(f"walk length must be >= 0, got {length}")
    if max_size < 1:
        raise ParameterError(f"max_size must be >= 1, got {max_size}")
    if kernel not in KERNELS:
        raise ParameterError(f"unknown kernel {kernel!r} (expected one of {KERNELS})")
    grid = None
    if vertex_kernel == "binned":
        if ds.attribute_dim is None:
            raise ContractError("binned vertex kernel needs vertex attributes")
        grid = sample_binning_grid(ds.attribute_dim, delta, binning, seed)
    vk = VertexKernelSpec(vertex_kernel, delta=delta, sigma=sigma, grid=grid)
    tag = "" if vk.kind == "dirac" else f"[{vk.describe()}]"
    if tag and ds.attribute_dim is not None:
        ds = scale_attributes(ds)
    # Kernel functions are looked up by name when a builder runs, never
    # stored at import, so replacing a module attribute (as a tracer does)
    # reaches every call.
    edges = EdgeKernelSpec("dirac")
    if kernel in ("walk", "maxwalk"):
        name = f"{kernel}(l={length}){tag}"
        if kernel == "walk":
            row = lambda g, hs: walk_kernel_implicit(g, hs, vk, edges, length)
        else:
            row = lambda g, hs: walk_kernel_implicit(
                g, hs, vk, edges, length, all_rounds=True
            ).sum(axis=-1)
        # the max-walk map holds every length's map: walk keys (l, *labels)
        # lead with the length, so the lengths share no key
        features = lambda union: walk_features_explicit(union, length, kernel == "maxwalk")
        implicit = lambda: gram_implicit(ds, row, f"{name}/implicit", GRAM_ROWS)
        explicit = lambda: gram_explicit(ds, features, f"{name}/explicit")
    elif kernel == "sp":
        lk = EdgeKernelSpec(length_kernel, c=bridge_c)

        def implicit() -> GramMatrix:
            transformed = Dataset(
                ds.name, [sp_transform(g) for g in ds.graphs], ds.class_labels
            )
            # the shortest-path kernel is the length-1 walk kernel on the
            # transforms (see gkern.shortest_paths)
            row = lambda g, hs: walk_kernel_implicit(g, hs, vk, lk, 1)
            return gram_implicit(
                transformed, row, f"sp({lk.describe()}){tag}/implicit", GRAM_ROWS
            )

        explicit = lambda: gram_explicit(ds, sp_features_explicit, "sp/explicit")
        if length_kernel != "dirac":
            explicit = (
                "explicit shortest-path features require the dirac length "
                "kernel; brownian-bridge is implicit-only"
            )
    elif kernel == "graphlet":
        implicit = (
            "graphlet counts have no implicit scheme; their implicit "
            "counterpart is subgraph matching (--kernel subgraph-matching "
            "--connected-only)"
        )
        explicit = lambda: gram_explicit(ds, graphlet_features, "graphlet(3)/explicit")
    elif kernel == "subgraph-matching":
        name = f"subgraph-matching(max={max_size}){tag}"
        row = lambda g, hs: subgraph_matching_kernel(
            g, hs, vk, edges, max_size, connected_only=connected_only
        )
        implicit = lambda: gram_implicit(ds, row, f"{name}/implicit")
        explicit = lambda: gram_explicit(
            ds,
            lambda union: matching_features(union, max_size, connected_only),
            f"{name}/explicit",
        )
        if max_size > 5:
            # the class counter tries up to max_size! vertex orders per subgraph
            explicit = f"explicit subgraph matching stops at max_size 5, got {max_size}"
    else:
        # weighted vertex kernels
        weight_map = (
            graph_invariant_weight_maps(ds, wl_iters)
            if kernel == "graph-invariant"
            else graphhopper_weight_maps(ds)
        )
        name = f"{kernel}{tag}"
        row = lambda g, hs: wv_kernel_implicit(g, hs, weight_map, vk)
        implicit = lambda: gram_implicit(ds, row, f"{name}/implicit")
        features = per_graph(lambda g: wv_features_explicit(g, weight_map, vk))
        explicit = lambda: gram_explicit(ds, features, f"{name}/explicit")
        if vk.kind in ("hat", "rbf"):
            explicit = (
                f"the {vk.kind} vertex kernel has no exact finite feature map; "
                f"use --vertex-kernel binned for the explicit scheme"
            )
        return KernelPlan(implicit, explicit)
    if tag:
        # the explicit maps above count vertex labels
        explicit = (
            f"explicit {kernel} features count vertex labels; "
            f"--vertex-kernel {vertex_kernel} has no explicit {kernel} map"
        )
    return KernelPlan(implicit, explicit)


def max_relative_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """max_ij |a_ij - b_ij| / max(1, |a_ij|); 0.0 for empty matrices."""
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(a))).max(initial=0.0))


def _median_time(
    build: Callable[[], GramMatrix], reps: int
) -> Tuple[float, float, GramMatrix]:
    """Median wall time of ``reps`` builds, the distance between their
    quartiles (0.0 for one rep), and the last Gram."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        gram = build()
        times.append(time.perf_counter() - start)
    spread = 0.0
    if reps > 1:
        low, _, high = statistics.quantiles(times, n=4, method="inclusive")
        spread = high - low
    return statistics.median(times), spread, gram


@dataclass
class Axis:
    """One row of :data:`AXES`.

    Datasets come from ``generate_synthetic_<generator>``, and each cell
    times ``kernel_plan(kernel, ...)`` two ways.  A grid value sets
    ``keyword``: a generator keyword draws a fresh dataset per value from
    seed ``seed + step``, a :func:`kernel_plan` keyword reuses the one
    dataset drawn from ``seed``.  ``dataset`` and ``plan`` are the fixed
    generator and plan keywords; ``desk`` and ``full`` give each scale's
    ``sizes`` and ``grid``, and any generator keywords that scale sets.
    """

    generator: str
    kernel: str
    keyword: str
    dataset: Dict[str, object]
    plan: Dict[str, object]
    desk: Dict[str, object]
    full: Dict[str, object]


AXES = {
    # vertex-label diversity at a fixed walk length: low diversity floods the
    # product graphs (implicit pays), high diversity the feature space (explicit)
    "pv": Axis(
        "labeled", "walk", "p_vertex",
        dataset={"mean_vertices": 20.0, "edge_prob": 0.1},
        plan={"length": 7},
        desk={"sizes": (50, 100, 150), "grid": (0.0, 0.3, 0.6, 0.9)},
        full={"sizes": tuple(range(100, 301, 20)), "grid": tuple(i / 10 for i in range(10))},
    ),
    # walk length on molecular-style labels (a skewed three-letter alphabet)
    "length": Axis(
        "labeled", "walk", "length",
        dataset={"p_vertex": 0.4, "mean_vertices": 20.0, "edge_prob": 0.1},
        plan={},
        desk={"sizes": (50, 100), "grid": (1, 2, 3, 5, 7)},
        full={"sizes": (100, 200, 300), "grid": tuple(range(1, 11))},
    ),
    # label-alphabet size, subgraph matching (connected, up to 3 vertices):
    # small alphabets blow up the association graph whose cliques the
    # implicit scheme enumerates, so this axis is the hardest on that side
    "alphabet": Axis(
        "alphabet", "subgraph-matching", "alphabet_size",
        dataset={},
        plan={"max_size": 3, "connected_only": True},
        desk={"sizes": (20, 40), "grid": (1, 2, 4, 8, 16), "mean_vertices": 15.0,
              "edge_prob": 0.3},
        full={"sizes": (100, 200, 300), "grid": (1, 2, 3, 4, 5, 10, 15, 20, 30, 45, 65),
              "mean_vertices": 60.0, "edge_prob": 0.5},
    ),
    # label-alphabet size on the walk kernel: vertex and edge labels share
    # the alphabet, so the explicit space grows as size**(2 * length + 1)
    # while the product graphs shrink; unlike pv, diversity grows with
    # every step of the grid
    "walk-alphabet": Axis(
        "alphabet", "walk", "alphabet_size",
        dataset={"mean_vertices": 15.0, "edge_prob": 0.3},
        plan={"length": 4},
        desk={"sizes": (20, 40), "grid": (1, 2, 4, 8, 16)},
        full={"sizes": (100, 200, 300), "grid": (1, 2, 3, 4, 5, 10, 15, 20, 30, 45, 65)},
    ),
    # subgraph size, subgraph matching (connected) on a 20-letter alphabet:
    # the explicit classes multiply with the size, the implicit cliques
    # stay rare while labels seldom match
    "size": Axis(
        "alphabet", "subgraph-matching", "max_size",
        dataset={"alphabet_size": 20, "mean_vertices": 15.0, "edge_prob": 0.3},
        plan={"connected_only": True},
        desk={"sizes": (20, 40), "grid": (1, 2, 3, 4, 5)},
        full={"sizes": (100, 200, 300), "grid": (1, 2, 3, 4, 5)},
    ),
}


def sweep(
    axis: str,
    sizes: Optional[Sequence[int]] = None,
    grid: Optional[Sequence] = None,
    *,
    full_scale: bool = False,
    length: Optional[int] = None,
    p_vertex: Optional[float] = None,
    mean_vertices: Optional[float] = None,
    edge_prob: Optional[float] = None,
    reps: int = 5,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Time both schemes at every (grid value, size) cell of ``AXES[axis]``.

    ``sizes`` and ``grid`` default to the row's desk-scale values, or its
    full-scale ones with ``full_scale``.  ``length``, ``p_vertex``,
    ``mean_vertices`` and ``edge_prob`` replace a fixed keyword of the row;
    one the row does not fix is a ParameterError.  Both builders of a
    cell's plan are timed as the median of ``reps`` runs, with the
    distance between the runs' quartiles beside it, so a winner can be
    read against the spread; a row's discrepancy is 0.0 wherever the
    kernel is exact on both schemes.
    """
    if axis not in AXES:
        raise ParameterError(f"unknown sweep axis {axis!r} (expected one of {tuple(AXES)})")
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    row = AXES[axis]
    scale = dict(row.full if full_scale else row.desk)
    default_sizes, default_grid = scale.pop("sizes"), scale.pop("grid")
    sizes = sorted(default_sizes if sizes is None else sizes)
    if not sizes:
        raise ParameterError("sizes must name at least one dataset size")
    data_kw, plan_kw = {**row.dataset, **scale}, dict(row.plan)
    given = dict(length=length, p_vertex=p_vertex, mean_vertices=mean_vertices,
                 edge_prob=edge_prob)
    for key, value in given.items():
        if value is None:
            continue
        fixed = next((kw for kw in (plan_kw, data_kw) if key in kw), None)
        if fixed is None:
            raise ParameterError(f"the {axis} axis takes no {key}; it fixes "
                                 f"{', '.join([*data_kw, *plan_kw])}")
        fixed[key] = value
    # looked up per call, so replacing a module attribute (as a tracer or a
    # test does) reaches the sweep, as it reaches kernel_plan's builders
    generators = {"labeled": generate_synthetic_labeled, "alphabet": generate_synthetic_alphabet}
    generate = generators[row.generator]
    per_value = row.keyword in inspect.signature(generate).parameters
    rows = []
    for step, value in enumerate(default_grid if grid is None else grid):
        (data_kw if per_value else plan_kw)[row.keyword] = value
        if per_value or step == 0:
            drawn = generate(sizes[-1], seed=seed + step, **data_kw)
        for size in sizes:
            plan = kernel_plan(row.kernel, drawn.subset(size), **plan_kw)
            builds = [plan.builder(regime) for regime in REGIMES]
            (implicit_seconds, implicit_iqr, gram_i), (explicit_seconds, explicit_iqr, gram_e) = [
                _median_time(build, reps) for build in builds
            ]
            winner = "implicit" if implicit_seconds < explicit_seconds else "explicit"
            discrepancy = max_relative_discrepancy(gram_i.values, gram_e.values)
            cells = (axis, value, size, implicit_seconds, explicit_seconds, implicit_iqr,
                     explicit_iqr, winner, discrepancy)
            rows.append(dict(zip(_COLUMNS, cells)))
            if progress:
                progress(
                    f"{axis}={value:g} size={size}: implicit "
                    f"{implicit_seconds:.3f}s explicit {explicit_seconds:.3f}s "
                    f"-> {winner}"
                )
    return rows


def write_sweep_csv(rows: List[Dict[str, object]], path: str) -> str:
    """Write sweep rows as CSV with a stable column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return path
