"""Timing sweeps comparing the two computation schemes.

Each sweep builds synthetic datasets along one axis (vertex-label
diversity, walk length, or label-alphabet size) and dataset-size axis,
computes the same Gram matrix with the implicit and the explicit scheme,
and records the median wall time of each over repeated runs (medians are
robust against scheduler noise).  Rows also carry the largest entrywise
relative discrepancy between the two matrices, so a sweep doubles as an
end-to-end consistency check.

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
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .gram import GramMatrix, gram_explicit, gram_implicit
from .graphs import generate_synthetic_alphabet, generate_synthetic_labeled
from .kernels import EdgeKernelSpec, VertexKernelSpec
from .subgraphs import graphlet_features, subgraph_matching_kernel
from .walks import walk_features_explicit, walk_kernel_row

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


def _median_time(
    build: Callable[[], GramMatrix], reps: int
) -> "tuple[float, GramMatrix]":
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    times = []
    gram: Optional[GramMatrix] = None
    for _ in range(reps):
        start = time.perf_counter()
        gram = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), gram


def max_relative_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """max_ij |a_ij - b_ij| / max(1, |a_ij|)."""
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(a))).max())


def _row(
    axis: str,
    value,
    size: int,
    implicit_seconds: float,
    explicit_seconds: float,
    discrepancy: float,
) -> Dict[str, object]:
    return {
        "axis": axis,
        "value": value,
        "size": size,
        "implicit_seconds": implicit_seconds,
        "explicit_seconds": explicit_seconds,
        "winner": "implicit" if implicit_seconds < explicit_seconds else "explicit",
        "max_rel_discrepancy": discrepancy,
    }


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
    vertex_kernel = VertexKernelSpec("dirac")
    edge_kernel = EdgeKernelSpec("dirac")
    rows = []
    for step, p_vertex in enumerate(grid):
        full = generate_synthetic_labeled(
            max(sizes),
            mean_vertices=mean_vertices,
            edge_prob=edge_prob,
            p_vertex=p_vertex,
            seed=seed + step,
        )
        for size in sorted(sizes):
            ds = full.subset(size)
            implicit_seconds, gram_i = _median_time(
                lambda: gram_implicit(
                    ds,
                    lambda a, hs: walk_kernel_row(
                        a, hs, vertex_kernel, edge_kernel, length
                    ),
                    f"walk(l={length})/implicit",
                    rows=True,
                ),
                reps,
            )
            explicit_seconds, gram_e = _median_time(
                lambda: gram_explicit(
                    ds,
                    lambda a: walk_features_explicit(a, length),
                    f"walk(l={length})/explicit",
                ),
                reps,
            )
            rows.append(
                _row(
                    "pv",
                    p_vertex,
                    size,
                    implicit_seconds,
                    explicit_seconds,
                    max_relative_discrepancy(gram_i.values, gram_e.values),
                )
            )
            if progress:
                r = rows[-1]
                progress(
                    f"pv={p_vertex:g} size={size}: implicit "
                    f"{implicit_seconds:.3f}s explicit {explicit_seconds:.3f}s "
                    f"-> {r['winner']}"
                )
    return rows


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
    vertex_kernel = VertexKernelSpec("dirac")
    edge_kernel = EdgeKernelSpec("dirac")
    rows = []
    full = generate_synthetic_labeled(
        max(sizes),
        mean_vertices=mean_vertices,
        edge_prob=edge_prob,
        p_vertex=p_vertex,
        seed=seed,
    )
    for length in grid:
        for size in sorted(sizes):
            ds = full.subset(size)
            implicit_seconds, gram_i = _median_time(
                lambda: gram_implicit(
                    ds,
                    lambda a, hs: walk_kernel_row(
                        a, hs, vertex_kernel, edge_kernel, length
                    ),
                    f"walk(l={length})/implicit",
                    rows=True,
                ),
                reps,
            )
            explicit_seconds, gram_e = _median_time(
                lambda: gram_explicit(
                    ds,
                    lambda a: walk_features_explicit(a, length),
                    f"walk(l={length})/explicit",
                ),
                reps,
            )
            rows.append(
                _row(
                    "length",
                    length,
                    size,
                    implicit_seconds,
                    explicit_seconds,
                    max_relative_discrepancy(gram_i.values, gram_e.values),
                )
            )
            if progress:
                r = rows[-1]
                progress(
                    f"length={length} size={size}: implicit "
                    f"{implicit_seconds:.3f}s explicit {explicit_seconds:.3f}s "
                    f"-> {r['winner']}"
                )
    return rows


def alphabet_sweep(
    sizes: Sequence[int] = DESK_GRIDS["alphabet"]["sizes"],
    grid: Sequence[int] = DESK_GRIDS["alphabet"]["grid"],
    mean_vertices: float = 15.0,
    edge_prob: float = 0.3,
    reps: int = 3,
    seed: int = 13,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Size-3 subgraph kernels across label-alphabet size.

    Implicit: subgraph matching (cliques of the association graph, exact
    size 3, connectedness filter).  Explicit: canonical counts of
    connected 3-vertex subgraphs.  Small alphabets blow up the
    association graph, so this axis is the hardest on the implicit side;
    the two kernels weight mappings differently (automorphisms), so no
    discrepancy is reported here.
    """
    vertex_kernel = VertexKernelSpec("dirac")
    edge_kernel = EdgeKernelSpec("dirac")
    exact3 = {1: 0.0, 2: 0.0, 3: 1.0}
    rows = []
    for step, alphabet in enumerate(grid):
        full = generate_synthetic_alphabet(
            max(sizes),
            mean_vertices=mean_vertices,
            edge_prob=edge_prob,
            alphabet_size=alphabet,
            seed=seed + step,
        )
        for size in sorted(sizes):
            ds = full.subset(size)
            implicit_seconds, _ = _median_time(
                lambda: gram_implicit(
                    ds,
                    lambda a, b: subgraph_matching_kernel(
                        a,
                        b,
                        vertex_kernel,
                        edge_kernel,
                        max_size=3,
                        size_weights=lambda k: exact3.get(k, 0.0),
                        connected_only=True,
                    ),
                    "subgraph-matching(3)/implicit",
                ),
                reps,
            )
            explicit_seconds, _ = _median_time(
                lambda: gram_explicit(
                    ds, graphlet_features, "graphlet(3)/explicit"
                ),
                reps,
            )
            rows.append(
                _row("alphabet", alphabet, size, implicit_seconds, explicit_seconds, 0.0)
            )
            if progress:
                r = rows[-1]
                progress(
                    f"alphabet={alphabet} size={size}: implicit "
                    f"{implicit_seconds:.3f}s explicit {explicit_seconds:.3f}s "
                    f"-> {r['winner']}"
                )
    return rows


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
