"""Workloads of the gkern benchmark.

Each workload names a synthetic dataset (drawn from the workload seed and
written to disk in the TU layout during set-up) and the ``gkern compute``
calls one round makes on it.  Every call runs a single scheme, so its wall
time is that scheme's end-to-end cost: TU load, per-dataset preparation,
the Gram itself and the CSV export.  Why each workload exists is recorded
in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

REGIMES = ("implicit", "explicit")


@dataclass(frozen=True)
class Call:
    """One kernel of a round, run once per listed regime."""

    label: str
    args: Tuple[str, ...]
    regimes: Tuple[str, ...] = REGIMES
    # Dirac kernels whose two schemes must export identical CSVs.
    compare: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "labeled" or "alphabet"
    params: Dict[str, float]
    count: int
    smoke_count: int
    calls: Tuple[Call, ...]


WALK7 = Call("walk", ("--kernel", "walk", "--length", "7"))
LABELED = {"mean_vertices": 20.0, "edge_prob": 0.1}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Uniform labels flood the product graph; explicit stores one
        # feature per graph.
        Workload(
            "walk-uniform",
            "labeled",
            {**LABELED, "p_vertex": 0.0},
            count=150,
            smoke_count=10,
            calls=(WALK7,),
        ),
        # Diverse labels: explicit pays for the dict feature map and the dot
        # loop; implicit builds small product graphs, so per-pair overhead
        # dominates it.
        Workload(
            "walk-diverse",
            "labeled",
            {**LABELED, "p_vertex": 0.6},
            count=150,
            smoke_count=10,
            calls=(WALK7,),
        ),
        # The only workload reaching shortest_paths, wl, weighted and
        # subgraphs; sp uses walks as a length-1 walk on dense transforms.
        Workload(
            "families",
            "alphabet",
            {"mean_vertices": 15.0, "edge_prob": 0.25, "alphabet_size": 20},
            count=80,
            smoke_count=8,
            calls=(
                Call("sp", ("--kernel", "sp")),
                Call("graph-invariant", ("--kernel", "graph-invariant", "--wl-iters", "3")),
                Call("graphhopper", ("--kernel", "graphhopper")),
                # Implicit graphlet recomputes both graphs' vectors for every
                # pair and would swamp the round, so the graphlet map is paired
                # with subgraph matching, as the alphabet sweep pairs them.
                Call("graphlet", ("--kernel", "graphlet"), ("explicit",), compare=False),
                Call(
                    "subgraph-matching",
                    ("--kernel", "subgraph-matching", "--connected-only"),
                    ("implicit",),
                    compare=False,
                ),
            ),
        ),
    )
}
