"""Iterative color refinement over a whole dataset.

Starting from an initial coloring — uniform, or the vertex labels — each
round replaces a vertex's color by a fresh dense integer standing for the
pair (own color, sorted multiset of neighbor colors).  The signature table
is shared across all graphs of the dataset, so colors are comparable
between graphs.  Within each iteration colors are numbered 0, 1, 2, ... in
ascending order of what they stand for: the labels at iteration 0, the
signatures after that.  So the colors do not depend on the order of the
graphs in the dataset.

Refinement is monotone: vertices with different colors at iteration i
never merge at iteration i+1, because the old color is part of the
signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .errors import ParameterError
from .graphs import Dataset


@dataclass
class ColorAssignment:
    """Colors per graph and refinement iteration.

    ``colors[g][i]`` is the int64 color array of graph ``g`` at iteration
    ``i`` (0 = initial coloring); ``colors_per_iteration[i]`` counts the
    distinct colors in stratum ``i``.
    """

    colors: List[List[np.ndarray]]
    colors_per_iteration: List[int]

    @property
    def iterations(self) -> int:
        """Number of refinement rounds performed (h)."""
        return len(self.colors_per_iteration) - 1

    @property
    def total_colors(self) -> int:
        """Total number of distinct colors over all strata."""
        return sum(self.colors_per_iteration)

    def at(self, graph_index: int, iteration: int) -> np.ndarray:
        return self.colors[graph_index][iteration]


def wl_refine_dataset(
    ds: Dataset, iterations: int, init: str = "labels"
) -> ColorAssignment:
    """Run ``iterations`` rounds of color refinement over ``ds``.

    ``init="labels"`` seeds iteration 0 with a dense re-coding of the
    vertex labels (an unlabeled graph reads as label 0); ``init="uniform"``
    ignores labels and starts from a single color, so the refinement sees
    pure structure.
    """
    if iterations < 0:
        raise ParameterError(f"iterations must be >= 0, got {iterations}")
    if init not in ("labels", "uniform"):
        raise ParameterError(f"init must be 'labels' or 'uniform', got {init!r}")

    labels = [
        g.vertex_label_array().tolist() if init == "labels" else [0] * g.n for g in ds.graphs
    ]
    recode = _ascending_codes(x for row in labels for x in row)
    current = [np.array([recode[x] for x in row], dtype=np.int64) for row in labels]
    per_graph: List[List[np.ndarray]] = [[c] for c in current]
    counts = [len(recode)]

    adjacency = [g.neighbor_lists() for g in ds.graphs]
    for _ in range(iterations):
        signatures: List[List[Tuple]] = []
        for adj, colors in zip(adjacency, current):
            lst = colors.tolist()
            signatures.append(
                [(c, tuple(sorted(lst[w] for w in nbrs))) for c, nbrs in zip(lst, adj)]
            )
        table = _ascending_codes(sig for row in signatures for sig in row)
        refined = [
            np.array([table[sig] for sig in row], dtype=np.int64) for row in signatures
        ]
        for rows, colors in zip(per_graph, refined):
            rows.append(colors)
        counts.append(len(table))
        current = refined

    return ColorAssignment(per_graph, counts)


def _ascending_codes(values: Iterable) -> Dict:
    """Dense codes 0, 1, 2, ... for the distinct ``values``, ascending."""
    return {value: code for code, value in enumerate(sorted(set(values)))}
