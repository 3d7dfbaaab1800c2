"""Shared fixtures: small named graphs and independent random graphs.

Random inputs for property tests are drawn with :mod:`random` (stdlib),
so they do not depend on the package's own generator; each loop seeds its
own ``random.Random`` for reproducibility.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from gkern import Graph


def make_random_graph(
    rng: random.Random,
    max_n: int = 8,
    edge_prob: float = 0.4,
    labels: Optional[int] = 3,
    edge_label_count: Optional[int] = 2,
    attribute_dim: Optional[int] = None,
    attribute_levels: int = 4,
    min_n: int = 1,
) -> Graph:
    """A uniformly random graph; label/attribute alphabets are small so
    collisions (the interesting case for kernels) actually happen."""
    n = rng.randint(min_n, max_n)
    edges: List[Tuple[int, int]] = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    vertex_labels = (
        [rng.randrange(labels) for _ in range(n)] if labels else None
    )
    edge_labels = (
        [rng.randrange(edge_label_count) for _ in edges]
        if edge_label_count and edges
        else None
    )
    attributes = None
    if attribute_dim:
        attributes = np.array(
            [
                [rng.randrange(attribute_levels) / (attribute_levels - 1)
                 for _ in range(attribute_dim)]
                for _ in range(n)
            ],
            dtype=np.float64,
        )
    return Graph(
        n,
        edges,
        vertex_labels=vertex_labels,
        edge_labels=edge_labels,
        vertex_attributes=attributes,
    )


@st.composite
def graphs(draw, max_n: int = 5) -> Graph:
    """Hypothesis strategy for small labelled graphs, degenerate ones
    included: no vertices, no edges, one label, several components, and
    edge labels present or absent."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    alphabet = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    edge_labels = None
    if edges and draw(st.booleans()):
        edge_labels = draw(
            st.lists(st.integers(0, 1), min_size=len(edges), max_size=len(edges))
        )
    return Graph(n, edges, vertex_labels=labels, edge_labels=edge_labels)


@pytest.fixture
def single_edge() -> Graph:
    return Graph(2, [(0, 1)])


@pytest.fixture
def labeled_edge() -> Graph:
    return Graph(2, [(0, 1)], vertex_labels=[1, 2], edge_labels=[7])


@pytest.fixture
def triangle() -> Graph:
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def k4() -> Graph:
    return Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def disconnected() -> Graph:
    return Graph(5, [(0, 1), (2, 3)])
