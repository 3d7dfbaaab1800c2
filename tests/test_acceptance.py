"""Acceptance suite: the ten contract criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also enforces its runtime budget.  Criteria 1-6 produce
exact-kernel Gram matrices which criterion 9 re-checks for positive
semidefiniteness, so those computations are cached module-wide.
"""

import functools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from gkern import (
    Dataset,
    EdgeKernelSpec,
    Graph,
    VertexKernelSpec,
    gram_explicit,
    gram_implicit,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    graphlet_features,
    load_tu_dataset,
    min_eigenvalue_estimate,
    per_graph,
    sample_binning_grid,
    sp_features_explicit,
    sp_transform,
    subgraph_matching_kernel,
    walk_features_explicit,
    walk_kernel_implicit,
    wv_features_explicit,
    wv_kernel_implicit,
)
from gkern.bench import AXES, max_relative_discrepancy, sweep
from conftest import make_random_graph
from oracles import (
    dirac_fn,
    dot,
    oracle_graphlet_kernel,
    oracle_sp_kernel,
    oracle_subgraph_matching,
    oracle_total_walks,
    oracle_triple_automorphisms,
    oracle_triple_class_counts,
    oracle_triple_class_reps,
    oracle_walk_kernel,
)

DIRAC = VertexKernelSpec("dirac")
DIRAC_EDGE = EdgeKernelSpec("dirac")
UNIFORM_EDGE = EdgeKernelSpec("uniform")
DIRAC_ATTR = VertexKernelSpec("dirac-attributes")

_EXACT_INTEGER_BOUND = float(1 << 52)


def _report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} — {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _budget(number: int, name: str, started: float, limit_seconds: float) -> float:
    elapsed = time.perf_counter() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} ({name}) took {elapsed:.1f}s, "
        f"budget {limit_seconds:.0f}s"
    )
    return elapsed


# --------------------------------------------------------------------------
# shared, cached computations (criterion 9 re-checks these Gram matrices)
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _walk_equivalence_grams():
    """Criterion 1 data: per length, the two scheme Gram matrices."""
    rng = random.Random(1001)
    ds = Dataset(
        "walk-equivalence",
        [
            make_random_graph(
                rng, max_n=20, edge_prob=0.12, labels=3, edge_label_count=2
            )
            for _ in range(30)
        ],
    )
    per_length = []
    for length in range(9):
        implicit = gram_implicit(
            ds,
            lambda g, hs, l=length: walk_kernel_implicit(g, hs, DIRAC, DIRAC_EDGE, l),
            f"walk(l={length})/implicit",
        )
        explicit = gram_explicit(
            ds,
            lambda union, l=length: walk_features_explicit(union, l),
            f"walk(l={length})/explicit",
        )
        per_length.append((length, implicit, explicit))
    return per_length


@functools.lru_cache(maxsize=None)
def _walk_oracle_data():
    """Criterion 2 data: pairwise values vs the brute-force oracle."""
    rng = random.Random(1002)
    graphs = [
        make_random_graph(rng, max_n=8, edge_prob=0.35, labels=2, edge_label_count=2)
        for _ in range(10)
    ]
    half_table = EdgeKernelSpec("table", table=((0, 1, 0.5),))

    def half_fn(a, b):
        if (a, b) in ((0, 1), (1, 0)):
            return 0.5
        return dirac_fn(a, b)

    kernels = (("dirac-edges", DIRAC_EDGE, dirac_fn), ("half-weight", half_table, half_fn))
    worst = 0.0
    grams = {}
    for name, spec, fn in kernels:
        for length in range(5):
            values = np.zeros((10, 10))
            for i, g in enumerate(graphs):
                for j in range(i, 10):
                    h = graphs[j]
                    got = walk_kernel_implicit(g, [h], DIRAC, spec, length)[0]
                    expected = oracle_walk_kernel(g, h, length, edge_kernel=fn)
                    scale = max(1.0, abs(expected))
                    worst = max(worst, abs(got - expected) / scale)
                    values[i, j] = values[j, i] = got
            grams[(name, length)] = values
    return worst, grams


@functools.lru_cache(maxsize=None)
def _factorization_data():
    """Criterion 3 data: kernel values vs products of walk counts."""
    # Sized so the length-6 walk counts keep Gram entries near 1e6: these
    # matrices are exactly rank-1, and the PSD diagnostic's absolute
    # tolerance is only meaningful while float64 round-off (eps * ||K||)
    # stays well below it.
    rng = random.Random(1003)
    graphs = [
        make_random_graph(
            rng, max_n=8, edge_prob=0.25, labels=None, edge_label_count=None
        )
        for _ in range(20)
    ]
    counts = {
        (idx, length): oracle_total_walks(g, length)
        for idx, g in enumerate(graphs)
        for length in range(7)
    }
    mismatches = 0
    grams = {}
    for length in range(7):
        values = np.zeros((20, 20))
        for i, g in enumerate(graphs):
            for j in range(i, 20):
                got = walk_kernel_implicit(g, [graphs[j]], DIRAC, UNIFORM_EDGE, length)[0]
                expected = float(counts[(i, length)] * counts[(j, length)])
                if got != expected:
                    mismatches += 1
                values[i, j] = values[j, i] = got
        grams[length] = values
    return mismatches, grams


@functools.lru_cache(maxsize=None)
def _sp_equivalence_grams():
    """Criterion 4 data: the two shortest-path scheme Gram matrices."""
    rng = random.Random(1004)
    ds = Dataset(
        "sp-equivalence",
        [make_random_graph(rng, max_n=12, labels=3) for _ in range(30)],
    )
    transformed = Dataset(ds.name, [sp_transform(g) for g in ds.graphs])
    implicit = gram_implicit(
        transformed,
        lambda g, hs: walk_kernel_implicit(g, hs, DIRAC, DIRAC_EDGE, 1),
        "sp/implicit",
    )
    explicit = gram_explicit(ds, sp_features_explicit, "sp/explicit")
    return implicit, explicit


@functools.lru_cache(maxsize=None)
def _subgraph_data():
    """Criterion 5 data: matching and graphlet values vs one oracle."""
    rng = random.Random(1005)
    graphs = [
        make_random_graph(rng, max_n=10, labels=2, edge_label_count=2)
        for _ in range(15)
    ]
    class_counts = [oracle_triple_class_counts(g) for g in graphs]
    reps = {}
    for g in graphs:
        reps.update(oracle_triple_class_reps(g))
    automorphisms = {
        cls: oracle_triple_automorphisms(labels, edges)
        for cls, (labels, edges) in reps.items()
    }
    features = graphlet_features(graphs)
    vectors = [features.vector(i) for i in range(len(graphs))]
    matching_mismatch = 0
    graphlet_mismatch = 0
    matching_gram = np.zeros((15, 15))
    graphlet_gram = np.zeros((15, 15))
    exact_three = lambda k: 1.0 if k == 3 else 0.0
    for i, g in enumerate(graphs):
        for j in range(i, 15):
            h = graphs[j]
            got_matching = subgraph_matching_kernel(
                g,
                [h],
                DIRAC,
                DIRAC_EDGE,
                max_size=3,
                size_weights=exact_three,
                connected_only=True,
            )[0]
            expected_matching = float(
                sum(
                    cnt * class_counts[j].get(cls, 0) * automorphisms[cls]
                    for cls, cnt in class_counts[i].items()
                )
            )
            if got_matching != expected_matching:
                matching_mismatch += 1
            got_graphlet = dot(vectors[i], vectors[j])
            if got_graphlet != oracle_graphlet_kernel(g, h):
                graphlet_mismatch += 1
            matching_gram[i, j] = matching_gram[j, i] = got_matching
            graphlet_gram[i, j] = graphlet_gram[j, i] = got_graphlet
    return matching_mismatch, graphlet_mismatch, matching_gram, graphlet_gram


@functools.lru_cache(maxsize=None)
def _weighted_grams():
    """Criterion 6 data: implicit/explicit Gram pairs per weight map."""
    rng = random.Random(1006)
    ds = Dataset(
        "weighted-equivalence",
        [
            make_random_graph(
                rng, max_n=12, attribute_dim=2, attribute_levels=3, labels=None
            )
            for _ in range(20)
        ],
    )
    out = []
    for name, wm in (
        ("refinement-h3", graph_invariant_weight_maps(ds, 3)),
        ("path-counts", graphhopper_weight_maps(ds)),
    ):
        implicit = gram_implicit(
            ds,
            lambda g, hs, w=wm: wv_kernel_implicit(g, hs, w, DIRAC_ATTR),
            f"{name}/implicit",
        )
        explicit = gram_explicit(
            ds,
            per_graph(lambda g, w=wm: wv_features_explicit(g, w, DIRAC_ATTR)),
            f"{name}/explicit",
        )
        out.append((name, implicit, explicit))
    return out


# --------------------------------------------------------------------------
# the ten criteria
# --------------------------------------------------------------------------


def test_criterion_01_walk_scheme_equivalence():
    started = time.perf_counter()
    per_length = _walk_equivalence_grams()
    peak = 0.0
    exact = True
    for length, implicit, explicit in per_length:
        peak = max(peak, float(np.abs(implicit.values).max()))
        if not (implicit.values == explicit.values).all():
            exact = False
    assert peak < _EXACT_INTEGER_BOUND, (
        f"walk counts reached {peak:.3e}; entrywise float64 equality would "
        f"no longer be an integer-exact statement"
    )
    elapsed = _budget(1, "walk scheme equivalence", started, 60)
    _report(
        1,
        "walk scheme equivalence",
        exact,
        f"30 labeled graphs, lengths 0..8, entrywise integer-exact "
        f"(largest count {peak:.3g}), {elapsed:.1f}s",
    )


def test_criterion_02_walk_kernel_oracle():
    started = time.perf_counter()
    worst, _ = _walk_oracle_data()
    elapsed = _budget(2, "walk kernel vs enumeration oracle", started, 60)
    _report(
        2,
        "walk kernel vs enumeration oracle",
        worst <= 1e-10,
        f"10 graphs, all pairs, lengths 0..4, Dirac and half-weight edge "
        f"kernels, max relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_uniform_label_factorization():
    started = time.perf_counter()
    mismatches, _ = _factorization_data()
    elapsed = _budget(3, "uniform-label factorization", started, 60)
    _report(
        3,
        "uniform-label factorization",
        mismatches == 0,
        f"20 unlabeled graphs, lengths 0..6, kernel equals the product of "
        f"walk counts exactly ({mismatches} mismatches), {elapsed:.1f}s",
    )


def test_criterion_04_shortest_path_equivalence():
    started = time.perf_counter()
    implicit, explicit = _sp_equivalence_grams()
    exact = (implicit.values == explicit.values).all()
    p3 = Graph(3, [(0, 1), (1, 2)])
    fixture = walk_kernel_implicit(
        sp_transform(p3), [sp_transform(p3)], DIRAC, DIRAC_EDGE, 1
    )[0]
    exact = bool(exact) and fixture == 20.0
    elapsed = _budget(4, "shortest-path scheme equivalence", started, 30)
    _report(
        4,
        "shortest-path scheme equivalence",
        exact,
        f"30 labeled graphs entrywise exact; uniform 3-path self-kernel "
        f"{fixture:g} (expected 20), {elapsed:.1f}s",
    )


def test_criterion_05_subgraph_consistency():
    started = time.perf_counter()
    matching_mismatch, graphlet_mismatch, _, _ = _subgraph_data()
    elapsed = _budget(5, "subgraph kernels vs counting oracle", started, 120)
    _report(
        5,
        "subgraph kernels vs counting oracle",
        matching_mismatch == 0 and graphlet_mismatch == 0,
        f"15 labeled graphs, all pairs: matching kernel equals "
        f"automorphism-weighted class agreement ({matching_mismatch} "
        f"mismatches), graphlet dot equals class-count agreement "
        f"({graphlet_mismatch} mismatches), {elapsed:.1f}s",
    )


def test_criterion_06_weighted_vertex_exactness():
    started = time.perf_counter()
    worst = 0.0
    for name, implicit, explicit in _weighted_grams():
        worst = max(
            worst, max_relative_discrepancy(implicit.values, explicit.values)
        )
    elapsed = _budget(6, "weighted-vertex scheme equivalence", started, 120)
    _report(
        6,
        "weighted-vertex scheme equivalence",
        worst <= 1e-9,
        f"20 attributed graphs, refinement (h=3) and path-count weights "
        f"with exact one-hot attribute maps, max relative discrepancy "
        f"{worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_binning_convergence():
    started = time.perf_counter()
    rng = random.Random(777)
    graphs = []
    for _ in range(20):
        n = rng.randint(6, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        attributes = [[rng.uniform(0.0, 2.0)] for _ in range(n)]
        graphs.append(Graph(n, edges, vertex_attributes=attributes))
    ds = Dataset("binning-set", graphs)
    delta = 1.5
    wm = graphhopper_weight_maps(ds)
    exact = gram_implicit(
        ds,
        lambda g, hs: wv_kernel_implicit(g, hs, wm, VertexKernelSpec("hat", delta=delta)),
        "hat/implicit",
    ).values

    upper = np.triu_indices(20)
    medians = []
    relative_at_64 = None
    for num_grids in (1, 4, 16, 64):
        grid = sample_binning_grid(1, delta, num_grids, seed=1000 + num_grids)
        approx = gram_explicit(
            ds,
            per_graph(
                lambda g, b=VertexKernelSpec("binned", grid=grid): wv_features_explicit(
                    g, wm, b
                )
            ),
            f"binned(P={num_grids})/explicit",
        ).values
        gaps = np.abs(approx - exact)[upper]
        medians.append(float(np.median(gaps)))
        if num_grids == 64:
            positive = exact[upper] > 0
            relative_at_64 = float(
                np.median((gaps[positive]) / exact[upper][positive])
            )

    non_increasing = all(
        later <= 1.10 * earlier for earlier, later in zip(medians, medians[1:])
    )
    ok = non_increasing and relative_at_64 <= 0.05
    elapsed = _budget(7, "binning approximation convergence", started, 300)
    median_text = ", ".join(f"{m:.3g}" for m in medians)
    _report(
        7,
        "binning approximation convergence",
        ok,
        f"median |approx - exact| over grids P=1,4,16,64: [{median_text}] "
        f"(non-increasing with 10% slack: {non_increasing}); median "
        f"relative discrepancy at P=64 is {relative_at_64:.3%} (<= 5%), "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_phase_transition():
    started = time.perf_counter()
    # the desk-scale pv row: walk length 7 across label diversity
    rows = sweep("pv", reps=3, seed=7)
    sizes = AXES["pv"].desk["sizes"]
    grid = AXES["pv"].desk["grid"]
    by_size = {
        size: [row for row in rows if row["size"] == size] for size in sizes
    }
    for size in sizes:
        by_size[size].sort(key=lambda row: row["value"])

    explicit_at_zero = all(
        by_size[size][0]["winner"] == "explicit" for size in sizes
    )
    largest = max(sizes)
    implicit_at_high = by_size[largest][-1]["winner"] == "implicit"
    max_flips = max(
        sum(
            1
            for a, b in zip(by_size[size], by_size[size][1:])
            if a["winner"] != b["winner"]
        )
        for size in sizes
    )
    agreement = max(row["max_rel_discrepancy"] for row in rows)
    ok = explicit_at_zero and implicit_at_high and max_flips <= 1
    elapsed = _budget(8, "computation-scheme phase transition", started, 600)
    _report(
        8,
        "computation-scheme phase transition",
        ok,
        f"sizes {sizes}, label diversity grid {grid}: explicit wins at 0.0 "
        f"for every size ({explicit_at_zero}), implicit wins at "
        f"{grid[-1]} for size {largest} ({implicit_at_high}), at most one "
        f"winner flip per size row (max {max_flips}); schemes agree to "
        f"{agreement:.1e}; {elapsed:.1f}s",
    )


def test_criterion_09_psd_diagnostics():
    started = time.perf_counter()
    pool = []
    for length, implicit, explicit in _walk_equivalence_grams():
        pool.append((f"walk(l={length})/implicit", implicit.values))
        pool.append((f"walk(l={length})/explicit", explicit.values))
    _, oracle_grams = _walk_oracle_data()
    for (name, length), values in oracle_grams.items():
        pool.append((f"walk({name},l={length})", values))
    _, factorization_grams = _factorization_data()
    for length, values in factorization_grams.items():
        pool.append((f"unlabeled-walk(l={length})", values))
    sp_implicit, sp_explicit = _sp_equivalence_grams()
    pool.append(("sp/implicit", sp_implicit.values))
    pool.append(("sp/explicit", sp_explicit.values))
    _, _, matching_gram, graphlet_gram = _subgraph_data()
    pool.append(("subgraph-matching", matching_gram))
    pool.append(("graphlet", graphlet_gram))
    for name, implicit, explicit in _weighted_grams():
        pool.append((f"{name}/implicit", implicit.values))
        pool.append((f"{name}/explicit", explicit.values))

    assert len(pool) >= 30
    floor = 0.0
    offender = None
    for name, values in pool:
        low = min_eigenvalue_estimate(values)
        if low < floor:
            floor = low
            offender = name
    ok = floor >= -1e-8
    elapsed = _budget(9, "positive semidefiniteness diagnostics", started, 120)
    _report(
        9,
        "positive semidefiniteness diagnostics",
        ok,
        f"{len(pool)} exact Gram matrices from criteria 1-6, smallest "
        f"eigenvalue estimate {floor:.2e}"
        + (f" ({offender})" if offender else "")
        + f", {elapsed:.1f}s",
    )


_FIXTURE_DIR = Path(__file__).parent / "data"
_MUTAG_CANDIDATES = (
    _FIXTURE_DIR / "MUTAG",
    Path("/root/pkg/data/MUTAG"),
)


def test_criterion_10_dataset_ingestion():
    started = time.perf_counter()
    ds = load_tu_dataset(str(_FIXTURE_DIR), "RINGCHAIN")
    s = ds.stats()
    ok = (
        s["graphs"] == 10
        and s["classes"] == 2
        and round(s["avg_vertices"], 1) == 4.1
        and round(s["avg_edges"], 1) == 3.6
        and s["vertex_labels"]
        and s["edge_labels"]
    )
    elapsed = _budget(10, "dataset ingestion", started, 60)
    _report(
        10,
        "dataset ingestion",
        ok,
        f"vendored 10-graph fixture: {s['graphs']} graphs, "
        f"{s['classes']} classes, avg |V| {s['avg_vertices']:.1f}, "
        f"avg |E| {s['avg_edges']:.1f}, {elapsed:.1f}s",
    )


def test_criterion_10_dataset_ingestion_reference_corpus():
    candidates = [p for p in _MUTAG_CANDIDATES if p.is_dir()]
    if not candidates:
        pytest.skip(
            "public molecular benchmark not available offline; the vendored "
            "fixture substituted in the previous test"
        )
    ds = load_tu_dataset(str(candidates[0].parent), candidates[0].name)
    s = ds.stats()
    assert s["graphs"] == 188
    assert s["classes"] == 2
    assert round(s["avg_vertices"], 1) == 17.9
    assert round(s["avg_edges"], 1) == 19.8
