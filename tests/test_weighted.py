"""Weighted vertex kernels: refinement weights and path-count weights."""

import random

import numpy as np
import pytest

from gkern import (
    ContractError,
    Dataset,
    Graph,
    GramError,
    MultiplicityOverflowError,
    VertexKernelSpec,
    attribute_class_features,
    binned_attribute_features,
    dot,
    gram_explicit,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    label_features,
    sample_binning_grid,
    wl_refine_dataset,
    wv_features_explicit,
    wv_kernel_implicit,
)
from gkern.features import TAG_GH, decode_key
from gkern.weighted import WeightFeatureMap
from conftest import make_random_graph
from oracles import oracle_color_histogram_kernel, oracle_hopper_tables

DIRAC = VertexKernelSpec("dirac")
DIRAC_ATTR = VertexKernelSpec("dirac-attributes")


def decoded_rows(wm, g):
    """Per vertex of ``g``: its weight row as {key payload: weight}."""
    columns, w = wm.matrix(g)
    keys = [wm.keys[c] for c in columns.tolist()]
    return [
        {decode_key(key)[1]: x for key, x in zip(keys, row) if x}
        for row in w.tolist()
    ]


def constructed(graphs, weight):
    """A one-column weight map giving every vertex of ``graphs`` ``weight``."""
    return WeightFeatureMap(
        "constructed",
        {0: b"w"},
        {
            id(x): (x, np.array([0]), np.full((x.n, 1), weight, dtype=np.int64))
            for x in graphs
        },
    )


class TestGraphInvariantWeights:
    def test_weight_counts_agreeing_strata(self):
        # on a uniform path, ends and center split after one iteration
        p3 = Graph(3, [(0, 1), (1, 2)])
        ds = Dataset("t", [p3])
        wm = graph_invariant_weight_maps(ds, 2)
        # same vertex: all 3 strata agree
        assert wm.weight(p3, 0, p3, 0) == 3.0
        # two ends agree everywhere
        assert wm.weight(p3, 0, p3, 2) == 3.0
        # end vs center: only the uniform stratum agrees
        assert wm.weight(p3, 0, p3, 1) == 1.0

    def test_dot_equals_common_prefix_of_color_trajectories(self):
        rng = random.Random(139)
        for trial in range(8):
            graphs = [make_random_graph(rng, max_n=7) for _ in range(3)]
            ds = Dataset("t", graphs)
            h = 3
            wm = graph_invariant_weight_maps(ds, h)
            assignment = wl_refine_dataset(ds, h, init="uniform")
            for gi, g in enumerate(graphs):
                for hi, g2 in enumerate(graphs):
                    for u in range(g.n):
                        for v in range(g2.n):
                            trajectory_u = [
                                int(assignment.at(gi, i)[u]) for i in range(h + 1)
                            ]
                            trajectory_v = [
                                int(assignment.at(hi, i)[v]) for i in range(h + 1)
                            ]
                            agree = sum(
                                a == b
                                for a, b in zip(trajectory_u, trajectory_v)
                            )
                            assert wm.weight(g, u, g2, v) == float(agree)

    def test_refinement_weights_ignore_vertex_labels(self):
        bare = Graph(3, [(0, 1), (1, 2)])
        tagged = Graph(3, [(0, 1), (1, 2)], vertex_labels=[5, 6, 7])
        wm = graph_invariant_weight_maps(Dataset("t", [bare, tagged]), 1)
        assert wm.weight(bare, 0, tagged, 2) == wm.weight(bare, 0, bare, 2)


class TestGraphHopperWeights:
    def test_single_edge_frozen_tables(self):
        e = Graph(2, [(0, 1)])
        ds = Dataset("t", [e])
        wm = graphhopper_weight_maps(ds)
        # trivial path, start of 0->1, end of 1->0
        assert decoded_rows(wm, e)[0] == {(1, 1): 1, (1, 2): 1, (2, 2): 1}
        columns, _ = wm.matrix(e)
        assert all(decode_key(wm.keys[c])[0] == TAG_GH for c in columns.tolist())
        # self weight: 1 + 1 + 1 = 3
        assert wm.weight(e, 0, e, 0) == 3.0

    def test_tables_match_oracle(self):
        rng = random.Random(149)
        for trial in range(10):
            g = make_random_graph(rng, max_n=7)
            ds = Dataset("t", [g])
            wm = graphhopper_weight_maps(ds)
            assert decoded_rows(wm, g) == oracle_hopper_tables(g)

    def test_table_side_is_the_dataset_longest_shortest_path(self):
        path3 = Graph(3, [(0, 1), (1, 2)])
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        # disconnected parts do not create infinite path lengths
        split = Graph(3, [(0, 1)])
        graphs = [triangle, Graph(0, []), split, path3]
        wm = graphhopper_weight_maps(Dataset("t", graphs))
        assert max(decode_key(key)[1][1] for key in wm.keys.values()) == 3
        # columns of the shorter graphs' tables are laid out on that side
        for g in graphs:
            assert decoded_rows(wm, g) == oracle_hopper_tables(g)

    def test_tables_shared_across_dataset(self):
        # one weight map covers several graphs with comparable keys
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(0, 1)])
        wm = graphhopper_weight_maps(Dataset("t", [a, b]))
        assert wm.weight(a, 0, b, 0) == 3.0

    def test_wrong_graph_is_rejected(self):
        a = Graph(2, [(0, 1)])
        wm = graphhopper_weight_maps(Dataset("t", [a]))
        clone = Graph(2, [(0, 1)])
        with pytest.raises(ContractError):
            wm.matrix(clone)


class TestWeightedKernels:
    def _attributed_dataset(self, rng, count=4, max_n=6):
        graphs = [
            make_random_graph(rng, max_n=max_n, attribute_dim=2, min_n=1)
            for _ in range(count)
        ]
        return Dataset("t", graphs)

    def test_implicit_matches_naive_double_sum(self):
        rng = random.Random(151)
        ds = self._attributed_dataset(rng)
        for wm in (
            graph_invariant_weight_maps(ds, 2),
            graphhopper_weight_maps(ds),
        ):
            for g in ds.graphs:
                for h in ds.graphs:
                    naive = sum(
                        wm.weight(g, u, h, v)
                        * DIRAC_ATTR.value(g, u, h, v)
                        for u in range(g.n)
                        for v in range(h.n)
                    )
                    got = wv_kernel_implicit(g, h, wm, DIRAC_ATTR)
                    assert got == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_refinement_weights_give_trajectory_histogram_kernel(self):
        # with a uniform attribute kernel the weighted sum counts vertex
        # pairs per agreeing stratum; cross-check via full trajectories
        rng = random.Random(157)
        graphs = [make_random_graph(rng, max_n=6) for _ in range(3)]
        ds = Dataset("t", graphs)
        h_iters = 2
        wm = graph_invariant_weight_maps(ds, h_iters)
        assignment = wl_refine_dataset(ds, h_iters, init="uniform")
        for gi, g in enumerate(graphs):
            for hi, h in enumerate(graphs):
                per_stratum = 0
                for i in range(h_iters + 1):
                    per_stratum += oracle_color_histogram_kernel(
                        [[int(c)] for c in assignment.at(gi, i)],
                        [[int(c)] for c in assignment.at(hi, i)],
                    )
                total = sum(
                    wm.weight(g, u, h, v)
                    for u in range(g.n)
                    for v in range(h.n)
                )
                assert total == float(per_stratum)

    def test_explicit_matches_implicit_with_exact_feature_maps(self):
        rng = random.Random(163)
        ds = self._attributed_dataset(rng, count=5)
        class_map = attribute_class_features(ds)
        for wm in (
            graph_invariant_weight_maps(ds, 3),
            graphhopper_weight_maps(ds),
        ):
            vectors = [wv_features_explicit(g, wm, class_map) for g in ds.graphs]
            for i, g in enumerate(ds.graphs):
                for j, h in enumerate(ds.graphs):
                    implicit = wv_kernel_implicit(g, h, wm, DIRAC_ATTR)
                    explicit = dot(vectors[i], vectors[j])
                    assert explicit == pytest.approx(
                        implicit, rel=1e-9, abs=1e-12
                    )

    def test_label_features_realize_dirac_on_labels(self):
        rng = random.Random(167)
        graphs = [make_random_graph(rng, max_n=6, labels=2) for _ in range(4)]
        ds = Dataset("t", graphs)
        wm = graph_invariant_weight_maps(ds, 2)
        vectors = [wv_features_explicit(g, wm, label_features) for g in ds.graphs]
        for i, g in enumerate(ds.graphs):
            for j, h in enumerate(ds.graphs):
                implicit = wv_kernel_implicit(g, h, wm, DIRAC)
                assert dot(vectors[i], vectors[j]) == pytest.approx(
                    implicit, rel=1e-12, abs=1e-12
                )

    def test_binned_features_realize_binned_kernel(self):
        # P = 4 is a power of four, so the binned dot is exact and the
        # explicit scheme must reproduce the implicit binned kernel to
        # the last bit of accumulation order
        rng = random.Random(173)
        ds = self._attributed_dataset(rng, count=4, max_n=5)
        grid = sample_binning_grid(2, 1.0, 4, seed=5)
        binned = VertexKernelSpec("binned", grid=grid)
        feature_map = binned_attribute_features(grid)
        wm = graphhopper_weight_maps(ds)
        for g in ds.graphs:
            for h in ds.graphs:
                implicit = wv_kernel_implicit(g, h, wm, binned)
                explicit = dot(
                    wv_features_explicit(g, wm, feature_map),
                    wv_features_explicit(h, wm, feature_map),
                )
                assert explicit == pytest.approx(implicit, rel=1e-12, abs=1e-12)

    def test_attribute_class_map_requires_known_rows(self):
        a = Graph(2, [(0, 1)], vertex_attributes=[[0.0], [1.0]])
        ds = Dataset("t", [a])
        class_map = attribute_class_features(ds)
        stranger = Graph(1, [], vertex_attributes=[[0.5]])
        with pytest.raises(ContractError):
            class_map(stranger, 0)
        missing = Dataset("t", [Graph(1, [])])
        with pytest.raises(ContractError):
            attribute_class_features(missing)

    def test_binned_features_require_attributes(self):
        grid = sample_binning_grid(1, 1.0, 4, seed=2)
        feature_map = binned_attribute_features(grid)
        with pytest.raises(ContractError):
            feature_map(Graph(1, []), 0)


def test_dirac_total_reaching_2_53_raises():
    g, h = Graph(1, []), Graph(1, [])
    # <w, w> = 2**52 is exact, 2**54 is not
    assert wv_kernel_implicit(g, h, constructed((g, h), 2**26), DIRAC) == 2**52
    with pytest.raises(MultiplicityOverflowError, match="2\\*\\*53"):
        wv_kernel_implicit(g, h, constructed((g, h), 2**27), DIRAC)
    # a non-Dirac vertex kernel makes no exactness claim
    grid = sample_binning_grid(1, 1.0, 4, seed=2)
    a = Graph(1, [], vertex_attributes=[[0.5]])
    b = Graph(1, [], vertex_attributes=[[0.5]])
    binned = constructed((a, b), 2**27)
    assert wv_kernel_implicit(a, b, binned, VertexKernelSpec("binned", grid=grid)) == 2**54


def test_explicit_self_dot_reaching_2_53_fails_its_pair():
    g = Graph(1, [])
    ds = Dataset("t", [g])

    def gram(weight):
        wm = constructed([g], weight)
        return gram_explicit(ds, lambda x: wv_features_explicit(x, wm, label_features))

    # the weights reach the Gram as Python ints, so the integer guard holds
    vector = wv_features_explicit(g, constructed([g], 2**27), label_features)
    assert [type(w) for w in vector.entries.values()] == [int]
    assert gram(2**26).values[0, 0] == 2**52
    with pytest.raises(GramError, match=r"pair \(0, 0\) failed") as info:
        gram(2**27)
    assert isinstance(info.value.__cause__, MultiplicityOverflowError)
