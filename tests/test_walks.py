"""Fixed-length walk kernels: product-graph recursion vs. feature counts."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkern import (
    ContractError,
    EdgeKernelSpec,
    Graph,
    MultiplicityOverflowError,
    ParameterError,
    VertexKernelSpec,
    build_wdpg,
    dot,
    max_walk_kernel_implicit,
    walk_features_explicit,
    walk_kernel_implicit,
    walk_kernel_row,
)
from gkern.features import TAG_WALK, decode_key
from conftest import graphs, make_random_graph
from oracles import (
    dirac_fn,
    oracle_total_walks,
    oracle_walk_kernel,
    oracle_walk_label_counts,
    uniform_fn,
)

DIRAC = VertexKernelSpec("dirac")
DIRAC_EDGE = EdgeKernelSpec("dirac")
UNIFORM_EDGE = EdgeKernelSpec("uniform")


class TestProductGraph:
    def test_unlabeled_single_edges(self):
        # two single edges: 4 compatible pairs, 2 product edges
        g = Graph(2, [(0, 1)])
        pg = build_wdpg(g, Graph(2, [(0, 1)]), DIRAC, UNIFORM_EDGE)
        assert pg.num_vertices == 4
        assert pg.pairs.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert pg.num_edges == 2
        edges = {tuple(sorted(e)) for e in zip(pg.edge_u.tolist(), pg.edge_v.tolist())}
        assert edges == {(0, 3), (1, 2)}
        assert (pg.vertex_weights == 1.0).all()
        assert (pg.edge_weights == 1.0).all()

    def test_vertex_labels_restrict_pairs(self):
        g = Graph(2, [(0, 1)], vertex_labels=[0, 1])
        h = Graph(3, [(0, 1), (1, 2)], vertex_labels=[1, 0, 1])
        pg = build_wdpg(g, h, DIRAC, UNIFORM_EDGE)
        assert pg.pairs.tolist() == [[0, 1], [1, 0], [1, 2]]

    def test_edge_labels_restrict_edges(self):
        g = Graph(2, [(0, 1)], edge_labels=[5])
        same = Graph(2, [(0, 1)], edge_labels=[5])
        other = Graph(2, [(0, 1)], edge_labels=[6])
        assert build_wdpg(g, same, DIRAC, DIRAC_EDGE).num_edges == 2
        assert build_wdpg(g, other, DIRAC, DIRAC_EDGE).num_edges == 0
        # uniform edge kernel ignores the labels
        assert build_wdpg(g, other, DIRAC, UNIFORM_EDGE).num_edges == 2

    def test_pairs_sorted_lexicographically(self):
        rng = random.Random(41)
        for trial in range(10):
            g = make_random_graph(rng, max_n=6)
            h = make_random_graph(rng, max_n=6)
            pg = build_wdpg(g, h, DIRAC, DIRAC_EDGE)
            listed = [tuple(p) for p in pg.pairs.tolist()]
            assert listed == sorted(listed)

    def test_fast_and_generic_paths_agree(self):
        # a table kernel equal to Dirac everywhere forces the generic
        # construction; it must produce the same product graph as the
        # specialized all-weights-one path
        forced = EdgeKernelSpec("table", table=((10**6, 10**6 - 1, 0.0),))
        rng = random.Random(43)
        for trial in range(20):
            g = make_random_graph(rng, max_n=6, edge_label_count=2)
            h = make_random_graph(rng, max_n=6, edge_label_count=2)
            fast = build_wdpg(g, h, DIRAC, DIRAC_EDGE)
            slow = build_wdpg(g, h, DIRAC, forced)
            assert fast.pairs.tolist() == slow.pairs.tolist()
            assert (fast.vertex_weights == slow.vertex_weights).all()
            fe = {tuple(sorted(e)) for e in zip(fast.edge_u.tolist(), fast.edge_v.tolist())}
            se = {tuple(sorted(e)) for e in zip(slow.edge_u.tolist(), slow.edge_v.tolist())}
            assert fe == se

    def test_binary_kernels_gather_no_weights(self, monkeypatch):
        # Dirac and uniform kernels keep weight 1 wherever they keep a
        # pair, so the build reads their keep-masks and no value matrix
        def refuse(*args):
            raise AssertionError("a binary kernel's values were gathered")

        monkeypatch.setattr(VertexKernelSpec, "matrix", refuse)
        monkeypatch.setattr(EdgeKernelSpec, "matrix", refuse)
        g = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0], edge_labels=[2, 2])
        for edge_kernel in (DIRAC_EDGE, UNIFORM_EDGE):
            pg = build_wdpg(g, g, DIRAC, edge_kernel)
            assert pg.num_vertices == 5 and pg.num_edges == 4
            assert (pg.vertex_weights == 1.0).all() and (pg.edge_weights == 1.0).all()


class TestWalkKernelImplicit:
    def test_triangle_against_itself(self):
        # K3 has 3 * 2^l walks of length l; squared for the product:
        # l = 2 gives (3 * 4)^2 = 144
        k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert walk_kernel_implicit(k3, k3, DIRAC, UNIFORM_EDGE, 2) == 144.0

    def test_length_zero_counts_compatible_pairs(self):
        g = Graph(3, [(0, 1)])
        h = Graph(4, [])
        assert walk_kernel_implicit(g, h, DIRAC, UNIFORM_EDGE, 0) == 12.0
        lg = Graph(2, [], vertex_labels=[0, 1])
        lh = Graph(2, [], vertex_labels=[1, 1])
        assert walk_kernel_implicit(lg, lh, DIRAC, UNIFORM_EDGE, 0) == 2.0

    def test_labeled_edge_pair(self):
        g = Graph(2, [(0, 1)], vertex_labels=[1, 2], edge_labels=[7])
        assert walk_kernel_implicit(g, g, DIRAC, DIRAC_EDGE, 1) == 2.0

    def test_unlabeled_factorizes_into_walk_counts(self):
        # with all weights 1 the product-graph recursion counts pairs of
        # walks, so the kernel is (walks in g) * (walks in h)
        rng = random.Random(47)
        for trial in range(15):
            g = make_random_graph(rng, max_n=7, labels=1)
            h = make_random_graph(rng, max_n=7, labels=1)
            for length in (0, 1, 2, 4, 6):
                expected = float(
                    oracle_total_walks(g, length) * oracle_total_walks(h, length)
                )
                got = walk_kernel_implicit(g, h, DIRAC, UNIFORM_EDGE, length)
                assert got == expected

    def test_matches_oracle_on_labeled_graphs(self):
        rng = random.Random(53)
        for trial in range(12):
            g = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            h = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            for length in (0, 1, 2, 3):
                expected = oracle_walk_kernel(g, h, length)
                got = walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, length)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_matches_oracle_with_table_edge_kernel(self):
        half = EdgeKernelSpec("table", table=((0, 1, 0.5),))

        def half_fn(a, b):
            if (a, b) in ((0, 1), (1, 0)):
                return 0.5
            return dirac_fn(a, b)

        rng = random.Random(59)
        for trial in range(10):
            g = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            h = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            for length in (1, 2, 3):
                expected = oracle_walk_kernel(
                    g, h, length, edge_kernel=half_fn
                )
                got = walk_kernel_implicit(g, h, DIRAC, half, length)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_matches_oracle_with_uniform_edges(self):
        rng = random.Random(61)
        for trial in range(10):
            g = make_random_graph(rng, max_n=5, labels=3)
            h = make_random_graph(rng, max_n=5, labels=3)
            for length in (1, 3):
                expected = oracle_walk_kernel(
                    g, h, length, edge_kernel=uniform_fn
                )
                got = walk_kernel_implicit(g, h, DIRAC, UNIFORM_EDGE, length)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_rejects_negative_length(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError):
            walk_kernel_implicit(g, g, DIRAC, UNIFORM_EDGE, -1)


class TestWalkFeaturesExplicit:
    def test_single_edge_counts(self):
        g = Graph(2, [(0, 1)], vertex_labels=[1, 2], edge_labels=[7])
        vec = walk_features_explicit(g, 1)
        decoded = {decode_key(k): v for k, v in vec.entries.items()}
        assert decoded == {
            (TAG_WALK, (1, 1, 7, 2)): 1,
            (TAG_WALK, (1, 2, 7, 1)): 1,
        }
        assert dot(vec, vec) == 2

    def test_counts_match_oracle(self):
        rng = random.Random(67)
        for trial in range(12):
            g = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            for length in (0, 1, 2, 3):
                vec = walk_features_explicit(g, length)
                decoded = {}
                for key, count in vec.entries.items():
                    tag, payload = decode_key(key)
                    assert tag == TAG_WALK
                    assert payload[0] == length
                    decoded[payload[1:]] = count
                assert decoded == oracle_walk_label_counts(g, length)

    def test_lengths_never_collide(self):
        g = Graph(3, [(0, 1), (1, 2)])
        v1 = walk_features_explicit(g, 1)
        v2 = walk_features_explicit(g, 2)
        assert dot(v1, v2) == 0

    def test_dot_equals_implicit_kernel_exactly(self):
        rng = random.Random(71)
        for trial in range(15):
            g = make_random_graph(rng, max_n=7, labels=3, edge_label_count=2)
            h = make_random_graph(rng, max_n=7, labels=3, edge_label_count=2)
            for length in (0, 1, 2, 4):
                implicit = walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, length)
                explicit = dot(
                    walk_features_explicit(g, length),
                    walk_features_explicit(h, length),
                )
                assert implicit == explicit  # integer-exact

    def test_unlabeled_edges_share_pseudo_label(self):
        bare = Graph(2, [(0, 1)], vertex_labels=[1, 2])
        tagged = Graph(2, [(0, 1)], vertex_labels=[1, 2], edge_labels=[0])
        assert walk_features_explicit(bare, 2).entries == (
            walk_features_explicit(tagged, 2).entries
        )

    def test_attributes_only_graph_is_rejected(self):
        g = Graph(2, [(0, 1)], vertex_attributes=[[0.5], [0.25]])
        with pytest.raises(ContractError, match="implicit"):
            walk_features_explicit(g, 2)

    def test_rejects_negative_length(self):
        with pytest.raises(ParameterError):
            walk_features_explicit(Graph(1, []), -2)


class TestMaxWalkKernel:
    def test_sums_per_length_kernels(self):
        rng = random.Random(73)
        for trial in range(10):
            g = make_random_graph(rng, max_n=6, labels=2)
            h = make_random_graph(rng, max_n=6, labels=2)
            total = max_walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 4)
            by_parts = sum(
                walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, i) for i in range(5)
            )
            assert total == by_parts

    def test_coefficients_weight_each_length(self):
        g = Graph(3, [(0, 1), (1, 2)])
        coeffs = [1.0, 0.5, 0.25]
        expected = sum(
            c * walk_kernel_implicit(g, g, DIRAC, UNIFORM_EDGE, i)
            for i, c in enumerate(coeffs)
        )
        got = max_walk_kernel_implicit(
            g, g, DIRAC, UNIFORM_EDGE, 2, coefficients=coeffs
        )
        assert got == expected
        # zero coefficients select a single stratum
        only2 = max_walk_kernel_implicit(
            g, g, DIRAC, UNIFORM_EDGE, 2, coefficients=[0.0, 0.0, 1.0]
        )
        assert only2 == walk_kernel_implicit(g, g, DIRAC, UNIFORM_EDGE, 2)

    def test_explicit_scheme_via_per_length_features(self):
        # summing per-length feature dots reproduces the one-pass kernel
        rng = random.Random(79)
        for trial in range(8):
            g = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            h = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            implicit = max_walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 3)
            explicit = sum(
                dot(
                    walk_features_explicit(g, i),
                    walk_features_explicit(h, i),
                )
                for i in range(4)
            )
            assert implicit == explicit

    def test_validates_arguments(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError):
            max_walk_kernel_implicit(g, g, DIRAC, UNIFORM_EDGE, -1)
        with pytest.raises(ParameterError):
            max_walk_kernel_implicit(
                g, g, DIRAC, UNIFORM_EDGE, 2, coefficients=[1.0, 1.0]
            )


class TestDisconnectedAndEmpty:
    def test_empty_factor_graph(self):
        g = Graph(0, [])
        h = Graph(3, [(0, 1), (1, 2)])
        assert walk_kernel_implicit(g, h, DIRAC, UNIFORM_EDGE, 3) == 0.0
        assert walk_features_explicit(g, 3).nnz == 0

    def test_no_shared_labels(self):
        g = Graph(2, [(0, 1)], vertex_labels=[0, 0])
        h = Graph(2, [(0, 1)], vertex_labels=[1, 1])
        assert walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 1) == 0.0
        assert dot(
            walk_features_explicit(g, 1), walk_features_explicit(h, 1)
        ) == 0.0

    def test_walks_die_out_in_edgeless_graph(self):
        g = Graph(3, [])
        assert walk_kernel_implicit(g, g, DIRAC, UNIFORM_EDGE, 0) == 9.0
        assert walk_kernel_implicit(g, g, DIRAC, UNIFORM_EDGE, 1) == 0.0
        assert walk_kernel_implicit(g, g, DIRAC, UNIFORM_EDGE, 5) == 0.0


class TestWalkKernelRow:
    @settings(max_examples=60, deadline=None)
    @given(
        g=graphs(),
        hs=st.lists(graphs(), max_size=4),
        length=st.integers(0, 3),
        uniform_edges=st.booleans(),
    )
    def test_row_equals_pairs_and_oracle(self, g, hs, length, uniform_edges):
        edge_kernel = UNIFORM_EDGE if uniform_edges else DIRAC_EDGE
        row = walk_kernel_row(g, hs, DIRAC, edge_kernel, length)
        pairs = [walk_kernel_implicit(g, h, DIRAC, edge_kernel, length) for h in hs]
        assert row.tolist() == pairs  # bit for bit
        edge_fn = uniform_fn if uniform_edges else dirac_fn
        assert pairs == [oracle_walk_kernel(g, h, length, edge_kernel=edge_fn) for h in hs]
        if not uniform_edges:
            features = walk_features_explicit(g, length)
            assert pairs == [dot(features, walk_features_explicit(h, length)) for h in hs]

    @settings(max_examples=30, deadline=None)
    @given(g=graphs(), hs=st.lists(graphs(), max_size=4), length=st.integers(0, 3))
    def test_all_rounds_are_the_max_walk_terms(self, g, hs, length):
        rounds = walk_kernel_row(g, hs, DIRAC, DIRAC_EDGE, length, all_rounds=True)
        assert rounds.shape == (len(hs), length + 1)
        for h, terms in zip(hs, rounds.tolist()):
            assert terms == [
                walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, i) for i in range(length + 1)
            ]
            assert sum(terms) == max_walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, length)

    def test_weighted_kernels_batch_bit_for_bit(self):
        # non-integer edge weights: the row keeps each pair's summation order
        half = EdgeKernelSpec("table", table=((0, 1, 0.5),))
        rng = random.Random(83)
        g = make_random_graph(rng, max_n=7, labels=2, edge_label_count=2)
        hs = [make_random_graph(rng, max_n=7, labels=2, edge_label_count=2) for _ in range(8)]
        row = walk_kernel_row(g, hs, DIRAC, half, 4)
        assert row.tolist() == [walk_kernel_implicit(g, h, DIRAC, half, 4) for h in hs]

    def test_empty_row_and_negative_length(self):
        g = Graph(2, [(0, 1)])
        assert walk_kernel_row(g, [], DIRAC, UNIFORM_EDGE, 3).shape == (0,)
        with pytest.raises(ParameterError):
            walk_kernel_row(g, [g], DIRAC, UNIFORM_EDGE, -1)

    def test_totals_past_2_53_raise(self):
        # K20 has 20 * 19**6 ~ 9.4e8 walks of length 6, so its self-kernel
        # is ~8.8e17, beyond the exact float64 integers
        k20 = Graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
        with pytest.raises(MultiplicityOverflowError, match="partner 1"):
            walk_kernel_row(k20, [Graph(1, []), k20], DIRAC, UNIFORM_EDGE, 6)
        with pytest.raises(MultiplicityOverflowError):
            walk_kernel_implicit(k20, k20, DIRAC, UNIFORM_EDGE, 6)
        with pytest.raises(MultiplicityOverflowError):
            max_walk_kernel_implicit(k20, k20, DIRAC, UNIFORM_EDGE, 6)
        # one step shorter the count (~2.5e15) is still exact
        assert walk_kernel_implicit(k20, k20, DIRAC, UNIFORM_EDGE, 5) == (20 * 19**5) ** 2
