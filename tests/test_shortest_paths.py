"""Shortest-path kernels: transform, implicit evaluation, feature maps."""

import random

import pytest

from gkern import (
    ContractError,
    EdgeKernelSpec,
    Graph,
    INF_DISTANCE,
    ParameterError,
    ResourceBudgetError,
    VertexKernelSpec,
    all_pairs_shortest_paths,
    dirac_length_features,
    dot,
    sp_features_approx,
    sp_features_explicit,
    sp_kernel_implicit,
    sp_transform,
)
from gkern.features import TAG_SP, decode_key
from conftest import make_random_graph
from oracles import brownian_bridge_fn, oracle_sp_kernel

DIRAC = VertexKernelSpec("dirac")
DIRAC_LEN = EdgeKernelSpec("dirac")


class TestTransform:
    def test_path_graph_gains_distance_edges(self):
        p3 = Graph(3, [(0, 1), (1, 2)])
        t = sp_transform(p3)
        assert t.n == 3
        assert [tuple(e) for e in t.edges.tolist()] == [(0, 1), (0, 2), (1, 2)]
        by_pair = {
            tuple(e): int(l) for e, l in zip(t.edges.tolist(), t.edge_labels.tolist())
        }
        assert by_pair == {(0, 1): 1, (1, 2): 1, (0, 2): 2}

    def test_unreachable_pairs_stay_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        t = sp_transform(g)
        pairs = {tuple(e) for e in t.edges.tolist()}
        assert pairs == {(0, 1), (2, 3)}

    def test_annotations_carried_over(self):
        g = Graph(
            3,
            [(0, 1), (1, 2)],
            vertex_labels=[5, 6, 7],
            vertex_attributes=[[0.1], [0.2], [0.3]],
        )
        t = sp_transform(g)
        assert t.vertex_labels.tolist() == [5, 6, 7]
        assert t.vertex_attributes.tolist() == [[0.1], [0.2], [0.3]]


class TestImplicitKernel:
    def test_uniform_path_self_kernel(self):
        p3 = Graph(3, [(0, 1), (1, 2)])
        assert sp_kernel_implicit(p3, p3) == 20.0

    def test_transformed_flag_skips_retransform(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = Graph(3, [(0, 1), (1, 2)])
        direct = sp_kernel_implicit(g, h)
        pre = sp_kernel_implicit(
            sp_transform(g), sp_transform(h), transformed=True
        )
        assert direct == pre

    def test_matches_oracle_on_labeled_graphs(self):
        rng = random.Random(83)
        for trial in range(12):
            g = make_random_graph(rng, max_n=6, labels=2)
            h = make_random_graph(rng, max_n=6, labels=2)
            expected = oracle_sp_kernel(g, h)
            assert sp_kernel_implicit(g, h) == pytest.approx(
                expected, rel=1e-10, abs=1e-12
            )

    def test_matches_oracle_with_length_tolerance(self):
        bridge = EdgeKernelSpec("brownian-bridge", c=3.0)
        rng = random.Random(89)
        for trial in range(10):
            g = make_random_graph(rng, max_n=6, labels=2)
            h = make_random_graph(rng, max_n=6, labels=2)
            expected = oracle_sp_kernel(
                g, h, length_kernel=lambda a, b: brownian_bridge_fn(a, b, 3.0)
            )
            got = sp_kernel_implicit(g, h, DIRAC, bridge)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestExplicitFeatures:
    def test_uniform_path_feature_counts(self):
        p3 = Graph(3, [(0, 1), (1, 2)])
        vec = sp_features_explicit(p3)
        decoded = {decode_key(k)[1]: v for k, v in vec.entries.items()}
        assert decoded == {(0, 0, 1): 4, (0, 0, 2): 2}
        assert all(decode_key(k)[0] == TAG_SP for k in vec.entries)
        assert dot(vec, vec) == 20

    def test_dot_equals_implicit_kernel_exactly(self):
        rng = random.Random(97)
        for trial in range(15):
            g = make_random_graph(rng, max_n=7, labels=3)
            h = make_random_graph(rng, max_n=7, labels=3)
            implicit = sp_kernel_implicit(g, h)
            explicit = dot(sp_features_explicit(g), sp_features_explicit(h))
            assert implicit == explicit  # integer-exact

    def test_counts_every_ordered_reachable_pair(self):
        rng = random.Random(101)
        for trial in range(10):
            g = make_random_graph(rng, max_n=7, labels=2)
            dm = all_pairs_shortest_paths(g)
            vec = sp_features_explicit(g)
            reachable = sum(
                1
                for u in range(g.n)
                for v in range(g.n)
                if u != v and dm.dist[u][v] != INF_DISTANCE
            )
            assert sum(vec.entries.values()) == reachable

    def test_attributes_only_graph_is_rejected(self):
        g = Graph(2, [(0, 1)], vertex_attributes=[[0.5], [0.25]])
        with pytest.raises(ContractError, match="implicit"):
            sp_features_explicit(g)


class TestApproxFeatures:
    def test_label_one_hots_reproduce_explicit_map(self):
        # assembling from one-hot label maps must agree with the direct
        # count vector in every dot product
        rng = random.Random(103)
        for trial in range(10):
            g = make_random_graph(rng, max_n=6, labels=2)
            h = make_random_graph(rng, max_n=6, labels=2)
            direct = dot(sp_features_explicit(g), sp_features_explicit(h))
            assembled = dot(
                sp_features_approx(g, _one_hot_label),
                sp_features_approx(h, _one_hot_label),
            )
            assert assembled == direct

    def test_dirac_length_features_are_one_hot(self):
        a, b = dirac_length_features(3), dirac_length_features(4)
        assert a.nnz == 1 and dot(a, a) == 1 and dot(a, b) == 0

    def test_budget_is_enforced(self):
        g = Graph(6, [(i, i + 1) for i in range(5)], vertex_labels=list(range(6)))
        with pytest.raises(ResourceBudgetError):
            sp_features_approx(g, _one_hot_label, max_entries=3)

    def test_rejects_non_positive_budget(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError):
            sp_features_approx(g, _one_hot_label, max_entries=0)


def _one_hot_label(g: Graph, v: int):
    from gkern import FeatureVector
    from gkern.features import TAG_LABEL, feature_key

    label = int(g.vertex_labels[v]) if g.vertex_labels is not None else 0
    return FeatureVector.one_hot(feature_key(TAG_LABEL, (label,)))
