"""Shortest-path kernels: transform, implicit evaluation, feature maps."""

import random

import pytest

from gkern import (
    EdgeKernelSpec,
    Graph,
    INF_DISTANCE,
    VertexKernelSpec,
    all_pairs_shortest_paths,
    sp_features_explicit,
    sp_transform,
    walk_kernel_implicit,
)
from gkern import walks
from gkern.graphs import DisjointUnion
from conftest import make_random_graph
from oracles import brownian_bridge_fn, dot, oracle_sp_kernel

DIRAC = VertexKernelSpec("dirac")
DIRAC_LEN = EdgeKernelSpec("dirac")


def sp_kernel(g, h, length_kernel=DIRAC_LEN):
    """One pair's shortest-path kernel: the length-1 walk kernel on the
    transforms, as the sp plan computes it a row at a time."""
    return walk_kernel_implicit(sp_transform(g), [sp_transform(h)], DIRAC, length_kernel, 1)[0]


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
        assert sp_kernel(p3, p3) == 20.0

    def test_matches_oracle_on_labeled_graphs(self):
        rng = random.Random(83)
        for trial in range(12):
            g = make_random_graph(rng, max_n=6, labels=2)
            h = make_random_graph(rng, max_n=6, labels=2)
            expected = oracle_sp_kernel(g, h)
            assert sp_kernel(g, h) == pytest.approx(
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
            got = sp_kernel(g, h, bridge)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_bridge_row_in_one_block_equals_one_partner_calls(self):
        # non-dyadic bridge values: the batched build keeps each partner's
        # edges in their one-partner order, so its sums stay bit for bit
        bridge = EdgeKernelSpec("brownian-bridge", c=3.3)
        rng = random.Random(97)
        graphs = [make_random_graph(rng, max_n=8, min_n=3, labels=3) for _ in range(9)]
        transforms = [sp_transform(g) for g in graphs]
        g, hs = transforms[0], transforms
        union = DisjointUnion(hs)
        join = walks._join(g, union, DIRAC, bridge)
        assert [(a, b) for a, b, _ in walks._blocks(g, union, DIRAC, join)] == [(0, len(hs))]
        row = walk_kernel_implicit(g, hs, DIRAC, bridge, 1)
        pairs = [sp_kernel(graphs[0], h, bridge) for h in graphs]
        assert row.tolist() == pairs
        assert row.tolist() == pytest.approx(
            [
                oracle_sp_kernel(
                    graphs[0], h, length_kernel=lambda a, b: brownian_bridge_fn(a, b, 3.3)
                )
                for h in graphs
            ],
            rel=1e-10,
        )


class TestExplicitFeatures:
    def test_uniform_path_feature_counts(self):
        p3 = Graph(3, [(0, 1), (1, 2)])
        vec = sp_features_explicit([p3]).vector(0)
        assert vec == {(0, 0, 1): 4, (0, 0, 2): 2}
        assert dot(vec, vec) == 20

    def test_dot_equals_implicit_kernel_exactly(self):
        rng = random.Random(97)
        for trial in range(15):
            g = make_random_graph(rng, max_n=7, labels=3)
            h = make_random_graph(rng, max_n=7, labels=3)
            implicit = sp_kernel(g, h)
            features = sp_features_explicit([g, h])
            explicit = dot(features.vector(0), features.vector(1))
            assert implicit == explicit  # integer-exact

    def test_attributes_only_graph_reads_as_label_zero(self):
        # continuous attributes carry no Dirac label: the map counts the
        # paths of the bare graph, as the implicit scheme does
        g = Graph(3, [(0, 1), (1, 2)], vertex_attributes=[[0.5], [1.0], [0.2]])
        vec = sp_features_explicit([g]).vector(0)
        assert vec == sp_features_explicit([Graph(3, [(0, 1), (1, 2)])]).vector(0)
        assert dot(vec, vec) == sp_kernel(g, g) == 20

    def test_counts_every_ordered_reachable_pair(self):
        rng = random.Random(101)
        for trial in range(10):
            g = make_random_graph(rng, max_n=7, labels=2)
            dm = all_pairs_shortest_paths(g)
            vec = sp_features_explicit([g]).vector(0)
            reachable = sum(
                1
                for u in range(g.n)
                for v in range(g.n)
                if u != v and dm.dist[u][v] != INF_DISTANCE
            )
            assert sum(vec.values()) == reachable
