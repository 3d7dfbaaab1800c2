"""Graphlet counting and the subgraph matching kernel."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkern import (
    ContractError,
    Dataset,
    EdgeKernelSpec,
    Graph,
    MultiplicityOverflowError,
    ParameterError,
    VertexKernelSpec,
    canonical_string,
    dot,
    graphlet_features,
    matching_features,
    subgraph_matching_kernel,
)
from gkern.bench import kernel_plan
from conftest import graphs, make_random_graph
from oracles import (
    oracle_graphlet_kernel,
    oracle_subgraph_matching,
    oracle_triple_automorphisms,
    oracle_triple_class_counts,
    oracle_triple_class_reps,
)

DIRAC = VertexKernelSpec("dirac")
DIRAC_EDGE = EdgeKernelSpec("dirac")


def _relabeled(sub: Graph, order) -> Graph:
    """The same 3-vertex graph with vertices renamed by ``order``."""
    position = {old: new for new, old in enumerate(order)}
    edges = [(position[u], position[v]) for u, v in sub.edges.tolist()]
    vl = (
        [int(sub.vertex_labels[old]) for old in order]
        if sub.vertex_labels is not None
        else None
    )
    el = sub.edge_labels.tolist() if sub.edge_labels is not None else None
    return Graph(3, edges, vertex_labels=vl, edge_labels=el)


class TestCanonicalString:
    def test_invariant_under_all_relabelings(self):
        rng = random.Random(107)
        for trial in range(30):
            base = make_random_graph(
                rng, max_n=3, min_n=3, labels=2, edge_label_count=2, edge_prob=0.8
            )
            if base.m < 2:
                continue
            reference = canonical_string(base)
            for order in itertools.permutations(range(3)):
                assert canonical_string(_relabeled(base, order)) == reference

    def test_distinguishes_non_isomorphic_triples(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        path = Graph(3, [(0, 1), (1, 2)])
        assert canonical_string(triangle) != canonical_string(path)
        labeled = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0])
        other = Graph(3, [(0, 1), (1, 2)], vertex_labels=[1, 0, 0])
        assert canonical_string(labeled) != canonical_string(other)

    def test_path_center_matters_not_vertex_order(self):
        # both are paths with center label 1 and arm labels 0, 2
        a = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 2])
        b = Graph(3, [(0, 2), (1, 2)], vertex_labels=[2, 0, 1])
        assert canonical_string(a) == canonical_string(b)

    def test_rejects_wrong_inputs(self):
        with pytest.raises(ContractError):
            canonical_string(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(ContractError):
            canonical_string(Graph(3, [(0, 1)]))


class TestGraphletFeatures:
    def test_complete_graph_counts(self):
        k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        vec = graphlet_features(k4)
        assert vec.nnz == 1  # only triangles
        assert sum(vec.entries.values()) == 4
        p3 = graphlet_features(Graph(3, [(0, 1), (1, 2)]))
        assert p3.nnz == 1 and sum(p3.entries.values()) == 1
        assert dot(vec, p3) == 0

    def test_total_count_matches_oracle_classes(self):
        rng = random.Random(109)
        for trial in range(15):
            g = make_random_graph(rng, max_n=7, labels=2, edge_label_count=2)
            vec = graphlet_features(g)
            oracle_counts = oracle_triple_class_counts(g)
            assert sum(vec.entries.values()) == sum(oracle_counts.values())
            assert vec.nnz == len(oracle_counts)
            # count multisets agree class by class
            assert sorted(vec.entries.values()) == sorted(oracle_counts.values())

    def test_pairwise_dots_match_oracle_kernel(self):
        rng = random.Random(113)
        graphs = [
            make_random_graph(rng, max_n=8, labels=2, edge_label_count=2)
            for _ in range(8)
        ]
        vectors = [graphlet_features(g) for g in graphs]
        for i, g in enumerate(graphs):
            for j, h in enumerate(graphs):
                assert dot(vectors[i], vectors[j]) == oracle_graphlet_kernel(g, h)

    def test_empty_and_tiny_graphs(self):
        assert graphlet_features(Graph(0, [])).nnz == 0
        assert graphlet_features(Graph(2, [(0, 1)])).nnz == 0
        assert graphlet_features(Graph(5, [])).nnz == 0

    def test_keys_are_labels_then_pair_codes(self):
        # sorted vertex labels, then (0, 0) for an absent pair and
        # (1, label) for an edge, over the position pairs (0,1), (0,2), (1,2)
        path = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 2], edge_labels=[5, 7])
        assert graphlet_features(path).entries == {b"6|0,1,2,1,5,0,0,1,7": 1}


class TestMatchingFeatures:
    def test_each_class_repeats_once_per_automorphism(self, triangle):
        # one vertex class (3 sets, |Aut| 1), one edge class (3, |Aut| 2)
        # and the triangle (1, |Aut| 6)
        vec = matching_features(triangle, max_size=3)
        assert sorted(vec.entries.values()) == [1] * 6 + [3] * 3
        assert dot(vec, vec) == 9 * 1 + 9 * 2 + 1 * 6
        assert dot(vec, vec) == subgraph_matching_kernel(triangle, triangle)

    def test_connected_only_drops_disconnected_sets(self, disconnected):
        everything = matching_features(disconnected, max_size=2)
        connected = matching_features(disconnected, max_size=2, connected_only=True)
        # 5 vertices; 2 edges vs 8 non-adjacent pairs, each with |Aut| 2
        assert sum(everything.entries.values()) == 5 + 2 * 2 + 2 * 8
        assert sum(connected.entries.values()) == 5 + 2 * 2

    def test_rejects_bad_max_size(self, triangle):
        with pytest.raises(ParameterError):
            matching_features(triangle, max_size=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(graphs(), max_size=4))
    def test_grams_match_the_implicit_kernel_bit_for_bit(self, members):
        ds = Dataset("h", members)
        for max_size in (1, 2, 3, 4):
            for connected_only in (False, True):
                plan = kernel_plan(
                    "subgraph-matching", ds, max_size=max_size, connected_only=connected_only
                )
                implicit, explicit = plan.grams(("implicit", "explicit"))
                assert implicit.values.tobytes() == explicit.values.tobytes(), (
                    max_size,
                    connected_only,
                )


class TestSubgraphMatching:
    def test_single_edge_pair_frozen_value(self):
        # 4 single-pair mappings + 2 two-pair mappings = 6
        e = Graph(2, [(0, 1)])
        assert subgraph_matching_kernel(e, e, max_size=2) == 6.0

    def test_matches_oracle_across_options(self):
        rng = random.Random(127)
        for trial in range(8):
            g = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            h = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            for max_size in (1, 2, 3):
                for connected in (False, True):
                    for normalize in (False, True):
                        expected = oracle_subgraph_matching(
                            g,
                            h,
                            max_size,
                            connected_only=connected,
                            normalize_by_size=normalize,
                        )
                        got = subgraph_matching_kernel(
                            g,
                            h,
                            DIRAC,
                            DIRAC_EDGE,
                            max_size=max_size,
                            connected_only=connected,
                            normalize_by_size=normalize,
                        )
                        assert got == pytest.approx(
                            expected, rel=1e-10, abs=1e-12
                        ), (trial, max_size, connected, normalize)

    def test_size_weights_select_strata(self):
        rng = random.Random(131)
        for trial in range(6):
            g = make_random_graph(rng, max_n=5, labels=2)
            h = make_random_graph(rng, max_n=5, labels=2)
            total = subgraph_matching_kernel(g, h, max_size=3)
            by_stratum = sum(
                subgraph_matching_kernel(
                    g,
                    h,
                    max_size=3,
                    size_weights=lambda k, want=k_want: 1.0 if k == want else 0.0,
                )
                for k_want in (1, 2, 3)
            )
            assert by_stratum == pytest.approx(total, rel=1e-12)

    def test_exact_three_equals_weighted_graphlet_agreement(self):
        # with Dirac kernels, exact size 3 and connectedness, the matching
        # kernel counts each common class with its automorphism weight
        rng = random.Random(137)
        for trial in range(8):
            g = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            h = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            got = subgraph_matching_kernel(
                g,
                h,
                DIRAC,
                DIRAC_EDGE,
                max_size=3,
                size_weights=lambda k: 1.0 if k == 3 else 0.0,
                connected_only=True,
            )
            cg = oracle_triple_class_counts(g)
            ch = oracle_triple_class_counts(h)
            reps = {**oracle_triple_class_reps(h), **oracle_triple_class_reps(g)}
            expected = sum(
                cnt
                * ch.get(cls, 0)
                * oracle_triple_automorphisms(*reps[cls])
                for cls, cnt in cg.items()
            )
            assert got == float(expected)

    def test_table_edge_kernel_scales_mappings(self):
        # one shared edge with differing labels contributes through the
        # off-diagonal table weight
        g = Graph(2, [(0, 1)], edge_labels=[0])
        h = Graph(2, [(0, 1)], edge_labels=[1])
        half = EdgeKernelSpec("table", table=((0, 1, 0.5),))
        # 4 singleton mappings + 2 pair mappings of weight 1/2
        got = subgraph_matching_kernel(g, h, DIRAC, half, max_size=2)
        assert got == 5.0
        # with Dirac edges those two mappings are filtered out entirely
        assert subgraph_matching_kernel(g, h, DIRAC, DIRAC_EDGE, max_size=2) == 4.0

    def test_max_size_beyond_order_is_harmless(self):
        e = Graph(2, [(0, 1)])
        assert subgraph_matching_kernel(e, e, max_size=2) == (
            subgraph_matching_kernel(e, e, max_size=12)
        )

    def test_rejects_bad_max_size(self):
        e = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError):
            subgraph_matching_kernel(e, e, max_size=0)

    def test_integer_totals_reaching_2_53_raise(self):
        one = Graph(1)
        with pytest.raises(MultiplicityOverflowError, match="2\\*\\*53"):
            subgraph_matching_kernel(one, one, max_size=1, size_weights=lambda k: 2.0**53)
        below = subgraph_matching_kernel(
            one, one, max_size=1, size_weights=lambda k: 2.0**53 - 1
        )
        assert below == 2**53 - 1

    def test_no_compatible_pairs(self):
        g = Graph(2, [(0, 1)], vertex_labels=[0, 0])
        h = Graph(2, [(0, 1)], vertex_labels=[1, 1])
        assert subgraph_matching_kernel(g, h, max_size=3) == 0.0
