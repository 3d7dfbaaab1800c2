"""Graphlet counting and the subgraph matching kernel."""

import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkern.subgraphs as subgraphs
from gkern import (
    Dataset,
    EdgeKernelSpec,
    Graph,
    GramError,
    MultiplicityOverflowError,
    ParameterError,
    VertexKernelSpec,
    graphlet_features,
    matching_features,
    subgraph_matching_kernel,
)
from gkern.bench import kernel_plan
from gkern.gram import gram_implicit
from gkern.graphs import partner_runs
import oracles
from conftest import graphs, make_random_graph
from oracles import (
    dirac_fn,
    dot,
    oracle_graphlet_kernel,
    oracle_subgraph_matching,
    oracle_triple_automorphisms,
    oracle_triple_class_counts,
    oracle_triple_class_reps,
)

DIRAC = VertexKernelSpec("dirac")
DIRAC_EDGE = EdgeKernelSpec("dirac")
HALF_EDGE = EdgeKernelSpec("table", table=((0, 1, 0.5),))


# association-cell budgets: every block and chunk a partner or clique alone,
# small ones, and the default
BUDGETS = (1, 40, subgraphs.ASSOCIATION_CELLS)


def half_fn(a, b) -> float:
    """``HALF_EDGE`` written out: Dirac, but labels 0 and 1 match by half."""
    return 0.5 if {a, b} == {0, 1} else float(a == b)


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


def _graphlet_key(sub: Graph) -> tuple:
    """The one graphlet key of a connected 3-vertex graph: its canonical form."""
    (key,) = graphlet_features([sub]).vector(0)
    return key


class TestCanonicalForm:
    def test_invariant_under_all_relabelings(self):
        rng = random.Random(107)
        for trial in range(30):
            base = make_random_graph(
                rng, max_n=3, min_n=3, labels=2, edge_label_count=2, edge_prob=0.8
            )
            if base.m < 2:
                continue
            reference = _graphlet_key(base)
            for order in itertools.permutations(range(3)):
                assert _graphlet_key(_relabeled(base, order)) == reference

    def test_distinguishes_non_isomorphic_triples(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        path = Graph(3, [(0, 1), (1, 2)])
        assert _graphlet_key(triangle) != _graphlet_key(path)
        labeled = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0])
        other = Graph(3, [(0, 1), (1, 2)], vertex_labels=[1, 0, 0])
        assert _graphlet_key(labeled) != _graphlet_key(other)

    def test_path_center_matters_not_vertex_order(self):
        # both are paths with center label 1 and arm labels 0, 2
        a = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 2])
        b = Graph(3, [(0, 2), (1, 2)], vertex_labels=[2, 0, 1])
        assert _graphlet_key(a) == _graphlet_key(b)


class TestGraphletFeatures:
    def test_complete_graph_counts(self):
        k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        vec = graphlet_features([k4]).vector(0)
        assert len(vec) == 1  # only triangles
        assert sum(vec.values()) == 4
        p3 = graphlet_features([Graph(3, [(0, 1), (1, 2)])]).vector(0)
        assert len(p3) == 1 and sum(p3.values()) == 1
        assert dot(vec, p3) == 0

    def test_total_count_matches_oracle_classes(self):
        rng = random.Random(109)
        for trial in range(15):
            g = make_random_graph(rng, max_n=7, labels=2, edge_label_count=2)
            vec = graphlet_features([g]).vector(0)
            oracle_counts = oracle_triple_class_counts(g)
            assert sum(vec.values()) == sum(oracle_counts.values())
            assert len(vec) == len(oracle_counts)
            # count multisets agree class by class
            assert sorted(vec.values()) == sorted(oracle_counts.values())

    def test_pairwise_dots_match_oracle_kernel(self):
        rng = random.Random(113)
        graphs = [
            make_random_graph(rng, max_n=8, labels=2, edge_label_count=2)
            for _ in range(8)
        ]
        vectors = [graphlet_features([g]).vector(0) for g in graphs]
        for i, g in enumerate(graphs):
            for j, h in enumerate(graphs):
                assert dot(vectors[i], vectors[j]) == oracle_graphlet_kernel(g, h)

    def test_empty_and_tiny_graphs(self):
        assert graphlet_features([Graph(0, [])]).vector(0) == {}
        assert graphlet_features([Graph(2, [(0, 1)])]).vector(0) == {}
        assert graphlet_features([Graph(5, [])]).vector(0) == {}

    def test_keys_are_labels_then_pair_codes(self):
        # sorted vertex labels, then (0, 0) for an absent pair and
        # (1, label) for an edge, over the position pairs (0,1), (0,2), (1,2)
        path = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 2], edge_labels=[5, 7])
        assert graphlet_features([path]).vector(0) == {(0, 1, 2, 1, 5, 0, 0, 1, 7): 1}


@st.composite
def relabeled_graphs(draw) -> Graph:
    """``graphs()`` with vertex labels shifted down to negatives and, on
    some graphs, one edge label per edge drawn from a wide range."""
    g = draw(graphs(max_n=6))
    shift = draw(st.integers(-3, 0))
    edge_labels = g.edge_labels
    if g.m and draw(st.booleans()):
        wide = st.integers(-(2**40), 2**40)
        edge_labels = draw(st.lists(wide, min_size=g.m, max_size=g.m))
    return Graph(g.n, g.edges, g.vertex_labels + shift, edge_labels)


def _as_dict(classes):
    """The array counter's classes as the permutation search writes them."""
    return {
        tuple(encoding): [count, automorphisms]
        for _, rows, counts, auts in classes
        for encoding, count, automorphisms in zip(rows.tolist(), counts.tolist(), auts.tolist())
    }


class TestClassCounter:
    @settings(max_examples=150, deadline=None)
    @given(
        relabeled_graphs(),
        st.integers(1, 5),
        st.booleans(),
        st.integers(1, 5),
        st.sampled_from(BUDGETS),
    )
    @example(Graph(0), 5, True, 1, BUDGETS[-1])
    @example(Graph(0), 5, False, 1, BUDGETS[-1])
    @example(Graph(6), 5, False, 2, 1)  # edgeless
    @example(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 5, True, 1, 1)  # one label
    def test_equals_the_permutation_search(self, g, max_size, connected, smallest, budget):
        expected = oracles._class_counts(g, max_size, connected, smallest)
        with mock.patch.object(subgraphs, "ASSOCIATION_CELLS", budget):
            assert _as_dict(subgraphs._class_counts([g], max_size, connected, smallest)) == expected

    def test_many_edge_labels_split_the_packed_words(self):
        # 66 distinct edge labels take 7 bits a code, so the 10 pair codes
        # of a 5-vertex set span two words
        rng = random.Random(139)
        k12 = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        g = Graph(12, k12, [rng.randrange(2) for _ in range(12)], rng.sample(range(-99, 99), 66))
        for connected in (False, True):
            expected = oracles._class_counts(g, 5, connected, 4)
            assert _as_dict(subgraphs._class_counts([g], 5, connected, 4)) == expected

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_sparse_graph_with_high_vertex_ids(self, budget, monkeypatch):
        # 6,290 isolated vertices below ten joined at p 0.5, so every set
        # roots above 6,289 and candidates group by row * 6300 + neighbour
        rng = random.Random(151)
        top = [(u, v) for u in range(6290, 6300) for v in range(u + 1, 6300)]
        edges = [pair for pair in top if rng.random() < 0.5]
        g = Graph(6300, edges, [rng.randrange(2) for _ in range(6300)])
        expected = oracles._class_counts(g, 5, True)
        monkeypatch.setattr(subgraphs, "ASSOCIATION_CELLS", budget)
        assert _as_dict(subgraphs._class_counts([g], 5, True)) == expected

    @pytest.mark.parametrize("budget", [1 << 13, subgraphs.ASSOCIATION_CELLS])
    def test_dense_size_five_map_stays_within_the_budget(self, budget, monkeypatch):
        # one label and p 0.6 on 24 vertices: vertex 0 alone roots 8,436
        # connected 5-sets, whose 42,180 cells exceed either budget, and
        # every 5-set tries all 120 vertex orders of its 10 pairs; chunks
        # of sets and slices of orders hold a small part of that
        rng = random.Random(149)
        edges = [(u, v) for u in range(24) for v in range(u + 1, 24) if rng.random() < 0.6]
        g = Graph(24, edges)
        fives = [sets for sets in subgraphs._connected_sets(g, 5) if sets.shape[1] == 5]
        rooted = sum(int((sets[:, 0] == 0).sum()) for sets in fives)
        assert rooted * 5 > subgraphs.ASSOCIATION_CELLS
        assert sum(map(len, fives)) * 120 * 10 * 8 > 200 * 2**20
        expected = matching_features([g], max_size=5, connected_only=True).vector(0)
        monkeypatch.setattr(subgraphs, "ASSOCIATION_CELLS", budget)
        tracemalloc.start()
        try:
            features = matching_features([g], max_size=5, connected_only=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert features.vector(0) == expected


class TestMatchingFeatures:
    def test_each_class_repeats_once_per_automorphism(self, triangle):
        # one vertex class (3 sets, |Aut| 1), one edge class (3, |Aut| 2)
        # and the triangle (1, |Aut| 6)
        vec = matching_features([triangle], max_size=3).vector(0)
        assert sorted(vec.values()) == [1] * 6 + [3] * 3
        assert dot(vec, vec) == 9 * 1 + 9 * 2 + 1 * 6
        assert dot(vec, vec) == subgraph_matching_kernel(triangle, [triangle])[0]

    def test_connected_only_drops_disconnected_sets(self, disconnected):
        everything = matching_features([disconnected], max_size=2).vector(0)
        connected = matching_features([disconnected], max_size=2, connected_only=True)
        connected = connected.vector(0)
        # 5 vertices; 2 edges vs 8 non-adjacent pairs, each with |Aut| 2
        assert sum(everything.values()) == 5 + 2 * 2 + 2 * 8
        assert sum(connected.values()) == 5 + 2 * 2

    def test_rejects_bad_max_size(self, triangle):
        with pytest.raises(ParameterError):
            matching_features([triangle], max_size=0)

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
        assert subgraph_matching_kernel(e, [e], max_size=2)[0] == 6.0

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
                            [h],
                            DIRAC,
                            DIRAC_EDGE,
                            max_size=max_size,
                            size_weights=(
                                (lambda k: 1 / math.factorial(k)) if normalize else None
                            ),
                            connected_only=connected,
                        )[0]
                        assert got == pytest.approx(
                            expected, rel=1e-10, abs=1e-12
                        ), (trial, max_size, connected, normalize)

    def test_size_weights_select_strata(self):
        rng = random.Random(131)
        for trial in range(6):
            g = make_random_graph(rng, max_n=5, labels=2)
            h = make_random_graph(rng, max_n=5, labels=2)
            total = subgraph_matching_kernel(g, [h], max_size=3)[0]
            by_stratum = sum(
                subgraph_matching_kernel(
                    g,
                    [h],
                    max_size=3,
                    size_weights=lambda k, want=k_want: 1.0 if k == want else 0.0,
                )[0]
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
                [h],
                DIRAC,
                DIRAC_EDGE,
                max_size=3,
                size_weights=lambda k: 1.0 if k == 3 else 0.0,
                connected_only=True,
            )[0]
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
        got = subgraph_matching_kernel(g, [h], DIRAC, half, max_size=2)[0]
        assert got == 5.0
        # with Dirac edges those two mappings are filtered out entirely
        assert subgraph_matching_kernel(g, [h], DIRAC, DIRAC_EDGE, max_size=2)[0] == 4.0

    def test_max_size_beyond_order_is_harmless(self):
        e = Graph(2, [(0, 1)])
        assert subgraph_matching_kernel(e, [e], max_size=2)[0] == (
            subgraph_matching_kernel(e, [e], max_size=12)[0]
        )

    def test_rejects_bad_max_size(self):
        e = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError):
            subgraph_matching_kernel(e, [e], max_size=0)

    def test_integer_totals_reaching_2_53_raise(self):
        one = Graph(1)
        with pytest.raises(MultiplicityOverflowError, match="2\\*\\*53"):
            subgraph_matching_kernel(one, [one], max_size=1, size_weights=lambda k: 2.0**53)
        below = subgraph_matching_kernel(
            one, [one], max_size=1, size_weights=lambda k: 2.0**53 - 1
        )[0]
        assert below == 2**53 - 1

    def test_no_compatible_pairs(self):
        g = Graph(2, [(0, 1)], vertex_labels=[0, 0])
        h = Graph(2, [(0, 1)], vertex_labels=[1, 1])
        assert subgraph_matching_kernel(g, [h], max_size=3)[0] == 0.0


def _inverse_factorial(k):
    return 1 / math.factorial(k)


class TestSubgraphMatchingRow:
    @settings(max_examples=60, deadline=None)
    @given(
        graphs(max_n=4),
        st.lists(graphs(max_n=4), min_size=1, max_size=3),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from(BUDGETS),
    )
    def test_row_equals_pairs_bit_for_bit_and_the_oracle(
        self, g, hs, max_size, connected, normalize, half, budget
    ):
        edges = HALF_EDGE if half else DIRAC_EDGE
        weights = _inverse_factorial if normalize else None
        wide = subgraph_matching_kernel(g, hs, DIRAC, edges, max_size, weights, connected)
        with mock.patch.object(subgraphs, "ASSOCIATION_CELLS", budget):
            row = subgraph_matching_kernel(g, hs, DIRAC, edges, max_size, weights, connected)
            pairs = [
                subgraph_matching_kernel(g, [h], DIRAC, edges, max_size, weights, connected)[0]
                for h in hs
            ]
        assert row.tobytes() == wide.tobytes() == np.array(pairs).tobytes()
        for value, h in zip(row.tolist(), hs):
            expected = oracle_subgraph_matching(
                g,
                h,
                max_size,
                edge_kernel=half_fn if half else dirac_fn,
                connected_only=connected,
                size_weights=weights,
            )
            if half or normalize:
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
            else:
                assert value == expected

    def test_partners_without_compatible_pairs_or_edges(self, triangle):
        labeled = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 0, 1])
        hs = [
            Graph(2, [(0, 1)], vertex_labels=[2, 2]),  # no compatible pair
            Graph(3, [], vertex_labels=[0, 1, 0]),  # no edges
            Graph(0, []),
            Graph(2, [(0, 1)], vertex_labels=[0, 1]),
            Graph(4, [], vertex_labels=[3, 3, 3, 3]),  # no edges, no compatible pair
        ]
        for connected in (False, True):
            row = subgraph_matching_kernel(labeled, hs, max_size=3, connected_only=connected)
            expected = [
                oracle_subgraph_matching(labeled, h, 3, connected_only=connected)
                for h in hs
            ]
            assert row.tolist() == expected
        assert row[0] == row[2] == row[4] == 0.0
        # no edges on either side: every mapping pairs non-edges
        edgeless = Graph(3, [])
        assert subgraph_matching_kernel(edgeless, [Graph(2, [])], max_size=2).tolist() == [
            3 * 2 + 3 * 2
        ]
        assert subgraph_matching_kernel(triangle, []).shape == (0,)

    def test_connected_mapping_grown_from_an_unconnected_pair(self):
        # paths whose middle vertex comes last: the mapping {0->0, 1->1,
        # 2->2} starts from the non-adjacent pair 0, 1 and is connected only
        # once 2 joins, so the unconnected pair must still be grown
        g = Graph(3, [(0, 2), (1, 2)], edge_labels=[0, 1])
        h = Graph(3, [(0, 2), (1, 2)], edge_labels=[1, 1])
        for edges, fn in ((DIRAC_EDGE, dirac_fn), (HALF_EDGE, half_fn)):
            got = subgraph_matching_kernel(g, [h], DIRAC, edges, 3, connected_only=True)[0]
            assert got == oracle_subgraph_matching(
                g, h, 3, edge_kernel=fn, connected_only=True
            ), edges.kind

    def test_weighted_vertices_keep_their_partner(self):
        # hat(delta=1) on 1-d attributes: g's pairs against the two
        # partners interleave in the kernel grid, so a weight gathered for
        # the wrong pair or partner changes a value
        hat = VertexKernelSpec("hat", delta=1.0)
        g = Graph(2, [(0, 1)], vertex_attributes=[[0.0], [1.0]])
        h = Graph(2, [(0, 1)], vertex_attributes=[[0.25], [1.0]])
        path = Graph(3, [(0, 1), (1, 2)], vertex_attributes=[[1.0], [0.5], [0.0]])
        # h: pairs 0.75 + 0.25 + 1, one mapping of both edges 0.75 * 1
        # path: pairs 0.5 + 1 + 1 + 0.5, mappings onto 1-0 and 2-1: 0.5 + 0.5
        for connected in (False, True):
            row = subgraph_matching_kernel(g, [h, path], hat, DIRAC_EDGE, 2, None, connected)
            assert row.tolist() == [2.75, 4.0]
        rng = random.Random(7)
        attributed = dict(edge_prob=0.6, attribute_dim=2, attribute_levels=3)
        g = make_random_graph(rng, max_n=6, min_n=4, **attributed)
        hs = [make_random_graph(rng, max_n=6, **attributed) for _ in range(5)]
        for kernel in (hat, VertexKernelSpec("rbf", sigma=0.7)):
            for connected in (False, True):
                row = subgraph_matching_kernel(g, hs, kernel, HALF_EDGE, 3, None, connected)
                pairs = [
                    subgraph_matching_kernel(g, [h], kernel, HALF_EDGE, 3, None, connected)[0]
                    for h in hs
                ]
                assert row.tobytes() == np.array(pairs).tobytes(), (kernel.kind, connected)
                assert (row > 0).all()

    def test_minimum_budget_crosses_every_block_and_chunk(self, monkeypatch):
        rng = random.Random(139)
        dense = dict(edge_prob=0.6, labels=2, edge_label_count=2)
        g = make_random_graph(rng, max_n=7, min_n=6, **dense)
        hs = [make_random_graph(rng, max_n=7, min_n=3, **dense) for _ in range(5)]
        hs.append(Graph(3, [], vertex_labels=[5, 5, 5]))
        cases = [
            (g, hs, DIRAC, edges, max_size, None, connected)
            for edges in (DIRAC_EDGE, HALF_EDGE)
            for max_size in (1, 3, 4)
            for connected in (False, True)
        ]
        # rbf products are not dyadic: on these graphs, growing the chunks
        # breadth first adds the size-3 products out of order and changes
        # the sums' last bits
        soft_rng = random.Random(7)
        soft = dict(edge_prob=0.6, attribute_dim=1, attribute_levels=5)
        soft_g = make_random_graph(soft_rng, max_n=5, min_n=4, **soft)
        soft_hs = [make_random_graph(soft_rng, max_n=5, min_n=3, **soft) for _ in range(3)]
        rbf = VertexKernelSpec("rbf", sigma=0.5)
        cases += [(soft_g, soft_hs, rbf, HALF_EDGE, 3, None, c) for c in (False, True)]
        wide = [subgraph_matching_kernel(*case) for case in cases]
        monkeypatch.setattr(subgraphs, "ASSOCIATION_CELLS", 1)
        # one partner per block, however small its association graph: a
        # block stores the sum of its partners' squares
        squares = [0, 4, 4, 13, 14]
        cells = lambda a, b: squares[b] - squares[a]
        runs = partner_runs(4, cells, subgraphs.ASSOCIATION_CELLS)
        assert list(runs) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        for case, expected in zip(cases, wide):
            narrow = subgraph_matching_kernel(*case)
            assert narrow.tobytes() == expected.tobytes(), case[2:]
        oracle = [
            oracle_subgraph_matching(g, h, 3, edge_kernel=half_fn, connected_only=True)
            for h in hs
        ]
        got = subgraph_matching_kernel(g, hs, DIRAC, HALF_EDGE, 3, None, True)
        assert got.tolist() == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_partner_layouts_agree_at_every_budget(self, budget, monkeypatch):
        # small partners around one with no compatible pair, single-vertex
        # ones and one whose square (4 * 50 = 200 association vertices,
        # 40,000 cells) alone exceeds even the default budget
        rng = random.Random(149)
        dense = dict(edge_prob=0.6, labels=2, edge_label_count=2)
        part = make_random_graph(rng, max_n=6, min_n=5, **dense)
        k4 = list(itertools.combinations(range(part.n, part.n + 4), 2))
        g = Graph(part.n + 4, [*part.edges.tolist(), *k4],
                  vertex_labels=[*part.vertex_label_array().tolist(), *[9] * 4],
                  edge_labels=[*part.edge_label_array().tolist(), *[0] * len(k4)])
        k50 = list(itertools.combinations(range(50), 2))
        wide_partner = Graph(50, k50, vertex_labels=[9] * 50,
                             edge_labels=[rng.randrange(10) for _ in k50])
        hs = [
            make_random_graph(rng, max_n=5, min_n=3, **dense),
            Graph(3, [(0, 1)], vertex_labels=[5, 5, 5]),
            Graph(1, [], vertex_labels=[0]),
            wide_partner,
            make_random_graph(rng, max_n=5, min_n=3, **dense),
            Graph(1, [], vertex_labels=[9]),
            Graph(0, []),
            make_random_graph(rng, max_n=4, min_n=2, **dense),
        ]
        cases = [
            (g, hs, DIRAC, edges, max_size, None, connected)
            for edges in (DIRAC_EDGE, HALF_EDGE)
            for max_size in (1, 3)
            for connected in (False, True)
        ]
        soft_rng = random.Random(151)
        soft = dict(edge_prob=0.6, attribute_dim=1, attribute_levels=5)
        soft_g = make_random_graph(soft_rng, max_n=5, min_n=4, **soft)
        soft_hs = [
            make_random_graph(soft_rng, max_n=5, min_n=3, **soft),
            Graph(1, [], vertex_attributes=[[0.5]]),
            make_random_graph(soft_rng, max_n=14, min_n=14, **soft),
            make_random_graph(soft_rng, max_n=5, min_n=3, **soft),
        ]
        rbf = VertexKernelSpec("rbf", sigma=0.5)
        cases += [(soft_g, soft_hs, rbf, HALF_EDGE, 3, None, c) for c in (False, True)]
        wide = [subgraph_matching_kernel(*case) for case in cases]
        assert (wide[-1] > 0).all()
        blocks = []
        clique_sums = subgraphs._clique_sums

        def recorded(allowed, structural, weights, vertex_weights, rows, stop_of, *rest):
            orders = np.diff(np.unique(np.append(stop_of, 0)))
            blocks.append((allowed.size, int((orders * orders).sum())))
            return clique_sums(allowed, structural, weights, vertex_weights, rows, stop_of, *rest)

        monkeypatch.setattr(subgraphs, "_clique_sums", recorded)
        monkeypatch.setattr(subgraphs, "ASSOCIATION_CELLS", budget)
        for case, expected in zip(cases, wide):
            g_, hs_, *options = case
            row = subgraph_matching_kernel(*case)
            pairs = [subgraph_matching_kernel(g_, [h], *options)[0] for h in hs_]
            assert row.tobytes() == expected.tobytes() == np.array(pairs).tobytes(), case[2:]
        # a block stores its partners' squares and nothing across them
        assert blocks and all(cells == squares for cells, squares in blocks)
        assert max(cells for cells, _ in blocks) == 200 * 200

    def test_chunks_are_the_most_cliques_their_windows_allow(self, monkeypatch):
        # ascending 2-cliques within partners of 5, 9 and 3 association
        # vertices, each with the window of its partner's vertices above
        # its last member; a chunk's cells are the sum of its windows
        sizes = [5, 9, 3]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        cliques = np.array([
            pair
            for s, e in zip(starts, ends)
            for pair in itertools.combinations(range(s, e - 1), 2)
        ])
        stop_of = np.repeat(ends, sizes)
        lo, hi = cliques[:, -1] + 1, stop_of[cliques[:, -1]]
        pool = np.arange(ends[-1])
        # every connection allowed, in per-partner squares
        allowed = np.ones(sum(k * k for k in sizes), dtype=bool)
        rows = np.repeat(np.cumsum([k * k for k in sizes]) - [k * k for k in sizes], sizes)
        rows += (pool - np.repeat(starts, sizes)) * np.repeat(sizes, sizes)
        rows -= np.repeat(starts, sizes)
        for budget in (1, 7, 40, 120, 10**6):
            monkeypatch.setattr(subgraphs, "ASSOCIATION_CELLS", budget)
            # the running total of every window, cut from each skip on
            total = np.cumsum(hi - lo)
            for skip in range(0, len(cliques), 5):
                rest = slice(skip, None)
                windows = np.cumsum(hi[rest] - lo[rest])
                fits = [c for c, cells in enumerate(windows.tolist(), 1) if cells <= budget]
                chunk = subgraphs._chunk_size(total[rest], hi[skip] - lo[skip])
                assert chunk == max(fits, default=1)
                taken = slice(skip, skip + chunk)
                parent, nxt = subgraphs._candidates(
                    cliques[taken, -1], lo[taken], hi[taken], pool, allowed, rows
                )
                assert chunk == 1 or nxt.size <= budget
                expected = [
                    (i, x)
                    for i, (a, b) in enumerate(zip(lo[taken], hi[taken]))
                    for x in range(a, b)
                ]
                assert list(zip(parent.tolist(), nxt.tolist())) == expected

    def test_overflow_names_the_partner_and_the_gram_pair(self, monkeypatch):
        one = Graph(1, [], vertex_labels=[1])
        two = Graph(2, [], vertex_labels=[1, 1])
        huge = lambda k: 2.0**52
        # one vertex pair per mapping: 2**52 for (one, one), 2**53 for (one, two)
        assert subgraph_matching_kernel(one, [one], max_size=1, size_weights=huge)[0] == 2**52
        for budget in (subgraphs.ASSOCIATION_CELLS, 1):
            monkeypatch.setattr(subgraphs, "ASSOCIATION_CELLS", budget)
            with pytest.raises(MultiplicityOverflowError, match="partner 1 "):
                subgraph_matching_kernel(one, [one, two], max_size=1, size_weights=huge)
        monkeypatch.undo()
        ds = Dataset("h", [Graph(1, [], vertex_labels=[0]), one, two])
        row = lambda g, hs: subgraph_matching_kernel(
            g, hs, DIRAC, DIRAC_EDGE, 1, size_weights=huge
        )
        with pytest.raises(GramError, match=r"pair \(1, 2\) failed: .*2\*\*53"):
            gram_implicit(ds, row, "matching")
