"""Graph container, shortest paths, disk format, and generators."""

import math
import random
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkern import (
    ContractError,
    Dataset,
    DatasetFormatError,
    DatasetLoadError,
    Graph,
    INF_DISTANCE,
    MultiplicityOverflowError,
    ParameterError,
    all_pairs_shortest_paths,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
    load_tu_dataset,
    scale_attributes,
    write_tu_dataset,
)
from gkern.bench import kernel_plan
from gkern import graphs as graphs_module
from gkern.graphs import DisjointUnion, shortest_path_blocks
from conftest import diamond_chain, graphs, make_random_graph
from oracles import (
    adjacency_lists,
    edge_label_dict,
    oracle_apsp,
    oracle_bfs,
    oracle_graph,
    oracle_load_tu,
    oracle_shortest_path_counts,
)


# One defect per TU directory, on top of the valid two-vertex graph that
# ``TestDiskFormat._write`` writes, with the full message it must raise;
# ``{root}`` stands for the parent directory of ``X/``.
LOADER_DEFECTS = [
    ({"A": None}, DatasetLoadError, "missing mandatory file {root}/X_A.txt"),
    (
        {"graph_indicator": "1\nx\n"},
        DatasetFormatError,
        "{root}/X/X_graph_indicator.txt:2: not an integer: 'x'",
    ),
    (
        {"graph_indicator": "0\n1\n"},
        DatasetFormatError,
        "{root}/X/X_graph_indicator.txt: graph ids must be >= 1",
    ),
    (
        {"graph_labels": "0\n1\n"},
        DatasetFormatError,
        "{root}/X/X_graph_labels.txt: 2 class labels for 1 graphs",
    ),
    (
        {"graph_labels": "a\n"},
        DatasetFormatError,
        "{root}/X/X_graph_labels.txt:1: not an integer: 'a'",
    ),
    (
        {"edge_labels": "1\n"},
        DatasetFormatError,
        "{root}/X/X_edge_labels.txt: 1 labels for 2 edge lines",
    ),
    (
        {"edge_labels": "1\nz\n"},
        DatasetFormatError,
        "{root}/X/X_edge_labels.txt:2: not an integer: 'z'",
    ),
    (
        {"A": "1, 2\n2\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:2: expected 'u, v', got '2'",
    ),
    (
        {"A": "1, 2\n2, x\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:2: non-integer vertex id in '2, x'",
    ),
    # a lone carriage return ends a line, as text mode reads it
    (
        {"A": "1, 2\n2\r1\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:2: expected 'u, v', got '2'",
    ),
    (
        {"A": "1, 2\n2, 1\n1, 3\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:3: vertex id out of range in '1, 3'",
    ),
    (
        {"A": "1, 2\n2, 1\n1, 99999999999999999999\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:3: vertex id out of range in '1, 99999999999999999999'",
    ),
    (
        {"A": "1, 2\n2, 1\n2, 2\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:3: self-loop at vertex 2",
    ),
    (
        {
            "A": "1, 2\n2, 1\n2, 3\n3, 2\n",
            "graph_indicator": "1\n1\n2\n",
            "graph_labels": "0\n0\n",
        },
        DatasetFormatError,
        "{root}/X/X_A.txt:3: edge (2, 3) crosses graph boundaries",
    ),
    (
        {"A": "1, 2\n2, 1\n1, 2\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:3: duplicate edge (1, 2)",
    ),
    (
        {"A": "1, 2\n2, 1\n2, 3\n", "graph_indicator": "1\n1\n1\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:3: edge (2, 3) lacks its mirror (3, 2)",
    ),
    (
        {"edge_labels": "3\n4\n"},
        DatasetFormatError,
        "{root}/X/X_edge_labels.txt: edge (1, 2) labeled 3 at line 1 but 4 at line 2",
    ),
    (
        {"node_labels": "1\n"},
        DatasetFormatError,
        "{root}/X/X_node_labels.txt: 1 labels for 2 vertices",
    ),
    (
        {"node_labels": "1\n2.5\n"},
        DatasetFormatError,
        "{root}/X/X_node_labels.txt:2: not an integer: '2.5'",
    ),
    (
        {"node_attributes": "0.5\n"},
        DatasetFormatError,
        "{root}/X/X_node_attributes.txt: 1 rows for 2 vertices",
    ),
    (
        {"node_attributes": "0.5\nfoo\n"},
        DatasetFormatError,
        "{root}/X/X_node_attributes.txt:2: bad attribute row 'foo'",
    ),
    (
        {"node_attributes": "0.5,0.5\n0.25\n"},
        DatasetFormatError,
        "{root}/X/X_node_attributes.txt:2: expected 2 values, got 1",
    ),
    # line numbers count physical lines: blank lines are skipped, not renumbered
    (
        {"A": "1, 2\n\n2, x\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:3: non-integer vertex id in '2, x'",
    ),
    (
        {"A": "\n1, 2\n2, 1\n\n2, 2\n"},
        DatasetFormatError,
        "{root}/X/X_A.txt:5: self-loop at vertex 2",
    ),
    (
        {"edge_labels": "\n3\n\n4\n"},
        DatasetFormatError,
        "{root}/X/X_edge_labels.txt: edge (1, 2) labeled 3 at line 2 but 4 at line 4",
    ),
    (
        {"node_labels": "1\n\n\n2.5\n"},
        DatasetFormatError,
        "{root}/X/X_node_labels.txt:4: not an integer: '2.5'",
    ),
    # the first non-finite attribute value, before any graph is built
    (
        {"node_attributes": "0.5,1\n\n0.25,nan\n"},
        DatasetFormatError,
        "{root}/X/X_node_attributes.txt:3: non-finite attribute in '0.25,nan'",
    ),
    (
        {"node_attributes": "inf,1\n-1e400,2\n"},
        DatasetFormatError,
        "{root}/X/X_node_attributes.txt:1: non-finite attribute in 'inf,1'",
    ),
    # labels past int64 are not integers
    (
        {"graph_labels": "99999999999999999999\n"},
        DatasetFormatError,
        "{root}/X/X_graph_labels.txt:1: not an integer: '99999999999999999999'",
    ),
    (
        {"node_labels": "1\n99999999999999999999\n"},
        DatasetFormatError,
        "{root}/X/X_node_labels.txt:2: not an integer: '99999999999999999999'",
    ),
    (
        {"edge_labels": "1\n99999999999999999999\n"},
        DatasetFormatError,
        "{root}/X/X_edge_labels.txt:2: not an integer: '99999999999999999999'",
    ),
]


class TestGraph:
    def test_edges_are_normalized_and_sorted(self):
        g = Graph(4, [(2, 1), (3, 0), (0, 1)])
        assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]

    def test_edge_labels_follow_normalization(self):
        g = Graph(3, [(2, 1), (0, 1)], edge_labels=[7, 9])
        # (2,1) normalizes to (1,2) and sorts after (0,1)
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.edge_label_array().tolist() == [9, 7]

    def test_unlabeled_reads_as_label_zero(self):
        bare = Graph(3, [(2, 1), (0, 1)])
        assert bare.vertex_label_array().tolist() == [0, 0, 0]
        assert bare.edges.tolist() == [[0, 1], [1, 2]]
        assert bare.edge_label_array().tolist() == [0, 0]
        tagged = Graph(3, [(2, 1), (0, 1)], vertex_labels=[4, 5, 6], edge_labels=[7, 9])
        assert tagged.vertex_label_array().tolist() == [4, 5, 6]
        assert tagged.edge_label_array().tolist() == [9, 7]
        assert Graph(0).vertex_label_array().shape == (0,)

    def test_rejects_self_loops_duplicates_and_bad_ids(self):
        with pytest.raises(ContractError):
            Graph(3, [(1, 1)])
        with pytest.raises(ContractError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ContractError):
            Graph(3, [(0, 3)])
        with pytest.raises(ContractError):
            Graph(2, [(0, 1)], vertex_labels=[1])
        with pytest.raises(ContractError):
            Graph(2, [(0, 1)], edge_labels=[1, 2])

    def test_empty_graph_allowed(self):
        g = Graph(0, [])
        assert g.n == 0 and g.m == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_attributes(self, value):
        # nan equals no row, not even its own, so row-keyed maps would break
        with pytest.raises(ContractError, match="vertex 1 has a non-finite attribute"):
            Graph(2, [(0, 1)], vertex_attributes=[[0.5, 1.0], [0.25, value]])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_plain_python_normalization(self, data):
        # a valid edge list in shuffled order and orientation, with up to two
        # arbitrary edges (self-loops, repeats, ids out of range) slipped in
        n = data.draw(st.integers(0, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges = [
            (v, u) if data.draw(st.booleans()) else (u, v)
            for u, v in data.draw(st.permutations(chosen))
        ]
        ids = st.integers(-1, n)
        for extra in data.draw(st.lists(st.tuples(ids, ids), max_size=2)):
            edges.insert(data.draw(st.integers(0, len(edges))), extra)
        labels = data.draw(
            st.none() | st.lists(st.integers(0, 3), min_size=len(edges), max_size=len(edges))
        )
        if data.draw(st.booleans()):
            edges = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
        try:
            want_edges, want_labels = oracle_graph(n, edges, labels)
        except ValueError as exc:
            with pytest.raises(ContractError) as got:
                Graph(n, edges, edge_labels=labels)
            assert str(got.value) == str(exc)
            return
        g = Graph(n, edges, edge_labels=labels)
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(want_edges), 2)
        assert g.edges.tolist() == want_edges
        if labels is None:
            assert g.edge_labels is None
        else:
            assert g.edge_labels.dtype == np.int64
            assert g.edge_labels.tolist() == want_labels

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_csr_matches_the_oracle_adjacency(self, data):
        # edges in shuffled order and orientation, labeled or not; n = 0 and
        # isolated vertices come up
        n = data.draw(st.integers(0, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges = [
            (v, u) if data.draw(st.booleans()) else (u, v)
            for u, v in data.draw(st.permutations(chosen))
        ]
        labels = data.draw(
            st.none() | st.lists(st.integers(0, 3), min_size=len(edges), max_size=len(edges))
        )
        g = Graph(n, edges, edge_labels=labels)
        want, label_of = adjacency_lists(g), edge_label_dict(g)
        given_labels = labels or [0] * len(edges)
        assert label_of == {
            **{(u, v): x for (u, v), x in zip(edges, given_labels)},
            **{(v, u): x for (u, v), x in zip(edges, given_labels)},
        }
        starts = g.arc_starts.tolist()
        assert starts[0] == 0 and len(starts) == n + 1 and starts[-1] == 2 * len(edges)
        arc_labels = g.edge_label_array()[g.arc_edges]
        for u, (a, b) in enumerate(zip(starts, starts[1:])):
            assert g.neighbors[a:b].tolist() == want[u]
            assert arc_labels[a:b].tolist() == [label_of[u, v] for v in want[u]]
        assert g.neighbor_lists() == want
        assert all(type(v) is int for nbrs in g.neighbor_lists() for v in nbrs)


def _union_arrays(union):
    return {
        "edges": union.edges,
        "vertex_labels": union.vertex_label_array(),
        "edge_labels": union.edge_label_array(),
        "owner": union.owner,
        "vertex_offsets": union.vertex_offsets,
        "edge_offsets": union.edge_offsets,
    }


class TestDisjointUnion:
    def test_slices_equal_the_unions_of_their_partners(self):
        rng = random.Random(331)
        for _ in range(40):
            partners = [
                rng.choice(
                    [
                        lambda: make_random_graph(rng, max_n=6, attribute_dim=2),
                        lambda: make_random_graph(rng, max_n=6),  # no attributes
                        lambda: make_random_graph(rng, max_n=6, edge_prob=0.0, labels=None),
                        lambda: Graph(0, vertex_attributes=np.zeros((0, 2))),
                        lambda: Graph(0),
                    ]
                )()
                for _ in range(rng.randint(0, 6))
            ]
            union = DisjointUnion(partners)
            count = len(partners)
            for a in range(count + 1):
                for b in range(a, count + 1):  # a == b: an empty slice
                    for got in (union[a:b], union[:][a:b], union[a:][: b - a]):
                        want = DisjointUnion(partners[a:b])
                        assert (got.n, got.m, len(got)) == (want.n, want.m, b - a)
                        assert all(x is y for x, y in zip(got, partners[a:b]))
                        got_arrays, want_arrays = _union_arrays(got), _union_arrays(want)
                        for name, array in want_arrays.items():
                            assert got_arrays[name].dtype == array.dtype, name
                            assert got_arrays[name].shape == array.shape, name
                            assert got_arrays[name].tobytes() == array.tobytes(), name
                        rows, wanted = got.vertex_attributes, want.vertex_attributes
                        assert (rows is None) == (wanted is None)
                        if rows is not None:
                            assert rows.tobytes() == wanted.tobytes()
                        has = [h.vertex_attributes is not None for h in partners[a:b]]
                        assert (rows is not None) == (bool(has) and all(has))

    def test_a_sequence_of_the_original_graphs(self, path3, triangle):
        union = DisjointUnion([path3, triangle, path3])
        assert isinstance(union, Sequence) and len(union) == 3
        assert union[1] is triangle and union[-1] is path3
        assert [g is h for g, h in zip(union, [path3, triangle, path3])] == [True] * 3
        assert union[5:1].n == 0 and len(union[5:1]) == 0
        assert DisjointUnion.of(union) is union
        assert list(DisjointUnion.of([triangle])) == [triangle]
        with pytest.raises(ContractError, match="steps of 1"):
            union[::2]

    def test_layout_of_three_partners(self, path3, triangle):
        union = DisjointUnion([triangle, Graph(0), path3])
        assert union.edges.tolist() == [[0, 1], [0, 2], [1, 2], [3, 4], [4, 5]]
        assert union.owner.tolist() == [0, 0, 0, 2, 2, 2]
        assert union.vertex_offsets.tolist() == [0, 3, 3, 6]
        assert union.edge_offsets.tolist() == [0, 3, 3, 5]
        assert union[1:].edges.tolist() == [[0, 1], [1, 2]]
        assert union[1:].owner.tolist() == [1, 1, 1]

    def test_partners_of_two_widths_name_the_first_that_differs(self):
        one, two = ([[0.5] * w, [0.25] * w] for w in (1, 2))
        partners = [Graph(2, [(0, 1)], vertex_attributes=rows) for rows in (one, two, one)]
        union = DisjointUnion(partners)
        with pytest.raises(ContractError) as raised:
            union.vertex_attributes
        assert str(raised.value) == (
            "graph 1 has attributes of width 2 but graph 0 has attributes of width 1"
        )
        # a slice numbers its partners as the union it was cut from does
        with pytest.raises(ContractError, match="^graph 2 has attributes of width 1 but graph 1 "):
            union[1:].vertex_attributes
        for i, rows in enumerate((one, two, one)):
            assert union[i : i + 1].vertex_attributes.tolist() == rows
        # what does not read attributes still reads the union
        assert union.vertex_label_array().tolist() == [0] * 6 and union.m == 3
        assert DisjointUnion([partners[1], Graph(1)]).vertex_attributes is None


class TestShortestPaths:
    def test_matches_floyd_warshall_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            g = make_random_graph(rng, max_n=9, edge_prob=0.3)
            dm = all_pairs_shortest_paths(g)
            expected = oracle_apsp(g)
            for i in range(g.n):
                for j in range(g.n):
                    want = expected[i][j]
                    got = int(dm.dist[i, j])
                    if want == math.inf:
                        assert got == INF_DISTANCE
                    else:
                        assert got == want

    def test_path_counts_match_oracle(self):
        rng = random.Random(8)
        for _ in range(40):
            g = make_random_graph(rng, max_n=9, edge_prob=0.35)
            dm = all_pairs_shortest_paths(g, with_counts=True)
            expected = oracle_shortest_path_counts(g)
            for i in range(g.n):
                for j in range(g.n):
                    assert dm.counts[i][j] == expected[i][j], (i, j)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(graphs(max_n=7), max_size=5),
        st.integers(0, 5),
        st.sampled_from([1, 5, graphs_module.BFS_ARCS]),
    )
    def test_blocks_match_a_plain_bfs(self, drawn, at, budget):
        # no vertex, one vertex and two components ride along with the drawn
        # graphs; budgets of 1 and 5 arcs cut each level into many runs
        fixed = [Graph(0), Graph(1), Graph(5, [(0, 1), (2, 3)])]
        gs = drawn[:at] + fixed + drawn[at:]
        real = graphs_module.BFS_ARCS
        graphs_module.BFS_ARCS = budget
        try:
            dist, counts, starts = shortest_path_blocks(gs, with_counts=True)
            alone = shortest_path_blocks(gs)
        finally:
            graphs_module.BFS_ARCS = real
        assert dist.dtype == counts.dtype == np.int64
        assert starts.tolist() == np.cumsum([0] + [g.n * g.n for g in gs]).tolist()
        assert alone[0].tobytes() == dist.tobytes() and alone[1] is None
        for g, a in zip(gs, starts.tolist()):
            want_dist, want_counts = oracle_bfs(g)
            block = slice(a, a + g.n * g.n)
            want = [INF_DISTANCE if d == math.inf else d for row in want_dist for d in row]
            assert dist[block].tolist() == want
            assert counts[block].tolist() == [c for row in want_counts for c in row]

    def test_path_counts_past_int64_raise(self):
        # 63 diamonds give 2**63 paths end to end, one past int64, and 64
        # give 2**64
        assert all_pairs_shortest_paths(diamond_chain(62), with_counts=True).counts[0, -1] == 2**62
        with pytest.raises(MultiplicityOverflowError, match="64-bit"):
            all_pairs_shortest_paths(diamond_chain(63), with_counts=True)
        with pytest.raises(MultiplicityOverflowError, match="64-bit"):
            all_pairs_shortest_paths(diamond_chain(64), with_counts=True)


class TestDataset:
    def test_class_labels_default_to_zero(self, path3):
        ds = Dataset("d", [path3])
        assert ds.class_labels.tolist() == [0]

    def test_label_count_must_match(self, path3):
        with pytest.raises(ContractError):
            Dataset("d", [path3], [1, 2])

    def test_annotation_flags(self, path3, labeled_edge):
        assert not Dataset("d", [path3]).has_vertex_labels
        assert Dataset("d", [labeled_edge]).has_vertex_labels
        assert not Dataset("d", [path3, labeled_edge]).has_vertex_labels

    def test_attribute_dim_consistency(self):
        a = Graph(2, [(0, 1)], vertex_attributes=[[0.0, 1.0], [1.0, 0.0]])
        b = Graph(1, [], vertex_attributes=[[0.5, 0.5]])
        assert Dataset("d", [a, b]).attribute_dim == 2
        c = Graph(1, [], vertex_attributes=[[0.5]])
        with pytest.raises(ContractError):
            Dataset("d", [a, c]).attribute_dim
        bare = Graph(1, [])
        with pytest.raises(ContractError):
            Dataset("d", [a, bare]).attribute_dim

    def test_subset_is_prefix(self, path3, triangle):
        ds = Dataset("d", [path3, triangle], [0, 1])
        sub = ds.subset(1)
        assert len(sub) == 1 and sub[0] is path3
        assert sub.class_labels.tolist() == [0]
        with pytest.raises(ParameterError):
            ds.subset(3)

    def test_stats_row(self, path3, triangle):
        stats = Dataset("d", [path3, triangle], [0, 1]).stats()
        assert stats["graphs"] == 2
        assert stats["classes"] == 2
        assert stats["avg_vertices"] == 3.0
        assert stats["avg_edges"] == 2.5
        empty = Dataset("e", []).stats()
        assert empty["graphs"] == 0 and empty["classes"] == 0


class TestScaleAttributes:
    def test_scales_to_unit_range_per_dimension(self):
        a = Graph(2, [(0, 1)], vertex_attributes=[[0.0, 5.0], [10.0, 5.0]])
        b = Graph(1, [], vertex_attributes=[[5.0, 5.0]])
        scaled = scale_attributes(Dataset("d", [a, b]))
        assert scaled[0].vertex_attributes.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert scaled[1].vertex_attributes.tolist() == [[0.5, 0.0]]

    def test_a_span_past_float64_still_scales(self):
        # 1e308 - (-1e308) overflows; the rows still map to finite, distinct
        # values, so the attribute-Dirac schemes agree on them
        a = Graph(3, [(0, 1)], vertex_attributes=[[1e308, 1.0], [-1e308, 3.0], [0.0, 2.0]])
        ds = Dataset("d", [a])
        assert scale_attributes(ds)[0].vertex_attributes.tolist() == [
            [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]
        ]
        plan = kernel_plan("graph-invariant", ds, vertex_kernel="dirac-attributes")
        assert plan.implicit().values.tolist() == plan.explicit().values.tolist() == [[12.0]]

    def test_structure_is_shared_not_copied(self):
        a = Graph(2, [(0, 1)], vertex_attributes=[[0.0], [2.0]])
        scaled = scale_attributes(Dataset("d", [a]))
        assert scaled[0].edges is a.edges

    def test_requires_attributes(self, path3):
        with pytest.raises(ContractError):
            scale_attributes(Dataset("d", [path3]))


class TestDiskFormat:
    def _round_trip(self, tmp_path, ds):
        write_tu_dataset(ds, str(tmp_path))
        return load_tu_dataset(str(tmp_path), ds.name)

    def test_round_trip_preserves_everything(self, tmp_path):
        rng = random.Random(21)
        graphs = [
            make_random_graph(rng, max_n=7, attribute_dim=2, min_n=1)
            for _ in range(6)
        ]
        ds = Dataset("RT", graphs, [i % 3 for i in range(6)])
        loaded = self._round_trip(tmp_path, ds)
        assert len(loaded) == len(ds)
        assert loaded.class_labels.tolist() == ds.class_labels.tolist()
        for g, back in zip(ds.graphs, loaded.graphs):
            assert back.n == g.n
            assert back.edges.tolist() == g.edges.tolist()
            if g.vertex_labels is None:
                assert back.vertex_labels is None
            else:
                assert back.vertex_labels.tolist() == g.vertex_labels.tolist()
            if g.edge_labels is None:
                assert g.m == 0 or back.edge_labels.tolist() == [0] * g.m
            else:
                assert back.edge_labels.tolist() == g.edge_labels.tolist()
            assert np.allclose(back.vertex_attributes, g.vertex_attributes)

    def test_labels_of_some_graphs_survive_the_round_trip(self, tmp_path):
        labeled = Graph(3, [(0, 1), (1, 2)], vertex_labels=[1, 2, 1], edge_labels=[4, 5])
        ds = Dataset("L", [labeled, Graph(2, [(0, 1)])])
        loaded = self._round_trip(tmp_path, ds)
        for g, back in zip(ds.graphs, loaded.graphs):
            assert back.vertex_label_array().tolist() == g.vertex_label_array().tolist()
            assert back.edge_label_array().tolist() == g.edge_label_array().tolist()
        walk = lambda d: kernel_plan("walk", d).grams(("explicit",))[0].values
        assert walk(ds).tolist() == [[12, 0], [0, 4]]
        assert np.array_equal(walk(loaded), walk(ds))

    @pytest.mark.parametrize(
        "second, message",
        [
            (Graph(1, vertex_attributes=[[0.5, 1.0]]), "graph 1 of 'B' has attributes of width 2 "
             "but graph 0 has attributes of width 1"),
            (Graph(1), "graph 1 of 'B' has no vertex attributes but graph 0 has attributes "
             "of width 1"),
        ],
        ids=["width", "presence"],
    )
    def test_attributes_the_layout_cannot_hold_fail_before_writing(
        self, tmp_path, second, message
    ):
        ds = Dataset("B", [Graph(1, vertex_attributes=[[0.5]]), second])
        with pytest.raises(ContractError) as raised:
            write_tu_dataset(ds, str(tmp_path))
        assert str(raised.value).startswith(message)
        assert not (tmp_path / "B").exists()

    def test_a_graph_without_vertices_needs_no_attribute_rows(self, tmp_path):
        rows = [[0.5], [0.25]]
        ds = Dataset("E", [Graph(0), Graph(2, [(0, 1)], vertex_attributes=rows)])
        loaded = self._round_trip(tmp_path, ds)
        assert loaded[1].vertex_attributes.tolist() == rows

    def test_missing_mandatory_file(self, tmp_path):
        with pytest.raises(DatasetLoadError, match="_A.txt"):
            load_tu_dataset(str(tmp_path), "NONE")

    def _write(self, tmp_path, name, **contents):
        base = tmp_path / name
        base.mkdir(exist_ok=True)
        defaults = {
            "A": "1, 2\n2, 1\n",
            "graph_indicator": "1\n1\n",
            "graph_labels": "0\n",
        }
        defaults.update(contents)
        for suffix, text in defaults.items():
            if text is not None:
                (base / f"{name}_{suffix}.txt").write_text(text)
        return str(tmp_path)

    def test_error_messages_carry_file_and_line(self, tmp_path):
        path = self._write(tmp_path, "BAD", A="1, 2\n2, x\n")
        with pytest.raises(DatasetFormatError, match=r"BAD_A\.txt:2"):
            load_tu_dataset(path, "BAD")

    def test_missing_mirror_edge(self, tmp_path):
        path = self._write(tmp_path, "MIR", A="1, 2\n")
        with pytest.raises(DatasetFormatError, match="mirror"):
            load_tu_dataset(path, "MIR")

    def test_self_loop_rejected(self, tmp_path):
        path = self._write(tmp_path, "LOOP", A="1, 1\n")
        with pytest.raises(DatasetFormatError, match="self-loop"):
            load_tu_dataset(path, "LOOP")

    def test_cross_graph_edge_rejected(self, tmp_path):
        path = self._write(
            tmp_path, "CROSS", A="1, 2\n2, 1\n", graph_indicator="1\n2\n",
            graph_labels="0\n0\n",
        )
        with pytest.raises(DatasetFormatError, match="crosses graph boundaries"):
            load_tu_dataset(path, "CROSS")

    def test_duplicate_edge_rejected(self, tmp_path):
        path = self._write(tmp_path, "DUP", A="1, 2\n1, 2\n2, 1\n")
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_tu_dataset(path, "DUP")

    def test_out_of_range_vertex(self, tmp_path):
        path = self._write(tmp_path, "RANGE", A="1, 5\n5, 1\n")
        with pytest.raises(DatasetFormatError, match="out of range"):
            load_tu_dataset(path, "RANGE")

    def test_mismatched_edge_label_mirror(self, tmp_path):
        path = self._write(
            tmp_path, "ELAB", A="1, 2\n2, 1\n", edge_labels="3\n4\n"
        )
        with pytest.raises(DatasetFormatError, match="labeled 3 .* but 4"):
            load_tu_dataset(path, "ELAB")

    def test_wrong_class_label_count(self, tmp_path):
        path = self._write(tmp_path, "CL", graph_labels="0\n1\n")
        with pytest.raises(DatasetFormatError, match="class labels"):
            load_tu_dataset(path, "CL")

    def test_ragged_attribute_rows(self, tmp_path):
        path = self._write(
            tmp_path, "ATTR", node_attributes="0.5,0.5\n0.25\n"
        )
        with pytest.raises(DatasetFormatError, match=r"ATTR_node_attributes\.txt:2"):
            load_tu_dataset(path, "ATTR")

    def test_empty_dataset_loads_as_zero_graphs(self, tmp_path):
        path = self._write(
            tmp_path, "EMPTY", A="", graph_indicator="", graph_labels=""
        )
        ds = load_tu_dataset(path, "EMPTY")
        assert len(ds) == 0
        assert ds.stats()["graphs"] == 0

    def test_nested_directory_layout(self, tmp_path):
        self._write(tmp_path, "NEST")
        # files live in tmp_path/NEST/, loadable via the parent directory
        ds = load_tu_dataset(str(tmp_path), "NEST")
        assert len(ds) == 1 and ds[0].n == 2

    @pytest.mark.parametrize("files, error, message", LOADER_DEFECTS)
    def test_each_defect_raises_its_full_message(self, tmp_path, files, error, message):
        path = self._write(tmp_path, "X", **files)
        with pytest.raises(error) as raised:
            load_tu_dataset(path, "X")
        assert str(raised.value) == message.format(root=tmp_path)

    def _assert_loads_as_the_oracle(self, directory, name):
        ds = load_tu_dataset(str(directory), name)
        want, classes = oracle_load_tu(str(directory), name)
        assert ds.class_labels.dtype == np.int64 and ds.class_labels.tolist() == classes
        assert len(ds) == len(want)
        for got, g in zip(ds.graphs, want):
            assert type(got.n) is int and got.n == g.n
            for slot in Graph.__slots__[1:]:
                a, b = getattr(got, slot), getattr(g, slot)
                assert (a is None) == (b is None), slot
                if b is not None:
                    assert (a.dtype, a.shape) == (b.dtype, b.shape), slot
                    assert a.tobytes() == b.tobytes(), slot
        return ds

    def test_a_hand_written_dataset_loads_as_the_oracle(self, tmp_path):
        # graph ids interleave and graph 2 has no vertex; CRLF and LF line
        # ends, tabs, blank lines and both separators
        self._write(
            tmp_path, "HAND",
            A="1, 4\r\n\r\n4,1\r\n2\t5\n5 2\n  5 ,3 \n3\t,\t5\n",
            graph_indicator="1\r\n3\r\n\t\r\n3\n1\n3\n",
            graph_labels="0\n\n-7\n2\n",
            node_labels="\t4\n-1 \n\n0\n9\n3\n",
            edge_labels="6\n\n6\n\t1\n1\n0\n0\n",
            node_attributes="0.5,1\r\n-0.0,2\r\n1e-3,3\n4,4\n5,5\n",
        )
        ds = self._assert_loads_as_the_oracle(tmp_path / "HAND", "HAND")
        assert [g.n for g in ds] == [2, 0, 3]
        assert [g.edges.tolist() for g in ds] == [[[0, 1]], [], [[0, 2], [1, 2]]]
        assert ds[2].edge_labels.tolist() == [1, 0] and ds[1].edge_labels.tolist() == []

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_drawn_datasets_load_as_the_oracle(self, tmp_path_factory, data):
        gs = data.draw(st.lists(graphs(max_n=5), max_size=5))
        while gs and not gs[-1].n:
            gs.pop()  # the last graph id is the largest in the indicator file
        # each graph's vertices at drawn global ids, interleaved, in order
        slots = data.draw(st.permutations([i for i, g in enumerate(gs) for _ in range(g.n)]))
        ids = [[] for _ in gs]
        for v, i in enumerate(slots, start=1):
            ids[i].append(v)
        lines = [
            (ids[i][a], ids[i][b], label)
            for i, g in enumerate(gs)
            for (u, v), label in zip(g.edges.tolist(), g.edge_label_array().tolist())
            for a, b in ((u, v), (v, u))
        ]
        lines = data.draw(st.permutations(lines))
        width = data.draw(st.sampled_from([None, 1, 2]))
        values = st.sampled_from([-0.0, 0.5, 1e-3, 3.0])
        rows = {v: [data.draw(values) for _ in range(width or 0)] for v in range(1, len(slots) + 1)}
        labels = {v: int(x) for i, g in enumerate(gs) for v, x in zip(ids[i], g.vertex_label_array())}
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        blank = st.sampled_from(["", " ", "\t"])

        def text(items):
            out = []
            for item in items:
                out += data.draw(st.lists(blank, max_size=1)) + [item]
            return end.join(out) + end

        separator = st.sampled_from([", ", ",", " ", "\t", " , "])
        files = {
            "A": text(f"{u}{data.draw(separator)}{v}" for u, v, _ in lines),
            "graph_indicator": text(str(slot + 1) for slot in slots),
            "graph_labels": text(str(i % 3 - 1) for i in range(len(gs))),
        }
        if data.draw(st.booleans()):
            files["edge_labels"] = text(str(label) for _, _, label in lines)
        if data.draw(st.booleans()):
            files["node_labels"] = text(str(labels[v]) for v in range(1, len(slots) + 1))
        if width:
            files["node_attributes"] = text(
                ",".join(repr(x) for x in rows[v]) for v in range(1, len(slots) + 1)
            )
        directory = tmp_path_factory.mktemp("drawn")
        for key, content in files.items():
            with open(directory / f"D_{key}.txt", "w", newline="") as fh:
                fh.write(content)
        ds = self._assert_loads_as_the_oracle(directory, "D")
        assert [g.edges.tolist() for g in ds] == [g.edges.tolist() for g in gs]


class TestGenerators:
    def test_deterministic_in_seed(self):
        a = generate_synthetic_labeled(5, seed=3)
        b = generate_synthetic_labeled(5, seed=3)
        c = generate_synthetic_labeled(5, seed=4)
        assert all(
            x.edges.tolist() == y.edges.tolist()
            and x.vertex_labels.tolist() == y.vertex_labels.tolist()
            for x, y in zip(a.graphs, b.graphs)
        )
        assert any(
            x.n != y.n or x.edges.tolist() != y.edges.tolist()
            for x, y in zip(a.graphs, c.graphs)
        )

    def test_labeled_generator_distributions(self):
        ds = generate_synthetic_labeled(
            300, mean_vertices=20.0, edge_prob=0.1, p_vertex=0.4, seed=9
        )
        sizes = [g.n for g in ds.graphs]
        mean_size = sum(sizes) / len(sizes)
        assert abs(mean_size - 20.0) < 1.0
        labels = [int(x) for g in ds.graphs for x in g.vertex_labels]
        diverse = sum(1 for x in labels if x in (1, 2))
        assert abs(diverse / len(labels) - 0.4) < 0.03
        ones = sum(1 for x in labels if x == 1)
        # labels 1 and 2 are drawn with equal probability
        assert abs(ones / max(diverse, 1) - 0.5) < 0.05
        # edge density ~ n(n-1)/2 * p
        pairs = sum(n * (n - 1) / 2 for n in sizes)
        assert abs(sum(g.m for g in ds.graphs) / pairs - 0.1) < 0.01

    def test_labeled_extremes(self):
        uniform = generate_synthetic_labeled(20, p_vertex=0.0, seed=1)
        assert all(set(g.vertex_labels.tolist()) <= {0} for g in uniform.graphs)
        diverse = generate_synthetic_labeled(20, p_vertex=1.0, seed=1)
        assert all(
            set(g.vertex_labels.tolist()) <= {1, 2} for g in diverse.graphs
        )

    def test_alphabet_generator_coverage_and_density(self):
        ds = generate_synthetic_alphabet(
            100, mean_vertices=15.0, edge_prob=0.5, alphabet_size=4, seed=2
        )
        labels = {int(x) for g in ds.graphs for x in g.vertex_labels}
        assert labels == {0, 1, 2, 3}
        assert ds.has_edge_labels
        sizes = [g.n for g in ds.graphs]
        pairs = sum(n * (n - 1) / 2 for n in sizes)
        assert abs(sum(g.m for g in ds.graphs) / pairs - 0.5) < 0.02

    def test_class_labels_alternate(self):
        ds = generate_synthetic_labeled(6, seed=0)
        assert ds.class_labels.tolist() == [0, 1, 0, 1, 0, 1]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            generate_synthetic_labeled(-1, seed=0)
        with pytest.raises(ParameterError):
            generate_synthetic_labeled(3, p_vertex=1.5, seed=0)
        with pytest.raises(ParameterError):
            generate_synthetic_alphabet(3, alphabet_size=0, seed=0)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, 1e4, 0.0])
    def test_a_mean_poisson_cannot_sample_fails_before_any_draw(self, mean):
        # checked as edge_prob is, so even a dataset of no graphs fails
        for generate in (generate_synthetic_labeled, generate_synthetic_alphabet):
            with pytest.raises(ParameterError, match="poisson mean"):
                generate(0, mean_vertices=mean, seed=0)
