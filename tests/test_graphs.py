"""Graph container, shortest paths, disk format, and generators."""

import math
import random

import numpy as np
import pytest

from gkern import (
    ContractError,
    Dataset,
    DatasetFormatError,
    DatasetLoadError,
    Graph,
    INF_DISTANCE,
    ParameterError,
    all_pairs_shortest_paths,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
    load_tu_dataset,
    scale_attributes,
    write_tu_dataset,
)
from conftest import make_random_graph
from oracles import oracle_apsp, oracle_shortest_path_counts


class TestGraph:
    def test_edges_are_normalized_and_sorted(self):
        g = Graph(4, [(2, 1), (3, 0), (0, 1)])
        assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]

    def test_edge_labels_follow_normalization(self):
        g = Graph(3, [(2, 1), (0, 1)], edge_labels=[7, 9])
        # (2,1) normalizes to (1,2) and sorts after (0,1)
        assert g.edge_label_map == {(0, 1): 9, (1, 2): 7}

    def test_unlabeled_reads_as_label_zero(self):
        bare = Graph(3, [(2, 1), (0, 1)])
        assert bare.vertex_label_array().tolist() == [0, 0, 0]
        assert bare.edge_label_array().tolist() == [0, 0]
        assert bare.edge_label_map == {(0, 1): 0, (1, 2): 0}
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

    def test_adjacency_and_degree(self, path3):
        matrix = path3.adjacency_matrix()
        assert matrix.tolist() == [
            [False, True, False],
            [True, False, True],
            [False, True, False],
        ]

    def test_empty_graph_allowed(self):
        g = Graph(0, [])
        assert g.n == 0 and g.m == 0


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
