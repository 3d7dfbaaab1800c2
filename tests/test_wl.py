"""Iterative color refinement."""

import random

import pytest

from gkern import Dataset, Graph, ParameterError, wl_refine_dataset
from conftest import make_random_graph
from oracles import adjacency_lists


def partition_of(colors):
    """Map color -> set of vertices, for comparing partitions."""
    groups = {}
    for v, c in enumerate(colors.tolist()):
        groups.setdefault(c, set()).add(v)
    return sorted(groups.values(), key=sorted)


class TestFrozenCases:
    def test_path_splits_ends_from_center(self):
        # a - b - c, uniformly labeled: one round separates the endpoints
        # (degree 1) from the center (degree 2)
        ds = Dataset("t", [Graph(3, [(0, 1), (1, 2)])])
        assignment = wl_refine_dataset(ds, 1)
        assert assignment.iterations == 1
        assert assignment.colors_per_iteration == [1, 2]
        colors = assignment.at(0, 1)
        assert colors[0] == colors[2] != colors[1]

    def test_labels_seed_iteration_zero(self):
        ds = Dataset("t", [Graph(3, [(0, 1), (1, 2)], vertex_labels=[4, 4, 7])])
        assignment = wl_refine_dataset(ds, 0, init="labels")
        assert assignment.colors_per_iteration == [2]
        colors = assignment.at(0, 0)
        assert colors[0] == colors[1] != colors[2]
        # uniform init ignores the labels
        uniform = wl_refine_dataset(ds, 0, init="uniform")
        assert uniform.colors_per_iteration == [1]
        assert len(set(uniform.at(0, 0).tolist())) == 1

    def test_an_unlabeled_graph_reads_as_label_zero(self):
        # a bare graph beside a labeled one keeps the labeled one's colors
        labeled = Graph(3, [(0, 1), (1, 2)], vertex_labels=[1, 2, 1])
        assert wl_refine_dataset(Dataset("t", [labeled]), 0).at(0, 0).tolist() == [0, 1, 0]
        mixed = wl_refine_dataset(Dataset("t", [labeled, Graph(2, [(0, 1)])]), 1)
        assert mixed.at(0, 0).tolist() == [1, 2, 1] and mixed.at(1, 0).tolist() == [0, 0]
        assert mixed.colors_per_iteration == [3, 3]
        # as the same graph labeled 0 does
        zeros = Graph(2, [(0, 1)], vertex_labels=[0, 0])
        zero = wl_refine_dataset(Dataset("t", [labeled, zeros]), 1)
        for i in range(2):
            for g_idx in range(2):
                assert mixed.at(g_idx, i).tolist() == zero.at(g_idx, i).tolist()

    def test_cycle_is_stable_under_uniform_init(self):
        ds = Dataset("t", [Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])])
        assignment = wl_refine_dataset(ds, 3, init="uniform")
        # all vertices look alike at every iteration
        assert assignment.colors_per_iteration == [1, 1, 1, 1]

    def test_colors_comparable_across_graphs(self):
        # two copies of one graph must get identical colorings
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_labels=[0, 1, 1, 0])
        ds = Dataset("t", [g, Graph(4, g.edges, vertex_labels=[0, 1, 1, 0])])
        assignment = wl_refine_dataset(ds, 3)
        for i in range(4):
            assert (assignment.at(0, i) == assignment.at(1, i)).all()

    def test_total_colors_sums_strata(self):
        ds = Dataset("t", [Graph(3, [(0, 1), (1, 2)])])
        assignment = wl_refine_dataset(ds, 2)
        assert assignment.total_colors == sum(assignment.colors_per_iteration)


class TestInvariants:
    def test_refinement_is_monotone(self):
        # vertices separated at iteration i never merge at i+1, and color
        # counts never decrease
        rng = random.Random(23)
        for trial in range(15):
            graphs = [make_random_graph(rng, max_n=8) for _ in range(3)]
            ds = Dataset("t", graphs)
            assignment = wl_refine_dataset(ds, 4)
            for g_idx in range(len(graphs)):
                for i in range(4):
                    old = assignment.at(g_idx, i).tolist()
                    new = assignment.at(g_idx, i + 1).tolist()
                    for v in range(len(old)):
                        for w in range(v + 1, len(old)):
                            if old[v] != old[w]:
                                assert new[v] != new[w]
            for i in range(4):
                assert (
                    assignment.colors_per_iteration[i + 1]
                    >= assignment.colors_per_iteration[i]
                )

    def test_refined_partition_matches_signature_partition(self):
        # two vertices share a color at i+1 iff they shared one at i and
        # their neighborhoods carried the same color multiset
        rng = random.Random(29)
        for trial in range(10):
            g = make_random_graph(rng, max_n=8)
            h = make_random_graph(rng, max_n=8)
            ds = Dataset("t", [g, h])
            assignment = wl_refine_dataset(ds, 3)
            for i in range(3):
                seen = {}
                for g_idx, graph in enumerate((g, h)):
                    colors = assignment.at(g_idx, i).tolist()
                    nxt = assignment.at(g_idx, i + 1).tolist()
                    for v, nbrs in enumerate(adjacency_lists(graph)):
                        signature = (colors[v], tuple(sorted(colors[w] for w in nbrs)))
                        if signature in seen:
                            assert seen[signature] == nxt[v]
                        else:
                            seen[signature] = nxt[v]

    def test_colors_dense_in_ascending_order_of_labels_and_signatures(self):
        rng = random.Random(31)
        for trial in range(10):
            graphs = [make_random_graph(rng, max_n=7, labels=4) for _ in range(3)]
            assignment = wl_refine_dataset(Dataset("t", graphs), 2)
            # iteration 0 numbers the labels, iteration i + 1 the signatures
            # (color, sorted neighbor colors) of iteration i, both ascending
            meanings = [[[int(x) for x in g.vertex_labels] for g in graphs]]
            for i in range(2):
                meanings.append([
                    [
                        (colors[v], tuple(sorted(colors[w] for w in nbrs)))
                        for v, nbrs in enumerate(adjacency_lists(g))
                    ]
                    for g_idx, g in enumerate(graphs)
                    for colors in [assignment.at(g_idx, i).tolist()]
                ])
            for i, per_graph in enumerate(meanings):
                distinct = sorted({m for row in per_graph for m in row})
                expected = [[distinct.index(m) for m in row] for row in per_graph]
                got = [assignment.at(g_idx, i).tolist() for g_idx in range(3)]
                assert got == expected
                assert len(distinct) == assignment.colors_per_iteration[i]
            # so reordering the dataset reorders the colors with it
            backward = wl_refine_dataset(Dataset("t", graphs[::-1]), 2)
            for g_idx in range(3):
                for i in range(3):
                    assert (
                        backward.at(2 - g_idx, i).tolist()
                        == assignment.at(g_idx, i).tolist()
                    )

    def test_stable_point_persists(self):
        # once two consecutive iterations induce the same partition, the
        # partition never changes again
        rng = random.Random(37)
        for trial in range(8):
            g = make_random_graph(rng, max_n=7)
            ds = Dataset("t", [g])
            assignment = wl_refine_dataset(ds, g.n + 2)
            stable_from = None
            for i in range(g.n + 2):
                if partition_of(assignment.at(0, i)) == partition_of(
                    assignment.at(0, i + 1)
                ):
                    stable_from = i
                    break
            assert stable_from is not None  # at most n strict refinements
            reference = partition_of(assignment.at(0, stable_from))
            for i in range(stable_from, g.n + 3):
                assert partition_of(assignment.at(0, i)) == reference


class TestParameters:
    def test_rejects_bad_arguments(self):
        ds = Dataset("t", [Graph(2, [(0, 1)])])
        with pytest.raises(ParameterError):
            wl_refine_dataset(ds, -1)
        with pytest.raises(ParameterError):
            wl_refine_dataset(ds, 1, init="smooth")

    def test_empty_dataset_and_empty_graph(self):
        assignment = wl_refine_dataset(Dataset("t", []), 2)
        assert assignment.colors_per_iteration == [0, 0, 0]
        with_empty = wl_refine_dataset(Dataset("t", [Graph(0, [])]), 1)
        assert with_empty.at(0, 0).shape == (0,)
        assert with_empty.colors_per_iteration == [0, 0]
