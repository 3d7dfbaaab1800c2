"""Weighted vertex kernels: refinement weights and path-count weights."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkern import (
    ContractError,
    Dataset,
    EdgeKernelSpec,
    Graph,
    GramError,
    MultiplicityOverflowError,
    VertexKernelSpec,
    gram_explicit,
    gram_implicit,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    sample_binning_grid,
    subgraph_matching_kernel,
    walk_kernel_implicit,
    wl_refine_dataset,
    wv_features_explicit,
    wv_kernel_implicit,
)
from gkern import walks, weighted
from gkern.weighted import WeightFeatureMap
from conftest import diamond_chain, graphs, make_random_graph
from oracles import (
    dot,
    oracle_color_histogram_kernel,
    oracle_hopper_tables,
    oracle_vertex_weight,
    vertex_kernel_fn,
    weight_rows,
)

DIRAC = VertexKernelSpec("dirac")
DIRAC_ATTR = VertexKernelSpec("dirac-attributes")


def decoded_rows(wm, g, side):
    """Per vertex of ``g``: its path-count weight row as {(i, j): weight},
    1-based cells of a table with ``side`` columns."""
    return [
        {(c // side + 1, c % side + 1): x for c, x in row.items()} for row in weight_rows(wm, g)
    ]


def table_side(graphs):
    """The side of the path-count tables: the most vertices on a shortest
    path of any of ``graphs``, by the oracle's tables."""
    return max(
        (j for g in graphs for row in oracle_hopper_tables(g) for _, j in row), default=0
    )


def constructed(graphs, weight):
    """A one-column weight map giving every vertex of ``graphs`` ``weight``."""
    vertices = np.arange(sum(x.n for x in graphs))
    table = np.column_stack((vertices, 0 * vertices, np.full_like(vertices, weight)))
    return WeightFeatureMap("constructed", graphs, table)


class TestGraphInvariantWeights:
    def test_weight_counts_agreeing_strata(self):
        # on a uniform path, ends and center split after one iteration
        p3 = Graph(3, [(0, 1), (1, 2)])
        ds = Dataset("t", [p3])
        wm = graph_invariant_weight_maps(ds, 2)
        # same vertex: all 3 strata agree
        assert oracle_vertex_weight(wm, p3, 0, p3, 0) == 3.0
        # two ends agree everywhere
        assert oracle_vertex_weight(wm, p3, 0, p3, 2) == 3.0
        # end vs center: only the uniform stratum agrees
        assert oracle_vertex_weight(wm, p3, 0, p3, 1) == 1.0

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
                            assert oracle_vertex_weight(wm, g, u, g2, v) == float(agree)

    def test_refinement_weights_ignore_vertex_labels(self):
        bare = Graph(3, [(0, 1), (1, 2)])
        tagged = Graph(3, [(0, 1), (1, 2)], vertex_labels=[5, 6, 7])
        wm = graph_invariant_weight_maps(Dataset("t", [bare, tagged]), 1)
        across = oracle_vertex_weight(wm, bare, 0, tagged, 2)
        assert across == oracle_vertex_weight(wm, bare, 0, bare, 2)


class TestGraphHopperWeights:
    def test_single_edge_frozen_tables(self):
        e = Graph(2, [(0, 1)])
        ds = Dataset("t", [e])
        wm = graphhopper_weight_maps(ds)
        # trivial path, start of 0->1, end of 1->0
        assert decoded_rows(wm, e, 2)[0] == {(1, 1): 1, (1, 2): 1, (2, 2): 1}
        # self weight: 1 + 1 + 1 = 3
        assert oracle_vertex_weight(wm, e, 0, e, 0) == 3.0

    def test_tables_match_oracle(self):
        rng = random.Random(149)
        for trial in range(10):
            g = make_random_graph(rng, max_n=7)
            ds = Dataset("t", [g])
            wm = graphhopper_weight_maps(ds)
            assert decoded_rows(wm, g, table_side([g])) == oracle_hopper_tables(g)

    def test_table_side_is_the_dataset_longest_shortest_path(self):
        path3 = Graph(3, [(0, 1), (1, 2)])
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        # disconnected parts do not create infinite path lengths
        split = Graph(3, [(0, 1)])
        graphs = [triangle, Graph(0, []), split, path3]
        wm = graphhopper_weight_maps(Dataset("t", graphs))
        assert table_side(graphs) == 3
        # columns of the shorter graphs' tables are laid out on that side
        for g in graphs:
            assert decoded_rows(wm, g, 3) == oracle_hopper_tables(g)

    def test_tables_shared_across_dataset(self):
        # one weight map covers several graphs with comparable keys
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(0, 1)])
        wm = graphhopper_weight_maps(Dataset("t", [a, b]))
        assert oracle_vertex_weight(wm, a, 0, b, 0) == 3.0

    @pytest.mark.parametrize("budget", [1, 50])
    def test_tables_built_in_vertex_slices_match_oracle(self, budget, monkeypatch):
        # a budget below n * n slices one vertex at a time, 50 a few
        monkeypatch.setattr(weighted, "TRIPLE_CELLS", budget)
        rng = random.Random(151)
        graphs = [make_random_graph(rng, max_n=7) for _ in range(6)]
        wm = graphhopper_weight_maps(Dataset("t", graphs))
        for g in graphs:
            assert decoded_rows(wm, g, table_side(graphs)) == oracle_hopper_tables(g)

    def test_multiplicity_past_2_26_names_the_graph(self):
        # 27 diamonds: 2**27 shortest paths end to end; 26 stay exact
        chain = diamond_chain(26)
        assert graphhopper_weight_maps(Dataset("chains", [chain])).table[:, 2].max() >= 2**26
        with pytest.raises(MultiplicityOverflowError, match=r"graph 1 of 'chains'.* 134217728"):
            graphhopper_weight_maps(Dataset("chains", [Graph(2, [(0, 1)]), diamond_chain(27)]))

    def test_wrong_graph_is_rejected(self):
        a = Graph(2, [(0, 1)])
        wm = graphhopper_weight_maps(Dataset("t", [a]))
        clone = Graph(2, [(0, 1)])
        with pytest.raises(ContractError):
            wm.rows([clone])
        with pytest.raises(ContractError, match="not covered"):
            wv_kernel_implicit(a, [a, clone], wm, DIRAC)
        with pytest.raises(ContractError, match="not covered"):
            wv_features_explicit([clone], wm, DIRAC)


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
        same_row = vertex_kernel_fn(DIRAC_ATTR)
        for wm in (
            graph_invariant_weight_maps(ds, 2),
            graphhopper_weight_maps(ds),
        ):
            for g in ds.graphs:
                for h in ds.graphs:
                    naive = sum(
                        oracle_vertex_weight(wm, g, u, h, v)
                        * same_row(g, u, h, v)
                        for u in range(g.n)
                        for v in range(h.n)
                    )
                    got = wv_kernel_implicit(g, [h], wm, DIRAC_ATTR)[0]
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
                    oracle_vertex_weight(wm, g, u, h, v)
                    for u in range(g.n)
                    for v in range(h.n)
                )
                assert total == float(per_stratum)

    def test_explicit_matches_implicit_with_exact_feature_maps(self):
        rng = random.Random(163)
        ds = self._attributed_dataset(rng, count=5)
        for wm in (
            graph_invariant_weight_maps(ds, 3),
            graphhopper_weight_maps(ds),
        ):
            features = wv_features_explicit(ds.graphs, wm, DIRAC_ATTR)
            vectors = [features.vector(i) for i in range(len(ds))]
            for i, g in enumerate(ds.graphs):
                for j, h in enumerate(ds.graphs):
                    implicit = wv_kernel_implicit(g, [h], wm, DIRAC_ATTR)[0]
                    explicit = dot(vectors[i], vectors[j])
                    assert explicit == pytest.approx(
                        implicit, rel=1e-9, abs=1e-12
                    )

    def test_label_features_realize_dirac_on_labels(self):
        rng = random.Random(167)
        graphs = [make_random_graph(rng, max_n=6, labels=2) for _ in range(4)]
        ds = Dataset("t", graphs)
        wm = graph_invariant_weight_maps(ds, 2)
        features = wv_features_explicit(ds.graphs, wm, DIRAC)
        vectors = [features.vector(i) for i in range(len(ds))]
        for i, g in enumerate(ds.graphs):
            for j, h in enumerate(ds.graphs):
                implicit = wv_kernel_implicit(g, [h], wm, DIRAC)[0]
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
        wm = graphhopper_weight_maps(ds)
        features = wv_features_explicit(ds.graphs, wm, binned)
        for i, g in enumerate(ds.graphs):
            for j, h in enumerate(ds.graphs):
                implicit = wv_kernel_implicit(g, [h], wm, binned)[0]
                explicit = dot(features.vector(i), features.vector(j))
                assert explicit == pytest.approx(implicit, rel=1e-12, abs=1e-12)

    def test_binned_features_require_attributes(self):
        grid = sample_binning_grid(1, 1.0, 4, seed=2)
        g = Graph(1, [])
        wm = graphhopper_weight_maps(Dataset("t", [g]))
        with pytest.raises(GramError, match="graph 0 failed") as info:
            wv_features_explicit([g], wm, VertexKernelSpec("binned", grid=grid))
        assert isinstance(info.value.__cause__, ContractError)

    def test_attribute_widths_that_differ_name_the_graph(self):
        # widths 1 and 2 cannot stand side by side in one union: both Grams
        # name graph 1, while label kernels on the same graphs still run
        ds = Dataset("t", [Graph(2, [(0, 1)], vertex_attributes=[[0.5], [0.25]]),
                           Graph(2, [(0, 1)], vertex_attributes=[[0.5, 1.0], [0.25, 1.0]])])
        wm = graphhopper_weight_maps(ds)
        message = "graph 1 has attributes of width 2 but graph 0 has attributes of width 1"
        for vk, fails in ((DIRAC_ATTR, True), (DIRAC, False)):
            builds = (
                lambda: gram_implicit(ds, lambda g, hs: wv_kernel_implicit(g, hs, wm, vk)),
                lambda: gram_explicit(ds, lambda union: wv_features_explicit(union, wm, vk)),
            )
            if fails:
                for build in builds:
                    with pytest.raises(GramError, match=message) as info:
                        build()
                    assert isinstance(info.value.__cause__, ContractError)
                    assert str(info.value.__cause__) == message
            else:
                implicit, explicit = (build().values for build in builds)
                assert implicit.tolist() == [[12.0, 12.0], [12.0, 12.0]]
                assert implicit.tobytes() == explicit.tobytes()

    @pytest.mark.parametrize("kind", ["dirac-attributes", "binned"])
    def test_graph_without_attributes_fails_the_explicit_gram_by_name(self, kind):
        rng = random.Random(181)
        a, c = (make_random_graph(rng, max_n=5, attribute_dim=2) for _ in range(2))
        ds = Dataset("t", [a, make_random_graph(rng, max_n=5), c])
        grid = sample_binning_grid(2, 1.0, 4, seed=5)
        vk = VertexKernelSpec(kind, grid=grid if kind == "binned" else None)
        for wm in weight_maps(ds):
            features = lambda union: wv_features_explicit(union, wm, vk)
            with pytest.raises(GramError, match="graph 1 failed") as info:
                gram_explicit(ds, features, "weighted")
            assert isinstance(info.value.__cause__, ContractError)


def test_dirac_total_reaching_2_53_raises():
    g, h = Graph(1, []), Graph(1, [])
    # <w, w> = 2**52 is exact, 2**54 is not
    assert wv_kernel_implicit(g, [h], constructed((g, h), 2**26), DIRAC)[0] == 2**52
    with pytest.raises(MultiplicityOverflowError, match="2\\*\\*53"):
        wv_kernel_implicit(g, [h], constructed((g, h), 2**27), DIRAC)
    # a non-Dirac vertex kernel makes no exactness claim
    grid = sample_binning_grid(1, 1.0, 4, seed=2)
    a = Graph(1, [], vertex_attributes=[[0.5]])
    b = Graph(1, [], vertex_attributes=[[0.5]])
    binned = constructed((a, b), 2**27)
    assert wv_kernel_implicit(a, [b], binned, VertexKernelSpec("binned", grid=grid))[0] == 2**54


def test_explicit_self_dot_reaching_2_53_fails_its_pair():
    def gram(g, weight):
        wm = constructed([g], weight)
        return gram_explicit(Dataset("t", [g]), lambda u: wv_features_explicit(u, wm, DIRAC))

    # the weights are integral, so the integer guard holds
    g = Graph(1, [])
    features = wv_features_explicit([g], constructed([g], 2**27), DIRAC)
    assert features.integral.tolist() == [True]
    assert [type(w) for w in features.vector(0).values()] == [int]
    assert gram(g, 2**26).values[0, 0] == 2**52
    # vertices of weight 2**62 on one key sum past int64: two to 2**63,
    # four to 2**64, which an int64 tally would wrap to 0, a weight that
    # passes the guard
    for weight, graph in ((2**27, g), (2**62, Graph(2, [])), (2**62, Graph(4, []))):
        with pytest.raises(GramError, match=r"pair \(0, 0\) failed") as info:
            gram(graph, weight)
        assert isinstance(info.value.__cause__, MultiplicityOverflowError)


@st.composite
def attributed_graphs(draw):
    """:func:`conftest.graphs` with 2-d attribute rows on a coarse grid, so
    equal rows (what the Dirac kinds count) occur."""
    g = draw(graphs())
    level = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    row = st.lists(level, min_size=2, max_size=2)
    rows = draw(st.lists(row, min_size=g.n, max_size=g.n))
    return Graph(
        g.n,
        g.edges.tolist(),
        vertex_labels=g.vertex_labels,
        edge_labels=g.edge_labels,
        vertex_attributes=np.array(rows, dtype=np.float64).reshape(g.n, 2),
    )


def pair_reference(g, h, wm, vk):
    """One pair's kernel on the columns both graphs use, as one sum."""
    rows_g, rows_h = weight_rows(wm, g), weight_rows(wm, h)
    shared = sorted(set().union(*rows_g) & set().union(*rows_h))
    dense = lambda rows: np.array(
        [[row.get(c, 0) for c in shared] for row in rows], np.int64
    ).reshape(len(rows), len(shared))
    weights = np.einsum("ik,jk->ij", dense(rows_g), dense(rows_h), dtype=np.float64)
    return float(np.einsum("ij,ij->", weights, vk.matrix(g, h)))


# P = 4 grids: binned values are quarters, so their sums are exact
ROW_KERNELS = (
    DIRAC,
    DIRAC_ATTR,
    VertexKernelSpec("binned", grid=sample_binning_grid(2, 1.0, 4, seed=3)),
    VertexKernelSpec("hat", delta=0.75),
    VertexKernelSpec("rbf", sigma=0.5),
)


def weight_maps(ds):
    return graph_invariant_weight_maps(ds, 2), graphhopper_weight_maps(ds)


class TestWeightedRows:
    def test_table_rows_follow_the_graphs_asked_for(self):
        # a run of the map's graphs reads one slice of the table; any other
        # order, repeats included, gathers each graph's rows in turn
        rng = random.Random(191)
        graphs = [make_random_graph(rng, max_n=6) for _ in range(5)]
        for wm in weight_maps(Dataset("t", graphs)):
            for order in ((3, 0, 4, 4, 1), (1, 2, 3)):
                asked = [graphs[i] for i in order]
                # one graph's rows renumbered past the graphs before it
                first = np.cumsum([0] + [g.n for g in asked])
                parts = [wm.rows([g]) + [v, 0, 0] for g, v in zip(asked, first)]
                assert wm.rows(asked).tolist() == np.concatenate(parts).tolist()

    @settings(max_examples=40, deadline=None)
    @given(g=attributed_graphs(), hs=st.lists(attributed_graphs(), max_size=4))
    def test_row_equals_one_partner_calls(self, g, hs):
        for wm in weight_maps(Dataset("t", [g, *hs])):
            for vk in ROW_KERNELS:
                row = wv_kernel_implicit(g, hs, wm, vk)
                assert row.shape == (len(hs),)
                singles = [wv_kernel_implicit(g, [h], wm, vk)[0] for h in hs]
                assert row.tolist() == singles
                reference = np.array([pair_reference(g, h, wm, vk) for h in hs])
                if vk.kind in ("hat", "rbf"):
                    # the row sums in another order than one whole-pair sum
                    assert (np.abs(row - reference) <= 1e-15 * reference).all()
                else:
                    assert row.tolist() == reference.tolist()

    def test_blocks_of_one_partner_give_the_same_row(self, monkeypatch):
        rng = random.Random(227)
        hs = [
            make_random_graph(rng, max_n=8, attribute_dim=2, attribute_levels=3)
            for _ in range(7)
        ]
        g = hs[0]
        for wm in weight_maps(Dataset("t", hs)):
            for vk in ROW_KERNELS:
                whole = wv_kernel_implicit(g, hs, wm, vk)
                monkeypatch.setattr(walks, "BLOCK_CELLS", 1)
                split = wv_kernel_implicit(g, hs, wm, vk)
                monkeypatch.undo()
                assert split.tolist() == whole.tolist()
                assert whole.tolist() == [wv_kernel_implicit(g, [h], wm, vk)[0] for h in hs]

    def test_dirac_total_reaching_2_53_names_its_partner(self, monkeypatch):
        one, two = Graph(1, []), Graph(2, [])
        # every vertex pair weighs 2**52: 2**52 against one, 2**53 against two
        wm = constructed((one, two), 2**26)
        for budget in (walks.BLOCK_CELLS, 1):
            monkeypatch.setattr(walks, "BLOCK_CELLS", budget)
            with pytest.raises(MultiplicityOverflowError, match="partner 1 "):
                wv_kernel_implicit(one, [one, two, one], wm, DIRAC)
        monkeypatch.undo()
        ds = Dataset("t", [one, one, two, one])
        row = lambda g, hs: wv_kernel_implicit(g, hs, wm, DIRAC)
        overflow = r"pair \(0, 2\) failed: .*2\*\*53"
        with pytest.raises(GramError, match=overflow) as info:
            gram_implicit(ds, row)
        assert isinstance(info.value.__cause__, MultiplicityOverflowError)

    @pytest.mark.parametrize("kernel", ["graph-invariant", "walk", "subgraph-matching"])
    def test_partner_without_attributes_fails_its_pair(self, kernel):
        # a union slice carries attributes only when each of its partners
        # does, so the row fails and the lone pair (0, 0) does not
        rng = random.Random(229)
        a, c = (make_random_graph(rng, max_n=5, attribute_dim=2) for _ in range(2))
        bare = make_random_graph(rng, max_n=5)
        ds = Dataset("t", [a, bare, c])
        wm = graph_invariant_weight_maps(ds, 1)
        row = {
            "graph-invariant": lambda g, hs: wv_kernel_implicit(g, hs, wm, DIRAC_ATTR),
            "walk": lambda g, hs: walk_kernel_implicit(
                g, hs, DIRAC_ATTR, EdgeKernelSpec("dirac"), 2
            ),
            "subgraph-matching": lambda g, hs: subgraph_matching_kernel(g, hs, DIRAC_ATTR),
        }[kernel]
        with pytest.raises(GramError, match=r"pair \(0, 1\) failed") as info:
            gram_implicit(ds, row)
        assert isinstance(info.value.__cause__, ContractError)
