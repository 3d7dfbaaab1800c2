"""Fixed-length walk kernels: product-graph recursion vs. feature counts."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkern import (
    Dataset,
    EdgeKernelSpec,
    Graph,
    GramError,
    MultiplicityOverflowError,
    ParameterError,
    ResourceBudgetError,
    VertexKernelSpec,
    build_wdpg,
    gram_explicit,
    per_graph,
    sample_binning_grid,
    walk_features_explicit,
    walk_kernel_implicit,
)
from gkern import walks
from gkern.graphs import DisjointUnion
from conftest import graphs, make_random_graph
from oracles import (
    dirac_fn,
    dot,
    edge_kernel_fn,
    oracle_product_graph,
    oracle_total_walks,
    oracle_walk_features,
    oracle_walk_kernel,
    oracle_walk_label_counts,
    uniform_fn,
    vertex_kernel_fn,
)

DIRAC = VertexKernelSpec("dirac")
DIRAC_EDGE = EdgeKernelSpec("dirac")
UNIFORM_EDGE = EdgeKernelSpec("uniform")


def _weights(stored, count):
    """A product's weights as a list; ``None`` stores ``count`` ones."""
    return [1.0] * count if stored is None else stored.tolist()


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
        # every weight is 1, so the product stores none
        assert pg.vertex_weights is None and pg.edge_weights is None

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
            assert fast.vertex_weights is None and slow.vertex_weights is None
            # the table's weights all come out 1, so it stores none either
            assert fast.edge_weights is None and slow.edge_weights is None
            fe = {tuple(sorted(e)) for e in zip(fast.edge_u.tolist(), fast.edge_v.tolist())}
            se = {tuple(sorted(e)) for e in zip(slow.edge_u.tolist(), slow.edge_v.tolist())}
            assert fe == se

    def test_binary_kernels_gather_no_weights(self, monkeypatch):
        # Dirac and uniform kernels keep weight 1 wherever they keep a
        # pair, so the build reads their keys and evaluates no values
        def refuse(*args):
            raise AssertionError("a binary kernel's values were gathered")

        monkeypatch.setattr(VertexKernelSpec, "matrix", refuse)
        monkeypatch.setattr(EdgeKernelSpec, "elementwise", refuse)
        g = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0], edge_labels=[2, 2])
        for edge_kernel in (DIRAC_EDGE, UNIFORM_EDGE):
            pg = build_wdpg(g, g, DIRAC, edge_kernel)
            assert pg.num_vertices == 5 and pg.num_edges == 4
            assert pg.vertex_weights is None and pg.edge_weights is None


class TestProductGraphOracle:
    """``build_wdpg`` against the product built from its definition, for
    every vertex kind x edge kind, on random and degenerate graphs."""

    VERTEX_KERNELS = [
        DIRAC,
        VertexKernelSpec("dirac-attributes"),
        VertexKernelSpec("hat", delta=0.7),
        VertexKernelSpec("rbf", sigma=0.5),
        VertexKernelSpec("binned", grid=sample_binning_grid(1, 0.6, 4, seed=5)),
    ]
    EDGE_KERNELS = [
        DIRAC_EDGE,
        UNIFORM_EDGE,
        EdgeKernelSpec("brownian-bridge", c=2.5),
        EdgeKernelSpec("table", table=((0, 1, 0.5), (2, 2, 0.0))),
    ]

    def _cases(self):
        rng = random.Random(61)

        def drawn(**kw):
            kw = {"max_n": 6, "edge_label_count": 3, "attribute_dim": 1,
                  "attribute_levels": 3, **kw}
            return make_random_graph(rng, **kw)

        def fixed(n, edges, labels, edge_labels=None):
            attributes = [[rng.randrange(3) / 2] for _ in range(n)]
            return Graph(n, edges, labels, edge_labels, attributes)

        edgeless = fixed(3, [], [0, 1, 0])
        single = fixed(1, [], [1])
        distinct = fixed(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 2, 3], [0, 1, 2, 0])
        one_label = fixed(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 0, 0])
        cases = [(drawn(), [drawn()]) for _ in range(12)]
        cases += [
            (edgeless, [drawn()]),
            (drawn(), [edgeless]),
            (single, [single]),
            (single, [drawn()]),
            (distinct, [distinct]),
            (distinct, [one_label]),
            (one_label, [one_label]),
            (drawn(labels=1, edge_label_count=1), [drawn(labels=1, edge_label_count=1)]),
        ]
        # several partners side by side, as a Gram row's blocks hold them
        for _ in range(4):
            partners = [drawn() for _ in range(rng.randint(2, 4))] + [edgeless, single]
            rng.shuffle(partners)
            cases.append((drawn(), partners))
        return cases

    def test_build_equals_oracle(self):
        for g, partners in self._cases():
            h = partners[0] if len(partners) == 1 else DisjointUnion(partners)
            for vk in self.VERTEX_KERNELS:
                for ek in self.EDGE_KERNELS:
                    vertices, edges = oracle_product_graph(
                        g, h, vertex_kernel_fn(vk), edge_kernel_fn(ek)
                    )
                    pg = build_wdpg(g, h, vk, ek)
                    pairs = [tuple(p) for p in pg.pairs.tolist()]
                    assert pairs == sorted(vertices)
                    expected = [vertices[p] for p in pairs]
                    assert _weights(pg.vertex_weights, len(pairs)) == pytest.approx(
                        expected, rel=1e-12
                    )
                    # no weights are stored only where all of them are 1
                    assert (pg.vertex_weights is None) == all(w == 1 for w in expected)
                    edge_weights = _weights(pg.edge_weights, pg.num_edges)
                    assert (pg.edge_weights is None) == all(w == 1 for w in edge_weights)
                    built = {
                        frozenset((pairs[x], pairs[y])): w
                        for x, y, w in zip(pg.edge_u.tolist(), pg.edge_v.tolist(), edge_weights)
                    }
                    assert len(built) == pg.num_edges
                    assert built == edges, (vk.describe(), ek.describe())

    def test_row_keys_build_the_same_product_and_predict_its_edges(self, monkeypatch):
        for g, partners in self._cases():
            count = len(partners)
            for vk in self.VERTEX_KERNELS:
                for ek in self.EDGE_KERNELS:
                    # keyed once for the whole row, as walk_kernel_implicit does
                    union = DisjointUnion(partners)
                    pg = build_wdpg(g, union, vk, ek)
                    join = walks._join(g, union, vk, ek)
                    # the row's blocks, then blocks of one partner each
                    for budget in (walks.BLOCK_CELLS, 1):
                        monkeypatch.setattr(walks, "BLOCK_CELLS", budget)
                        blocks = list(walks._blocks(g, union, vk, join))
                        monkeypatch.undo()
                        # the blocks tile the row
                        assert [b[0] for b in blocks] + [count] == [0] + [b[1] for b in blocks]
                        if budget == 1:
                            assert len(blocks) == count
                        for start, stop, block in blocks:
                            row = build_wdpg(g, block, vk, ek)
                            alone = DisjointUnion(partners[start:stop])
                            expected = build_wdpg(g, alone, vk, ek)
                            for name in ("pairs", "vertex_weights", "edge_u", "edge_v",
                                         "edge_weights"):
                                got, want = getattr(row, name), getattr(expected, name)
                                if want is None:
                                    assert got is None, name
                                else:
                                    assert got.tobytes() == want.tobytes()
                    matched = walks._matched_pairs(union, join)
                    per_partner = np.diff(matched, axis=1).sum(axis=0)
                    owner = union.owner[pg.pairs[pg.edge_u, 1]]
                    edges = np.bincount(owner, minlength=count)
                    if vk.unit and ek.unit:
                        # Dirac kinds: every matched pair is a product edge
                        assert matched[:, -1].sum() == pg.num_edges
                        assert per_partner.tolist() == edges.tolist()
                    else:
                        assert (per_partner >= edges).all()

    def test_walk_totals_equal_plain_rounds(self):
        # the meet-in-the-middle recursion against `length` plain rounds of
        # diag(w) A on each pair's product, as dense matrices
        for g, partners in self._cases():
            for vk in self.VERTEX_KERNELS:
                for ek in self.EDGE_KERNELS:
                    expected, unit = [], True
                    for h in partners:
                        pg = build_wdpg(g, h, vk, ek)
                        w = np.array(_weights(pg.vertex_weights, pg.num_vertices))
                        a = np.zeros((pg.num_vertices, pg.num_vertices))
                        a[pg.edge_u, pg.edge_v] = a[pg.edge_v, pg.edge_u] = _weights(
                            pg.edge_weights, pg.num_edges
                        )
                        r, totals = w, [w.sum()]
                        for _ in range(7):
                            r = w * (a @ r)
                            totals.append(r.sum())
                        expected.append(totals)
                        unit &= pg.vertex_weights is None and pg.edge_weights is None
                    expected = np.array(expected)
                    for length in range(8):
                        fixed = walk_kernel_implicit(g, partners, vk, ek, length)
                        rounds = walk_kernel_implicit(g, partners, vk, ek, length, all_rounds=True)
                        for got, want in ((fixed, expected[:, length]),
                                          (rounds, expected[:, : length + 1])):
                            if unit:
                                # walk counts: exact in any summation order
                                assert got.tobytes() == want.tobytes()
                            else:
                                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestWalkKernelImplicit:
    def test_triangle_against_itself(self):
        # K3 has 3 * 2^l walks of length l; squared for the product:
        # l = 2 gives (3 * 4)^2 = 144
        k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert walk_kernel_implicit(k3, [k3], DIRAC, UNIFORM_EDGE, 2)[0] == 144.0

    def test_length_zero_counts_compatible_pairs(self):
        g = Graph(3, [(0, 1)])
        h = Graph(4, [])
        assert walk_kernel_implicit(g, [h], DIRAC, UNIFORM_EDGE, 0)[0] == 12.0
        lg = Graph(2, [], vertex_labels=[0, 1])
        lh = Graph(2, [], vertex_labels=[1, 1])
        assert walk_kernel_implicit(lg, [lh], DIRAC, UNIFORM_EDGE, 0)[0] == 2.0

    def test_labeled_edge_pair(self):
        g = Graph(2, [(0, 1)], vertex_labels=[1, 2], edge_labels=[7])
        assert walk_kernel_implicit(g, [g], DIRAC, DIRAC_EDGE, 1)[0] == 2.0

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
                got = walk_kernel_implicit(g, [h], DIRAC, UNIFORM_EDGE, length)[0]
                assert got == expected

    def test_matches_oracle_on_labeled_graphs(self):
        rng = random.Random(53)
        for trial in range(12):
            g = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            h = make_random_graph(rng, max_n=5, labels=2, edge_label_count=2)
            for length in (0, 1, 2, 3):
                expected = oracle_walk_kernel(g, h, length)
                got = walk_kernel_implicit(g, [h], DIRAC, DIRAC_EDGE, length)[0]
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
                got = walk_kernel_implicit(g, [h], DIRAC, half, length)[0]
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
                got = walk_kernel_implicit(g, [h], DIRAC, UNIFORM_EDGE, length)[0]
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_rejects_negative_length(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError):
            walk_kernel_implicit(g, [g], DIRAC, UNIFORM_EDGE, -1)


def _vector(g, length):
    """One graph's walk vector, read off the dataset map."""
    return walk_features_explicit([g], length).vector(0)


def _walk_map(length, all_rounds=False):
    return lambda union: walk_features_explicit(union, length, all_rounds)


class TestWalkFeaturesExplicit:
    def test_single_edge_counts(self):
        g = Graph(2, [(0, 1)], vertex_labels=[1, 2], edge_labels=[7])
        vec = _vector(g, 1)
        assert vec == {(1, 1, 7, 2): 1, (1, 2, 7, 1): 1}
        assert dot(vec, vec) == 2

    def test_counts_match_oracle(self):
        rng = random.Random(67)
        for trial in range(12):
            g = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            for length in (0, 1, 2, 3):
                vec = _vector(g, length)
                decoded = {}
                for (walk_length, *labels), count in vec.items():
                    assert walk_length == length
                    decoded[tuple(labels)] = count
                assert decoded == oracle_walk_label_counts(g, length)

    def test_lengths_never_collide(self):
        g = Graph(3, [(0, 1), (1, 2)])
        v1 = _vector(g, 1)
        v2 = _vector(g, 2)
        assert dot(v1, v2) == 0

    def test_dot_equals_implicit_kernel_exactly(self):
        rng = random.Random(71)
        for trial in range(15):
            g = make_random_graph(rng, max_n=7, labels=3, edge_label_count=2)
            h = make_random_graph(rng, max_n=7, labels=3, edge_label_count=2)
            for length in (0, 1, 2, 4):
                implicit = walk_kernel_implicit(g, [h], DIRAC, DIRAC_EDGE, length)[0]
                features = walk_features_explicit([g, h], length)
                explicit = dot(features.vector(0), features.vector(1))
                assert implicit == explicit  # integer-exact

    def test_unlabeled_edges_share_pseudo_label(self):
        bare = Graph(2, [(0, 1)], vertex_labels=[1, 2])
        tagged = Graph(2, [(0, 1)], vertex_labels=[1, 2], edge_labels=[0])
        assert _vector(bare, 2) == _vector(tagged, 2)

    def test_attributes_only_graph_reads_as_label_zero(self):
        # continuous attributes carry no Dirac label: the map counts the
        # walks of the bare graph, as the implicit scheme does
        g = Graph(3, [(0, 1), (1, 2)], vertex_attributes=[[0.5], [1.0], [0.2]])
        bare = Graph(3, [(0, 1), (1, 2)])
        vec = _vector(g, 2)
        assert vec == _vector(bare, 2)
        assert dot(vec, vec) == walk_kernel_implicit(g, [g], DIRAC, DIRAC_EDGE, 2)[0]

    def test_rejects_negative_length(self):
        with pytest.raises(ParameterError):
            walk_features_explicit([Graph(1, [])], -2)

    def test_a_round_past_the_entry_budget_fails_its_graph(self, monkeypatch):
        # the labelled path 0-1-2 stores 4 (vertex, sequence) entries in
        # round 1 and 6 in round 2
        g = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 2])
        monkeypatch.setattr(walks, "WALK_MAP_ENTRIES", 4)
        assert len(_vector(g, 1)) == 4
        with pytest.raises(GramError, match="graph 0 failed: .* length 2 exceeded 4 stored"):
            walk_features_explicit([g], 2)
        ds = Dataset("d", [Graph(1), g])
        with pytest.raises(GramError, match="walk: graph 1 failed") as failed:
            gram_explicit(ds, _walk_map(2), "walk")
        assert isinstance(failed.value.__cause__, ResourceBudgetError)

    @pytest.mark.parametrize("budget", (1, 2**20))
    def test_the_first_failing_graph_is_named_whatever_the_runs(self, monkeypatch, budget):
        # the path stores 3, 4, 6 and 8 entries in rounds 0-3, the star 5
        # and 8 in rounds 0-1: mapped one by one, the path (graph 1) fails
        # first, so it is named, at its own length, though the star fails
        # in an earlier round
        path = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0], edge_labels=[5, 6])
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], vertex_labels=[0, 1, 2, 3, 4])
        monkeypatch.setattr(walks, "WALK_MAP_ENTRIES", 6)
        monkeypatch.setattr(walks, "WALK_RUN_STATES", budget)
        for all_rounds in (False, True):
            with pytest.raises(GramError, match="graph 1 failed: .* length 3 exceeded") as failed:
                walk_features_explicit([Graph(1), path, star], 3, all_rounds)
            assert isinstance(failed.value.__cause__, ResourceBudgetError)

    def test_counts_saturate_instead_of_wrapping(self):
        # K20 has 20 * 19**16 ~ 5.8e21 walks of length 16, past int64: the
        # count stops at 2**53, so the Gram fails on its exactness guard
        k20 = Graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
        features = walk_features_explicit([k20], 16)
        assert features.weight.tolist() == [2.0**53]
        with pytest.raises(GramError, match=r"pair \(0, 0\) failed: .*2\*\*53") as failed:
            gram_explicit(Dataset("k", [k20]), _walk_map(16), "walk")
        assert isinstance(failed.value.__cause__, MultiplicityOverflowError)


@st.composite
def walk_datasets(draw):
    """Datasets of small graphs, each kept as drawn (empty and edgeless ones
    included), unlabelled, attribute-only, or with its vertex and edge
    labels moved to near 10**12."""
    members = []
    for g in draw(st.lists(graphs(), max_size=5)):
        kind = draw(st.sampled_from(("labels", "unlabelled", "attributes", "large")))
        labels, edge_labels, attributes = g.vertex_labels, g.edge_labels, None
        if kind != "labels":
            labels = None
        if kind == "attributes":
            attributes = np.full((g.n, 1), 0.5)
        if kind == "large":
            labels = g.vertex_label_array() + 10**12 - 2
            edge_labels = g.edge_label_array() + 10**12
        members.append(Graph(g.n, g.edges, labels, edge_labels, attributes))
    return members


class TestWalkMapAgainstOracle:
    @pytest.mark.parametrize("budget", (1, 2**20))
    @settings(max_examples=40, deadline=None)
    @given(members=walk_datasets(), length=st.integers(0, 5))
    def test_grams_and_vectors_equal_the_oracle(self, budget, members, length):
        # runs of one graph (every vertex range alone) and of the whole
        # dataset give the oracle's walk and max-walk Grams byte for byte
        ds = Dataset("w", members)
        oracle = {
            False: lambda g: oracle_walk_features(g, length),
            True: lambda g: {
                key: count
                for l in range(length + 1)
                for key, count in oracle_walk_features(g, l).items()
            },
        }
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walks, "WALK_RUN_STATES", budget)
            for all_rounds, vector in oracle.items():
                gram = gram_explicit(ds, _walk_map(length, all_rounds)).values
                expected = gram_explicit(ds, per_graph(vector)).values
                assert gram.tobytes() == expected.tobytes()
                features = walk_features_explicit(members, length, all_rounds)
                assert [features.vector(i) for i in range(len(members))] == [
                    vector(g) for g in members
                ]


class TestMaxWalkKernel:
    def test_sums_per_length_kernels(self):
        rng = random.Random(73)
        for trial in range(10):
            g = make_random_graph(rng, max_n=6, labels=2)
            h = make_random_graph(rng, max_n=6, labels=2)
            total = walk_kernel_implicit(g, [h], DIRAC, DIRAC_EDGE, 4, all_rounds=True)[0].sum()
            by_parts = sum(
                walk_kernel_implicit(g, [h], DIRAC, DIRAC_EDGE, i)[0] for i in range(5)
            )
            assert total == by_parts

    def test_explicit_scheme_via_per_length_features(self):
        # summing per-length feature dots reproduces the one-pass kernel
        rng = random.Random(79)
        for trial in range(8):
            g = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            h = make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
            implicit = walk_kernel_implicit(g, [h], DIRAC, DIRAC_EDGE, 3, all_rounds=True)[0].sum()
            explicit = sum(dot(_vector(g, i), _vector(h, i)) for i in range(4))
            assert implicit == explicit
            # the one-pass map holds every length's vector
            rounds = walk_features_explicit([g, h], 3, all_rounds=True)
            assert dot(rounds.vector(0), rounds.vector(1)) == implicit

    def test_validates_arguments(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError):
            walk_kernel_implicit(g, [g], DIRAC, UNIFORM_EDGE, -1, all_rounds=True)


class TestDisconnectedAndEmpty:
    def test_empty_factor_graph(self):
        g = Graph(0, [])
        h = Graph(3, [(0, 1), (1, 2)])
        assert walk_kernel_implicit(g, [h], DIRAC, UNIFORM_EDGE, 3)[0] == 0.0
        assert _vector(g, 3) == {}

    def test_no_shared_labels(self):
        g = Graph(2, [(0, 1)], vertex_labels=[0, 0])
        h = Graph(2, [(0, 1)], vertex_labels=[1, 1])
        assert walk_kernel_implicit(g, [h], DIRAC, DIRAC_EDGE, 1)[0] == 0.0
        assert dot(_vector(g, 1), _vector(h, 1)) == 0.0

    def test_walks_die_out_in_edgeless_graph(self):
        g = Graph(3, [])
        assert walk_kernel_implicit(g, [g], DIRAC, UNIFORM_EDGE, 0)[0] == 9.0
        assert walk_kernel_implicit(g, [g], DIRAC, UNIFORM_EDGE, 1)[0] == 0.0
        assert walk_kernel_implicit(g, [g], DIRAC, UNIFORM_EDGE, 5)[0] == 0.0


def _vertex_sequences(counts):
    """Label-sequence counts with the edge labels dropped."""
    folded = {}
    for seq, n in counts.items():
        folded[seq[::2]] = folded.get(seq[::2], 0) + n
    return folded


class TestWalkKernelRow:
    @settings(max_examples=60, deadline=None)
    @given(
        g=graphs(),
        hs=st.lists(graphs(), max_size=4),
        length=st.integers(0, 5),
        uniform_edges=st.booleans(),
    )
    def test_row_equals_pairs_and_oracle(self, g, hs, length, uniform_edges):
        edge_kernel = UNIFORM_EDGE if uniform_edges else DIRAC_EDGE
        row = walk_kernel_implicit(g, hs, DIRAC, edge_kernel, length)
        pairs = [walk_kernel_implicit(g, [h], DIRAC, edge_kernel, length)[0] for h in hs]
        assert row.tolist() == pairs  # bit for bit
        # walk pairs matched through their label sequences (vertex labels
        # only under the uniform edge kernel); past length 3 the double sum
        # over walk pairs gets too slow for a property test
        counts = [oracle_walk_label_counts(x, length) for x in (g, *hs)]
        if uniform_edges:
            counts = [_vertex_sequences(c) for c in counts]
        assert pairs == [
            sum(n * counts[j].get(seq, 0) for seq, n in counts[0].items())
            for j in range(1, len(counts))
        ]
        if length <= 3:
            edge_fn = uniform_fn if uniform_edges else dirac_fn
            assert pairs == [oracle_walk_kernel(g, h, length, edge_kernel=edge_fn) for h in hs]
        if not uniform_edges:
            features = walk_features_explicit([g, *hs], length)
            vectors = [features.vector(i) for i in range(len(hs) + 1)]
            assert pairs == [dot(vectors[0], vector) for vector in vectors[1:]]

    @settings(max_examples=30, deadline=None)
    @given(g=graphs(), hs=st.lists(graphs(), max_size=4), length=st.integers(0, 5))
    def test_all_rounds_are_the_max_walk_terms(self, g, hs, length):
        rounds = walk_kernel_implicit(g, hs, DIRAC, DIRAC_EDGE, length, all_rounds=True)
        assert rounds.shape == (len(hs), length + 1)
        for h, terms in zip(hs, rounds.tolist()):
            assert terms == [
                walk_kernel_implicit(g, [h], DIRAC, DIRAC_EDGE, i)[0] for i in range(length + 1)
            ]

    def test_weighted_kernels_batch_bit_for_bit(self):
        # non-integer edge weights: the row keeps each pair's summation order
        half = EdgeKernelSpec("table", table=((0, 1, 0.5),))
        rng = random.Random(83)
        g = make_random_graph(rng, max_n=7, labels=2, edge_label_count=2)
        hs = [make_random_graph(rng, max_n=7, labels=2, edge_label_count=2) for _ in range(8)]
        row = walk_kernel_implicit(g, hs, DIRAC, half, 4)
        assert row.tolist() == [walk_kernel_implicit(g, [h], DIRAC, half, 4)[0] for h in hs]

    def test_empty_row_and_negative_length(self):
        g = Graph(2, [(0, 1)])
        assert walk_kernel_implicit(g, [], DIRAC, UNIFORM_EDGE, 3).shape == (0,)
        with pytest.raises(ParameterError):
            walk_kernel_implicit(g, [g], DIRAC, UNIFORM_EDGE, -1)

    def test_runs_of_rows_equal_their_rows_bit_for_bit(self, monkeypatch):
        # every vertex kind x edge kind, weighted ones included: a run's
        # product keeps each pair's summation order
        cases = TestProductGraphOracle()._cases()
        for first in range(0, len(cases), 5):
            rows = [g for g, _ in cases[first : first + 5]]
            hs = [h for _, partners in cases[first : first + 5] for h in partners]
            for vk in TestProductGraphOracle.VERTEX_KERNELS:
                for ek in TestProductGraphOracle.EDGE_KERNELS:
                    for budget in (walks.BLOCK_CELLS, 1):
                        monkeypatch.setattr(walks, "BLOCK_CELLS", budget)
                        run = walk_kernel_implicit(DisjointUnion(rows), hs, vk, ek, 3, True)
                        monkeypatch.undo()
                        alone = [walk_kernel_implicit(g, hs, vk, ek, 3, True) for g in rows]
                        assert run.shape == (len(rows), len(hs), 4)
                        assert run.tobytes() == np.stack(alone).tobytes()
                    last = walk_kernel_implicit(DisjointUnion(rows), hs, vk, ek, 3)
                    assert last.tobytes() == np.ascontiguousarray(run[:, :, 3]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=walk_datasets(), hs=walk_datasets(), length=st.integers(0, 5),
           uniform_edges=st.booleans())
    def test_runs_of_rows_on_degenerate_datasets(self, rows, hs, length, uniform_edges):
        edge_kernel = UNIFORM_EDGE if uniform_edges else DIRAC_EDGE
        run = walk_kernel_implicit(DisjointUnion(rows), hs, DIRAC, edge_kernel, length)
        assert run.shape == (len(rows), len(hs))
        for g, values in zip(rows, run):
            assert values.tolist() == walk_kernel_implicit(g, hs, DIRAC, edge_kernel, length).tolist()

    def test_a_run_past_2_53_names_its_row_and_partner(self):
        k20 = Graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
        run = DisjointUnion([Graph(1), k20])
        with pytest.raises(MultiplicityOverflowError, match="of row 1 against partner 1"):
            walk_kernel_implicit(run, [Graph(1), k20], DIRAC, UNIFORM_EDGE, 6)

    def test_totals_past_2_53_raise(self):
        # K20 has 20 * 19**6 ~ 9.4e8 walks of length 6, so its self-kernel
        # is ~8.8e17, beyond the exact float64 integers
        k20 = Graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
        with pytest.raises(MultiplicityOverflowError, match="partner 1"):
            walk_kernel_implicit(k20, [Graph(1, []), k20], DIRAC, UNIFORM_EDGE, 6)
        with pytest.raises(MultiplicityOverflowError):
            walk_kernel_implicit(k20, [k20], DIRAC, UNIFORM_EDGE, 6)
        with pytest.raises(MultiplicityOverflowError):
            walk_kernel_implicit(k20, [k20], DIRAC, UNIFORM_EDGE, 6, all_rounds=True)
        # one step shorter the count (~2.5e15) is still exact, at every length
        assert walk_kernel_implicit(k20, [k20], DIRAC, UNIFORM_EDGE, 5)[0] == (20 * 19**5) ** 2
        rounds = walk_kernel_implicit(k20, [k20], DIRAC, UNIFORM_EDGE, 5, all_rounds=True)
        assert rounds[0].tolist() == [(20 * 19**i) ** 2 for i in range(6)]
