"""Gram matrix assembly, normalization, eigenvalue probe, and export."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkern import (
    Dataset,
    EdgeKernelSpec,
    FeatureVector,
    Graph,
    GramError,
    MultiplicityOverflowError,
    ParameterError,
    VertexKernelSpec,
    dot,
    export_gram,
    gram_explicit,
    gram_implicit,
    load_gram_csv,
    min_eigenvalue_estimate,
    normalize,
    walk_features_explicit,
    walk_kernel_implicit,
    walk_kernel_row,
)
from gkern import bench, gram as gram_module, walks
from gkern.features import TAG_LABEL, feature_key
from conftest import graphs, make_random_graph

DIRAC = VertexKernelSpec("dirac")
DIRAC_EDGE = EdgeKernelSpec("dirac")


def _walk_dataset(rng, count=6):
    graphs = [
        make_random_graph(rng, max_n=6, labels=2, edge_label_count=2)
        for _ in range(count)
    ]
    return Dataset("t", graphs, class_labels=[i % 2 for i in range(count)])


class TestAssembly:
    def test_implicit_and_explicit_fill_the_same_matrix(self):
        rng = random.Random(179)
        ds = _walk_dataset(rng)
        implicit = gram_implicit(
            ds, lambda g, h: walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 3)
        )
        explicit = gram_explicit(ds, lambda g: walk_features_explicit(g, 3))
        assert (implicit.values == explicit.values).all()  # integer-exact
        assert implicit.values.shape == (6, 6)
        assert (implicit.values == implicit.values.T).all()

    def test_metadata_and_timings(self):
        rng = random.Random(181)
        ds = _walk_dataset(rng, count=3)
        implicit = gram_implicit(
            ds, lambda g, h: walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 2)
        )
        assert implicit.timings["scheme"] == "implicit"
        assert implicit.timings["seconds_total"] >= 0
        assert implicit.graph_ids == ["t[0]", "t[1]", "t[2]"]
        assert implicit.class_labels.tolist() == [0, 1, 0]
        explicit = gram_explicit(ds, lambda g: walk_features_explicit(g, 2))
        assert explicit.timings["scheme"] == "explicit"
        assert explicit.timings["stored_features"] > 0
        assert explicit.timings["seconds_total"] == pytest.approx(
            explicit.timings["seconds_feature_maps"]
            + explicit.timings["seconds_dot"]
        )
        block = explicit.timing_block()
        assert "stored_features" in block and "explicit" in block

    def test_pair_failures_carry_indices(self):
        ds = Dataset("t", [Graph(2, [(0, 1)]), Graph(2, [(0, 1)])])

        def broken(g, h):
            raise ParameterError("boom")

        with pytest.raises(GramError, match=r"pair \(0, 0\)"):
            gram_implicit(ds, broken)

        def broken_features(g):
            raise ParameterError("boom")

        with pytest.raises(GramError, match="graph 0"):
            gram_explicit(ds, broken_features)

    def test_batched_rows_split_mid_row(self):
        # graphs large enough that one row of partners spans several
        # blocks of the product-build budget
        rng = random.Random(183)
        graphs = [
            make_random_graph(rng, min_n=20, max_n=35, edge_prob=0.15, labels=2)
            for _ in range(16)
        ]
        ds = Dataset("big", graphs)
        assert len(list(walks._blocks(graphs[0], graphs))) > 1
        rows = gram_implicit(
            ds,
            lambda g, hs: walk_kernel_row(g, hs, DIRAC, DIRAC_EDGE, 3),
            rows=True,
        )
        pairs = gram_implicit(
            ds, lambda g, h: walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 3)
        )
        assert np.array_equal(rows.values, pairs.values)
        explicit = gram_explicit(ds, lambda g: walk_features_explicit(g, 3))
        assert np.array_equal(rows.values, explicit.values)

    def test_batched_row_failures_name_the_pair(self):
        ds = Dataset("t", [Graph(2, [(0, 1)]), Graph(2), Graph(3), Graph(2)])

        def fragile(g, hs):
            if any(h.n == 3 for h in hs):
                raise ParameterError("boom")
            return [1.0] * len(hs)

        with pytest.raises(GramError, match=r"pair \(0, 2\)"):
            gram_implicit(ds, fragile, rows=True)

        k20 = Graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
        ds = Dataset("t", [Graph(1), k20, Graph(1)])
        with pytest.raises(GramError, match=r"pair \(1, 1\)") as caught:
            gram_implicit(
                ds,
                lambda g, hs: walk_kernel_row(g, hs, DIRAC, DIRAC_EDGE, 6),
                rows=True,
            )
        assert isinstance(caught.value.__cause__, MultiplicityOverflowError)

    def test_explicit_integer_dots_past_2_53_name_the_pair(self):
        # K20's self-kernel at length 6 is ~8.8e17, as in the implicit case
        k20 = Graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
        ds = Dataset("t", [Graph(1), k20, Graph(1)])
        with pytest.raises(GramError, match=r"pair \(1, 1\)") as caught:
            gram_explicit(ds, lambda g: walk_features_explicit(g, 6))
        assert isinstance(caught.value.__cause__, MultiplicityOverflowError)
        # one step shorter the dot (~2.5e15) is still exact
        gram = gram_explicit(ds, lambda g: walk_features_explicit(g, 5))
        assert gram.values[1, 1] == (20 * 19**5) ** 2
        # float dots make no exactness claim
        big = gram_explicit(ds, lambda g: FeatureVector({b"x": 1e10}))
        assert (big.values == 1e20).all()

    def test_explicit_dot_agrees_with_feature_dot(self):
        rng = random.Random(191)
        ds = _walk_dataset(rng, count=5)
        vectors = [walk_features_explicit(g, 2) for g in ds.graphs]
        gram = gram_explicit(ds, lambda g: walk_features_explicit(g, 2))
        for i in range(5):
            for j in range(5):
                assert gram.values[i, j] == dot(vectors[i], vectors[j])


class TestNormalize:
    def test_unit_diagonal(self):
        rng = random.Random(193)
        ds = _walk_dataset(rng)
        gram = gram_implicit(
            ds, lambda g, h: walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 2)
        )
        unit = normalize(gram)
        diag = np.diag(gram.values)
        assert np.allclose(np.diag(unit.values)[diag > 0], 1.0)
        assert (np.diag(unit.values)[diag == 0] == 0).all()
        assert unit.kernel.endswith("/normalized")
        # idempotent
        again = normalize(unit)
        assert np.allclose(again.values, unit.values)

    def test_zero_diagonal_rows_zeroed(self):
        values = np.array([[4.0, 0.0], [0.0, 0.0]])
        gram_zero = normalize(
            _gram_of(values)
        )
        assert gram_zero.values[0, 0] == 1.0
        assert (gram_zero.values[1, :] == 0).all()
        assert (gram_zero.values[:, 1] == 0).all()

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ParameterError):
            normalize(_gram_of(np.array([[-1.0, 0.0], [0.0, 1.0]])))


class TestMinEigenvalue:
    def test_frozen_two_by_two(self):
        assert min_eigenvalue_estimate(np.eye(2)) == pytest.approx(1.0, abs=1e-7)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert min_eigenvalue_estimate(flip) == pytest.approx(-1.0, abs=1e-7)
        assert min_eigenvalue_estimate(np.array([[7.0]])) == 7.0

    def test_matches_dense_solver_on_random_symmetric(self):
        rng = np.random.default_rng(197)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            sym = (a + a.T) / 2
            expected = float(np.linalg.eigvalsh(sym)[0])
            got = min_eigenvalue_estimate(sym)
            assert got == pytest.approx(expected, abs=1e-6)

    def test_psd_gram_is_numerically_psd(self):
        rng = random.Random(199)
        ds = _walk_dataset(rng)
        gram = gram_implicit(
            ds, lambda g, h: walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 3)
        )
        assert min_eigenvalue_estimate(gram.values) >= -1e-8

    def test_scaled_identity_shortcut(self):
        assert min_eigenvalue_estimate(3.0 * np.eye(4)) == pytest.approx(3.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            min_eigenvalue_estimate(np.zeros((2, 3)))
        with pytest.raises(ParameterError):
            min_eigenvalue_estimate(np.zeros((0, 0)))
        with pytest.raises(ParameterError):
            min_eigenvalue_estimate(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(211)
        ds = _walk_dataset(rng, count=4)
        gram = gram_implicit(
            ds, lambda g, h: walk_kernel_implicit(g, h, DIRAC, DIRAC_EDGE, 2)
        )
        path = str(tmp_path / "gram.csv")
        assert export_gram(gram, "csv", path) == path
        back = load_gram_csv(path)
        assert (back == gram.values).all()

    def test_svm_precomputed_layout(self, tmp_path):
        values = np.array([[2.0, 1.0], [1.0, 3.0]])
        gram = _gram_of(values, class_labels=[1, -1])
        path = str(tmp_path / "gram.svm")
        export_gram(gram, "svm-precomputed", path)
        lines = open(path).read().splitlines()
        assert lines[0] == "1 0:1 1:2 2:1"
        assert lines[1] == "-1 0:2 1:1 2:3"

    def test_unknown_format_rejected(self, tmp_path):
        gram = _gram_of(np.eye(2))
        with pytest.raises(ParameterError):
            export_gram(gram, "parquet", str(tmp_path / "x"))


def _gram_of(values, class_labels=None):
    from gkern.gram import GramMatrix

    labels = None if class_labels is None else np.array(class_labels)
    return GramMatrix(
        np.asarray(values, dtype=np.float64),
        "test",
        [f"g[{i}]" for i in range(values.shape[0])],
        labels,
    )


# -- the explicit Gram as one blocked matrix product --------------------------

EXPLICIT_KERNELS = (
    "walk",
    "maxwalk",
    "sp",
    "graphlet",
    "subgraph-matching",
    "graph-invariant",
    "graphhopper",
)


def _pairwise_dots(ds, feature_fn):
    """The loop reference: one sparse ``dot`` per pair, as float64."""
    vectors = [feature_fn(g) for g in ds.graphs]
    n = len(vectors)
    return np.array(
        [[dot(a, b) for b in vectors] for a in vectors], dtype=np.float64
    ).reshape(n, n)


def _explicit_and_pairwise(plan):
    """A plan's explicit Gram, and the pairwise dots of the same feature map."""
    seen = []

    def capture(ds, feature_fn, kernel_name="explicit"):
        seen.append((ds, feature_fn))
        return gram_explicit(ds, feature_fn, kernel_name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "gram_explicit", capture)
        gram = plan.explicit()
    (ds, feature_fn), = seen
    return gram, _pairwise_dots(ds, feature_fn)


class TestExplicitProduct:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(graphs(), max_size=4))
    def test_every_explicit_map_matches_pairwise_dots_bit_for_bit(self, members):
        ds = Dataset("h", members)
        for kernel in EXPLICIT_KERNELS:
            gram, reference = _explicit_and_pairwise(
                bench.kernel_plan(kernel, ds, length=3, wl_iters=2)
            )
            assert gram.values.tobytes() == reference.tobytes(), kernel

    def test_dyadic_binned_gram_matches_pairwise_dots_exactly(self):
        # P=4 binning weights are 1/2, so every sum is exact in float64
        rng = random.Random(401)
        ds = Dataset(
            "b", [make_random_graph(rng, max_n=6, attribute_dim=2) for _ in range(6)]
        )
        for kernel in ("graph-invariant", "graphhopper"):
            plan = bench.kernel_plan(kernel, ds, vertex_kernel="binned", binning=4, seed=3)
            gram, reference = _explicit_and_pairwise(plan)
            assert gram.values.tobytes() == reference.tobytes(), kernel
            assert (gram.values % 0.25 == 0).all()

    def test_degenerate_datasets(self):
        walks3 = lambda g: walk_features_explicit(g, 3)
        empty = gram_explicit(Dataset("e", []), walks3)
        assert empty.values.shape == (0, 0)
        assert empty.timings["stored_features"] == empty.timings["distinct_features"] == 0
        edge = Graph(2, [(0, 1)], vertex_labels=[0, 1])
        one = gram_explicit(Dataset("o", [edge]), walks3)
        assert one.values.tolist() == [[dot(walks3(edge), walks3(edge))]]
        # graphs without vertices map to empty vectors: zero rows and columns
        ds = Dataset("z", [Graph(0), edge, Graph(0)])
        mixed = gram_explicit(ds, walks3)
        assert mixed.values.tobytes() == _pairwise_dots(ds, walks3).tobytes()
        assert mixed.values[[0, 2]].sum() == 0 and mixed.values[:, [0, 2]].sum() == 0
        nothing = gram_explicit(ds, lambda g: FeatureVector())
        assert (nothing.values == 0).all() and nothing.values.shape == (3, 3)
        assert nothing.timings["distinct_features"] == 0

    def test_features_spanning_several_column_blocks(self):
        n = 3
        count = 2 * (gram_module.BLOCK_CELLS // n) + 5
        keys = [feature_key(TAG_LABEL, (k,)) for k in range(count)]
        vectors = [
            FeatureVector({key: (i + j) % 4 for j, key in enumerate(keys) if (i + j) % 3})
            for i in range(n)
        ]
        ds = Dataset("wide", [Graph(1) for _ in range(n)])
        by_graph = {id(g): v for g, v in zip(ds.graphs, vectors)}
        features = lambda g: by_graph[id(g)]
        gram = gram_explicit(ds, features)
        assert gram.timings["distinct_features"] == count
        assert gram.timings["stored_features"] == sum(len(v) for v in vectors)
        assert gram.values.tobytes() == _pairwise_dots(ds, features).tobytes()

    def test_exactness_guard_checks_integer_pairs_in_row_major_order(self):
        # float vectors make no claim; the first all-integer pair past 2**53
        # in row-major order of the upper triangle is the one named
        vectors = [FeatureVector({b"x": 1e10}), FeatureVector({b"x": 2**27}),
                   FeatureVector({b"x": 2**26})]
        ds = Dataset("t", [Graph(1) for _ in vectors])
        by_graph = {id(g): v for g, v in zip(ds.graphs, vectors)}
        with pytest.raises(GramError, match=r"pair \(1, 1\)") as caught:
            gram_explicit(ds, lambda g: by_graph[id(g)])
        assert isinstance(caught.value.__cause__, MultiplicityOverflowError)
        # an integer weight past float64's range fails its pair, not the cast
        huge = Dataset("h", [Graph(1), Graph(1)])
        with pytest.raises(GramError, match=r"pair \(0, 0\)") as caught:
            gram_explicit(huge, lambda g: FeatureVector({b"x": 2**1100}))
        assert isinstance(caught.value.__cause__, MultiplicityOverflowError)
