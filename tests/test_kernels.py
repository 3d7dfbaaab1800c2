"""Base kernels, binning grids, and binary-kernel feature maps."""

import math
import random

import numpy as np
import pytest

from gkern import (
    BinningGrid,
    ContractError,
    EdgeKernelSpec,
    Graph,
    INF_DISTANCE,
    InvalidKernelError,
    ParameterError,
    VertexKernelSpec,
    binary_feature_map,
    binning_features,
    brownian_bridge,
    dirac,
    dot,
    hat_kernel,
    rbf_kernel,
    sample_binning_grid,
)
from gkern.features import TAG_CLASS, decode_key
from conftest import make_random_graph


class TestScalarKernels:
    def test_dirac(self):
        assert dirac(3, 3) == 1
        assert dirac(3, 4) == 0
        assert dirac((1.0, 2.0), (1.0, 2.0)) == 1
        assert dirac((1.0, 2.0), (1.0, 2.5)) == 0

    def test_hat_frozen_values(self):
        assert hat_kernel([0.0], [0.0], 1.0) == 1.0
        assert hat_kernel([0.0], [0.5], 1.0) == 0.5
        # per-dimension terms multiply
        assert hat_kernel([0.0, 0.0], [0.5, 0.25], 1.0) == 0.5 * 0.75
        # support boundary is closed out: |x - y| == delta gives 0
        assert hat_kernel([0.0], [1.0], 1.0) == 0.0
        assert hat_kernel([0.0], [3.7], 1.0) == 0.0
        # one dead dimension kills the product
        assert hat_kernel([0.0, 0.0], [0.1, 2.0], 1.0) == 0.0

    def test_hat_scales_with_delta(self):
        assert hat_kernel([0.0], [0.5], 2.0) == 0.75
        assert math.isclose(hat_kernel([1.0], [1.3], 0.6), 0.5)

    def test_hat_rejects_bad_delta(self):
        with pytest.raises(ParameterError):
            hat_kernel([0.0], [0.0], 0.0)
        with pytest.raises(ParameterError):
            hat_kernel([0.0], [0.0], -1.0)

    def test_rbf_frozen_values(self):
        assert rbf_kernel([1.0, 2.0], [1.0, 2.0], 1.0) == 1.0
        assert math.isclose(rbf_kernel([0.0], [1.0], 1.0), math.exp(-0.5))
        assert math.isclose(rbf_kernel([0.0, 0.0], [3.0, 4.0], 5.0), math.exp(-0.5))

    def test_rbf_symmetric_and_positive(self):
        rng = random.Random(5)
        for _ in range(50):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            y = [rng.uniform(-2, 2) for _ in range(3)]
            sigma = rng.uniform(0.3, 2.0)
            v = rbf_kernel(x, y, sigma)
            assert 0.0 < v <= 1.0
            assert v == rbf_kernel(y, x, sigma)

    def test_rbf_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            rbf_kernel([0.0], [0.0], 0.0)
        with pytest.raises(ParameterError):
            rbf_kernel([0.0], [0.0], -2.0)

    def test_brownian_bridge_values(self):
        assert brownian_bridge(4, 4, 3.0) == 3.0
        assert brownian_bridge(2, 4, 3.0) == 1.0
        assert brownian_bridge(4, 2, 3.0) == 1.0
        assert brownian_bridge(1, 5, 3.0) == 0.0
        assert brownian_bridge(1, 4, 3.0) == 0.0

    def test_brownian_bridge_unreachable_sentinel(self):
        assert brownian_bridge(INF_DISTANCE, 2, 3.0) == 0.0
        assert brownian_bridge(2, INF_DISTANCE, 3.0) == 0.0
        assert brownian_bridge(INF_DISTANCE, INF_DISTANCE, 3.0) == 0.0

    def test_brownian_bridge_rejects_bad_c(self):
        with pytest.raises(ParameterError):
            brownian_bridge(1, 2, 0.0)
        with pytest.raises(ParameterError):
            brownian_bridge(1, 2, -3.0)


class TestVertexKernelSpec:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            VertexKernelSpec("nope")
        with pytest.raises(ParameterError):
            VertexKernelSpec("hat")
        with pytest.raises(ParameterError):
            VertexKernelSpec("hat", delta=0.0)
        with pytest.raises(ParameterError):
            VertexKernelSpec("rbf")
        with pytest.raises(ParameterError):
            VertexKernelSpec("rbf", sigma=-1.0)
        with pytest.raises(ParameterError):
            VertexKernelSpec("binned")

    def test_describe_mentions_parameters(self):
        assert VertexKernelSpec("dirac").describe() == "dirac"
        assert "0.5" in VertexKernelSpec("hat", delta=0.5).describe()
        assert "2" in VertexKernelSpec("rbf", sigma=2.0).describe()
        grid = sample_binning_grid(2, 1.5, 4, seed=1)
        described = VertexKernelSpec("binned", grid=grid).describe()
        assert "4" in described and "1.5" in described

    def test_dirac_treats_unlabeled_as_uniform(self):
        g = Graph(3, [(0, 1)])
        h = Graph(2, [])
        spec = VertexKernelSpec("dirac")
        assert spec.value(g, 0, h, 1) == 1.0
        assert (spec.matrix(g, h) == 1.0).all()

    def test_attribute_kinds_require_attributes(self):
        g = Graph(2, [(0, 1)], vertex_labels=[0, 1])
        spec = VertexKernelSpec("hat", delta=1.0)
        with pytest.raises(ContractError):
            spec.value(g, 0, g, 1)
        with pytest.raises(ContractError):
            spec.matrix(g, g)

    def _specs(self):
        grid = sample_binning_grid(2, 1.2, 4, seed=9)
        return [
            VertexKernelSpec("dirac"),
            VertexKernelSpec("dirac-attributes"),
            VertexKernelSpec("hat", delta=1.0),
            VertexKernelSpec("rbf", sigma=0.8),
            VertexKernelSpec("binned", grid=grid),
        ]

    def test_matrix_agrees_with_value_on_random_graphs(self):
        rng = random.Random(21)
        for trial in range(12):
            g = make_random_graph(rng, max_n=6, attribute_dim=2)
            h = make_random_graph(rng, max_n=6, attribute_dim=2)
            for spec in self._specs():
                full = spec.matrix(g, h)
                assert full.shape == (g.n, h.n)
                for u in range(g.n):
                    for v in range(h.n):
                        single = spec.value(g, u, h, v)
                        assert full[u, v] == pytest.approx(single, rel=1e-12, abs=1e-15)

    def test_support_is_the_positive_part_of_matrix(self):
        rng = random.Random(23)
        for trial in range(12):
            g = make_random_graph(rng, max_n=6, attribute_dim=2, labels=2)
            h = make_random_graph(rng, max_n=6, attribute_dim=2, labels=2)
            for spec in self._specs():
                keep, values = spec.support(g, h)
                full = spec.matrix(g, h)
                assert keep.dtype == bool and (keep == (full > 0)).all()
                if values is None:
                    # binary kinds keep weight 1 and leave nothing to gather
                    assert spec.kind in ("dirac", "dirac-attributes")
                    assert (full[keep] == 1.0).all()
                else:
                    assert (values == full).all()

    def test_binned_matrix_is_collision_fraction(self):
        # With P = 4 grids the per-cell weight squared is exactly 1/4, so
        # the feature dot product and the collision fraction agree exactly.
        rng = random.Random(3)
        grid = sample_binning_grid(1, 0.7, 4, seed=11)
        spec = VertexKernelSpec("binned", grid=grid)
        g = make_random_graph(rng, max_n=5, attribute_dim=1, min_n=2)
        h = make_random_graph(rng, max_n=5, attribute_dim=1, min_n=2)
        full = spec.matrix(g, h)
        bg = grid.bin_indices(g.vertex_attributes)
        bh = grid.bin_indices(h.vertex_attributes)
        for u in range(g.n):
            for v in range(h.n):
                collisions = sum(
                    (bg[u, p] == bh[v, p]).all() for p in range(grid.num_grids)
                )
                assert full[u, v] == collisions / 4.0


class TestEdgeKernelSpec:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            EdgeKernelSpec("nope")
        with pytest.raises(ParameterError):
            EdgeKernelSpec("brownian-bridge", c=0.0)
        with pytest.raises(ParameterError):
            EdgeKernelSpec("table")
        with pytest.raises(ParameterError):
            EdgeKernelSpec("table", table=((1, 2, -0.5),))
        with pytest.raises(ParameterError):
            EdgeKernelSpec("table", table=((1, 2, 0.5), (2, 1, 0.7)))
        with pytest.raises(ParameterError):
            EdgeKernelSpec("dirac", table=((1, 2, 0.5),))
        # the same symmetric entry twice with one weight is fine
        EdgeKernelSpec("table", table=((1, 2, 0.5), (2, 1, 0.5)))

    def test_scalar_values(self):
        assert EdgeKernelSpec("dirac").value(3, 3) == 1
        assert EdgeKernelSpec("dirac").value(3, 4) == 0
        assert EdgeKernelSpec("uniform").value(3, 4) == 1
        bridge = EdgeKernelSpec("brownian-bridge", c=3.0)
        assert bridge.value(2, 4) == 1.0
        assert bridge.value(2, 2) == 3.0

    def test_table_is_dirac_plus_exceptions(self):
        half = EdgeKernelSpec("table", table=((1, 2, 0.5),))
        assert half.value(1, 2) == 0.5
        assert half.value(2, 1) == 0.5
        assert half.value(1, 1) == 1
        assert half.value(2, 2) == 1
        assert half.value(1, 3) == 0
        assert half.value(3, 3) == 1
        # an exception may also override the diagonal
        off = EdgeKernelSpec("table", table=((4, 4, 0.0),))
        assert off.value(4, 4) == 0.0
        assert off.value(5, 5) == 1

    def _specs(self):
        return [
            EdgeKernelSpec("dirac"),
            EdgeKernelSpec("uniform"),
            EdgeKernelSpec("brownian-bridge", c=3.0),
            EdgeKernelSpec("table", table=((0, 1, 0.5), (2, 2, 0.25))),
        ]

    def test_matrix_agrees_with_value(self):
        rng = random.Random(17)
        for trial in range(20):
            lg = [rng.randrange(4) for _ in range(rng.randint(1, 6))]
            lh = [rng.randrange(4) for _ in range(rng.randint(1, 6))]
            for spec in self._specs():
                full = spec.matrix(np.array(lg), np.array(lh))
                assert full.shape == (len(lg), len(lh))
                for i, a in enumerate(lg):
                    for j, b in enumerate(lh):
                        assert full[i, j] == spec.value(a, b)

    def test_elementwise_agrees_with_value(self):
        rng = random.Random(19)
        for trial in range(20):
            n = rng.randint(1, 8)
            lg = [rng.randrange(4) for _ in range(n)]
            lh = [rng.randrange(4) for _ in range(n)]
            for spec in self._specs():
                flat = spec.elementwise(np.array(lg), np.array(lh))
                assert flat.shape == (n,)
                for i in range(n):
                    assert flat[i] == spec.value(lg[i], lh[i])

    def test_support_is_the_positive_part_of_matrix(self):
        lg, lh = np.array([0, 1, 2, 3, 1]), np.array([1, 2, 0])
        for spec in self._specs():
            keep, values = spec.support(lg, lh)
            full = spec.matrix(lg, lh)
            if keep is None:
                # uniform keeps every pair at weight 1
                assert spec.kind == "uniform" and values is None
                assert (full == 1.0).all()
                continue
            assert keep.dtype == bool and (keep == (full > 0)).all()
            if values is None:
                assert spec.kind == "dirac" and (full[keep] == 1.0).all()
            else:
                assert (values == full).all()

    def test_bridge_matrix_zeroes_unreachable_sentinel(self):
        bridge = EdgeKernelSpec("brownian-bridge", c=3.0)
        lg = np.array([1, INF_DISTANCE])
        lh = np.array([1, 2, INF_DISTANCE])
        full = bridge.matrix(lg, lh)
        assert full[0, 0] == 3.0 and full[0, 1] == 2.0
        assert full[1, 0] == 0.0 and full[1, 2] == 0.0 and full[0, 2] == 0.0
        flat = bridge.elementwise(np.array([INF_DISTANCE, 2]), np.array([1, 2]))
        assert flat[0] == 0.0 and flat[1] == 3.0


class TestBinning:
    def test_sampler_validates_parameters(self):
        with pytest.raises(ParameterError):
            sample_binning_grid(0, 1.0, 4, seed=0)
        with pytest.raises(ParameterError):
            sample_binning_grid(1, 0.0, 4, seed=0)
        with pytest.raises(ParameterError):
            sample_binning_grid(1, 1.0, 0, seed=0)

    def test_sampler_shape_range_determinism(self):
        grid = sample_binning_grid(3, 0.8, 5, seed=42)
        assert grid.shifts.shape == (5, 3)
        assert grid.num_grids == 5 and grid.dim == 3
        assert (grid.shifts >= 0.0).all() and (grid.shifts < 0.8).all()
        again = sample_binning_grid(3, 0.8, 5, seed=42)
        assert (grid.shifts == again.shifts).all()
        other = sample_binning_grid(3, 0.8, 5, seed=43)
        assert (grid.shifts != other.shifts).any()

    def test_bin_indices_frozen_case(self):
        grid = BinningGrid(1.0, np.array([[0.25]]))
        cells = grid.bin_indices(np.array([[0.8], [0.7], [-0.3]]))
        # floor(0.8 + 0.25) = 1, floor(0.7 + 0.25) = 0, floor(-0.3 + 0.25) = -1
        assert cells[:, 0, 0].tolist() == [1, 0, -1]

    def test_bin_indices_rejects_wrong_shape(self):
        grid = sample_binning_grid(2, 1.0, 3, seed=1)
        with pytest.raises(ContractError):
            grid.bin_indices(np.zeros((4, 3)))
        with pytest.raises(ContractError):
            grid.bin_indices(np.zeros(4))

    def test_features_have_exactly_p_entries_of_weight_inverse_sqrt_p(self):
        for P in (1, 3, 4, 16):
            grid = sample_binning_grid(2, 1.3, P, seed=P)
            vec = binning_features([0.4, -1.2], grid)
            assert vec.nnz == P
            weight = 1.0 / math.sqrt(P)
            assert all(w == weight for w in vec.entries.values())

    def test_dot_is_collision_fraction(self):
        rng = random.Random(31)
        grid = sample_binning_grid(2, 1.0, 16, seed=7)
        for _ in range(30):
            x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            y = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            bx = grid.bin_indices(np.array([x]))[0]
            by = grid.bin_indices(np.array([y]))[0]
            collisions = sum(
                (bx[p] == by[p]).all() for p in range(grid.num_grids)
            )
            # P = 16 is a power of four, so 1/sqrt(P) squares exactly
            assert dot(binning_features(x, grid), binning_features(y, grid)) == (
                collisions / 16.0
            )

    def test_far_points_never_collide(self):
        grid = sample_binning_grid(1, 1.0, 32, seed=3)
        assert dot(binning_features([0.0], grid), binning_features([1.5], grid)) == 0.0

    def test_collision_probability_approximates_hat(self):
        # The chance that one shifted grid puts both points in one cell
        # equals the hat kernel; average over many independent grids.
        x, y = [0.3, 1.1], [0.65, 0.9]
        delta = 1.0
        expected = hat_kernel(x, y, delta)
        trials, hits = 3000, 0
        pts = np.array([x, y])
        for seed in range(trials):
            grid = sample_binning_grid(2, delta, 1, seed=seed)
            cells = grid.bin_indices(pts)
            hits += (cells[0, 0] == cells[1, 0]).all()
        rate = hits / trials
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) < 5 * sigma


class TestBinaryFeatureMap:
    def test_dirac_classes_numbered_by_first_occurrence(self):
        items = [5, 9, 5, 2, 9, 5]
        vectors = binary_feature_map(items, dirac)
        keys = [next(iter(v.entries)) for v in vectors]
        class_of = [decode_key(k)[1][0] for k in keys]
        assert class_of == [0, 1, 0, 2, 1, 0]
        assert all(decode_key(k)[0] == TAG_CLASS for k in keys)
        assert all(v.entries[k] == 1 for v, k in zip(vectors, keys))

    def test_feature_map_reproduces_kernel(self):
        rng = random.Random(13)
        for trial in range(20):
            items = [rng.randrange(5) for _ in range(rng.randint(1, 12))]
            vectors = binary_feature_map(items, dirac)
            for i, x in enumerate(items):
                for j, y in enumerate(items):
                    assert dot(vectors[i], vectors[j]) == dirac(x, y)

    def test_self_incompatible_items_get_zero_vector(self):
        def positive_dirac(x, y):
            return 1 if x == y and x > 0 else 0

        vectors = binary_feature_map([1, 0, 1, -2], positive_dirac)
        assert vectors[0].nnz == 1 and vectors[2].nnz == 1
        assert vectors[1].nnz == 0 and vectors[3].nnz == 0
        assert dot(vectors[0], vectors[2]) == 1

    def test_custom_tag_separates_feature_families(self):
        a = binary_feature_map([1], dirac, tag=TAG_CLASS)[0]
        b = binary_feature_map([1], dirac, tag=TAG_CLASS + 1)[0]
        assert dot(a, b) == 0

    def test_rejects_non_binary_values(self):
        with pytest.raises(InvalidKernelError, match="not binary"):
            binary_feature_map([1, 2], lambda x, y: 0.5)

    def test_rejects_asymmetry(self):
        def skewed(x, y):
            if (x, y) == (2, 1):
                return 1
            return dirac(x, y) if (x, y) != (1, 2) else 0

        with pytest.raises(InvalidKernelError, match="asymmetric"):
            binary_feature_map([1, 2], skewed)

    def test_rejects_non_transitive_relation(self):
        def chain(x, y):
            if x == y:
                return 1
            return 1 if {x, y} in ({1, 3}, {2, 3}) else 0

        with pytest.raises(InvalidKernelError, match="transitive"):
            binary_feature_map([1, 2, 3], chain)

    def test_rejects_match_without_self_match(self):
        def leaky(x, y):
            if x == y:
                return 0 if x == 3 else 1
            return 1 if {x, y} == {1, 3} else 0

        with pytest.raises(InvalidKernelError, match="partial equivalence"):
            binary_feature_map([1, 3], leaky)
