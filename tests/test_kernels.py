"""Base kernels through the kernel specs, and binning grids."""

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
    ParameterError,
    VertexKernelSpec,
    sample_binning_grid,
    walk_kernel_implicit,
)
from conftest import make_random_graph
from oracles import dot, edge_kernel_fn, hat_fn, vertex_kernel_fn


def _points(*rows):
    """An edgeless graph with one vertex per attribute row."""
    return Graph(len(rows), [], vertex_attributes=[list(row) for row in rows])


def _vertex_value(spec, x, y):
    """The vertex kernel between attribute rows ``x`` and ``y``."""
    return spec.matrix(_points(x), _points(y))[0, 0]


def _binned_features(x, grid):
    """The binned vertex kernel's feature vector of attribute row ``x``."""
    (keys,), weight = VertexKernelSpec("binned", grid=grid).features(_points(x))
    return dict.fromkeys(map(tuple, keys.tolist()), weight)


def _edge_value(spec, a, b):
    """The edge kernel between annotations ``a`` and ``b``."""
    return spec.elementwise(np.array([a]), np.array([b]))[0]


class TestScalarKernels:
    """Frozen values of each base kernel, through the specs' bulk forms."""

    def test_dirac(self):
        labels = VertexKernelSpec("dirac")
        g, h = Graph(1, [], vertex_labels=[3]), Graph(2, [], vertex_labels=[3, 4])
        assert labels.matrix(g, h).tolist() == [[1.0, 0.0]]
        rows = VertexKernelSpec("dirac-attributes")
        assert _vertex_value(rows, (1.0, 2.0), (1.0, 2.0)) == 1
        assert _vertex_value(rows, (1.0, 2.0), (1.0, 2.5)) == 0

    def test_hat_frozen_values(self):
        hat = VertexKernelSpec("hat", delta=1.0)
        assert _vertex_value(hat, [0.0], [0.0]) == 1.0
        assert _vertex_value(hat, [0.0], [0.5]) == 0.5
        # per-dimension terms multiply
        assert _vertex_value(hat, [0.0, 0.0], [0.5, 0.25]) == 0.5 * 0.75
        # support boundary is closed out: |x - y| == delta gives 0
        assert _vertex_value(hat, [0.0], [1.0]) == 0.0
        assert _vertex_value(hat, [0.0], [3.7]) == 0.0
        # one dead dimension kills the product
        assert _vertex_value(hat, [0.0, 0.0], [0.1, 2.0]) == 0.0

    def test_hat_scales_with_delta(self):
        assert _vertex_value(VertexKernelSpec("hat", delta=2.0), [0.0], [0.5]) == 0.75
        assert math.isclose(
            _vertex_value(VertexKernelSpec("hat", delta=0.6), [1.0], [1.3]), 0.5
        )

    def test_hat_rejects_bad_delta(self):
        with pytest.raises(ParameterError):
            VertexKernelSpec("hat", delta=0.0)
        with pytest.raises(ParameterError):
            VertexKernelSpec("hat", delta=-1.0)

    def test_rbf_frozen_values(self):
        assert _vertex_value(VertexKernelSpec("rbf", sigma=1.0), [1.0, 2.0], [1.0, 2.0]) == 1.0
        assert math.isclose(
            _vertex_value(VertexKernelSpec("rbf", sigma=1.0), [0.0], [1.0]), math.exp(-0.5)
        )
        assert math.isclose(
            _vertex_value(VertexKernelSpec("rbf", sigma=5.0), [0.0, 0.0], [3.0, 4.0]),
            math.exp(-0.5),
        )

    def test_rbf_symmetric_and_positive(self):
        rng = random.Random(5)
        for _ in range(50):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            y = [rng.uniform(-2, 2) for _ in range(3)]
            spec = VertexKernelSpec("rbf", sigma=rng.uniform(0.3, 2.0))
            v = _vertex_value(spec, x, y)
            assert 0.0 < v <= 1.0
            assert v == _vertex_value(spec, y, x)

    def test_rbf_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            VertexKernelSpec("rbf", sigma=0.0)
        with pytest.raises(ParameterError):
            VertexKernelSpec("rbf", sigma=-2.0)

    def test_brownian_bridge_values(self):
        bridge = EdgeKernelSpec("brownian-bridge", c=3.0)
        assert _edge_value(bridge, 4, 4) == 3.0
        assert _edge_value(bridge, 2, 4) == 1.0
        assert _edge_value(bridge, 4, 2) == 1.0
        assert _edge_value(bridge, 1, 5) == 0.0
        assert _edge_value(bridge, 1, 4) == 0.0

    def test_brownian_bridge_unreachable_sentinel(self):
        bridge = EdgeKernelSpec("brownian-bridge", c=3.0)
        assert _edge_value(bridge, INF_DISTANCE, 2) == 0.0
        assert _edge_value(bridge, 2, INF_DISTANCE) == 0.0
        assert _edge_value(bridge, INF_DISTANCE, INF_DISTANCE) == 0.0

    def test_brownian_bridge_rejects_bad_c(self):
        with pytest.raises(ParameterError):
            EdgeKernelSpec("brownian-bridge", c=0.0)
        with pytest.raises(ParameterError):
            EdgeKernelSpec("brownian-bridge", c=-3.0)
        # a NaN c made every value NaN; no kind takes one
        for kind in ("brownian-bridge", "dirac"):
            for c in (math.nan, math.inf):
                with pytest.raises(ParameterError, match="c must be finite"):
                    EdgeKernelSpec(kind, c=c)


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
        # a NaN sigma made every rbf value NaN, a NaN delta every hat value
        # 0; no kind takes one
        grid = sample_binning_grid(1, 0.5, 2, seed=0)
        for value in (math.nan, math.inf, -math.inf):
            for kind in ("hat", "binned"):
                with pytest.raises(ParameterError, match="delta must be finite"):
                    VertexKernelSpec(kind, delta=value, sigma=1.0, grid=grid)
            for kind in ("rbf", "dirac"):
                with pytest.raises(ParameterError, match="sigma must be finite"):
                    VertexKernelSpec(kind, delta=1.0, sigma=value)

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
        assert (spec.matrix(g, h) == 1.0).all()

    def test_attribute_kinds_require_attributes(self):
        g = Graph(2, [(0, 1)], vertex_labels=[0, 1])
        spec = VertexKernelSpec("hat", delta=1.0)
        with pytest.raises(ContractError):
            spec.support(g, g)
        with pytest.raises(ContractError):
            spec.matrix(g, g)
        with pytest.raises(ContractError):
            VertexKernelSpec("dirac-attributes").features(g)

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
                value = vertex_kernel_fn(spec)
                for u in range(g.n):
                    for v in range(h.n):
                        single = value(g, u, h, v)
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
                # the product build joins vertices on their keys
                # (attribute rows key as raw bytes, which == compares but
                # np.equal.outer does not take)
                same = spec.keys(g)[:, None] == spec.keys(h)[None, :]
                assert not (keep & ~same).any()
                assert not spec.unit or (keep == same).all()
                if values is None:
                    # binary kinds keep weight 1 and leave nothing to gather
                    assert spec.kind in ("dirac", "dirac-attributes")
                    assert (full[keep] == 1.0).all()
                else:
                    assert (values == full).all()

    def test_attribute_rows_join_like_labels(self):
        # rows key by value (-0.0 as 0.0), so walks on rows join as walks
        # on the row codes do, and give the same value
        spec = VertexKernelSpec("dirac-attributes")
        rows = [[-0.0, 1.5], [0.0, 1.5], [0.0, -1.5], [2.0, 1.5]]
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], vertex_attributes=rows)
        keys = spec.keys(g)
        assert keys[0] == keys[1] and len(set(keys[1:].tolist())) == 3
        assert spec.unit
        h = Graph(3, [(0, 1), (1, 2)], vertex_attributes=[[0.0, -1.5], [-0.0, 1.5], [2.0, 1.5]])
        coded_g = Graph(4, g.edges, vertex_labels=[0, 0, 1, 2])
        coded_h = Graph(3, h.edges, vertex_labels=[1, 0, 2])
        dirac = VertexKernelSpec("dirac")
        edge = EdgeKernelSpec("dirac")
        on_rows = walk_kernel_implicit(g, [h, g], spec, edge, 3)
        on_codes = walk_kernel_implicit(coded_g, [coded_h, coded_g], dirac, edge, 3)
        assert on_rows.tolist() == on_codes.tolist() and on_rows.all()

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
        assert _edge_value(EdgeKernelSpec("dirac"), 3, 3) == 1
        assert _edge_value(EdgeKernelSpec("dirac"), 3, 4) == 0
        assert _edge_value(EdgeKernelSpec("uniform"), 3, 4) == 1
        bridge = EdgeKernelSpec("brownian-bridge", c=3.0)
        assert _edge_value(bridge, 2, 4) == 1.0
        assert _edge_value(bridge, 2, 2) == 3.0

    def test_table_is_dirac_plus_exceptions(self):
        half = EdgeKernelSpec("table", table=((1, 2, 0.5),))
        assert _edge_value(half, 1, 2) == 0.5
        assert _edge_value(half, 2, 1) == 0.5
        assert _edge_value(half, 1, 1) == 1
        assert _edge_value(half, 2, 2) == 1
        assert _edge_value(half, 1, 3) == 0
        assert _edge_value(half, 3, 3) == 1
        # an exception may also override the diagonal
        off = EdgeKernelSpec("table", table=((4, 4, 0.0),))
        assert _edge_value(off, 4, 4) == 0.0
        assert _edge_value(off, 5, 5) == 1

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
                full = spec.elementwise(np.array(lg)[:, None], np.array(lh)[None, :])
                assert full.shape == (len(lg), len(lh))
                value = edge_kernel_fn(spec)
                for i, a in enumerate(lg):
                    for j, b in enumerate(lh):
                        assert full[i, j] == value(a, b)

    def test_elementwise_agrees_with_value(self):
        rng = random.Random(19)
        for trial in range(20):
            n = rng.randint(1, 8)
            lg = [rng.randrange(4) for _ in range(n)]
            lh = [rng.randrange(4) for _ in range(n)]
            for spec in self._specs():
                flat = spec.elementwise(np.array(lg), np.array(lh))
                assert flat.shape == (n,)
                value = edge_kernel_fn(spec)
                for i in range(n):
                    assert flat[i] == value(lg[i], lh[i])

    def test_keys_bound_the_positive_part_of_matrix(self):
        # the product build joins edges on their keys and evaluates only
        # the matched pairs, through elementwise
        lg, lh = np.array([0, 1, 2, 3, 1]), np.array([1, 2, 0])
        for spec in self._specs():
            full = spec.elementwise(lg[:, None], lh[None, :])
            same = np.equal.outer(spec.keys(lg), spec.keys(lh))
            assert (full[~same] == 0).all()
            if spec.unit:
                # a key match alone gives the value, 1
                assert spec.kind in ("dirac", "uniform")
                assert (full == same).all()
            else:
                assert spec.kind in ("brownian-bridge", "table")

    def test_bridge_matrix_zeroes_unreachable_sentinel(self):
        bridge = EdgeKernelSpec("brownian-bridge", c=3.0)
        lg = np.array([1, INF_DISTANCE])
        lh = np.array([1, 2, INF_DISTANCE])
        full = bridge.elementwise(lg[:, None], lh[None, :])
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
        # a NaN pitch put every point in one cell, so the binned kernel read 1
        for delta in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="delta must be finite"):
                sample_binning_grid(1, delta, 4, seed=0)

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
            vec = _binned_features([0.4, -1.2], grid)
            assert len(vec) == P
            weight = 1.0 / math.sqrt(P)
            assert all(w == weight for w in vec.values())

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
            assert dot(_binned_features(x, grid), _binned_features(y, grid)) == (
                collisions / 16.0
            )

    def test_far_points_never_collide(self):
        grid = sample_binning_grid(1, 1.0, 32, seed=3)
        assert dot(_binned_features([0.0], grid), _binned_features([1.5], grid)) == 0.0

    def test_collision_probability_approximates_hat(self):
        # The chance that one shifted grid puts both points in one cell
        # equals the hat kernel; average over many independent grids.
        x, y = [0.3, 1.1], [0.65, 0.9]
        delta = 1.0
        expected = hat_fn(x, y, delta)
        trials, hits = 3000, 0
        pts = np.array([x, y])
        for seed in range(trials):
            grid = sample_binning_grid(2, delta, 1, seed=seed)
            cells = grid.bin_indices(pts)
            hits += (cells[0, 0] == cells[1, 0]).all()
        rate = hits / trials
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) < 5 * sigma
