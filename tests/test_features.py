"""Sparse feature vectors as dicts, their dot product, the vertex kernels'
feature maps, and the kernel composition rules realized by the maps that
use them."""

import random

import numpy as np
import pytest

from gkern import (
    Dataset,
    Graph,
    ParameterError,
    VertexKernelSpec,
    graph_invariant_weight_maps,
    sample_binning_grid,
    walk_features_explicit,
    wv_features_explicit,
)
from gkern import bench
from conftest import make_random_graph
from oracles import dot

DIRAC = VertexKernelSpec("dirac")


def random_vector(rng: random.Random, universe: int = 12, max_nnz: int = 6) -> dict:
    entries = {}
    for _ in range(rng.randint(0, max_nnz)):
        key = (rng.randrange(universe),)
        entries[key] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4, 5])
    return entries


def merged(vectors) -> dict:
    """The pointwise sum of ``vectors``."""
    total = {}
    for vector in vectors:
        for key, weight in vector.items():
            total[key] = total.get(key, 0) + weight
    return {key: weight for key, weight in total.items() if weight != 0}


class TestKeys:
    def test_part_and_pair_keys_do_not_collide(self):
        # the walk maps of different lengths, the parts of maxwalk's sum,
        # share no key
        g = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0])
        parts = [set(walk_features_explicit([g], l).keys) for l in range(4)]
        assert sum(len(p) for p in parts) == len(set().union(*parts))
        # the one-pass max-walk map holds exactly their keys
        assert set(walk_features_explicit([g], 3, all_rounds=True).keys) == set().union(*parts)
        # wv_features_explicit keys a vertex by its weight column, then its
        # label: on a path, column 0 is stratum 0 (every vertex), columns 1
        # and 2 the ends and the middle of stratum 1
        path = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0])
        weight_map = graph_invariant_weight_maps(Dataset("t", [path]), 1)
        pairs = sorted(wv_features_explicit(path, weight_map, DIRAC))
        assert pairs == [(0, 0), (0, 1), (1, 0), (2, 1)]
        # the weight column leads: swapped, the middle's key would read
        # (1, 2); and no end (column 1) carries label 1
        assert (1, 2) not in pairs and (1, 1) not in pairs
        # keys of any two maps compare (sorted raises TypeError otherwise)
        mixed = [*parts[2], *pairs, (7,)]
        assert sorted(mixed)[-1] == (7,)


class TestFeatureVector:
    """Every map returns a plain dict of key -> non-zero weight."""

    def test_zero_entries_are_pruned(self):
        # the zero cells of the weight rows leave no entry behind, and the
        # rest carry all of the rows' weight
        rng = random.Random(19)
        graphs = [make_random_graph(rng, max_n=6, labels=2) for _ in range(4)]
        weight_map = graph_invariant_weight_maps(Dataset("t", graphs), 2)
        for g in graphs:
            vector = wv_features_explicit(g, weight_map, DIRAC)
            assert type(vector) is dict and 0 not in vector.values()
            _, w = weight_map.matrix(g)
            assert sum(vector.values()) == int(w.sum())


VERTEX_KERNELS = {
    "dirac": VertexKernelSpec("dirac"),
    "dirac-attributes": VertexKernelSpec("dirac-attributes"),
    # P = 3 is no power of four, so the binned dots round
    "binned": VertexKernelSpec("binned", grid=sample_binning_grid(2, 0.7, 3, seed=11)),
    "hat": VertexKernelSpec("hat", delta=0.75),
    "rbf": VertexKernelSpec("rbf", sigma=0.5),
}


@pytest.mark.parametrize("kind", VERTEX_KERNELS)
def test_vertex_features_realize_the_kernel_matrix(kind):
    # the dots of two vertices' features are the kernel's value on them;
    # coarse attribute levels make equal rows (what dirac-attributes
    # counts) and shared cells common
    spec = VERTEX_KERNELS[kind]
    rng = random.Random(13)
    graphs = [
        make_random_graph(rng, max_n=6, min_n=1, labels=3, attribute_dim=2, attribute_levels=3)
        for _ in range(40)
    ]
    if kind in ("hat", "rbf"):
        with pytest.raises(ParameterError, match="no exact finite feature map"):
            spec.features(graphs[0])
        return
    for g, h in zip(graphs[::2], graphs[1::2]):
        (keys_g, weight), (keys_h, same) = spec.features(g), spec.features(h)
        assert weight == same and len(keys_g) == g.n and len(keys_h) == h.n
        dots = np.array(
            [
                [dot(dict.fromkeys(u, weight), dict.fromkeys(v, weight)) for v in keys_h]
                for u in keys_g
            ]
        )
        if kind == "binned":
            assert np.abs(dots - spec.matrix(g, h)).max() <= 1e-12
        else:
            # one int-weighted key per vertex: the dots are the matrix, exactly
            assert type(weight) is int and all(len(u) == 1 for u in keys_g)
            assert dots.tolist() == spec.matrix(g, h).tolist()


class TestDot:
    def test_empty_dot_is_zero(self):
        assert dot({}, {(1, 0): 3}) == 0

    def test_integer_vectors_give_integer_dot(self):
        u = {(1, 0): 2, (1, 1): 3}
        v = {(1, 1): 5, (1, 2): 7}
        result = dot(u, v)
        assert result == 15
        assert isinstance(result, int)

    def test_symmetric(self):
        # float weights and shuffled insertion order: the terms are added in
        # ascending key order whatever order either dict was built in
        rng = random.Random(11)
        for _ in range(50):
            u, v = (
                {(k,): rng.uniform(-1, 1) for k in rng.sample(range(40), 25)}
                for _ in range(2)
            )
            u_keys, v_keys = list(u), list(v)
            rng.shuffle(u_keys)
            rng.shuffle(v_keys)
            shuffled_u = {k: u[k] for k in u_keys}
            shuffled_v = {k: v[k] for k in v_keys}
            expected = dot(u, v)
            assert dot(v, u) == expected
            assert dot(shuffled_u, shuffled_v) == expected
            assert dot(shuffled_v, u) == expected

    def test_bilinear_in_merged_sums(self):
        rng = random.Random(13)
        for _ in range(50):
            u, v, w = (random_vector(rng) for _ in range(3))
            assert dot(merged([u, v]), w) == dot(u, w) + dot(v, w)

    def test_matches_dense_reference(self):
        rng = random.Random(17)
        for _ in range(50):
            u, v = random_vector(rng), random_vector(rng)
            reference = sum(u.get(k, 0) * v.get(k, 0) for k in set(u) | set(v))
            assert dot(u, v) == reference


def _walk_grams(ds, length):
    """maxwalk's explicit Gram, and the walk Grams of lengths 0..length."""
    maxwalk = bench.kernel_plan("maxwalk", ds, length=length).explicit()
    walks = [bench.kernel_plan("walk", ds, length=l).explicit() for l in range(length + 1)]
    return maxwalk, walks


class TestCombinators:
    """Sum, product and set-sum kernels, through the maps that realize them."""

    def test_direct_sum_adds_dots(self):
        # maxwalk merges the walk maps of lengths 0..l: its Gram is the sum
        rng = random.Random(23)
        ds = Dataset("t", [make_random_graph(rng, max_n=6, labels=2) for _ in range(5)])
        maxwalk, walks = _walk_grams(ds, 3)
        assert maxwalk.values.tobytes() == sum(w.values for w in walks).tobytes()

    def test_direct_sum_nnz_is_sum_of_parts(self):
        rng = random.Random(24)
        ds = Dataset("t", [make_random_graph(rng, max_n=6, labels=2) for _ in range(5)])
        maxwalk, walks = _walk_grams(ds, 3)
        for count in ("stored_features", "distinct_features"):
            assert maxwalk.timings[count] == sum(w.timings[count] for w in walks)

    def test_set_sum_models_cross_product_kernel(self):
        # wv_features_explicit sums w(v) x phi(v) over the vertices: its dot
        # is the sum over vertex pairs of the weight dot times the phi dot
        rng = random.Random(31)
        binned = VertexKernelSpec("binned", grid=sample_binning_grid(2, 1.0, 4, seed=7))
        graphs = [make_random_graph(rng, max_n=6, attribute_dim=2) for _ in range(4)]
        weight_map = graph_invariant_weight_maps(Dataset("t", graphs), 2)

        def parts(g):
            columns, w = weight_map.matrix(g)
            keys, weight = binned.features(g)
            return [
                ({c: x for c, x in zip(columns.tolist(), row) if x}, dict.fromkeys(phi, weight))
                for row, phi in zip(w.tolist(), keys)
            ]

        for g in graphs:
            for h in graphs:
                pairwise = sum(
                    dot(wv, wu) * dot(pv, pu) for wv, pv in parts(g) for wu, pu in parts(h)
                )
                explicit = dot(
                    wv_features_explicit(g, weight_map, binned),
                    wv_features_explicit(h, weight_map, binned),
                )
                assert explicit == pytest.approx(pairwise, rel=1e-12, abs=1e-12)
