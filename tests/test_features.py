"""Sparse feature vectors as dicts, their dot product, and the kernel
composition rules realized by the maps that use them."""

import random

import pytest

from gkern import (
    Dataset,
    Graph,
    INF_DISTANCE,
    all_pairs_shortest_paths,
    attribute_class_features,
    binary_feature_map,
    binned_attribute_features,
    dirac,
    dirac_length_features,
    dot,
    graph_invariant_weight_maps,
    label_features,
    sample_binning_grid,
    sp_features_approx,
    walk_features_explicit,
    wv_features_explicit,
)
from gkern import bench
from gkern.features import TAG_LABEL, TAG_LEN, TAG_PAIR, TAG_WALK
from conftest import make_random_graph


def random_vector(rng: random.Random, universe: int = 12, max_nnz: int = 6) -> dict:
    entries = {}
    for _ in range(rng.randint(0, max_nnz)):
        key = (TAG_LABEL, rng.randrange(universe))
        entries[key] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4, 5])
    return entries


def merged(vectors) -> dict:
    """The pointwise sum of ``vectors``."""
    total = {}
    for vector in vectors:
        for key, weight in vector.items():
            total[key] = total.get(key, 0) + weight
    return {key: weight for key, weight in total.items() if weight != 0}


A, B = (TAG_LABEL, 0), (TAG_LABEL, 1)


class TestKeys:
    def test_keys_injective_across_tags_and_payloads(self):
        seen = set()
        for tag in (1, 2, 3):
            for payload in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (11,), (1, 1)]:
                key = (tag, *payload)
                assert key not in seen
                seen.add(key)

    def test_part_and_pair_keys_do_not_collide(self):
        # the walk maps of different lengths, the parts of maxwalk's sum,
        # share no key
        g = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0])
        parts = [set(walk_features_explicit(g, l)) for l in range(4)]
        assert sum(len(p) for p in parts) == len(set().union(*parts))
        # sp_features_approx nests pairs to the right: (a, (b, c)) is not
        # ((a, b), c), and paired keys of swapped ends differ
        path = Graph(2, [(0, 1)], vertex_labels=[0, 1])
        (key_01, key_10) = sorted(sp_features_approx(path, label_features))
        assert key_01 == (TAG_PAIR, A, (TAG_PAIR, (TAG_LEN, 1), B))
        assert key_10 == (TAG_PAIR, B, (TAG_PAIR, (TAG_LEN, 1), A))
        assert (TAG_PAIR, (TAG_PAIR, A, (TAG_LEN, 1)), B) != key_01
        # plain and pair keys compare, so a mix of them sorts
        mixed = [*parts[2], key_01, (TAG_LABEL, 7), key_10]
        assert [key[0] for key in sorted(mixed)] == sorted(key[0] for key in mixed)


class TestFeatureVector:
    """Every map returns a plain dict of key -> non-zero weight."""

    def test_zero_entries_are_pruned(self):
        # a zero vertex weight, a zero product and an exact cancellation
        # leave no entry behind
        path = Graph(2, [(0, 1)], vertex_labels=[0, 1])
        zero_at_1 = lambda g, v: {A: 1} if v == 0 else {A: 0, B: 2}
        assert sp_features_approx(path, zero_at_1) == {
            (TAG_PAIR, A, (TAG_PAIR, (TAG_LEN, 1), B)): 2,
            (TAG_PAIR, B, (TAG_PAIR, (TAG_LEN, 1), A)): 2,
        }
        assert sp_features_approx(path, zero_at_1, lambda d: {(TAG_LEN, d): 0}) == {}
        vectors = binary_feature_map([1, 0], lambda x, y: int(x == y and x > 0))
        assert list(vectors[0].values()) == [1] and vectors[1] == {}

    def test_one_hot(self):
        g = Graph(2, [(0, 1)], vertex_labels=[3, 5], vertex_attributes=[[0.5], [0.5]])
        ds = Dataset("t", [g])
        assert label_features(g, 1) == {(TAG_LABEL, 5): 1}
        assert dirac_length_features(4) == {(TAG_LEN, 4): 1}
        by_row = attribute_class_features(ds)
        assert by_row(g, 0) == by_row(g, 1) == {(TAG_LABEL, 0): 1}
        assert [type(v) for v in binary_feature_map([2, 2], dirac)] == [dict, dict]


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
                {(TAG_LABEL, k): rng.uniform(-1, 1) for k in rng.sample(range(40), 25)}
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

    def test_tensor_product_multiplies_dots(self):
        # sp_features_approx pairs keys: a dot of its maps is the sum over
        # path pairs of the products of the factor dots
        rng = random.Random(29)
        grid = sample_binning_grid(2, 1.0, 4, seed=5)
        vertex_map = binned_attribute_features(grid)
        for _ in range(6):
            g, h = (make_random_graph(rng, max_n=5, attribute_dim=2) for _ in range(2))
            paths = [_reachable_factor_maps(x, vertex_map) for x in (g, h)]
            pairwise = sum(
                dot(a[0], b[0]) * dot(a[1], b[1]) * dot(a[2], b[2])
                for a in paths[0]
                for b in paths[1]
            )
            assembled = dot(sp_features_approx(g, vertex_map), sp_features_approx(h, vertex_map))
            assert assembled == pytest.approx(pairwise, rel=1e-12, abs=1e-12)

    def test_set_sum_merges_and_cancels(self):
        # the sum over paths merges equal keys and drops exact cancellations:
        # on the path l1 - c - l2 the four distance-1 paths cancel
        path = Graph(3, [(0, 1), (1, 2)])
        signs = {0: {A: 1}, 1: {A: 1}, 2: {A: -1}}
        assert sp_features_approx(path, lambda g, v: signs[v]) == {
            (TAG_PAIR, A, (TAG_PAIR, (TAG_LEN, 2), A)): -2
        }

    def test_set_sum_models_cross_product_kernel(self):
        # wv_features_explicit sums w(v) x phi(v) over the vertices: its dot
        # is the sum over vertex pairs of the weight dot times the phi dot
        rng = random.Random(31)
        grid = sample_binning_grid(2, 1.0, 4, seed=7)
        vertex_map = binned_attribute_features(grid)
        graphs = [make_random_graph(rng, max_n=6, attribute_dim=2) for _ in range(4)]
        weight_map = graph_invariant_weight_maps(Dataset("t", graphs), 2)

        def parts(g):
            columns, w = weight_map.matrix(g)
            keys = [weight_map.keys[c] for c in columns.tolist()]
            return [
                ({k: x for k, x in zip(keys, row) if x}, vertex_map(g, v))
                for v, row in enumerate(w.tolist())
            ]

        for g in graphs:
            for h in graphs:
                pairwise = sum(
                    dot(wv, wu) * dot(pv, pu) for wv, pv in parts(g) for wu, pu in parts(h)
                )
                explicit = dot(
                    wv_features_explicit(g, weight_map, vertex_map),
                    wv_features_explicit(h, weight_map, vertex_map),
                )
                assert explicit == pytest.approx(pairwise, rel=1e-12, abs=1e-12)


def _reachable_factor_maps(g, vertex_map):
    """(phi(u), phi_len(d(u, v)), phi(v)) for each ordered reachable pair."""
    dist = all_pairs_shortest_paths(g).dist
    return [
        (vertex_map(g, u), dirac_length_features(int(dist[u][v])), vertex_map(g, v))
        for u in range(g.n)
        for v in range(g.n)
        if u != v and dist[u][v] != INF_DISTANCE
    ]
