"""Sparse feature vectors as dicts, their dot product, and the kernel
composition rules realized by the maps that use them."""

import random

import pytest

from gkern import (
    Dataset,
    Graph,
    VertexKernelSpec,
    attribute_class_features,
    binned_attribute_features,
    graph_invariant_weight_maps,
    label_features,
    sample_binning_grid,
    walk_features_explicit,
    wv_features_explicit,
)
from gkern import bench
from gkern.features import TAG_LABEL, TAG_PAIR, TAG_WL
from conftest import make_random_graph
from oracles import dot


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
        # wv_features_explicit pairs the weight key with the label key, in
        # that order, so swapped parts give another key
        path = Graph(3, [(0, 1), (1, 2)], vertex_labels=[0, 1, 0])
        weight_map = graph_invariant_weight_maps(Dataset("t", [path]), 1)
        pairs = sorted(wv_features_explicit(path, weight_map, label_features))
        ends, middle = (TAG_WL, 1, 0), (TAG_WL, 1, 1)
        assert pairs == [
            (TAG_PAIR, (TAG_WL, 0, 0), A),
            (TAG_PAIR, (TAG_WL, 0, 0), B),
            (TAG_PAIR, ends, A),
            (TAG_PAIR, middle, B),
        ]
        assert (TAG_PAIR, A, ends) not in pairs and (TAG_PAIR, ends, B) not in pairs
        # plain and pair keys compare, so a mix of them sorts
        mixed = [*parts[2], pairs[0], (TAG_LABEL, 7), pairs[-1]]
        assert [key[0] for key in sorted(mixed)] == sorted(key[0] for key in mixed)


class TestFeatureVector:
    """Every map returns a plain dict of key -> non-zero weight."""

    def test_zero_entries_are_pruned(self):
        # the zero cells of the weight rows leave no entry behind, and the
        # rest carry all of the rows' weight
        rng = random.Random(19)
        graphs = [make_random_graph(rng, max_n=6, labels=2) for _ in range(4)]
        weight_map = graph_invariant_weight_maps(Dataset("t", graphs), 2)
        for g in graphs:
            vector = wv_features_explicit(g, weight_map, label_features)
            assert type(vector) is dict and 0 not in vector.values()
            _, w = weight_map.matrix(g)
            assert sum(vector.values()) == int(w.sum())

    def test_one_hot(self):
        g = Graph(2, [(0, 1)], vertex_labels=[3, 5], vertex_attributes=[[0.5], [0.5]])
        ds = Dataset("t", [g])
        assert label_features(g, 1) == {(TAG_LABEL, 5): 1}
        by_row = attribute_class_features(ds)
        assert by_row(g, 0) == by_row(g, 1) == {(TAG_LABEL, 0): 1}
        assert type(by_row(g, 0)) is dict


class TestAttributeClasses:
    """The exact class map of the Dirac kernel on attribute rows."""

    def test_classes_numbered_by_first_occurrence(self):
        rows = [5, 9, 5, 2, 9, 5]
        g = Graph(4, [(0, 1)], vertex_attributes=[[x] for x in rows[:4]])
        h = Graph(2, [], vertex_attributes=[[x] for x in rows[4:]])
        by_row = attribute_class_features(Dataset("t", [g, h]))
        vectors = [by_row(g, v) for v in range(g.n)] + [by_row(h, v) for v in range(h.n)]
        assert vectors == [{(TAG_LABEL, c): 1} for c in [0, 1, 0, 2, 1, 0]]

    def test_class_dots_reproduce_dirac_attributes(self):
        rng = random.Random(13)
        spec = VertexKernelSpec("dirac-attributes")
        for _ in range(20):
            graphs = [
                make_random_graph(rng, max_n=6, min_n=1, attribute_dim=2, attribute_levels=2)
                for _ in range(2)
            ]
            by_row = attribute_class_features(Dataset("t", graphs))
            g, h = graphs
            dots = [[dot(by_row(g, u), by_row(h, v)) for v in range(h.n)] for u in range(g.n)]
            assert dots == spec.matrix(g, h).tolist()


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

