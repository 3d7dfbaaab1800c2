"""Sparse feature vectors and their algebra."""

import math
import random

import pytest

from gkern import FeatureVector, ParameterError, direct_sum, dot, scale, set_sum, tensor_product
from gkern.features import decode_key, feature_key, pair_key, part_key


def random_vector(rng: random.Random, universe: int = 12, max_nnz: int = 6) -> FeatureVector:
    entries = {}
    for _ in range(rng.randint(0, max_nnz)):
        key = feature_key(1, (rng.randrange(universe),))
        entries[key] = rng.randint(-4, 5)
    return FeatureVector(entries)


class TestKeys:
    def test_round_trip(self):
        for tag, payload in [(1, ()), (4, (0,)), (7, (3, 12, 500)), (9, (-2, 8))]:
            assert decode_key(feature_key(tag, payload)) == (tag, tuple(payload))

    def test_keys_injective_across_tags_and_payloads(self):
        seen = set()
        for tag in (1, 2, 3):
            for payload in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (11,), (1, 1)]:
                key = feature_key(tag, payload)
                assert key not in seen
                seen.add(key)

    def test_part_and_pair_keys_do_not_collide(self):
        base = feature_key(1, (3,))
        other = feature_key(1, (4,))
        assert part_key(0, base) != part_key(1, base)
        assert pair_key(base, other) != pair_key(other, base)
        # length prefix keeps (ab, c) apart from (a, bc)
        assert pair_key(b"ab", b"c") != pair_key(b"a", b"bc")


class TestFeatureVector:
    def test_zero_entries_are_pruned(self):
        v = FeatureVector({b"a": 0, b"b": 2, b"c": 0.0})
        assert v.nnz == 1
        assert v[b"a"] == 0
        assert v[b"b"] == 2

    def test_entries_are_key_sorted(self):
        v = FeatureVector({b"z": 1, b"a": 2, b"m": 3})
        assert list(v) == [b"a", b"m", b"z"]

    def test_equality_ignores_insertion_order(self):
        assert FeatureVector({b"a": 1, b"b": 2}) == FeatureVector({b"b": 2, b"a": 1})
        assert FeatureVector({b"a": 1}) != FeatureVector({b"a": 2})

    def test_one_hot(self):
        v = FeatureVector.one_hot(b"k")
        assert v.nnz == 1 and v[b"k"] == 1

    def test_to_text_is_one_line_per_entry_in_key_order(self):
        v = FeatureVector({b"6|1,0": 2, b"4|0": 0.5, b"1|3": 0})
        assert v.to_text() == "4|0\t0.5\n6|1,0\t2"
        assert FeatureVector().to_text() == ""


class TestDot:
    def test_empty_dot_is_zero(self):
        assert dot(FeatureVector(), FeatureVector({b"a": 3})) == 0

    def test_integer_vectors_give_integer_dot(self):
        u = FeatureVector({b"a": 2, b"b": 3})
        v = FeatureVector({b"b": 5, b"c": 7})
        result = dot(u, v)
        assert result == 15
        assert isinstance(result, int)

    def test_symmetric(self):
        rng = random.Random(11)
        for _ in range(50):
            u, v = random_vector(rng), random_vector(rng)
            assert dot(u, v) == dot(v, u)

    def test_bilinear_in_merged_sums(self):
        rng = random.Random(13)
        for _ in range(50):
            u, v, w = (random_vector(rng) for _ in range(3))
            assert dot(set_sum([u, v]), w) == pytest.approx(dot(u, w) + dot(v, w))

    def test_matches_dense_reference(self):
        rng = random.Random(17)
        for _ in range(50):
            u, v = random_vector(rng), random_vector(rng)
            reference = sum(u[k] * v[k] for k in set(u) | set(v))
            assert dot(u, v) == reference


class TestCombinators:
    def test_scale_multiplies_dot_by_alpha(self):
        rng = random.Random(19)
        for _ in range(30):
            u, v = random_vector(rng), random_vector(rng)
            alpha = rng.choice([0.25, 1.0, 4.0])
            assert dot(scale(u, alpha), scale(v, alpha)) == pytest.approx(
                alpha * dot(u, v)
            )

    def test_scale_zero_empties_and_negative_raises(self):
        v = FeatureVector({b"a": 2})
        assert scale(v, 0).nnz == 0
        with pytest.raises(ParameterError):
            scale(v, -1.0)

    def test_direct_sum_adds_dots(self):
        rng = random.Random(23)
        for _ in range(30):
            u1, u2, v1, v2 = (random_vector(rng) for _ in range(4))
            left = direct_sum([u1, u2])
            right = direct_sum([v1, v2])
            assert dot(left, right) == pytest.approx(dot(u1, v1) + dot(u2, v2))

    def test_direct_sum_nnz_is_sum_of_parts(self):
        u = FeatureVector({b"a": 1, b"b": 2})
        v = FeatureVector({b"a": 3})
        assert direct_sum([u, v]).nnz == 3

    def test_tensor_product_multiplies_dots(self):
        rng = random.Random(29)
        for _ in range(30):
            u1, u2, v1, v2 = (random_vector(rng) for _ in range(4))
            left = tensor_product(u1, u2)
            right = tensor_product(v1, v2)
            assert dot(left, right) == pytest.approx(dot(u1, v1) * dot(u2, v2))

    def test_set_sum_merges_and_cancels(self):
        u = FeatureVector({b"a": 2, b"b": 1})
        v = FeatureVector({b"a": -2, b"c": 4})
        merged = set_sum([u, v])
        assert merged == FeatureVector({b"b": 1, b"c": 4})

    def test_set_sum_models_cross_product_kernel(self):
        # kernel of two sets = sum of pairwise dots = dot of summed features
        rng = random.Random(31)
        for _ in range(20):
            left = [random_vector(rng) for _ in range(rng.randint(0, 4))]
            right = [random_vector(rng) for _ in range(rng.randint(0, 4))]
            pairwise = sum(dot(u, v) for u in left for v in right)
            assert dot(set_sum(left), set_sum(right)) == pytest.approx(pairwise)
