"""Deterministic random stream."""

import math

import pytest

from gkern import ParameterError, SplitMix64


class TestStream:
    def test_known_first_outputs_for_seed_zero(self):
        # First three outputs of the standard 64-bit split-mix sequence
        # seeded with 0; these values are fixed by the algorithm and shared
        # by every conforming implementation.
        stream = SplitMix64(0)
        assert stream.next_u64() == 0xE220A8397B1DCDAF
        assert stream.next_u64() == 0x6E789E6AA1B965F4
        assert stream.next_u64() == 0x06C45D188009454F

    def test_determinism_and_seed_sensitivity(self):
        a = [SplitMix64(42).next_u64() for _ in range(5)]
        b = [SplitMix64(42).next_u64() for _ in range(5)]
        assert a == b
        assert SplitMix64(43).next_u64() != a[0]

    def test_array_draws_are_the_scalar_draws_in_stream_order(self):
        # seeds whose state additions and mixer products wrap past 2**64
        for seed in (0, 1, 2**64 - 1, 0xDEADBEEFCAFEF00D):
            scalar, array = SplitMix64(seed), SplitMix64(seed)
            expected = [scalar.uniform() for _ in range(1000)]
            drawn = [*array.uniforms(0).tolist(), *array.uniforms(1).tolist()]
            drawn += array.uniforms(999).tolist()
            assert drawn == expected
            # the stream carries on where the array left it
            assert array.next_u64() == scalar.next_u64()

    def test_seed_is_reduced_modulo_64_bits(self):
        assert SplitMix64(2**64 + 7).next_u64() == SplitMix64(7).next_u64()

    def test_uniform_range_and_mean(self):
        stream = SplitMix64(1)
        values = [stream.uniform() for _ in range(20_000)]
        assert all(0.0 <= v < 1.0 for v in values)
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.01

    def test_bernoulli_edge_cases_and_rate(self):
        stream = SplitMix64(2)
        assert not any(stream.bernoulli(0.0) for _ in range(100))
        assert all(stream.bernoulli(1.0) for _ in range(100))
        hits = sum(stream.bernoulli(0.3) for _ in range(20_000))
        assert abs(hits / 20_000 - 0.3) < 0.02

    def test_randint_bounds_and_coverage(self):
        stream = SplitMix64(3)
        draws = [stream.randint(5) for _ in range(5_000)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_poisson_moments(self):
        stream = SplitMix64(4)
        for mean in (0.5, 4.0, 20.0):
            draws = [stream.poisson(mean) for _ in range(8_000)]
            sample_mean = sum(draws) / len(draws)
            sample_var = sum((d - sample_mean) ** 2 for d in draws) / len(draws)
            # Poisson has mean == variance; allow 5 standard errors.
            tolerance = 5 * math.sqrt(mean / len(draws))
            assert abs(sample_mean - mean) < tolerance
            assert abs(sample_var - mean) < 12 * tolerance

    def test_poisson_zero_possible_for_small_mean(self):
        stream = SplitMix64(5)
        draws = [stream.poisson(0.1) for _ in range(200)]
        assert 0 in draws and all(d >= 0 for d in draws)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, 1e4, 709.0, 0.0, -1.0])
    def test_poisson_rejects_a_mean_it_cannot_sample(self, mean):
        # NaN returned 0 forever (a resampling loop never ended), and past
        # ~708 exp(-mean) underflowed, so 1e4 drew about 720
        stream = SplitMix64(6)
        with pytest.raises(ParameterError, match="poisson mean"):
            stream.poisson(mean)

    def test_poisson_samples_up_to_the_largest_mean_it_accepts(self):
        # exp(-708) is still a normal float, so 708 samples by the plain search
        reference, k = SplitMix64(7), 0
        prod = reference.uniform()
        while prod > math.exp(-708.0):
            k += 1
            prod *= reference.uniform()
        assert SplitMix64(7).poisson(708.0) == k
