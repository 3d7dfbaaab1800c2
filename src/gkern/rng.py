"""Deterministic random numbers with a cross-language contract.

Synthetic benchmark data must be reproducible from a single integer seed,
byte for byte, today and in five years, from Python or from a reimplementation
in another language.  General-purpose generators do not promise that: the
distribution methods of ``numpy.random`` are explicitly allowed to change
between releases.  We therefore pin one tiny, published algorithm and build
the few samplers we need on top of it:

* Core stream: **SplitMix64** (Steele, Lea & Flood, "Fast Splittable
  Pseudorandom Number Generators", OOPSLA 2014) — the exact odd-constant
  mixer used by Java's ``SplittableRandom``.
* ``uniform()``: the top 53 bits of the next word, scaled by 2**-53;
  ``uniforms(count)`` draws the next ``count`` of them as one array.
* ``poisson(mean)``: Knuth's inversion by sequential search (multiply
  uniforms until the product drops below exp(-mean)), for a mean whose
  exp(-mean) is a normal float (:func:`poisson_limit`).
* ``randint(n)``: ``floor(uniform() * n)``.  The rounding bias is below
  2**-40 for every ``n`` used here and the rule is trivial to port.

All derived draws consume the core stream in documented order, so any
implementation of SplitMix64 reproduces the data exactly.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer (larger seeds are
    reduced mod 2**64, negative seeds are two's-complemented)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` :meth:`uniform` draws, in stream order, as
        one float64 array: word ``i`` mixes state + i * gamma, and uint64
        array arithmetic wraps mod 2**64 as the scalar masks do."""
        state = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        state += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (state ^ (state >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ParameterError(f"randint bound must be positive, got {n}")
        return int(self.uniform() * n)

    def poisson(self, mean: float) -> int:
        """Poisson sample via inversion by sequential search."""
        limit = poisson_limit(mean)
        k = 0
        prod = self.uniform()
        while prod > limit:
            k += 1
            prod *= self.uniform()
        return k


def poisson_limit(mean: float) -> float:
    """``exp(-mean)``, where :meth:`SplitMix64.poisson` stops multiplying.

    The search needs a positive mean whose ``exp(-mean)`` is a normal
    float (a mean up to about 708): past that it underflows and the
    sample stops early, and a NaN mean never stops a resampling loop.
    Any other mean raises :class:`ParameterError`.
    """
    if not 0 < mean < math.inf:
        raise ParameterError(f"poisson mean must be positive and finite, got {mean}")
    limit = math.exp(-mean)
    if limit < sys.float_info.min:
        raise ParameterError(
            f"poisson mean {mean} is too large: exp(-mean) = {limit:.3g} is not a normal float"
        )
    return limit
