"""Deterministic counter-based random number generation.

All stochastic pieces of the package (scenario synthesis, proposal
jittering, track sampling, weight init) draw from SplitMix64 so that a
seed reproduces the same stream on every platform.  The generator is a
pure 64-bit integer recurrence; floating-point values are derived from
the integer stream in a fixed way (53-bit uniforms, Box-Muller gaussians
consuming exactly two uniforms per draw, no caching).
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64: state advances by a fixed odd gamma, output is a mixed copy."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform in [low, high) with 53 bits of resolution."""
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, unbiased."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller; consumes exactly two uniforms, never caches the pair."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gauss_vector(self, dim: int, sigma: float = 1.0) -> np.ndarray:
        """``dim`` draws of ``gauss(0.0, sigma)``, bit for bit.

        The 2 * dim stream integers and the uniforms come from numpy
        ``uint64``/``float64`` passes, exact because each uniform has 53 bits.
        ``log`` and ``cos`` are taken one element at a time with ``math``, as
        ``gauss`` takes them, because numpy's round differently on some inputs;
        ``sqrt`` and the products are correctly rounded in both, in the same order.
        """
        z = np.arange(1, 2 * dim + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + 2 * dim * _GAMMA) & _MASK
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mix)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        log_u1 = np.fromiter(map(math.log, (z[0::2] + np.uint64(1)) * 2.0**-53), np.float64, dim)
        cos_u2 = np.fromiter(map(math.cos, 2.0 * math.pi * (z[1::2] * 2.0**-53)), np.float64, dim)
        return 0.0 + sigma * np.sqrt(-2.0 * log_u1) * cos_u2


def unit_vector(rng: SplitMix64, dim: int) -> np.ndarray:
    """Random direction on the unit sphere (gaussian draw, normalized)."""
    while True:
        v = rng.gauss_vector(dim)
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            return v / n
