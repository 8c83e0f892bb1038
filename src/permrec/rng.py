"""Deterministic 64-bit random generator (splitmix64).

Experiments must replay bit-exactly across platforms and interpreter
versions, so the generator is pinned to the splitmix64 algorithm
(Steele, Lea & Flood's SplittableRandom finalizer): state advances by the
odd constant 0x9E3779B97F4A7C15 and each output is the mix

    z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

with all arithmetic modulo 2^64.  Bounded draws use rejection sampling, so
they are exactly uniform: ``below(bound)`` takes the first output under the
largest multiple of ``bound`` that fits in 2^64 and reduces it modulo
``bound``.  This module is the only splitmix64 code in the package; the
channel's pattern draws and the experiments' sources all come from it.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_SPAN = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Stable per-stream seed for (seed, index), e.g. one stream per trial:
    the first output of the stream seeded with ``seed + index * gamma``."""
    return _mix((seed + (index + 1) * _GAMMA) & _MASK)


class SplitMix64:
    """Sequential splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        # a bound of 2^64 rejects and reduces nothing
        return self.below(_SPAN)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), for 0 < bound <= 2^64."""
        if not 0 < bound <= _SPAN:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        limit = _SPAN - _SPAN % bound
        while True:
            # one step and _mix, inlined: pattern draws call this per error
            z = self._state = (self._state + _GAMMA) & _MASK
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
            z ^= z >> 31
            if z < limit:
                return z % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
