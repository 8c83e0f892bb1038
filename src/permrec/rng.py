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

The channel reads one stream per pattern draw, so ``channel_draws`` runs 64
of those streams side by side in one int: lane l is bits 128l..128l+127,
and its 64-bit state sits in the low half.  A product of a lane by a 64-bit
constant fits in 128 bits, so each step of the mix (shift and xor, multiply,
mask every lane to its low half) acts on all 64 lanes at once, and one
``struct`` unpack reads their outputs.
"""

from __future__ import annotations

import itertools
import struct

_MASK = (1 << 64) - 1
_SPAN = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15

_LANES = 64
_LANE_MASK = sum(_MASK << 128 * lane for lane in range(_LANES))
_LANE_ONES = sum(1 << 128 * lane for lane in range(_LANES))
_LANE_GAMMA = _GAMMA * _LANE_ONES
_LANE_STEPS = sum(lane * _GAMMA << 128 * lane for lane in range(_LANES))
_read_lanes = struct.Struct("<" + "Q8x" * _LANES).unpack
# past every diameter up to degree 12 (66, adjacent swaps); a batch holds
# _LANES times a draw's outputs, so larger budgets read their streams lazily
_LANE_MAX_ERRORS = 256


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _mix_lanes(z: int) -> int:
    """``_mix`` of every lane; the mask drops what a shift brings down
    from the lane above."""
    z = (z ^ z >> 30 & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = (z ^ z >> 27 & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    return z ^ z >> 31 & _LANE_MASK


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
            # one step and _mix, inlined: a stream's draws call this per output
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


def _stream_draw(stream: SplitMix64, errors: int, k: int, exact: bool):
    """One channel draw read from its stream: the error count (``errors``
    itself in exact mode), then that many generator indices below k."""
    for _ in range(errors if exact else stream.below(errors + 1)):
        yield stream.below(k)


def channel_draws(seed: int, errors: int, k: int, exact: bool = False, start: int = 0):
    """The channel's draws at indices start, start+1, ...: for each, the
    generator indices that ``SplitMix64(derive_seed(seed, index))`` gives
    when read as the error count (``below(errors + 1)``, or ``errors`` in
    exact mode) and then that many ``below(k)``, for k >= 1.

    Up to ``_LANE_MAX_ERRORS`` errors the draws come in batches of 64 lanes
    (see the module docstring), as tuples.  A lane with an output at or
    past a bound's rejection limit is read again from its own stream, so
    every draw equals its scalar reading.  Past that budget each draw is
    read lazily from its own stream."""
    if errors > _LANE_MAX_ERRORS:
        return (
            _stream_draw(SplitMix64(derive_seed(seed, index)), errors, k, exact)
            for index in itertools.count(start)
        )
    return _lane_draws(seed, errors, k, exact, start)


def _lane_draws(seed: int, errors: int, k: int, exact: bool, start: int):
    bound = errors + 1
    count_limit = _SPAN - _SPAN % bound
    index_limit = _SPAN - _SPAN % k
    for first in itertools.count(start, _LANES):
        # lane l: the state (seed + (first + l + 1) * gamma) that
        # derive_seed mixes into the stream seed of draw first + l
        state = (seed + (first + 1) * _GAMMA & _MASK) * _LANE_ONES + _LANE_STEPS
        seeds = state = _mix_lanes(state & _LANE_MASK)
        redo = set()
        if exact:
            counts = [errors] * _LANES
        else:
            state = state + _LANE_GAMMA & _LANE_MASK
            out = _read_lanes(_mix_lanes(state).to_bytes(16 * _LANES, "little"))
            if max(out) >= count_limit:
                redo.update(lane for lane, z in enumerate(out) if z >= count_limit)
            counts = [z % bound for z in out]
        rows = []
        for _ in range(max(counts)):
            state = state + _LANE_GAMMA & _LANE_MASK
            out = _read_lanes(_mix_lanes(state).to_bytes(16 * _LANES, "little"))
            if max(out) >= index_limit:
                redo.update(lane for lane, z in enumerate(out) if z >= index_limit)
            rows.append([z % k for z in out])
        # lane l's draw: the first counts[l] of its indices
        draws = [col[:c] for col, c in zip(zip(*rows), counts)] if rows else [()] * _LANES
        if redo:
            streams = _read_lanes(seeds.to_bytes(16 * _LANES, "little"))
            for lane in redo:
                draws[lane] = tuple(_stream_draw(SplitMix64(streams[lane]), errors, k, exact))
        yield from draws
