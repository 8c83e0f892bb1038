"""Host-speed reference for the end-to-end timings.

The benchmark was tuned on a shared 2-CPU virtual machine whose speed swings
by up to 1.8x over seconds to minutes, with wall time and CPU time in step.
A fixed pure-Python loop timed alone in 25 s windows spread by 0.20 (mean)
to 0.32 (median) quartile distance over median there, more than any bound a
regression gate can use.  So the runner times this loop between operations
and scales every end-to-end timing by ``NOMINAL_S / local reference time``:
a figure reads as it would on the host at its nominal speed.  The loop
never calls the package, so a change to the package cannot move it.

The work resembles the package's hot loops: composing permutation tuples
and testing membership in a frozenset, then building a set of tuples and
doing arithmetic over their entries.  With a second process loading the
other CPU, latencies scaled by this mix varied less within each kind of
operation, on decode and on profile, than latencies scaled
by the composition loop alone.
"""

from __future__ import annotations

import statistics
import time

import inputs

# reference time of one sample on a quiet host (2-CPU x86-64 VM, CPython
# 3.11); it only fixes the scale of the normalised figures
NOMINAL_S = 0.00042
# reference points on each side of an operation's bracket that set its
# slowdown; three gave the steadiest figures on profile's long jobs
WINDOW = 3
# least share of an operation's time spent on the reference point after it
SHARE = 0.05

_rng = inputs.Stream(0, "reference")
_WORDS = tuple(_rng.perm(9) for _ in range(300))
_MEMBERS = frozenset(_WORDS[::3])
_PIVOT = _rng.perm(9)
_KEYS = tuple(_rng.perm(8) for _ in range(500))


def _work() -> int:
    # tuple composition with frozenset membership, as in reconstruct ...
    hits = 0
    for w in _WORDS:
        if tuple(_PIVOT[v] for v in w) in _MEMBERS:
            hits += 1
    # ... and a set built from tuples with arithmetic over their entries,
    # as in ball growth and ranking
    seen = set(_KEYS)
    for p in _KEYS:
        if p in seen:
            code = 0
            for v in p:
                code = code * 8 + v
            hits ^= code
    return hits


def sample() -> float:
    """Seconds for one pass of the reference loop.  A first, untimed pass
    brings its data back into cache, so the operation just timed, whatever
    memory it touched, does not change the figure."""
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def point(latency: float = 0.0) -> float:
    """Median reference time over at least one sample and at least SHARE
    of the operation just timed."""
    samples = [sample()]
    while sum(samples) < SHARE * latency:
        samples.append(sample())
    return statistics.median(samples)


def local_speeds(refs: list[float], count: int) -> list[float]:
    """Slowdown factor for each of ``count`` operations.

    ``refs`` has count + 1 points: refs[i] was taken just before operation
    i and refs[i + 1] just after it.  Each factor is the median of the
    points within WINDOW of the operation's bracket, over NOMINAL_S."""
    return [
        statistics.median(refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW]) / NOMINAL_S
        for i in range(count)
    ]


def speed_now() -> float:
    """Slowdown factor from seven samples taken now."""
    return statistics.median(sample() for _ in range(7)) / NOMINAL_S
