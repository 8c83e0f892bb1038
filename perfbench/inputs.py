"""Seeded inputs for the benchmark, built without importing permrec.

The package only ever receives the sources, patterns and seeds made here,
so a change to the package's own channel or random generator cannot change
what the benchmark feeds it.  Everything is derived from (seed, label)
through SHA-256 and a splitmix64 stream, and every collection is sorted
before it is sampled, so the same seed gives the same inputs on any
interpreter and under any hash seed.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property

_MASK = (1 << 64) - 1


class Stream:
    """splitmix64 stream keyed by (seed, label)."""

    def __init__(self, seed: int, label: str):
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        self._state = int.from_bytes(digest[:8], "little")

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next64()
            if v < limit:
                return v % bound

    def choice(self, items):
        return items[self.below(len(items))]

    def sample(self, items, k: int) -> list:
        """k distinct items, by partial Fisher-Yates on a copy."""
        pool = list(items)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def perm(self, n: int) -> tuple[int, ...]:
        return tuple(self.sample(range(n), n))


def swap_pairs(kind: str, n: int) -> list[tuple[int, int]]:
    """Position pairs of the three transposition families."""
    if kind == "T":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "t":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "st":
        return [(0, i) for i in range(1, n)]
    raise ValueError(f"unknown generator kind {kind!r}")


def generators(kind: str, n: int) -> list[tuple[int, ...]]:
    out = []
    for i, j in swap_pairs(kind, n):
        g = list(range(n))
        g[i], g[j] = j, i
        out.append(tuple(g))
    return out


def compose(p, q) -> tuple[int, ...]:
    """Same convention as the package: compose(p, q)(k) = p(q(k))."""
    return tuple(p[v] for v in q)


def spheres(kind: str, n: int, radius: int) -> list[list[tuple[int, ...]]]:
    """Sorted spheres 0..radius around the identity, by breadth-first search
    with right multiplication by the family's transpositions."""
    pairs = swap_pairs(kind, n)
    start = tuple(range(n))
    seen = {start}
    out = [[start]]
    for _ in range(radius):
        nxt = set()
        for v in out[-1]:
            for i, j in pairs:
                w = list(v)
                w[i], w[j] = w[j], w[i]
                w = tuple(w)
                if w not in seen:
                    nxt.add(w)
        seen |= nxt
        out.append(sorted(nxt))
    return out


def digest(doc) -> str:
    """SHA-256 of a canonical JSON rendering of generated inputs."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def format_perm(p) -> str:
    return "[" + ",".join(str(v + 1) for v in p) + "]"


class BallSampler:
    """Pattern sets for one instance (kind, n, r) with a known outcome.

    ``honest`` draws m distinct patterns within distance r of the source.
    ``ambiguous`` draws them from the region shared with a neighbour
    y = x*g, so both x and y stay candidates.  ``inconsistent`` adds one
    pattern at distance r+1 to a set that already pins x, which leaves no
    candidate at all."""

    def __init__(self, kind: str, n: int, r: int):
        self.kind, self.n, self.r = kind, n, r
        self.ball = sorted(p for s in spheres(kind, n, r) for p in s)
        self.ball_set = frozenset(self.ball)
        self.gens = generators(kind, n)
        self._shared: dict[tuple[int, ...], list] = {}

    @cached_property
    def far(self) -> list:
        """The sphere at distance r+1."""
        return spheres(self.kind, self.n, self.r + 1)[-1]

    def shared(self, g) -> list:
        got = self._shared.get(g)
        if got is None:
            got = self._shared[g] = [
                w for w in self.ball if compose(g, w) in self.ball_set
            ]
        return got

    def honest(self, rng: Stream, x, m: int) -> list:
        return [compose(x, w) for w in rng.sample(self.ball, m)]

    def ambiguous(self, rng: Stream, x, m_max: int):
        """(patterns, other centre); m is drawn from 2..min(m_max, pool)."""
        g = rng.choice(self.gens)
        pool = self.shared(g)
        top = min(m_max, len(pool))
        m = 2 + rng.below(top - 1)
        return [compose(x, w) for w in rng.sample(pool, m)], compose(x, g)

    def inconsistent(self, rng: Stream, x, m: int) -> list:
        pats = self.honest(rng, x, m)
        far = compose(x, rng.choice(self.far))
        pats.insert(rng.below(len(pats) + 1), far)
        return pats
