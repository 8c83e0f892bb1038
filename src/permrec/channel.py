"""Noisy transposition channel and ball-intersection reconstructor.

The channel distorts a permutation by right-multiplying up to ``max_errors``
random generators.  The reconstructor recovers the source from several
distinct erroneous patterns as the intersection of the balls around them;
one pattern more than the graph's maximum ball overlap always suffices.
Every intersection starts from one pairwise region: B_r(p1) ∩ B_r(p2) is
p1 (B_r(e) ∩ q B_r(e)) for q = p1^-1 p2, and ``cayley._shared_region`` is
B_r(e) ∩ q B_r(e), the overlap the scans maximise.  One walk of that
region finds the candidates and, for each member dropped, the first later
pattern that drops it, so one decode gives a trial both its status and its
min-prefix diagnostic.  The adversarial pool is the region of the identity
and the overlap witness.

Error counts are uniform on 0..max_errors by default ("at most r" errors);
an exact-r mode is available since any policy staying inside the ball keeps
the reconstruction guarantee.  All randomness flows through seeded
splitmix64 streams (``rng``), so transcripts replay bit-exactly on any
platform.  The order of the draws is the contract a transcript replays:

* trial t of ``run_experiment`` draws its source's rank below n! from the
  stream ``derive_seed(seed, t)``, and an adversarial trial then draws its
  patterns from the same stream; an honest trial's channel seed is
  ``derive_seed(seed, 2t + 1)``;
* pattern draw i of a channel has its own stream
  ``derive_seed(channel seed, i)``, which gives the error count first (not
  drawn in exact mode) and then one generator index per error;
* if the draws stall, the ball is shuffled by the stream
  ``derive_seed(channel seed, 2^32)``.

``rng.channel_draws`` reads the pattern streams 64 at a time, and every
draw equals its own stream's scalar reading, so this order is the whole
contract.  Pattern generation runs on the packed form and converts once at
the end; ``distort`` is one of its draws with tuples in and out, and
computes a whole batch of 64 draws for that one.

The overlap maximum, which fixes the default pattern count and the
adversarial pool, comes from ``cayley.overlap_of_identity``, so one process
scans it at most once per (generator set, radius).

Patterns, sources and candidates are permutation tuples at every public
boundary; the ball intersections run on the packed form of ``perms`` and
sort before converting back, so no output depends on set iteration order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import factorial

from .cayley import (
    GeneratorSet,
    _shared_region,
    ball_of_identity,
    ball_size,
    overlap_of_identity,
    witness_vertices,
)
from .perms import (
    IDENT,
    PAD,
    Perm,
    format_perm,
    identity,
    left_inverse_table,
    left_table,
    pack,
    translated,
    unpack,
    unrank,
)
from .rng import SplitMix64, channel_draws, derive_seed

STATUS_UNIQUE = "unique"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class ChannelSpec:
    """Distortion channel: generator set, error budget, seeded randomness.

    ``exact_errors`` switches the error count from uniform on 0..max_errors
    to always exactly max_errors."""

    gen: GeneratorSet
    max_errors: int
    seed: int
    exact_errors: bool = False

    def __post_init__(self):
        if self.max_errors < 0:
            raise ValueError(f"max_errors must be >= 0, got {self.max_errors}")


def _draws(x: bytes, spec: ChannelSpec, start: int = 0):
    """The channel's outputs for packed x at draw indices start, start+1,
    ... in packed form.

    Each draw has its own stream ``SplitMix64(derive_seed(seed, index))``
    and takes from it, in order, the error count j (uniform on
    0..max_errors, not drawn in exact mode) and then one generator index
    per error; ``rng.channel_draws`` reads those streams 64 at a time.  The
    output is x times those j generators on the right; the product y*g is
    ``g.translate(left_table(y))``."""
    if len(x) != spec.gen.n:
        raise ValueError("degree mismatch between input and channel")
    gens = spec.gen.packed
    pad = PAD[len(x)]
    for indices in channel_draws(spec.seed, spec.max_errors, len(gens), spec.exact_errors, start):
        y = x
        for i in indices:
            y = gens[i].translate(y + pad)  # y + pad is left_table(y)
        yield y


def distort(x: Perm, spec: ChannelSpec, draw_index: int = 0) -> Perm:
    """One channel use: apply j random generators to x, where j is uniform
    on 0..max_errors (or exactly max_errors).  Deterministic in
    (seed, draw_index): it is draw ``draw_index`` of ``generate_patterns``.
    It computes the whole batch of 64 draws that starts there and keeps
    the first."""
    return unpack(next(_draws(pack(x), spec, draw_index)))


def generate_patterns(x: Perm, spec: ChannelSpec, m: int) -> list[Perm]:
    """m distinct channel outputs for source x, all within distance
    max_errors: draws 0, 1, 2, ... (see ``distort``), repeats dropped.

    If rejection stalls (tiny balls), the full ball is enumerated and
    shuffled by the stream ``derive_seed(seed, 2^32)`` so progress is
    guaranteed.  Asking for more distinct patterns than the ball holds is
    an error, raised by the ball's closed-form size before any draw."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    size = ball_size(spec.gen, spec.max_errors)
    if m > size:
        raise ValueError(f"requested {m} distinct patterns but the ball has only {size}")
    out: list[bytes] = []
    seen: set[bytes] = set()
    for y in itertools.islice(_draws(pack(x), spec), max(60 * m, 600)):
        if y not in seen:
            seen.add(y)
            out.append(y)
            if len(out) == m:
                return list(map(unpack, out))
    members = ball_of_identity(spec.gen, spec.max_errors).packed
    ball_list = sorted(translated(members, left_table(pack(x))))
    SplitMix64(derive_seed(spec.seed, 1 << 32)).shuffle(ball_list)
    out += [y for y in ball_list if y not in seen][: m - len(out)]
    return list(map(unpack, out))


@dataclass(frozen=True)
class ReconstructionResult:
    candidates: tuple[Perm, ...]
    status: str
    patterns_used: int

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "candidates": [format_perm(c) for c in self.candidates],
            "patterns_used": self.patterns_used,
        }


def reconstruct(patterns, r: int, gen: GeneratorSet) -> ReconstructionResult:
    """Candidates = intersection of the radius-r balls around the patterns,
    which may be permutation tuples or packed records; one that is not a
    permutation raises ``ValueError``.  Only the region the first two balls
    share is walked (see the module docstring).  An empty intersection is
    the first-class 'inconsistent' status, not an error."""
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern")
    if any(len(p) != gen.n for p in patterns):
        raise ValueError("pattern degree mismatch")
    found, _ = _intersection(ball_of_identity(gen, r).packed, patterns)
    return ReconstructionResult(
        tuple(map(unpack, sorted(found))), _status(len(found)), len(patterns)
    )


def _status(count: int) -> str:
    """The verdict on an intersection of ``count`` members."""
    return STATUS_UNIQUE if count == 1 else STATUS_AMBIGUOUS if count else STATUS_INCONSISTENT


def _intersection(members: frozenset[bytes], patterns: list) -> tuple[list[bytes], int]:
    """The packed members of every pattern's ball, and the largest i such
    that pattern i is the first to miss some member of B_r(p1) ∩ B_r(p2)
    (0 if none is).  Only that region, or all of B_r(p1) for one pattern,
    is walked; ``members`` is the packed B_r(e).  A pattern that is not a
    permutation raises before the walk."""
    packed = list(map(pack, patterns))
    tables = list(map(left_inverse_table, packed))
    # y is a permutation iff no byte of it is n or more and y^-1 y = e
    e = IDENT[len(packed[0])]
    unit = b"".join(map(bytes.translate, packed, tables))
    if b"".join(packed).translate(None, e) or unit != e * len(packed):
        raise ValueError("a pattern is not a permutation")
    region = members
    if len(packed) > 1:
        region = _shared_region(members, packed[1].translate(tables[0]))
    later = tables[2:]
    found, last_miss = [], 0
    for z in translated(region, left_table(packed[0])):
        for i, t in enumerate(later, start=3):
            if z.translate(t) not in members:
                if i > last_miss:
                    last_miss = i
                break
        else:
            found.append(z)
    return found, last_miss


def ambiguity_witness(gen: GeneratorSet, r: int) -> tuple[Perm, Perm, list[Perm]]:
    """A pair of centers attaining the overlap maximum plus the full shared
    pattern set: feeding those patterns to the reconstructor leaves both
    centers as candidates, so the threshold cannot be lowered."""
    best = overlap_of_identity(gen, r)
    # the first attaining vertex at the first attaining distance
    other = witness_vertices(gen, best.per_s[best.best_s[0] - 1])[0]
    shared = _shared_region(ball_of_identity(gen, r).packed, pack(other))
    return identity(gen.n), other, list(map(unpack, sorted(shared)))


def _sample_distinct(rng: SplitMix64, items: list, m: int) -> list:
    """m distinct items by partial Fisher-Yates on a copy."""
    pool = list(items)
    for i in range(m):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    source: Perm
    patterns: tuple[Perm, ...]
    status: str
    candidate_count: int
    min_unique_m: int | None

    def to_doc(self) -> dict:
        return {
            "trial": self.trial,
            "source": format_perm(self.source),
            "patterns": [format_perm(p) for p in self.patterns],
            "status": self.status,
            "candidates": self.candidate_count,
            "min_unique_m": self.min_unique_m,
        }


@dataclass(frozen=True)
class ExperimentSummary:
    gen_kind: str
    n: int
    r: int
    trials: int
    m: int
    threshold: int
    seed: int
    adversarial: bool
    unique: int
    ambiguous: int
    inconsistent: int
    min_unique_m_max: int | None
    min_unique_m_mean: float | None
    records: tuple[TrialRecord, ...]

    @property
    def unique_rate(self) -> float:
        return self.unique / self.trials if self.trials else 0.0

    def to_doc(self) -> dict:
        return {
            "generator_kind": self.gen_kind,
            "n": self.n,
            "r": self.r,
            "trials": self.trials,
            "m": self.m,
            "threshold": self.threshold,
            "seed": self.seed,
            "adversarial": self.adversarial,
            "unique": self.unique,
            "ambiguous": self.ambiguous,
            "inconsistent": self.inconsistent,
            "unique_rate": self.unique_rate,
            "min_unique_m_max": self.min_unique_m_max,
            "min_unique_m_mean": self.min_unique_m_mean,
        }


def run_experiment(
    gen: GeneratorSet,
    r: int,
    trials: int,
    seed: int,
    m: int | None = None,
    adversarial: bool = False,
    exact_errors: bool = False,
) -> ExperimentSummary:
    """Seeded reconstruction trials.

    Each trial draws a random source, generates m distinct patterns and
    reconstructs; m defaults to one more than the measured overlap maximum.
    In adversarial mode the patterns come only from a maximal shared region,
    which holds exactly the overlap maximum, so m defaults to that maximum
    and every trial demonstrates ambiguity.  Per-trial streams are derived
    from (seed, trial), so a transcript depends only on its arguments.

    One walk per trial gives the decode and a unique trial's
    ``min_unique_m``, the least k whose first k patterns pin the source:
    each other member of the first ball is dropped by a first pattern i,
    so that is 2 (1 if the ball is one vertex) or the largest such i."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if adversarial:
        # the region of e and the overlap witness holds the overlap maximum
        shared = list(map(pack, ambiguity_witness(gen, r)[2]))
        threshold = len(shared)
    else:
        threshold = overlap_of_identity(gen, r).value
    if m is None:
        m = threshold if adversarial else threshold + 1
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if adversarial and m > threshold:
        raise ValueError(f"adversarial pool has {threshold} patterns, need {m}")
    members = ball_of_identity(gen, r).packed
    records = []
    for trial in range(trials):
        rng = SplitMix64(derive_seed(seed, trial))
        source = unrank(gen.n, rng.below(factorial(gen.n)))
        if adversarial:
            # translate the witness pair by the source and draw patterns
            # only from the region their balls share
            pool = sorted(translated(shared, left_table(pack(source))))
            patterns = list(map(unpack, _sample_distinct(rng, pool, m)))
        else:
            spec = ChannelSpec(
                gen, r, derive_seed(seed, (trial << 1) + 1), exact_errors=exact_errors
            )
            patterns = generate_patterns(source, spec, m)
        found, last_miss = _intersection(members, patterns)
        if not adversarial and pack(source) not in found:
            raise AssertionError("honest source fell outside the candidate set")
        status = _status(len(found))
        min_unique = (max(last_miss, 2 if len(members) > 1 else 1)
                      if status == STATUS_UNIQUE else None)
        records.append(TrialRecord(trial, source, tuple(patterns), status,
                                   len(found), min_unique))
    counts = Counter(t.status for t in records)
    mins = [t.min_unique_m for t in records if t.min_unique_m is not None]
    return ExperimentSummary(
        gen_kind=gen.kind,
        n=gen.n,
        r=r,
        trials=trials,
        m=m,
        threshold=threshold,
        seed=seed,
        adversarial=adversarial,
        unique=counts[STATUS_UNIQUE],
        ambiguous=counts[STATUS_AMBIGUOUS],
        inconsistent=counts[STATUS_INCONSISTENT],
        min_unique_m_max=max(mins) if mins else None,
        min_unique_m_mean=(sum(mins) / len(mins)) if mins else None,
        records=tuple(records),
    )
