"""Noisy transposition channel and ball-intersection reconstructor.

The channel distorts a permutation by right-multiplying up to ``max_errors``
random generators.  The reconstructor recovers the source from several
distinct erroneous patterns as the intersection of the balls around them;
one pattern more than the graph's maximum ball overlap always suffices.

Error counts are uniform on 0..max_errors by default ("at most r" errors);
an exact-r mode is available since any policy staying inside the ball keeps
the reconstruction guarantee.  All randomness flows through seeded
splitmix64 streams (one per draw / per trial), so transcripts replay
bit-exactly on any platform.

The overlap maximum, which fixes the default pattern count and the
adversarial pool, comes from ``cayley.overlap_of_identity``, so one process
scans it at most once per (generator set, radius).

Patterns, sources and candidates are permutation tuples at every public
boundary; the ball intersections run on the packed form of ``perms`` and
sort before converting back, so no output depends on set iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .cayley import (
    Budgets,
    DEFAULT_BUDGETS,
    GeneratorSet,
    ball_of_identity,
    overlap_of_identity,
)
from .perms import (
    Perm,
    compose,
    format_perm,
    identity,
    left_inverse_table,
    left_table,
    pack,
    parse_perm,
    translated,
    unpack,
    unrank,
)
from .rng import SplitMix64, derive_seed

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


def distort(x: Perm, spec: ChannelSpec, draw_index: int = 0) -> Perm:
    """One channel use: apply j random generators to x, where j is uniform
    on 0..max_errors (or exactly max_errors).  Deterministic in
    (seed, draw_index)."""
    if len(x) != spec.gen.n:
        raise ValueError("degree mismatch between input and channel")
    rng = SplitMix64(derive_seed(spec.seed, draw_index))
    if spec.exact_errors:
        j = spec.max_errors
    else:
        j = rng.below(spec.max_errors + 1)
    y = x
    for _ in range(j):
        y = compose(y, rng.choice(spec.gen.gens))
    return y


def generate_patterns(
    x: Perm,
    spec: ChannelSpec,
    m: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> list[Perm]:
    """m distinct channel outputs for source x, all within distance
    max_errors.

    Repeated draws are rejected; if rejection stalls (tiny balls), the full
    ball is enumerated and deterministically shuffled so progress is
    guaranteed.  Asking for more distinct patterns than the ball holds is
    an error."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    out: list[Perm] = []
    seen: set[Perm] = set()
    draw = 0
    max_draws = max(60 * m, 600)
    while len(out) < m and draw < max_draws:
        y = distort(x, spec, draw)
        draw += 1
        if y not in seen:
            seen.add(y)
            out.append(y)
    if len(out) < m:
        members = ball_of_identity(spec.gen, spec.max_errors, budgets).packed
        ball_list = list(map(unpack, sorted(translated(members, left_table(pack(x))))))
        if m > len(ball_list):
            raise ValueError(
                f"requested {m} distinct patterns but the ball has only "
                f"{len(ball_list)}"
            )
        rng = SplitMix64(derive_seed(spec.seed, 1 << 32))
        rng.shuffle(ball_list)
        for y in ball_list:
            if len(out) == m:
                break
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


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


def reconstruct(
    patterns,
    r: int,
    gen: GeneratorSet,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ReconstructionResult:
    """Candidates = intersection of the radius-r balls around the patterns.

    Only one ball is materialized (they all have equal size, so the first
    pattern serves); the rest of the intersection is distance filtering via
    membership in the identity ball: z lies in B_r(y) iff y^-1 z does in
    B_r(e).  An empty intersection is the first-class 'inconsistent'
    status, not an error."""
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern")
    if any(len(p) != gen.n for p in patterns):
        raise ValueError("pattern degree mismatch")
    members = ball_of_identity(gen, r, budgets).packed
    first, *rest = map(pack, patterns)
    found = _survivors(
        translated(members, left_table(first)),
        [left_inverse_table(y) for y in rest],
        members,
    )
    candidates = tuple(map(unpack, sorted(found)))
    if len(candidates) == 1:
        status = STATUS_UNIQUE
    elif candidates:
        status = STATUS_AMBIGUOUS
    else:
        status = STATUS_INCONSISTENT
    return ReconstructionResult(candidates, status, len(patterns))


def _survivors(pool, tables, members: frozenset[bytes]):
    """The packed z of ``pool`` that every table in ``tables`` maps into
    ``members``, lazily and in pool order.  With the tables of the inverse
    patterns, these are the z inside every pattern's ball."""
    for z in pool:
        for t in tables:
            if z.translate(t) not in members:
                break
        else:
            yield z


def _subset_is_unique(
    members: frozenset[bytes], patterns: list[bytes], source: bytes
) -> bool:
    """True if the packed patterns pin down a single candidate (which must
    then be the source).  Fast path for sharpness sweeps: intersect two
    translated balls, then filter survivors with early abort."""
    y1, y2 = patterns[0], patterns[1] if len(patterns) > 1 else patterns[0]
    pool = set(translated(members, left_table(y1)))
    pool.intersection_update(translated(members, left_table(y2)))
    pool.discard(source)
    rest = [left_inverse_table(y) for y in patterns[2:]]
    return next(_survivors(pool, rest, members), None) is None


def ambiguity_witness(
    gen: GeneratorSet,
    r: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[Perm, Perm, list[Perm]]:
    """A pair of centers attaining the overlap maximum plus the full shared
    pattern set: feeding those patterns to the reconstructor leaves both
    centers as candidates, so the threshold cannot be lowered."""
    best = overlap_of_identity(gen, r, budgets)
    s = best.best_s[0]
    label = best.witnesses[s][0]
    if gen.kind == "T":
        from .perms import class_representative, parse_cycle_type

        other = class_representative(parse_cycle_type(label))
    else:
        other = parse_perm(label)
    members = ball_of_identity(gen, r, budgets).packed
    shared = _survivors(members, [left_inverse_table(pack(other))], members)
    return identity(gen.n), other, list(map(unpack, sorted(shared)))


def exhaustive_threshold_check(
    gen: GeneratorSet,
    r: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """Try every subset of threshold size from the identity ball and count
    how many fail to reconstruct uniquely (the guarantee says none do)."""
    threshold = overlap_of_identity(gen, r, budgets).value + 1
    members = ball_of_identity(gen, r, budgets).packed
    source = pack(identity(gen.n))
    failures = 0
    for subset in combinations(sorted(members), threshold):
        if not _subset_is_unique(members, list(subset), source):
            failures += 1
    return failures


def sampled_threshold_check(
    gen: GeneratorSet,
    r: int,
    samples: int,
    seed: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """Same as :func:`exhaustive_threshold_check` on seeded random subsets."""
    threshold = overlap_of_identity(gen, r, budgets).value + 1
    members = ball_of_identity(gen, r, budgets).packed
    ball_list = sorted(members)
    source = pack(identity(gen.n))
    rng = SplitMix64(seed)
    failures = 0
    for _ in range(samples):
        picks = _sample_distinct(rng, ball_list, threshold)
        if not _subset_is_unique(members, picks, source):
            failures += 1
    return failures


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


def _min_prefix_for_unique(members: frozenset[bytes], patterns: list[Perm]) -> int:
    first, *rest = map(pack, patterns)
    cands = set(translated(members, left_table(first)))
    if len(cands) == 1:
        return 1
    for i, y in enumerate(rest, start=2):
        cands = set(_survivors(cands, [left_inverse_table(y)], members))
        if len(cands) == 1:
            return i
    return len(patterns)


def run_experiment(
    gen: GeneratorSet,
    r: int,
    trials: int,
    seed: int,
    m: int | None = None,
    adversarial: bool = False,
    exact_errors: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExperimentSummary:
    """Seeded reconstruction trials.

    Each trial draws a random source, generates m distinct patterns and
    reconstructs; m defaults to one more than the measured overlap maximum.
    In adversarial mode the patterns come only from a maximal shared region,
    which holds exactly the overlap maximum, so m defaults to that maximum
    and every trial demonstrates ambiguity.  Per-trial streams are derived
    from (seed, trial), so a transcript depends only on its arguments."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    shared = None
    if adversarial:
        # the identity-centered region shared with the maximal-overlap
        # witness; it holds exactly the overlap maximum
        shared = ambiguity_witness(gen, r, budgets)[2]
        threshold = len(shared)
    else:
        threshold = overlap_of_identity(gen, r, budgets).value
    if m is None:
        m = threshold if adversarial else threshold + 1
    if adversarial and m > threshold:
        raise ValueError(f"adversarial pool has {threshold} patterns, need {m}")
    members = ball_of_identity(gen, r, budgets).packed
    records = []
    for trial in range(trials):
        rng = SplitMix64(derive_seed(seed, trial))
        source = unrank(gen.n, rng.below(factorial(gen.n)))
        if adversarial:
            # translate the witness pair by the source and draw patterns
            # only from the region their balls share
            pool = sorted(compose(source, z) for z in shared)
            patterns = _sample_distinct(rng, pool, m)
        else:
            spec = ChannelSpec(
                gen, r, derive_seed(seed, (trial << 1) + 1), exact_errors=exact_errors
            )
            patterns = generate_patterns(source, spec, m, budgets)
        result = reconstruct(patterns, r, gen, budgets)
        if not adversarial and source not in result.candidates:
            raise AssertionError("honest source fell outside the candidate set")
        min_unique = None
        if result.status == STATUS_UNIQUE:
            min_unique = _min_prefix_for_unique(members, patterns)
        records.append(TrialRecord(
            trial=trial,
            source=source,
            patterns=tuple(patterns),
            status=result.status,
            candidate_count=len(result.candidates),
            min_unique_m=min_unique,
        ))
    unique = sum(1 for t in records if t.status == STATUS_UNIQUE)
    ambiguous = sum(1 for t in records if t.status == STATUS_AMBIGUOUS)
    inconsistent = trials - unique - ambiguous
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
        unique=unique,
        ambiguous=ambiguous,
        inconsistent=inconsistent,
        min_unique_m_max=max(mins) if mins else None,
        min_unique_m_mean=(sum(mins) / len(mins)) if mins else None,
        records=tuple(records),
    )
