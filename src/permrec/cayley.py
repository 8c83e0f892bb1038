"""Metric engine for Cayley graphs of the symmetric group.

Covers the paper's three transposition families (all transpositions,
adjacent swaps, prefix swaps), each of which generates the whole group, so
a walk from the identity reaches every permutation; a non-permutation
argument raises ``ValueError`` before any walk.  Provides spheres, balls,
distances, ball-intersection maxima, triangle/common-neighbor parameters,
local parameters, diameters, distance-regularity and small-subgraph checks.

Vertices are permutations; edges join x to x*s for generators s.
Left translation is an automorphism, so distances satisfy
d(x, y) = d(e, inverse(x)*y) and every ball is a translate of a ball around
the identity; the engine leans on this throughout.

* :func:`distance`, :func:`local_params` and :func:`diameter` evaluate each
  family's closed forms and never walk.  The distance from the identity is
  n minus the number of cycles for all transpositions (Cayley), the
  inversion count for adjacent swaps, and Akers and Krishnamurthy's
  m + c - 2[p(0) != 0] for prefix swaps (m moved points, c cycles of length
  two or more).  The diameter, its maximum, is n - 1 (an n-cycle), n(n-1)/2
  (the reversal) and Akers and Krishnamurthy's floor(3(n-1)/2);
* balls, spheres and the whole-graph queries (:func:`bfs_levels`,
  :func:`is_distance_regular`) come from one breadth-first level expansion
  around the identity, which keeps only three levels in hand because the
  graph is undirected.  The whole-graph queries are capped at degree
  ``WHOLE_GRAPH_MAX_N``, and only :func:`bfs_levels` keeps every level;
* :func:`class_walk` walks the all-transpositions graph one conjugacy
  class at a time instead, one representative per class, at every degree;
* each generator is a transposition, an odd permutation, so every edge
  flips the sign and no cycle has odd length: :func:`girth_cycle_check`
  answers odd lengths without a search;
* the overlap maxima of all transpositions build no ball at all.  There
  B_r(e) is a union of conjugacy classes, so the overlap is constant on
  each class and comes from the character table of S_n (the
  Murnaghan-Nakayama rule, memoized per degree), at every radius;
* the overlap scan of prefix swaps builds no ball but the radius-r one.
  It scans one vertex per orbit of the automorphisms that fix the
  identity, the cycle types with the length of the cycle through 0 (Akers
  and Krishnamurthy's automorphisms of the star graph), and enumerates no
  sphere;
* the overlap profile of adjacent swaps comes from one self-convolution of
  the radius-r ball: counting the products of its pairs gives every
  vertex's overlap at distance 1..2r at once, from B_r alone.

The capacity caps are module constants: ``MAX_BALL_SIZE`` vertices held
at once, degree ``WHOLE_GRAPH_MAX_N`` for a whole-graph sweep and
``MAX_CYCLE_SEARCH`` estimated paths for a cycle search.  Exceeding one
raises ``CapacityError`` instead of thrashing.  Every check reads the
constant when it runs, before the work it guards, on sizes by closed
form: a ball's sphere sizes (class sizes, orbit sizes and the Mahonian
numbers) before the walk, the radius-r ball before a prefix-swap overlap
scan at radius r and the radius-2r ball, whose vertices the convolution
counts, before an adjacent-swap one, and the witnesses' orbit sizes
before :func:`witness_vertices` expands them.  An all-transpositions
overlap profile holds no vertex set, only one value per class (77
classes at degree 12), so ``MAX_BALL_SIZE`` does not bound it.  Since the
caps never vary, one memo entry per (generator set, radius) serves every
call.  Radii are capped at the diameter, past which every ball is the
whole group: :func:`ball_radius` is the one radius at which a ball or an
overlap profile is built, memoized and cached.

Every public function takes and returns permutation tuples; the
expansion and the overlap scans run on the packed form of ``perms``
instead.  Balls are packed first: a ``MetricBall`` holds its spheres as
frozensets of packed vertices, exactly as the expansion left them, and
builds the tuple views (``spheres``, ``members``) only when something asks
for them.  The hot paths (reconstruction, overlap scans, the disk cache)
never do.

The overlap maximum comes in two forms.  :func:`max_ball_intersection`
(per distance, :func:`max_ball_intersection_at`) computes it, by a scan,
a convolution or the class algebra, and is never memoized: the benchmark
times it and the tests' oracles check it.  Every caller in the package reads
:func:`overlap_of_identity`, the same answer memoized per (generator set,
ball radius), as :func:`ball_of_identity` memoizes :func:`ball`.

The overlap witnesses are vertices, as permutation tuples, which the disk
cache stores packed: an all-transpositions profile keeps one
representative per attaining class, a prefix-swap profile one per
attaining orbit, in scan order, and an adjacent-swap profile every
attaining vertex, sorted.  Only where a witness is printed or used
(``GraphReport.to_doc``, ``channel.ambiguity_witness``) does
:func:`witness_vertices` expand the prefix-swap orbits into the vertices
they stand for, and only at the distances that attain the maximum.
:func:`witness_label` names a vertex where text is written (the
conjugacy class for all transpositions, the vertex otherwise); nothing
reads a label back.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, islice, starmap
from math import comb, factorial
from operator import gt, mul
from typing import NamedTuple

from .errors import CapacityError
from .parallel import run_mapped
from .perms import (
    IDENT,
    MAX_DEGREE,
    CycleType,
    Perm,
    class_representative,
    conjugacy_class_size,
    cycle_count,
    cycle_type,
    cycle_types,
    cycles,
    format_perm,
    identity,
    is_perm,
    iter_class,
    left_inverse_table,
    left_table,
    pack,
    translated,
    transposition,
    unpack,
)

KIND_ALL = "T"
KIND_ADJACENT = "t"
KIND_PREFIX = "st"
KINDS = (KIND_ALL, KIND_ADJACENT, KIND_PREFIX)


MAX_BALL_SIZE = 2_000_000
WHOLE_GRAPH_MAX_N = 8
MAX_CYCLE_SEARCH = 20_000_000


# Each family's generators as the position pairs they swap.
_SWAPS = {
    KIND_ALL: lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    KIND_ADJACENT: lambda n: [(i, i + 1) for i in range(n - 1)],
    KIND_PREFIX: lambda n: [(0, i) for i in range(1, n)],
}

# Each family's distance from the identity to p (a tuple or packed), by the
# closed forms named in the module docstring.  A cycle of length two or more
# adds its length and one to the prefix-swap sum, which is m + c.
_DISTANCE = {
    KIND_ALL: lambda p: len(p) - cycle_count(p),
    KIND_ADJACENT: lambda p: sum(starmap(gt, combinations(p, 2))),
    KIND_PREFIX: lambda p: (
        sum(len(cyc) + 1 for cyc in cycles(p) if len(cyc) > 1) - 2 * (p[0] != 0)
    ),
}

# Each family's diameter at degree n: the largest _DISTANCE value over S_n.
_DIAMETER = {
    KIND_ALL: lambda n: n - 1,
    KIND_ADJACENT: lambda n: n * (n - 1) // 2,
    KIND_PREFIX: lambda n: 3 * (n - 1) // 2,
}


def _lengths(ct: CycleType) -> tuple[int, ...]:
    """ct's cycle lengths, longest first."""
    return tuple(j for j in range(ct.degree, 0, -1) for _ in range(ct.counts[j - 1]))


@cache
def _star_orbits(n: int) -> tuple[tuple[int, bytes], ...]:
    """(distance, representative) for each orbit of S_n under
    conjugation by the permutations fixing 0, which map the prefix swaps
    onto themselves.  An orbit is a cycle type with the length L of the
    cycle through 0; its representative has that cycle on 0..L-1 and the
    others on consecutive blocks after it."""
    out = []
    for ct in cycle_types(n):
        lengths = _lengths(ct)
        for length in dict.fromkeys(lengths):
            others = list(lengths)
            others.remove(length)
            y: list[int] = []
            for j in (length, *others):
                start = len(y)
                y += range(start + 1, start + j)
                y.append(start)
            out.append((_DISTANCE[KIND_PREFIX](y), bytes(y)))
    return tuple(out)


def _star_orbit_size(y: bytes) -> int:
    """The number of vertices with y's cycle type and y's length L of the
    cycle through 0: L*h_L/n of the class, h_L being the number of
    L-cycles."""
    ct, length = cycle_type(y), len(cycles(y)[0])
    return conjugacy_class_size(ct) * length * ct.counts[length - 1] // len(y)


def _star_orbit(y: bytes) -> list[bytes]:
    """Every vertex with y's cycle type and y's length of the cycle through
    0."""
    return list(map(pack, iter_class(cycle_type(y), first=len(cycles(y)[0]))))


class _ClassTable(NamedTuple):
    """The conjugacy classes of S_n in ``cycle_types`` order: each class's
    size, its distance from the identity in the all-transpositions graph,
    its packed representative, and the character table.  Row i of
    ``characters`` is the irreducible character of the shape whose parts
    are the cycle lengths of class i; entry j is its value on class j."""

    types: tuple[CycleType, ...]
    sizes: tuple[int, ...]
    distances: tuple[int, ...]
    representatives: tuple[bytes, ...]
    characters: tuple[tuple[int, ...], ...]


@cache
def _class_characters(n: int) -> _ClassTable:
    """S_n's classes and character table, by the Murnaghan-Nakayama rule
    on beta-sets (Sagan, *The Symmetric Group*, GTM 203), in integers.

    A shape with parts λ_1 >= ... >= λ_m is the bead set {λ_i + m - i},
    held as a bitmask.  Removing a rim hook of length k moves one bead from
    b to an empty b - k, with the sign (-1)^(beads strictly between).  The
    value on a class with cycle lengths k_1 >= k_2 >= ... sums, over the
    hooks of length k_1, the sign times the value of what is left on
    k_2, ...; each (beads, lengths left) is computed once per table."""
    types = tuple(cycle_types(n))
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def value(beads: int, lengths: tuple[int, ...]) -> int:
        if not lengths:
            return 1
        got = memo.get((beads, lengths))
        if got is None:
            k, rest = lengths[0], lengths[1:]
            got = 0
            for b in range(k, beads.bit_length()):
                if beads >> b & 1 and not beads >> (b - k) & 1:
                    between = beads >> (b - k + 1) & ((1 << (k - 1)) - 1)
                    sign = -1 if between.bit_count() & 1 else 1
                    got += sign * value(beads ^ (1 << b) ^ (1 << (b - k)), rest)
            memo[(beads, lengths)] = got
        return got

    def beads(parts: tuple[int, ...]) -> int:
        m = len(parts)
        return sum(1 << (part + m - 1 - i) for i, part in enumerate(parts))

    classes = list(map(_lengths, types))
    return _ClassTable(
        types,
        tuple(map(conjugacy_class_size, types)),
        tuple(ct.min_transpositions for ct in types),
        tuple(pack(class_representative(ct)) for ct in types),
        tuple(tuple(value(beads(shape), mu) for mu in classes) for shape in classes),
    )


def _exact_quotient(num: int, den: int) -> int:
    """num / den, which the algebra says is an integer; raises
    ``ArithmeticError`` if it is not."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{num} is not a multiple of {den}")
    return q


def _class_overlaps(n: int, r: int) -> tuple[int, ...]:
    """|B_r(e) ∩ B_r(y)| in the all-transpositions graph for y in each
    class of S_n, in ``cycle_types`` order, from the character table.

    B_r(e) is a union of classes, so its indicator F is central in the
    group algebra, and the overlap at y is the coefficient of y in F²:
    N(y) = (1/n!) Σ_λ χ^λ(1) ω_λ² χ^λ(y), where
    ω_λ = Σ_{C ⊆ B_r} |C| χ^λ(C) / χ^λ(1) is F's central character
    (products in a group counted through characters, as in Zagier's
    appendix to Lando and Zvonkin).  Both quotients are integers, and each
    is checked to be one."""
    table = _class_characters(n)
    one = table.distances.index(0)
    inside = [c for c, d in enumerate(table.distances) if d <= r]
    weights = []
    for row in table.characters:
        omega = _exact_quotient(sum(table.sizes[c] * row[c] for c in inside), row[one])
        weights.append(row[one] * omega * omega)
    order = factorial(n)
    return tuple(
        _exact_quotient(sum(map(mul, weights, column)), order)
        for column in zip(*table.characters)
    )


def _check_capacity(size: int, what: str) -> None:
    """Refuse to hold ``size`` vertices past ``MAX_BALL_SIZE``."""
    if size > MAX_BALL_SIZE:
        raise CapacityError(f"{what} exceeds budget of {MAX_BALL_SIZE} vertices")


def _tally(sized) -> tuple[int, ...]:
    """Sizes per distance 0, 1, ... from (distance, size) pairs."""
    sizes = Counter()
    for d, size in sized:
        sizes[d] += size
    return tuple(sizes[d] for d in range(max(sizes) + 1))


def _mahonian(n: int) -> tuple[int, ...]:
    """The number of permutations of degree n with each inversion count:
    the coefficients of prod_{i<=n} (1 + q + ... + q^(i-1))."""
    row = [1]
    for i in range(2, n + 1):
        row = [sum(row[max(0, k - i + 1):k + 1]) for k in range(len(row) + i - 1)]
    return tuple(row)


# Each family's sphere sizes around any vertex at degree n, for distances
# 0..diameter: class sizes by distance, orbit sizes by distance, and the
# Mahonian numbers.
_SPHERE_SIZES = {
    KIND_ALL: cache(lambda n: _tally(
        (ct.min_transpositions, conjugacy_class_size(ct)) for ct in cycle_types(n)
    )),
    KIND_ADJACENT: cache(_mahonian),
    KIND_PREFIX: cache(lambda n: _tally((d, _star_orbit_size(y)) for d, y in _star_orbits(n))),
}


@dataclass(frozen=True)
class GeneratorSet:
    """All transpositions (``T``), adjacent swaps (``t``) or prefix swaps
    (``st``) of degree n: involutions generating S_n, so the Cayley graph is
    connected, undirected and k-regular.  Keyed by (kind, n) alone."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _SWAPS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not 2 <= self.n <= MAX_DEGREE:
            raise ValueError(f"graph degree must be in 2..{MAX_DEGREE}, got {self.n}")

    @classmethod
    def all_transpositions(cls, n: int) -> "GeneratorSet":
        return cls(KIND_ALL, n)

    @classmethod
    def adjacent(cls, n: int) -> "GeneratorSet":
        return cls(KIND_ADJACENT, n)

    @classmethod
    def prefix(cls, n: int) -> "GeneratorSet":
        return cls(KIND_PREFIX, n)

    @classmethod
    def of_kind(cls, kind: str, n: int) -> "GeneratorSet":
        return cls(kind, n)

    @cached_property
    def gens(self) -> tuple[Perm, ...]:
        return tuple(transposition(self.n, i, j) for i, j in _SWAPS[self.kind](self.n))

    @property
    def k(self) -> int:
        return len(self.gens)

    @cached_property
    def packed(self) -> tuple[bytes, ...]:
        """The generators in packed form, in the order of ``gens``."""
        return tuple(map(pack, self.gens))


@dataclass(frozen=True)
class MetricBall:
    """Explicit ball: all vertices within ``radius`` of ``center``, split
    into spheres by exact distance.

    ``packed_spheres`` holds the spheres in packed form; the tuple views
    are built from it on first use."""

    gen: GeneratorSet
    center: Perm
    radius: int
    packed_spheres: tuple[frozenset[bytes], ...]

    @cached_property
    def spheres(self) -> tuple[frozenset[Perm], ...]:
        return tuple(frozenset(map(unpack, sph)) for sph in self.packed_spheres)

    @cached_property
    def members(self) -> frozenset[Perm]:
        return frozenset().union(*self.spheres)

    @cached_property
    def packed(self) -> frozenset[bytes]:
        """The packed members."""
        return frozenset().union(*self.packed_spheres)

    @property
    def size(self) -> int:
        return sum(map(len, self.packed_spheres))


def _levels(start: Perm, gen: GeneratorSet):
    """Breadth-first levels around ``start``, lazily, each as a dict whose
    keys are the level's packed vertices in discovery order (by
    predecessor, then by generator); ends at the last nonempty level.

    The graph is undirected, so every neighbor of a level-d vertex lies in
    level d-1, d or d+1.  A candidate is therefore new iff it is in none of
    those three levels, and only three levels are ever held."""
    gens = gen.packed
    prev: dict[bytes, None] = {}
    cur = {pack(start): None}
    while cur:
        yield cur
        nxt: dict[bytes, None] = {}
        for v in cur:
            for w in translated(gens, left_table(v)):
                if w not in prev and w not in nxt and w not in cur:
                    nxt[w] = None
        prev, cur = cur, nxt


def _check_vertex(p: Perm, gen: GeneratorSet) -> None:
    """Reject p, before any walk, unless it is a vertex of gen's graph."""
    if len(p) != gen.n or not is_perm(p):
        raise ValueError(f"not a permutation of degree {gen.n}: {p!r}")


def ball_radius(gen: GeneratorSet, radius: int) -> int:
    """``radius`` capped at gen's diameter: the radius a ball is built, memoized and cached at."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return min(radius, diameter(gen))


def ball_size(gen: GeneratorSet, radius: int) -> int:
    """The number of vertices of a ball at :func:`ball_radius`, from the
    closed-form sphere sizes, without building it."""
    return sum(_SPHERE_SIZES[gen.kind](gen.n)[:ball_radius(gen, radius) + 1])


def ball(center: Perm, radius: int, gen: GeneratorSet) -> MetricBall:
    """Breadth-first expansion of the metric ball around ``center``, at
    :func:`ball_radius`."""
    radius = ball_radius(gen, radius)
    _check_vertex(center, gen)
    _check_capacity(ball_size(gen, radius), "ball")
    spheres = tuple(map(frozenset, islice(_levels(center, gen), radius + 1)))
    return MetricBall(gen, center, radius, spheres)


_ball_memo: dict[tuple[GeneratorSet, int], MetricBall] = {}


def ball_of_identity(gen: GeneratorSet, radius: int) -> MetricBall:
    """Identity-centered ball, memoized per (generator set, ball radius)."""
    key = (gen, ball_radius(gen, radius))
    got = _ball_memo.get(key)
    if got is None:
        got = _ball_memo[key] = ball(identity(gen.n), radius, gen)
    return got


def prime_identity_ball(b: MetricBall) -> None:
    """Install an externally loaded identity ball into the memo."""
    if b.center != identity(b.gen.n):
        raise ValueError("only identity-centered balls can be primed")
    _ball_memo[(b.gen, b.radius)] = b


def clear_ball_memo() -> None:
    """Forget every memoized ball and overlap maximum."""
    _ball_memo.clear()
    _overlap_memo.clear()


def sphere(gen: GeneratorSet, s: int) -> frozenset[Perm]:
    """S_s(e): vertices at distance exactly s from e, none past the diameter."""
    if s > diameter(gen):
        return frozenset()
    return frozenset(map(unpack, ball_of_identity(gen, s).packed_spheres[s]))


def distance(x: Perm, y: Perm, gen: GeneratorSet) -> int:
    """Exact graph distance: the family's closed form on inverse(x)*y.

    >>> e, rev = identity(12), tuple(range(11, -1, -1))
    >>> distance(e, rev, GeneratorSet.adjacent(12)), distance(e, rev, GeneratorSet.prefix(12))
    (66, 16)
    >>> distance(e, (*range(1, 12), 0), GeneratorSet.all_transpositions(12))
    11
    """
    _check_vertex(x, gen)
    _check_vertex(y, gen)
    return _DISTANCE[gen.kind](pack(y).translate(left_inverse_table(pack(x))))


def lambda_mu(gen: GeneratorSet) -> tuple[int, int]:
    """Triangle and common-neighbor maxima from generator products alone.

    A common neighbor of e and a product ab corresponds to a way of writing
    the product from two generators, so the two maxima are the largest
    representation counts of elements inside, respectively outside, the
    generator set (excluding the identity).  No graph traversal is needed.
    """
    gen_set = set(gen.packed)
    reps: Counter[bytes] = Counter()
    for a in gen.packed:
        reps.update(translated(gen.packed, left_table(a)))
    del reps[IDENT[gen.n]]
    lam = max((c for p, c in reps.items() if p in gen_set), default=0)
    mu = max((c for p, c in reps.items() if p not in gen_set), default=0)
    return lam, mu


@dataclass(frozen=True)
class SphereMax:
    """Largest r-ball overlap over center pairs at one distance s.

    ``value`` is None when the sphere is empty (s beyond the diameter), which
    is reported as absent rather than zero.  A Cayley-graph profile stores
    in ``witnesses`` permutation tuples (see
    :func:`max_ball_intersection_at`): the attaining class representatives
    in ``perms.cycle_types`` order for all transpositions, one vertex per
    attaining orbit in scan order for prefix swaps, and every attaining
    vertex, sorted, for adjacent swaps.  :func:`witness_vertices` gives
    every attaining vertex they stand for.
    A small-graph report (``smallgraphs``) stores its ``"u-w"`` pair
    labels, already output text.
    """

    s: int
    value: int | None
    witnesses: tuple = ()


@dataclass(frozen=True)
class IntersectionMax:
    """Largest r-ball overlap over all pairs of distinct centers."""

    radius: int
    value: int
    per_s: tuple[SphereMax, ...]

    @property
    def best_s(self) -> tuple[int, ...]:
        return tuple(sm.s for sm in self.per_s if sm.value == self.value)

    @property
    def witnesses(self) -> dict[int, tuple]:
        return {sm.s: sm.witnesses for sm in self.per_s if sm.value == self.value}


def extended_profile(best: IntersectionMax, r: int) -> IntersectionMax:
    """``best``, a profile at or past the diameter D, at radius r >= its own.
    Past D every ball is the whole graph, so the profile at r is D's with
    the distances 2D+1..2r, at which no two vertices lie, added as absent."""
    absent = tuple(SphereMax(s, None) for s in range(2 * best.radius + 1, 2 * r + 1))
    return IntersectionMax(r, best.value, best.per_s + absent) if absent else best


@dataclass(frozen=True)
class MetricReport:
    """What a Cayley-graph and a small-graph report share: the order, the
    valency (None if the graph is not regular), lambda, mu, the diameter D
    and the overlap profiles.  ``per_radius`` holds radii 1 to min(r, D)
    for the report's radius r, and every radius past D reads D's profile
    (:func:`extended_profile`), so a report past D costs what one at D does."""

    v: int
    k: int | None
    lam: int
    mu: int
    diameter: int | None
    r: int
    per_radius: tuple[IntersectionMax, ...]

    def n_value(self, r: int) -> int:
        return self.per_radius[min(r, len(self.per_radius)) - 1].value

    def profile(self, r: int) -> IntersectionMax:
        return extended_profile(self.per_radius[min(r, len(self.per_radius)) - 1], r)

    @property
    def final(self) -> IntersectionMax:
        return self.profile(self.r)

    def _doc(self, labels) -> dict:
        """The document's shared keys, the witnesses of each attaining
        distance's ``SphereMax`` listed by ``labels``."""
        final = self.final
        return {
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "mu": self.mu,
            "diameter": self.diameter,
            "n_s": {str(sm.s): sm.value for sm in final.per_s},
            "n_r": {str(rr): self.n_value(rr) for rr in range(1, self.r + 1)},
            "witnesses": {
                "n_s": {str(sm.s): labels(sm) for sm in final.per_s if sm.value == final.value}
            },
        }


def _shared_region(members: frozenset[bytes], y: bytes) -> frozenset[bytes]:
    """B ∩ yB for the packed ball B = ``members`` around e and packed y;
    B_r(x) ∩ B_r(xy) is x times it, by left translation."""
    return members.intersection(translated(members, left_table(y)))


def _overlap_count(members: frozenset[bytes], y: bytes) -> int:
    # |B ∩ yB| of _shared_region, at module level so scans can map it to workers
    return len(_shared_region(members, y))


def witness_label(gen: GeneratorSet, y: Perm) -> str:
    """The output label of the overlap witness y: its conjugacy class
    (``1^2 3^1``) for all transpositions, whose profile keeps one
    representative per class, and the vertex itself (``[2,1,3]``)
    otherwise."""
    if gen.kind == KIND_ALL:
        return str(cycle_type(y))
    return format_perm(y)


def ball_overlap(gen: GeneratorSet, r: int, other: Perm) -> int:
    """|B_r(e) ∩ B_r(other)| without materializing the second ball; for
    all transpositions, the value of other's class, with no ball at all."""
    _check_vertex(other, gen)
    if gen.kind == KIND_ALL:
        values = _class_overlaps(gen.n, ball_radius(gen, r))
        return values[_class_characters(gen.n).types.index(cycle_type(other))]
    return _overlap_count(ball_of_identity(gen, r).packed, pack(other))


def _adjacent_profile(gen: GeneratorSet, r: int) -> tuple[SphereMax, ...]:
    """Every distance's :class:`SphereMax` for adjacent swaps at radius r,
    s = 1..2r, from one self-convolution of the packed B = B_r(e).

    |B ∩ yB| = #{(w, z) ∈ B × B : w^-1 z = y}, since B is closed under
    inversion, so counting w^-1 B over every w in B gives the value of every
    y at distance 1..2r at once; the keys are grouped by inversion count.
    The counter holds B_2r, so ``CapacityError`` is raised by its
    closed-form size before any ball is built."""
    _check_capacity(ball_size(gen, 2 * r), "ball")
    members = ball_of_identity(gen, r).packed
    counts: Counter[bytes] = Counter()
    for w in members:
        counts.update(translated(members, left_inverse_table(w)))
    del counts[IDENT[gen.n]]
    top: dict[int, int] = {}
    attaining: dict[int, list[bytes]] = {}
    dist = _DISTANCE[KIND_ADJACENT]
    for y, c in counts.items():
        s = dist(y)
        if c > top.get(s, 0):
            top[s], attaining[s] = c, [y]
        elif c == top[s]:
            attaining[s].append(y)
    return tuple(
        SphereMax(s, top[s], tuple(map(unpack, sorted(attaining[s])))) if s in top
        else SphereMax(s, None, ())
        for s in range(1, 2 * r + 1)
    )


def max_ball_intersection_at(
    gen: GeneratorSet, r: int, s: int, workers: int = 1
) -> SphereMax:
    """Max |B_r(x) ∩ B_r(y)| over pairs at distance exactly s.

    By vertex-transitivity x is fixed at the identity.  An automorphism
    that fixes the identity maps B_r(y) to the ball around y's image, and
    |B_r(e) ∩ B_r(y)| = |B_r(y^-1) ∩ B_r(e)| by left translation, so the
    overlap is the same across y's orbit:

    * all transpositions: conjugation by any permutation, so the orbits
      are the conjugacy classes, and every class's value comes from the
      character table of S_n (:func:`_class_overlaps`), with no ball;
    * prefix swaps: conjugation by a permutation fixing 0, so an orbit is a
      cycle type with the length of the cycle through 0, and one
      representative per orbit is scanned against B_r, the only ball read;
    * adjacent swaps: every distance comes from one pass over pairs of B_r
      (:func:`_adjacent_profile`), which this runs whole for distance s.

    The witnesses are the class representatives that attain the maximum,
    in ``perms.cycle_types`` order (``perms.class_representative``), for all
    transpositions; the attaining prefix-swap orbits in the same order,
    with the cycle through 0 longest first; and every attaining vertex,
    sorted, for adjacent swaps.  Nothing is expanded here;
    :func:`witness_vertices` does that where a witness is used.
    ``CapacityError`` is raised before a prefix-swap scan if B_r is past
    ``MAX_BALL_SIZE``, and before an adjacent-swap pass if B_2r is; an
    all-transpositions profile never raises it.  ``workers`` maps a
    prefix-swap scan's representatives to that many processes; the other
    two families ignore it.
    """
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")
    if not 1 <= s <= 2 * r:
        raise ValueError(f"need 1 <= s <= 2r, got s={s}, r={r}")
    if gen.kind == KIND_ADJACENT:
        return _adjacent_profile(gen, r)[s - 1]
    if gen.kind == KIND_ALL:
        table, values = _class_characters(gen.n), _class_overlaps(gen.n, r)
        at_s = [c for c, d in enumerate(table.distances) if d == s]
        cands = [table.representatives[c] for c in at_s]
        counts = [values[c] for c in at_s]
    else:
        members = ball_of_identity(gen, r).packed
        cands = [y for d, y in _star_orbits(gen.n) if d == s]
        counts = run_mapped(partial(_overlap_count, members), cands, workers)
    if not cands:
        return SphereMax(s, None, ())
    best = max(counts)
    return SphereMax(s, best, tuple(unpack(y) for y, c in zip(cands, counts) if c == best))


def witness_vertices(gen: GeneratorSet, sm: SphereMax) -> tuple[Perm, ...]:
    """Every attaining vertex the witnesses of a profile's ``sm`` stand for:
    the witnesses themselves, as the profile keeps them, for all
    transpositions, whose witnesses are named by class, and for adjacent
    swaps, whose profile keeps every attaining vertex; every vertex of the
    witnesses' orbits, sorted, for prefix swaps.  ``CapacityError`` is
    raised, by the orbits' sizes and before any is expanded, if they hold
    more than ``MAX_BALL_SIZE`` vertices."""
    if gen.kind != KIND_PREFIX:
        return sm.witnesses
    packed = list(map(pack, sm.witnesses))
    _check_capacity(sum(map(_star_orbit_size, packed)), f"witnesses at distance {sm.s}")
    return tuple(map(unpack, sorted(v for y in packed for v in _star_orbit(y))))


def max_ball_intersection(gen: GeneratorSet, r: int, workers: int = 1) -> IntersectionMax:
    """Max |B_r(x) ∩ B_r(y)| over all pairs of distinct centers.

    Overlapping balls force d(x, y) <= 2r, so the profile covers s = 1..2r:
    one adjacent-swap pass, or one :func:`max_ball_intersection_at` per s
    for the other families.  One more erroneous pattern than this value
    always pins down an unknown center."""
    if gen.kind == KIND_ADJACENT:
        per_s = _adjacent_profile(gen, r)
    else:
        per_s = tuple(max_ball_intersection_at(gen, r, s, workers) for s in range(1, 2 * r + 1))
    values = [sm.value for sm in per_s if sm.value is not None]
    if not values:
        raise ValueError("no vertex pairs at any distance in 1..2r")
    return IntersectionMax(r, max(values), per_s)


_overlap_memo: dict[tuple[GeneratorSet, int], IntersectionMax] = {}


def overlap_of_identity(gen: GeneratorSet, r: int) -> IntersectionMax:
    """:func:`max_ball_intersection`, memoized per (generator set,
    :func:`ball_radius`) and extended past the diameter by
    :func:`extended_profile`."""
    radius = ball_radius(gen, r)
    key = (gen, radius)
    got = _overlap_memo.get(key)
    if got is None:
        got = _overlap_memo[key] = max_ball_intersection(gen, radius)
    return extended_profile(got, r)


def prime_overlap(gen: GeneratorSet, best: IntersectionMax) -> None:
    """Install an externally loaded overlap maximum into the memo."""
    _overlap_memo[(gen, best.radius)] = best


def local_params(pi: Perm, gen: GeneratorSet) -> tuple[int, int, int]:
    """(c, a, b): neighbors of pi one step closer to / level with / one step
    farther from the identity, by the family's distance formula.  They
    always sum to the valency."""
    _check_vertex(pi, gen)
    dist = _DISTANCE[gen.kind]
    d = dist(pi)
    steps = Counter(dist(w) - d for w in translated(gen.packed, left_table(pack(pi))))
    return steps[-1], steps[0], steps[1]


def _check_whole_graph(gen: GeneratorSet) -> None:
    if gen.n > WHOLE_GRAPH_MAX_N:
        raise CapacityError(f"whole-graph search capped at degree {WHOLE_GRAPH_MAX_N}")


def _classified_vertices(gen: GeneratorSet):
    """(d, y, (c, a, b)) for every packed non-identity vertex y, level by
    level in breadth-first discovery order, where d is y's distance from the
    identity and c, a, b count its neighbors at distance d-1, d and d+1."""
    _check_whole_graph(gen)
    prev: dict[bytes, None] = {}
    for d, level in enumerate(_levels(identity(gen.n), gen)):
        for y in level if d else ():
            nbrs = list(translated(gen.packed, left_table(y)))
            c, a = sum(w in prev for w in nbrs), sum(w in level for w in nbrs)
            yield d, y, (c, a, gen.k - c - a)
        prev = level


def bfs_levels(gen: GeneratorSet) -> list[list[Perm]]:
    """Whole-graph breadth-first levels from the identity, each in discovery
    order (by predecessor, then by generator)."""
    _check_whole_graph(gen)
    return [list(map(unpack, lvl)) for lvl in _levels(identity(gen.n), gen)]


def diameter(gen: GeneratorSet) -> int:
    """Graph diameter, by the family's closed form.

    >>> [diameter(GeneratorSet.of_kind(kind, 12)) for kind in ("T", "t", "st")]
    [11, 66, 16]
    """
    return _DIAMETER[gen.kind](gen.n)


@dataclass(frozen=True)
class ClassVertex:
    """Every vertex of one class: its distance from the identity, its
    (c, a, b) and its number of shortest paths from the identity."""

    distance: int
    params: tuple[int, int, int]
    geodesics: int


def class_walk(n: int) -> dict[CycleType, ClassVertex]:
    """The all-transpositions graph of degree n walked breadth-first by
    conjugacy class from the identity's, with no distance formula.

    Conjugation is an automorphism that fixes the identity and maps the
    generators onto themselves, so distance, (c, a, b) and geodesic count
    are constant on each class.  A class's neighbors are the classes of its
    representative's neighbors (``class_representative``), and its (c, a, b)
    counts them by level.  Its geodesic count sums its closer neighbors':
    a geodesic to p spells a minimal factorization of p into
    transpositions, so this is Dénes's count."""
    gens = GeneratorSet.all_transpositions(n).packed
    order = [cycle_type(IDENT[n])]
    dist = {order[0]: 0}
    out: dict[CycleType, ClassVertex] = {}
    for ct in order:  # the classes found are appended: a breadth-first queue
        d = dist[ct]
        rep = pack(class_representative(ct))
        nbrs = [cycle_type(w) for w in translated(gens, left_table(rep))]
        for w in nbrs:
            if w not in dist:
                dist[w] = d + 1
                order.append(w)
        steps = Counter(dist[w] - d for w in nbrs)
        geodesics = sum(out[w].geodesics for w in nbrs if dist[w] < d) if d else 1
        out[ct] = ClassVertex(d, (steps[-1], steps[0], steps[1]), geodesics)
    return out


@dataclass(frozen=True)
class RegularityWitness:
    """Two vertices at the same distance from a base vertex whose
    closer/farther neighbor counts differ."""

    base: str
    dist: int
    first: str
    first_params: tuple[int, int]
    second: str
    second_params: tuple[int, int]


@dataclass(frozen=True)
class RegularityResult:
    is_distance_regular: bool
    witness: RegularityWitness | None = None
    intersection_array: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def is_distance_regular(gen: GeneratorSet) -> RegularityResult:
    """Check whether closer/farther neighbor counts depend only on distance.

    Left translations are automorphisms carrying any base vertex to the
    identity, so scanning all vertices against the identity covers every
    pair.  On failure the witness pair is returned."""
    b_arr: list[int] = [gen.k]
    c_arr: list[int] = []
    for d, y, (c, _, b) in _classified_vertices(gen):
        if d > len(c_arr):
            # the first vertex of each level sets that level's reference
            ref, ref_vertex = (c, b), y
            c_arr.append(c)
            b_arr.append(b)
        elif (c, b) != ref:
            witness = RegularityWitness(
                base=format_perm(identity(gen.n)),
                dist=d,
                first=format_perm(unpack(ref_vertex)),
                first_params=ref,
                second=format_perm(unpack(y)),
                second_params=(c, b),
            )
            return RegularityResult(False, witness)
    # the last level has no farther neighbors, so its b is not in the array
    b_arr.pop()
    return RegularityResult(True, None, (tuple(b_arr), tuple(c_arr)))


def girth_cycle_check(gen: GeneratorSet, lengths) -> dict[int, bool]:
    """For each requested length, whether the graph has a simple cycle of
    that length.  Each generator is a transposition, so every edge flips
    the sign and no odd length has one.  Vertex-transitivity means an even
    cycle exists somewhere iff one passes through the identity."""
    out = {}
    for length in sorted(set(lengths)):
        if length < 3:
            raise ValueError(f"cycle length must be >= 3, got {length}")
        if length % 2:
            out[length] = False
            continue
        k = gen.k
        estimate = k * max(k - 1, 1) ** (length - 2)
        if estimate > MAX_CYCLE_SEARCH:
            raise CapacityError(f"cycle search for length {length} exceeds budget")
        out[length] = _has_cycle_through_identity(gen, length)
    return out


def _has_cycle_through_identity(gen: GeneratorSet, length: int) -> bool:
    # the identity's neighbors are the generators themselves
    e = IDENT[gen.n]
    closing = set(gen.packed)
    on_path = {e}

    def dfs(v: bytes, steps: int) -> bool:
        if steps == length - 1:
            return v in closing
        for w in translated(gen.packed, left_table(v)):
            if w in on_path:
                continue
            on_path.add(w)
            if dfs(w, steps + 1):
                return True
            on_path.remove(w)
        return False

    for v in gen.packed:
        on_path.add(v)
        if dfs(v, 1):
            return True
        on_path.remove(v)
    return False


def complete_bipartite_count(gen: GeneratorSet, p: int, q: int, at: Perm) -> int:
    """Number of complete-bipartite K_{p,q} subgraphs through vertex ``at``.

    Every such subgraph lies inside the radius-2 ball around ``at``: the
    part not containing ``at`` consists of neighbors of ``at`` and the rest
    are common neighbors of that part.  Subgraphs are counted as unordered
    part pairs with full cross-adjacency (not necessarily induced).
    """
    if not 1 <= p <= 4 or not 1 <= q <= 4:
        raise CapacityError("part sizes capped at 4")
    if gen.n > 6:
        raise CapacityError("subgraph search capped at degree 6")
    _check_vertex(at, gen)
    at = pack(at)
    nbr_cache: dict[bytes, frozenset[bytes]] = {}

    def nbrs(v: bytes) -> frozenset[bytes]:
        got = nbr_cache.get(v)
        if got is None:
            got = nbr_cache[v] = frozenset(translated(gen.packed, left_table(v)))
        return got

    def one_side(own_size: int, other_size: int) -> int:
        # `at` sits in the part of size own_size; the other part is chosen
        # among its neighbors and the rest of its own part among their
        # common neighbors.
        total = 0
        for other in combinations(sorted(nbrs(at)), other_size):
            common = nbrs(other[0])
            for w in other[1:]:
                common = common & nbrs(w)
                if len(common) < own_size:
                    break
            else:
                total += comb(len(common - {at}), own_size - 1)
        return total

    count = one_side(p, q)
    if p != q:
        count += one_side(q, p)
    return count


@dataclass(frozen=True)
class GraphReport(MetricReport):
    """Computed metric profile of one Cayley graph instance."""

    kind: str
    n: int
    notes: tuple[str, ...] = ()

    def to_doc(self) -> dict:
        gen = GeneratorSet(self.kind, self.n)
        return {
            "n": self.n,
            "generator_kind": self.kind,
            **self._doc(
                lambda sm: sorted(witness_label(gen, y) for y in witness_vertices(gen, sm))
            ),
            "notes": list(self.notes),
        }


def build_graph_report(gen: GeneratorSet, r: int, with_diameter: bool = True) -> GraphReport:
    lam, mu = lambda_mu(gen)
    return GraphReport(
        kind=gen.kind, n=gen.n, v=factorial(gen.n), k=gen.k, lam=lam, mu=mu,
        diameter=diameter(gen) if with_diameter else None,
        r=r,
        # the largest radius first, so one past a cap is refused before the
        # others are computed
        per_radius=tuple(reversed([
            overlap_of_identity(gen, rr) for rr in range(ball_radius(gen, r), 0, -1)
        ])),
        notes=() if with_diameter else ("diameter skipped: disabled",),
    )
