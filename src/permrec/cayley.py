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
* balls, spheres and the whole-graph queries (:func:`local_params_all`,
  :func:`is_distance_regular`, :func:`geodesic_counts`) come from one
  breadth-first level expansion around the identity, which keeps only
  three levels in hand because the graph is undirected.  The whole-graph
  queries are capped at degree ``WHOLE_GRAPH_MAX_N``, and only
  :func:`bfs_levels` keeps every level;
* each generator is a transposition, an odd permutation, so every edge
  flips the sign and no cycle has odd length: :func:`girth_cycle_check`
  answers odd lengths without a search.

The capacity caps are module constants: ``MAX_BALL_SIZE`` vertices in a
ball, degree ``WHOLE_GRAPH_MAX_N`` for a whole-graph sweep and
``MAX_CYCLE_SEARCH`` estimated paths for a cycle search.  Exceeding one
raises ``CapacityError`` instead of thrashing.  Every check reads the
constant when it runs.  Since the caps never vary, one memo entry per
(generator set, radius) serves every call.  Radii are capped at the
diameter, past which every ball is the whole group: :func:`ball_radius`
is the one radius at which a ball is built, memoized and cached.

Every public function takes and returns permutation tuples, except
:func:`witness_label`, which names a packed scan candidate.  The
expansion and the overlap scans run on the packed form of ``perms``
instead.  Balls are packed first: a ``MetricBall`` holds its spheres as
frozensets of packed vertices, exactly as the expansion left them, and
builds the tuple views (``spheres``, ``members``) only when something asks
for them.  The hot paths (reconstruction, overlap scans, the disk cache)
never do.

The overlap maximum comes in two forms.  :func:`max_ball_intersection`
(per distance, :func:`max_ball_intersection_at`) is the scan itself, never
memoized: the benchmark times it and the tests' oracles call it.  Every
caller in the package reads :func:`overlap_of_identity`, the same answer
memoized per (generator set, radius), as :func:`ball_of_identity` memoizes
:func:`ball`.

The overlap witnesses are named here and nowhere else.  A scan labels only
its attaining packed candidates, by :func:`witness_label`: the conjugacy
class for all transpositions, the vertex otherwise.  :func:`witness_vertex` reads a
label back and refuses any string :func:`witness_label` cannot give; the
disk cache checks stored witnesses with it, and the decoder finds its
ambiguity witness through it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, islice
from math import comb, factorial

from .errors import CapacityError
from .parallel import run_mapped
from .perms import (
    IDENT,
    MAX_DEGREE,
    Perm,
    class_representative,
    compose,
    cycle_count,
    cycle_type,
    cycle_types,
    cycles,
    format_perm,
    identity,
    is_perm,
    left_inverse_table,
    left_table,
    pack,
    parse_cycle_type,
    parse_perm,
    translated,
    transposition,
    unpack,
)

KIND_ALL = "T"
KIND_ADJACENT = "t"
KIND_PREFIX = "st"


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
    KIND_ADJACENT: lambda p: sum(a > b for a, b in combinations(p, 2)),
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


def ball(center: Perm, radius: int, gen: GeneratorSet) -> MetricBall:
    """Breadth-first expansion of the metric ball around ``center``, at
    :func:`ball_radius`."""
    radius = ball_radius(gen, radius)
    _check_vertex(center, gen)
    spheres = []
    size = 0
    for level in islice(_levels(center, gen), radius + 1):
        size += len(level)
        if size > MAX_BALL_SIZE:
            raise CapacityError(f"ball exceeds budget of {MAX_BALL_SIZE} vertices")
        spheres.append(frozenset(level))
    return MetricBall(gen, center, radius, tuple(spheres))


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


def _walk(gen: GeneratorSet):
    """(d, level d-1, level d) for each breadth-first level around the
    identity; level -1 is empty."""
    prev: dict[bytes, None] = {}
    for d, level in enumerate(_levels(identity(gen.n), gen)):
        yield d, prev, level
        prev = level


def _split(v: bytes, gen: GeneratorSet, prev, level) -> tuple[int, int, int]:
    """(c, a, b) for the packed vertex v of ``level``, with ``prev`` the level
    before it: neighbors in prev, in level, and (all others) in the next."""
    c = a = 0
    for w in translated(gen.packed, left_table(v)):
        if w in prev:
            c += 1
        elif w in level:
            a += 1
    return c, a, gen.k - c - a


def lambda_mu(gen: GeneratorSet) -> tuple[int, int]:
    """Triangle and common-neighbor maxima from generator products alone.

    A common neighbor of e and a product ab corresponds to a way of writing
    the product from two generators, so the two maxima are the largest
    representation counts of elements inside, respectively outside, the
    generator set (excluding the identity).  No graph traversal is needed.
    """
    gen_set = set(gen.gens)
    e = identity(gen.n)
    reps: Counter[Perm] = Counter()
    for a in gen.gens:
        for b in gen.gens:
            prod = compose(a, b)
            if prod != e:
                reps[prod] += 1
    lam = max((c for p, c in reps.items() if p in gen_set), default=0)
    mu = max((c for p, c in reps.items() if p not in gen_set), default=0)
    return lam, mu


@dataclass(frozen=True)
class SphereMax:
    """Largest r-ball overlap over center pairs at one distance s.

    ``value`` is None when the sphere is empty (s beyond the diameter), which
    is reported as absent rather than zero.  ``witnesses`` labels every
    attaining candidate, in scan order, by :func:`witness_label`.
    """

    s: int
    value: int | None
    witnesses: tuple[str, ...] = ()


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
    def witnesses(self) -> dict[int, tuple[str, ...]]:
        return {sm.s: sm.witnesses for sm in self.per_s if sm.value == self.value}


def _overlap_count(members: frozenset[bytes], y: bytes) -> int:
    # |B ∩ yB| = |{z in B : y^-1 z in B}|; the ball B is closed under inversion
    return len(members.intersection(translated(members, left_inverse_table(y))))


def witness_label(gen: GeneratorSet, y: bytes) -> str:
    """The label naming the packed overlap candidate y: its conjugacy class
    (``1^2 3^1``) for all transpositions, whose scan reads one
    representative per class, and the vertex itself (``[2,1,3]``)
    otherwise."""
    if gen.kind == KIND_ALL:
        return str(cycle_type(y))
    return format_perm(y)


def witness_vertex(gen: GeneratorSet, label: str) -> Perm:
    """The vertex a :func:`witness_label` label names, the class
    representative for all transpositions.  Any string that
    :func:`witness_label` cannot give at gen's degree, a class or vertex of
    another degree, a class written out of order or a malformed literal,
    raises ``ValueError``."""
    if gen.kind == KIND_ALL:
        ct = parse_cycle_type(label)
        vertex, canonical = class_representative(ct), str(ct)
    else:
        vertex = parse_perm(label)
        canonical = format_perm(vertex)
    if len(vertex) != gen.n or label != canonical:
        raise ValueError(f"not a witness label of degree {gen.n}: {label!r}")
    return vertex


def ball_overlap(gen: GeneratorSet, r: int, other: Perm) -> int:
    """|B_r(e) ∩ B_r(other)| without materializing the second ball."""
    return _overlap_count(ball_of_identity(gen, r).packed, pack(other))


def max_ball_intersection_at(
    gen: GeneratorSet, r: int, s: int, workers: int = 1
) -> SphereMax:
    """Max |B_r(x) ∩ B_r(y)| over pairs at distance exactly s.

    By vertex-transitivity x is fixed at the identity.  For the
    all-transpositions family the overlap depends only on the conjugacy
    class of y (the family is closed under conjugation), so only one
    representative per class at distance s is scanned; the adjacent and
    prefix families are not conjugation-closed and every sphere vertex is
    scanned.
    """
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")
    if not 1 <= s <= 2 * r:
        raise ValueError(f"need 1 <= s <= 2r, got s={s}, r={r}")
    members = ball_of_identity(gen, r).packed
    if gen.kind == KIND_ALL:
        cands = [
            pack(class_representative(ct))
            for ct in cycle_types(gen.n)
            if ct.min_transpositions == s
        ]
    else:
        spheres = ball_of_identity(gen, 2 * r).packed_spheres
        cands = sorted(spheres[s]) if s < len(spheres) else []
    if not cands:
        return SphereMax(s, None, ())
    counts = run_mapped(partial(_overlap_count, members), cands, workers)
    best = max(counts)
    wits = tuple(witness_label(gen, y) for y, c in zip(cands, counts) if c == best)
    return SphereMax(s, best, wits)


def max_ball_intersection(gen: GeneratorSet, r: int, workers: int = 1) -> IntersectionMax:
    """Max |B_r(x) ∩ B_r(y)| over all pairs of distinct centers.

    Overlapping balls force d(x, y) <= 2r, so the scan covers s = 1..2r;
    one more erroneous pattern than this value always pins down an unknown
    center."""
    per_s = tuple(max_ball_intersection_at(gen, r, s, workers) for s in range(1, 2 * r + 1))
    values = [sm.value for sm in per_s if sm.value is not None]
    if not values:
        raise ValueError("no vertex pairs at any distance in 1..2r")
    return IntersectionMax(r, max(values), per_s)


_overlap_memo: dict[tuple[GeneratorSet, int], IntersectionMax] = {}


def overlap_of_identity(gen: GeneratorSet, r: int) -> IntersectionMax:
    """:func:`max_ball_intersection`, memoized per (generator set, radius)."""
    key = (gen, r)
    got = _overlap_memo.get(key)
    if got is None:
        got = _overlap_memo[key] = max_ball_intersection(gen, r)
    return got


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
    for d, prev, level in _walk(gen):
        if d:
            for y in level:
                yield d, y, _split(y, gen, prev, level)


def local_params_all(gen: GeneratorSet) -> dict[Perm, tuple[int, int, int]]:
    """(c, a, b) for every non-identity vertex, from one whole-graph walk."""
    return {unpack(y): cab for _, y, cab in _classified_vertices(gen)}


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


def geodesic_counts(gen: GeneratorSet) -> dict[Perm, int]:
    """Number of shortest paths from the identity to every vertex, from one
    whole-graph walk: each vertex sums the counts of its neighbors in the
    level before.  A geodesic to p spells a minimal factorization of p into
    generators, so on the all-transpositions graph this is Dénes's count.

    >>> geodesic_counts(GeneratorSet.adjacent(4))[(3, 2, 1, 0)]
    16
    """
    _check_whole_graph(gen)
    counts: dict[bytes, int] = {}
    for d, prev, level in _walk(gen):
        for v in level:
            nbrs = translated(gen.packed, left_table(v))
            counts[v] = sum(counts[w] for w in nbrs if w in prev) if d else 1
    return {unpack(v): c for v, c in counts.items()}


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
class GraphReport:
    """Computed metric profile of one Cayley graph instance."""

    kind: str
    n: int
    v: int
    k: int
    lam: int
    mu: int
    diameter: int | None
    per_radius: tuple[IntersectionMax, ...]
    notes: tuple[str, ...] = ()

    @property
    def final(self) -> IntersectionMax:
        return self.per_radius[-1]

    def to_doc(self) -> dict:
        final = self.final
        return {
            "n": self.n,
            "generator_kind": self.kind,
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "mu": self.mu,
            "diameter": self.diameter,
            "n_s": {str(sm.s): sm.value for sm in final.per_s},
            "n_r": {str(im.radius): im.value for im in self.per_radius},
            "witnesses": {
                "n_s": {
                    str(sm.s): sorted(sm.witnesses)
                    for sm in final.per_s
                    if sm.value == final.value
                }
            },
            "notes": list(self.notes),
        }


def build_graph_report(gen: GeneratorSet, r: int, with_diameter: bool = True) -> GraphReport:
    lam, mu = lambda_mu(gen)
    return GraphReport(
        kind=gen.kind, n=gen.n, v=factorial(gen.n), k=gen.k, lam=lam, mu=mu,
        diameter=diameter(gen) if with_diameter else None,
        per_radius=tuple(overlap_of_identity(gen, rr) for rr in range(1, r + 1)),
        notes=() if with_diameter else ("diameter skipped: disabled",),
    )
