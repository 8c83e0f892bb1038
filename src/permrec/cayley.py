"""Metric engine for Cayley graphs of the symmetric group.

Supports the three transposition families (all transpositions, adjacent
swaps, prefix swaps) plus arbitrary explicit involution sets.  Provides
spheres, balls, distances, ball-intersection maxima, triangle/common-
neighbor parameters, local parameters, diameters, distance-regularity and
small-subgraph checks.

Vertices are permutations; edges join x to x*s for generators s.
Left translation is an automorphism, so distances satisfy
d(x, y) = d(e, inverse(x)*y) and every ball is a translate of a ball around
the identity; the engine leans on this throughout.  Balls, spheres and
whole-graph sweeps all come from one breadth-first level expansion, which
keeps only three levels in hand because the graph is undirected.

Every public function takes and returns permutation tuples.  The
breadth-first expansion and the overlap scans run on the packed form of
``perms`` instead.  Balls are packed first: a ``MetricBall`` holds its
spheres as frozensets of packed vertices, exactly as the expansion left
them, and builds the tuple views (``spheres``, ``members``,
``distance_index``) only when something asks for them.  The hot paths
(reconstruction, overlap scans, the disk cache) never do.

The overlap maximum comes in two forms.  :func:`max_ball_intersection` is
the scan itself and is never memoized: the brute-force oracles call it, and
timing it must time a scan.  :func:`overlap_of_identity` is to it what
:func:`ball_of_identity` is to :func:`ball`: the same answer, memoized per
(generator set, radius), and the form the decoder and the reports use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from math import factorial

from .errors import CapacityError, UnreachableError
from .parallel import run_mapped
from .perms import (
    CycleType,
    Perm,
    class_representative,
    compose,
    cycle_types,
    format_perm,
    identity,
    is_perm,
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
KIND_EXPLICIT = "explicit"

KIND_NAMES = {
    KIND_ALL: "all-transpositions",
    KIND_ADJACENT: "adjacent-transpositions",
    KIND_PREFIX: "prefix-transpositions",
    KIND_EXPLICIT: "explicit",
}


@dataclass(frozen=True)
class Budgets:
    """Capacity knobs; exceeding one raises CapacityError instead of thrashing:
    vertices of a ball, degree of a whole-graph sweep (diameter, regularity,
    local parameters) and estimated paths of a cycle search."""

    max_ball_size: int = 2_000_000
    whole_graph_max_n: int = 8
    max_cycle_search: int = 20_000_000


DEFAULT_BUDGETS = Budgets()


@dataclass(frozen=True)
class GeneratorSet:
    """An involution generating set for the symmetric group of degree n.

    The identity is excluded and every generator is its own inverse, so the
    set is closed under inversion and the Cayley graph is undirected and
    len(gens)-regular.
    """

    kind: str
    n: int
    gens: tuple[Perm, ...]

    @classmethod
    def all_transpositions(cls, n: int) -> "GeneratorSet":
        _check_graph_degree(n)
        gens = tuple(
            transposition(n, i, j) for i in range(n) for j in range(i + 1, n)
        )
        return cls(KIND_ALL, n, gens)

    @classmethod
    def adjacent(cls, n: int) -> "GeneratorSet":
        _check_graph_degree(n)
        gens = tuple(transposition(n, i, i + 1) for i in range(n - 1))
        return cls(KIND_ADJACENT, n, gens)

    @classmethod
    def prefix(cls, n: int) -> "GeneratorSet":
        _check_graph_degree(n)
        gens = tuple(transposition(n, 0, i) for i in range(1, n))
        return cls(KIND_PREFIX, n, gens)

    @classmethod
    def explicit(cls, n: int, gens) -> "GeneratorSet":
        _check_graph_degree(n)
        seen = []
        e = identity(n)
        for g in gens:
            g = tuple(g)
            if len(g) != n or not is_perm(g):
                raise ValueError(f"not a permutation of degree {n}: {g!r}")
            if g == e:
                raise ValueError("identity is not a valid generator")
            if compose(g, g) != e:
                raise ValueError(f"generator is not an involution: {g!r}")
            if g not in seen:
                seen.append(g)
        if not seen:
            raise ValueError("empty generator set")
        return cls(KIND_EXPLICIT, n, tuple(seen))

    @classmethod
    def of_kind(cls, kind: str, n: int) -> "GeneratorSet":
        makers = {
            KIND_ALL: cls.all_transpositions,
            KIND_ADJACENT: cls.adjacent,
            KIND_PREFIX: cls.prefix,
        }
        if kind not in makers:
            raise ValueError(f"unknown generator kind {kind!r}")
        return makers[kind](n)

    @property
    def k(self) -> int:
        return len(self.gens)

    @property
    def display_name(self) -> str:
        return KIND_NAMES[self.kind]

    @cached_property
    def packed(self) -> tuple[bytes, ...]:
        """The generators in packed form, in the order of ``gens``."""
        return tuple(map(pack, self.gens))

    def neighbors(self, p: Perm) -> list[Perm]:
        """p*s for each generator s, in the order of ``gens``."""
        return list(map(unpack, translated(self.packed, left_table(pack(p)))))


def _check_graph_degree(n: int) -> None:
    if not 2 <= n <= 12:
        raise ValueError(f"graph degree must be in 2..12, got {n}")


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
    def distance_index(self) -> dict[Perm, int]:
        return {p: d for d, sph in enumerate(self.spheres) for p in sph}

    @cached_property
    def packed(self) -> frozenset[bytes]:
        """The packed members."""
        return self.packed_within(self.radius)

    @property
    def size(self) -> int:
        return sum(map(len, self.packed_spheres))

    def packed_within(self, radius: int) -> frozenset[bytes]:
        """Packed members at distance at most ``radius`` from the center."""
        return frozenset().union(*self.packed_spheres[: radius + 1])


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


def _ball_budget_error(budgets: Budgets) -> CapacityError:
    return CapacityError(f"ball exceeds budget of {budgets.max_ball_size} vertices")


def ball(
    center: Perm,
    radius: int,
    gen: GeneratorSet,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> MetricBall:
    """Breadth-first expansion of the metric ball around ``center``."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if len(center) != gen.n:
        raise ValueError(f"degree mismatch: center {len(center)}, graph {gen.n}")
    spheres = []
    size = 0
    for level in islice(_levels(center, gen), radius + 1):
        size += len(level)
        if size > budgets.max_ball_size:
            raise _ball_budget_error(budgets)
        spheres.append(frozenset(level))
    return MetricBall(gen, center, radius, tuple(spheres))


_ball_memo: dict[tuple[GeneratorSet, int], MetricBall] = {}


def ball_of_identity(
    gen: GeneratorSet, radius: int, budgets: Budgets = DEFAULT_BUDGETS
) -> MetricBall:
    """Identity-centered ball, memoized per (generator set, radius).

    A memoized ball larger than ``budgets.max_ball_size`` raises exactly as
    building it would (a ball's running size only grows), so the memo can
    never dodge a tighter cap."""
    key = (gen, radius)
    got = _ball_memo.get(key)
    if got is None:
        got = _ball_memo[key] = ball(identity(gen.n), radius, gen, budgets)
    elif got.size > budgets.max_ball_size:
        raise _ball_budget_error(budgets)
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


def sphere(
    gen: GeneratorSet, s: int, budgets: Budgets = DEFAULT_BUDGETS
) -> frozenset[Perm]:
    """S_s(e): vertices at distance exactly s from the identity."""
    spheres = ball_of_identity(gen, s, budgets).packed_spheres
    return frozenset(map(unpack, spheres[s])) if s < len(spheres) else frozenset()


def distance(
    x: Perm,
    y: Perm,
    gen: GeneratorSet,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """Exact graph distance by bidirectional breadth-first search."""
    if len(x) != len(y) or len(x) != gen.n:
        raise ValueError("degree mismatch")
    if x == y:
        return 0
    dist_a = {x: 0}
    dist_b = {y: 0}
    front_a, front_b = [x], [y]
    depth_a = depth_b = 0
    while front_a and front_b:
        if len(dist_a) + len(dist_b) > 2 * budgets.max_ball_size:
            raise CapacityError("distance search exceeds budget")
        # expand the smaller frontier; generators are involutions so the
        # backward search uses the same expansion
        if len(front_a) <= len(front_b):
            front_a, depth_a = _expand(front_a, dist_a, depth_a, gen)
            hit = _meet(front_a, dist_b)
            if hit is not None:
                return depth_a + dist_b[hit]
        else:
            front_b, depth_b = _expand(front_b, dist_b, depth_b, gen)
            hit = _meet(front_b, dist_a)
            if hit is not None:
                return depth_b + dist_a[hit]
    raise UnreachableError(f"{format_perm(y)} not reachable from {format_perm(x)}")


def _expand(frontier, dist, depth, gen):
    nxt = []
    for v in frontier:
        for w in gen.neighbors(v):
            if w not in dist:
                dist[w] = depth + 1
                nxt.append(w)
    return nxt, depth + 1


def _meet(frontier, other_dist):
    best = None
    for v in frontier:
        if v in other_dist and (best is None or other_dist[v] < other_dist[best]):
            best = v
    return best


def intersection_size(b1: MetricBall, b2: MetricBall) -> int:
    """|members(b1) ∩ members(b2)| for balls over the same graph."""
    if b1.gen != b2.gen:
        raise ValueError("balls come from different graphs")
    return len(b1.members & b2.members)


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


def spheres_by_products(
    gen: GeneratorSet, up_to: int, budgets: Budgets = DEFAULT_BUDGETS
) -> list[frozenset[Perm]]:
    """Spheres built from generator-power sets: the distance-i sphere is the
    i-fold product set minus everything reachable with fewer factors."""
    e = identity(gen.n)
    power = {e}
    cumulative = {e}
    out = [frozenset([e])]
    for _ in range(up_to):
        power = {compose(a, s) for a in power for s in gen.gens}
        if len(power) + len(cumulative) > 2 * budgets.max_ball_size:
            raise CapacityError("product closure exceeds budget")
        out.append(frozenset(power - cumulative))
        cumulative |= power
    return out


@dataclass(frozen=True)
class SphereMax:
    """Largest r-ball overlap over center pairs at one distance s.

    ``value`` is None when the sphere is empty (s beyond the diameter), which
    is reported as absent rather than zero.  ``witnesses`` lists every
    attaining candidate: conjugacy-class strings for the all-transpositions
    graph, vertex strings otherwise.
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


def ball_overlap(
    gen: GeneratorSet,
    r: int,
    other: Perm,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """|B_r(e) ∩ B_r(other)| without materializing the second ball."""
    return _overlap_count(ball_of_identity(gen, r, budgets).packed, pack(other))


def max_ball_intersection_at(
    gen: GeneratorSet,
    r: int,
    s: int,
    budgets: Budgets = DEFAULT_BUDGETS,
    workers: int = 1,
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
    if gen.kind == KIND_ALL:
        members = ball_of_identity(gen, r, budgets).packed
        cands = [
            (str(ct), pack(class_representative(ct)))
            for ct in cycle_types(gen.n)
            if ct.min_transpositions == s
        ]
    else:
        big = ball_of_identity(gen, 2 * r, budgets)
        members = big.packed_within(r)
        sph = big.packed_spheres[s] if s < len(big.packed_spheres) else ()
        cands = [(format_perm(unpack(y)), y) for y in sorted(sph)]
    if not cands:
        return SphereMax(s, None, ())
    counts = run_mapped(partial(_overlap_count, members), [y for _, y in cands], workers)
    best = max(counts)
    wits = tuple(label for (label, _), c in zip(cands, counts) if c == best)
    return SphereMax(s, best, wits)


def max_ball_intersection(
    gen: GeneratorSet,
    r: int,
    budgets: Budgets = DEFAULT_BUDGETS,
    workers: int = 1,
) -> IntersectionMax:
    """Max |B_r(x) ∩ B_r(y)| over all pairs of distinct centers.

    Overlapping balls force d(x, y) <= 2r, so the scan covers s = 1..2r;
    one more erroneous pattern than this value always pins down an unknown
    center."""
    per_s = tuple(
        max_ball_intersection_at(gen, r, s, budgets, workers)
        for s in range(1, 2 * r + 1)
    )
    values = [sm.value for sm in per_s if sm.value is not None]
    if not values:
        raise ValueError("no vertex pairs at any distance in 1..2r")
    return IntersectionMax(r, max(values), per_s)


def scanned_radius(gen: GeneratorSet, r: int) -> int:
    """Radius of the identity ball an overlap scan at radius r reads: r for
    the all-transpositions family, whose candidates are class
    representatives, and 2r for the others, whose candidates are vertices
    of the ball's outer spheres."""
    return r if gen.kind == KIND_ALL else 2 * r


# (generator set, radius) -> (overlap maximum, size of the ball it scanned)
_overlap_memo: dict[tuple[GeneratorSet, int], tuple[IntersectionMax, int]] = {}


def overlap_of_identity(
    gen: GeneratorSet,
    r: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> IntersectionMax:
    """:func:`max_ball_intersection`, memoized per (generator set, radius).

    A hit raises ``CapacityError`` exactly when the scan would have: when
    the ball the scan reads (see :func:`scanned_radius`) is larger than
    ``budgets.max_ball_size``."""
    key = (gen, r)
    got = _overlap_memo.get(key)
    if got is None:
        best = max_ball_intersection(gen, r, budgets)
        size = ball_of_identity(gen, scanned_radius(gen, r), budgets).size
        _overlap_memo[key] = (best, size)
        return best
    best, size = got
    if size > budgets.max_ball_size:
        raise _ball_budget_error(budgets)
    return best


def prime_overlap(gen: GeneratorSet, best: IntersectionMax, scanned_size: int) -> None:
    """Install an externally loaded overlap maximum into the memo, with the
    size of the ball its scan read."""
    _overlap_memo[(gen, best.radius)] = (best, scanned_size)


def local_params(
    pi: Perm, gen: GeneratorSet, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, int, int]:
    """(c, a, b): neighbors of pi one step closer to / level with / one step
    farther from the identity.  They always sum to the valency."""
    e = identity(gen.n)
    i = distance(e, pi, gen, budgets)
    idx = ball_of_identity(gen, i + 1, budgets).distance_index
    c = a = b = 0
    for w in gen.neighbors(pi):
        d = idx[w]
        if d == i - 1:
            c += 1
        elif d == i:
            a += 1
        else:
            b += 1
    return c, a, b


def _classified_vertices(gen: GeneratorSet, budgets: Budgets):
    """(d, y, (c, a, b)) for every non-identity vertex y, level by level in
    breadth-first discovery order, where d is y's distance from the identity
    and c, a, b count its neighbors at distance d-1, d and d+1."""
    levels = bfs_levels(gen, budgets)
    idx = {p: d for d, lvl in enumerate(levels) for p in lvl}
    for d in range(1, len(levels)):
        for y in levels[d]:
            c = a = b = 0
            for w in gen.neighbors(y):
                dw = idx[w]
                if dw == d - 1:
                    c += 1
                elif dw == d:
                    a += 1
                else:
                    b += 1
            yield d, y, (c, a, b)


def local_params_all(
    gen: GeneratorSet, budgets: Budgets = DEFAULT_BUDGETS
) -> dict[Perm, tuple[int, int, int]]:
    """(c, a, b) for every non-identity vertex, from one whole-graph sweep."""
    return {y: cab for _, y, cab in _classified_vertices(gen, budgets)}


def bfs_levels(
    gen: GeneratorSet, budgets: Budgets = DEFAULT_BUDGETS
) -> list[list[Perm]]:
    """Whole-graph breadth-first levels from the identity, each in discovery
    order (by predecessor, then by generator)."""
    if gen.n > budgets.whole_graph_max_n:
        raise CapacityError(
            f"whole-graph search capped at degree {budgets.whole_graph_max_n}"
        )
    return [list(map(unpack, lvl)) for lvl in _levels(identity(gen.n), gen)]


def diameter(gen: GeneratorSet, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """Graph diameter: the eccentricity of the identity, which equals the
    diameter by vertex-transitivity."""
    return len(bfs_levels(gen, budgets)) - 1


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


def is_distance_regular(
    gen: GeneratorSet, budgets: Budgets = DEFAULT_BUDGETS
) -> RegularityResult:
    """Check whether closer/farther neighbor counts depend only on distance.

    Left translations are automorphisms carrying any base vertex to the
    identity, so scanning all vertices against the identity covers every
    pair.  On failure the witness pair is returned."""
    b_arr: list[int] = [len(gen.gens)]
    c_arr: list[int] = []
    for d, y, (c, _, b) in _classified_vertices(gen, budgets):
        if d > len(c_arr):
            # the first vertex of each level sets that level's reference
            ref, ref_vertex = (c, b), y
            c_arr.append(c)
            b_arr.append(b)
        elif (c, b) != ref:
            witness = RegularityWitness(
                base=format_perm(identity(gen.n)),
                dist=d,
                first=format_perm(ref_vertex),
                first_params=ref,
                second=format_perm(y),
                second_params=(c, b),
            )
            return RegularityResult(False, witness)
    # the last level has no farther neighbors, so its b is not in the array
    b_arr.pop()
    return RegularityResult(True, None, (tuple(b_arr), tuple(c_arr)))


def girth_cycle_check(
    gen: GeneratorSet,
    lengths,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> dict[int, bool]:
    """For each requested length, whether the graph has a simple cycle of
    that length.  Vertex-transitivity means cycles exist somewhere iff they
    exist through the identity, so the search is local."""
    out = {}
    for length in sorted(set(lengths)):
        if length < 3:
            raise ValueError(f"cycle length must be >= 3, got {length}")
        k = len(gen.gens)
        estimate = k * max(k - 1, 1) ** (length - 2)
        if estimate > budgets.max_cycle_search:
            raise CapacityError(f"cycle search for length {length} exceeds budget")
        out[length] = _has_cycle_through_identity(gen, length)
    return out


def _has_cycle_through_identity(gen: GeneratorSet, length: int) -> bool:
    e = identity(gen.n)
    closing = set(gen.neighbors(e))
    on_path = {e}

    def dfs(v: Perm, steps: int) -> bool:
        if steps == length - 1:
            return v in closing
        for w in gen.neighbors(v):
            if w == e or w in on_path:
                continue
            on_path.add(w)
            if dfs(w, steps + 1):
                return True
            on_path.remove(w)
        return False

    for v in gen.neighbors(e):
        on_path.add(v)
        if dfs(v, 1):
            return True
        on_path.remove(v)
    return False


def complete_bipartite_count(
    gen: GeneratorSet,
    p: int,
    q: int,
    at: Perm,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """Number of complete-bipartite K_{p,q} subgraphs through vertex ``at``.

    Every such subgraph lies inside the radius-2 ball around ``at``: the
    part not containing ``at`` consists of neighbors of ``at`` and the rest
    are common neighbors of that part.  Subgraphs are counted as unordered
    part pairs with full cross-adjacency (not necessarily induced).
    """
    from itertools import combinations
    from math import comb

    if not 1 <= p <= 4 or not 1 <= q <= 4:
        raise CapacityError("part sizes capped at 4")
    if gen.n > 6:
        raise CapacityError("subgraph search capped at degree 6")
    if len(at) != gen.n:
        raise ValueError("degree mismatch")

    nbr_cache: dict[Perm, frozenset[Perm]] = {}

    def nbrs(v: Perm) -> frozenset[Perm]:
        got = nbr_cache.get(v)
        if got is None:
            got = nbr_cache[v] = frozenset(gen.neighbors(v))
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


def build_graph_report(
    gen: GeneratorSet,
    r: int,
    budgets: Budgets = DEFAULT_BUDGETS,
    with_diameter: bool = True,
) -> GraphReport:
    lam, mu = lambda_mu(gen)
    per_radius = tuple(overlap_of_identity(gen, rr, budgets) for rr in range(1, r + 1))
    notes: list[str] = []
    diam: int | None = None
    if with_diameter:
        try:
            diam = diameter(gen, budgets)
        except CapacityError as exc:
            notes.append(f"diameter skipped: {exc}")
    else:
        notes.append("diameter skipped: disabled")
    return GraphReport(
        kind=gen.kind,
        n=gen.n,
        v=factorial(gen.n),
        k=gen.k,
        lam=lam,
        mu=mu,
        diameter=diam,
        per_radius=per_radius,
        notes=tuple(notes),
    )
