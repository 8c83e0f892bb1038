"""Independent brute-force oracles.

Everything here recomputes from first principles over explicitly built
graphs (itertools.permutations + plain BFS), sharing no code path with the
package's engine, so agreement is meaningful.  There are four exceptions.
The pattern-file reader is the CLI's line parser as it stood before the
CLI gained its whole-file path, kept as that path's reference.  The
step-by-step min-prefix is the experiments' diagnostic as it stood before
its one-pass scan, on the engine's packed balls.  The
threshold checks test the decoding guarantee (one pattern more than the
overlap maximum always decodes uniquely) with the engine's own balls,
over many more pattern sets than a decode would see.  The
full overlap scan reads, for adjacent and prefix swaps, every vertex of
every sphere of the engine's radius-2r ball: the reference for the
engine's scan by orbits, witness order included.  The scalar channel
draws are ``channel._draws`` as it stood before its streams were computed
64 at a time: one ``SplitMix64`` per draw, the reference for the lanes.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, count, permutations, product

# result types only, so the small-graph oracles compare as whole results
from permrec.cayley import (
    IntersectionMax,
    RegularityResult,
    RegularityWitness,
    SphereMax,
)
# the engine pieces the threshold checks run on
from permrec.cayley import GeneratorSet, ball, ball_of_identity, overlap_of_identity
from permrec.channel import _sample_distinct
from permrec.cli import UsageError
from permrec.perms import (
    PAD,
    class_representative,
    cycle_types,
    identity,
    left_inverse_table,
    left_table,
    pack,
    parse_perm,
    translated,
    unpack,
)
from permrec.rng import SplitMix64, derive_seed
from permrec.smallgraphs import SmallGraphReport

PAIRS = {
    "T": lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    "t": lambda n: [(i, i + 1) for i in range(n - 1)],
    "st": lambda n: [(0, i) for i in range(1, n)],
}


def sym_adjacency(kind: str, n: int) -> dict:
    """Graph on the permutations of range(n) where each generator swaps one
    position pair of the family."""
    adj = {}
    for p in permutations(range(n)):
        nbrs = []
        for i, j in PAIRS[kind](n):
            q = list(p)
            q[i], q[j] = q[j], q[i]
            nbrs.append(tuple(q))
        adj[p] = nbrs
    return adj


def bfs_dist(adj: dict, src) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def shortest_path_counts(adj: dict, src) -> dict:
    """The number of shortest paths from src to every vertex: each vertex,
    taken in order of distance, sums the counts of its neighbors one step
    closer."""
    dist = bfs_dist(adj, src)
    counts = {}
    for u in sorted(dist, key=dist.get):
        counts[u] = sum(counts[w] for w in adj[u] if dist[w] < dist[u]) if u != src else 1
    return counts


def ball_members(adj: dict, center, r: int) -> set:
    return {p for p, d in bfs_dist(adj, center).items() if d <= r}


def intersection_size(adj: dict, x, y, r: int) -> int:
    """|B_r(x) ∩ B_r(y)|, each ball from its own plain BFS."""
    return len(ball_members(adj, x, r) & ball_members(adj, y, r))


def spheres_by_products(adj: dict, up_to: int) -> list[set]:
    """Spheres around the identity from generator-power sets: the distance-i
    sphere is the i-fold product set minus everything reachable with fewer
    factors.  adj[p] must list p*s for every generator s."""
    e = tuple(range(len(next(iter(adj)))))
    power, reached = {e}, {e}
    out = [{e}]
    for _ in range(up_to):
        power = {w for p in power for w in adj[p]}
        out.append(power - reached)
        reached |= power
    return out


def all_pairs_dist(adj: dict) -> dict:
    return {u: bfs_dist(adj, u) for u in adj}


def overlap_maxima(adj: dict, r: int) -> dict:
    """Max |B_r(x) ∩ B_r(y)| per center distance s, over ALL vertex pairs."""
    dist = all_pairs_dist(adj)
    verts = list(adj)
    balls = {x: {z for z, d in dist[x].items() if d <= r} for x in verts}
    best: dict[int, int] = {}
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            s = dist[x][y]
            if 1 <= s <= 2 * r:
                v = len(balls[x] & balls[y])
                if v > best.get(s, -1):
                    best[s] = v
    return best


def overlap_max(adj: dict, r: int) -> int:
    return max(overlap_maxima(adj, r).values())


def triangle_and_codegree_maxima(adj: dict) -> tuple[int, int]:
    """(lambda, mu) straight from the definitions: common neighbors over
    adjacent pairs / distance-2 pairs."""
    dist = all_pairs_dist(adj)
    nbrs = {u: set(vs) for u, vs in adj.items()}
    lam = mu = 0
    verts = list(adj)
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            if dist[x][y] == 1:
                lam = max(lam, len(nbrs[x] & nbrs[y]))
            elif dist[x][y] == 2:
                mu = max(mu, len(nbrs[x] & nbrs[y]))
    return lam, mu


def cycle_length_counts(p) -> tuple:
    """Cycle type recomputed locally (counts of cycles by length)."""
    n = len(p)
    counts = [0] * n
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        length = 1
        seen.add(start)
        v = p[start]
        while v != start:
            seen.add(v)
            length += 1
            v = p[v]
        counts[length - 1] += 1
    return tuple(counts)


def class_by_filter(n: int, counts: tuple) -> set:
    """All degree-n permutations of the given cycle type, by filtering."""
    return {p for p in permutations(range(n)) if cycle_length_counts(p) == counts}


def factorization_count(n: int, target, length: int) -> int:
    """Ordered transposition sequences of the given length multiplying to
    target (right-to-left function composition, same as right-action
    products)."""
    swaps = []
    for i, j in combinations(range(n), 2):
        q = list(range(n))
        q[i], q[j] = q[j], q[i]
        swaps.append(tuple(q))
    count = 0
    for seq in product(swaps, repeat=length):
        acc = seq[0]
        for s in seq[1:]:
            acc = tuple(acc[v] for v in s)
        if acc == target:
            count += 1
    return count


def is_distance_regular_bruteforce(adj: dict) -> bool:
    dist = all_pairs_dist(adj)
    params: dict[int, tuple[int, int]] = {}
    for u in adj:
        for w in adj:
            d = dist[u][w]
            if d == 0:
                continue
            c = sum(1 for z in adj[w] if dist[u][z] == d - 1)
            b = sum(1 for z in adj[w] if dist[u][z] == d + 1)
            if d not in params:
                params[d] = (c, b)
            elif params[d] != (c, b):
                return False
    return True


def complete_bipartite_count_bruteforce(adj: dict, p: int, q: int, at) -> int:
    """Count K_{p,q} subgraphs through `at` by scanning unordered part pairs
    drawn from the radius-2 ball (any such subgraph fits inside it)."""
    dist = bfs_dist(adj, at)
    near = [v for v, d in dist.items() if d <= 2]
    nbrs = {u: set(adj[u]) for u in near}
    seen = set()
    count = 0
    for side_a in combinations(sorted(near), p):
        a_common = set(near)
        for v in side_a:
            a_common &= nbrs.get(v, set())
        if len(a_common) < q:
            continue
        for side_b in combinations(sorted(a_common), q):
            if set(side_a) & set(side_b):
                continue
            if at not in side_a and at not in side_b:
                continue
            key = frozenset((frozenset(side_a), frozenset(side_b)))
            if key in seen:
                continue
            seen.add(key)
            count += 1
    return count


def girth_has_cycle(adj: dict, length: int) -> bool:
    """Whether a simple cycle of the given length passes through the
    identity, by depth-first search over permutation tuples.

    A path of ``size`` vertices from e extends to w only if w lies within
    ``length - size`` steps of e: closing the cycle from w takes that many
    more edges, so no branch it prunes could have closed."""
    e = tuple(range(len(next(iter(adj)))))
    dist = bfs_dist(adj, e)
    on_path = {e}

    def extend(v, size: int) -> bool:
        if size == length:
            return e in adj[v]
        for w in adj[v]:
            if w not in on_path and dist[w] <= length - size:
                on_path.add(w)
                if extend(w, size + 1):
                    return True
                on_path.remove(w)
        return False

    return extend(e, 1)


# The small-graph scans as they stood before the bitset rewrite: one deque
# BFS per vertex, then frozenset intersections for every pair and radius.


def small_graph_bfs(graph, src: int) -> list[int]:
    """Distances from src; -1 marks unreachable vertices."""
    dist = [-1] * graph.v
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in graph.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def small_graph_report(graph, r: int):
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")
    dist = [small_graph_bfs(graph, u) for u in range(graph.v)]
    if any(d < 0 for row in dist for d in row):
        raise ValueError(f"graph {graph.name} is disconnected")
    diam = max(max(row) for row in dist)

    lam = 0
    mu = 0
    for u in range(graph.v):
        for w in range(u + 1, graph.v):
            if dist[u][w] in (1, 2):
                shared = len(graph.adj[u] & graph.adj[w])
                if dist[u][w] == 1:
                    lam = max(lam, shared)
                else:
                    mu = max(mu, shared)

    per_radius = []
    for rr in range(1, r + 1):
        balls = [
            frozenset(z for z in range(graph.v) if row[z] <= rr) for row in dist
        ]
        best: dict[int, tuple[int, list[str]]] = {}
        for u in range(graph.v):
            for w in range(u + 1, graph.v):
                s = dist[u][w]
                if not 1 <= s <= 2 * rr:
                    continue
                overlap = len(balls[u] & balls[w])
                cur = best.get(s)
                if cur is None or overlap > cur[0]:
                    best[s] = (overlap, [f"{u}-{w}"])
                elif overlap == cur[0]:
                    cur[1].append(f"{u}-{w}")
        per_s = tuple(
            SphereMax(s, best[s][0], tuple(best[s][1]))
            if s in best
            else SphereMax(s, None, ())
            for s in range(1, 2 * rr + 1)
        )
        values = [sm.value for sm in per_s if sm.value is not None]
        per_radius.append(IntersectionMax(rr, max(values), per_s))

    return SmallGraphReport(
        graph=graph.name,
        v=graph.v,
        k=graph.valency,
        lam=lam,
        mu=mu,
        diameter=diam,
        r=r,
        per_radius=tuple(per_radius),
    )


def small_graph_is_distance_regular(graph):
    dist = [small_graph_bfs(graph, u) for u in range(graph.v)]
    if any(d < 0 for row in dist for d in row):
        raise ValueError(f"graph {graph.name} is disconnected")
    if graph.valency is None:
        u = min(range(graph.v), key=lambda x: graph.degrees[x])
        w = max(range(graph.v), key=lambda x: graph.degrees[x])
        witness = RegularityWitness(
            base=str(u),
            dist=0,
            first=str(u),
            first_params=(0, graph.degrees[u]),
            second=str(w),
            second_params=(0, graph.degrees[w]),
        )
        return RegularityResult(False, witness)
    diam = max(max(row) for row in dist)
    ref: dict[int, tuple[int, int]] = {}
    ref_pair: dict[int, tuple[int, int]] = {}
    b_arr = [graph.valency]
    for u in range(graph.v):
        for w in range(graph.v):
            d = dist[u][w]
            if d == 0:
                continue
            c = sum(1 for z in graph.adj[w] if dist[u][z] == d - 1)
            b = sum(1 for z in graph.adj[w] if dist[u][z] == d + 1)
            if d not in ref:
                ref[d] = (c, b)
                ref_pair[d] = (u, w)
            elif ref[d] != (c, b):
                pu, pw = ref_pair[d]
                witness = RegularityWitness(
                    base=f"{pu}",
                    dist=d,
                    first=f"{pw}",
                    first_params=ref[d],
                    second=f"{w} (from {u})",
                    second_params=(c, b),
                )
                return RegularityResult(False, witness)
    c_arr = [ref[d][0] for d in range(1, diam + 1)]
    b_arr += [ref[d][1] for d in range(1, diam)]
    return RegularityResult(True, None, (tuple(b_arr), tuple(c_arr)))


def read_patterns_by_line(path):
    """The permutation tuples in a pattern file, parsed line by line, or the
    CLI's UsageError for an unreadable or malformed file."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read pattern file: {exc}")
    patterns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            patterns.append(parse_perm(line))
        except ValueError as exc:
            raise UsageError(f"pattern file line {lineno}: {exc}")
    if not patterns:
        raise UsageError("pattern file holds no patterns")
    if len({len(p) for p in patterns}) != 1:
        raise UsageError("patterns have mixed degrees")
    return patterns


def reconstruct_bruteforce(adj: dict, patterns, r: int) -> tuple:
    """The sorted vertices within distance r of every pattern, each ball
    from its own plain BFS."""
    cands = set(adj)
    for p in patterns:
        cands &= ball_members(adj, tuple(p), r)
    return tuple(sorted(cands))


def _in_every_ball(members: frozenset[bytes], pool, patterns: list[bytes]):
    """The packed z of ``pool``, lazily, inside the ball around every packed
    pattern y: y^-1 z lies in the packed B_r(e) ``members``."""
    tables = [left_inverse_table(y) for y in patterns]
    for z in pool:
        for t in tables:
            if z.translate(t) not in members:
                break
        else:
            yield z


def min_prefix_for_unique_stepwise(members: frozenset[bytes], patterns) -> int:
    """The least k such that the first k patterns' radius-r balls share one
    member, or len(patterns) if none does, by filtering the candidate set
    again after each pattern; ``members`` is the packed B_r(e)."""
    first, *rest = map(pack, patterns)
    cands = set(translated(members, left_table(first)))
    if len(cands) == 1:
        return 1
    for i, y in enumerate(rest, start=2):
        cands = set(_in_every_ball(members, cands, [y]))
        if len(cands) == 1:
            return i
    return len(patterns)


def scalar_draws(x: bytes, spec, start: int = 0):
    """The channel's packed outputs for packed x at draw indices start,
    start+1, ...: draw i reads its own stream
    ``SplitMix64(derive_seed(seed, i))`` as the error count j (uniform on
    0..max_errors, not drawn in exact mode), then one generator index per
    error, and right-multiplies x by those j generators."""
    gens = spec.gen.packed
    k = len(gens)
    pad = PAD[len(x)]
    seed, errors, exact = spec.seed, spec.max_errors, spec.exact_errors
    for index in count(start):
        rng = SplitMix64(derive_seed(seed, index))
        y = x
        for _ in range(errors if exact else rng.below(errors + 1)):
            y = gens[rng.below(k)].translate(y + pad)  # y + pad is left_table(y)
        yield y


def _subset_is_unique(
    members: frozenset[bytes], patterns: list[bytes], source: bytes
) -> bool:
    """True if the packed patterns pin down a single candidate (which must
    then be the source).  Fast path for sharpness sweeps: intersect two
    translated balls, then filter what is left by the other patterns."""
    y1, y2 = patterns[0], patterns[1] if len(patterns) > 1 else patterns[0]
    pool = set(translated(members, left_table(y1)))
    pool.intersection_update(translated(members, left_table(y2)))
    pool.discard(source)
    return next(_in_every_ball(members, pool, patterns[2:]), None) is None


def exhaustive_threshold_check(gen: GeneratorSet, r: int) -> int:
    """Try every subset of threshold size from the identity ball and count
    how many fail to reconstruct uniquely (the guarantee says none do)."""
    threshold = overlap_of_identity(gen, r).value + 1
    members = ball_of_identity(gen, r).packed
    source = pack(identity(gen.n))
    failures = 0
    for subset in combinations(sorted(members), threshold):
        if not _subset_is_unique(members, list(subset), source):
            failures += 1
    return failures


def sampled_threshold_check(gen: GeneratorSet, r: int, samples: int, seed: int) -> int:
    """Same as :func:`exhaustive_threshold_check` on seeded random subsets."""
    threshold = overlap_of_identity(gen, r).value + 1
    members = ball_of_identity(gen, r).packed
    ball_list = sorted(members)
    source = pack(identity(gen.n))
    rng = SplitMix64(seed)
    failures = 0
    for _ in range(samples):
        picks = _sample_distinct(rng, ball_list, threshold)
        if not _subset_is_unique(members, picks, source):
            failures += 1
    return failures


def full_overlap_scan(gen: GeneratorSet, r: int) -> tuple[SphereMax, ...]:
    """Max |B_r(e) ∩ B_r(y)| for each distance s = 1..2r, scanning one
    representative per conjugacy class, in ``cycle_types`` order, for all
    transpositions and every vertex of sphere s of the radius-2r ball, in
    sorted order, otherwise.  The balls are built unmemoized."""
    members = ball(identity(gen.n), r, gen).packed
    if gen.kind == "T":
        spheres = [[] for _ in range(2 * r + 1)]
        for ct in cycle_types(gen.n):
            if ct.min_transpositions <= 2 * r:
                spheres[ct.min_transpositions].append(pack(class_representative(ct)))
    else:
        spheres = [sorted(sph) for sph in ball(identity(gen.n), 2 * r, gen).packed_spheres]
    out = []
    for s in range(1, 2 * r + 1):
        cands = spheres[s] if s < len(spheres) else []
        counts = [len(members.intersection(translated(members, left_inverse_table(y))))
                  for y in cands]
        best = max(counts, default=None)
        wits = tuple(unpack(y) for y, c in zip(cands, counts) if c == best)
        out.append(SphereMax(s, best, wits))
    return tuple(out)
