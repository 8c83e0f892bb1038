"""Explicit small graphs: the oracle substrate for closed-form checks.

Builders for Hamming, Johnson, lattice, triangular and complete multipartite
graphs, an edge-list import format (one ``u v`` pair per line, 0-based), and
an exhaustive metric report that assumes nothing about symmetry: every pair
of vertices is scanned.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .cayley import IntersectionMax, RegularityResult, RegularityWitness, SphereMax
from .errors import CapacityError

# small_graph_report keeps a v x v distance table and intersects balls for
# every pair, so its cost grows as v^2 in memory and up to v^3 in time; at
# this cap the complete graph's report at r=2 takes about 1.3 s (2-CPU host)
MAX_VERTICES = 250


@dataclass(frozen=True)
class SmallGraph:
    """Simple undirected graph on vertices 0..v-1."""

    name: str
    adj: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.adj) == 0:
            raise ValueError("graph has no vertices")
        _check_vertex_count(len(self.adj))
        for u, nb in enumerate(self.adj):
            if u in nb:
                raise ValueError(f"self-loop at vertex {u}")
            for w in nb:
                if not 0 <= w < len(self.adj):
                    raise ValueError(f"edge endpoint {w} out of range")
                if u not in self.adj[w]:
                    raise ValueError(f"edge {u}-{w} is not symmetric")

    @property
    def v(self) -> int:
        return len(self.adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adj)

    @property
    def valency(self) -> int | None:
        degs = set(self.degrees)
        return degs.pop() if len(degs) == 1 else None

    def bfs(self, src: int) -> list[int]:
        """Distances from src; -1 marks unreachable vertices."""
        dist = [-1] * self.v
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


def _check_vertex_count(v: int) -> None:
    if v > MAX_VERTICES:
        raise CapacityError(f"graph capped at {MAX_VERTICES} vertices")


def graph_from_edges(name: str, v: int, edges) -> SmallGraph:
    _check_vertex_count(v)  # before the adjacency, whose size follows v
    adj = [set() for _ in range(v)]
    for u, w in edges:
        if u == w:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u].add(w)
        adj[w].add(u)
    return SmallGraph(name, tuple(frozenset(a) for a in adj))


def parse_edge_list(text: str, name: str = "imported") -> SmallGraph:
    """Parse the ``u v`` per-line edge format (0-based, blank lines and
    ``#`` comments ignored)."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {raw!r}")
        if u < 0 or w < 0:
            raise ValueError(f"line {lineno}: negative vertex id")
        top = max(top, u, w)
        edges.append((u, w))
    if not edges:
        raise ValueError("no edges in input")
    return graph_from_edges(name, top + 1, edges)


def hamming_graph(n: int, q: int) -> SmallGraph:
    """Words of length n over a q-letter alphabet; edges join words that
    differ in exactly one position."""
    if n < 1 or q < 2:
        raise ValueError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if q**n > MAX_VERTICES:
        raise CapacityError("Hamming graph too large")
    words = list(itertools.product(range(q), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for w in words:
        for pos in range(n):
            for letter in range(w[pos] + 1, q):
                other = list(w)
                other[pos] = letter
                edges.append((index[w], index[tuple(other)]))
    return graph_from_edges(f"hamming(n={n},q={q})", len(words), edges)


def lattice_graph(q: int) -> SmallGraph:
    """Rook's graph on a q x q grid: the two-letter Hamming graph."""
    g = hamming_graph(2, q)
    return SmallGraph(f"lattice(q={q})", g.adj)


def johnson_graph(n: int, e: int) -> SmallGraph:
    """e-subsets of an n-set; edges join subsets sharing e-1 elements."""
    if not 1 <= e <= n - 1:
        raise ValueError(f"need 1 <= e <= n-1, got e={e}, n={n}")
    subsets = [frozenset(c) for c in itertools.combinations(range(n), e)]
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for i, s in enumerate(subsets):
        for out in s:
            for inn in range(n):
                if inn not in s:
                    other = index[s - {out} | {inn}]
                    if other > i:
                        edges.append((i, other))
    return graph_from_edges(f"johnson(n={n},e={e})", len(subsets), edges)


def triangular_graph(n: int) -> SmallGraph:
    """2-subsets of an n-set, adjacent when they intersect."""
    g = johnson_graph(n, 2)
    return SmallGraph(f"triangular(n={n})", g.adj)


def complete_multipartite_graph(parts: int, part_size: int) -> SmallGraph:
    """``parts`` groups of ``part_size`` vertices, all cross edges present."""
    if parts < 2 or part_size < 1:
        raise ValueError("need at least 2 parts of at least 1 vertex")
    v = parts * part_size
    edges = [
        (u, w)
        for u in range(v)
        for w in range(u + 1, v)
        if u // part_size != w // part_size
    ]
    return graph_from_edges(f"multipartite(t={parts},m={part_size})", v, edges)


@dataclass(frozen=True)
class SmallGraphReport:
    """Exhaustively measured metric profile of an explicit graph."""

    graph: str
    v: int
    k: int | None
    lam: int
    mu: int
    diameter: int
    per_radius: tuple[IntersectionMax, ...]

    @property
    def final(self) -> IntersectionMax:
        return self.per_radius[-1]

    def n_value(self, r: int) -> int:
        return self.per_radius[r - 1].value

    def to_doc(self) -> dict:
        final = self.final
        return {
            "graph": self.graph,
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
            "notes": [],
        }


def small_graph_report(graph: SmallGraph, r: int) -> SmallGraphReport:
    """Measure the full profile by scanning every vertex pair.

    No vertex-transitivity is assumed; the triangle and common-neighbor
    maxima are taken over all adjacent and distance-2 pairs, and the ball
    overlap maxima over all distinct pairs grouped by distance."""
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")
    dist = [graph.bfs(u) for u in range(graph.v)]
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
        per_radius=tuple(per_radius),
    )


def small_graph_is_distance_regular(graph: SmallGraph) -> RegularityResult:
    """Full-definition check over all vertex pairs, witness on failure."""
    dist = [graph.bfs(u) for u in range(graph.v)]
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
