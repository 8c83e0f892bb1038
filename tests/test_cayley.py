import dataclasses
import time
from collections import Counter
from functools import partial
from itertools import permutations
from math import comb, factorial, prod
from operator import mul

import pytest

from permrec import cayley, formulas
from permrec.cayley import (
    GeneratorSet,
    RegularityWitness,
    ball,
    ball_of_identity,
    ball_overlap,
    bfs_levels,
    build_graph_report,
    class_walk,
    complete_bipartite_count,
    diameter,
    distance,
    girth_cycle_check,
    is_distance_regular,
    lambda_mu,
    local_params,
    max_ball_intersection,
    max_ball_intersection_at,
    clear_ball_memo,
    sphere,
    witness_vertices,
)
from permrec.errors import CapacityError
from permrec.perms import (
    class_representative,
    compose,
    conjugacy_class_size,
    cycle_count,
    cycle_type,
    cycle_types,
    enumerate_class,
    identity,
    inverse,
    left_table,
    pack,
    parse_cycle_type,
    parse_perm,
    translated,
    transposition,
    unpack,
)

import oracles

KINDS = ("T", "t", "st")


def oracle_graph(kind):
    """(g, adj): the family at n=5 and its brute-force adjacency."""
    return GeneratorSet.of_kind(kind, 5), oracles.sym_adjacency(kind, 5)


class TestGeneratorSet:
    def test_sizes(self):
        for n in range(2, 9):
            assert GeneratorSet.all_transpositions(n).k == comb(n, 2)
            assert GeneratorSet.adjacent(n).k == n - 1
            assert GeneratorSet.prefix(n).k == n - 1

    def test_all_generators_are_involutions(self):
        for kind in KINDS:
            g = GeneratorSet.of_kind(kind, 5)
            e = identity(5)
            for s in g.gens:
                assert s != e
                assert compose(s, s) == e

    def test_keyed_by_kind_and_degree(self):
        assert [f.name for f in dataclasses.fields(GeneratorSet)] == ["kind", "n"]
        g = GeneratorSet.of_kind("T", 6)
        assert g == GeneratorSet.all_transpositions(6)
        assert hash(g) == hash(GeneratorSet.all_transpositions(6))

    def test_separately_built_sets_share_the_memo(self):
        clear_ball_memo()
        first = ball_of_identity(GeneratorSet.prefix(5), 2)
        assert ball_of_identity(GeneratorSet.of_kind("st", 5), 2) is first

    @pytest.mark.parametrize("kind, n", [('explicit', 4), ("T", 1), ("T", 13)])
    def test_rejects_unknown_kind_and_degree(self, kind, n):
        with pytest.raises(ValueError):
            GeneratorSet(kind, n)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generates_whole_group(self, kind, n):
        levels = bfs_levels(GeneratorSet.of_kind(kind, n))
        assert sum(len(l) for l in levels) == factorial(n)

    def test_neighbors_match_generic_composition(self):
        p = parse_perm("[3,5,1,4,2]")
        for kind in KINDS:
            g = GeneratorSet.of_kind(kind, 5)
            packed = translated(g.packed, left_table(pack(p)))
            assert list(map(unpack, packed)) == [compose(p, s) for s in g.gens]


class TestBall:
    def test_radius_zero(self):
        g = GeneratorSet.all_transpositions(4)
        b = ball(identity(4), 0, g)
        assert b.members == {identity(4)}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_radius_one_size(self, n):
        g = GeneratorSet.all_transpositions(n)
        assert ball_of_identity(g, 1).size == 1 + comb(n, 2)

    def test_two_ball_of_degree_four(self):
        g = GeneratorSet.all_transpositions(4)
        b = ball_of_identity(g, 2)
        assert [len(s) for s in b.spheres] == [1, 6, 11]
        assert len(enumerate_class(parse_cycle_type("1^1 3^1"))) + len(
            enumerate_class(parse_cycle_type("2^2"))
        ) == 11

    @pytest.mark.parametrize("kind", KINDS)
    def test_spheres_match_oracle(self, kind):
        g = GeneratorSet.of_kind(kind, 4)
        adj = oracles.sym_adjacency(kind, 4)
        dist = oracles.bfs_dist(adj, tuple(range(4)))
        b = ball_of_identity(g, 3)
        for d, sph in enumerate(b.spheres):
            assert sph == {p for p, dd in dist.items() if dd == d}

    def test_sphere_partition_disjoint_and_exhaustive(self):
        for kind in KINDS:
            for n in (3, 4, 5):
                levels = bfs_levels(GeneratorSet.of_kind(kind, n))
                seen = set()
                for lvl in levels:
                    as_set = set(lvl)
                    assert not (seen & as_set)
                    seen |= as_set
                assert len(seen) == factorial(n)

    def test_ball_beyond_diameter_stops(self):
        g = GeneratorSet.all_transpositions(3)
        b = ball(identity(3), 9, g)
        assert b.size == 6
        assert len(b.spheres) == 3
        # built and memoized at the diameter, 2: one entry for every radius past it
        assert b.radius == cayley.ball_radius(g, 9) == 2
        clear_ball_memo()
        assert ball_of_identity(g, 9) is ball_of_identity(g, 2) is ball_of_identity(g, 50)

    def test_capacity_guard(self, monkeypatch):
        g = GeneratorSet.all_transpositions(6)
        clear_ball_memo()
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", 50)
        with pytest.raises(CapacityError, match="^ball exceeds budget of 50 vertices$"):
            ball(identity(6), 3, g)
        with pytest.raises(CapacityError):
            ball_of_identity(g, 3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_closed_form_sphere_sizes_match_the_walk(self, kind):
        for n in range(2, 9):
            g = GeneratorSet.of_kind(kind, n)
            walked = ball(identity(n), diameter(g), g).packed_spheres
            assert cayley._SPHERE_SIZES[kind](n) == tuple(map(len, walked)), n

    def test_capacity_refused_before_any_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(cayley, "_levels", no_walk)
        message = f"^ball exceeds budget of {cayley.MAX_BALL_SIZE} vertices$"
        with pytest.raises(CapacityError, match=message):
            ball(identity(12), 5, GeneratorSet.all_transpositions(12))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            ball(identity(3), 1, GeneratorSet.all_transpositions(4))

    def test_empty_sphere_is_empty_set(self, monkeypatch):
        g = GeneratorSet.all_transpositions(3)
        assert sphere(g, 5) == frozenset()
        # past the diameter nothing is built; each of these walked the whole
        # group, and the first two then overran the ball cap
        monkeypatch.setattr(cayley, "ball", None)
        clear_ball_memo()
        start = time.perf_counter()
        assert sphere(GeneratorSet.all_transpositions(12), 12) == frozenset()
        assert sphere(GeneratorSet.prefix(11), 16) == frozenset()
        assert sphere(GeneratorSet.adjacent(9), 37) == frozenset()
        assert time.perf_counter() - start < 0.5


class TestDistance:
    def test_reflexive(self):
        g = GeneratorSet.adjacent(5)
        x = parse_perm("[3,5,1,4,2]")
        assert distance(x, x, g) == 0

    def test_adjacent_swap(self):
        g = GeneratorSet.adjacent(5)
        assert distance(identity(5), parse_perm("[2,1,3,4,5]"), g) == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_reversal_is_antipodal_for_adjacent(self, n):
        g = GeneratorSet.adjacent(n)
        reversal = tuple(reversed(range(n)))
        assert distance(identity(n), reversal, g) == comb(n, 2)

    def test_non_permutations_rejected_before_any_walk(self, monkeypatch):
        monkeypatch.setattr(cayley, "_levels", None)
        g = GeneratorSet.prefix(9)
        with pytest.raises(ValueError, match="not a permutation"):
            distance(identity(9), (0,) * 9, g)
        with pytest.raises(ValueError, match="not a permutation"):
            distance((0,) * 9, identity(9), g)
        with pytest.raises(ValueError, match="not a permutation"):
            local_params((1, 1, 2, 3, 4, 5, 6, 7, 8), g)
        with pytest.raises(ValueError, match="not a permutation"):
            ball((0, 0, 1, 1), 1, GeneratorSet.all_transpositions(4))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(2, 8))
    def test_point_queries_match_oracle_everywhere(self, kind, n):
        g, adj = GeneratorSet.of_kind(kind, n), oracles.sym_adjacency(kind, n)
        e = identity(n)
        dist = oracles.bfs_dist(adj, e)
        assert len(dist) == factorial(n)
        for p, d in dist.items():
            assert distance(e, p, g) == d
            want = tuple(sum(dist[w] == d + step for w in adj[p]) for step in (-1, 0, 1))
            assert local_params(p, g) == want
            if kind == "T":
                c, b = formulas.local_params_formula(cycle_type(p))
                assert want == (c, 0, b)
        # distances from a center other than the identity
        x = tuple(reversed(range(n)))
        for p, d in oracles.bfs_dist(adj, x).items():
            assert distance(x, p, g) == d

    def test_far_vertices_need_no_walk(self, monkeypatch):
        monkeypatch.setattr(cayley, "_levels", None)
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", 1)
        for n, want in ((10, 9), (12, 11)):
            g = GeneratorSet.all_transpositions(n)
            cycle = (*range(1, n), 0)
            assert distance(identity(n), cycle, g) == want
            assert local_params(cycle, g) == (comb(n, 2), 0, 0)
        reversal = tuple(reversed(range(12)))
        for kind, want in (("t", 66), ("st", 16)):
            g = GeneratorSet.of_kind(kind, 12)
            assert distance(identity(12), reversal, g) == want
            c, a, b = local_params(reversal, g)
            assert a == 0 and c + b == g.k and c >= 1
        # the reversal is the adjacent-swap graph's one antipode
        assert local_params(reversal, GeneratorSet.adjacent(12)) == (11, 0, 0)


class TestIntersection:
    def test_self_intersection(self):
        g = GeneratorSet.all_transpositions(4)
        e = identity(4)
        size = ball_of_identity(g, 2).size
        assert oracles.intersection_size(oracles.sym_adjacency("T", 4), e, e, 2) == size
        assert ball_overlap(g, 2, e) == size

    def test_far_apart_balls_are_disjoint(self):
        g = GeneratorSet.adjacent(5)
        reversal = tuple(reversed(range(5)))  # distance 10 > 2
        assert not ball(identity(5), 1, g).members & ball(reversal, 1, g).members
        assert oracles.intersection_size(oracles.sym_adjacency("t", 5), identity(5), reversal, 1) == 0

    def test_three_cycle_shares_its_squares(self):
        # a 3-cycle target shares exactly mu = 3 one-error patterns
        from permrec.perms import CycleType

        for n in (4, 5, 6):
            g = GeneratorSet.all_transpositions(n)
            counts = [0] * n
            counts[0] = n - 3
            counts[2] = 1
            y = class_representative(CycleType(tuple(counts)))
            b1 = ball_of_identity(g, 1)
            b2 = ball(y, 1, g)
            assert len(b1.members & b2.members) == 3
            assert ball_overlap(g, 1, y) == 3
            assert oracles.intersection_size(oracles.sym_adjacency("T", n), identity(n), y, 1) == 3

    def test_symmetry_and_translation_invariance(self):
        g = GeneratorSet.prefix(4)
        adj = oracles.sym_adjacency("st", 4)
        x = parse_perm("[2,1,3,4]")
        y = parse_perm("[3,4,1,2]")
        h = parse_perm("[4,2,1,3]")
        want = oracles.intersection_size(adj, x, y, 2)
        assert oracles.intersection_size(adj, y, x, 2) == want
        for cx, cy in ((x, y), (y, x), (compose(h, x), compose(h, y))):
            assert len(ball(cx, 2, g).members & ball(cy, 2, g).members) == want
        assert ball_overlap(g, 2, compose(inverse(x), y)) == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_vertex_matches_the_oracle(self, kind):
        # all transpositions read the value of the vertex's class
        g, adj = oracle_graph(kind)
        for p in permutations(range(5)):
            assert ball_overlap(g, 2, p) == oracles.intersection_size(adj, identity(5), p, 2), p

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [(0, 0, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 3, 5)])
    def test_non_permutation_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="not a permutation"):
            ball_overlap(GeneratorSet.of_kind(kind, 5), 2, bad)


class TestLambdaMu:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_all_transpositions(self, n):
        assert lambda_mu(GeneratorSet.all_transpositions(n)) == (0, 3)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_adjacent(self, n):
        assert lambda_mu(GeneratorSet.adjacent(n)) == (0, 2)

    def test_adjacent_degree_three_has_unique_midpoints(self):
        # the 6-cycle: every distance-2 pair has exactly one common neighbor
        assert lambda_mu(GeneratorSet.adjacent(3)) == (0, 1)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_prefix(self, n):
        assert lambda_mu(GeneratorSet.prefix(n)) == (0, 1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_definition_oracle(self, kind, n):
        adj = oracles.sym_adjacency(kind, n)
        assert lambda_mu(GeneratorSet.of_kind(kind, n)) == (
            oracles.triangle_and_codegree_maxima(adj)
        )


class TestOverlapMaxima:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    def test_matches_all_pairs_oracle(self, kind, n, r):
        adj = oracles.sym_adjacency(kind, n)
        expected = oracles.overlap_maxima(adj, r)
        got = max_ball_intersection(GeneratorSet.of_kind(kind, n), r)
        for sm in got.per_s:
            assert sm.value == expected.get(sm.s), f"{kind} n={n} r={r} s={sm.s}"
        assert got.value == max(expected.values())

    def test_known_sphere_values(self):
        assert max_ball_intersection_at(GeneratorSet.all_transpositions(5), 2, 4).value == 20
        assert max_ball_intersection_at(GeneratorSet.all_transpositions(4), 2, 3).value == 12
        for n in (4, 5, 6):
            g = GeneratorSet.adjacent(n)
            assert max_ball_intersection_at(g, 2, 1).value == 2 * (n - 1)
            assert max_ball_intersection_at(g, 2, 2).value == 2 * (n - 1)

    @pytest.mark.parametrize("kind", ["t", "st"])
    def test_sphere_tables_match_brute_force_to_nine(self, kind):
        for n in range(3, 10):
            g = GeneratorSet.of_kind(kind, n)
            for s, want in formulas.bubble_star_sphere_overlaps(kind, n).items():
                if want is not None:
                    assert max_ball_intersection_at(g, 2, s).value == want, (n, s)

    @pytest.mark.parametrize("kind", KINDS)
    def test_orbit_scan_matches_full_scan(self, kind):
        # values, and witnesses expanded into the vertices they stand for,
        # order included, as a scan of every vertex, at every distance; the
        # adjacent-swap pass is cheap enough to check at degree 9 too
        for n in range(2, 10 if kind == "t" else 9):
            g = GeneratorSet.of_kind(kind, n)
            for r in (1, 2, 3):
                got = tuple(
                    dataclasses.replace(sm, witnesses=witness_vertices(g, sm))
                    for sm in map(partial(max_ball_intersection_at, g, r), range(1, 2 * r + 1))
                )
                assert got == oracles.full_overlap_scan(g, r), (n, r)

    def test_adjacent_pass_matches_the_full_scan_at_degree_10(self):
        # one pass gives every distance: values and every attaining vertex, sorted
        g = GeneratorSet.adjacent(10)
        assert max_ball_intersection(g, 3).per_s == oracles.full_overlap_scan(g, 3)

    @pytest.mark.parametrize("n, r", [(4, 5), (9, 1), (9, 2), (9, 3), (10, 4)])
    def test_class_algebra_matches_the_ball_scan(self, n, r):
        # past the degrees above: values, witnesses and their order, as B_r
        # against one translate per class representative
        g = GeneratorSet.all_transpositions(n)
        got = tuple(max_ball_intersection_at(g, r, s) for s in range(1, 2 * r + 1))
        assert got == oracles.full_overlap_scan(g, r)

    @pytest.mark.parametrize("kind", KINDS)
    def test_scan_reads_only_the_radius_r_ball(self, kind):
        # all transpositions read the class algebra and build no ball
        g = GeneratorSet.of_kind(kind, 6)
        clear_ball_memo()
        max_ball_intersection(g, 2)
        assert list(cayley._ball_memo) == ([] if kind == "T" else [(g, 2)])

    def test_adjacent_pass_refuses_a_radius_2r_ball_past_the_cap(self, monkeypatch):
        # t n=6: B_2 has 1+5+14 = 20 vertices and B_4, whose vertices the
        # pass counts, 1+5+14+29+49 = 98
        g = GeneratorSet.adjacent(6)
        want = max_ball_intersection(g, 2)
        clear_ball_memo()
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", 97)
        monkeypatch.setattr(cayley, "_levels", None)
        message = "^ball exceeds budget of 97 vertices$"
        with pytest.raises(CapacityError, match=message):
            max_ball_intersection(g, 2)
        # every distance at radius 2 refuses, s=1 included, before any walk
        with pytest.raises(CapacityError, match=message):
            max_ball_intersection_at(g, 2, 1)
        assert cayley._ball_memo == {}
        monkeypatch.undo()
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", 98)
        assert max_ball_intersection(g, 2) == want

    def test_prefix_scan_refuses_witnesses_past_the_cap(self, monkeypatch):
        # st n=7: B_2 has 37 vertices; one orbit of 30 vertices attains at
        # s=2 and one of 60 at s=4
        g = GeneratorSet.prefix(7)
        want = {s: max_ball_intersection_at(g, 2, s) for s in (2, 4)}
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", 40)
        assert len(witness_vertices(g, want[2])) == 30

        def no_expansion(*args, **kwargs):
            raise AssertionError("expanded")

        # the scans expand nothing, so both pass under the cap; only the
        # expansion of the 60-vertex orbit is refused, by its size
        monkeypatch.setattr(cayley, "iter_class", no_expansion)
        for s, sm in want.items():
            assert max_ball_intersection_at(g, 2, s) == sm
            assert len(sm.witnesses) == 1
        with pytest.raises(CapacityError, match="^witnesses at distance 4 exceeds budget of 40 vertices$"):
            witness_vertices(g, want[4])

    def test_adjacent_radius_past_the_cap_refused_before_any_ball(self, monkeypatch):
        # t n=12: B_14 holds 2,097,484 vertices, past the cap, and is refused
        # by its closed-form size with no ball built; B_12 holds 762,007, so
        # radius 6 passes the check and goes on to build B_6
        g = GeneratorSet.adjacent(12)
        assert (cayley.ball_size(g, 14), cayley.ball_size(g, 12)) == (2_097_484, 762_007)
        clear_ball_memo()
        built = []

        def no_ball(gen, radius):
            built.append(radius)
            raise LookupError("built")

        monkeypatch.setattr(cayley, "ball_of_identity", no_ball)
        with pytest.raises(CapacityError, match="^ball exceeds budget of 2000000 vertices$"):
            max_ball_intersection(g, 7)
        assert built == []
        with pytest.raises(LookupError, match="built"):
            max_ball_intersection(g, 6)
        assert built == [6]

    def test_absent_sphere_reports_none(self):
        g = GeneratorSet.all_transpositions(3)  # diameter 2
        sm = max_ball_intersection_at(g, 2, 4)
        assert sm.value is None
        assert sm.witnesses == ()

    def test_witnesses_are_classes_for_all_transpositions(self):
        g = GeneratorSet.all_transpositions(5)
        got = max_ball_intersection(g, 2)
        assert got.value == 27
        assert got.best_s == (2,)
        assert got.witnesses[2] == ((1, 2, 0, 3, 4),)
        # two classes attain at r=3, s=3: their representatives in
        # cycle_types order, each labelled by its class
        sm = max_ball_intersection_at(g, 3, 3)
        assert sm.witnesses == ((1, 2, 3, 0, 4), (1, 2, 0, 4, 3))
        assert [cayley.witness_label(g, y) for y in sm.witnesses] == ["1^1 4^1", "2^1 3^1"]

    def test_witnesses_are_vertices_for_adjacent(self):
        # the pass keeps every attaining vertex, sorted, and nothing expands them
        g = GeneratorSet.adjacent(4)
        sm = max_ball_intersection_at(g, 1, 1)
        assert sm.witnesses == ((0, 1, 3, 2), (0, 2, 1, 3), (1, 0, 2, 3))
        assert witness_vertices(g, sm) == sm.witnesses
        assert [cayley.witness_label(g, y) for y in witness_vertices(g, sm)] == [
            "[1,2,4,3]", "[1,3,2,4]", "[2,1,3,4]",
        ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_witness_labels_read_back_to_their_vertices(self, kind):
        # every candidate a scan can keep: a representative of each class
        # but the identity's for T, each vertex but the identity otherwise;
        # its output label names it
        for n in range(2, 7):
            g = GeneratorSet.of_kind(kind, n)
            if kind == "T":
                cands = [class_representative(ct) for ct in cycle_types(n)
                         if ct.min_transpositions]
            else:
                cands = [unpack(y) for sph in ball_of_identity(g, diameter(g)).packed_spheres[1:]
                         for y in sph]
            for y in cands:
                label = cayley.witness_label(g, y)
                if kind == "T":
                    assert class_representative(parse_cycle_type(label)) == y, (n, label)
                else:
                    assert parse_perm(label) == y, (n, label)

    def test_workers_do_not_change_results(self):
        # prefix swaps are the one family whose scan maps to workers
        g = GeneratorSet.prefix(5)
        serial = max_ball_intersection(g, 2, workers=1)
        parallel = max_ball_intersection(g, 2, workers=2)
        assert serial == parallel

    def test_bad_arguments(self):
        g = GeneratorSet.adjacent(4)
        with pytest.raises(ValueError):
            max_ball_intersection_at(g, 0, 1)
        with pytest.raises(ValueError):
            max_ball_intersection_at(g, 1, 3)


class TestClassCharacters:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_columns_are_orthogonal(self, n):
        # sum over shapes of X(C) X(C') is n!/|C| if C = C', 0 otherwise
        table = cayley._class_characters(n)
        assert table.types == tuple(cycle_types(n))
        assert table.sizes == tuple(map(conjugacy_class_size, cycle_types(n)))
        assert sum(table.sizes) == factorial(n)
        columns = list(zip(*table.characters))
        for i, a in enumerate(columns):
            for j, b in enumerate(columns):
                want = factorial(n) // table.sizes[i] if i == j else 0
                assert sum(map(mul, a, b)) == want, (n, i, j)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rows_match_their_shapes(self, n):
        # the degree by the hook length formula, and the value on a
        # transposition by Frobenius: |T| X(t) / X(1) is the content sum,
        # which tells a shape from its conjugate
        table = cayley._class_characters(n)
        one, swap = table.distances.index(0), table.distances.index(1)
        for ct, row in zip(table.types, table.characters):
            shape = [j for j in range(n, 0, -1) for _ in range(ct.counts[j - 1])]
            cols = [sum(part > j for part in shape) for j in range(shape[0])]
            cells = [(i, j) for i, part in enumerate(shape) for j in range(part)]
            hooks = prod(shape[i] - j + cols[j] - i - 1 for i, j in cells)
            assert row[one] == factorial(n) // hooks, shape
            assert comb(n, 2) * row[swap] == row[one] * sum(j - i for i, j in cells), shape

    def test_representatives_are_the_classes(self):
        table = cayley._class_characters(7)
        assert table.representatives == tuple(
            pack(class_representative(ct)) for ct in cycle_types(7)
        )
        assert table.distances == tuple(ct.min_transpositions for ct in cycle_types(7))

    def test_a_division_that_leaves_a_remainder_raises(self):
        assert cayley._exact_quotient(12, 4) == 3
        with pytest.raises(ArithmeticError, match="13 is not a multiple of 4"):
            cayley._exact_quotient(13, 4)


class TestLocalParams:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_transposition_vertex(self, n):
        g = GeneratorSet.all_transpositions(n)
        c, a, b = local_params(transposition(n, 0, 1), g)
        assert (c, a, b) == (1, 0, (n * n - n - 2) // 2)

    def test_double_swap_vertex(self):
        g = GeneratorSet.all_transpositions(5)
        y = compose(transposition(5, 0, 1), transposition(5, 2, 3))
        c, a, b = local_params(y, g)
        assert c == 2
        assert a == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_partition_of_valency(self, kind):
        g = GeneratorSet.of_kind(kind, 5)
        for text in ("[2,1,3,4,5]", "[3,5,1,4,2]", "[5,4,3,2,1]"):
            c, a, b = local_params(parse_perm(text), g)
            assert c + a + b == g.k
            assert c >= 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_everywhere(self, n):
        g = GeneratorSet.all_transpositions(n)
        walk = class_walk(n)
        for p in permutations(range(n)):
            ec, eb = formulas.local_params_formula(cycle_type(p))
            assert walk[cycle_type(p)].params == local_params(p, g) == (ec, 0, eb)

    @pytest.mark.parametrize("n", [4, 5])
    def test_class_constant_overlap(self, n):
        # vertices of one conjugacy class all share the same two-ball overlap
        # with the identity (all-transpositions family only)
        g = GeneratorSet.all_transpositions(n)
        for ct in cycle_types(n):
            values = {ball_overlap(g, 2, p) for p in enumerate_class(ct)}
            assert len(values) == 1


    @pytest.mark.parametrize("kind", KINDS)
    def test_walk_matches_oracle_counts(self, kind):
        g, adj = oracle_graph(kind)
        e = identity(g.n)
        dist = oracles.bfs_dist(adj, e)
        for p, d in dist.items():
            want = tuple(sum(dist[w] == d + step for w in adj[p]) for step in (-1, 0, 1))
            assert local_params(p, g) == want
            # T, t and st are bipartite, so no vertex has neighbors on its own level
            assert want[1] == 0


class TestWholeGraph:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_diameters(self, n):
        # the largest distance over all of S_n by the family's distance
        # formula, and up to n=6 the identity's eccentricity by brute force
        for kind in KINDS:
            got = diameter(GeneratorSet.of_kind(kind, n))
            assert got == max(map(cayley._DISTANCE[kind], permutations(range(n)))), kind
            if n <= 6:
                dist = oracles.bfs_dist(oracles.sym_adjacency(kind, n), identity(n))
                assert got == max(dist.values()), kind

    def test_diameter_needs_no_walk(self, monkeypatch):
        monkeypatch.setattr(cayley, "_levels", None)
        monkeypatch.setattr(cayley, "WHOLE_GRAPH_MAX_N", 2)
        got = [diameter(GeneratorSet.of_kind(kind, 12)) for kind in KINDS]
        assert got == [11, 66, 16]

    def test_whole_graph_cap(self, monkeypatch):
        clear_ball_memo()
        monkeypatch.setattr(cayley, "WHOLE_GRAPH_MAX_N", 5)
        sweeps = (bfs_levels, is_distance_regular)
        for sweep in sweeps:
            sweep(GeneratorSet.adjacent(5))
            with pytest.raises(CapacityError, match="^whole-graph search capped at degree 5$"):
                sweep(GeneratorSet.adjacent(6))

    @pytest.mark.parametrize("kind", KINDS)
    def test_levels_and_balls_match_oracle_distances(self, kind):
        g, adj = oracle_graph(kind)
        n = g.n
        dist = oracles.bfs_dist(adj, identity(n))
        levels = bfs_levels(g)
        assert sum(len(lvl) for lvl in levels) == len(dist)
        assert {p: d for d, lvl in enumerate(levels) for p in lvl} == dist
        b = ball(identity(n), len(levels) + 1, g)
        assert b.spheres == tuple(frozenset(lvl) for lvl in levels)
        center = (1, 3, 0, 2, 4)
        around = oracles.bfs_dist(adj, center)
        b = ball(center, 2, g)
        for d in range(3):
            assert b.spheres[d] == {p for p, dp in around.items() if dp == d}
        g, adj = GeneratorSet.of_kind(kind, 4), oracles.sym_adjacency(kind, 4)
        for x in adj:
            from_x = oracles.bfs_dist(adj, x)
            for y in adj:
                assert distance(x, y, g) == from_x[y]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_geodesic_counts_are_factorization_counts(self, n):
        walk = class_walk(n)
        assert walk[cycle_type(identity(n))].geodesics == 1
        for ct in cycle_types(n):
            if ct.min_transpositions:
                target = class_representative(ct)
                want = oracles.factorization_count(n, target, ct.min_transpositions)
                assert walk[ct].geodesics == want

    def test_reversal_geodesics_are_reduced_words(self):
        # the oracle's shortest-path count on the adjacent swaps, against
        # the reduced words of the longest element: Stanley's count
        for n, want in zip(range(3, 7), (2, 16, 768, 292864)):
            counts = oracles.shortest_path_counts(oracles.sym_adjacency("t", n), identity(n))
            assert counts[tuple(reversed(range(n)))] == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_bipartite_by_parity(self, kind):
        g = GeneratorSet.of_kind(kind, 5)
        for lvl_index, lvl in enumerate(bfs_levels(g)):
            for p in lvl:
                assert (len(p) - cycle_count(p)) % 2 == lvl_index % 2

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [4, 5])
    def test_product_spheres_match_bfs(self, kind, n):
        g = GeneratorSet.of_kind(kind, n)
        by_products = oracles.spheres_by_products(oracles.sym_adjacency(kind, n), 3)
        b = ball_of_identity(g, 3)
        for i in range(4):
            sph = b.spheres[i] if i < len(b.spheres) else frozenset()
            assert by_products[i] == sph


class TestClassWalk:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_member_matches_the_oracles(self, n):
        adj = oracles.sym_adjacency("T", n)
        dist = oracles.bfs_dist(adj, identity(n))
        paths = oracles.shortest_path_counts(adj, identity(n))
        walk = class_walk(n)
        assert set(walk) == set(cycle_types(n))
        for ct, found in walk.items():
            for p in enumerate_class(ct):
                d = dist[p]
                params = tuple(sum(dist[w] == d + step for w in adj[p]) for step in (-1, 0, 1))
                assert (found.distance, found.params, found.geodesics) == (d, params, paths[p])
        by_distance = Counter()
        for ct, found in walk.items():
            by_distance[found.distance] += conjugacy_class_size(ct)
        assert by_distance == Counter(dist.values())


class TestDistanceRegularity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_degree_four_graphs_fail_with_witness(self, kind):
        res = is_distance_regular(GeneratorSet.of_kind(kind, 4))
        assert not res.is_distance_regular
        assert isinstance(res.witness, RegularityWitness)
        assert res.witness.first_params != res.witness.second_params

    def test_witness_parameters_recheck(self):
        res = is_distance_regular(GeneratorSet.all_transpositions(4))
        w = res.witness
        adj = oracles.sym_adjacency("T", 4)
        dist = oracles.bfs_dist(adj, tuple(range(4)))
        for vertex_text, (c, b) in (
            (w.first, w.first_params),
            (w.second, w.second_params),
        ):
            y = parse_perm(vertex_text)
            assert dist[y] == w.dist
            got_c = sum(1 for z in adj[y] if dist[z] == w.dist - 1)
            got_b = sum(1 for z in adj[y] if dist[z] == w.dist + 1)
            assert (got_c, got_b) == (c, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_oracle(self, kind):
        adj = oracles.sym_adjacency(kind, 4)
        assert is_distance_regular(
            GeneratorSet.of_kind(kind, 4)
        ).is_distance_regular == oracles.is_distance_regular_bruteforce(adj)


class TestSubgraphs:
    def test_star_graph_has_no_short_cycles(self):
        found = girth_cycle_check(GeneratorSet.prefix(5), (3, 4, 5, 7))
        assert found == {3: False, 4: False, 5: False, 7: False}

    def test_star_graph_has_six_cycles(self):
        found = girth_cycle_check(GeneratorSet.prefix(4), (6,))
        assert found[6]

    def test_adjacent_has_no_triangles(self):
        assert girth_cycle_check(GeneratorSet.adjacent(4), (3,)) == {3: False}

    def test_all_transpositions_has_squares(self):
        assert girth_cycle_check(GeneratorSet.all_transpositions(4), (4,)) == {4: True}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_girth_matches_path_search_oracle(self, kind, n):
        g = GeneratorSet.of_kind(kind, n)
        adj = oracles.sym_adjacency(kind, n)
        checked = 0
        for length in range(3, 9):
            try:
                found = girth_cycle_check(g, (length,))
            except CapacityError:  # the estimate is over MAX_CYCLE_SEARCH
                continue
            assert found == {length: oracles.girth_has_cycle(adj, length)}, length
            checked += 1
        assert checked >= 5

    def test_odd_cycles_need_no_search(self, monkeypatch):
        # each edge flips the sign, so no family has a cycle of odd length;
        # a search for length 9 at T n=12 would be far over MAX_CYCLE_SEARCH
        monkeypatch.setattr(cayley, "_has_cycle_through_identity", None)
        assert girth_cycle_check(GeneratorSet.all_transpositions(12), (9,)) == {9: False}
        for kind in KINDS:
            found = girth_cycle_check(GeneratorSet.of_kind(kind, 12), (3, 5, 7, 11))
            assert found == {3: False, 5: False, 7: False, 11: False}

    def test_cycle_search_capacity(self, monkeypatch):
        g = GeneratorSet.all_transpositions(6)
        clear_ball_memo()
        monkeypatch.setattr(cayley, "MAX_CYCLE_SEARCH", 100)
        with pytest.raises(CapacityError, match="^cycle search for length 8 exceeds budget$"):
            girth_cycle_check(g, (8,))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_k33_counts(self, n):
        g = GeneratorSet.all_transpositions(n)
        assert complete_bipartite_count(g, 3, 3, identity(n)) == comb(n, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_k24_in_all_transpositions(self, n):
        g = GeneratorSet.all_transpositions(n)
        assert complete_bipartite_count(g, 2, 4, identity(n)) == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_k22_counts_adjacent(self, n):
        g = GeneratorSet.adjacent(n)
        assert complete_bipartite_count(g, 2, 2, identity(n)) == comb(n - 2, 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_k23_adjacent(self, n):
        g = GeneratorSet.adjacent(n)
        assert complete_bipartite_count(g, 2, 3, identity(n)) == 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3)])
    def test_matches_subgraph_oracle(self, kind, p, q):
        g = GeneratorSet.of_kind(kind, 4)
        e = identity(4)
        adj = oracles.sym_adjacency(kind, 4)
        assert complete_bipartite_count(g, p, q, e) == (
            oracles.complete_bipartite_count_bruteforce(adj, p, q, e)
        )

    def test_caps(self):
        g = GeneratorSet.all_transpositions(7)
        with pytest.raises(CapacityError):
            complete_bipartite_count(g, 2, 2, identity(7))
        with pytest.raises(CapacityError):
            complete_bipartite_count(
                GeneratorSet.adjacent(4), 5, 2, identity(4)
            )


class TestGraphReport:
    def test_document_shape(self):
        report = build_graph_report(GeneratorSet.all_transpositions(4), 2)
        doc = report.to_doc()
        assert doc["n_r"] == {"1": 3, "2": 15}
        assert doc["n_s"] == {"1": 12, "2": 15, "3": 12, "4": None}
        assert doc["lambda"] == 0 and doc["mu"] == 3
        assert doc["diameter"] == 3
        assert doc["v"] == 24 and doc["k"] == 6
        assert doc["witnesses"]["n_s"] == {"2": ["1^1 3^1"]}

    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_radius_past_the_diameter_scans_only_to_it(self, kind):
        # every radius past the diameter reads its profile, which a scan at
        # that radius finds too
        g = GeneratorSet.of_kind(kind, 4)
        d = diameter(g)
        report = build_graph_report(g, d + 3)
        assert len(report.per_radius) == d
        for rr in range(1, d + 4):
            assert report.profile(rr) == max_ball_intersection(g, rr)
            assert report.n_value(rr) == max_ball_intersection(g, rr).value
        assert report.final == report.profile(d + 3)

    def test_diameter_skip_note(self):
        for n in (4, 9):
            g = GeneratorSet.adjacent(n)
            report = build_graph_report(g, 1, with_diameter=False)
            assert report.diameter is None
            assert report.notes == ("diameter skipped: disabled",)
            # past the whole-graph cap the diameter is still reported
            assert build_graph_report(g, 1).to_doc()["notes"] == []
