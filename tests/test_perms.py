import itertools
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from permrec import perms
from permrec.perms import (
    CycleType,
    compose,
    conjugacy_class_size,
    cycle_type,
    cycle_types,
    enumerate_class,
    format_cycle_type,
    format_perm,
    identity,
    inverse,
    left_inverse_table,
    left_table,
    min_transposition_distance,
    minimal_factorization_count,
    pack,
    parity,
    parse_cycle_type,
    parse_perm,
    rank,
    translated,
    transposition,
    unpack,
    unrank,
)

import oracles


def perms_of(n):
    return st.permutations(tuple(range(n)))


any_perm = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(n))).map(tuple)
)

# a permutation of degree 1..12 and a list of others of the same degree
perm_and_others = st.integers(min_value=1, max_value=perms.MAX_DEGREE).flatmap(
    lambda n: st.tuples(
        perms_of(n).map(tuple), st.lists(perms_of(n).map(tuple), max_size=8)
    )
)


class TestCompose:
    def test_right_multiplication_swaps_positions(self):
        p = parse_perm("[2,1,3]")
        assert compose(p, transposition(3, 1, 2)) == parse_perm("[2,3,1]")

    def test_identity_neutral(self):
        p = parse_perm("[3,1,4,2]")
        assert compose(p, identity(4)) == p
        assert compose(identity(4), p) == p

    def test_three_cycle_squared(self):
        p = parse_perm("[2,3,1]")
        assert compose(p, p) == parse_perm("[3,1,2]")

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    @given(any_perm)
    def test_inverse_roundtrip(self, p):
        assert compose(p, inverse(p)) == identity(len(p))
        assert compose(inverse(p), p) == identity(len(p))

    @given(any_perm)
    def test_parity_consistent_with_cycles(self, p):
        assert parity(p) == (len(p) - cycle_type(p).cycle_count) % 2


class TestPacked:
    @given(perm_and_others)
    def test_left_table_composes(self, case):
        p, qs = case
        got = translated([pack(q) for q in qs], left_table(pack(p)))
        assert [unpack(z) for z in got] == [compose(p, q) for q in qs]

    @given(perm_and_others)
    def test_left_inverse_table_composes_with_the_inverse(self, case):
        p, qs = case
        got = translated([pack(q) for q in qs], left_inverse_table(pack(p)))
        assert [unpack(z) for z in got] == [compose(inverse(p), q) for q in qs]

    @given(perm_and_others)
    def test_sorted_order_matches_tuples(self, case):
        p, qs = case
        assert [unpack(z) for z in sorted(map(pack, [p, *qs]))] == sorted([p, *qs])


class TestCycleType:
    def test_identity(self):
        assert cycle_type(identity(4)) == parse_cycle_type("1^4")

    def test_single_transposition(self):
        assert cycle_type(parse_perm("[2,1,3,4]")) == parse_cycle_type("1^2 2^1")

    def test_mixed(self):
        assert cycle_type(parse_perm("[2,3,1,5,4]")) == parse_cycle_type("2^1 3^1")

    def test_invariants(self):
        ct = cycle_type(parse_perm("[2,3,1,5,4]"))
        assert ct.degree == 5
        assert ct.cycle_count == 2
        assert ct.min_transpositions == 3

    def test_malformed(self):
        with pytest.raises(ValueError):
            CycleType((2, 1, 0))  # 1*2 + 2*1 != 3
        with pytest.raises(ValueError):
            CycleType(())

    @given(any_perm)
    def test_matches_oracle(self, p):
        assert cycle_type(p).counts == oracles.cycle_length_counts(p)

    def test_all_types_are_partitions(self):
        for n in range(1, 8):
            types = cycle_types(n)
            assert len(types) == len({t.counts for t in types})
            for ct in types:
                assert sum(j * h for j, h in enumerate(ct.counts, 1)) == n


class TestDistance:
    def test_zero(self):
        e = identity(5)
        assert min_transposition_distance(e, e) == 0

    def test_one(self):
        e = identity(5)
        assert min_transposition_distance(e, transposition(5, 1, 3)) == 1

    def test_example(self):
        assert min_transposition_distance(identity(5), parse_perm("[2,3,1,5,4]")) == 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_bfs(self, n):
        adj = oracles.sym_adjacency("T", n)
        dist = oracles.bfs_dist(adj, tuple(range(n)))
        e = identity(n)
        for p, d in dist.items():
            assert min_transposition_distance(e, p) == d

    def test_left_invariance(self):
        x = parse_perm("[3,1,4,2]")
        y = parse_perm("[2,4,1,3]")
        g = parse_perm("[4,3,2,1]")
        assert min_transposition_distance(
            compose(g, x), compose(g, y)
        ) == min_transposition_distance(x, y)


class TestClasses:
    @pytest.mark.parametrize(
        "text,n,size",
        [("1^2 2^1", 4, 6), ("3^1", 3, 2), ("2^2", 4, 3)],
    )
    def test_sizes(self, text, n, size):
        ct = parse_cycle_type(text)
        assert ct.degree == n
        assert conjugacy_class_size(ct) == size

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sizes_partition_group(self, n):
        assert sum(conjugacy_class_size(ct) for ct in cycle_types(n)) == factorial(n)

    def test_enumerate_identity_class(self):
        assert enumerate_class(parse_cycle_type("1^3")) == {identity(3)}

    def test_enumerate_transpositions(self):
        got = enumerate_class(parse_cycle_type("1^1 2^1"))
        assert got == {
            parse_perm("[2,1,3]"),
            parse_perm("[1,3,2]"),
            parse_perm("[3,2,1]"),
        }

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_enumerate_matches_filter_oracle(self, n):
        for ct in cycle_types(n):
            assert enumerate_class(ct) == oracles.class_by_filter(n, ct.counts)

    def test_enumerate_cardinality_matches_size(self):
        for n in (5, 6):
            for ct in cycle_types(n):
                assert len(enumerate_class(ct)) == conjugacy_class_size(ct)

    def test_representative_has_right_type(self):
        for n in range(2, 9):
            for ct in cycle_types(n):
                assert cycle_type(perms.class_representative(ct)) == ct

    def test_degree_cap(self):
        counts = [0] * 11
        counts[10] = 1
        with pytest.raises(ValueError):
            enumerate_class(CycleType(tuple(counts)))


class TestRanking:
    def test_identity_is_zero(self):
        for n in range(1, 9):
            assert rank(identity(n)) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_roundtrip_exhaustive(self, n):
        seen = set()
        for r in range(factorial(n)):
            p = unrank(n, r)
            assert rank(p) == r
            seen.add(p)
        assert len(seen) == factorial(n)

    @given(st.integers(min_value=9, max_value=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_sampled_large(self, n, data):
        r = data.draw(st.integers(min_value=0, max_value=factorial(n) - 1))
        assert rank(unrank(n, r)) == r

    def test_lexicographic_order(self):
        ordered = [unrank(3, r) for r in range(6)]
        assert ordered == sorted(itertools.permutations(range(3)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unrank(3, 6)
        with pytest.raises(ValueError):
            unrank(3, -1)


class TestFactorizationCounts:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1^1 2^1", 1),   # a swap factors one way
            ("3^1", 3),
            ("4^1", 16),
            ("2^2", 2),
            ("1^4", 1),       # degenerate identity convention
        ],
    )
    def test_known_counts(self, text, expected):
        assert minimal_factorization_count(parse_cycle_type(text)) == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_enumeration_oracle(self, n):
        for ct in cycle_types(n):
            i = ct.min_transpositions
            if i == 0:
                continue
            target = perms.class_representative(ct)
            assert minimal_factorization_count(ct) == oracles.factorization_count(
                n, target, i
            )


class TestTextFormats:
    def test_perm_roundtrip(self):
        assert format_perm(parse_perm("[2,3,1]")) == "[2,3,1]"
        assert parse_perm("[ 2, 3 ,1 ]") == parse_perm("[2,3,1]")

    @given(any_perm)
    def test_perm_roundtrip_property(self, p):
        assert parse_perm(format_perm(p)) == p

    @pytest.mark.parametrize("bad", ["", "[2,3]", "[0,1,2]", "[1,1,2]", "2,3,1", "[a]"])
    def test_perm_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_perm(bad)

    def test_cycle_type_roundtrip(self):
        for n in range(1, 8):
            for ct in cycle_types(n):
                assert parse_cycle_type(format_cycle_type(ct)) == ct

    @pytest.mark.parametrize("bad", ["", "1^", "0^2", "1^2 1^1", "2"])
    def test_cycle_type_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cycle_type(bad)
