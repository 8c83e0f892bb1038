from math import factorial

import pytest

from permrec.cayley import GeneratorSet, ball_of_identity, max_ball_intersection
from permrec.channel import (
    ChannelSpec,
    ambiguity_witness,
    distort,
    exhaustive_threshold_check,
    generate_patterns,
    reconstruct,
    run_experiment,
    sampled_threshold_check,
)
from permrec.perms import (
    compose,
    format_perm,
    identity,
    inverse,
    min_transposition_distance,
    parse_perm,
    unrank,
)
from permrec.rng import SplitMix64, derive_seed

KINDS = ("T", "t", "st")


def spec_for(kind, n, r, seed=11, **kw):
    return ChannelSpec(GeneratorSet.of_kind(kind, n), r, seed, **kw)


class TestRng:
    def test_reference_vectors(self):
        # published known-answer outputs for the splitmix64 algorithm
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF

    def test_below_is_unbiased_range(self):
        rng = SplitMix64(42)
        draws = [rng.below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_shuffle_deterministic(self):
        items1 = list(range(10))
        items2 = list(range(10))
        SplitMix64(9).shuffle(items1)
        SplitMix64(9).shuffle(items2)
        assert items1 == items2

    def test_derive_seed_distinct_streams(self):
        seeds = {derive_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestDistort:
    def test_zero_errors_is_identity_channel(self):
        spec = spec_for("T", 5, 0)
        x = parse_perm("[3,5,1,4,2]")
        for i in range(5):
            assert distort(x, spec, i) == x

    @pytest.mark.parametrize("kind", KINDS)
    def test_stays_within_radius(self, kind):
        spec = spec_for(kind, 5, 2)
        g = spec.gen
        members = ball_of_identity(g, 2).members
        x = parse_perm("[2,4,5,1,3]")
        for i in range(200):
            y = distort(x, spec, i)
            assert compose(inverse(x), y) in members

    def test_exact_error_mode(self):
        spec = spec_for("T", 6, 2, exact_errors=True)
        x = identity(6)
        for i in range(100):
            y = distort(x, spec, i)
            # two random transpositions give distance 0 or 2 (parity even)
            assert min_transposition_distance(x, y) in (0, 2)

    def test_deterministic_given_seed_and_index(self):
        spec = spec_for("t", 5, 2, seed=77)
        x = parse_perm("[2,1,3,4,5]")
        again = spec_for("t", 5, 2, seed=77)
        assert [distort(x, spec, i) for i in range(10)] == [
            distort(x, again, i) for i in range(10)
        ]

    def test_frozen_transcript(self):
        # pinned output: guards the generator and draw discipline against
        # accidental reordering
        spec = spec_for("T", 4, 2, seed=2024)
        got = [format_perm(distort(identity(4), spec, i)) for i in range(4)]
        assert got == ["[4,2,3,1]", "[1,3,4,2]", "[1,4,2,3]", "[1,3,4,2]"]

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            distort(identity(4), spec_for("T", 5, 1))


class TestGeneratePatterns:
    def test_distinct_by_default(self):
        spec = spec_for("T", 5, 1, seed=3)
        got = generate_patterns(identity(5), spec, 8)
        assert len(set(got)) == 8

    def test_full_ball_when_m_is_ball_size(self):
        spec = spec_for("T", 4, 1, seed=5)
        ball = ball_of_identity(spec.gen, 1).members
        got = generate_patterns(identity(4), spec, len(ball))
        assert set(got) == set(ball)

    def test_requesting_more_than_ball_fails(self):
        spec = spec_for("t", 3, 1, seed=1)
        with pytest.raises(ValueError):
            generate_patterns(identity(3), spec, 4)  # ball holds 3

    def test_patterns_lie_in_source_ball(self):
        spec = spec_for("st", 5, 2, seed=13)
        x = parse_perm("[4,2,5,3,1]")
        members = ball_of_identity(spec.gen, 2).members
        for y in generate_patterns(x, spec, 10):
            assert compose(inverse(x), y) in members


class TestReconstruct:
    def test_threshold_patterns_pin_the_source(self):
        for kind in KINDS:
            for r in (1, 2):
                g = GeneratorSet.of_kind(kind, 5)
                threshold = max_ball_intersection(g, r).value + 1
                x = unrank(5, 77)
                spec = ChannelSpec(g, r, seed=123)
                patterns = generate_patterns(x, spec, threshold)
                result = reconstruct(patterns, r, g)
                assert result.status == "unique"
                assert result.candidates == (x,)

    def test_single_pattern_is_whole_ball(self):
        g = GeneratorSet.all_transpositions(4)
        x = parse_perm("[2,3,1,4]")
        result = reconstruct([x], 1, g)
        assert result.status == "ambiguous"
        assert set(result.candidates) == {compose(x, w) for w in ball_of_identity(g, 1).members}

    def test_distant_patterns_are_inconsistent(self):
        g = GeneratorSet.adjacent(5)
        result = reconstruct(
            [identity(5), tuple(reversed(range(5)))], 1, g
        )  # centers at distance 10 > 2
        assert result.status == "inconsistent"
        assert result.candidates == ()

    def test_source_always_among_candidates(self):
        g = GeneratorSet.prefix(5)
        x = parse_perm("[5,3,1,2,4]")
        spec = ChannelSpec(g, 2, seed=9)
        for m in (1, 3, 6):
            patterns = generate_patterns(x, spec, m)
            assert x in reconstruct(patterns, 2, g).candidates

    def test_monotone_in_patterns(self):
        g = GeneratorSet.all_transpositions(5)
        x = unrank(5, 99)
        spec = ChannelSpec(g, 2, seed=4)
        patterns = generate_patterns(x, spec, 12)
        previous = None
        for m in range(1, 13):
            cands = set(reconstruct(patterns[:m], 2, g).candidates)
            if previous is not None:
                assert cands <= previous
            previous = cands

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct([identity(4)], 1, GeneratorSet.adjacent(5))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            reconstruct([], 1, GeneratorSet.adjacent(5))


class TestThresholdSharpness:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_lower_side_witness_is_ambiguous(self, kind, r):
        # the full maximal shared region admits both attaining centers
        for n in (5, 6):
            g = GeneratorSet.of_kind(kind, n)
            x, other, shared = ambiguity_witness(g, r)
            assert len(shared) == max_ball_intersection(g, r).value
            result = reconstruct(shared, r, g)
            assert result.status == "ambiguous"
            assert x in result.candidates and other in result.candidates

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_upper_side_exhaustive_small_degrees(self, kind, r):
        for n in (3, 4):
            if kind == "st" and n == 3:
                continue
            g = GeneratorSet.of_kind(kind, n)
            assert exhaustive_threshold_check(g, r) == 0

    @pytest.mark.parametrize("n", [5, 6])
    def test_upper_side_sampled_hundred_thousand_per_degree(self, n):
        # 100k seeded random threshold-size subsets per degree, split across
        # the six (family, radius) configurations
        configs = [(kind, r) for kind in KINDS for r in (1, 2)]
        per_config = 100_000 // len(configs) + 1
        for kind, r in configs:
            g = GeneratorSet.of_kind(kind, n)
            assert sampled_threshold_check(g, r, per_config, seed=1000 + n) == 0


class TestExperiments:
    def test_summary_counts(self):
        g = GeneratorSet.adjacent(5)
        summary = run_experiment(g, 1, trials=50, seed=21)
        assert summary.trials == 50
        assert summary.unique + summary.ambiguous + summary.inconsistent == 50
        assert summary.unique_rate == 1.0
        assert summary.m == summary.threshold + 1

    def test_deterministic_transcripts(self):
        g = GeneratorSet.prefix(5)
        a = run_experiment(g, 2, trials=30, seed=5)
        b = run_experiment(g, 2, trials=30, seed=5)
        assert a == b

    def test_seed_changes_transcript(self):
        g = GeneratorSet.adjacent(4)
        assert run_experiment(g, 1, trials=10, seed=1) != run_experiment(
            g, 1, trials=10, seed=2
        )

    def test_adversarial_at_threshold_is_never_unique(self):
        for kind in KINDS:
            g = GeneratorSet.of_kind(kind, 5)
            threshold = max_ball_intersection(g, 1).value
            summary = run_experiment(
                g, 1, trials=20, seed=17, m=threshold, adversarial=True
            )
            assert summary.unique_rate < 1.0
            assert summary.ambiguous == 20

    def test_min_unique_m_diagnostic(self):
        g = GeneratorSet.all_transpositions(5)
        summary = run_experiment(g, 1, trials=40, seed=2)
        assert summary.min_unique_m_max is not None
        assert summary.min_unique_m_max <= summary.m
        assert all(
            t.min_unique_m is not None and 1 <= t.min_unique_m <= summary.m
            for t in summary.records
        )

    def test_record_documents(self):
        g = GeneratorSet.adjacent(4)
        summary = run_experiment(g, 1, trials=5, seed=31)
        doc = summary.records[0].to_doc()
        assert set(doc) == {
            "trial", "source", "patterns", "status", "candidates", "min_unique_m",
        }
        assert len(doc["patterns"]) == summary.m
