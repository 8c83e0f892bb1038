import functools
import itertools
import json
from math import factorial
from pathlib import Path

import pytest

from permrec import cayley, channel, rng
from permrec.cache import overlap_of_identity_cached
from permrec.cayley import (
    GeneratorSet,
    ball_of_identity,
    ball_overlap,
    clear_ball_memo,
    diameter,
    distance,
    max_ball_intersection,
    overlap_of_identity,
    witness_vertices,
)
from permrec.channel import (
    ChannelSpec,
    ambiguity_witness,
    distort,
    generate_patterns,
    reconstruct,
    run_experiment,
)
from permrec.perms import (
    compose,
    format_perm,
    identity,
    inverse,
    pack,
    parse_perm,
    unrank,
)
from permrec.rng import SplitMix64, derive_seed

import oracles

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

    def test_bound_of_two_to_the_64_is_a_whole_output(self):
        a, b = SplitMix64(77), SplitMix64(77)
        assert [a.below(2**64) for _ in range(5)] == [b.next_u64() for _ in range(5)]

    @pytest.mark.parametrize("bound", [0, -1, 2**64 + 1, 2**65, 3**41])
    def test_bound_outside_one_to_two_to_the_64_is_refused(self, bound):
        # past 2^64 no output is under the rejection limit, so the draw
        # would never return
        with pytest.raises(ValueError, match="bound must be in 1..2"):
            SplitMix64(1).below(bound)

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
            assert distance(x, y, spec.gen) in (0, 2)

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

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            generate_patterns(identity(4), spec_for("T", 5, 1), 3)

    def test_requesting_more_than_ball_fails(self):
        spec = spec_for("t", 3, 1, seed=1)
        with pytest.raises(ValueError):
            generate_patterns(identity(3), spec, 4)  # ball holds 3

    @pytest.mark.parametrize("kind, n, r, size", [("t", 5, 1, 5), ("T", 6, 2, 101), ("st", 4, 9, 24)])
    def test_more_than_ball_refused_before_any_draw(self, monkeypatch, kind, n, r, size):
        # by the ball's closed-form size: no draw, and no ball is built
        def forbidden(*args):
            raise AssertionError("drew or walked")

        clear_ball_memo()
        monkeypatch.setattr(channel, "_draws", forbidden)
        monkeypatch.setattr(cayley, "_levels", forbidden)
        msg = f"^requested {size + 1} distinct patterns but the ball has only {size}$"
        with pytest.raises(ValueError, match=msg):
            generate_patterns(identity(n), spec_for(kind, n, r), size + 1)

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

    @pytest.mark.parametrize("patterns", [
        [(0, 1, 2), (2, 0, 0)],  # its inverse table is that of (2, 1, 0)
        [(0, 0, 1)],  # its ball would hold non-permutations
        [(0, 1, 5)],
        [b"\x01\x01\x00"],
    ])
    def test_non_permutation_is_refused(self, patterns):
        with pytest.raises(ValueError, match="not a permutation"):
            reconstruct(patterns, 1, GeneratorSet.all_transpositions(3))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("r", [1, 2, 3, pytest.param(None, id="diameter")])
    def test_matches_the_bruteforce_intersection(self, kind, r):
        # seeded pattern sets of every shape against balls from plain BFS;
        # at the diameter every ball is the whole group
        g = GeneratorSet.of_kind(kind, 5)
        diam = diameter(g)
        r = diam if r is None else r
        adj = oracles.sym_adjacency(kind, 5)
        size = ball_of_identity(g, r).size
        m = min(overlap_of_identity(g, r).value + 1, size)
        shared = ambiguity_witness(g, r)[2]
        rng = SplitMix64(500 + r)
        sets = [sorted(adj)]  # inconsistent below the diameter
        for trial in range(5):
            x, y = (unrank(5, rng.below(factorial(5))) for _ in range(2))
            honest = generate_patterns(x, ChannelSpec(g, r, derive_seed(r, trial)), m)
            sets += [
                [x],
                [x, x],
                [y, x, y],
                honest,
                honest[: 1 + rng.below(m)],
                [compose(x, z) for z in shared],
                [unrank(5, rng.below(factorial(5))) for _ in range(2 + rng.below(6))],
            ]
        seen = set()
        for patterns in sets:
            result = reconstruct(patterns, r, g)
            assert result.candidates == oracles.reconstruct_bruteforce(adj, patterns, r)
            seen.add(result.status)
        if r < diam:
            assert seen == {"unique", "ambiguous", "inconsistent"}
        else:
            assert seen == {"ambiguous"}


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
    def test_witness_from_a_cache_file_is_the_scanned_one(self, kind, tmp_path):
        # the first vertex the attaining witnesses stand for, expanded from
        # the scan on the cold run and from the file on the warm one
        g = GeneratorSet.of_kind(kind, 6)
        best = max_ball_intersection(g, 2)
        s = best.best_s[0]
        clear_ball_memo()
        want = ambiguity_witness(g, 2)
        assert want[1] == witness_vertices(g, best.per_s[s - 1])[0]
        assert ball_overlap(g, 2, want[1]) == best.value
        for run in ("cold", "warm"):
            clear_ball_memo()
            overlap_of_identity_cached(g, 2, tmp_path)
            assert ambiguity_witness(g, 2) == want, run
        clear_ball_memo()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_upper_side_exhaustive_small_degrees(self, kind, r):
        for n in (3, 4):
            if kind == "st" and n == 3:
                continue
            g = GeneratorSet.of_kind(kind, n)
            assert oracles.exhaustive_threshold_check(g, r) == 0

    @pytest.mark.parametrize("n", [5, 6])
    def test_upper_side_sampled_hundred_thousand_per_degree(self, n):
        # 100k seeded random threshold-size subsets per degree, split across
        # the six (family, radius) configurations
        configs = [(kind, r) for kind in KINDS for r in (1, 2)]
        per_config = 100_000 // len(configs) + 1
        for kind, r in configs:
            g = GeneratorSet.of_kind(kind, n)
            assert oracles.sampled_threshold_check(g, r, per_config, seed=1000 + n) == 0


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

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("r", [1, 2, pytest.param(None, id="diameter")])
    def test_min_prefix_matches_the_stepwise_oracle(self, kind, r):
        # honest runs at every m from 1 to the threshold, so the source
        # always survives and every trial is unique or ambiguous.  At the
        # diameter every ball is the whole group, so pattern 2 drops nothing
        # and every trial is ambiguous.
        g = GeneratorSet.of_kind(kind, 6)
        at_diameter = r is None
        r = diameter(g) if at_diameter else r
        members = ball_of_identity(g, r).packed
        # 42, the largest threshold at r <= 2, keeps the lists short at the
        # diameter, where the threshold is 6!
        threshold = min(overlap_of_identity(g, r).value, 42) + 1
        seen = set()
        for m in range(1, threshold + 1):
            trials = (50 if at_diameter else 200) // threshold + 1
            summary = run_experiment(g, r, trials, 100 * m + r, m=m)
            for record in summary.records:
                want = reconstruct(record.patterns, r, g)
                assert (record.status, record.candidate_count) == (
                    want.status, len(want.candidates)
                )
                stepwise = oracles.min_prefix_for_unique_stepwise(members, record.patterns)
                if record.status == "unique":
                    assert record.min_unique_m == stepwise
                else:
                    assert record.min_unique_m is None and stepwise == m
                seen.add((record.status, stepwise < m))
        if at_diameter:
            assert seen == {("ambiguous", False)}
        else:
            # unique at a shorter prefix and at the whole list, and ambiguous
            assert {("unique", True), ("unique", False), ("ambiguous", False)} <= seen

    @pytest.mark.parametrize("adversarial", [False, True], ids=["honest", "adversarial"])
    def test_one_walk_per_trial(self, monkeypatch, adversarial):
        # status, candidate count and min-prefix all come from one decode
        walks = []
        walk = channel._intersection

        def counted(members, patterns):
            walks.append(len(patterns))
            return walk(members, patterns)

        monkeypatch.setattr(channel, "_intersection", counted)
        summary = run_experiment(GeneratorSet.of_kind("T", 6), 2, 12, 7, adversarial=adversarial)
        assert walks == [summary.m] * 12
        assert summary.unique == (0 if adversarial else 12)

    def test_record_documents(self):
        g = GeneratorSet.adjacent(4)
        summary = run_experiment(g, 1, trials=5, seed=31)
        doc = summary.records[0].to_doc()
        assert set(doc) == {
            "trial", "source", "patterns", "status", "candidates", "min_unique_m",
        }
        assert len(doc["patterns"]) == summary.m


# name -> (kind, n, r, exact_errors, seed, m): pattern draws pinned byte for
# byte in tests/golden/channel_draws.json.  m is at most the ball's size; in
# exact mode it may pass the vertices exact draws reach, which sends the
# draw to the full-ball fallback.
DRAW_CASES = {
    f"{kind}{n}_r{r}_{mode}": (kind, n, r, mode == "exact", 1000 + 37 * n + r, m)
    for kind in KINDS
    for n in (5, 9)
    for r in (1, 2)
    for mode in ("honest", "exact")
    for m in [min(10, ball_of_identity(GeneratorSet.of_kind(kind, n), r).size)]
}
# exact draws reach only the 12 even vertices of the 18 in B_2
DRAW_CASES["T4_r2_exact_fallback"] = ("T", 4, 2, True, 5, 18)
DRAW_CASES["T4_r1_honest_whole_ball"] = ("T", 4, 1, False, 5, 7)
DRAWS_GOLDEN = Path(__file__).resolve().parent / "golden" / "channel_draws.json"


def draw_case(name: str) -> dict:
    """The source, the generate_patterns output and the first eight distort
    outputs of a case, as permutation literals."""
    kind, n, r, exact, seed, m = DRAW_CASES[name]
    spec = spec_for(kind, n, r, seed=seed, exact_errors=exact)
    source = unrank(n, seed * 7919 % factorial(n))
    return {
        "source": format_perm(source),
        "patterns": [format_perm(y) for y in generate_patterns(source, spec, m)],
        "distort": [format_perm(distort(source, spec, i)) for i in range(8)],
    }


class TestPinnedDraws:
    """Pattern draws are the contract transcripts replay: each draw's
    error count and generator indices come from its own stream, in order.
    The golden file was written before pattern generation moved to the
    packed form."""

    @pytest.mark.parametrize("name", sorted(DRAW_CASES))
    def test_draws_match_golden(self, name):
        assert draw_case(name) == json.loads(DRAWS_GOLDEN.read_text())[name]

    def test_fallback_case_reaches_the_fallback(self, monkeypatch):
        # with the fallback's shuffle removed the draw cannot finish
        def no_shuffle(self, items):
            raise AssertionError("fallback reached")

        monkeypatch.setattr(SplitMix64, "shuffle", no_shuffle)
        with pytest.raises(AssertionError, match="fallback reached"):
            draw_case("T4_r2_exact_fallback")
        for name in ("T9_r2_honest", "st9_r2_exact"):
            draw_case(name)


def scalar_indices(seed: int, errors: int, k: int, exact: bool, index: int) -> tuple:
    """Draw ``index``'s generator indices read from its own stream."""
    stream = SplitMix64(derive_seed(seed, index))
    return tuple(stream.below(k) for _ in range(errors if exact else stream.below(errors + 1)))


_MIX_FACTORS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_GAMMA = 0x9E3779B97F4A7C15
_MASK = 2**64 - 1


def unmix(z: int) -> int:
    """The inverse of splitmix64's mix: each xor-shift undone, and each
    odd factor undone by its inverse mod 2^64."""
    def unshift(z: int, s: int) -> int:
        x = z
        for _ in range(64 // s):  # each pass fixes s more bits
            x = z ^ x >> s
        return x

    first, second = (pow(c, -1, 2**64) for c in _MIX_FACTORS)
    z = unshift(z, 31) * second & _MASK
    z = unshift(z, 27) * first & _MASK
    return unshift(z, 30)


def seed_with_output(index: int, step: int, value: int) -> int:
    """A channel seed whose draw ``index`` reads ``value`` as output
    ``step`` (1 for the first) of its stream: stream seed s gives
    mix(s + step * gamma), and derive_seed(seed, index) is
    mix(seed + (index + 1) * gamma)."""
    stream = unmix(value) - step * _GAMMA & _MASK
    return unmix(stream) - (index + 1) * _GAMMA & _MASK


class TestLaneDraws:
    """``rng.channel_draws`` reads 64 streams at a time; each draw must
    equal the scalar reading that ``oracles.scalar_draws`` keeps."""

    @pytest.mark.parametrize("mode", ["honest", "exact"])
    @pytest.mark.parametrize("radius", ["1", "2", "diameter"])
    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("kind", KINDS)
    def test_lanes_match_the_scalar_reading(self, kind, n, radius, mode):
        g = GeneratorSet.of_kind(kind, n)
        r = diameter(g) if radius == "diameter" else int(radius)
        x = pack(unrank(n, 4321 % factorial(n)))
        for seed in (0, 1, 2**64 - 1):
            spec = ChannelSpec(g, r, seed, exact_errors=mode == "exact")
            for start in (0, 63, 64, 65):
                got = list(itertools.islice(channel._draws(x, spec, start), 300))
                assert got == list(itertools.islice(oracles.scalar_draws(x, spec, start), 300))

    def test_unmix_inverts_the_mix(self):
        for z in (0, 1, 2**63, _MASK, 0x0123456789ABCDEF):
            assert unmix(rng._mix(z)) == z
        stream = SplitMix64(derive_seed(seed_with_output(5, 3, 77), 5))
        assert [stream.next_u64() for _ in range(3)][2] == 77

    def check_rejected(self, monkeypatch, seed, errors, k, exact, index, step):
        """Draw ``index`` has a rejected output at ``step``: it, the lanes
        around it and its whole batch equal the scalar reading, and only
        that lane is read again from its own stream."""
        stream = SplitMix64(derive_seed(seed, index))
        out = [stream.next_u64() for _ in range(step)][-1]
        bound = k if exact or step > 1 else errors + 1
        assert out >= 2**64 - 2**64 % bound  # below(bound) rejects it
        reread = []
        scalar = rng._stream_draw
        monkeypatch.setattr(rng, "_stream_draw", lambda *a: reread.append(1) or scalar(*a))
        # a batch starts at the first index asked for: lanes 0, 2 and 63
        for begin in (index, max(index - 2, 0), max(index - 63, 0)):
            reread.clear()
            got = list(itertools.islice(rng.channel_draws(seed, errors, k, exact, begin), 64))
            want = [scalar_indices(seed, errors, k, exact, i) for i in range(begin, begin + 64)]
            assert got == want
            assert reread == [1]

    @pytest.mark.parametrize("index", [0, 37, 63, 64, 100])
    def test_rejected_error_count_is_read_again(self, monkeypatch, index):
        # 2^64 - 1 is the one output below(3) rejects
        seed = seed_with_output(index, 1, _MASK)
        self.check_rejected(monkeypatch, seed, 2, 8, False, index, 1)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("index", [0, 63, 64, 130])
    def test_rejected_generator_index_is_read_again(self, monkeypatch, index, exact):
        # below(36) rejects any output >= 2^64 - 16; in honest mode pick
        # one whose draw counts at least one error
        step = 1 if exact else 2
        for value in range(2**64 - 16, 2**64):
            seed = seed_with_output(index, step, value)
            if exact or SplitMix64(derive_seed(seed, index)).below(3):
                break
        self.check_rejected(monkeypatch, seed, 2, 36, exact, index, step)

    def test_rejected_draw_matches_through_the_channel(self):
        index = 70
        spec = spec_for("T", 9, 2, seed=seed_with_output(index, 1, _MASK))
        x = pack(unrank(9, 99))
        got = list(itertools.islice(channel._draws(x, spec, 60), 20))
        assert got == list(itertools.islice(oracles.scalar_draws(x, spec, 60), 20))

    @pytest.mark.parametrize("exact", [False, True])
    def test_budget_past_the_lanes_reads_each_stream(self, exact):
        errors = rng._LANE_MAX_ERRORS + 1
        got = [tuple(d) for d in itertools.islice(rng.channel_draws(3, errors, 6, exact, 62), 4)]
        assert got == [scalar_indices(3, errors, 6, exact, i) for i in range(62, 66)]


# name -> (kind, n, r, mode, m): run_experiment summaries and transcripts
# pinned byte for byte in tests/golden/channel_trials.json, for honest, exact
# and adversarial runs at the default m (None), 2 and 3.  T5_r4 is at the
# diameter, where an honest run's default m is past the whole group.  A run
# the package refuses is pinned by its message.
TRIAL_CASES = {
    f"{kind}{n}_r{r}_{mode}_m{m or 'default'}": (kind, n, r, mode, m)
    for kind, n, r in [(k, n, r) for k in KINDS for n in (5, 9) for r in (1, 2)] + [("T", 5, 4)]
    for mode in ("honest", "exact", "adversarial")
    for m in (None, 2, 3)
}
TRIALS_GOLDEN = DRAWS_GOLDEN.with_name("channel_trials.json")


def trial_case(name: str) -> dict:
    """A three-trial run's summary and transcript as the CLI writes them,
    or the message of the ValueError that refuses the run."""
    kind, n, r, mode, m = TRIAL_CASES[name]
    try:
        summary = run_experiment(
            GeneratorSet.of_kind(kind, n), r, 3, 100 + 37 * n + r, m=m,
            adversarial=mode == "adversarial", exact_errors=mode == "exact",
        )
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        "summary": json.dumps(summary.to_doc(), sort_keys=True),
        "transcript": [json.dumps(t.to_doc(), sort_keys=True) for t in summary.records],
    }


@functools.cache
def trials_golden() -> dict:
    return json.loads(TRIALS_GOLDEN.read_text())


class TestPinnedTrials:
    """Trial records, pinned before a trial's decode and min-prefix came
    from one walk of the pairwise region."""

    @pytest.mark.parametrize("name", sorted(TRIAL_CASES))
    def test_trials_match_golden(self, name):
        assert trial_case(name) == trials_golden()[name]

    def test_every_status_and_refusal_is_pinned(self):
        statuses = {
            json.loads(line)["status"]
            for case in trials_golden().values()
            for line in case.get("transcript", ())
        }
        assert statuses == {"unique", "ambiguous"}
        refused = {name for name, case in trials_golden().items() if "error" in case}
        assert "T5_r4_honest_mdefault" in refused
        assert "t5_r1_adversarial_m3" in refused


if __name__ == "__main__":
    # rewrite the pinned draws and trials from the package on sys.path; only
    # when a change to them is intended
    DRAWS_GOLDEN.write_text(
        json.dumps({name: draw_case(name) for name in sorted(DRAW_CASES)}, indent=1) + "\n"
    )
    TRIALS_GOLDEN.write_text(
        json.dumps({name: trial_case(name) for name in sorted(TRIAL_CASES)}, indent=1) + "\n"
    )
