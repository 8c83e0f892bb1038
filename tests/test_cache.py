from pathlib import Path

import pytest

from permrec import cayley
from permrec.cache import ball_of_identity_cached, cache_path, load_ball, save_ball
from permrec.cayley import (
    Budgets,
    GeneratorSet,
    ball_of_identity,
    build_graph_report,
    clear_ball_memo,
)
from permrec.errors import CacheError, CapacityError


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_ball_memo()
    yield
    clear_ball_memo()


class TestBinaryFormat:
    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_roundtrip(self, tmp_path, kind):
        g = GeneratorSet.of_kind(kind, 5)
        original = ball_of_identity(g, 2)
        path = cache_path(tmp_path, g, 2)
        save_ball(path, original)
        loaded = load_ball(path, g, 2)
        assert loaded.spheres == original.spheres
        assert loaded.center == original.center
        assert loaded.radius == original.radius

    def test_mismatched_request_rejected(self, tmp_path):
        g = GeneratorSet.adjacent(5)
        path = cache_path(tmp_path, g, 2)
        save_ball(path, ball_of_identity(g, 2))
        with pytest.raises(CacheError):
            load_ball(path, GeneratorSet.prefix(5), 2)
        with pytest.raises(CacheError):
            load_ball(path, g, 3)
        with pytest.raises(CacheError):
            load_ball(path, GeneratorSet.adjacent(6), 2)

    def test_missing_file(self, tmp_path):
        g = GeneratorSet.adjacent(4)
        with pytest.raises(CacheError):
            load_ball(tmp_path / "nope.bin", g, 1)

    def test_corruption_detected(self, tmp_path):
        g = GeneratorSet.adjacent(5)
        path = cache_path(tmp_path, g, 2)
        save_ball(path, ball_of_identity(g, 2))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CacheError):
            load_ball(path, g, 2)
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CacheError):
            load_ball(path, g, 2)
        path.write_bytes(blob + b"\0")
        with pytest.raises(CacheError):
            load_ball(path, g, 2)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        g = GeneratorSet.adjacent(5)
        original = ball_of_identity(g, 2)
        path = cache_path(tmp_path, g, 2)
        save_ball(path, original)
        real_open = Path.open

        class HalfThenFail:
            """Writes half of the first chunk it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(bytes(data)[: len(data) // 2])
                raise OSError("injected write failure")

        def open_failing_writes(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return HalfThenFail(fh) if "w" in mode else fh

        monkeypatch.setattr(Path, "open", open_failing_writes)
        with pytest.raises(OSError):
            save_ball(path, original)
        monkeypatch.undo()
        assert load_ball(path, g, 2).spheres == original.spheres
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_explicit_sets_not_cacheable(self, tmp_path):
        from permrec.perms import transposition

        g = GeneratorSet.explicit(4, [transposition(4, 0, 1), transposition(4, 1, 2)])
        with pytest.raises(CacheError):
            save_ball(tmp_path / "x.bin", ball_of_identity(g, 1))


class TestCachedAccess:
    def test_first_call_writes_then_loads(self, tmp_path):
        g = GeneratorSet.prefix(5)
        first = ball_of_identity_cached(g, 2, tmp_path)
        path = cache_path(tmp_path, g, 2)
        assert path.exists()
        clear_ball_memo()
        second = ball_of_identity_cached(g, 2, tmp_path)
        assert second.spheres == first.spheres

    def test_none_dir_computes(self):
        g = GeneratorSet.adjacent(4)
        assert ball_of_identity_cached(g, 1, None).size == 4

    def test_results_identical_with_and_without_cache(self, tmp_path):
        g = GeneratorSet.adjacent(5)
        without = build_graph_report(g, 2).to_doc()
        clear_ball_memo()
        ball_of_identity_cached(g, 4, tmp_path)
        ball_of_identity_cached(g, 2, tmp_path)
        clear_ball_memo()
        ball_of_identity_cached(g, 4, tmp_path)  # loads from disk, primes memo
        ball_of_identity_cached(g, 2, tmp_path)
        with_cache = build_graph_report(g, 2).to_doc()
        assert with_cache == without

    def test_loaded_ball_reused_under_other_budgets(self, tmp_path, monkeypatch):
        g = GeneratorSet.adjacent(5)
        ball_of_identity_cached(g, 2, tmp_path)
        clear_ball_memo()
        builds = []
        real_ball = cayley.ball
        monkeypatch.setattr(
            cayley, "ball", lambda *a, **k: builds.append(a) or real_ball(*a, **k)
        )
        loaded = ball_of_identity_cached(g, 2, tmp_path, Budgets(whole_graph_max_n=7))
        assert ball_of_identity(g, 2, Budgets(whole_graph_max_n=7)) is loaded
        assert builds == []

    def test_memo_hit_over_a_tight_cap_raises(self):
        g = GeneratorSet.adjacent(5)
        b = ball_of_identity(g, 2)
        with pytest.raises(CapacityError):
            ball_of_identity(g, 2, Budgets(max_ball_size=b.size - 1))
        assert ball_of_identity(g, 2, Budgets(max_ball_size=b.size)) is b

    def test_stale_file_recomputed(self, tmp_path):
        g = GeneratorSet.adjacent(4)
        path = cache_path(tmp_path, g, 1)
        path.write_bytes(b"garbage")
        got = ball_of_identity_cached(g, 1, tmp_path)
        assert got.size == 4
        # file was rewritten with valid contents
        assert load_ball(path, g, 1).spheres == got.spheres
