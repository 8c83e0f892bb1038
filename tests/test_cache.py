import contextlib
import io
import json
import struct
from pathlib import Path

import pytest

from permrec import cache, cayley, cli
from permrec.cache import (
    ball_of_identity_cached,
    cache_path,
    load_ball,
    load_overlap,
    overlap_of_identity_cached,
    overlap_path,
    save_ball,
    save_overlap,
)
from permrec.cayley import (
    GeneratorSet,
    ball_of_identity,
    build_graph_report,
    clear_ball_memo,
    max_ball_intersection,
    overlap_of_identity,
)
from permrec.errors import CacheError, CapacityError
from permrec.perms import rank


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_ball_memo()
    yield
    clear_ball_memo()


def fail_writes_halfway(monkeypatch):
    """Make every file opened for writing write half of the first chunk it
    is given, then fail."""
    real_open = Path.open

    class HalfThenFail:
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


class TestBinaryFormat:
    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_roundtrip(self, tmp_path, kind):
        g = GeneratorSet.of_kind(kind, 5)
        original = ball_of_identity(g, 2)
        path = cache_path(tmp_path, g, 2)
        save_ball(path, original)
        loaded = load_ball(path, g, 2)
        assert loaded.packed_spheres == original.packed_spheres
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
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            save_ball(path, original)
        monkeypatch.undo()
        assert load_ball(path, g, 2).spheres == original.spheres
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


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

    def test_stale_file_recomputed(self, tmp_path):
        g = GeneratorSet.adjacent(4)
        path = cache_path(tmp_path, g, 1)
        path.write_bytes(b"garbage")
        got = ball_of_identity_cached(g, 1, tmp_path)
        assert got.size == 4
        # file was rewritten with valid contents
        assert load_ball(path, g, 1).spheres == got.spheres

    def test_wrappers_on_the_module_see_every_load_and_save(self, tmp_path, monkeypatch):
        calls = []

        def wrap(name):
            inner = getattr(cache, name)
            monkeypatch.setattr(cache, name, lambda *a: calls.append(name) or inner(*a))

        for name in ("load_ball", "save_ball", "load_overlap", "save_overlap"):
            wrap(name)
        g = GeneratorSet.adjacent(5)
        for _ in range(2):
            clear_ball_memo()
            ball_of_identity_cached(g, 1, tmp_path)
            overlap_of_identity_cached(g, 1, tmp_path)
        assert calls == [
            "load_ball", "save_ball", "load_overlap", "save_overlap",
            "load_ball", "load_overlap",
        ]


_HEADER = struct.Struct("<4sHBBBB")
_KIND_CODES = {"T": 0, "t": 1, "st": 2}


def ball_blob(gen, radius, spheres, version=2) -> bytes:
    """A ball file holding ``spheres`` (lists of encoded records, in file
    order) under a header for ``gen`` and ``radius``, with no checks."""
    chunks = [_HEADER.pack(b"PBAL", version, _KIND_CODES[gen.kind], gen.n, radius, len(spheres))]
    for records in spheres:
        chunks.append(struct.pack("<I", len(records)))
        chunks.extend(records)
    return b"".join(chunks)


def _resorted(records, index, bad):
    out = list(records)
    out[index] = bad
    assert len(set(out)) == len(out)
    return sorted(out)


# defect -> function of (degree, sorted records of the outer sphere) giving
# the outer sphere's records as the corrupt file stores them
OUTER_SPHERE_DEFECTS = {
    "non_permutation": lambda n, recs: _resorted(recs, -1, bytes(n)),
    "repeated_byte": lambda n, recs: _resorted(recs, -1, recs[-1][:1] * 2 + recs[-1][2:]),
    # distinct bytes, one of them n: inverting such a record as a table
    # still gives the identity, so only the range check rejects it
    "byte_at_least_n": lambda n, recs: _resorted(recs, -1, bytes([n]) + recs[-1][1:]),
    "unsorted": lambda n, recs: [recs[1], recs[0], *recs[2:]],
    "duplicated": lambda n, recs: [recs[0], *recs[:-1]],
}


def corrupt_ball_blob(defect, gen, radius) -> bytes:
    spheres = [sorted(sph) for sph in ball_of_identity(gen, radius).packed_spheres]
    clear_ball_memo()
    if defect == "v1_rank_out_of_range":
        # the old rank format, sorted, with a rank no permutation has
        ranks = [sorted(map(rank, sph)) for sph in ball_of_identity(gen, radius).spheres]
        clear_ball_memo()
        ranks[-1][-1] = 0xFFFFFFFF
        return ball_blob(gen, radius, [[struct.pack("<I", k) for k in sph] for sph in ranks], 1)
    spheres[-1] = OUTER_SPHERE_DEFECTS[defect](gen.n, spheres[-1])
    return ball_blob(gen, radius, spheres)


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


class TestCorruptBallFiles:
    @pytest.mark.parametrize("defect", ["v1_rank_out_of_range", *OUTER_SPHERE_DEFECTS])
    def test_recomputed_and_rewritten_by_the_cli(self, defect, tmp_path):
        g = GeneratorSet.all_transpositions(4)
        cache_dir = tmp_path / "cache"
        path = cache_path(cache_dir, g, 1)
        path.parent.mkdir()
        path.write_bytes(corrupt_ball_blob(defect, g, 1))
        with pytest.raises(CacheError):
            load_ball(path, g, 1)
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("[1,2,3,4]\n[2,1,3,4]\n[1,3,2,4]\n[1,2,4,3]\n")
        argv = ["reconstruct", "--graph", "T", "--r", "1", "--patterns", patterns]
        want = run_cli(argv)
        clear_ball_memo()
        code, out = run_cli(argv + ["--cache-dir", cache_dir])
        assert (code, out.replace(json.dumps(str(cache_dir)), "null")) == want
        assert load_ball(path, g, 1).packed_spheres == ball_of_identity(g, 1).packed_spheres

    def test_header_sphere_count_checked(self, tmp_path):
        g = GeneratorSet.adjacent(4)
        spheres = [sorted(sph) for sph in ball_of_identity(g, 1).packed_spheres]
        path = tmp_path / "ball.bin"
        # spheres[:1] is the ball cut off before its last sphere
        for stored in ([], spheres + [[]], spheres[:1]):
            path.write_bytes(ball_blob(g, 1, stored))
            with pytest.raises(CacheError):
                load_ball(path, g, 1)
        # a ball is stored at most at the diameter, 6, so a radius-9 file
        # holding all n! vertices in 7 spheres is refused like any short one
        whole = ball_of_identity(g, 9).packed_spheres
        path.write_bytes(ball_blob(g, 9, [sorted(sph) for sph in whole]))
        with pytest.raises(CacheError):
            load_ball(path, g, 9)

    def test_file_over_the_cap_fails_as_the_uncached_run(self, tmp_path, capsys, monkeypatch):
        g = GeneratorSet.all_transpositions(5)
        cache_dir = tmp_path / "cache"
        path = cache_path(cache_dir, g, 2)
        b = ball_of_identity(g, 2)
        save_ball(path, b)
        clear_ball_memo()
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", b.size - 1)
        with pytest.raises(CacheError):
            load_ball(path, g, 2)
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("[2,1,4,3,5]\n[3,2,1,5,4]\n[1,2,3,5,4]\n")
        argv = ["reconstruct", "--graph", "T", "--r", "2", "--patterns", patterns]
        want = (*run_cli(argv), capsys.readouterr().err)
        assert want[:2] == (1, "") and "ball exceeds budget" in want[2]
        clear_ball_memo()
        assert (*run_cli(argv + ["--cache-dir", cache_dir]), capsys.readouterr().err) == want


class TestOverlapMemo:
    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_hit_is_the_same_object_under_the_same_cap(self, kind, monkeypatch):
        g = GeneratorSet.of_kind(kind, 5)
        best = overlap_of_identity(g, 2)
        assert best == max_ball_intersection(g, 2)
        assert overlap_of_identity(g, 2) is best
        # the scan reads the radius-2 ball alone
        size = ball_of_identity(g, 2).size
        clear_ball_memo()
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", size - 1)
        with pytest.raises(CapacityError):
            overlap_of_identity(g, 2)

    def test_scan_stays_unmemoized(self, monkeypatch):
        g = GeneratorSet.adjacent(5)
        first = overlap_of_identity(g, 2)
        scanned = []
        real_at = cayley.max_ball_intersection_at
        monkeypatch.setattr(
            cayley, "max_ball_intersection_at",
            lambda *a, **k: scanned.append(a[2]) or real_at(*a, **k),
        )
        assert overlap_of_identity(g, 2) is first
        assert scanned == []
        assert max_ball_intersection(g, 2) == first
        assert scanned == [1, 2, 3, 4]

    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_profile_past_the_diameter_scans_only_the_diameter(self, kind, monkeypatch):
        g = GeneratorSet.of_kind(kind, 4)
        d = cayley.diameter(g)
        want = {r: max_ball_intersection(g, r) for r in (d + 1, d + 3)}
        clear_ball_memo()
        scanned = []
        real_at = cayley.max_ball_intersection_at
        monkeypatch.setattr(
            cayley, "max_ball_intersection_at",
            lambda *a, **k: scanned.append(a[1:3]) or real_at(*a, **k),
        )
        for r, best in want.items():
            assert overlap_of_identity(g, r) == best
        # one scan of the profile at the diameter serves both radii
        assert scanned == [(d, s) for s in range(1, 2 * d + 1)]

    def test_clear_forgets_overlaps(self):
        g = GeneratorSet.prefix(5)
        first = overlap_of_identity(g, 2)
        clear_ball_memo()
        again = overlap_of_identity(g, 2)
        assert again == first and again is not first


class TestOverlapFile:
    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_first_call_writes_then_loads(self, tmp_path, kind, monkeypatch):
        g = GeneratorSet.of_kind(kind, 5)
        want = max_ball_intersection(g, 2)
        clear_ball_memo()
        assert overlap_of_identity_cached(g, 2, tmp_path) == want
        assert load_overlap(overlap_path(tmp_path, g, 2), g, 2) == want
        clear_ball_memo()
        monkeypatch.setattr(cayley, "max_ball_intersection", None)
        monkeypatch.setattr(cayley, "ball", None)
        loaded = overlap_of_identity_cached(g, 2, tmp_path)
        # the witnesses come back in scan order, as equality of the tuples checks
        assert loaded == want
        assert overlap_of_identity(g, 2) is loaded

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        g = GeneratorSet.adjacent(5)
        best = overlap_of_identity(g, 2)
        path = overlap_path(tmp_path, g, 2)
        save_overlap(path, g, best)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            save_overlap(path, g, best)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_overlap(path, g, 2) == best
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_witnesses_are_packed_records_in_scan_order(self, tmp_path):
        g = GeneratorSet.adjacent(4)
        best = overlap_of_identity(g, 1)
        path = overlap_path(tmp_path, g, 1)
        save_overlap(path, g, best)
        # s=1: the three adjacent swaps, sorted; s=2: [2,1,4,3]
        assert json.loads(path.read_text())["per_s"] == [
            [1, 2, "000103020002010301000203"], [2, 2, "01000302"],
        ]

    def test_one_permutation_check_per_file(self, tmp_path, monkeypatch):
        g = GeneratorSet.prefix(5)
        best = overlap_of_identity(g, 2)
        path = overlap_path(tmp_path, g, 2)
        save_overlap(path, g, best)
        checked = []
        monkeypatch.setattr(
            cache, "all_permutations", lambda data, n: checked.append(data) or True
        )
        assert load_overlap(path, g, 2) == best
        assert checked == [b"".join(
            b"".join(map(bytes, sm.witnesses)) for sm in best.per_s
        )]

    def test_uppercase_hex_refused(self, tmp_path):
        # at degree 11 a record holds the byte 0x0a, which the writer
        # spells in lowercase
        g = GeneratorSet.all_transpositions(11)
        best = overlap_of_identity(g, 1)
        path = overlap_path(tmp_path, g, 1)
        save_overlap(path, g, best)
        text = path.read_text()
        assert "0a" in text and "0A" not in text
        path.write_text(text.replace("0a", "0A"))
        with pytest.raises(CacheError):
            load_overlap(path, g, 1)

    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_radius_past_the_diameter_shares_the_diameter_file(self, tmp_path, kind, monkeypatch):
        g = GeneratorSet.of_kind(kind, 4)
        d = cayley.diameter(g)
        want = max_ball_intersection(g, d + 2)
        for run in ("cold", "warm"):
            clear_ball_memo()
            assert overlap_of_identity_cached(g, d + 2, tmp_path) == want, run
            assert [p.name for p in tmp_path.iterdir()] == [overlap_path(tmp_path, g, d).name]
            # the warm run reads the file and scans nothing
            monkeypatch.setattr(cayley, "max_ball_intersection", None)

    @pytest.mark.parametrize("defect", [
        "garbage", "empty", "truncated", "not_an_object", "other_degree",
        "other_radius", "other_kind", "wrong_version", "missing_key",
        "entry_count", "entry_order", "value_type", "value_without_witnesses",
        "witnesses_without_value", "bad_witness", "short_witness",
        "integer_witness", "not_hex", "hex_with_space", "repeated_witness",
        "bad_last_entry", "version_1", "version_2",
    ])
    def test_bad_file_recomputed_and_rewritten(self, tmp_path, defect):
        g = GeneratorSet.prefix(5)
        want = max_ball_intersection(g, 2)
        path = overlap_path(tmp_path, g, 2)
        save_overlap(path, g, want)
        doc = json.loads(path.read_text())
        other = {"other_degree": (g.kind, 6, 2), "other_radius": (g.kind, 5, 1),
                 "other_kind": ("t", 5, 2)}
        if defect in other:
            kind, n, r = other[defect]
            og = GeneratorSet.of_kind(kind, n)
            save_overlap(path, og, max_ball_intersection(og, r))
        elif defect in ("garbage", "empty", "truncated"):
            raw = path.read_bytes()
            path.write_bytes({"garbage": b"\x00garbage", "empty": b"",
                              "truncated": raw[: len(raw) // 2]}[defect])
        else:
            entries = doc["per_s"]
            # the first entry's records, the first of them [2,1,3,4,5]
            field = entries[0][2]
            assert field.startswith("0100020304")
            if defect == "not_an_object":
                doc = entries
            elif defect == "wrong_version":
                doc["version"] += 1
            elif defect == "missing_key":
                del doc["per_s"]
            elif defect == "entry_count":
                entries.pop()
            elif defect == "entry_order":
                entries[0], entries[1] = entries[1], entries[0]
            elif defect == "value_type":
                entries[0][1] = str(entries[0][1])
            elif defect == "value_without_witnesses":
                entries[0][2] = ""
            elif defect == "witnesses_without_value":
                entries[0][1] = None
            elif defect == "bad_witness":
                # a record that is not a permutation: [1,1,3,4,5]
                entries[0][2] = "0000020304" + field[10:]
            elif defect == "short_witness":
                # a record of degree 4, [2,1,3,4]: no whole number of records
                entries[0][2] = "01000203" + field[10:]
            elif defect == "integer_witness":
                entries[0][2] = 7
            elif defect == "not_hex":
                entries[0][2] = "zz" + field[2:]
            elif defect == "hex_with_space":
                # bytes.fromhex skips the space, the writer never writes one
                entries[0][2] = field[:10] + " " + field[10:]
            elif defect == "repeated_witness":
                entries[0][2] = field + field[:10]
            elif defect == "bad_last_entry":
                # a record with a repeated symbol in the last entry only, for
                # the one permutation check over the whole file
                entries[-1][2] = entries[-1][2][:-10] + "0001020303"
            elif defect == "version_1":
                # the first format, which also stored the scanned ball's size
                doc["version"] = 1
                doc["scanned_ball_size"] = ball_of_identity(g, 4).size
            elif defect == "version_2":
                # the previous format, which stored the witnesses as labels
                doc["version"] = 2
                for entry, sm in zip(entries, want.per_s):
                    entry[2] = [cayley.witness_label(g, y) for y in sm.witnesses]
            path.write_text(json.dumps(doc))
        with pytest.raises(CacheError):
            load_overlap(path, g, 2)
        clear_ball_memo()
        assert overlap_of_identity_cached(g, 2, tmp_path) == want
        assert json.loads(path.read_text())["version"] == 3
        assert load_overlap(path, g, 2) == want
