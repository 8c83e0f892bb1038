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
_SECTION = struct.Struct("<iI")
_KIND_CODES = {"T": 0, "t": 1, "st": 2}


def record_blob(magic, gen, radius, sections, version=4) -> bytes:
    """A record file holding ``sections``, (value, records) pairs in file
    order, under a header for ``gen`` and ``radius``, with no checks.  A
    value of None writes the count alone, as ball files of versions 1 and
    2 did."""
    chunks = [_HEADER.pack(magic, version, _KIND_CODES[gen.kind], gen.n, radius, len(sections))]
    for value, records in sections:
        count = struct.pack("<I", len(records))
        chunks.append(count if value is None else struct.pack("<i", value) + count)
        chunks.extend(records)
    return b"".join(chunks)


def ball_blob(gen, radius, spheres, version=4) -> bytes:
    """A ball file holding ``spheres`` (lists of encoded records, in file
    order), each with its distance as its value from version 3 on."""
    values = range(len(spheres)) if version >= 3 else [None] * len(spheres)
    return record_blob(b"PBAL", gen, radius, list(zip(values, spheres)), version)


def read_sections(blob, n) -> list:
    """[value, records] for each section of a well-formed record file."""
    offset, out = _HEADER.size, []
    for _ in range(_HEADER.unpack_from(blob)[-1]):
        value, count = _SECTION.unpack_from(blob, offset)
        offset += _SECTION.size
        out.append([value, [blob[i:i + n] for i in range(offset, offset + count * n, n)]])
        offset += count * n
    return out


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
        size = ball_of_identity(g, 2).size
        clear_ball_memo()
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", size - 1)
        if kind == "T":
            # the class algebra holds no ball, so the ball cap does not bind
            assert overlap_of_identity(g, 2) == best
            return
        # the scan reads the radius-2 ball alone
        with pytest.raises(CapacityError):
            overlap_of_identity(g, 2)

    def test_scan_stays_unmemoized(self, monkeypatch):
        # an adjacent-swap profile is one pass over B_2, for every distance
        g = GeneratorSet.adjacent(5)
        first = overlap_of_identity(g, 2)
        scanned = []
        real_pass = cayley._adjacent_profile
        monkeypatch.setattr(
            cayley, "_adjacent_profile",
            lambda *a: scanned.append(a[1:]) or real_pass(*a),
        )
        assert overlap_of_identity(g, 2) is first
        assert scanned == []
        assert max_ball_intersection(g, 2) == first
        assert scanned == [(2,)]

    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_profile_past_the_diameter_scans_only_the_diameter(self, kind, monkeypatch):
        g = GeneratorSet.of_kind(kind, 4)
        d = cayley.diameter(g)
        want = {r: max_ball_intersection(g, r) for r in (d + 1, d + 3)}
        clear_ball_memo()
        scanned = []
        # adjacent swaps make one pass for every distance; the others scan
        # one distance at a time
        name = "_adjacent_profile" if kind == "t" else "max_ball_intersection_at"
        real = getattr(cayley, name)
        monkeypatch.setattr(cayley, name, lambda *a, **k: scanned.append(a[1:3]) or real(*a, **k))
        for r, best in want.items():
            assert overlap_of_identity(g, r) == best
        # one scan of the profile at the diameter serves both radii
        if kind == "t":
            assert scanned == [(d,)]
        else:
            assert scanned == [(d, s) for s in range(1, 2 * d + 1)]

    def test_clear_forgets_overlaps(self):
        g = GeneratorSet.prefix(5)
        first = overlap_of_identity(g, 2)
        clear_ball_memo()
        again = overlap_of_identity(g, 2)
        assert again == first and again is not first


def json_overlap_doc(gen, best, version) -> bytes:
    """``best`` in the JSON form of earlier overlap files: each entry's
    witnesses as labels up to version 2, as the hex of their packed records
    in version 3."""
    per_s = [
        [sm.s, sm.value, [cayley.witness_label(gen, y) for y in sm.witnesses] if version < 3
         else b"".join(map(bytes, sm.witnesses)).hex()]
        for sm in best.per_s
    ]
    doc = {"format": "permrec-overlap", "version": version, "kind": gen.kind, "n": gen.n,
           "radius": best.radius, "per_s": per_s}
    return json.dumps(doc).encode()


# defect -> (section, edit of its value and records) in a good file of st
# n=5 r=2: sphere d of a ball file is section d, and distance s of an
# overlap file is section s-1, which holds one witness
SECTION_DEFECTS = {
    "value_type": (0, lambda value, recs: (-2, recs)),
    "value_without_witnesses": (0, lambda value, recs: (value, [])),
    "witnesses_without_value": (0, lambda value, recs: (-1, recs)),
    # a record that is not a permutation: [1,1,3,4,5]
    "bad_witness": (0, lambda value, recs: (value, [bytes([0, 0, 2, 3, 4]), *recs[1:]])),
    # a record of degree 4: the file is one byte short of whole records
    "short_witness": (0, lambda value, recs: (value, [recs[0][:4], *recs[1:]])),
    "repeated_witness": (0, lambda value, recs: (value, recs + recs[:1])),
    # a repeated symbol in the last section only, for the one permutation
    # check over the whole file
    "bad_last_entry": (-1, lambda value, recs: (value, [*recs[:-1], bytes([0, 1, 2, 3, 3])])),
    "ball_absent_value": (1, lambda value, recs: (-1, recs)),
    "ball_empty_sphere": (2, lambda value, recs: (value, [])),
    "ball_non_permutation": (2, lambda value, recs: (value, sorted([*recs[:-1], bytes(5)]))),
    "ball_repeated_record": (2, lambda value, recs: (value, sorted(recs + recs[:1]))),
    "ball_unsorted": (1, lambda value, recs: (value, recs[::-1])),
}


class TestOverlapFile:
    @pytest.mark.parametrize("kind", ["T", "t", "st"])
    def test_first_call_writes_then_loads(self, tmp_path, kind, monkeypatch):
        g = GeneratorSet.of_kind(kind, 5)
        want = max_ball_intersection(g, 2)
        # an overlap file of the JSON format, which is never read
        leftover = tmp_path / f"overlap_{kind}_n5_r2.json"
        leftover.write_bytes(json_overlap_doc(g, want, 3))
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
        assert leftover.read_bytes() == json_overlap_doc(g, want, 3)

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
        # every attaining vertex, sorted: s=1: [1,2,4,3], [1,3,2,4] and
        # [2,1,3,4]; s=2: [2,1,4,3]
        assert path.read_bytes() == b"".join([
            _HEADER.pack(b"POVL", 4, 1, 4, 1, 2),
            _SECTION.pack(2, 3), bytes([0, 1, 3, 2, 0, 2, 1, 3, 1, 0, 2, 3]),
            _SECTION.pack(2, 1), bytes([1, 0, 3, 2]),
        ])

    def test_one_permutation_check_per_file(self, tmp_path, monkeypatch):
        g = GeneratorSet.prefix(5)
        best = overlap_of_identity(g, 2)
        ball = ball_of_identity(g, 2)
        path = overlap_path(tmp_path, g, 2)
        save_overlap(path, g, best)
        save_ball(cache_path(tmp_path, g, 2), ball)
        checked = []
        monkeypatch.setattr(
            cache, "all_permutations", lambda data, n: checked.append(data) or True
        )
        assert load_overlap(path, g, 2) == best
        assert load_ball(cache_path(tmp_path, g, 2), g, 2) == ball
        assert checked == [
            b"".join(b"".join(map(bytes, sm.witnesses)) for sm in best.per_s),
            b"".join(b"".join(sorted(sph)) for sph in ball.packed_spheres),
        ]

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
        # overlap files, refused by the reader both loaders share
        "garbage", "empty", "truncated", "truncated_section_header", "trailing_bytes",
        "other_degree", "other_radius", "other_kind", "wrong_version", "version_3", "missing_key",
        "not_an_object", "version_1", "version_2", "json_version_3",
        "entry_count", *[d for d in SECTION_DEFECTS if not d.startswith("ball_")],
        # ball files
        "ball_overlap_file", "ball_version_2", "ball_truncated_section_header",
        "ball_trailing_bytes", *[d for d in SECTION_DEFECTS if d.startswith("ball_")],
        "entry_order",
    ])
    def test_bad_file_recomputed_and_rewritten(self, tmp_path, defect):
        g = GeneratorSet.prefix(5)
        ball, best = ball_of_identity(g, 2), max_ball_intersection(g, 2)
        ball_file, overlap_file = cache_path(tmp_path, g, 2), overlap_path(tmp_path, g, 2)
        save_ball(ball_file, ball)
        save_overlap(overlap_file, g, best)
        if defect.startswith("ball_") or defect == "entry_order":
            path, other, magic, want = ball_file, overlap_file, b"PBAL", ball
            load, cached = load_ball, ball_of_identity_cached
        else:
            path, other, magic, want = overlap_file, ball_file, b"POVL", best
            load, cached = load_overlap, overlap_of_identity_cached
        good = path.read_bytes()
        sections = read_sections(good, g.n)

        def saved_overlap(kind, n, r):
            og = GeneratorSet.of_kind(kind, n)
            save_overlap(path, og, max_ball_intersection(og, r))
            return path.read_bytes()

        if defect in SECTION_DEFECTS:
            index, edit = SECTION_DEFECTS[defect]
            sections[index] = edit(*sections[index])
            bad = record_blob(magic, g, 2, sections)
        else:
            bad = {
                "garbage": lambda: b"\x00garbage",
                "empty": lambda: b"",
                "truncated": lambda: good[: len(good) // 2],
                # the first section's value, without its count
                "truncated_section_header": lambda: good[: _HEADER.size + 4],
                "trailing_bytes": lambda: good + b"\0",
                "other_degree": lambda: saved_overlap(g.kind, 6, 2),
                "other_radius": lambda: saved_overlap(g.kind, 5, 1),
                "other_kind": lambda: saved_overlap("t", 5, 2),
                "wrong_version": lambda: good[:4] + struct.pack("<H", 5) + good[6:],
                # the layout of version 3, whose witnesses meant other vertices
                "version_3": lambda: good[:4] + struct.pack("<H", 3) + good[6:],
                # the header alone, promising sections the file lacks
                "missing_key": lambda: good[: _HEADER.size],
                "entry_count": lambda: record_blob(magic, g, 2, sections[:-1]),
                # a ball file copied to the overlap name, and the reverse
                "not_an_object": other.read_bytes,
                "ball_overlap_file": other.read_bytes,
                # the files of earlier versions, at the current names
                "version_1": lambda: json_overlap_doc(g, best, 1),
                "version_2": lambda: json_overlap_doc(g, best, 2),
                "json_version_3": lambda: json_overlap_doc(g, best, 3),
                "ball_version_2": lambda: ball_blob(g, 2, [recs for _, recs in sections], 2),
                "ball_truncated_section_header": lambda: good[: _HEADER.size + 4],
                "ball_trailing_bytes": lambda: good + b"\0",
                # spheres 1 and 2 swapped, values and all: a ball file's
                # value names its sphere's distance, so the order is checked
                "entry_order": lambda: record_blob(magic, g, 2, [sections[i] for i in (0, 2, 1)]),
            }[defect]()
        path.write_bytes(bad)
        with pytest.raises(CacheError):
            load(path, g, 2)
        clear_ball_memo()
        assert cached(g, 2, tmp_path) == want
        assert path.read_bytes() == good
        assert load(path, g, 2) == want
