"""On-disk cache for identity-centered balls and overlap maxima.

A decode needs two objects: the radius-r identity ball and the overlap
maximum, one more than which is the number of patterns that pins down the
source.  Both are cached per (generator family, degree, radius) in one
directory.

Ball files, ``ball_<kind>_n<n>_r<radius>.bin`` (little-endian):

    magic   4s   b"PBAL"
    version H    format version (currently 2)
    kind    B    0 = all transpositions, 1 = adjacent, 2 = prefix
    n       B    degree
    radius  B    requested radius
    spheres B    number of stored spheres, 1..radius+1 (radius may exceed
                 the diameter)
    then per sphere:  count I, then count n-byte records, sorted ascending

A record is a vertex in the packed form of ``perms`` (byte i is p(i)), so
loading slices the file into the ball's packed spheres and never converts
a vertex.  ``load_ball`` rejects a file whose header does not match the
request, that is truncated or has trailing bytes, whose records in a
sphere are unsorted or repeated, or that holds a record which is not a
permutation of 0..n-1.  Version 1 files, which stored lexicographic ranks,
fail the version check.

Overlap files, ``overlap_<kind>_n<n>_r<radius>.json``, hold one JSON
object: the format name and version, the request (kind, n, radius), the
size of the identity ball the scan read, and per center distance s = 1..2r
the maximum (null beyond the diameter) with its witnesses in scan order,
whose first entry is the pair ``channel.ambiguity_witness`` uses.
``load_overlap`` rejects a file that does not parse, does not match the
request or does not have that shape.

The cache is purely an optimization: a missing, mismatched or corrupt file
is reported via CacheError and callers recompute and rewrite it; results
are identical either way.  Explicit generator sets are never cached (their
contents are not captured by the header).  Files are written to a
temporary name in the same directory and renamed into place, so processes
sharing a cache directory never read a half-written file.
"""

from __future__ import annotations

import json
import os
import struct
from functools import cache
from itertools import combinations
from pathlib import Path

from .cayley import (
    Budgets,
    DEFAULT_BUDGETS,
    GeneratorSet,
    IntersectionMax,
    KIND_ADJACENT,
    KIND_ALL,
    KIND_PREFIX,
    MetricBall,
    SphereMax,
    ball_of_identity,
    overlap_of_identity,
    prime_identity_ball,
    prime_overlap,
    scanned_radius,
)
from .errors import CacheError
from .perms import IDENT, cycle_types, identity, parse_perm

_MAGIC = b"PBAL"
_VERSION = 2
_HEADER = struct.Struct("<4sHBBBB")
_COUNT = struct.Struct("<I")
_KIND_CODES = {KIND_ALL: 0, KIND_ADJACENT: 1, KIND_PREFIX: 2}
_OVERLAP_FORMAT = "permrec-overlap"
_OVERLAP_VERSION = 1


def cache_path(root: Path, gen: GeneratorSet, radius: int) -> Path:
    return Path(root) / f"ball_{gen.kind}_n{gen.n}_r{radius}.bin"


def overlap_path(root: Path, gen: GeneratorSet, radius: int) -> Path:
    return Path(root) / f"overlap_{gen.kind}_n{gen.n}_r{radius}.json"


def _write_atomically(path: Path, chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a per-process name, so concurrent writers never share a temporary file
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}")


def _check_cacheable(gen: GeneratorSet) -> None:
    if gen.kind not in _KIND_CODES:
        raise CacheError("explicit generator sets are not cacheable")


def save_ball(path: Path, ball: MetricBall) -> None:
    _check_cacheable(ball.gen)
    if ball.center != identity(ball.gen.n):
        raise CacheError("only identity-centered balls are cacheable")
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _KIND_CODES[ball.gen.kind],
        ball.gen.n,
        ball.radius,
        len(ball.packed_spheres),
    )

    def chunks():
        yield header
        for sph in ball.packed_spheres:
            yield _COUNT.pack(len(sph))
            yield b"".join(sorted(sph))

    _write_atomically(Path(path), chunks())


def _all_permutations(data: bytes, n: int, count: int) -> bool:
    """Whether each of the ``count`` n-byte records in ``data`` is a
    permutation of 0..n-1: no byte is n or more, and no two positions of a
    record hold the same byte.  The second test compares the records'
    positions pairwise, as columns of all records at once: two columns
    agree in a record iff their XOR has a zero byte there."""
    if data.translate(None, IDENT[n]):
        return False
    cols = [int.from_bytes(data[i::n], "little") for i in range(n)]
    return not any(
        b"\0" in (a ^ b).to_bytes(count, "little") for a, b in combinations(cols, 2)
    )


def load_ball(path: Path, gen: GeneratorSet, radius: int) -> MetricBall:
    path = Path(path)
    _check_cacheable(gen)
    blob = _read(path)
    if len(blob) < _HEADER.size:
        raise CacheError(f"cache file {path} is truncated")
    magic, version, kind_code, n, stored_radius, sphere_count = _HEADER.unpack_from(
        blob
    )
    if magic != _MAGIC or version != _VERSION:
        raise CacheError(f"cache file {path} has wrong magic/version")
    if kind_code != _KIND_CODES[gen.kind] or n != gen.n or stored_radius != radius:
        raise CacheError(f"cache file {path} does not match the request")
    if not 1 <= sphere_count <= radius + 1:
        raise CacheError(f"cache file {path} has {sphere_count} spheres")
    record = struct.Struct(f"{n}s")
    offset = _HEADER.size
    spheres = []
    for _ in range(sphere_count):
        if offset + _COUNT.size > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        (count,) = _COUNT.unpack_from(blob, offset)
        offset += _COUNT.size
        end = offset + n * count
        if end > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        data = blob[offset:end]
        offset = end
        records = [rec for (rec,) in record.iter_unpack(data)]
        sph = frozenset(records)
        if len(sph) != count or records != sorted(records):
            raise CacheError(f"cache file {path} has unsorted or repeated records")
        if not _all_permutations(data, n, count):
            raise CacheError(f"cache file {path} holds a non-permutation")
        spheres.append(sph)
    if offset != len(blob):
        raise CacheError(f"cache file {path} has trailing bytes")
    return MetricBall(gen, identity(n), radius, tuple(spheres))


def ball_of_identity_cached(
    gen: GeneratorSet,
    radius: int,
    cache_dir: Path | str | None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> MetricBall:
    """Disk-backed identity ball.

    A usable cache file is loaded and primed into the in-memory memo so
    later engine calls reuse it; otherwise the ball is computed and the
    file (re)written.  Either way the result, and any ``CapacityError``
    under ``budgets``, is what :func:`cayley.ball_of_identity` gives."""
    if cache_dir is None or gen.kind not in _KIND_CODES:
        return ball_of_identity(gen, radius, budgets)
    path = cache_path(Path(cache_dir), gen, radius)
    try:
        loaded = load_ball(path, gen, radius)
    except CacheError:
        computed = ball_of_identity(gen, radius, budgets)
        save_ball(path, computed)
        return computed
    prime_identity_ball(loaded)
    return ball_of_identity(gen, radius, budgets)


def save_overlap(
    path: Path, gen: GeneratorSet, best: IntersectionMax, scanned_size: int
) -> None:
    _check_cacheable(gen)
    doc = {
        "format": _OVERLAP_FORMAT,
        "version": _OVERLAP_VERSION,
        "kind": gen.kind,
        "n": gen.n,
        "radius": best.radius,
        "scanned_ball_size": scanned_size,
        "per_s": [[sm.s, sm.value, list(sm.witnesses)] for sm in best.per_s],
    }
    _write_atomically(Path(path), [json.dumps(doc).encode()])


@cache
def _class_labels(n: int) -> frozenset[str]:
    return frozenset(str(ct) for ct in cycle_types(n))


def _label_check(gen: GeneratorSet):
    """Predicate for the witness labels an overlap scan of ``gen`` gives:
    cycle types of degree n for the all-transpositions family, vertices
    otherwise."""
    if gen.kind == KIND_ALL:
        return _class_labels(gen.n).__contains__

    def is_vertex(label) -> bool:
        try:
            return len(parse_perm(label)) == gen.n
        except ValueError:
            return False

    return is_vertex


def _sphere_max(s: int, entry, is_label) -> SphereMax:
    """The SphereMax a per-s entry of an overlap file describes, or
    ValueError if the entry is malformed."""
    got_s, value, witnesses = entry
    valid = (
        type(got_s) is int
        and got_s == s
        and isinstance(witnesses, list)
        and (value is None) == (not witnesses)
        and (value is None or type(value) is int and value >= 0)
        and all(isinstance(w, str) and is_label(w) for w in witnesses)
    )
    if not valid:
        raise ValueError(f"bad entry for s={s}")
    return SphereMax(s, value, tuple(witnesses))


def load_overlap(
    path: Path, gen: GeneratorSet, radius: int
) -> tuple[IntersectionMax, int]:
    """The overlap maximum stored in ``path`` and the size of the ball its
    scan read."""
    path = Path(path)
    _check_cacheable(gen)
    try:
        doc = json.loads(_read(path))
        request = (doc["format"], doc["version"], doc["kind"], doc["n"], doc["radius"])
        if request != (_OVERLAP_FORMAT, _OVERLAP_VERSION, gen.kind, gen.n, radius):
            raise CacheError(f"cache file {path} does not match the request")
        size, entries = doc["scanned_ball_size"], doc["per_s"]
        if type(size) is not int or size < 1 or len(entries) != 2 * radius:
            raise ValueError("bad scanned ball size or entry count")
        is_label = _label_check(gen)
        per_s = tuple(
            _sphere_max(s, e, is_label) for s, e in enumerate(entries, start=1)
        )
        value = max(sm.value for sm in per_s if sm.value is not None)
    except (ValueError, TypeError, KeyError) as exc:
        raise CacheError(f"cache file {path} is malformed: {exc}")
    return IntersectionMax(radius, value, per_s), size


def overlap_of_identity_cached(
    gen: GeneratorSet,
    r: int,
    cache_dir: Path | str | None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> IntersectionMax:
    """Disk-backed :func:`cayley.overlap_of_identity`, the same way
    :func:`ball_of_identity_cached` backs the identity ball: a usable file
    is loaded and primed into the memo, otherwise the maximum is computed
    and the file (re)written."""
    if cache_dir is None or gen.kind not in _KIND_CODES:
        return overlap_of_identity(gen, r, budgets)
    path = overlap_path(Path(cache_dir), gen, r)
    try:
        best, size = load_overlap(path, gen, r)
    except CacheError:
        best = overlap_of_identity(gen, r, budgets)
        size = ball_of_identity(gen, scanned_radius(gen, r), budgets).size
        save_overlap(path, gen, best, size)
        return best
    prime_overlap(gen, best, size)
    return overlap_of_identity(gen, r, budgets)
