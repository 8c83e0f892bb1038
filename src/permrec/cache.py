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
    radius  B    ``cayley.ball_radius`` of the request, so one file serves
                 every radius at or past the diameter
    spheres B    number of stored spheres, exactly radius+1
    then per sphere:  count I, then count n-byte records, sorted ascending

A record is a vertex in the packed form of ``perms`` (byte i is p(i)), so
loading slices the file into the ball's packed spheres and never converts
a vertex.  ``load_ball`` rejects a file whose header does not match the
request, that is truncated or has trailing bytes, whose records in a
sphere are unsorted or repeated, or that holds a record which is not a
permutation of 0..n-1.  It also rejects a file whose spheres hold more than
``cayley.MAX_BALL_SIZE`` vertices, so the caller recomputes the ball and
meets the same ``CapacityError`` as a run without the cache.  Version 1
files, which stored lexicographic ranks, fail the version check.

Overlap files, ``overlap_<kind>_n<n>_r<radius>.json``, hold one JSON
object: the format name and version (currently 2), the request (kind, n,
radius), and per center distance s = 1..2r the maximum (null beyond the
diameter) with its witnesses in scan order, whose first entry is the pair
``channel.ambiguity_witness`` uses.  ``load_overlap`` rejects a file that
does not parse, does not match the request or does not have that shape,
and checks each witness with ``cayley.witness_vertex``, which owns the
label format.
Version 1 files, which also stored the size of the ball the scan read,
fail the version check.

The cache is an optimization: a missing, mismatched or malformed file is
reported via CacheError and callers recompute and rewrite it.  The checks
cover format and permutation validity, not membership in the ball (that
would cost more than computing the ball), so a file that passes them but
holds other vertices or maxima loads and changes results: only permrec
should write a cache directory.  Files are written to a temporary name in
the same directory and renamed into place, so processes sharing a cache
directory never read a half-written file.
"""

from __future__ import annotations

import json
import os
import struct
from functools import partial
from pathlib import Path

from . import cayley
from .cayley import (
    GeneratorSet,
    IntersectionMax,
    KIND_ADJACENT,
    KIND_ALL,
    KIND_PREFIX,
    MetricBall,
    SphereMax,
    ball_of_identity,
    ball_radius,
    overlap_of_identity,
    prime_identity_ball,
    prime_overlap,
    witness_vertex,
)
from .errors import CacheError
from .perms import all_permutations, identity

_MAGIC = b"PBAL"
_VERSION = 2
_HEADER = struct.Struct("<4sHBBBB")
_COUNT = struct.Struct("<I")
_KIND_CODES = {KIND_ALL: 0, KIND_ADJACENT: 1, KIND_PREFIX: 2}
_OVERLAP_FORMAT = "permrec-overlap"
_OVERLAP_VERSION = 2


def cache_path(root: Path, gen: GeneratorSet, radius: int) -> Path:
    return Path(root) / f"ball_{gen.kind}_n{gen.n}_r{radius}.bin"


def overlap_path(root: Path, gen: GeneratorSet, radius: int) -> Path:
    return Path(root) / f"overlap_{gen.kind}_n{gen.n}_r{radius}.json"


def write_atomically(path: Path, chunks) -> None:
    """Write the chunks to a temporary file beside path, then rename it into
    place, so a failed write leaves any previous file untouched."""
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


def save_ball(path: Path, ball: MetricBall) -> None:
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

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(path, chunks())


def load_ball(path: Path, gen: GeneratorSet, radius: int) -> MetricBall:
    """The ball stored in ``path``, checked for format and permutation
    validity as the module docstring lists, not for membership in the ball."""
    path = Path(path)
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
    if sphere_count != radius + 1:
        raise CacheError(f"cache file {path} has {sphere_count} spheres")
    record = struct.Struct(f"{n}s")
    offset = _HEADER.size
    spheres = []
    size = 0
    for _ in range(sphere_count):
        if offset + _COUNT.size > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        (count,) = _COUNT.unpack_from(blob, offset)
        offset += _COUNT.size
        size += count
        if size > cayley.MAX_BALL_SIZE:
            raise CacheError(
                f"cache file {path} holds more than {cayley.MAX_BALL_SIZE} vertices"
            )
        end = offset + n * count
        if end > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        data = blob[offset:end]
        offset = end
        records = [rec for (rec,) in record.iter_unpack(data)]
        sph = frozenset(records)
        if len(sph) != count or records != sorted(records):
            raise CacheError(f"cache file {path} has unsorted or repeated records")
        if not all_permutations(data, n):
            raise CacheError(f"cache file {path} holds a non-permutation")
        spheres.append(sph)
    if offset != len(blob):
        raise CacheError(f"cache file {path} has trailing bytes")
    return MetricBall(gen, identity(n), radius, tuple(spheres))


def ball_of_identity_cached(
    gen: GeneratorSet, radius: int, cache_dir: Path | str | None
) -> MetricBall:
    """Disk-backed identity ball.

    A usable cache file is loaded and primed into the in-memory memo so
    later engine calls reuse it; otherwise the ball is computed and the
    file (re)written.  Either way the result, and any ``CapacityError``,
    is what :func:`cayley.ball_of_identity` gives."""
    if cache_dir is None:
        return ball_of_identity(gen, radius)
    radius = ball_radius(gen, radius)
    return _load_or_compute(
        cache_path(Path(cache_dir), gen, radius), gen, radius,
        load_ball, ball_of_identity, save_ball, prime_identity_ball,
    )


def _load_or_compute(path, gen, radius, load, compute, save, prime):
    """Load and prime the memo, or on CacheError compute and save."""
    try:
        got = load(path, gen, radius)
    except CacheError:
        got = compute(gen, radius)
        save(path, got)
        return got
    prime(got)
    return got


def save_overlap(path: Path, gen: GeneratorSet, best: IntersectionMax) -> None:
    doc = {
        "format": _OVERLAP_FORMAT,
        "version": _OVERLAP_VERSION,
        "kind": gen.kind,
        "n": gen.n,
        "radius": best.radius,
        "per_s": [[sm.s, sm.value, list(sm.witnesses)] for sm in best.per_s],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(path, [json.dumps(doc).encode()])


def _sphere_max(s: int, entry, gen: GeneratorSet) -> SphereMax:
    """The SphereMax a per-s entry of an overlap file describes, or
    ValueError if the entry is malformed."""
    got_s, value, witnesses = entry
    valid = (
        type(got_s) is int
        and got_s == s
        and isinstance(witnesses, list)
        and (value is None) == (not witnesses)
        and (value is None or type(value) is int and value >= 0)
        and all(isinstance(w, str) for w in witnesses)
    )
    if not valid:
        raise ValueError(f"bad entry for s={s}")
    for w in witnesses:
        witness_vertex(gen, w)
    return SphereMax(s, value, tuple(witnesses))


def load_overlap(path: Path, gen: GeneratorSet, radius: int) -> IntersectionMax:
    """The overlap maximum stored in ``path``."""
    path = Path(path)
    try:
        doc = json.loads(_read(path))
        request = (doc["format"], doc["version"], doc["kind"], doc["n"], doc["radius"])
        if request != (_OVERLAP_FORMAT, _OVERLAP_VERSION, gen.kind, gen.n, radius):
            raise CacheError(f"cache file {path} does not match the request")
        entries = doc["per_s"]
        if len(entries) != 2 * radius:
            raise ValueError("bad entry count")
        per_s = tuple(_sphere_max(s, e, gen) for s, e in enumerate(entries, start=1))
        value = max(sm.value for sm in per_s if sm.value is not None)
    except (ValueError, TypeError, KeyError) as exc:
        raise CacheError(f"cache file {path} is malformed: {exc}")
    return IntersectionMax(radius, value, per_s)


def overlap_of_identity_cached(
    gen: GeneratorSet, r: int, cache_dir: Path | str | None
) -> IntersectionMax:
    """Disk-backed :func:`cayley.overlap_of_identity`, the same way
    :func:`ball_of_identity_cached` backs the identity ball: a usable file
    is loaded and primed into the memo, otherwise the maximum is computed
    and the file (re)written."""
    if cache_dir is None:
        return overlap_of_identity(gen, r)
    return _load_or_compute(
        overlap_path(Path(cache_dir), gen, r), gen, r, load_overlap, overlap_of_identity,
        lambda path, best: save_overlap(path, gen, best), partial(prime_overlap, gen),
    )
