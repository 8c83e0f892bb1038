"""On-disk cache for identity-centered balls and overlap maxima.

A decode needs two objects: the radius-r identity ball and the overlap
maximum, one more than which is the number of patterns that pins down the
source.  Both are cached per (generator family, degree, radius) in one
directory.

Both kinds of file hold the same record layout (little-endian):

    magic    4s   b"PBAL" for a ball, b"POVL" for an overlap maximum
    version  H    format version (currently 4)
    kind     B    0 = all transpositions, 1 = adjacent, 2 = prefix
    n        B    degree
    radius   B    ``cayley.ball_radius`` of the request, so one file serves
                  every radius at or past the diameter
    sections B    number of sections: radius+1 for a ball, 2*radius for an
                  overlap maximum
    then per section:  value i, count I, then count n-byte records

A record is a vertex in the packed form of ``perms`` (byte i is p(i)), so
loading slices the file into one set per section and converts no ball
vertex.  A value of -1 means absent.

* Ball files, ``ball_<kind>_n<n>_r<radius>.bin``: one section per sphere
  d = 0..radius, whose value is d and whose records are the sphere's
  vertices, sorted ascending.
* Overlap files, ``overlap_<kind>_n<n>_r<radius>.bin``: one section per
  center distance s = 1..2*radius, whose value is the maximum overlap at s
  (absent beyond the diameter) and whose records are its witnesses, as
  ``cayley.max_ball_intersection_at`` keeps them: one vertex per attaining
  orbit in scan order for prefix swaps, one representative per attaining
  class for all transpositions, and every attaining vertex, sorted, for
  adjacent swaps.

One reader serves both loaders.  It rejects a file whose magic, version or
request (kind, degree, radius, section count) does not match, that is
truncated or has trailing bytes, that holds more than
``cayley.MAX_BALL_SIZE`` records (so the caller recomputes and meets the
same ``CapacityError`` as a run without the cache), that repeats a record
within a section, whose value is absent while its section holds records or
the reverse, or that holds a record which is not a permutation of 0..n-1,
by one ``perms.all_permutations`` call over the whole file.
``load_ball`` also rejects a sphere whose value is not its distance or
whose records are unsorted; ``load_overlap`` rejects a file with no value
at all.  Older files fail these checks and are rewritten: version 1 and 2
ball files, which stored ranks or had no per-sphere value, fail the
version check, as do the version 3 files of both kinds, since the
version is shared: a version 3 adjacent-swap overlap file holds one
witness per orbit, which would now read as the whole list.  The JSON
overlap files of earlier versions had another name and are never read.

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

import os
import struct
from functools import partial
from pathlib import Path

from . import cayley
from .cayley import (
    KINDS,
    GeneratorSet,
    IntersectionMax,
    MetricBall,
    SphereMax,
    ball_of_identity,
    ball_radius,
    overlap_of_identity,
    prime_identity_ball,
    prime_overlap,
)
from .errors import CacheError
from .perms import all_permutations, identity, pack, unpack

_BALL_MAGIC = b"PBAL"
_OVERLAP_MAGIC = b"POVL"
_VERSION = 4
_HEADER = struct.Struct("<4sHBBBB")
_SECTION = struct.Struct("<iI")
_ABSENT = -1
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}


def cache_path(root: Path, gen: GeneratorSet, radius: int) -> Path:
    return Path(root) / f"ball_{gen.kind}_n{gen.n}_r{radius}.bin"


def overlap_path(root: Path, gen: GeneratorSet, radius: int) -> Path:
    return Path(root) / f"overlap_{gen.kind}_n{gen.n}_r{radius}.bin"


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


def _save(path: Path, magic: bytes, gen: GeneratorSet, radius: int, sections) -> None:
    """Write a record file holding ``sections``, a list of (value, records)."""

    def chunks():
        yield _HEADER.pack(magic, _VERSION, _KIND_CODES[gen.kind], gen.n, radius, len(sections))
        for value, records in sections:
            yield _SECTION.pack(_ABSENT if value is None else value, len(records))
            yield b"".join(records)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(path, chunks())


def _load(path: Path, magic: bytes, gen: GeneratorSet, radius: int, sections: int):
    """(value, records in file order, set of records) for each section of
    the record file at ``path``, checked as the module docstring lists."""
    path = Path(path)
    blob = _read(path)
    if len(blob) < _HEADER.size:
        raise CacheError(f"cache file {path} is truncated")
    got_magic, version, *request = _HEADER.unpack_from(blob)
    if got_magic != magic or version != _VERSION:
        raise CacheError(f"cache file {path} has wrong magic/version")
    if request != [_KIND_CODES[gen.kind], gen.n, radius, sections]:
        raise CacheError(f"cache file {path} does not match the request")
    n = gen.n
    record = struct.Struct(f"{n}s")
    offset, size, out, chunks = _HEADER.size, 0, [], []
    for _ in range(sections):
        if offset + _SECTION.size > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        value, count = _SECTION.unpack_from(blob, offset)
        offset += _SECTION.size
        size += count
        if size > cayley.MAX_BALL_SIZE:
            raise CacheError(f"cache file {path} holds over {cayley.MAX_BALL_SIZE} vertices")
        end = offset + n * count
        if end > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        chunks.append(blob[offset:end])
        offset = end
        records = [rec for (rec,) in record.iter_unpack(chunks[-1])]
        members = frozenset(records)
        if len(members) != count:
            raise CacheError(f"cache file {path} has repeated records")
        if value < _ABSENT or (value == _ABSENT) != (count == 0):
            raise CacheError(f"cache file {path} has a value that does not fit its records")
        out.append((None if value == _ABSENT else value, records, members))
    if offset != len(blob):
        raise CacheError(f"cache file {path} has trailing bytes")
    # one check over the whole file: each call compares n(n-1)/2 columns
    if not all_permutations(b"".join(chunks), n):
        raise CacheError(f"cache file {path} holds a non-permutation")
    return out


def save_ball(path: Path, ball: MetricBall) -> None:
    if ball.center != identity(ball.gen.n):
        raise CacheError("only identity-centered balls are cacheable")
    spheres = [(d, sorted(sph)) for d, sph in enumerate(ball.packed_spheres)]
    _save(path, _BALL_MAGIC, ball.gen, ball.radius, spheres)


def load_ball(path: Path, gen: GeneratorSet, radius: int) -> MetricBall:
    """The ball stored in ``path``, checked for format and permutation
    validity as the module docstring lists, not for membership in the ball."""
    spheres = _load(path, _BALL_MAGIC, gen, radius, radius + 1)
    for d, (value, records, _) in enumerate(spheres):
        if value != d or records != sorted(records):
            raise CacheError(f"cache file {path} has a misplaced or unsorted sphere")
    return MetricBall(gen, identity(gen.n), radius, tuple(sph for _, _, sph in spheres))


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
    per_s = [(sm.value, list(map(pack, sm.witnesses))) for sm in best.per_s]
    _save(path, _OVERLAP_MAGIC, gen, best.radius, per_s)


def load_overlap(path: Path, gen: GeneratorSet, radius: int) -> IntersectionMax:
    """The overlap maximum stored in ``path``, checked as the module
    docstring lists."""
    sections = _load(path, _OVERLAP_MAGIC, gen, radius, 2 * radius)
    per_s = tuple(
        SphereMax(s, value, tuple(map(unpack, records)))
        for s, (value, records, _) in enumerate(sections, 1)
    )
    values = [value for value, _, _ in sections if value is not None]
    if not values:
        raise CacheError(f"cache file {path} holds no maximum")
    return IntersectionMax(radius, max(values), per_s)


def overlap_of_identity_cached(
    gen: GeneratorSet, r: int, cache_dir: Path | str | None
) -> IntersectionMax:
    """Disk-backed :func:`cayley.overlap_of_identity`, the same way
    :func:`ball_of_identity_cached` backs the identity ball: the file at
    :func:`cayley.ball_radius` is loaded and primed into the memo if usable,
    otherwise that profile is computed and the file (re)written."""
    if cache_dir is not None:
        radius = ball_radius(gen, r)
        _load_or_compute(
            overlap_path(Path(cache_dir), gen, radius), gen, radius, load_overlap,
            overlap_of_identity, lambda path, best: save_overlap(path, gen, best),
            partial(prime_overlap, gen),
        )
    return overlap_of_identity(gen, r)
