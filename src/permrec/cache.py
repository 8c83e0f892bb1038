"""Binary on-disk cache for identity-centered spheres and balls.

Layout (little-endian):

    magic   4s   b"PBAL"
    version H    format version (currently 1)
    kind    B    0 = all transpositions, 1 = adjacent, 2 = prefix
    n       B    degree
    radius  B    requested radius
    spheres B    number of stored spheres (radius may exceed the diameter)
    then per sphere:  count I, then count ranks (I each), sorted ascending

Ranks are the lexicographic permutation ranks, which fit 32 bits up to
degree 12.  The cache is purely an optimization: a missing, mismatched or
corrupt file is reported via CacheError and callers recompute; results must
be identical either way.  Explicit generator sets are never cached (their
contents are not captured by the header).  Files are written to a temporary
name in the same directory and renamed into place, so processes sharing a
cache directory never read a half-written file.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from .cayley import (
    Budgets,
    DEFAULT_BUDGETS,
    GeneratorSet,
    KIND_ADJACENT,
    KIND_ALL,
    KIND_PREFIX,
    MetricBall,
    ball_of_identity,
    prime_identity_ball,
)
from .errors import CacheError
from .perms import identity, rank, unrank

_MAGIC = b"PBAL"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBBB")
_COUNT = struct.Struct("<I")
_KIND_CODES = {KIND_ALL: 0, KIND_ADJACENT: 1, KIND_PREFIX: 2}


def cache_path(root: Path, gen: GeneratorSet, radius: int) -> Path:
    return Path(root) / f"ball_{gen.kind}_n{gen.n}_r{radius}.bin"


def save_ball(path: Path, ball: MetricBall) -> None:
    if ball.gen.kind not in _KIND_CODES:
        raise CacheError("explicit generator sets are not cacheable")
    if ball.center != identity(ball.gen.n):
        raise CacheError("only identity-centered balls are cacheable")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a per-process name, so concurrent writers never share a temporary file
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(
                _HEADER.pack(
                    _MAGIC,
                    _VERSION,
                    _KIND_CODES[ball.gen.kind],
                    ball.gen.n,
                    ball.radius,
                    len(ball.spheres),
                )
            )
            for sph in ball.spheres:
                ranks = sorted(rank(p) for p in sph)
                fh.write(_COUNT.pack(len(ranks)))
                fh.write(struct.pack(f"<{len(ranks)}I", *ranks))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_ball(path: Path, gen: GeneratorSet, radius: int) -> MetricBall:
    path = Path(path)
    if gen.kind not in _KIND_CODES:
        raise CacheError("explicit generator sets are not cacheable")
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}")
    if len(blob) < _HEADER.size:
        raise CacheError(f"cache file {path} is truncated")
    magic, version, kind_code, n, stored_radius, sphere_count = _HEADER.unpack_from(
        blob
    )
    if magic != _MAGIC or version != _VERSION:
        raise CacheError(f"cache file {path} has wrong magic/version")
    if kind_code != _KIND_CODES[gen.kind] or n != gen.n or stored_radius != radius:
        raise CacheError(f"cache file {path} does not match the request")
    offset = _HEADER.size
    spheres = []
    for _ in range(sphere_count):
        if offset + _COUNT.size > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        (count,) = _COUNT.unpack_from(blob, offset)
        offset += _COUNT.size
        end = offset + 4 * count
        if end > len(blob):
            raise CacheError(f"cache file {path} is truncated")
        ranks = struct.unpack_from(f"<{count}I", blob, offset)
        offset += 4 * count
        if list(ranks) != sorted(ranks):
            raise CacheError(f"cache file {path} has unsorted ranks")
        spheres.append(frozenset(unrank(n, r) for r in ranks))
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
    file (re)written.  Either way the result is identical to computing."""
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
    return loaded
