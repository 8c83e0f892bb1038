"""Deterministic work distribution.

Its only caller is the overlap scan, ``cayley.max_ball_intersection_at``,
kept so the benchmark can report its information-only
``parallel.speedup_2w``.  Results are assembled in input order, so any
worker count yields identical output; ``workers <= 1`` runs inline.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def run_mapped(fn, items, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
