"""In-memory span recorder for the traced run.

Spans are recorded from outside the package: ``install`` replaces public
module attributes (``permrec.channel.reconstruct`` and so on) with wrappers
that open a span, call the original and close the span, so calls the
package makes to itself are traced too.  ``restore`` puts the originals
back.  A span is [name, start_ns, end_ns, parent index, request id, attrs];
a layer's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.hook_errors = 0
        self._requests = 0
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def new_request(self) -> None:
        self.request = self._requests
        self._requests += 1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = attrs
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self._counts[name] += value

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        """Trace calls to module.attr; ``hook(result, args, kwargs)`` returns
        the span's counts.  A missing attribute is left alone."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.spans[idx][2] = time.perf_counter_ns()
            attrs = None
            if hook is not None:
                try:
                    attrs = hook(result, args, kwargs)
                except Exception:  # a counting hook must never fail the call
                    tracer.hook_errors += 1
            tracer.spans[idx][5] = attrs
            tracer._stack.pop()
            return result

        self._patch(module, attr, fn, traced)

    def count_calls(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        def counted(*args, **kwargs):
            tracer.add(name, 1)
            return fn(*args, **kwargs)

        self._patch(module, attr, fn, counted)

    def _patch(self, module, attr, original, replacement) -> None:
        replacement.__wrapped__ = original
        setattr(module, attr, replacement)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": req, "attrs": attrs,
                }) + "\n")

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def by_layer(self) -> dict[str, tuple[list[float], list[dict]]]:
        """{name: (self times in s, attrs of each span)}."""
        groups: dict = defaultdict(lambda: ([], []))
        for span, st in zip(self.spans, self.self_times()):
            times, attrs = groups[span[0]]
            times.append(st / 1e9)
            attrs.append(span[5] or {})
        return dict(groups)

    def count(self, name: str) -> float:
        return self._counts[name]


def install(tracer: Tracer, pkg) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    sizes: dict = {}

    def ball_size(gen, r):
        key = (gen.kind, gen.n, r)
        if key not in sizes:
            sizes[key] = pkg.cayley.ball_of_identity(gen, r).size
        return sizes[key]

    def scan_probes(res, args, kwargs):
        gen, r, s = _arg(args, kwargs, 0, "gen"), _arg(args, kwargs, 1, "r"), _arg(args, kwargs, 2, "s")
        key = (gen.kind, gen.n, r, s)
        if key not in sizes:
            if gen.kind == "T":
                cands = sum(1 for ct in pkg.perms.cycle_types(gen.n)
                            if ct.min_transpositions == s)
            else:
                sph = pkg.cayley.ball_of_identity(gen, 2 * r).spheres
                cands = len(sph[s]) if s < len(sph) else 0
            sizes[key] = cands * ball_size(gen, r)
        return {"probes": sizes[key]}

    def reconstruct_counts(res, args, kwargs):
        gen, r = _arg(args, kwargs, 2, "gen"), _arg(args, kwargs, 1, "r")
        return {"candidates": len(res.candidates), "scanned": ball_size(gen, r)}

    def stdout_bytes(res, args, kwargs):
        # the caller captures stdout in a StringIO around cli.main
        return {"stdout_bytes": len(sys.stdout.getvalue().encode())}

    def file_bytes(res, args, kwargs):
        return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}

    cayley, channel, cli, claims = pkg.cayley, pkg.channel, pkg.cli, pkg.claims
    tracer.wrap(cayley, "ball", "cayley.ball", lambda res, a, k: {"vertices": res.size})
    for mod in (cayley, claims):
        tracer.wrap(mod, "max_ball_intersection_at", "cayley.overlap_scan", scan_probes)
        tracer.wrap(mod, "bfs_levels", "cayley.bfs",
                    lambda res, a, k: {"vertices": sum(map(len, res))})
    for mod in (channel, cli):
        tracer.wrap(mod, "reconstruct", "channel.reconstruct", reconstruct_counts)
        tracer.wrap(mod, "run_experiment", "channel.experiment")
    tracer.wrap(channel, "generate_patterns", "channel.generate",
                lambda res, a, k: {"kept": len(res)})
    tracer.count_calls(channel, "distort", "channel.distort_calls")
    tracer.wrap(pkg.cache, "load_ball", "cache.load", file_bytes)
    tracer.wrap(pkg.cache, "save_ball", "cache.save", file_bytes)
    tracer.wrap(cli, "main", "cli.main", stdout_bytes)
    tracer.wrap(claims, "run_suites", "claims.suites", lambda res, a, k: {"rows": len(res)})


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans.  ``*_s`` is mean self time
    per call; counts are totals; every ratio is given with both bases."""
    layers = tracer.by_layer()

    def mean_s(name):
        return statistics.fmean(layers[name][0])

    def total(name, key):
        return sum(a.get(key, 0) for a in layers[name][1])

    kept = total("channel.generate", "kept")
    draws = tracer.count("channel.distort_calls")
    candidates = total("channel.reconstruct", "candidates")
    scanned = total("channel.reconstruct", "scanned")
    return {
        "cayley.ball_s": mean_s("cayley.ball"),
        "cayley.ball_vertices": total("cayley.ball", "vertices"),
        "cayley.overlap_scan_s": mean_s("cayley.overlap_scan"),
        "cayley.overlap_probes": total("cayley.overlap_scan", "probes"),
        "cayley.bfs_s": mean_s("cayley.bfs"),
        "cayley.bfs_vertices": total("cayley.bfs", "vertices"),
        "channel.reconstruct_s": mean_s("channel.reconstruct"),
        "channel.reconstruct_calls": len(layers["channel.reconstruct"][0]),
        "channel.candidates": candidates,
        "channel.members_scanned": scanned,
        "channel.candidate_yield": candidates / scanned if scanned else 0.0,
        "channel.generate_s": mean_s("channel.generate"),
        "channel.distort_calls": draws,
        "channel.patterns_kept": kept,
        "channel.pattern_accept_ratio": kept / draws if draws else 0.0,
        "channel.experiment_s": mean_s("channel.experiment"),
        "cache.load_s": mean_s("cache.load"),
        "cache.save_s": mean_s("cache.save"),
        "cache.bytes": total("cache.load", "bytes") + total("cache.save", "bytes"),
        "cli.main_s": mean_s("cli.main"),
        "cli.stdout_bytes": total("cli.main", "stdout_bytes"),
        "claims.suites_s": mean_s("claims.suites"),
        "claims.rows": total("claims.suites", "rows"),
        "trace.spans": len(tracer.spans),
    }
