"""Layer pass and direct timings for the traced run.

``layer_pass`` calls every layer once on a small fixed instance, under the
request id "pass".  Every traced run makes it after the workload's cycles,
and its spans are counted with the workload's, so each per-layer figure
has the same sources on every workload and every commit; where a workload
bypasses a layer, that layer's figure is the pass alone.  The other
functions time public functions directly: per-call costs of the ``perms`` and ``rng``
primitives on permutations drawn from the workload's inputs, disk-cache
load against compute for the workload's largest ball, and the overlap
scans at one and two workers.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from math import factorial

import inputs
from workloads import Profile, expected_diameter, expected_overlap

PASS_INSTANCE = ("T", 7, 2)
# the overlap scans of the profile workload's reports
SCAN_INSTANCES = tuple(dict.fromkeys(job[1:4] for job in Profile.JOBS if job[0] == "report"))


def layer_pass(pkg, tracer, seed: int, workdir) -> int:
    """Exercise every layer once; returns the number of wrong answers."""
    tracer.request = "pass"
    kind, n, r = PASS_INSTANCE
    rng = inputs.Stream(seed, "pass")
    gen = pkg.cayley.GeneratorSet.of_kind(kind, n)
    threshold = expected_overlap(kind, n, r)
    failures = 0
    pkg.cayley.clear_ball_memo()
    failures += pkg.cayley.max_ball_intersection(gen, r).value != threshold
    diameter = pkg.cayley.diameter(pkg.cayley.GeneratorSet.of_kind("t", 6))
    failures += diameter != expected_diameter("t", 6)
    x = rng.perm(n)
    spec = pkg.channel.ChannelSpec(gen, r, rng.next64() >> 1)
    pats = pkg.channel.generate_patterns(x, spec, threshold + 1)
    failures += pkg.channel.reconstruct(pats, r, gen).candidates != (x,)
    summary = pkg.channel.run_experiment(gen, r, 2, rng.next64() >> 1)
    failures += summary.unique != 2
    cache_dir = workdir / "pass-cache"
    pattern_file = workdir / "pass-patterns.txt"
    pattern_file.write_text("".join(inputs.format_perm(p) + "\n" for p in pats))
    for _ in range(2):  # the first call saves, the second loads
        pkg.cayley.clear_ball_memo()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main(["reconstruct", "--graph", kind, "--r", str(r),
                                 "--patterns", str(pattern_file),
                                 "--cache-dir", str(cache_dir)])
        failures += code != 0
    rows = pkg.claims.run_suites(["diameters"], pkg.claims.SuiteConfig(max_n=5))
    failures += any(row.verdict == "fail" for row in rows)
    tracer.request = None
    return failures


def _per_call_ns(loop, calls: int, reps: int = 5) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        loop()
        samples.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def primitive_costs(pkg, perms: list, seed: int) -> dict[str, float]:
    """Per-call ns of compose, inverse, rank, unrank and rng.below."""
    rng = inputs.Stream(seed, "primitives")
    pool = rng.sample(perms, min(len(perms), 4000))
    by_degree: dict[int, list] = {}
    for p in pool:
        by_degree.setdefault(len(p), []).append(p)
    pairs = [(ps[i], ps[i + 1]) for ps in by_degree.values() for i in range(len(ps) - 1)]
    ranked = [(len(p), pkg.perms.rank(p)) for p in pool]
    bounds = [factorial(len(p)) for p in pool]
    perms_mod = pkg.perms
    gen = pkg.rng.SplitMix64(seed)

    def compose_loop():
        for p, q in pairs:
            perms_mod.compose(p, q)

    def inverse_loop():
        for p in pool:
            perms_mod.inverse(p)

    def rank_loop():
        for p in pool:
            perms_mod.rank(p)

    def unrank_loop():
        for n, k in ranked:
            perms_mod.unrank(n, k)

    def below_loop():
        for b in bounds:
            gen.below(b)

    return {
        "perms.compose_ns": _per_call_ns(compose_loop, len(pairs)),
        "perms.inverse_ns": _per_call_ns(inverse_loop, len(pool)),
        "perms.rank_ns": _per_call_ns(rank_loop, len(pool)),
        "perms.unrank_ns": _per_call_ns(unrank_loop, len(ranked)),
        "rng.below_ns": _per_call_ns(below_loop, len(bounds)),
    }


def load_over_compute(pkg, instance, workdir, reps: int = 3) -> dict[str, float]:
    """Median time to load a cached identity ball against computing it."""
    kind, n, r = instance
    gen = pkg.cayley.GeneratorSet.of_kind(kind, n)
    path = workdir / "lc" / f"ball_{kind}_n{n}_r{r}.bin"
    compute, load = [], []
    for _ in range(reps):
        pkg.cayley.clear_ball_memo()
        t0 = time.perf_counter()
        ball = pkg.cayley.ball_of_identity(gen, r)
        compute.append(time.perf_counter() - t0)
        pkg.cache.save_ball(path, ball)
        t0 = time.perf_counter()
        pkg.cache.load_ball(path, gen, r)
        load.append(time.perf_counter() - t0)
    lo, co = statistics.median(load), statistics.median(compute)
    return {
        "cache.load_over_compute": lo / co,
        "cache.lc_load_s": lo,
        "cache.lc_compute_s": co,
    }


def scan_speedup(pkg) -> tuple[dict[str, float], bool]:
    """Overlap scans at one and at two workers; returns the timings and
    whether both gave the same answers."""
    gens = [(pkg.cayley.GeneratorSet.of_kind(k, n), r) for k, n, r in SCAN_INSTANCES]
    for gen, r in gens:
        pkg.cayley.ball_of_identity(gen, 2 * r)
        pkg.cayley.ball_of_identity(gen, r)
    elapsed, answers = {}, {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        answers[workers] = [
            pkg.cayley.max_ball_intersection(gen, r, workers=workers) for gen, r in gens
        ]
        elapsed[workers] = time.perf_counter() - t0
    return {
        "parallel.speedup_2w": elapsed[1] / elapsed[2],
        "parallel.scan_1w_s": elapsed[1],
        "parallel.scan_2w_s": elapsed[2],
    }, answers[1] == answers[2]
