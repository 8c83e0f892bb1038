"""The four benchmark workloads and their oracles.

Each workload builds its inputs from the seed (see inputs.py), knows how to
set itself up from a cold ball memo, and hands the runner one cycle of
operations at a time.  A cycle has a fixed mix, so every whole cycle has the
same proportions of each kind of operation; the mixes are weighted so that
the median and the tail percentile fall inside one kind's latency band
rather than on the border between two (see NOTES.md).

Every call into the package goes through a module attribute
(``pkg.channel.reconstruct``), so the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable

import inputs

# Overlap maxima the oracles hold the package to.  r = 1, 2 come from the
# closed forms; r = 3 has none and uses the exhaustive scan's value.
_R3_OVERLAP = {("T", 8): 891, ("T", 10): 2484, ("t", 10): 90}


def expected_overlap(kind: str, n: int, r: int) -> int:
    if r == 1:
        return 3 if kind == "T" else 2
    if r == 2:
        return 3 * (n - 2) * (n + 1) // 2 if kind == "T" else 2 * (n - 1)
    return _R3_OVERLAP[(kind, n)]


def expected_diameter(kind: str, n: int) -> int:
    return {"T": n - 1, "t": comb(n, 2), "st": 3 * (n - 1) // 2}[kind]


# Claims rows whose closed form disagrees with brute force at the seed
# commit (per-distance tables for adjacent swaps at s=3, prefix swaps at
# s=2).  The oracle accepts these rows as "fail" only with exactly this
# measured value, or as "pass" once the formula is fixed.
KNOWN_CLAIM_MISMATCHES = {
    ("nstable.t.s3", "n=4,s=3"): "4",
    ("nstable.t.s3", "n=5,s=3"): "4",
    ("nstable.t.s3", "n=6,s=3"): "6",
    ("nstable.st.s2", "n=5,s=2"): "6",
    ("nstable.st.s2", "n=6,s=2"): "7",
}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    name = ""
    tail_pct = 50.0
    # largest identity ball this workload reads, for the load/compute ratio
    cache_instance = ("T", 9, 2)

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.setup_failures = 0

    def describe(self):
        """Canonical form of the generated inputs, for the digest."""
        raise NotImplementedError

    def reset(self) -> None:
        """Undo the previous set-up's side effects; not timed."""

    def setup(self) -> None:
        """Build what the timed phase needs, starting from a cold memo."""
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def sample_perms(self) -> list[tuple[int, ...]]:
        """Permutations from this workload's inputs, for per-call timings."""
        raise NotImplementedError

    def gen(self, kind: str, n: int):
        return self.pkg.cayley.GeneratorSet.of_kind(kind, n)

    def _check_threshold(self, kind: str, n: int, r: int) -> None:
        got = self.pkg.cayley.max_ball_intersection(self.gen(kind, n), r).value
        if got != expected_overlap(kind, n, r):
            self.setup_failures += 1


class Decode(Workload):
    """Reconstruction requests against warm balls."""

    name = "decode"
    tail_pct = 95.0
    # per cycle: st9 x2, t10 x2, T9 x4, T8 x1, so the median sits near the
    # bottom of T9's band and p95 in the middle of T8's
    MIX = (("T", 9, 2), ("st", 9, 2), ("T", 9, 2), ("t", 10, 3), ("T", 9, 2),
           ("st", 9, 2), ("T", 9, 2), ("t", 10, 3), ("T", 8, 3))
    POOL = 40  # requests per instance; i % 20 < 4 ambiguous, == 4 inconsistent
    cache_instance = ("T", 8, 3)

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.requests = {}
        for inst in dict.fromkeys(self.MIX):
            kind, n, r = inst
            sampler = inputs.BallSampler(kind, n, r)
            rng = inputs.Stream(seed, f"decode/{kind}/{n}/{r}")
            m = expected_overlap(kind, n, r) + 1
            pool = []
            for i in range(self.POOL):
                x = rng.perm(n)
                if i % 20 < 4:
                    pats, y = sampler.ambiguous(rng, x, m - 1)
                    pool.append((pats, ("ambiguous", x, y)))
                elif i % 20 == 4:
                    pool.append((sampler.inconsistent(rng, x, m), ("inconsistent",)))
                else:
                    pool.append((sampler.honest(rng, x, m), ("unique", x)))
            self.requests[inst] = pool
        self._served = dict.fromkeys(self.requests, 0)

    def describe(self):
        return {
            f"{k}/{n}/{r}": [[pats, list(exp)] for pats, exp in pool]
            for (k, n, r), pool in self.requests.items()
        }

    def setup(self):
        for kind, n, r in dict.fromkeys(self.MIX):
            self.pkg.cayley.ball_of_identity(self.gen(kind, n), r)
            self._check_threshold(kind, n, r)

    def cycle(self):
        ops = []
        for kind, n, r in self.MIX:
            pool = self.requests[(kind, n, r)]
            pats, exp = pool[self._served[(kind, n, r)] % len(pool)]
            self._served[(kind, n, r)] += 1
            gen = self.gen(kind, n)
            ops.append(Op(
                f"{kind}{n}r{r}",
                lambda pats=pats, r=r, gen=gen: self.pkg.channel.reconstruct(pats, r, gen),
                lambda res, exp=exp: check_decode(res, exp),
            ))
        return ops

    def sample_perms(self):
        return [p for pool in self.requests.values() for pats, _ in pool for p in pats]


def check_decode(res, exp) -> bool:
    status = exp[0]
    if res.status != status:
        return False
    if status == "unique":
        return tuple(res.candidates) == (exp[1],)
    if status == "ambiguous":
        return exp[1] in res.candidates and exp[2] in res.candidates
    return len(res.candidates) == 0


class Profile(Workload):
    """Metric-profile jobs, each from a cleared memo as one report run."""

    name = "profile"
    tail_pct = 75.0
    # Latency bands at the seed, scaled to the nominal host speed: the t9
    # and T8 reports 30 and 75 ms, the st9 report and the suites about
    # 0.22 s, t8 and st8 with diameter 0.6-0.9 s.  Four, six and two jobs
    # a pass put the median a third of the way into the 0.22 s band and
    # p75 two thirds of the way in, with the diameter jobs beyond it.  A
    # pass is short enough for four or more to fit in a run.
    JOBS = (
        (("report", "t", 9, 2, False), ("report", "T", 8, 3, False)) * 2
        + (("report", "st", 9, 2, False),) * 2
        + (("suites", "all", 6, 0, False),) * 4
        + (("report", "t", 8, 2, True), ("report", "st", 8, 2, True))
    )
    cache_instance = ("T", 8, 3)

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        rng = inputs.Stream(seed, "profile/order")
        self.order = rng.sample(self.JOBS, len(self.JOBS))
        # the identity balls a report run builds first: radius r, and 2r
        # for the families whose overlap scan reads the larger ball
        self.balls = {}
        for job, kind, n, r, _ in dict.fromkeys(self.JOBS):
            if job == "report":
                for radius in (r,) if kind == "T" else (2 * r, r):
                    self.balls[(kind, n, radius)] = sum(
                        map(len, inputs.spheres(kind, n, radius))
                    )

    def describe(self):
        return [list(job) for job in self.order]

    def setup(self):
        # Every job clears the memo and builds its balls again, so this
        # set-up is the cold ball build that starts each report job; the
        # timed jobs do not use what it builds.
        for (kind, n, radius), size in self.balls.items():
            ball = self.pkg.cayley.ball_of_identity(self.gen(kind, n), radius)
            if ball.size != size:
                self.setup_failures += 1

    def cycle(self):
        ops = []
        for job in self.order:
            kind, n, r = job[1:4]
            if job[0] == "report":
                ops.append(Op(f"report-{kind}{n}r{r}", lambda j=job: self._report(j),
                              lambda rep, j=job: check_report(rep, j)))
            else:
                ops.append(Op("suites", self._suites, self._check_rows))
        return ops

    def _report(self, job):
        _, kind, n, r, diam = job
        self.pkg.cayley.clear_ball_memo()
        return self.pkg.cayley.build_graph_report(
            self.gen(kind, n), r, with_diameter=diam
        ).to_doc()

    def _suites(self):
        self.pkg.cayley.clear_ball_memo()
        claims = self.pkg.claims
        rows = claims.run_suites(["all"], claims.SuiteConfig(max_n=6))
        return [r.to_doc() for r in rows]

    def _check_rows(self, rows) -> bool:
        return bool(rows) and all(check_claim_row(row) for row in rows)

    def sample_perms(self):
        rng = inputs.Stream(self.seed, "profile/perms")
        return [rng.perm(8) for _ in range(2000)]


def check_report(doc, job) -> bool:
    _, kind, n, r, diam = job
    want_nr = {str(rr): expected_overlap(kind, n, rr) for rr in range(1, r + 1)}
    return (
        doc["n_r"] == want_nr
        and doc["v"] == factorial(n)
        and doc["k"] == len(inputs.swap_pairs(kind, n))
        and doc["diameter"] == (expected_diameter(kind, n) if diam else None)
    )


def check_claim_row(row) -> bool:
    if row["verdict"] in ("pass", "skip"):
        return True
    known = KNOWN_CLAIM_MISMATCHES.get((row["claim_id"], row["instance"]))
    return known is not None and row["measured"] == known


class Simulate(Workload):
    """Seeded run_experiment calls on warm balls."""

    name = "simulate"
    tail_pct = 75.0
    # (kind, n, r, mode, trials).  Four cheap T9 calls (about 0.1 s) to
    # four st9 adversarial ones (about 0.5 s) put the median near the bottom
    # of the adversarial band; the t10 call (about 1.4 s) is the top band.
    MIX = (
        ("T", 9, 2, "honest", 20),
        ("st", 9, 2, "adversarial", 10),
    ) * 4 + (("t", 10, 3, "exact", 5),)
    POOL = 16  # seeds per slot

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        rng = inputs.Stream(seed, "simulate/seeds")
        self.seeds = [[rng.next64() >> 1 for _ in range(self.POOL)] for _ in self.MIX]
        self._rounds = 0

    def describe(self):
        return {"mix": [list(m) for m in self.MIX], "seeds": self.seeds}

    def setup(self):
        for kind, n, r, _, _ in dict.fromkeys(self.MIX):
            gen = self.gen(kind, n)
            self.pkg.cayley.ball_of_identity(gen, r)
            self._check_threshold(kind, n, r)

    def cycle(self):
        rnd = self._rounds
        self._rounds += 1
        ops = []
        for slot, spec in enumerate(self.MIX):
            seed = self.seeds[slot][rnd % self.POOL]
            ops.append(Op(f"{spec[0]}{spec[1]}r{spec[2]}-{spec[3]}",
                          lambda spec=spec, seed=seed: self._experiment(spec, seed),
                          lambda s, spec=spec: check_experiment(s, spec)))
        return ops

    def _experiment(self, spec, seed):
        kind, n, r, mode, trials = spec
        adversarial = mode == "adversarial"
        return self.pkg.channel.run_experiment(
            self.gen(kind, n), r, trials, seed,
            m=expected_overlap(kind, n, r) if adversarial else None,
            adversarial=adversarial,
            exact_errors=mode == "exact",
        )

    def sample_perms(self):
        rng = inputs.Stream(self.seed, "simulate/perms")
        return [rng.perm(9) for _ in range(2000)]


def check_experiment(summary, spec) -> bool:
    kind, n, r, mode, trials = spec
    want = expected_overlap(kind, n, r)
    if summary.threshold != want or summary.trials != trials:
        return False
    if mode == "adversarial":
        return summary.m == want and summary.ambiguous == trials
    return summary.m == want + 1 and summary.unique == trials


class Coldstart(Workload):
    """In-process CLI invocations against a disk cache filled in set-up."""

    name = "coldstart"
    tail_pct = 97.0
    FILES = (("T", 10, 3), ("t", 10, 3), ("st", 9, 2))
    SIM = ("t", 9, 2, 5)  # kind, n, r, trials
    # Latency bands at the seed: st9 about 2 ms, t10 about 5 ms, the t9
    # simulate 35-60 ms, T10 70-130 ms.  Three, three, eight and one per
    # cycle put the median a fifth of the way into the simulate band and
    # p97 in the middle of T10's.  Reconstructions alternate
    # unique and ambiguous files.
    MIX = (("st", 9, 2),) * 3 + (("t", 10, 3),) * 3 + (SIM,) * 8 + (("T", 10, 3),)
    POOL = 6  # pattern files per (instance, status)
    cache_instance = ("T", 10, 3)

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.files = {}
        self.texts = {}
        self.sampled = []
        for kind, n, r in self.FILES:
            sampler = inputs.BallSampler(kind, n, r)
            rng = inputs.Stream(seed, f"coldstart/{kind}/{n}/{r}")
            m = expected_overlap(kind, n, r) + 1
            for status in ("unique", "ambiguous"):
                entries = []
                for i in range(self.POOL):
                    x = rng.perm(n)
                    if status == "unique":
                        pats, exp = sampler.honest(rng, x, m), ("unique", x)
                    else:
                        pats, y = sampler.ambiguous(rng, x, m - 1)
                        exp = ("ambiguous", x, y)
                    self.sampled.extend(pats)
                    name = f"{kind}{n}r{r}-{status}-{i}.txt"
                    self.texts[name] = "".join(inputs.format_perm(p) + "\n" for p in pats)
                    entries.append((name, exp))
                self.files[(kind, n, r, status)] = entries
        rng = inputs.Stream(seed, "coldstart/sim")
        self.sim_seeds = [rng.next64() >> 1 for _ in range(8 * self.POOL)]
        self.pattern_dir = workdir / "patterns"
        self.pattern_dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.texts.items():
            (self.pattern_dir / name).write_text(text)
        self.cache_dir = None
        self._served = dict.fromkeys(self.MIX, 0)

    def describe(self):
        return {"files": self.texts, "sim_seeds": self.sim_seeds}

    def _cache_entries(self):
        kind, n, r, _ = self.SIM
        entries = [(k, nn, rr) for k, nn, rr in self.FILES]
        return entries + [(kind, n, 2 * r), (kind, n, r)]

    def reset(self):
        self.cache_dir = self.workdir / "cache"
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def setup(self):
        for kind, n, r in self._cache_entries():
            self.pkg.cache.ball_of_identity_cached(self.gen(kind, n), r, self.cache_dir)

    def cycle(self):
        ops = []
        for entry in self.MIX:
            k = self._served[entry]
            self._served[entry] += 1
            if entry == self.SIM:
                kind, n, r, trials = entry
                argv = ["simulate", "--graph", kind, "--n", str(n), "--r", str(r),
                        "--trials", str(trials),
                        "--seed", str(self.sim_seeds[k % len(self.sim_seeds)])]
                ops.append(Op(f"simulate-{kind}{n}r{r}", lambda argv=argv: self._cli(argv),
                              check_cli_simulate))
                continue
            kind, n, r = entry
            status = ("unique", "ambiguous")[k % 2]
            name, exp = self.files[(kind, n, r, status)][(k // 2) % self.POOL]
            argv = ["reconstruct", "--graph", kind, "--r", str(r),
                    "--patterns", str(self.pattern_dir / name)]
            ops.append(Op(f"reconstruct-{kind}{n}r{r}", lambda argv=argv: self._cli(argv),
                          lambda out, exp=exp: check_cli_reconstruct(out, exp)))
        return ops

    def _cli(self, argv):
        self.pkg.cayley.clear_ball_memo()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(argv + ["--cache-dir", str(self.cache_dir)])
        return code, out.getvalue()

    def sample_perms(self):
        return self.sampled


def check_cli_reconstruct(out, exp) -> bool:
    code, text = out
    want_code = {"unique": 0, "ambiguous": 2}[exp[0]]
    if code != want_code:
        return False
    result = json.loads(text)["result"]
    cands = result["candidates"]
    if result["status"] != exp[0]:
        return False
    if exp[0] == "unique":
        return cands == [inputs.format_perm(exp[1])]
    return inputs.format_perm(exp[1]) in cands and inputs.format_perm(exp[2]) in cands


def check_cli_simulate(out) -> bool:
    code, text = out
    if code != 0:
        return False
    kind, n, r, trials = Coldstart.SIM
    summary = json.loads(text)["summary"]
    want = expected_overlap(kind, n, r)
    return (
        summary["threshold"] == want
        and summary["m"] == want + 1
        and summary["unique"] == trials
    )


WORKLOADS = {w.name: w for w in (Decode, Profile, Simulate, Coldstart)}
