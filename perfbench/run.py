#!/usr/bin/env python3
"""permrec benchmark: workloads with oracles, end-to-end metrics, traced run.

One workload in one fresh interpreter:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 25 --trace 0

Every workload, each in its own interpreter, with a table of every metric:

    python3 perfbench/run.py --all --seed 1 --seconds 25

Load is one closed-loop client with workers=1: the next operation starts
when the previous one has returned.  ``--trace 0`` reports the end-to-end
metrics, with every timing scaled to the host's nominal speed by a
reference loop timed between operations (see reference.py).  ``--trace 1`` alternates untraced and traced cycles and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object.  Spans and a copy of each result, with the
environment, go to .perfbench-work/.  NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import inputs
import layers
import reference
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# set-up is repeated until both bounds are met, and its median reported
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPS = 500

# metric name -> unit, as declared in BENCHMARK.json
UNITS = {
    m["name"]: m["unit"]
    for key in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]
}


class BenchError(Exception):
    pass


def load_package():
    """Import permrec from this checkout's src/, never from elsewhere."""
    if not (SRC / "permrec" / "__init__.py").is_file():
        raise BenchError(f"no permrec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import permrec
    from permrec import cache, cayley, channel, claims, cli, parallel, perms, rng

    if not Path(permrec.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"permrec imported from {permrec.__file__}, not {SRC}")
    return SimpleNamespace(cache=cache, cayley=cayley, channel=channel, claims=claims,
                           cli=cli, parallel=parallel, perms=perms, rng=rng)


def min_samples(pct: float) -> int:
    """Fewest samples that leave at least ten beyond the pct percentile."""
    n = 11
    while n - math.ceil(pct / 100 * n) < 10:
        n += 1
    return n


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def timed_setups(workload, pkg) -> tuple[list[float], list[float], int]:
    """Set up from a cold memo repeatedly.  Returns the normalised and the
    raw times, and the number of set-up checks that failed in the last
    repetition."""
    times: list[float] = []
    raw: list[float] = []
    while len(raw) < SETUP_MIN_REPS or (
        sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPS
    ):
        pkg.cayley.clear_ball_memo()
        workload.reset()
        workload.setup_failures = 0
        gc.collect()
        before = reference.speed_now()
        t0 = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] / statistics.median([before, reference.speed_now()]))
    return times, raw, workload.setup_failures


def timed_phase(workload, seconds: float, min_ops: int, tracer=None):
    """Closed loop over whole cycles until both the time and the sample
    count are reached.  A reference point is taken before the first
    operation and after each one.  Returns (latencies in s, reference
    points in s, failures)."""
    latencies: list[float] = []
    refs = [reference.point()]
    failures = 0
    start = time.perf_counter()
    while True:
        for op in workload.cycle():
            if tracer is not None:
                tracer.new_request()
                root = tracer.open("request")
            t0 = time.perf_counter()
            try:
                out = op.run()
                raised = None
            except Exception as exc:  # a raising operation is a failed one
                raised = exc
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(root, {"op": op.label})
            refs.append(reference.point(latencies[-1]))
            ok = False
            if raised is None:
                try:
                    ok = bool(op.check(out))
                except Exception as exc:  # an unreadable answer is a wrong one
                    raised = exc
            if not ok:
                failures += 1
                if failures == 1:
                    detail = "".join(traceback.format_exception(raised)) if raised else "wrong answer"
                    print(f"first failure in {op.label}: {detail}", file=sys.stderr)
        if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
            break
    if tracer is not None:
        tracer.request = None
    return latencies, refs, failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measured_run(workload, pkg, seconds: float) -> dict:
    setups, raw_setups, setup_failures = timed_setups(workload, pkg)
    gc.collect()
    lat, refs, failures = timed_phase(workload, seconds, min_samples(workload.tail_pct))
    speeds = reference.local_speeds(refs, len(lat))
    ordered = sorted(t / f for t, f in zip(lat, speeds))
    beyond = len(ordered) - math.ceil(workload.tail_pct / 100 * len(ordered))
    return {
        "attempted": len(lat) + 1,
        "failed": failures + (setup_failures > 0),
        "metrics": {
            "ops_per_s": len(ordered) / sum(ordered),
            "p50_ms": statistics.median(ordered) * 1e3,
            "tail_ms": percentile(ordered, workload.tail_pct) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "samples": len(lat),
            "tail_percentile": workload.tail_pct,
            "samples_beyond_tail": beyond,
            "host_slowdown_median": statistics.median(speeds),
            "raw_ops_per_s": len(lat) / sum(lat),
            "raw_p50_ms": statistics.median(lat) * 1e3,
            "raw_setup_s": statistics.median(raw_setups),
            "setup_reps": len(setups),
        },
    }


def traced_run(workload, pkg, seconds: float, workdir: Path, tag: str) -> dict:
    tracer = tracing.Tracer()
    pkg.cayley.clear_ball_memo()
    workload.reset()
    tracing.install(tracer, pkg)
    try:
        tracer.request = "setup"
        workload.setup()
        tracer.request = None
    finally:
        tracer.restore()
    setup_failures = workload.setup_failures
    # untraced and traced cycles alternate, so drift in machine speed
    # falls on both sides of the overhead ratio alike
    ops = {False: 0, True: 0}
    busy = {False: 0.0, True: 0.0}
    failures = 0
    gc.collect()
    while busy[False] + busy[True] < seconds:
        for traced in (False, True):
            if traced:
                tracing.install(tracer, pkg)
            try:
                lat, _, fail = timed_phase(workload, 0, 1, tracer if traced else None)
            finally:
                tracer.restore()
            ops[traced] += len(lat)
            busy[traced] += sum(lat)
            failures += fail
    tracing.install(tracer, pkg)
    try:
        pass_failures = layers.layer_pass(pkg, tracer, workload.seed, workdir)
    finally:
        tracer.restore()
    tracer.dump(WORK / f"spans-{tag}.jsonl")
    metrics = tracing.layer_metrics(tracer)
    metrics.update(layers.primitive_costs(pkg, workload.sample_perms(), workload.seed))
    metrics.update(layers.load_over_compute(pkg, workload.cache_instance, workdir))
    speed, same = layers.scan_speedup(pkg)
    metrics.update(speed)
    untraced, traced = ops[False] / busy[False], ops[True] / busy[True]
    metrics.update({
        "trace.overhead": untraced / traced,
        "trace.untraced_ops_per_s": untraced,
        "trace.traced_ops_per_s": traced,
    })
    return {
        "attempted": ops[False] + ops[True] + 3,
        "failed": failures + (setup_failures > 0) + (pass_failures > 0) + (not same),
        "metrics": metrics,
        "info": {"hook_errors": tracer.hook_errors, "spans_file": f"spans-{tag}.jsonl"},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "permrec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def inputs_digest(pkg, name: str, seed: int, workdir: Path) -> str:
    """Digest of the inputs a workload generates for a seed."""
    return inputs.digest(WORKLOADS[name](pkg, seed, workdir).describe())


def run_one(args) -> int:
    pkg = load_package()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = WORK / tag
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](pkg, args.seed, workdir)
        digest = inputs.digest(workload.describe())
        print(f"inputs_digest {args.workload} seed={args.seed} {digest}")
        if args.trace:
            result = traced_run(workload, pkg, args.seconds, workdir, tag)
        else:
            result = measured_run(workload, pkg, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.seed)
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "inputs_digest": digest, "env": env, **result},
        indent=2, sort_keys=True,
    ))
    print(f"env {json.dumps(env, sort_keys=True)}")
    for key, value in result["info"].items():
        print(f"info {key} {value}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    metrics = {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in result["metrics"].items()
    }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((name, "fail_frac", result["failed"] / result["attempted"], "ratio"))
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        status |= not result["correct"]
    for name, metric, value, unit in rows:
        print(f"{name:<10} {metric:<30} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    WORK.mkdir(exist_ok=True)
    try:
        return run_all(args) if args.all else run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
