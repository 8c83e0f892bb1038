"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench``.  They
check the harness, not the package: that a wrong or raising answer is
counted as a failure, and that generated inputs are fixed by the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

HERE = Path(__file__).resolve().parent

# Input digests at seed 1.  The inputs do not depend on the package, so
# these hold on every commit until the generator or a mix is changed.
DIGESTS_SEED_1 = {
    "decode": "d6dbfe1742cb733b132a0e34068f3a757100f84c07d765bda98f089c8f1334a4",
    "profile": "24897874a08a23f64ed415d418541cea070b7d653f795f01e11b23c765f9c35f",
    "simulate": "71705aad6ea32f3d494c540a89e985c405a51f1263a9cfa9f3dec20a09a2fc79",
    "coldstart": "0b7872c70fe1e88bd3637f69c9452a83b321ed7555fb82433f7991f01bac1a65",
}


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def _one_cycle(workload):
    return run.timed_phase(workload, 0, 1)


def test_corrupted_answers_are_failures(pkg, tmp_path, monkeypatch):
    workload = workloads.Decode(pkg, 1, tmp_path)
    workload.setup()
    original = pkg.channel.reconstruct

    def corrupted(patterns, r, gen, *rest):
        res = original(patterns, r, gen, *rest)
        wrong = "ambiguous" if res.status == "unique" else "unique"
        return pkg.channel.ReconstructionResult(res.candidates, wrong, res.patterns_used)

    monkeypatch.setattr(pkg.channel, "reconstruct", corrupted)
    lat, _, failures = _one_cycle(workload)
    assert failures == len(lat) == len(workloads.Decode.MIX)


def test_raising_operations_are_failures(pkg, tmp_path, monkeypatch):
    workload = workloads.Decode(pkg, 1, tmp_path)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(pkg.channel, "reconstruct", broken)
    lat, _, failures = _one_cycle(workload)
    assert failures == len(lat) == len(workloads.Decode.MIX)


def test_honest_answers_pass(pkg, tmp_path):
    workload = workloads.Decode(pkg, 1, tmp_path)
    workload.setup()
    assert workload.setup_failures == 0
    lat, _, failures = _one_cycle(workload)
    assert failures == 0 and len(lat) == len(workloads.Decode.MIX)


def test_oracles_reject_corrupted_outputs():
    job = ("report", "t", 8, 2, True)
    good = {"n_r": {"1": 2, "2": 14}, "v": 40320, "k": 7, "diameter": 28}
    assert workloads.check_report(good, job)
    assert not workloads.check_report({**good, "diameter": 27}, job)
    assert not workloads.check_report({**good, "n_r": {"1": 2, "2": 15}}, job)

    known = {"claim_id": "nstable.t.s3", "instance": "n=4,s=3", "verdict": "fail", "measured": "4"}
    assert workloads.check_claim_row(known)
    assert not workloads.check_claim_row({**known, "measured": "5"})
    assert not workloads.check_claim_row({**known, "claim_id": "nvalue.T.r2"})

    x, y = (1, 0, 2), (0, 1, 2)
    unique = json.dumps({"result": {"status": "unique", "candidates": ["[2,1,3]"]}})
    assert workloads.check_cli_reconstruct((0, unique), ("unique", x))
    assert not workloads.check_cli_reconstruct((2, unique), ("unique", x))
    assert not workloads.check_cli_reconstruct((0, unique), ("unique", y))
    summary = {"threshold": 16, "m": 17, "unique": 5}
    assert workloads.check_cli_simulate((0, json.dumps({"summary": summary})))
    assert not workloads.check_cli_simulate(
        (0, json.dumps({"summary": {**summary, "unique": 4}}))
    )


def _digests_in_fresh_interpreter(seed: int, hash_seed: str, workdir: Path) -> dict:
    code = (
        "import json, sys; from pathlib import Path; import run;"
        f"pkg = run.load_package();"
        f"print(json.dumps({{w: run.inputs_digest(pkg, w, {seed}, Path(sys.argv[1]) / w)"
        " for w in run.WORKLOADS}))"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run(
        [sys.executable, "-c", code, str(workdir)],
        cwd=HERE, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def test_digest_is_fixed_by_the_seed(tmp_path):
    first = _digests_in_fresh_interpreter(1, "0", tmp_path / "a")
    second = _digests_in_fresh_interpreter(1, "12345", tmp_path / "b")
    assert first == second == DIGESTS_SEED_1
    other = _digests_in_fresh_interpreter(2, "0", tmp_path / "c")
    assert all(other[w] != first[w] for w in first)


def test_timings_are_scaled_by_the_local_reference():
    nominal = reference.NOMINAL_S
    # the host turns twice as slow after the third operation
    refs = [nominal] * 3 + [2 * nominal] * 4
    assert reference.local_speeds(refs, 6) == [1.0, 1.0, 1.5, 2.0, 2.0, 2.0]
