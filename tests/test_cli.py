"""End-to-end tests of the command-line front end.

Every command runs in-process through ``cli.main``; its JSON stdout is
validated against the command's schema in ``docs/schemas``.  A fixed list
of commands, some in the csv and pretty formats, is also pinned byte for
byte, with any trial transcript they write, against goldens in
``tests/golden/cli`` (regenerate them with ``python tests/test_cli.py``,
and only when an output change is intended), both in-process and in fresh
interpreters under two hash seeds (``python tests/test_cli.py DIR`` writes
the outputs to DIR instead).  The report, reconstruct and simulate goldens
must also hold with ``--cache-dir``, on an empty cache directory and then
on the one that run filled, except for the echoed directory.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from permrec import cache, cayley, channel, claims, cli, smallgraphs
from permrec.cache import cache_path, load_ball, load_overlap, overlap_path
from permrec.errors import CacheError
from permrec.perms import inverse, pack
from test_cache import fail_writes_halfway, record_blob

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# input files the commands read; their paths never reach stdout
FILES = {
    "unique.txt": "[1,2,3,4]\n[2,1,3,4]\n[1,3,2,4]\n[1,2,4,3]\n",
    "ambiguous.txt": "# two patterns one swap from the identity\n[2,1,3,4]\n[1,2,4,3]\n",
    "square.edges": "0 1\n1 2\n2 3\n3 0\n",
    # the Petersen graph: outer 5-cycle, spokes, inner pentagram
    "petersen.edges": "".join(
        f"{u} {w}\n"
        for i in range(5)
        for u, w in ((i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5))
    ),
    # a 12-cycle: its witnesses have two-digit vertices
    "cycle12.edges": "".join(f"{i} {(i + 1) % 12}\n" for i in range(12)),
    # the region two T n=7 r=2 balls at maximal overlap share
    "threshold.txt": (GOLDEN.parent / "patterns_T7_r2_threshold.txt").read_text(),
}

# name -> argv; {dir} is replaced by the directory holding FILES
GOLDEN_CASES = {
    "report_T": ["report", "--graph", "T", "--n", "5", "6", "--r", "2"],
    "report_t": ["report", "--graph", "t", "--n", "5", "6", "--r", "2"],
    "report_st": ["report", "--graph", "st", "--n", "5", "6", "--r", "2"],
    "report_t7": ["report", "--graph", "t", "--n", "7", "--r", "2"],
    "report_st7": ["report", "--graph", "st", "--n", "7", "--r", "2"],
    "verify": [
        "verify", "--suite", "diameters", "--suite", "classes",
        "--suite", "local-params", "--suite", "distance-regularity",
    ],
    "verify_all": ["verify"],
    # every closed form up to the largest degree the package takes
    "verify_n12": ["verify", "--max-n", "12"],
    "reconstruct_unique": [
        "reconstruct", "--graph", "T", "--r", "1", "--patterns", "{dir}/unique.txt",
    ],
    "reconstruct_ambiguous": [
        "reconstruct", "--graph", "t", "--r", "1", "--patterns", "{dir}/ambiguous.txt",
    ],
    "reconstruct_T7_threshold": [
        "reconstruct", "--graph", "T", "--r", "2", "--patterns", "{dir}/threshold.txt",
    ],
    "simulate_honest": [
        "simulate", "--graph", "t", "--n", "5", "--r", "2", "--trials", "6",
        "--seed", "11", "--transcript", "{dir}/trials.jsonl",
    ],
    "simulate_T7_honest": [
        "simulate", "--graph", "T", "--n", "7", "--r", "2", "--trials", "4",
        "--seed", "5", "--transcript", "{dir}/trials.jsonl",
    ],
    "simulate_adversarial": [
        "simulate", "--graph", "st", "--n", "5", "--r", "2", "--trials", "6",
        "--seed", "11", "--m", "8", "--adversarial",
        "--transcript", "{dir}/trials.jsonl",
    ],
    # exactly r errors per pattern: prefix swaps reach only distances 0 and
    # 2 at r=2, so each pattern is drawn from 21 of the ball's 26 vertices
    "simulate_exact": [
        "simulate", "--graph", "st", "--n", "6", "--r", "2", "--trials", "5",
        "--seed", "3", "--exact-errors", "--transcript", "{dir}/trials.jsonl",
    ],
    # the largest seed, whose per-draw streams wrap mod 2^64 in every lane
    **{
        f"simulate_{kind}7_seed_max_{mode}": [
            "simulate", "--graph", kind, "--n", "7", "--r", "2", "--trials", "3",
            "--seed", str(2**64 - 1), *(["--exact-errors"] if mode == "exact" else []),
            "--transcript", "{dir}/trials.jsonl",
        ]
        for kind in ("T", "t", "st")
        for mode in ("honest", "exact")
    },
    "graph_import_petersen": ["graph-import", "--edges", "{dir}/petersen.edges", "--r", "2"],
    "graph_import_cycle12": ["graph-import", "--edges", "{dir}/cycle12.edges", "--r", "2"],
    # degrees past the whole-graph cap, whose diameters come from the formula
    "report_T9_10": ["report", "--graph", "T", "--n", "9", "10", "--r", "1"],
    # prefix swaps at r=3: about 10^5 vertices lie at distance 1..6, and
    # the overlap scan reads one per orbit
    "report_st10_r3": ["report", "--graph", "st", "--n", "10", "--r", "3"],
    # adjacent swaps at r=3, whose witnesses are every attaining vertex
    "report_t9_10_r3": ["report", "--graph", "t", "--n", "9", "10", "--r", "3"],
    # the adjacent-swap pass at r=4, which counts every vertex of B_8
    "report_t11_r4": ["report", "--graph", "t", "--n", "11", "--r", "4", "--no-diameter"],
    # the class algebra at r=5, each class's value computed once per radius
    "report_T11_12_r5": [
        "report", "--graph", "T", "--n", "11", "12", "--r", "5", "--no-diameter",
    ],
    # an adversarial run expands its witness pair from the adjacent-swap profile
    "simulate_t9_adversarial": [
        "simulate", "--graph", "t", "--n", "9", "--r", "3", "--trials", "3",
        "--seed", "1", "--adversarial", "--transcript", "{dir}/trials.jsonl",
    ],
    # B_5 of all transpositions at n=12 is past the ball cap; the probe
    # reads the class algebra and builds no ball
    "probe_conjecture_n12_r5": ["probe-conjecture", "--n", "12", "--r", "5"],
}
# the csv and pretty formats, pinned as .txt goldens
GOLDEN_CASES.update(
    (f"{name}_{fmt}", [*argv, "--format", fmt])
    for name, argv, formats in [
        ("report_t5", ["report", "--graph", "t", "--n", "5", "--r", "2"], ["pretty"]),
        ("verify_diameters", ["verify", "--suite", "diameters"], ["csv", "pretty"]),
        ("reconstruct_ambiguous", GOLDEN_CASES["reconstruct_ambiguous"], ["pretty"]),
        # without the transcript, which the plain case pins
        ("simulate_honest", GOLDEN_CASES["simulate_honest"][:-2], ["csv", "pretty"]),
        ("factorizations_n5", ["factorizations", "--n", "5"], ["csv", "pretty"]),
        ("classes_n5", ["classes", "--n", "5", "--check"], ["csv", "pretty"]),
        ("probe_conjecture", ["probe-conjecture", "--n", "5", "--r", "2"], ["pretty"]),
        ("graph_import_petersen", GOLDEN_CASES["graph_import_petersen"], ["pretty"]),
    ]
    for fmt in formats
)

# the golden cases whose commands read or fill a cache directory
CACHED_CASES = tuple(
    name for name, argv in GOLDEN_CASES.items()
    if argv[0] in ("report", "reconstruct", "simulate")
)

# command -> (argv, expected exit code) for the schema checks
SCHEMA_CASES = {
    "report": (GOLDEN_CASES["report_t"], 0),
    "verify": (GOLDEN_CASES["verify"], 0),
    "reconstruct": (GOLDEN_CASES["reconstruct_ambiguous"], 2),
    "simulate": (GOLDEN_CASES["simulate_adversarial"], 0),
    "factorizations": (["factorizations", "--n", "5"], 0),
    "classes": (["classes", "--n", "5", "--check"], 0),
    "probe-conjecture": (["probe-conjecture", "--n", "5", "--r", "2"], 0),
    "graph-import": (["graph-import", "--edges", "{dir}/square.edges", "--r", "1"], 0),
}


# name -> (terminal width, argv) of a help call or a usage error, pinned
# with its message in USAGE_GOLDEN: help at two widths, then the errors
HELP_CALLS = {"permrec": ["--help"], **{name: [name, "--help"] for name in cli._COMMANDS}}
USAGE_CASES = {
    f"help_{name}_c{columns}": (columns, argv)
    for name, argv in HELP_CALLS.items()
    for columns in (60, 200)
}
USAGE_CASES.update((f"error_{name}", (80, argv)) for name, argv in {
    "unknown_option": ["factorizations", "--n", "4", "--bogus"],
    "unknown_option_simulate": [
        "simulate", "--graph", "t", "--n", "5", "--r", "1", "--trials", "1", "--seed", "1",
        "--workers", "2",
    ],
    "bad_choice": ["simulate", "--graph", "X", "--n", "5", "--r", "1", "--trials", "1",
                   "--seed", "1"],
    "bad_format_choice": ["verify", "--format", "xml"],
    "bad_integer": ["factorizations", "--n", "five"],
    "missing_required": ["simulate", "--graph", "t", "--n", "5"],
    "missing_value": ["report", "--graph", "t", "--n"],
    "ambiguous_option": ["simulate", "--c", "x"],
    "extra_positional": ["report", "extra", "--graph", "T", "--n", "4"],
    "version_after_command": ["factorizations", "--n", "4", "--version"],
    "version_after_command_alone": ["report", "--version"],
    "option_before_command": ["--format", "json", "factorizations", "--n", "3"],
    "unknown_command": ["bogus", "--n", "5"],
    "no_arguments": [],
}.items())
# argparse renders help and its messages a little differently from one
# Python version to the next, so the goldens are kept per version
USAGE_GOLDEN = GOLDEN / "usage" / "py{}.{}".format(*sys.version_info[:2])


def golden_name(name: str) -> str:
    """The file holding a golden case's stdout: JSON unless the case asks
    for another format."""
    return name + (".txt" if "--format" in GOLDEN_CASES[name] else ".json")


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def run_cli(argv, directory: Path) -> tuple[int, str]:
    argv = [a.replace("{dir}", str(directory)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_cli_cached(argv, directory: Path, cache_dir: Path) -> tuple[int, str]:
    """run_cli with ``--cache-dir`` from a cleared memo, so every ball and
    overlap maximum comes from cache_dir or is computed and written there;
    the echoed directory is put back to the default, null."""
    cayley.clear_ball_memo()
    code, out = run_cli([*argv, "--cache-dir", str(cache_dir)], directory)
    return code, out.replace(f'"cache_dir": {json.dumps(str(cache_dir))}', '"cache_dir": null')


def src_env(**extra) -> dict:
    """The environment for a fresh interpreter that imports this checkout's
    package first."""
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture
def files(tmp_path):
    write_files(tmp_path)
    return tmp_path


@pytest.mark.parametrize("command", sorted(SCHEMA_CASES))
def test_stdout_matches_schema(command, files):
    argv, want_code = SCHEMA_CASES[command]
    code, out = run_cli(argv, files)
    assert code == want_code
    doc = json.loads(out)
    assert doc["command"] == command
    schema = json.loads((SCHEMAS / f"{command}.schema.json").read_text())
    jsonschema.validate(doc, schema)


@pytest.mark.parametrize("command", ["report", "graph-import"])
def test_schema_requires_every_emitted_key(command, files):
    _, out = run_cli(SCHEMA_CASES[command][0], files)
    doc = json.loads(out)
    schema = json.loads((SCHEMAS / f"{command}.schema.json").read_text())
    report = doc["reports"][0] if command == "report" else doc["report"]
    for key in list(report):
        value = report.pop(key)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        report[key] = value


def test_transcript_records_match_schema(files):
    code, _ = run_cli(GOLDEN_CASES["simulate_honest"], files)
    assert code == 0
    schema = json.loads((SCHEMAS / "simulate-record.schema.json").read_text())
    lines = (files / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 6
    for line in lines:
        jsonschema.validate(json.loads(line), schema)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_stdout_is_byte_identical_to_golden(name, files):
    _, out = run_cli(GOLDEN_CASES[name], files)
    assert out == (GOLDEN / golden_name(name)).read_text()
    transcript = files / "trials.jsonl"
    if transcript.exists():
        assert transcript.read_text() == (GOLDEN / f"{name}.jsonl").read_text()


@pytest.mark.parametrize("name", CACHED_CASES)
def test_cached_stdout_is_byte_identical_to_golden(name, files, monkeypatch):
    cache_dir = files / "cache"
    transcript = files / "trials.jsonl"
    for run in ("empty", "filled"):
        if run == "filled":
            # every ball and overlap maximum now comes from the files
            assert any(cache_dir.iterdir())
            monkeypatch.setattr(cayley, "ball", None)
            monkeypatch.setattr(cayley, "max_ball_intersection", None)
        transcript.unlink(missing_ok=True)
        _, out = run_cli_cached(GOLDEN_CASES[name], files, cache_dir)
        assert out == (GOLDEN / golden_name(name)).read_text(), run
        if transcript.exists():
            assert transcript.read_text() == (GOLDEN / f"{name}.jsonl").read_text(), run


def reversal_orbit_representatives(vertices) -> list:
    """The first of ``vertices`` met in each orbit of inversion and
    conjugation by the reversal, which map the adjacent swaps onto
    themselves: the one witness per orbit a version 3 overlap file kept."""
    seen, reps = set(), []
    for y in vertices:
        if y not in seen:
            reps.append(y)
            n = len(y)
            for p in (y, inverse(y)):
                seen |= {p, tuple(n - 1 - p[n - 1 - i] for i in range(n))}
    return reps


def test_version_3_adjacent_overlap_file_is_refused_and_rewritten(files):
    g = cayley.GeneratorSet.adjacent(9)
    cayley.clear_ball_memo()
    best = cayley.max_ball_intersection(g, 3)
    sections = [(sm.value, list(map(pack, reversal_orbit_representatives(sm.witnesses))))
                for sm in best.per_s]
    path = overlap_path(files / "cache", g, 3)
    path.parent.mkdir()
    # read as this version's files, one witness per orbit would stand for
    # the whole list and print fewer vertices
    path.write_bytes(record_blob(b"POVL", g, 3, sections))
    assert load_overlap(path, g, 3) != best
    path.write_bytes(record_blob(b"POVL", g, 3, sections, version=3))
    with pytest.raises(CacheError, match="wrong magic/version"):
        load_overlap(path, g, 3)
    _, out = run_cli_cached(GOLDEN_CASES["report_t9_10_r3"], files, files / "cache")
    assert out == (GOLDEN / "report_t9_10_r3.json").read_text()
    assert path.read_bytes()[4:6] == (4).to_bytes(2, "little")
    assert load_overlap(path, g, 3) == best


@pytest.mark.parametrize("cached", [False, True])
def test_adjacent_report_past_the_cap_fails_at_once(files, capsys, monkeypatch, cached):
    # t n=12 r=7 counts the vertices of B_14, 2,097,484 of them, past the
    # cap: refused by its closed-form size before any radius is computed,
    # so no walk starts and no file is written
    argv = ["report", "--graph", "t", "--n", "12", "--r", "7", "--no-diameter"]
    cache_dir = files / "cache"
    cayley.clear_ball_memo()
    monkeypatch.setattr(cayley, "_levels", None)
    code, out = run_cli_cached(argv, files, cache_dir) if cached else run_cli(argv, files)
    err = capsys.readouterr().err
    assert (code, out, err) == (1, "", "error: ball exceeds budget of 2000000 vertices\n")
    assert cayley._ball_memo == {}
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


def test_simulate_cap_fails_on_cold_and_warm_cache(files, capsys, monkeypatch):
    argv = ["simulate", "--graph", "t", "--n", "6", "--r", "2", "--trials", "2", "--seed", "1"]
    cayley.clear_ball_memo()
    size = cayley.ball_of_identity(cayley.GeneratorSet.adjacent(6), 2).size
    cache_dir = files / "cache"

    def run_capped(cached: bool):
        cayley.clear_ball_memo()
        monkeypatch.setattr(cayley, "MAX_BALL_SIZE", size - 1)
        code, out = run_cli_cached(argv, files, cache_dir) if cached else run_cli(argv, files)
        monkeypatch.undo()
        return code, out, capsys.readouterr().err

    want = (1, "", f"error: ball exceeds budget of {size - 1} vertices\n")
    assert run_capped(cached=True) == want
    assert run_cli_cached(argv, files, cache_dir)[0] == 0
    assert run_capped(cached=True) == want
    assert run_capped(cached=False) == want


@pytest.mark.parametrize("adversarial", [False, True])
@pytest.mark.parametrize("m", [0, -3])
def test_simulate_refuses_m_below_one(m, adversarial, files, capsys):
    # before any work: no ball or overlap file reaches the cache directory
    argv = ["simulate", "--graph", "st", "--n", "5", "--r", "2", "--trials", "2",
            "--seed", "1", "--m", str(m), *(["--adversarial"] if adversarial else [])]
    check_refused_before_any_work(argv, "--m must be >= 1", True, files, capsys)


def test_simulate_refuses_m_past_the_ball_before_any_draw(files, capsys, monkeypatch):
    # the t n=5 r=1 ball holds 5 patterns; drawing toward 100000 took seconds
    monkeypatch.setattr(channel, "_draws", None)
    argv = ["simulate", "--graph", "t", "--n", "5", "--r", "1", "--trials", "1", "--seed", "1",
            "--m", "100000"]
    assert run_cli(argv, files) == (1, "")
    err = capsys.readouterr().err
    assert err == "error: requested 100000 distinct patterns but the ball has only 5\n"


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("argv, low", [
    (["simulate", "--graph", "t", "--n", "5", "--r", "0", "--trials", "2", "--seed", "1"], 1),
    (["simulate", "--graph", "st", "--n", "5", "--r", "-2", "--trials", "2", "--seed", "1"], 1),
    (["reconstruct", "--graph", "t", "--r", "-1", "--patterns", "{dir}/ambiguous.txt"], 0),
    (["report", "--graph", "T", "--n", "5", "--r", "0"], 1),
    (["graph-import", "--edges", "{dir}/square.edges", "--r", "0"], 1),
], ids=["simulate_r0", "simulate_r-2", "reconstruct_r-1", "report_r0", "graph_import_r0"])
def test_radius_below_the_least_is_a_usage_error(argv, low, cached, files, capsys):
    check_refused_before_any_work(argv, f"--r must be >= {low}", cached, files, capsys)


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("argv, message", [
    (["report", "--graph", "T", "--n", "13"], "graph degree must be in 2..12, got 13"),
    # the degree in range comes first, and nothing may be written for it
    (["report", "--graph", "t", "--n", "5", "13", "--r", "2"],
     "graph degree must be in 2..12, got 13"),
    (["simulate", "--graph", "T", "--n", "1", "--r", "1", "--trials", "2", "--seed", "1"],
     "graph degree must be in 2..12, got 1"),
    (["simulate", "--graph", "T", "--n", "5", "--r", "1", "--trials", "0", "--seed", "1"],
     "--trials must be >= 1"),
    (["factorizations", "--n", "13"], "degree must be in 1..12, got 13"),
    (["classes", "--n", "0"], "degree must be in 1..12, got 0"),
    # rng would reduce these mod 2^64, to the seeds 2^64 - 1 and 0
    (["simulate", "--graph", "t", "--n", "5", "--r", "1", "--trials", "2", "--seed", "-1"],
     "--seed must be in 0..18446744073709551615"),
    (["simulate", "--graph", "t", "--n", "5", "--r", "1", "--trials", "2",
      "--seed", "18446744073709551616"],
     "--seed must be in 0..18446744073709551615"),
], ids=["report_n13", "report_n5_13", "simulate_n1", "simulate_trials0",
        "factorizations_n13", "classes_n0", "simulate_seed-1", "simulate_seed2^64"])
def test_value_out_of_range_is_a_usage_error(argv, message, cached, files, capsys):
    check_refused_before_any_work(argv, message, cached, files, capsys)


def test_every_64_bit_seed_runs(files):
    for seed in ("0", "18446744073709551615"):
        argv = ["simulate", "--graph", "t", "--n", "5", "--r", "1", "--trials", "2",
                "--seed", seed]
        code, out = run_cli(argv, files)
        assert code == 0 and json.loads(out)["summary"]["seed"] == int(seed)


def check_refused_before_any_work(argv, message, cached, files, capsys):
    """argv, with or without a cache directory, exits 64 with ``message`` as
    its usage error, prints nothing and writes no file."""
    cache_dir = files / "cache"
    cache_dir.mkdir()
    before = sorted(files.rglob("*"))
    code, out = run_cli_cached(argv, files, cache_dir) if cached else run_cli(argv, files)
    assert (code, out) == (64, "")
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert sorted(files.rglob("*")) == before


@pytest.mark.parametrize("kind, n", [("st", "5"), ("t", "6")])
def test_adversarial_m_defaults_to_the_pool(kind, n, files):
    argv = ["simulate", "--graph", kind, "--n", n, "--r", "2", "--trials", "4",
            "--seed", "3", "--adversarial"]
    code, out = run_cli(argv, files)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["ambiguous"] == summary["trials"] == 4
    assert summary["m"] == summary["threshold"]


@pytest.mark.parametrize("kind, n", [("t", "6"), ("st", "7")])
def test_adversarial_run_is_the_same_from_a_cold_and_a_warm_cache(kind, n, files, monkeypatch):
    # the overlap file holds one witness per attaining orbit, and the warm
    # run expands the pair's second center from it, as the cold run does
    # from its scan
    argv = ["simulate", "--graph", kind, "--n", n, "--r", "2", "--trials", "3",
            "--seed", "7", "--adversarial", "--transcript", "{dir}/trials.jsonl"]
    transcript = files / "trials.jsonl"
    cayley.clear_ball_memo()
    want = (run_cli(argv, files), transcript.read_text())
    for run in ("cold", "warm"):
        if run == "warm":
            monkeypatch.setattr(cayley, "max_ball_intersection", None)
        transcript.unlink()
        assert (run_cli_cached(argv, files, files / "cache"), transcript.read_text()) == want, run


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_goldens_hold_under_any_hash_seed(hash_seed, tmp_path):
    # str and bytes hashes are salted per process, so output that followed
    # the iteration order of a set of them would differ between these runs
    subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=src_env(PYTHONHASHSEED=hash_seed), check=True, capture_output=True, timeout=600,
    )
    runs = [(tmp_path, GOLDEN_CASES)]
    runs += [(tmp_path / run, CACHED_CASES) for run in ("cold", "warm")]
    for out_dir, names in runs:
        for name in names:
            for file in (golden_name(name), f"{name}.jsonl"):
                want, got = GOLDEN / file, out_dir / file
                assert got.exists() == want.exists(), got
                if want.exists():
                    assert got.read_bytes() == want.read_bytes(), got
    if USAGE_GOLDEN.is_dir():
        for name in USAGE_CASES:
            file = f"{name}.txt"
            assert (tmp_path / "usage" / file).read_bytes() == (USAGE_GOLDEN / file).read_bytes()


DEFAULT_CONFIG = {"cache_dir": None, "format": "json"}


# (config file, extra flags, echoed settings that differ from the defaults,
# or None when the run must stop with a usage error)
CONFIG_CASES = {
    "defaults": ({}, [], {}),
    "file_over_defaults": ({"cache_dir": "c"}, [], {"cache_dir": "c"}),
    "flag_over_file": (
        {"cache_dir": "c", "format": "csv"}, ["--cache-dir", "d", "--format", "json"],
        {"cache_dir": "d"},
    ),
    "format_unknown": ({"format": "xml"}, [], None),
    "budget_string": ({"max_ball_size": "x"}, [], None),
    "budget_null": ({"max_ball_size": None}, [], None),
    "budget_bool": ({"max_ball_size": True}, [], None),
    "budget_float": ({"max_bfs_n": 7.5}, [], None),
    "cache_dir_number": ({"cache_dir": 5}, [], None),
    "unknown_key": ({"workers": 1}, [], None),
    # the capacity caps are constants, not settings
    "max_ball_size_key": ({"max_ball_size": 2_000_000}, [], None),
    "max_bfs_n_key": ({"max_bfs_n": 8}, [], None),
}


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_config_file_values(name, files, capsys):
    config, flags, changed = CONFIG_CASES[name]
    (files / "config.json").write_text(json.dumps(config))
    argv = ["factorizations", "--n", "3", "--config", "{dir}/config.json", *flags]
    code, out = run_cli(argv, files)
    err = capsys.readouterr().err
    if changed is None:
        assert (code, out) == (64, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
    else:
        assert code == 0, err
        assert json.loads(out)["config"] == {**DEFAULT_CONFIG, **changed}


def test_unwritable_transcript_is_a_usage_error(files, capsys, monkeypatch):
    def no_experiment(*args, **kwargs):
        raise AssertionError("the experiment ran before the path was checked")

    monkeypatch.setattr(cli, "run_experiment", no_experiment)
    transcript = files / "missing" / "trials.jsonl"
    argv = ["simulate", "--graph", "t", "--n", "4", "--r", "1", "--trials", "2",
            "--seed", "1", "--transcript", str(transcript)]
    code, out = run_cli(argv, files)
    err = capsys.readouterr().err
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(transcript) in err
    assert not transcript.parent.exists()


def test_failed_transcript_write_keeps_previous_file(files, capsys, monkeypatch):
    transcript = files / "trials.jsonl"
    transcript.write_bytes(b"previous transcript\n")
    before = sorted(p.name for p in files.iterdir())
    fail_writes_halfway(monkeypatch)
    code, out = run_cli(GOLDEN_CASES["simulate_honest"], files)
    monkeypatch.undo()
    assert (code, out) == (64, "")
    assert capsys.readouterr().err.startswith("usage error: ")
    assert transcript.read_bytes() == b"previous transcript\n"
    assert sorted(p.name for p in files.iterdir()) == before


def test_cache_dir_that_is_a_file_is_a_usage_error(files, capsys):
    not_a_dir = files / "unique.txt"
    code, out = run_cli_cached(GOLDEN_CASES["reconstruct_unique"], files, not_a_dir)
    err = capsys.readouterr().err
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(not_a_dir) in err


@pytest.mark.parametrize("argv, ball_file", [
    (["reconstruct", "--graph", "T", "--r", "300", "--patterns", "{dir}/threshold.txt"],
     "ball_T_n7_r6.bin"),
    # the ball holds 24 patterns, one fewer than the threshold: exit 1
    (["simulate", "--graph", "t", "--n", "4", "--r", "300", "--trials", "2", "--seed", "1"],
     "ball_t_n4_r6.bin"),
])
def test_radius_past_the_diameter_shares_the_diameter_file(argv, ball_file, files, capsys):
    # the ball is stored at the diameter, so a radius past 255 never reaches
    # the file's one-byte radius field
    cayley.clear_ball_memo()
    want = (*run_cli(argv, files), capsys.readouterr().err)
    cache_dir = files / "cache"
    stamps = None
    for run in ("cold", "warm"):
        assert (*run_cli_cached(argv, files, cache_dir), capsys.readouterr().err) == want, run
        assert ball_file in {p.name for p in cache_dir.iterdir()}
        before, stamps = stamps, {
            p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache_dir.iterdir()
        }
    # the warm run loaded every file and rewrote none
    assert stamps == before


def test_overlap_past_the_diameter_is_cached_at_the_diameter(files):
    def argv(r):
        return ["simulate", "--graph", "t", "--n", "4", "--r", r, "--trials", "2", "--seed", "1"]

    cache_dir = files / "cache"
    want = run_cli_cached(argv("300"), files, cache_dir)
    overlaps = sorted(p.name for p in cache_dir.glob("overlap_*"))
    assert overlaps == ["overlap_t_n4_r6.bin"]
    g = cayley.GeneratorSet.adjacent(4)
    assert len(load_overlap(cache_dir / overlaps[0], g, 6).per_s) == 12
    stamps = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache_dir.iterdir()}
    # --r 301 reads the same two files at the diameter and rewrites neither
    assert run_cli_cached(argv("301"), files, cache_dir) == want
    assert {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache_dir.iterdir()} == stamps


def test_report_past_the_diameter_warms_each_capped_radius_once(files, monkeypatch):
    argv = ["report", "--graph", "T", "--n", "4", "--r", "5"]
    cayley.clear_ball_memo()
    want = run_cli(argv, files)
    cache_dir = files / "cache"
    assert run_cli_cached(argv, files, cache_dir) == want
    assert sorted(p.name for p in cache_dir.iterdir()) == [
        f"overlap_T_n4_r{r}.bin" for r in (1, 2, 3)
    ]
    loaded = []
    real_load = cache.load_overlap
    monkeypatch.setattr(
        cache, "load_overlap", lambda *a: loaded.append(a[2]) or real_load(*a)
    )
    assert run_cli_cached(argv, files, cache_dir) == want
    # the largest radius first, so one past a cap is refused before the others
    assert loaded == [3, 2, 1]


def test_processes_sharing_a_cache_dir(files):
    argv = ["simulate", "--graph", "t", "--n", "9", "--r", "2", "--trials", "5", "--seed", "1"]
    cayley.clear_ball_memo()
    want = json.loads(run_cli(argv, files)[1])["summary"]
    cache_dir = files / "cache"
    # four cold runs started together, each computing and writing every file
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "permrec", *argv, "--cache-dir", str(cache_dir)],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert json.loads(out)["summary"] == want
    # no temporary file is left, and every file loads
    assert sorted(p.name for p in cache_dir.iterdir()) == [
        "ball_t_n9_r2.bin", "overlap_t_n9_r2.bin",
    ]
    g = cayley.GeneratorSet.adjacent(9)
    assert load_ball(cache_path(cache_dir, g, 2), g, 2).size == cayley.ball_of_identity(g, 2).size
    assert load_overlap(overlap_path(cache_dir, g, 2), g, 2) == cayley.overlap_of_identity(g, 2)


# pattern file -> the usage error reconstruct stops with
PATTERN_FILE_ERRORS = {
    "empty": ("", "pattern file holds no patterns"),
    "comment_only": ("# nothing here\n\n   # still nothing\n", "pattern file holds no patterns"),
    "mixed_degrees": ("[1,2,3]\n[2,1,3,4]\n", "patterns have mixed degrees"),
    # the line number counts the comment and the blank line above
    "bad_literal": (
        "# header\n[1,2,3]\n\n[2,1,3]\n[1,2;3]\n",
        "pattern file line 5: not a permutation literal: '[1,2;3]'",
    ),
    "symbol_0": (
        "[1,2,3]\n[0,1,2]\n",
        "pattern file line 2: symbols are not 1..3 exactly once: '[0,1,2]'",
    ),
    "repeated_symbol": (
        "[1,2,3]\n[1,1,3]\n",
        "pattern file line 2: symbols are not 1..3 exactly once: '[1,1,3]'",
    ),
    "degree_13": (
        "[" + ",".join(map(str, range(1, 14))) + "]\n",
        "pattern file line 1: degree must be in 1..12, got 13",
    ),
    # a permutation of degree 1, but no Cayley graph of the three families
    "degree_1": ("[1]\n[1]\n", "pattern degree must be 2 or more, got 1"),
}


@pytest.mark.parametrize("name", sorted(PATTERN_FILE_ERRORS))
def test_pattern_file_errors(name, files, capsys):
    text, message = PATTERN_FILE_ERRORS[name]
    (files / "bad.txt").write_text(text)
    argv = ["reconstruct", "--graph", "T", "--r", "1", "--patterns", "{dir}/bad.txt"]
    assert run_cli(argv, files) == (64, "")
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("name, reason", [
    ("missing.txt", "[Errno 2] No such file or directory"),
    ("", "[Errno 21] Is a directory"),
])
def test_unreadable_pattern_file(name, reason, files, capsys):
    path = files / name
    argv = ["reconstruct", "--graph", "T", "--r", "1", "--patterns", str(path)]
    assert run_cli(argv, files) == (64, "")
    assert capsys.readouterr().err == (
        f"usage error: cannot read pattern file: {reason}: '{path}'\n"
    )


@pytest.mark.parametrize("argv, what, at", [
    (["reconstruct", "--graph", "T", "--r", "1", "--patterns"], "pattern", 6),
    (["graph-import", "--edges"], "edge", 4),
    (["factorizations", "--n", "3", "--config"], "config", 4),
])
def test_undecodable_input_file(argv, what, at, files, capsys):
    # a valid first line, then a byte that is not UTF-8
    (files / "bad").write_bytes(b"[1,2]\n\xff\n" if what == "pattern" else b"0 1\n\xff\n")
    assert run_cli([*argv, "{dir}/bad"], files) == (64, "")
    assert capsys.readouterr().err == (
        f"usage error: cannot read {what} file: 'utf-8' codec can't decode "
        f"byte 0xff in position {at}: invalid start byte\n"
    )


def test_plain_pattern_files_take_the_whole_file_path():
    assert cli._packed_patterns(" [2, 1,3]\n[1,3 ,2] \n[3,2,1]") == [
        b"\1\0\2", b"\0\2\1", b"\2\1\0",
    ]
    for text in ("# a comment\n[2,1,3]\n", "[2,1,3]\n\n[1,3,2]\n", "[01,2]\n",
                 "[2,1,3]\n[1,3,2,4]\n", "[2,2,3]\n", "[1,2,4]\n", "[2,\t1]\n"):
        assert cli._packed_patterns(text) is None, text


@st.composite
def pattern_files(draw) -> str:
    """Pattern files in plain form or near it.  Half are plain: literals of
    one degree in plain digits, spaced by spaces.  The rest add tabs, zero
    padding, Arabic-Indic digits (which ``int`` reads as well), comments,
    blank lines, wrong degrees and wrong symbols.  Line ends are LF or
    CRLF, and the last line may have none."""
    n = draw(st.integers(1, 4))
    plain = draw(st.booleans())
    pad = st.sampled_from(["", " "] if plain else ["", "", " ", "  ", "\t"])
    kinds = ["literal"] if plain else ["literal"] * 6 + ["comment", "blank", "bad"]
    spellings = ["plain"] if plain else ["plain"] * 4 + ["padded", "arabic"]

    def spell(v: int) -> str:
        spelling = draw(st.sampled_from(spellings))
        if spelling == "padded":
            return f"0{v}"
        if spelling == "arabic":
            return "".join(chr(0x660 + int(c)) for c in str(v))
        return str(v)

    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append(draw(pad) + "# note, [1]")
        elif kind == "blank":
            lines.append(draw(pad))
        else:
            degree = n if kind == "literal" else draw(st.integers(1, n + 1))
            values = list(draw(st.permutations(range(1, degree + 1))))
            if kind == "bad":
                values[draw(st.integers(0, degree - 1))] = draw(st.integers(0, degree + 1))
            parts = [draw(pad) + spell(v) + draw(pad) for v in values]
            tail = "" if plain else draw(st.sampled_from(["", "", " # trailing"]))
            lines.append(draw(pad) + "[" + ",".join(parts) + "]" + draw(pad) + tail)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def read_outcome(read, path):
    try:
        return [tuple(p) for p in read(path)]
    except cli.UsageError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=pattern_files())
def test_pattern_reader_matches_line_parser(text, tmp_path):
    path = tmp_path / "patterns.txt"
    path.write_bytes(text.encode())
    assert read_outcome(cli._read_patterns, path) == read_outcome(
        oracles.read_patterns_by_line, path
    )


def run_main(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main, argparse's own exits
    (help, version) included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def usage_outcome(name: str) -> tuple[int, str, str]:
    """run_main on a usage case, at the case's terminal width."""
    columns, argv = USAGE_CASES[name]
    before = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(columns)
    try:
        return run_main(argv)
    finally:
        if before is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = before


def usage_text(name: str, outcome: tuple[int, str, str]) -> str:
    """The stream a usage case's golden holds: stdout for help, which
    exits 0 and writes no stderr, and stderr for a usage error, which exits
    64 and writes no stdout."""
    code, out, err = outcome
    assert (code, err) == (0, "") if name.startswith("help_") else (code, out) == (64, "")
    return out or err


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_help_and_usage_errors_are_byte_identical_to_golden(name):
    if not USAGE_GOLDEN.is_dir():
        pytest.skip(f"no usage goldens for this Python ({USAGE_GOLDEN.name})")
    assert usage_text(name, usage_outcome(name)) == (USAGE_GOLDEN / f"{name}.txt").read_text()


# argv whose outcome must not depend on which commands the parser declares
PARSER_CASES = {
    "help": ["--help"],
    "version": ["--version"],
    "no_arguments": [],
    **{f"help_{name}": [name, "--help"] for name in cli._COMMANDS},
    "unknown_command": ["bogus"],
    "missing_flag": ["reconstruct", "--graph", "T", "--r", "1"],
    "bad_graph_choice": ["reconstruct", "--graph", "X", "--r", "1", "--patterns", "p"],
    "extra_positional": ["report", "extra", "--graph", "T", "--n", "4"],
}
# and on every Python version, each usage error the goldens pin
PARSER_CASES.update((name, argv) for name, (_, argv) in USAGE_CASES.items()
                    if name.startswith("error_"))


@pytest.mark.parametrize("name", sorted(PARSER_CASES))
def test_parser_for_one_command_matches_the_full_parser(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = PARSER_CASES[name]
    got = run_main(argv)
    assert got[0] in (0, 64)
    monkeypatch.setattr(cli, "_parse_arguments", parse_with_the_full_parser)
    assert got == run_main(argv)


def parse_with_the_full_parser(argv):
    return cli._full_parser().parse_args(argv)


def stock_parser(name):
    """The parser of command ``name`` (or of every command, for None) built
    by the same declare functions on argparse's own parser class."""
    if name is None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_Parser", argparse.ArgumentParser)
            return cli._full_parser()
    parser = argparse.ArgumentParser(prog=f"permrec {name}")
    cli._shared_arguments(parser)
    cli._COMMANDS[name].declare(parser)
    return parser


@pytest.mark.parametrize("columns", [40, 80, 200])
@pytest.mark.parametrize("name", [None, *cli._COMMANDS])
def test_parser_formats_as_argparse_does(name, columns, monkeypatch):
    # the width read once per parser is the one each formatter would read
    monkeypatch.setenv("COLUMNS", str(columns))
    ours = cli._full_parser() if name is None else cli._command_parser(name)
    stock = stock_parser(name)
    assert ours.format_help() == stock.format_help()
    assert ours.format_usage() == stock.format_usage()


def test_parser_declares_only_the_named_command(monkeypatch):
    usage = cli._command_parser("report").format_usage()
    assert usage.startswith("usage: permrec report [-h] [--format")
    assert "--patterns" not in usage and "{report" not in usage
    assert "{report,verify," in cli._full_parser().format_usage()
    # a call that names a command never builds the parser of every command
    built = []
    full = cli._full_parser
    monkeypatch.setattr(cli, "_full_parser", lambda: built.append(1) or full())
    assert run_main(["factorizations", "--n", "3", "--format", "csv"])[0] == 0
    assert built == []
    for argv in ([], ["bogus"], ["--help"], ["--version", "report"]):
        assert run_main(argv)[0] in (0, 64)
    assert built == [1] * 4


@pytest.mark.parametrize("argv, want_code", [
    (["--version"], 0),
    (GOLDEN_CASES["reconstruct_ambiguous"], 2),
    (["factorizations", "--n", "3", "--workers", "2"], 64),
    (["factorizations", "--n", "3", "--max-ball-size", "5"], 64),
    (["factorizations", "--n", "3", "--max-bfs-n", "7"], 64),
])
def test_module_entry_point_exit_codes(argv, want_code, files):
    argv = [a.replace("{dir}", str(files)) for a in argv]
    done = subprocess.run([sys.executable, "-m", "permrec", *argv],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == want_code, done.stderr


# command -> (argv, the cli function that computes its result)
UNTABULAR_CASES = {
    "report": (["report", "--graph", "st", "--n", "9", "--r", "3"], "build_graph_report"),
    "reconstruct": (GOLDEN_CASES["reconstruct_unique"], "reconstruct"),
    "probe-conjecture": (SCHEMA_CASES["probe-conjecture"][0], "conjecture_probe"),
    "graph-import": (SCHEMA_CASES["graph-import"][0], "small_graph_report"),
}


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", sorted(UNTABULAR_CASES))
def test_csv_is_rejected_before_any_work(command, via_config, files, capsys, monkeypatch):
    argv, compute = UNTABULAR_CASES[command]

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its format was checked")

    monkeypatch.setattr(cli, compute, no_work)
    if via_config:
        (files / "config.json").write_text(json.dumps({"format": "csv"}))
        argv = [*argv, "--config", "{dir}/config.json"]
    else:
        argv = [*argv, "--format", "csv"]
    code, out = run_cli(argv, files)
    assert (code, out) == (64, "")
    assert capsys.readouterr().err == (
        f"usage error: {command} supports --format json or pretty\n"
    )


def test_huge_vertex_id_is_refused_before_allocating(files):
    # in a child held to 1 GiB of address space, so a check that came after
    # the allocation would fail this test instead of filling the memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    cap = smallgraphs.MAX_VERTICES
    inputs = {
        "huge.edges": f"0 1\n1 {10**12}\n",
        # a path one vertex over the cap, whose report would be quadratic in v
        "path.edges": "".join(f"{i} {i + 1}\n" for i in range(cap)),
    }
    for name, text in inputs.items():
        (files / name).write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "permrec", "graph-import", "--edges", str(files / name)],
            env=src_env(), capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        )
        assert (done.returncode, done.stdout) == (1, ""), name
        assert done.stderr == f"error: graph capped at {cap} vertices\n", name


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_disconnected_graph_fails_without_output(fmt, files, capsys):
    (files / "two.edges").write_text("0 1\n2 3\n")
    argv = ["graph-import", "--edges", "{dir}/two.edges", "--format", fmt]
    assert run_cli(argv, files) == (1, "")
    assert capsys.readouterr().err == "error: graph two.edges is disconnected\n"


def test_unknown_suite_fails_before_any_suite_runs(files, capsys, monkeypatch):
    def no_suite(cfg):
        raise AssertionError("a suite ran before every name was checked")

    monkeypatch.setitem(claims.SUITES, "n-values", no_suite)
    code, out = run_cli(["verify", "--suite", "n-values", "--suite", "bogus"], files)
    assert (code, out) == (64, "")
    assert capsys.readouterr().err.startswith("usage error: unknown suite 'bogus'")


def test_verify_defaults_pass(files):
    for extra in ([], ["--max-n", "7"], ["--max-n", "8"], ["--max-n", "12"]):
        code, out = run_cli(["verify", *extra], files)
        assert code == 0, [r for r in json.loads(out)["rows"] if r["verdict"] == "fail"]


def write_outputs(out_dir: Path, usage_dir: Path, cached: bool = False) -> None:
    """Run every golden case and write its stdout, and any transcript, to
    ``golden_name(name)`` and ``<name>.jsonl`` in out_dir, and every usage
    case's message to ``<name>.txt`` in usage_dir.  With ``cached``, also
    run each of CACHED_CASES with ``--cache-dir``, on an empty cache
    directory and then on the filled one, and write those outputs, the
    echoed directory put back to null, to out_dir/cold and out_dir/warm."""
    import tempfile

    def save(target: Path, name: str, out: str, tmp: Path) -> None:
        target.mkdir(parents=True, exist_ok=True)
        (target / golden_name(name)).write_text(out)
        transcript = tmp / "trials.jsonl"
        if transcript.exists():
            (target / f"{name}.jsonl").write_text(transcript.read_text())
            transcript.unlink()

    usage_dir.mkdir(parents=True, exist_ok=True)
    for name in USAGE_CASES:
        (usage_dir / f"{name}.txt").write_text(usage_text(name, usage_outcome(name)))
    for name, argv in GOLDEN_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_files(tmp)
            code, out = run_cli(argv, tmp)
            save(out_dir, name, out, tmp)
            if cached and name in CACHED_CASES:
                for run in ("cold", "warm"):
                    code, out = run_cli_cached(argv, tmp, tmp / "cache")
                    save(out_dir / run, name, out, tmp)
        print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)


if __name__ == "__main__":
    # regenerate the goldens from the package on sys.path, or write the
    # outputs, plain and with a cache directory, to the directory given as
    # the only argument
    if len(sys.argv) > 1:
        write_outputs(Path(sys.argv[1]), Path(sys.argv[1]) / "usage", cached=True)
    else:
        write_outputs(GOLDEN, USAGE_GOLDEN)
