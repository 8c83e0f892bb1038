"""End-to-end tests of the command-line front end.

Every command runs in-process through ``cli.main``; its JSON stdout is
validated against the command's schema in ``docs/schemas``.  A fixed list
of commands is also pinned byte for byte, with any trial transcript they
write, against goldens in ``tests/golden/cli`` (regenerate them with ``python tests/test_cli.py``,
and only when an output change is intended), both in-process and in fresh
interpreters under two hash seeds (``python tests/test_cli.py DIR`` writes
the outputs to DIR instead).  The report, reconstruct and simulate goldens
must also hold with ``--cache-dir``, on an empty cache directory and then
on the one that run filled, except for the echoed directory.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from permrec import cayley, cli

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# input files the commands read; their paths never reach stdout
FILES = {
    "unique.txt": "[1,2,3,4]\n[2,1,3,4]\n[1,3,2,4]\n[1,2,4,3]\n",
    "ambiguous.txt": "# two patterns one swap from the identity\n[2,1,3,4]\n[1,2,4,3]\n",
    "square.edges": "0 1\n1 2\n2 3\n3 0\n",
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
}

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
    assert out == (GOLDEN / f"{name}.json").read_text()
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
        assert out == (GOLDEN / f"{name}.json").read_text(), run
        if transcript.exists():
            assert transcript.read_text() == (GOLDEN / f"{name}.jsonl").read_text(), run


def test_simulate_cap_fails_on_cold_and_warm_cache(files):
    argv = ["simulate", "--graph", "t", "--n", "6", "--r", "2", "--trials", "2", "--seed", "1"]
    cayley.clear_ball_memo()
    cap = cayley.ball_of_identity(cayley.GeneratorSet.adjacent(6), 4).size - 1
    capped = [*argv, "--max-ball-size", str(cap)]
    cache_dir = files / "cache"
    assert run_cli_cached(capped, files, cache_dir)[0] == 1
    assert run_cli_cached(argv, files, cache_dir)[0] == 0
    assert run_cli_cached(capped, files, cache_dir)[0] == 1
    cayley.clear_ball_memo()
    assert run_cli(capped, files)[0] == 1


@pytest.mark.parametrize("kind, n", [("st", "5"), ("t", "6")])
def test_adversarial_m_defaults_to_the_pool(kind, n, files):
    argv = ["simulate", "--graph", kind, "--n", n, "--r", "2", "--trials", "4",
            "--seed", "3", "--adversarial"]
    code, out = run_cli(argv, files)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["ambiguous"] == summary["trials"] == 4
    assert summary["m"] == summary["threshold"]


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
            for suffix in (".json", ".jsonl"):
                want, got = GOLDEN / f"{name}{suffix}", out_dir / f"{name}{suffix}"
                assert got.exists() == want.exists(), got
                if want.exists():
                    assert got.read_bytes() == want.read_bytes(), got


DEFAULT_CONFIG = {
    "cache_dir": None, "format": "json", "max_ball_size": 2_000_000, "max_bfs_n": 8,
}


# (config file, extra flags, echoed settings that differ from the defaults,
# or None when the run must stop with a usage error)
CONFIG_CASES = {
    "defaults": ({}, [], {}),
    "file_over_defaults": (
        {"max_ball_size": 500, "cache_dir": "c"}, [], {"max_ball_size": 500, "cache_dir": "c"},
    ),
    "flag_over_file": (
        {"max_bfs_n": 7, "format": "csv"}, ["--max-bfs-n", "6", "--format", "json"],
        {"max_bfs_n": 6},
    ),
    "format_unknown": ({"format": "xml"}, [], None),
    "budget_string": ({"max_ball_size": "x"}, [], None),
    "budget_null": ({"max_ball_size": None}, [], None),
    "budget_bool": ({"max_ball_size": True}, [], None),
    "budget_float": ({"max_bfs_n": 7.5}, [], None),
    "cache_dir_number": ({"cache_dir": 5}, [], None),
    "unknown_key": ({"workers": 1}, [], None),
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


def test_unwritable_transcript_is_a_usage_error(files, capsys):
    transcript = files / "missing" / "trials.jsonl"
    argv = ["simulate", "--graph", "t", "--n", "4", "--r", "1", "--trials", "2",
            "--seed", "1", "--transcript", str(transcript)]
    code, out = run_cli(argv, files)
    err = capsys.readouterr().err
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(transcript) in err


def test_cache_dir_that_is_a_file_is_a_usage_error(files, capsys):
    not_a_dir = files / "unique.txt"
    code, out = run_cli_cached(GOLDEN_CASES["reconstruct_unique"], files, not_a_dir)
    err = capsys.readouterr().err
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(not_a_dir) in err


@pytest.mark.parametrize("argv, want_code", [
    (["--version"], 0),
    (GOLDEN_CASES["reconstruct_ambiguous"], 2),
    (["factorizations", "--n", "3", "--workers", "2"], 64),
])
def test_module_entry_point_exit_codes(argv, want_code, files):
    argv = [a.replace("{dir}", str(files)) for a in argv]
    done = subprocess.run([sys.executable, "-m", "permrec", *argv],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == want_code, done.stderr


def test_verify_defaults_pass(files):
    for extra in ([], ["--max-n", "7"]):
        code, out = run_cli(["verify", *extra], files)
        assert code == 0, [r for r in json.loads(out)["rows"] if r["verdict"] == "fail"]


def write_outputs(out_dir: Path, cached: bool = False) -> None:
    """Run every golden case and write its stdout, and any transcript, to
    ``<name>.json`` and ``<name>.jsonl`` in out_dir.  With ``cached``, also
    run each of CACHED_CASES with ``--cache-dir``, on an empty cache
    directory and then on the filled one, and write those outputs, the
    echoed directory put back to null, to out_dir/cold and out_dir/warm."""
    import tempfile

    def save(target: Path, name: str, out: str, tmp: Path) -> None:
        target.mkdir(parents=True, exist_ok=True)
        (target / f"{name}.json").write_text(out)
        transcript = tmp / "trials.jsonl"
        if transcript.exists():
            (target / f"{name}.jsonl").write_text(transcript.read_text())
            transcript.unlink()

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
        write_outputs(Path(sys.argv[1]), cached=True)
    else:
        write_outputs(GOLDEN)
