"""End-to-end tests of the command-line front end.

Every command runs in-process through ``cli.main``; its JSON stdout is
validated against the command's schema in ``docs/schemas``.  A fixed list
of commands is also pinned byte for byte, with any trial transcript they
write, against goldens in ``tests/golden/cli`` (regenerate them with ``python tests/test_cli.py``,
and only when an output change is intended).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from permrec import cli

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# input files the commands read; their paths never reach stdout
FILES = {
    "unique.txt": "[1,2,3,4]\n[2,1,3,4]\n[1,3,2,4]\n[1,2,4,3]\n",
    "ambiguous.txt": "# two patterns one swap from the identity\n[2,1,3,4]\n[1,2,4,3]\n",
    "square.edges": "0 1\n1 2\n2 3\n3 0\n",
}

# name -> argv; {dir} is replaced by the directory holding FILES
GOLDEN_CASES = {
    "report_T": ["report", "--graph", "T", "--n", "5", "6", "--r", "2"],
    "report_t": ["report", "--graph", "t", "--n", "5", "6", "--r", "2"],
    "report_st": ["report", "--graph", "st", "--n", "5", "6", "--r", "2"],
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
    "simulate_honest": [
        "simulate", "--graph", "t", "--n", "5", "--r", "2", "--trials", "6",
        "--seed", "11", "--transcript", "{dir}/trials.jsonl",
    ],
    "simulate_adversarial": [
        "simulate", "--graph", "st", "--n", "5", "--r", "2", "--trials", "6",
        "--seed", "11", "--m", "8", "--adversarial",
        "--transcript", "{dir}/trials.jsonl",
    ],
}

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


def test_verify_defaults_pass(files):
    for extra in ([], ["--max-n", "7"]):
        code, out = run_cli(["verify", *extra], files)
        assert code == 0, [r for r in json.loads(out)["rows"] if r["verdict"] == "fail"]


if __name__ == "__main__":
    # regenerate the goldens from the package on sys.path
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            write_files(Path(tmp))
            code, out = run_cli(argv, Path(tmp))
            (GOLDEN / f"{name}.json").write_text(out)
            transcript = Path(tmp) / "trials.jsonl"
            if transcript.exists():
                (GOLDEN / f"{name}.jsonl").write_text(transcript.read_text())
        print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)
