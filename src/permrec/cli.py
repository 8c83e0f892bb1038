"""Command-line front end.

Commands: report, verify, reconstruct, simulate, factorizations, classes,
probe-conjecture, graph-import.  Output formats: json (byte-stable, sorted
keys), csv (tabular commands only), pretty.  Exit codes: 0 success/unique,
1 failed verification or inconsistent patterns, 2 ambiguous reconstruction,
64 usage error.

Settings precedence is defaults < config file (--config, JSON object) <
command-line flags; the effective settings are echoed into every document.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import factorial
from pathlib import Path

from . import __version__
from .cayley import (
    Budgets,
    GeneratorSet,
    GraphReport,
    build_graph_report,
)
from .cache import ball_of_identity_cached, overlap_of_identity_cached
from .channel import reconstruct, run_experiment
from .claims import CSV_COLUMNS, SuiteConfig, conjecture_probe, run_suites
from .errors import CapacityError, UnreachableError
from .perms import (
    cycle_types,
    conjugacy_class_size,
    enumerate_class,
    minimal_factorization_count,
    parse_perm,
)
from .smallgraphs import parse_edge_list, small_graph_report

EX_OK = 0
EX_FAIL = 1
EX_AMBIGUOUS = 2
EX_USAGE = 64

_FORMATS = ("json", "csv", "pretty")

_SETTING_DEFAULTS = {
    "format": "json",
    "cache_dir": None,
    "max_ball_size": 2_000_000,
    "max_bfs_n": 8,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=_FORMATS, default=None,
                        help="output format (default json)")
    shared.add_argument("--config", type=Path, default=None,
                        help="JSON settings file (defaults < file < flags)")
    shared.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for cached balls and overlap maxima")
    shared.add_argument("--max-ball-size", type=int, default=None,
                        help="largest ball the engine may materialize")
    shared.add_argument("--max-bfs-n", type=int, default=None,
                        help="largest degree for whole-graph sweeps")

    parser = _Parser(prog="permrec",
                     description="metric-ball reconstruction over symmetric groups")
    parser.add_argument("--version", action="version", version=f"permrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", parents=[shared],
                       help="metric profile of Cayley graph instances")
    p.add_argument("--graph", choices=("T", "t", "st"), required=True,
                   help="generator family: all / adjacent / prefix transpositions")
    p.add_argument("--n", type=int, nargs="+", required=True, help="degree(s)")
    p.add_argument("--r", type=int, default=1, help="max error radius (default 1)")
    p.add_argument("--no-diameter", action="store_true",
                   help="skip the whole-graph diameter sweep")

    p = sub.add_parser("verify", parents=[shared],
                       help="check closed forms against brute force")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable)")
    p.add_argument("--min-n", type=int, default=3)
    p.add_argument("--max-n", type=int, default=5)

    p = sub.add_parser("reconstruct", parents=[shared],
                       help="recover a source permutation from patterns")
    p.add_argument("--graph", choices=("T", "t", "st"), required=True)
    p.add_argument("--r", type=int, required=True, help="max errors per pattern")
    p.add_argument("--patterns", type=Path, required=True,
                   help="file with one [2,3,1]-style permutation per line")

    p = sub.add_parser("simulate", parents=[shared],
                       help="seeded reconstruction experiments")
    p.add_argument("--graph", choices=("T", "t", "st"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="patterns per trial (default: overlap max + 1, or the "
                        "overlap max with --adversarial)")
    p.add_argument("--adversarial", action="store_true",
                   help="draw patterns only from a maximal shared region")
    p.add_argument("--exact-errors", action="store_true",
                   help="always exactly r errors instead of uniform 0..r")
    p.add_argument("--transcript", type=Path, default=None,
                   help="write one JSON record per trial to this file")

    p = sub.add_parser("factorizations", parents=[shared],
                       help="minimal transposition factorization counts")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("classes", parents=[shared],
                       help="conjugacy classes by cycle type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="cross-check sizes by explicit enumeration")

    p = sub.add_parser("probe-conjecture", parents=[shared],
                       help="informational probe of the r-error overlap maximum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("graph-import", parents=[shared],
                       help="metric profile of an explicit edge-list graph")
    p.add_argument("--edges", type=Path, required=True,
                   help="file with one 'u v' pair per line (0-based)")
    p.add_argument("--r", type=int, default=1)

    return parser


def _load_settings(args) -> dict:
    settings = dict(_SETTING_DEFAULTS)
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}")
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(raw) - set(_SETTING_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        _check_config_values(raw)
        settings.update(raw)
    for key in _SETTING_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if settings["cache_dir"] is not None:
        settings["cache_dir"] = str(settings["cache_dir"])
    if settings["max_ball_size"] < 1 or settings["max_bfs_n"] < 2:
        raise UsageError("budgets must be positive")
    return settings


def _check_config_values(raw: dict) -> None:
    """Hold config-file values to the types the matching flags parse to."""
    if raw.get("format", "json") not in _FORMATS:
        raise UsageError(f"config format must be one of {', '.join(_FORMATS)}")
    for key in ("max_ball_size", "max_bfs_n"):
        if type(raw.get(key, 1)) is not int:
            raise UsageError(f"config {key} must be an integer")
    if not isinstance(raw.get("cache_dir"), (str, type(None))):
        raise UsageError("config cache_dir must be a string or null")


def _budgets(settings) -> Budgets:
    return Budgets(
        max_ball_size=settings["max_ball_size"],
        whole_graph_max_n=settings["max_bfs_n"],
    )


def _envelope(command: str, settings: dict, payload: dict) -> dict:
    doc = {"command": command, "version": __version__, "config": settings}
    doc.update(payload)
    return doc


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _emit_csv(rows: list[dict], columns) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])
    sys.stdout.write(out.getvalue())


def _pretty_table(rows: list[dict], columns) -> None:
    widths = [
        max(len(str(col)), *(len(str(r.get(col, ""))) for r in rows)) if rows else len(col)
        for col in columns
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(columns, widths)))


def _warm(settings, cached, gen, radius, budgets):
    """Fill the memo through ``cached`` (a ball or an overlap maximum) from
    the cache directory, computing and writing the file if it is unusable."""
    if settings["cache_dir"] is None:
        return
    try:
        cached(gen, radius, settings["cache_dir"], budgets)
    except OSError as exc:
        raise UsageError(f"cannot use cache directory: {exc}")


def _cmd_report(args, settings) -> int:
    budgets = _budgets(settings)
    if args.r < 1:
        raise UsageError("--r must be >= 1")
    reports = []
    for n in args.n:
        gen = GeneratorSet.of_kind(args.graph, n)
        for rr in range(1, args.r + 1):
            _warm(settings, overlap_of_identity_cached, gen, rr, budgets)
        report = build_graph_report(
            gen, args.r, budgets, with_diameter=not args.no_diameter
        )
        reports.append(report.to_doc())
    doc = _envelope("report", settings, {"reports": reports})
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "pretty":
        for rep in reports:
            print(f"graph {rep['generator_kind']} n={rep['n']}: v={rep['v']} "
                  f"k={rep['k']} lambda={rep['lambda']} mu={rep['mu']} "
                  f"diameter={rep['diameter']}")
            print(f"  overlap max by radius: {rep['n_r']}")
            print(f"  overlap max by center distance (r={args.r}): {rep['n_s']}")
            for s, wit in sorted(rep["witnesses"]["n_s"].items()):
                print(f"  attained at s={s} by: {', '.join(wit)}")
    else:
        raise UsageError("report supports --format json or pretty")
    return EX_OK


def _cmd_verify(args, settings) -> int:
    suites = args.suite or ["all"]
    cfg = SuiteConfig(
        min_n=args.min_n,
        max_n=args.max_n,
        budgets=_budgets(settings),
    )
    try:
        rows = run_suites(suites, cfg)
    except ValueError as exc:
        raise UsageError(str(exc))
    row_docs = [r.to_doc() for r in rows]
    summary = {
        "pass": sum(1 for r in rows if r.verdict == "pass"),
        "fail": sum(1 for r in rows if r.verdict == "fail"),
        "skip": sum(1 for r in rows if r.verdict == "skip"),
    }
    doc = _envelope("verify", settings, {"rows": row_docs, "summary": summary})
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "csv":
        _emit_csv(row_docs, CSV_COLUMNS)
    else:
        _pretty_table(row_docs, CSV_COLUMNS)
        print(f"pass={summary['pass']} fail={summary['fail']} skip={summary['skip']}")
    return EX_FAIL if summary["fail"] else EX_OK


def _read_patterns(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read pattern file: {exc}")
    patterns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            patterns.append(parse_perm(line))
        except ValueError as exc:
            raise UsageError(f"pattern file line {lineno}: {exc}")
    if not patterns:
        raise UsageError("pattern file holds no patterns")
    if len({len(p) for p in patterns}) != 1:
        raise UsageError("patterns have mixed degrees")
    return patterns


def _cmd_reconstruct(args, settings) -> int:
    budgets = _budgets(settings)
    patterns = _read_patterns(args.patterns)
    gen = GeneratorSet.of_kind(args.graph, len(patterns[0]))
    _warm(settings, ball_of_identity_cached, gen, args.r, budgets)
    result = reconstruct(patterns, args.r, gen, budgets)
    doc = _envelope("reconstruct", settings, {"result": result.to_doc()})
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "pretty":
        print(f"status: {result.status}")
        for c in result.to_doc()["candidates"]:
            print(f"  candidate {c}")
    else:
        raise UsageError("reconstruct supports --format json or pretty")
    return {
        "unique": EX_OK,
        "ambiguous": EX_AMBIGUOUS,
        "inconsistent": EX_FAIL,
    }[result.status]


_SUMMARY_COLUMNS = (
    "generator_kind", "n", "r", "trials", "m", "threshold", "seed",
    "adversarial", "unique", "ambiguous", "inconsistent", "unique_rate",
    "min_unique_m_max", "min_unique_m_mean",
)


def _cmd_simulate(args, settings) -> int:
    budgets = _budgets(settings)
    gen = GeneratorSet.of_kind(args.graph, args.n)
    _warm(settings, ball_of_identity_cached, gen, args.r, budgets)
    _warm(settings, overlap_of_identity_cached, gen, args.r, budgets)
    summary = run_experiment(
        gen, args.r, args.trials, args.seed,
        m=args.m,
        adversarial=args.adversarial,
        exact_errors=args.exact_errors,
        budgets=budgets,
    )
    if args.transcript is not None:
        try:
            with open(args.transcript, "w") as fh:
                for record in summary.records:
                    fh.write(json.dumps(record.to_doc(), sort_keys=True) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write transcript file: {exc}")
    doc = _envelope("simulate", settings, {"summary": summary.to_doc()})
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "csv":
        _emit_csv([summary.to_doc()], _SUMMARY_COLUMNS)
    else:
        for key in _SUMMARY_COLUMNS:
            print(f"{key}: {summary.to_doc()[key]}")
    return EX_OK


def _cmd_factorizations(args, settings) -> int:
    rows = []
    for ct in cycle_types(args.n):
        rows.append({
            "cycle_type": str(ct),
            "min_transpositions": ct.min_transpositions,
            "count": minimal_factorization_count(ct),
        })
    doc = _envelope("factorizations", settings, {"degree": args.n, "rows": rows})
    columns = ("cycle_type", "min_transpositions", "count")
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "csv":
        _emit_csv(rows, columns)
    else:
        _pretty_table(rows, columns)
    return EX_OK


def _cmd_classes(args, settings) -> int:
    rows = []
    for ct in cycle_types(args.n):
        row = {
            "cycle_type": str(ct),
            "size": conjugacy_class_size(ct),
            "sphere": ct.min_transpositions,
        }
        if args.check:
            row["enumerated"] = len(enumerate_class(ct))
            row["check"] = "ok" if row["enumerated"] == row["size"] else "MISMATCH"
        rows.append(row)
    payload = {"degree": args.n, "rows": rows, "total": factorial(args.n)}
    doc = _envelope("classes", settings, payload)
    columns = ("cycle_type", "size", "sphere") + (
        ("enumerated", "check") if args.check else ()
    )
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "csv":
        _emit_csv(rows, columns)
    else:
        _pretty_table(rows, columns)
        print(f"total {sum(r['size'] for r in rows)} of {factorial(args.n)}")
    if args.check and any(r.get("check") == "MISMATCH" for r in rows):
        return EX_FAIL
    return EX_OK


def _cmd_probe(args, settings) -> int:
    budgets = _budgets(settings)
    try:
        probe = conjecture_probe(args.n, args.r, budgets)
    except ValueError as exc:
        raise UsageError(str(exc))
    doc = _envelope("probe-conjecture", settings, {"probe": probe})
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "pretty":
        for key in sorted(probe):
            print(f"{key}: {probe[key]}")
    else:
        raise UsageError("probe-conjecture supports --format json or pretty")
    return EX_OK


def _cmd_graph_import(args, settings) -> int:
    if args.r < 1:
        raise UsageError("--r must be >= 1")
    try:
        text = args.edges.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read edge file: {exc}")
    try:
        graph = parse_edge_list(text, name=args.edges.name)
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        report = small_graph_report(graph, args.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL
    doc = _envelope("graph-import", settings, {"report": report.to_doc()})
    if settings["format"] == "json":
        _emit_json(doc)
    elif settings["format"] == "pretty":
        rep = report.to_doc()
        print(f"graph {rep['graph']}: v={rep['v']} k={rep['k']} "
              f"lambda={rep['lambda']} mu={rep['mu']} diameter={rep['diameter']}")
        print(f"  overlap max by radius: {rep['n_r']}")
        print(f"  overlap max by center distance: {rep['n_s']}")
    else:
        raise UsageError("graph-import supports --format json or pretty")
    return EX_OK


_COMMANDS = {
    "report": _cmd_report,
    "verify": _cmd_verify,
    "reconstruct": _cmd_reconstruct,
    "simulate": _cmd_simulate,
    "factorizations": _cmd_factorizations,
    "classes": _cmd_classes,
    "probe-conjecture": _cmd_probe,
    "graph-import": _cmd_graph_import,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _load_settings(args)
        return _COMMANDS[args.command](args, settings)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (CapacityError, UnreachableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
