"""Command-line front end.

Commands: report, verify, reconstruct, simulate, factorizations, classes,
probe-conjecture, graph-import.  Output formats: json (byte-stable, sorted
keys), csv (tabular commands only), pretty.  Exit codes: 0 success/unique,
1 failed verification or inconsistent patterns, 2 ambiguous reconstruction,
64 usage error, which includes an input file (config, patterns, edges)
that cannot be read, decoded or parsed.

Settings precedence is defaults < config file (--config, JSON object) <
command-line flags; the effective settings are echoed into every document.
The two settings are the output format and the cache directory.  The
engine's capacity caps are constants of ``cayley``, not settings.

``main`` alone writes stdout.  Each command returns its exit code and its
payload, with its pretty lines and, if tabular, its CSV rows; ``main`` adds
the envelope (command, version, settings) and writes the one format asked
for.  Before any work, ``main`` checks the least values of ``--r``,
``--trials`` and ``--m`` from one table, and each command builds its
graphs or cycle types from ``--n`` through ``_checked``.  Either check
turns a value out of range into a usage error that leaves no output and
writes no cache file.
``reconstruct`` has no ``--n``: its pattern reader refuses a degree out of
range as a usage error.

A call that names a command builds one parser, that command's: the three
shared options and its own, with ``prog`` "permrec <command>".  Only a call
that names none (help, version, an unknown name) builds the parser of
every command, so that its messages list them all.  Both give the same
help and usage messages for a command, and no parser outlives the call.
Each parser reads the terminal width once, for all of its formatters.

``reconstruct`` reads its pattern file on one of two paths.  A file in
plain form (one literal per line, all of one degree, ASCII digits, spaces
and newlines only) is checked by one regex pass over the whole file,
converted to packed records by one token lookup and checked for
permutations column by column (see ``perms.all_permutations``).  Any other
file, comments and blank lines included, goes to the line parser, which is
also the only source of error messages and their line numbers.  Both paths
give the same records, which go to ``channel.reconstruct`` packed.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import shutil
import struct
import sys
from collections.abc import Sequence
from math import factorial
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .cayley import KINDS, GeneratorSet, ball_radius, build_graph_report
from .cache import ball_of_identity_cached, overlap_of_identity_cached, write_atomically
from .channel import reconstruct, run_experiment
from .claims import CSV_COLUMNS, SuiteConfig, conjecture_probe, run_suites
from .errors import CapacityError
from .perms import (
    MAX_DEGREE,
    Perm,
    all_permutations,
    cycle_types,
    conjugacy_class_size,
    enumerate_class,
    minimal_factorization_count,
    pack,
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
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser that raises its usage errors and reads the terminal width
    once: argparse builds a help formatter for every option declared, and
    each formatter left to itself asks the terminal for its size."""

    def __init__(self, *args, **kwargs):
        # the width a HelpFormatter given none computes; set first, since
        # the base class declares -h through _get_formatter
        self._width = shutil.get_terminal_size().columns - 2
        super().__init__(*args, **kwargs)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=self._width)

    def error(self, message):
        raise UsageError(message)


def _shared_arguments(p) -> None:
    """The options every command takes."""
    p.add_argument("--format", choices=_FORMATS, default=None,
                   help="output format (default json)")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON settings file (defaults < file < flags)")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help="directory for cached balls and overlap maxima")


def _command_parser(name: str) -> _Parser:
    """The parser of one command: the shared options and its own."""
    parser = _Parser(prog=f"permrec {name}")
    _shared_arguments(parser)
    _COMMANDS[name].declare(parser)
    return parser


def _full_parser() -> _Parser:
    """The parser that declares every command as a subcommand, for calls
    that name none (help, version, no arguments, an unknown name), so that
    messages listing the commands list them all."""
    parser = _Parser(prog="permrec",
                     description="metric-ball reconstruction over symmetric groups")
    parser.add_argument("--version", action="version", version=f"permrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        _shared_arguments(p)
        command.declare(p)
    return parser


def _parse_arguments(argv) -> argparse.Namespace:
    """``argv`` parsed, ``command`` naming the command.  A call that names a
    command builds that command's parser alone: each option declared builds
    argparse a help formatter, so one command's parser costs a fraction of
    all eight commands' parsers.  No parser outlives the call."""
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]).parse_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
    return _full_parser().parse_args(argv)


def _load_settings(args) -> dict:
    settings = dict(_SETTING_DEFAULTS)
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    return settings


def _check_config_values(raw: dict) -> None:
    """Hold config-file values to the types the matching flags parse to."""
    if raw.get("format", "json") not in _FORMATS:
        raise UsageError(f"config format must be one of {', '.join(_FORMATS)}")
    if not isinstance(raw.get("cache_dir"), (str, type(None))):
        raise UsageError("config cache_dir must be a string or null")


class _Result(NamedTuple):
    """What a command hands ``main`` to write: its exit code, its JSON
    payload (``main`` adds the envelope), its pretty lines and, for a
    tabular command, its CSV rows and columns."""

    code: int
    payload: dict
    pretty: list[str]
    rows: Sequence[dict] = ()
    columns: tuple[str, ...] = ()


def _pretty_table(rows: list[dict], columns) -> list[str]:
    widths = [
        max(len(str(col)), *(len(str(r.get(col, ""))) for r in rows)) if rows else len(col)
        for col in columns
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    return [
        header,
        "-" * len(header),
        *("  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(columns, widths)) for r in rows),
    ]


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError, a bad argument, is
    raised as a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _warm(settings, cached, gen, radius):
    """Fill the memo through ``cached`` (a ball or an overlap maximum) from
    the cache directory, computing and writing the file if it is unusable."""
    if settings["cache_dir"] is None:
        return
    try:
        cached(gen, radius, settings["cache_dir"])
    except OSError as exc:
        raise UsageError(f"cannot use cache directory: {exc}")


def _report_arguments(p) -> None:
    p.add_argument("--graph", choices=KINDS, required=True,
                   help="generator family: all / adjacent / prefix transpositions")
    p.add_argument("--n", type=int, nargs="+", required=True, help="degree(s)")
    p.add_argument("--r", type=int, default=1, help="max error radius (default 1)")
    p.add_argument("--no-diameter", action="store_true",
                   help="leave the diameter out of the report")


def _cmd_report(args, settings) -> _Result:
    gens = [_checked(GeneratorSet.of_kind, args.graph, n) for n in args.n]
    reports = []
    for gen in gens:
        # past the diameter every radius reads the diameter's profile; the
        # largest radius comes first, as in build_graph_report
        for rr in range(ball_radius(gen, args.r), 0, -1):
            _warm(settings, overlap_of_identity_cached, gen, rr)
        report = build_graph_report(gen, args.r, with_diameter=not args.no_diameter)
        reports.append(report.to_doc())
    lines = []
    for rep in reports:
        lines += [
            f"graph {rep['generator_kind']} n={rep['n']}: v={rep['v']} "
            f"k={rep['k']} lambda={rep['lambda']} mu={rep['mu']} "
            f"diameter={rep['diameter']}",
            f"  overlap max by radius: {rep['n_r']}",
            f"  overlap max by center distance (r={args.r}): {rep['n_s']}",
        ]
        lines += [f"  attained at s={s} by: {', '.join(wit)}"
                  for s, wit in sorted(rep["witnesses"]["n_s"].items())]
    return _Result(EX_OK, {"reports": reports}, lines)


def _verify_arguments(p) -> None:
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable)")
    p.add_argument("--min-n", type=int, default=3)
    p.add_argument("--max-n", type=int, default=5)


def _cmd_verify(args, settings) -> _Result:
    suites = args.suite or ["all"]
    cfg = SuiteConfig(min_n=args.min_n, max_n=args.max_n)
    rows = _checked(run_suites, suites, cfg)
    row_docs = [r.to_doc() for r in rows]
    summary = {
        "pass": sum(1 for r in rows if r.verdict == "pass"),
        "fail": sum(1 for r in rows if r.verdict == "fail"),
        "skip": sum(1 for r in rows if r.verdict == "skip"),
    }
    return _Result(
        EX_FAIL if summary["fail"] else EX_OK,
        {"rows": row_docs, "summary": summary},
        [*_pretty_table(row_docs, CSV_COLUMNS),
         f"pass={summary['pass']} fail={summary['fail']} skip={summary['skip']}"],
        row_docs, CSV_COLUMNS,
    )


def _read_patterns(path: Path) -> list[bytes]:
    """The patterns in ``path`` as packed records, in file order."""
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read pattern file: {exc}")
    packed = _packed_patterns(text)
    if packed is None:
        packed = list(map(pack, _parse_pattern_lines(text)))
    return packed


# turns the commas of a pattern file into token separators
_COMMAS_TO_SPACES = bytes.maketrans(b",", b" ")


def _packed_patterns(text: str) -> list[bytes] | None:
    """The records of a file in plain form, or None for any other file.

    A plain file holds one literal per line, all of the first line's degree,
    with ASCII digits, spaces and newlines only, and every literal a
    permutation.  The whole file is checked by one regex pass and converted
    by one token lookup; a None sends the file to the line parser, which
    names the first bad line."""
    n = text.partition("\n")[0].count(",") + 1
    if n > MAX_DEGREE:
        return None
    # the symbol pattern written out n times matches faster than a {n}
    line = r" *\[ *[0-9]+" + r" *, *[0-9]+" * (n - 1) + r" *\] *\n"
    if not text.endswith("\n"):
        text += "\n"
    # the file is plain iff its lines, matched one after another, leave
    # nothing over; a fullmatch of (?:line)+ would do the same but keep
    # backtracking state per line, 5 MB for 2,485 lines
    if re.sub(line, "", text):
        return None
    symbols = {str(v + 1).encode(): v for v in range(n)}
    tokens = text.encode().translate(_COMMAS_TO_SPACES, b"[]").split()
    try:
        data = bytes([symbols[token] for token in tokens])
    except KeyError:  # a symbol outside 1..n, or one with a leading zero
        return None
    if not all_permutations(data, n):
        return None
    return [record for (record,) in struct.iter_unpack(f"{n}s", data)]


def _parse_pattern_lines(text: str) -> list[Perm]:
    """The patterns in a pattern file's text, parsed line by line; the
    UsageError names the first bad line."""
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


def _reconstruct_arguments(p) -> None:
    p.add_argument("--graph", choices=KINDS, required=True)
    p.add_argument("--r", type=int, required=True, help="max errors per pattern")
    p.add_argument("--patterns", type=Path, required=True,
                   help="file with one [2,3,1]-style permutation per line")


def _cmd_reconstruct(args, settings) -> _Result:
    patterns = _read_patterns(args.patterns)
    if len(patterns[0]) < 2:
        raise UsageError("pattern degree must be 2 or more, got 1")
    gen = GeneratorSet.of_kind(args.graph, len(patterns[0]))
    _warm(settings, ball_of_identity_cached, gen, args.r)
    result = reconstruct(patterns, args.r, gen).to_doc()
    code = {
        "unique": EX_OK,
        "ambiguous": EX_AMBIGUOUS,
        "inconsistent": EX_FAIL,
    }[result["status"]]
    return _Result(
        code, {"result": result},
        [f"status: {result['status']}", *(f"  candidate {c}" for c in result["candidates"])],
    )


def _simulate_arguments(p) -> None:
    p.add_argument("--graph", choices=KINDS, required=True)
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


def _cmd_simulate(args, settings) -> _Result:
    gen = _checked(GeneratorSet.of_kind, args.graph, args.n)
    if args.transcript is not None and not args.transcript.parent.is_dir():
        raise UsageError(
            f"cannot write transcript file {args.transcript}: no such directory"
        )
    _warm(settings, ball_of_identity_cached, gen, args.r)
    _warm(settings, overlap_of_identity_cached, gen, args.r)
    summary = run_experiment(
        gen, args.r, args.trials, args.seed,
        m=args.m,
        adversarial=args.adversarial,
        exact_errors=args.exact_errors,
    )
    if args.transcript is not None:
        lines = (
            (json.dumps(record.to_doc(), sort_keys=True) + "\n").encode()
            for record in summary.records
        )
        try:
            write_atomically(args.transcript, lines)
        except OSError as exc:
            raise UsageError(f"cannot write transcript file: {exc}")
    doc = summary.to_doc()
    return _Result(
        EX_OK, {"summary": doc},
        [f"{key}: {value}" for key, value in doc.items()],
        [doc], tuple(doc),
    )


def _factorizations_arguments(p) -> None:
    p.add_argument("--n", type=int, required=True)


def _cmd_factorizations(args, settings) -> _Result:
    rows = []
    for ct in _checked(cycle_types, args.n):
        rows.append({
            "cycle_type": str(ct),
            "min_transpositions": ct.min_transpositions,
            "count": minimal_factorization_count(ct),
        })
    columns = ("cycle_type", "min_transpositions", "count")
    return _Result(
        EX_OK, {"degree": args.n, "rows": rows},
        _pretty_table(rows, columns), rows, columns,
    )


def _classes_arguments(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="cross-check sizes by explicit enumeration")


def _cmd_classes(args, settings) -> _Result:
    rows = []
    for ct in _checked(cycle_types, args.n):
        row = {
            "cycle_type": str(ct),
            "size": conjugacy_class_size(ct),
            "sphere": ct.min_transpositions,
        }
        if args.check:
            row["enumerated"] = len(enumerate_class(ct))
            row["check"] = "ok" if row["enumerated"] == row["size"] else "MISMATCH"
        rows.append(row)
    columns = ("cycle_type", "size", "sphere") + (
        ("enumerated", "check") if args.check else ()
    )
    mismatch = any(r.get("check") == "MISMATCH" for r in rows)
    return _Result(
        EX_FAIL if mismatch else EX_OK,
        {"degree": args.n, "rows": rows, "total": factorial(args.n)},
        [*_pretty_table(rows, columns),
         f"total {sum(r['size'] for r in rows)} of {factorial(args.n)}"],
        rows, columns,
    )


def _probe_arguments(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)


def _cmd_probe(args, settings) -> _Result:
    probe = _checked(conjecture_probe, args.n, args.r)
    return _Result(
        EX_OK, {"probe": probe}, [f"{key}: {probe[key]}" for key in sorted(probe)]
    )


def _graph_import_arguments(p) -> None:
    p.add_argument("--edges", type=Path, required=True,
                   help="file with one 'u v' pair per line (0-based)")
    p.add_argument("--r", type=int, default=1)


def _cmd_graph_import(args, settings) -> _Result:
    try:
        text = args.edges.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read edge file: {exc}")
    graph = _checked(parse_edge_list, text, name=args.edges.name)
    rep = small_graph_report(graph, args.r).to_doc()
    return _Result(
        EX_OK, {"report": rep},
        [f"graph {rep['graph']}: v={rep['v']} k={rep['k']} "
         f"lambda={rep['lambda']} mu={rep['mu']} diameter={rep['diameter']}",
         f"  overlap max by radius: {rep['n_r']}",
         f"  overlap max by center distance: {rep['n_s']}"],
    )


_NOT_TABULAR = ("json", "pretty")

# the (least, greatest or None) value of each option a command checks before
# any work; an option left at its default of None is not checked.  Seeds
# are 64-bit: ``rng`` would alias any other to one of them.
_BOUNDS = {
    "report": {"r": (1, None)},
    "reconstruct": {"r": (0, None)},
    "simulate": {"r": (1, None), "trials": (1, None), "m": (1, None), "seed": (0, 2**64 - 1)},
    "graph-import": {"r": (1, None)},
}


class _Command(NamedTuple):
    run: Callable  # (args, settings) -> _Result
    formats: tuple[str, ...]  # the output formats it supports
    help: str
    declare: Callable  # adds the command's own options to its parser


# in the order the help lists them
_COMMANDS = {
    "report": _Command(_cmd_report, _NOT_TABULAR,
                       "metric profile of Cayley graph instances", _report_arguments),
    "verify": _Command(_cmd_verify, _FORMATS,
                       "check closed forms against brute force", _verify_arguments),
    "reconstruct": _Command(_cmd_reconstruct, _NOT_TABULAR,
                            "recover a source permutation from patterns",
                            _reconstruct_arguments),
    "simulate": _Command(_cmd_simulate, _FORMATS,
                         "seeded reconstruction experiments", _simulate_arguments),
    "factorizations": _Command(_cmd_factorizations, _FORMATS,
                               "minimal transposition factorization counts",
                               _factorizations_arguments),
    "classes": _Command(_cmd_classes, _FORMATS,
                        "conjugacy classes by cycle type", _classes_arguments),
    "probe-conjecture": _Command(_cmd_probe, _NOT_TABULAR,
                                 "informational probe of the r-error overlap maximum",
                                 _probe_arguments),
    "graph-import": _Command(_cmd_graph_import, _NOT_TABULAR,
                             "metric profile of an explicit edge-list graph",
                             _graph_import_arguments),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_arguments(argv)
        settings = _load_settings(args)
        command = _COMMANDS[args.command]
        if settings["format"] not in command.formats:
            raise UsageError(
                f"{args.command} supports --format {' or '.join(command.formats)}"
            )
        for option, (low, high) in _BOUNDS.get(args.command, {}).items():
            value = getattr(args, option)
            if value is None or low <= value and (high is None or value <= high):
                continue
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise UsageError(f"--{option} must be {bound}")
        result = command.run(args, settings)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL
    if settings["format"] == "json":
        doc = {"command": args.command, "version": __version__, "config": settings}
        print(json.dumps({**doc, **result.payload}, sort_keys=True, indent=2))
    elif settings["format"] == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(result.columns)
        writer.writerows([row.get(col, "") for col in result.columns] for row in result.rows)
    else:
        for line in result.pretty:
            print(line)
    return result.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
