"""Claim registry: every closed-form value gets a stable id, a validity
range, and a brute-force measurement, producing one verdict row per
instance.

A suite is a generator that only declares its claims.  It yields
``(claim_id, statement, instance, measure)``, and ``measure()`` returns
``(expected, measured)``.  :func:`run_suites` alone turns a claim into a
:class:`ClaimRow`.  It calls ``measure()`` before it resumes the suite, so a
measure may read the suite's loop variables directly: they cannot move on
until the measure has run.

Verdicts: "pass" (measured equals expected, or satisfies it when expected
is a :class:`Bound`), "fail" (it does not), "skip" (the measure raised
:class:`NoClaim`, because no value is asserted at this instance or a
bound's premises fail, or ``CapacityError``, because the instance exceeds
one of the capacity caps of ``cayley``).  A skipped row never fails a run.
Ranges reflect where the source formulas actually assert a value; instances
outside are computed but reported as no-claim.

Every overlap measure reads ``cayley.overlap_of_identity``, the process
memo, which ``verify`` never primes from disk: each profile is scanned once
per process however many claims quote it.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import cache, partial
from math import comb, factorial

from . import formulas
from .cayley import (
    GeneratorSet,
    ball_overlap,
    bfs_levels,
    complete_bipartite_count,
    diameter,
    geodesic_counts,
    girth_cycle_check,
    is_distance_regular,
    lambda_mu,
    local_params_all,
    overlap_of_identity,
)
from .errors import CapacityError
from .perms import (
    MAX_DEGREE,
    CycleType,
    class_representative,
    conjugacy_class_size,
    cycle_type,
    cycle_types,
    enumerate_class,
    identity,
    minimal_factorization_count,
)
from .smallgraphs import (
    complete_multipartite_graph,
    hamming_graph,
    johnson_graph,
    lattice_graph,
    small_graph_is_distance_regular,
    small_graph_report,
    triangular_graph,
)

KINDS = ("T", "t", "st")


@dataclass(frozen=True)
class ClaimRow:
    suite: str
    claim_id: str
    statement: str
    instance: str
    expected: str
    measured: str
    verdict: str
    note: str = ""

    def to_doc(self) -> dict:
        return asdict(self)


CSV_COLUMNS = (
    "suite",
    "claim_id",
    "instance",
    "statement",
    "expected",
    "measured",
    "verdict",
    "note",
)

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}


@dataclass(frozen=True)
class Bound:
    """An expected value the measurement must satisfy rather than equal,
    printed as the relation and the bound ("<= 63")."""

    relation: str
    value: object

    def holds(self, measured) -> bool:
        return _RELATIONS[self.relation](measured, self.value)

    def __str__(self) -> str:
        return f"{self.relation} {self.value}"


class NoClaim(Exception):
    """Raised by a measure whose instance asserts no value; the message is
    the skip row's note."""


@dataclass(frozen=True)
class SuiteConfig:
    min_n: int = 3
    max_n: int = 5

    def span(self, lo: int, hi: int) -> range:
        return range(max(lo, self.min_n), min(hi, self.max_n) + 1)


def suite_n_values(cfg: SuiteConfig):
    specs = [
        ("nvalue.T.r1", "T", 1, 3, "one-error overlap max = 3 (all transpositions)"),
        ("nvalue.T.r2", "T", 2, 3, "two-error overlap max = 3(n-2)(n+1)/2 (all transpositions)"),
        ("nvalue.t.r1", "t", 1, 3, "one-error overlap max = 2 (adjacent swaps)"),
        ("nvalue.t.r2", "t", 2, 3, "two-error overlap max = 2(n-1) (adjacent swaps)"),
        ("nvalue.st.r1", "st", 1, 4, "one-error overlap max = 2 (prefix swaps)"),
        ("nvalue.st.r2", "st", 2, 4, "two-error overlap max = 2(n-1) (prefix swaps)"),
    ]
    # each formula claims every n from lo on, so each is checked up to the
    # largest degree the package takes
    for cid, kind, r, lo, stmt in specs:
        for n in cfg.span(lo, MAX_DEGREE):
            def measure():
                if kind == "T":
                    expected = formulas.transposition_max_overlap(n, r)
                else:
                    expected = formulas.bubble_star_max_overlap(kind, n, r)
                return expected, overlap_of_identity(GeneratorSet.of_kind(kind, n), r).value
            yield cid, stmt, f"n={n},r={r}", measure


def suite_ns_tables(cfg: SuiteConfig):
    stmt = {
        "T": "per-distance two-error overlap maxima (all transpositions)",
        "t": "per-distance two-error overlap maxima (adjacent swaps)",
        "st": "per-distance two-error overlap maxima (prefix swaps)",
    }
    for kind in KINDS:
        for n in cfg.span(3, MAX_DEGREE):
            if kind == "T":
                table = formulas.transposition_sphere_overlaps(n)
            else:
                table = formulas.bubble_star_sphere_overlaps(kind, n)
            for s, expected in table.items():
                def measure():
                    if expected is None:
                        raise NoClaim("no claim at this n")
                    got = overlap_of_identity(GeneratorSet.of_kind(kind, n), 2).per_s[s - 1].value
                    return expected, "absent" if got is None else got
                yield f"nstable.{kind}.s{s}", stmt[kind], f"n={n},s={s}", measure


def suite_lambda_mu(cfg: SuiteConfig):
    specs = [
        ("lambda.T", "T", 0, 0, 3, "max triangles per edge = 0 (all transpositions)"),
        ("mu.T", "T", 1, 3, 3, "max common neighbors at distance 2 = 3 (all transpositions)"),
        ("lambda.t", "t", 0, 0, 3, "max triangles per edge = 0 (adjacent swaps)"),
        ("mu.t", "t", 1, 2, 4, "max common neighbors at distance 2 = 2 (adjacent swaps)"),
        ("lambda.st", "st", 0, 0, 4, "max triangles per edge = 0 (prefix swaps)"),
        ("mu.st", "st", 1, 1, 4, "max common neighbors at distance 2 = 1 (prefix swaps)"),
    ]
    for cid, kind, which, expected, lo, stmt in specs:
        for n in cfg.span(lo, MAX_DEGREE):
            yield cid, stmt, f"n={n}", lambda: (
                expected, lambda_mu(GeneratorSet.of_kind(kind, n))[which]
            )
    consistency = "one-error overlap max equals max(lambda+2, mu)"
    for kind in KINDS:
        for n in cfg.span(4 if kind == "st" else 3, MAX_DEGREE):
            def measure():
                g = GeneratorSet.of_kind(kind, n)
                lam, mu = lambda_mu(g)
                return max(lam + 2, mu), overlap_of_identity(g, 1).value
            yield f"consistency.{kind}.r1", consistency, f"n={n}", measure


def suite_local_params(cfg: SuiteConfig):
    stmt = (
        "every vertex at distance i has (c, a, b) = "
        "((sum j^2 h_j - n)/2, 0, (n^2 - sum j^2 h_j)/2) (all transpositions)"
    )
    for n in cfg.span(3, 6):
        def measure():
            measured = local_params_all(GeneratorSet.all_transpositions(n))
            bad = 0
            for p, (c, a, b) in measured.items():
                ect, ebt = formulas.local_params_formula(cycle_type(p))
                if (c, a, b) != (ect, 0, ebt):
                    bad += 1
            return "all conform", "all conform" if bad == 0 else f"{bad} mismatches"
        yield "localparams.T", stmt, f"n={n}", measure


def suite_factorizations(cfg: SuiteConfig):
    stmt = "minimal transposition factorizations = i! prod (j^(j-2)/(j-1)!)^h_j"
    for n in cfg.span(3, 8):
        # one walk serves every class of this degree; it runs on the first
        # measure, so a capacity skip still skips row by row
        counts = cache(partial(geodesic_counts, GeneratorSet.all_transpositions(n)))
        for ct in cycle_types(n):
            if ct.min_transpositions:
                yield "denes.count", stmt, f"n={n},ct={ct}", lambda: (
                    minimal_factorization_count(ct), counts()[class_representative(ct)]
                )


def suite_classes(cfg: SuiteConfig):
    stmt_size = "class size = n! / prod (j^h_j h_j!)"
    for n in cfg.span(3, 7):
        for ct in cycle_types(n):
            yield "class.size", stmt_size, f"n={n},ct={ct}", lambda: (
                conjugacy_class_size(ct), len(enumerate_class(ct))
            )
    stmt_sphere = (
        "distance-i sphere = union of classes with n-i cycles (all transpositions)"
    )
    for n in cfg.span(3, 6):
        def measure():
            levels = bfs_levels(GeneratorSet.all_transpositions(n))
            ok = True
            for i, level in enumerate(levels):
                union = set()
                for ct in cycle_types(n):
                    if ct.min_transpositions == i:
                        union |= enumerate_class(ct)
                if set(level) != union:
                    ok = False
            return "spheres match", "spheres match" if ok else "mismatch"
        yield "class.sphere-partition", stmt_sphere, f"n={n}", measure


def suite_diameters(cfg: SuiteConfig):
    specs = [
        ("diameter.T", "T", "diameter = n-1 (all transpositions)"),
        ("diameter.t", "t", "diameter = n(n-1)/2 (adjacent swaps)"),
        ("diameter.st", "st", "diameter = floor(3(n-1)/2) (prefix swaps)"),
    ]
    for cid, kind, stmt in specs:
        for n in cfg.span(3, 7):
            gen = GeneratorSet.of_kind(kind, n)
            yield cid, stmt, f"n={n}", lambda: (diameter(gen), len(bfs_levels(gen)) - 1)


def suite_structure(cfg: SuiteConfig):
    specs = [
        ("structure.T.k33", "T", 3, 3, lambda n: comb(n, 3),
         "K_{3,3} subgraphs through a vertex = C(n,3) (all transpositions)"),
        ("structure.T.k24", "T", 2, 4, lambda n: 0,
         "no K_{2,4} subgraphs (all transpositions)"),
        ("structure.t.k22", "t", 2, 2, lambda n: comb(n - 2, 2),
         "K_{2,2} subgraphs through a vertex = C(n-2,2) (adjacent swaps)"),
        ("structure.t.k23", "t", 2, 3, lambda n: 0,
         "no K_{2,3} subgraphs (adjacent swaps)"),
    ]
    for cid, kind, p, q, expect, stmt in specs:
        for n in cfg.span(3, 5):
            yield cid, stmt, f"n={n}", lambda: (
                expect(n),
                complete_bipartite_count(GeneratorSet.of_kind(kind, n), p, q, identity(n)),
            )
    girth_specs = [
        ("structure.st.girth", "st", (3, 4, 5, 7), "no cycles of length 3, 4, 5 or 7 (prefix swaps)"),
        ("structure.t.girth3", "t", (3,), "no triangles (adjacent swaps, bipartite)"),
        ("structure.T.girth4", "T", (4,), "4-cycles exist (all transpositions)"),
    ]
    for cid, kind, lengths, stmt in girth_specs:
        for n in cfg.span(3, 5):
            def measure():
                found = girth_cycle_check(GeneratorSet.of_kind(kind, n), lengths)
                if cid == "structure.T.girth4":
                    return "present", "present" if all(found.values()) else "absent"
                bad = sorted(l for l, present in found.items() if present)
                return "absent", "absent" if not bad else f"present: {bad}"
            yield cid, stmt, f"n={n}", measure


def suite_distance_regularity(cfg: SuiteConfig):
    for n in cfg.span(4, 4):
        for kind in KINDS:
            def measure():
                res = is_distance_regular(GeneratorSet.of_kind(kind, n))
                found = not res.is_distance_regular and res.witness is not None
                return "witness found", "witness found" if found else "distance-regular"
            yield (f"drg.{kind}4", "not distance-regular at n=4 (witness pair required)",
                   "n=4", measure)
    small = [
        ("drg.hamming-3-2", hamming_graph(3, 2), "3-bit Hamming graph is distance-regular"),
        ("drg.johnson-5-2", johnson_graph(5, 2), "Johnson graph of 2-subsets of 5 is distance-regular"),
    ]
    for cid, graph, stmt in small:
        def measure():
            res = small_graph_is_distance_regular(graph)
            return "distance-regular", (
                "distance-regular" if res.is_distance_regular else "witness found"
            )
        yield cid, stmt, graph.name, measure


def suite_small_graphs(cfg: SuiteConfig):
    stmt_h = "Hamming overlap max = q sum_{i<r} C(n-1,i)(q-1)^i"
    for n in range(2, 5):
        for q in (2, 3):
            report = small_graph_report(hamming_graph(n, q), 2)
            for r in (1, 2):
                yield "closedform.hamming", stmt_h, f"n={n},q={q},r={r}", lambda: (
                    formulas.hamming_max_overlap(n, q, r), report.n_value(r)
                )
    stmt_j = "Johnson overlap max = n sum_{i<r} C(e-1,i)C(n-e-1,i)/(i+1)"
    for n in range(2, 9):
        for e in range(1, n):
            report = small_graph_report(johnson_graph(n, e), 2)
            for r in (1, 2):
                yield "closedform.johnson", stmt_j, f"n={n},e={e},r={r}", lambda: (
                    formulas.johnson_max_overlap(n, e, r), report.n_value(r)
                )
    stmt_l = "lattice overlap max: q at one error, q^2 at two"
    for q in (2, 3):
        report = small_graph_report(lattice_graph(q), 2)
        yield "closedform.lattice", stmt_l, f"q={q},r=1", lambda: (q, report.n_value(1))
        yield "closedform.lattice", stmt_l, f"q={q},r=2", lambda: (q * q, report.n_value(2))
    stmt_t = "triangular overlap max: n at one error, n(n-1)/2 at two"
    for n in range(4, 8):
        report = small_graph_report(triangular_graph(n), 2)
        yield "closedform.triangular", stmt_t, f"n={n},r=1", lambda: (n, report.n_value(1))
        yield "closedform.triangular", stmt_t, f"n={n},r=2", lambda: (
            n * (n - 1) // 2, report.n_value(2)
        )


def suite_bounds(cfg: SuiteConfig):
    sym = [(kind, n) for kind in KINDS for n in cfg.span(4 if kind == "st" else 3, 5)]
    stmt8 = "one-error overlap max <= (v + lambda)/2 for regular graphs"
    for kind, n in sym:
        def measure():
            g = GeneratorSet.of_kind(kind, n)
            bound = formulas.single_error_upper_bound(factorial(n), g.k, lambda_mu(g)[0])
            return Bound("<=", bound), overlap_of_identity(g, 1).value
        yield "bound.one-error-upper", stmt8, f"{kind},n={n}", measure
    small = [
        ("lattice q=2", lattice_graph(2)),
        ("lattice q=3", lattice_graph(3)),
        ("hamming n=3 q=2", hamming_graph(3, 2)),
        ("triangular n=5", triangular_graph(5)),
        ("johnson n=6 e=3", johnson_graph(6, 3)),
    ]
    for label, graph in small:
        report = small_graph_report(graph, 1)
        yield "bound.one-error-upper", stmt8, label, lambda: (
            Bound("<=", formulas.single_error_upper_bound(report.v, report.k, report.lam)),
            report.n_value(1),
        )
    stmt8eq = "one-error bound attained on complete multipartite graphs"
    for t in (2, 3):
        for m in (2, 3):
            report = small_graph_report(complete_multipartite_graph(t, m), 1)
            yield "bound.one-error-attained", stmt8eq, f"t={t},m={m}", lambda: (
                Bound("=", formulas.single_error_upper_bound(report.v, report.k, report.lam)),
                report.n_value(1),
            )
    stmt9 = "distance-2 two-error overlap >= mu(k-1-(3/4)(mu-1)(N1-2))+2"
    for kind, n in sym:
        def measure():
            g = GeneratorSet.of_kind(kind, n)
            n1, per_s = overlap_of_identity(g, 1).value, overlap_of_identity(g, 2).per_s
            bound = formulas.two_error_lower_bound(g.k, lambda_mu(g)[1], n1)
            return Bound(">=", bound), per_s[1].value
        yield "bound.two-error-lower", stmt9, f"{kind},n={n}", measure
    stmt_eq = "adjacent-swap graph attains the mu=2 bound: distance-2 overlap = 2k"
    for n in cfg.span(4, 5):
        def measure():
            g = GeneratorSet.adjacent(n)
            return 2 * g.k, overlap_of_identity(g, 2).per_s[1].value
        yield "bound.two-error-attained", stmt_eq, f"t,n={n}", measure
    stmt10 = (
        "triangle- and pentagon-free with mu >= 2 and k >= 1+(3/4)mu(mu-1): "
        "distance-2 overlap >= distance-1 overlap"
    )
    for kind, n in sym:
        def measure():
            g = GeneratorSet.of_kind(kind, n)
            found = girth_cycle_check(g, (3, 5))
            mu = lambda_mu(g)[1]
            premises = formulas.sphere_comparison_premises(g.k, mu, found[3], found[5])
            if not premises.applicable:
                raise NoClaim("premises fail: " + "; ".join(premises.reasons))
            per_s = overlap_of_identity(g, 2).per_s
            return Bound(">=", per_s[0].value), per_s[1].value
        yield "bound.sphere-comparison", stmt10, f"{kind},n={n}", measure


def conjecture_probe(n: int, r: int) -> dict:
    """Experimental probe of the r-error overlap maximum on the
    all-transpositions graph.

    Reports the measured maximum, which center distances and conjugacy
    classes attain it, whether a 3-cycle witness attains it, and the two
    readings of the conjectured identity (distance-2 value at two errors as
    printed, and at r errors).  Output is informational only; nothing here
    is asserted."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if n < 2 * r + 1:
        raise ValueError(f"probe needs n >= 2r+1, got n={n}, r={r}")
    g = GeneratorSet.all_transpositions(n)
    result = overlap_of_identity(g, r)
    three_cycle = CycleType((n - 3, 0, 1, *[0] * (n - 3)))
    three_cycle_value = ball_overlap(g, r, class_representative(three_cycle))
    return {
        "label": "probe",
        "n": n,
        "r": r,
        "value": result.value,
        "attained_at_s": list(result.best_s),
        "attaining_classes": {
            str(s): sorted(w) for s, w in result.witnesses.items()
        },
        "three_cycle_class": str(three_cycle),
        "three_cycle_value": three_cycle_value,
        "three_cycle_attains": three_cycle_value == result.value,
        "distance2_value_at_two_errors": overlap_of_identity(g, 2).per_s[1].value,
        "distance2_value_at_r_errors": result.per_s[1].value,
    }


SUITES = {
    "n-values": suite_n_values,
    "ns-tables": suite_ns_tables,
    "lambda-mu": suite_lambda_mu,
    "local-params": suite_local_params,
    "factorizations": suite_factorizations,
    "classes": suite_classes,
    "diameters": suite_diameters,
    "structure": suite_structure,
    "distance-regularity": suite_distance_regularity,
    "small-graphs": suite_small_graphs,
    "bounds": suite_bounds,
}


def run_suites(names, cfg: SuiteConfig) -> list[ClaimRow]:
    """The rows of the named suites (or of all, for ``["all"]``), in order.
    Every name is checked before any suite runs."""
    if names == ["all"]:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)} or 'all'")
    rows: list[ClaimRow] = []
    for name in names:
        for claim_id, statement, instance, measure in SUITES[name](cfg):
            claim = (name, claim_id, statement, instance)
            try:
                expected, measured = measure()
            except CapacityError as exc:
                rows.append(ClaimRow(*claim, "-", "-", "skip", f"capacity: {exc}"))
            except NoClaim as exc:
                rows.append(ClaimRow(*claim, "-", "-", "skip", str(exc)))
            else:
                holds = (
                    expected.holds(measured) if isinstance(expected, Bound)
                    else expected == measured
                )
                rows.append(ClaimRow(
                    *claim, str(expected), str(measured), "pass" if holds else "fail"
                ))
    return rows
