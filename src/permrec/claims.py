"""Claim registry: every closed-form value gets a stable id, a validity
range, and a brute-force measurement, producing one verdict row per
instance.

Verdicts: "pass" (measured equals expected), "fail" (it does not), "skip"
(no value is asserted at this instance, or the instance exceeds the capacity
budget).  A skipped row never fails a run.  Ranges reflect where the source
formulas actually assert a value; instances outside are computed but
reported as no-claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from . import formulas
from .cayley import (
    Budgets,
    DEFAULT_BUDGETS,
    GeneratorSet,
    bfs_levels,
    complete_bipartite_count,
    girth_cycle_check,
    is_distance_regular,
    lambda_mu,
    local_params_all,
    max_ball_intersection,
    max_ball_intersection_at,
)
from .errors import CapacityError
from .perms import (
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
        return {
            "suite": self.suite,
            "claim_id": self.claim_id,
            "statement": self.statement,
            "instance": self.instance,
            "expected": self.expected,
            "measured": self.measured,
            "verdict": self.verdict,
            "note": self.note,
        }


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


def _row(suite, claim_id, statement, instance, expected, measured, note=""):
    verdict = "pass" if expected == measured else "fail"
    return ClaimRow(
        suite, claim_id, statement, instance, str(expected), str(measured), verdict, note
    )


def _skip(suite, claim_id, statement, instance, note):
    return ClaimRow(suite, claim_id, statement, instance, "-", "-", "skip", note)


def _guard(rows, suite, claim_id, statement, instance, fn):
    """Run one measurement; degrade capacity overruns to skipped rows."""
    try:
        rows.append(fn())
    except CapacityError as exc:
        rows.append(_skip(suite, claim_id, statement, instance, f"capacity: {exc}"))


@dataclass(frozen=True)
class SuiteConfig:
    min_n: int = 3
    max_n: int = 5
    budgets: Budgets = DEFAULT_BUDGETS
    workers: int = 1

    def span(self, lo: int, hi: int) -> range:
        return range(max(lo, self.min_n), min(hi, self.max_n) + 1)


def _measured_n_value(kind: str, n: int, r: int, cfg: SuiteConfig) -> int:
    g = GeneratorSet.of_kind(kind, n)
    return max_ball_intersection(g, r, cfg.budgets, cfg.workers).value


def suite_n_values(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    specs = [
        ("nvalue.T.r1", "T", 1, 3, 7, "one-error overlap max = 3 (all transpositions)"),
        ("nvalue.T.r2", "T", 2, 3, 6, "two-error overlap max = 3(n-2)(n+1)/2 (all transpositions)"),
        ("nvalue.t.r1", "t", 1, 3, 7, "one-error overlap max = 2 (adjacent swaps)"),
        ("nvalue.t.r2", "t", 2, 3, 7, "two-error overlap max = 2(n-1) (adjacent swaps)"),
        ("nvalue.st.r1", "st", 1, 4, 7, "one-error overlap max = 2 (prefix swaps)"),
        ("nvalue.st.r2", "st", 2, 4, 7, "two-error overlap max = 2(n-1) (prefix swaps)"),
    ]
    for cid, kind, r, lo, hi, stmt in specs:
        for n in cfg.span(lo, hi):
            if kind == "T":
                expected = formulas.transposition_max_overlap(n, r)
            else:
                expected = formulas.bubble_star_max_overlap(kind, n, r)
            inst = f"n={n},r={r}"
            _guard(
                rows, "n-values", cid, stmt, inst,
                lambda cid=cid, stmt=stmt, inst=inst, kind=kind, n=n, r=r, expected=expected: _row(
                    "n-values", cid, stmt, inst, expected,
                    _measured_n_value(kind, n, r, cfg),
                ),
            )
    return rows


def suite_ns_tables(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    ranges = {"T": (3, 6), "t": (3, 8), "st": (3, 7)}
    stmt = {
        "T": "per-distance two-error overlap maxima (all transpositions)",
        "t": "per-distance two-error overlap maxima (adjacent swaps)",
        "st": "per-distance two-error overlap maxima (prefix swaps)",
    }
    for kind in KINDS:
        lo, hi = ranges[kind]
        for n in cfg.span(lo, hi):
            if kind == "T":
                table = formulas.transposition_sphere_overlaps(n)
            else:
                table = formulas.bubble_star_sphere_overlaps(kind, n)
            for s, expected in table.items():
                cid = f"nstable.{kind}.s{s}"
                inst = f"n={n},s={s}"
                if expected is None:
                    rows.append(
                        _skip("ns-tables", cid, stmt[kind], inst, "no claim at this n")
                    )
                    continue
                def measure(cid=cid, inst=inst, kind=kind, n=n, s=s, expected=expected):
                    g = GeneratorSet.of_kind(kind, n)
                    got = max_ball_intersection_at(
                        g, 2, s, cfg.budgets, cfg.workers
                    ).value
                    return _row(
                        "ns-tables", cid, stmt[kind], inst, expected,
                        "absent" if got is None else got,
                    )
                _guard(rows, "ns-tables", cid, stmt[kind], inst, measure)
    return rows


def suite_lambda_mu(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    specs = [
        ("lambda.T", "T", 0, 0, 3, 8, "max triangles per edge = 0 (all transpositions)"),
        ("mu.T", "T", 1, 3, 3, 8, "max common neighbors at distance 2 = 3 (all transpositions)"),
        ("lambda.t", "t", 0, 0, 3, 8, "max triangles per edge = 0 (adjacent swaps)"),
        ("mu.t", "t", 1, 2, 4, 8, "max common neighbors at distance 2 = 2 (adjacent swaps)"),
        ("lambda.st", "st", 0, 0, 4, 8, "max triangles per edge = 0 (prefix swaps)"),
        ("mu.st", "st", 1, 1, 4, 8, "max common neighbors at distance 2 = 1 (prefix swaps)"),
    ]
    for cid, kind, which, expected, lo, hi, stmt in specs:
        for n in cfg.span(lo, hi):
            inst = f"n={n}"
            def measure(cid=cid, stmt=stmt, inst=inst, kind=kind, n=n, which=which, expected=expected):
                got = lambda_mu(GeneratorSet.of_kind(kind, n))[which]
                return _row("lambda-mu", cid, stmt, inst, expected, got)
            _guard(rows, "lambda-mu", cid, stmt, inst, measure)
    consistency = "one-error overlap max equals max(lambda+2, mu)"
    for kind in KINDS:
        lo = 4 if kind == "st" else 3
        for n in cfg.span(lo, 8):
            cid = f"consistency.{kind}.r1"
            inst = f"n={n}"
            def measure(cid=cid, inst=inst, kind=kind, n=n):
                g = GeneratorSet.of_kind(kind, n)
                lam, mu = lambda_mu(g)
                measured = max_ball_intersection(g, 1, cfg.budgets, cfg.workers).value
                return _row(
                    "lambda-mu", cid, consistency, inst, max(lam + 2, mu), measured
                )
            _guard(rows, "lambda-mu", cid, consistency, inst, measure)
    return rows


def suite_local_params(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    stmt = (
        "every vertex at distance i has (c, a, b) = "
        "((sum j^2 h_j - n)/2, 0, (n^2 - sum j^2 h_j)/2) (all transpositions)"
    )
    for n in cfg.span(3, 6):
        inst = f"n={n}"
        def measure(inst=inst, n=n):
            g = GeneratorSet.all_transpositions(n)
            measured = local_params_all(g, cfg.budgets)
            bad = 0
            for p, (c, a, b) in measured.items():
                ect, ebt = formulas.local_params_formula(cycle_type(p))
                if (c, a, b) != (ect, 0, ebt):
                    bad += 1
            return _row(
                "local-params", "localparams.T", stmt, inst,
                "all conform", "all conform" if bad == 0 else f"{bad} mismatches",
            )
        _guard(rows, "local-params", "localparams.T", stmt, inst, measure)
    return rows


def suite_factorizations(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    stmt = "minimal transposition factorizations = i! prod (j^(j-2)/(j-1)!)^h_j"
    for n in cfg.span(3, 5):
        for ct in cycle_types(n):
            if ct.min_transpositions == 0:
                continue
            inst = f"n={n},ct={ct}"
            def measure(inst=inst, ct=ct):
                expected = minimal_factorization_count(ct)
                measured = _brute_factorizations(ct)
                return _row(
                    "factorizations", "denes.count", stmt, inst, expected, measured
                )
            _guard(rows, "factorizations", "denes.count", stmt, inst, measure)
    return rows


def _brute_factorizations(ct) -> int:
    """Count ordered transposition sequences of minimal length with the
    given product, by exhaustive enumeration."""
    from itertools import product as iproduct

    from .perms import class_representative, compose

    n = ct.degree
    target = class_representative(ct)
    gens = GeneratorSet.all_transpositions(n).gens
    i = ct.min_transpositions
    count = 0
    for seq in iproduct(gens, repeat=i):
        acc = seq[0]
        for s in seq[1:]:
            acc = compose(acc, s)
        if acc == target:
            count += 1
    return count


def suite_classes(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    stmt_size = "class size = n! / prod (j^h_j h_j!)"
    for n in cfg.span(3, 7):
        for ct in cycle_types(n):
            inst = f"n={n},ct={ct}"
            def measure(inst=inst, ct=ct):
                return _row(
                    "classes", "class.size", stmt_size, inst,
                    conjugacy_class_size(ct), len(enumerate_class(ct)),
                )
            _guard(rows, "classes", "class.size", stmt_size, inst, measure)
    stmt_sphere = (
        "distance-i sphere = union of classes with n-i cycles (all transpositions)"
    )
    for n in cfg.span(3, 6):
        inst = f"n={n}"
        def measure(inst=inst, n=n):
            g = GeneratorSet.all_transpositions(n)
            levels = bfs_levels(g, cfg.budgets)
            ok = True
            for i, level in enumerate(levels):
                union = set()
                for ct in cycle_types(n):
                    if ct.min_transpositions == i:
                        union |= enumerate_class(ct)
                if set(level) != union:
                    ok = False
            return _row(
                "classes", "class.sphere-partition", stmt_sphere, inst,
                "spheres match", "spheres match" if ok else "mismatch",
            )
        _guard(rows, "classes", "class.sphere-partition", stmt_sphere, inst, measure)
    return rows


def suite_diameters(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    specs = [
        ("diameter.T", "T", lambda n: n - 1, "diameter = n-1 (all transpositions)"),
        ("diameter.t", "t", lambda n: comb(n, 2), "diameter = n(n-1)/2 (adjacent swaps)"),
        ("diameter.st", "st", lambda n: 3 * (n - 1) // 2, "diameter = floor(3(n-1)/2) (prefix swaps)"),
    ]
    for cid, kind, expect, stmt in specs:
        for n in cfg.span(3, 7):
            inst = f"n={n}"
            def measure(cid=cid, stmt=stmt, inst=inst, kind=kind, n=n, expect=expect):
                g = GeneratorSet.of_kind(kind, n)
                return _row(
                    "diameters", cid, stmt, inst,
                    expect(n), len(bfs_levels(g, cfg.budgets)) - 1,
                )
            _guard(rows, "diameters", cid, stmt, inst, measure)
    return rows


def suite_structure(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    specs = [
        ("structure.T.k33", "T", 3, 3, lambda n: comb(n, 3),
         "K_{3,3} subgraphs through a vertex = C(n,3) (all transpositions)", 3),
        ("structure.T.k24", "T", 2, 4, lambda n: 0,
         "no K_{2,4} subgraphs (all transpositions)", 3),
        ("structure.t.k22", "t", 2, 2, lambda n: comb(n - 2, 2),
         "K_{2,2} subgraphs through a vertex = C(n-2,2) (adjacent swaps)", 3),
        ("structure.t.k23", "t", 2, 3, lambda n: 0,
         "no K_{2,3} subgraphs (adjacent swaps)", 3),
    ]
    for cid, kind, p, q, expect, stmt, lo in specs:
        for n in cfg.span(lo, 5):
            inst = f"n={n}"
            def measure(cid=cid, stmt=stmt, inst=inst, kind=kind, n=n, p=p, q=q, expect=expect):
                g = GeneratorSet.of_kind(kind, n)
                got = complete_bipartite_count(g, p, q, identity(n), cfg.budgets)
                return _row("structure", cid, stmt, inst, expect(n), got)
            _guard(rows, "structure", cid, stmt, inst, measure)
    girth_specs = [
        ("structure.st.girth", "st", (3, 4, 5, 7), "no cycles of length 3, 4, 5 or 7 (prefix swaps)", 3),
        ("structure.t.girth3", "t", (3,), "no triangles (adjacent swaps, bipartite)", 3),
        ("structure.T.girth4", "T", (4,), "4-cycles exist (all transpositions)", 3),
    ]
    for cid, kind, lengths, stmt, lo in girth_specs:
        expected_present = cid == "structure.T.girth4"
        for n in cfg.span(lo, 5):
            inst = f"n={n}"
            def measure(cid=cid, stmt=stmt, inst=inst, kind=kind, n=n, lengths=lengths, expected_present=expected_present):
                g = GeneratorSet.of_kind(kind, n)
                found = girth_cycle_check(g, lengths, cfg.budgets)
                if expected_present:
                    return _row("structure", cid, stmt, inst, "present",
                                "present" if all(found.values()) else "absent")
                bad = sorted(l for l, present in found.items() if present)
                return _row("structure", cid, stmt, inst, "absent",
                            "absent" if not bad else f"present: {bad}")
            _guard(rows, "structure", cid, stmt, inst, measure)
    return rows


def suite_distance_regularity(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    if cfg.max_n >= 4 and cfg.min_n <= 4:
        for kind in KINDS:
            cid = f"drg.{kind}4"
            stmt = "not distance-regular at n=4 (witness pair required)"
            inst = "n=4"
            def measure(cid=cid, stmt=stmt, kind=kind):
                res = is_distance_regular(GeneratorSet.of_kind(kind, 4), cfg.budgets)
                measured = (
                    "witness found"
                    if not res.is_distance_regular and res.witness is not None
                    else "distance-regular"
                )
                return _row("distance-regularity", cid, stmt, "n=4",
                            "witness found", measured)
            _guard(rows, "distance-regularity", cid, stmt, inst, measure)
    small = [
        ("drg.hamming-3-2", hamming_graph(3, 2), "3-bit Hamming graph is distance-regular"),
        ("drg.johnson-5-2", johnson_graph(5, 2), "Johnson graph of 2-subsets of 5 is distance-regular"),
    ]
    for cid, graph, stmt in small:
        def measure(cid=cid, stmt=stmt, graph=graph):
            res = small_graph_is_distance_regular(graph)
            return _row(
                "distance-regularity", cid, stmt, graph.name,
                "distance-regular",
                "distance-regular" if res.is_distance_regular else "witness found",
            )
        _guard(rows, "distance-regularity", cid, stmt, graph.name, measure)
    return rows


def suite_small_graphs(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    stmt_h = "Hamming overlap max = q sum_{i<r} C(n-1,i)(q-1)^i"
    for n in range(2, 5):
        for q in (2, 3):
            graph = hamming_graph(n, q)
            report = small_graph_report(graph, 2)
            for r in (1, 2):
                inst = f"n={n},q={q},r={r}"
                rows.append(_row(
                    "small-graphs", "closedform.hamming", stmt_h, inst,
                    formulas.hamming_max_overlap(n, q, r), report.n_value(r),
                ))
    stmt_j = "Johnson overlap max = n sum_{i<r} C(e-1,i)C(n-e-1,i)/(i+1)"
    for n in range(2, 9):
        for e in range(1, n):
            graph = johnson_graph(n, e)
            report = small_graph_report(graph, 2)
            for r in (1, 2):
                inst = f"n={n},e={e},r={r}"
                rows.append(_row(
                    "small-graphs", "closedform.johnson", stmt_j, inst,
                    formulas.johnson_max_overlap(n, e, r), report.n_value(r),
                ))
    stmt_l = "lattice overlap max: q at one error, q^2 at two"
    for q in (2, 3):
        report = small_graph_report(lattice_graph(q), 2)
        rows.append(_row("small-graphs", "closedform.lattice", stmt_l,
                         f"q={q},r=1", q, report.n_value(1)))
        rows.append(_row("small-graphs", "closedform.lattice", stmt_l,
                         f"q={q},r=2", q * q, report.n_value(2)))
    stmt_t = "triangular overlap max: n at one error, n(n-1)/2 at two"
    for n in range(4, 8):
        report = small_graph_report(triangular_graph(n), 2)
        rows.append(_row("small-graphs", "closedform.triangular", stmt_t,
                         f"n={n},r=1", n, report.n_value(1)))
        rows.append(_row("small-graphs", "closedform.triangular", stmt_t,
                         f"n={n},r=2", n * (n - 1) // 2, report.n_value(2)))
    return rows


def _sym_profile(kind: str, n: int, cfg: SuiteConfig):
    g = GeneratorSet.of_kind(kind, n)
    lam, mu = lambda_mu(g)
    n1 = max_ball_intersection(g, 1, cfg.budgets, cfg.workers).value
    res2 = max_ball_intersection(g, 2, cfg.budgets, cfg.workers)
    per_s = {sm.s: sm.value for sm in res2.per_s}
    return g, lam, mu, n1, per_s


def _check_row(suite, claim_id, statement, instance, ok, expected, measured, note=""):
    return ClaimRow(
        suite, claim_id, statement, instance, str(expected), str(measured),
        "pass" if ok else "fail", note,
    )


def suite_bounds(cfg: SuiteConfig) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    stmt8 = "one-error overlap max <= (v + lambda)/2 for regular graphs"
    for kind in KINDS:
        lo = 4 if kind == "st" else 3
        for n in cfg.span(lo, 5):
            inst = f"{kind},n={n}"
            def measure(inst=inst, kind=kind, n=n):
                g, lam, mu, n1, _ = _sym_profile(kind, n, cfg)
                bound = formulas.single_error_upper_bound(factorial(n), g.k, lam)
                return _check_row("bounds", "bound.one-error-upper", stmt8, inst,
                                  n1 <= bound, f"<= {bound}", n1)
            _guard(rows, "bounds", "bound.one-error-upper", stmt8, inst, measure)
    small = [
        ("lattice q=2", lattice_graph(2)),
        ("lattice q=3", lattice_graph(3)),
        ("hamming n=3 q=2", hamming_graph(3, 2)),
        ("triangular n=5", triangular_graph(5)),
        ("johnson n=6 e=3", johnson_graph(6, 3)),
    ]
    for label, graph in small:
        report = small_graph_report(graph, 1)
        bound = formulas.single_error_upper_bound(report.v, report.k, report.lam)
        n1 = report.n_value(1)
        rows.append(_check_row("bounds", "bound.one-error-upper", stmt8, label,
                               n1 <= bound, f"<= {bound}", n1))
    stmt8eq = "one-error bound attained on complete multipartite graphs"
    for t in (2, 3):
        for m in (2, 3):
            graph = complete_multipartite_graph(t, m)
            report = small_graph_report(graph, 1)
            bound = formulas.single_error_upper_bound(report.v, report.k, report.lam)
            n1 = report.n_value(1)
            rows.append(_check_row("bounds", "bound.one-error-attained", stmt8eq,
                                   f"t={t},m={m}", n1 == bound, f"= {bound}", n1))
    stmt9 = "distance-2 two-error overlap >= mu(k-1-(3/4)(mu-1)(N1-2))+2"
    for kind in KINDS:
        lo = 4 if kind == "st" else 3
        for n in cfg.span(lo, 5):
            inst = f"{kind},n={n}"
            def measure(inst=inst, kind=kind, n=n):
                g, lam, mu, n1, per_s = _sym_profile(kind, n, cfg)
                bound = formulas.two_error_lower_bound(g.k, mu, n1)
                measured = per_s[2]
                return _check_row("bounds", "bound.two-error-lower", stmt9, inst,
                                  measured >= bound, f">= {bound}", measured)
            _guard(rows, "bounds", "bound.two-error-lower", stmt9, inst, measure)
    stmt_eq = "adjacent-swap graph attains the mu=2 bound: distance-2 overlap = 2k"
    for n in cfg.span(4, 5):
        inst = f"t,n={n}"
        def measure(inst=inst, n=n):
            g, lam, mu, n1, per_s = _sym_profile("t", n, cfg)
            return _row("bounds", "bound.two-error-attained", stmt_eq, inst,
                        2 * g.k, per_s[2])
        _guard(rows, "bounds", "bound.two-error-attained", stmt_eq, inst, measure)
    stmt10 = (
        "triangle- and pentagon-free with mu >= 2 and k >= 1+(3/4)mu(mu-1): "
        "distance-2 overlap >= distance-1 overlap"
    )
    for kind in KINDS:
        lo = 4 if kind == "st" else 3
        for n in cfg.span(lo, 5):
            inst = f"{kind},n={n}"
            def measure(inst=inst, kind=kind, n=n):
                g, lam, mu, n1, per_s = _sym_profile(kind, n, cfg)
                found = girth_cycle_check(g, (3, 5), cfg.budgets)
                premises = formulas.sphere_comparison_premises(
                    g.k, mu, found[3], found[5]
                )
                if not premises.applicable:
                    return _skip("bounds", "bound.sphere-comparison", stmt10, inst,
                                 "premises fail: " + "; ".join(premises.reasons))
                return _check_row("bounds", "bound.sphere-comparison", stmt10, inst,
                                  per_s[2] >= per_s[1],
                                  f">= {per_s[1]}", per_s[2])
            _guard(rows, "bounds", "bound.sphere-comparison", stmt10, inst, measure)
    return rows


def conjecture_probe(
    n: int,
    r: int,
    budgets: Budgets = DEFAULT_BUDGETS,
    workers: int = 1,
) -> dict:
    """Experimental probe of the r-error overlap maximum on the
    all-transpositions graph.

    Reports the measured maximum, which center distances and conjugacy
    classes attain it, whether a 3-cycle witness attains it, and the two
    readings of the conjectured identity (distance-2 value at two errors as
    printed, and at r errors).  Output is informational only; nothing here
    is asserted."""
    from .cayley import ball_overlap
    from .perms import CycleType, class_representative

    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if n < 2 * r + 1:
        raise ValueError(f"probe needs n >= 2r+1, got n={n}, r={r}")
    g = GeneratorSet.all_transpositions(n)
    result = max_ball_intersection(g, r, budgets, workers)
    counts = [0] * n
    counts[0] = n - 3
    counts[2] = 1
    three_cycle = CycleType(tuple(counts))
    three_cycle_value = ball_overlap(g, r, class_representative(three_cycle), budgets)
    reading_printed = max_ball_intersection_at(g, 2, 2, budgets, workers).value
    reading_same_radius = max_ball_intersection_at(g, r, 2, budgets, workers).value
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
        "distance2_value_at_two_errors": reading_printed,
        "distance2_value_at_r_errors": reading_same_radius,
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
    if names == ["all"]:
        names = list(SUITES)
    rows: list[ClaimRow] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)} or 'all'")
        rows.extend(SUITES[name](cfg))
    return rows
