import random
from math import comb

import oracles
import pytest

from permrec.errors import CapacityError
from permrec.formulas import hamming_max_overlap, johnson_max_overlap
from permrec.smallgraphs import (
    SmallGraph,
    complete_multipartite_graph,
    graph_from_edges,
    hamming_graph,
    johnson_graph,
    lattice_graph,
    parse_edge_list,
    small_graph_is_distance_regular,
    small_graph_report,
    triangular_graph,
)


class TestBuilders:
    def test_hamming_shape(self):
        g = hamming_graph(3, 2)  # the 3-cube
        assert g.v == 8
        assert g.valency == 3

    def test_lattice_is_strongly_regular(self):
        for q in (2, 3, 4):
            report = small_graph_report(lattice_graph(q), 1)
            assert (report.v, report.k) == (q * q, 2 * (q - 1))
            assert (report.lam, report.mu) == (max(q - 2, 0), 2)

    def test_triangular_is_strongly_regular(self):
        for n in (4, 5, 6):
            report = small_graph_report(triangular_graph(n), 1)
            assert (report.v, report.k) == (comb(n, 2), 2 * (n - 2))
            assert (report.lam, report.mu) == (n - 2, 4)

    def test_johnson_valency(self):
        g = johnson_graph(6, 3)
        assert g.v == 20
        assert g.valency == 9

    def test_multipartite_parameters(self):
        for t in (2, 3):
            for m in (2, 3):
                report = small_graph_report(complete_multipartite_graph(t, m), 1)
                assert report.v == t * m
                assert report.k == (t - 1) * m
                assert report.lam == (t - 2) * m
                assert report.mu == (t - 1) * m

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            johnson_graph(4, 0)
        with pytest.raises(ValueError):
            hamming_graph(2, 1)
        with pytest.raises(ValueError):
            complete_multipartite_graph(1, 3)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            hamming_graph(12, 3)


class TestEdgeList:
    def test_square(self):
        g = parse_edge_list("0 1\n1 2\n2 3\n3 0\n")
        assert g.v == 4
        assert g.valency == 2

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a square\n0 1\n\n1 2\n2 3 # wrap\n3 0\n")
        assert g.v == 4

    @pytest.mark.parametrize("bad", ["", "0\n", "0 1 2\n", "0 a\n", "-1 0\n", "1 1\n"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_edge_list(bad)

    def test_validation_catches_asymmetry(self):
        with pytest.raises(ValueError):
            SmallGraph("broken", (frozenset({1}), frozenset()))


class TestReport:
    def test_square_profile(self):
        report = small_graph_report(parse_edge_list("0 1\n1 2\n2 3\n3 0\n"), 2)
        assert report.n_value(1) == 2
        assert report.n_value(2) == 4
        assert report.diameter == 2
        assert (report.lam, report.mu) == (0, 2)

    def test_disconnected_rejected(self):
        g = graph_from_edges("two-edges", 4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            small_graph_report(g, 1)

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("r", [1, 2])
    def test_hamming_matches_closed_form(self, n, q, r):
        report = small_graph_report(hamming_graph(n, q), r)
        assert report.n_value(r) == hamming_max_overlap(n, q, r)

    @pytest.mark.parametrize("n,e", [(4, 2), (5, 2), (6, 3)])
    @pytest.mark.parametrize("r", [1, 2])
    def test_johnson_matches_closed_form(self, n, e, r):
        report = small_graph_report(johnson_graph(n, e), r)
        assert report.n_value(r) == johnson_max_overlap(n, e, r)

    def test_multipartite_attains_upper_bound(self):
        report = small_graph_report(complete_multipartite_graph(3, 2), 1)
        assert report.n_value(1) == (report.v + report.lam) // 2

    def test_absent_sphere_reported_none(self):
        report = small_graph_report(parse_edge_list("0 1\n1 2\n2 3\n3 0\n"), 2)
        per_s = {sm.s: sm.value for sm in report.final.per_s}
        assert per_s[3] is None and per_s[4] is None  # diameter 2

    def test_witnesses_listed(self):
        report = small_graph_report(complete_multipartite_graph(2, 2), 1)
        wit = report.final.per_s[1].witnesses
        assert wit  # same-part pairs attain the maximum

    @pytest.mark.parametrize("r", [3, 4000])
    def test_radius_past_the_diameter_scans_only_to_it(self, r):
        # the 4-cycle's diameter is 2, so every radius past it reads r=2's
        # profile with the distances 5..2r absent
        square = parse_edge_list("0 1\n1 2\n2 3\n3 0\n")
        report = small_graph_report(square, r)
        assert len(report.per_radius) == 2
        assert report.to_doc()["n_r"] == {str(rr): 2 if rr == 1 else 4 for rr in range(1, r + 1)}
        assert report.final.per_s[:4] == small_graph_report(square, 2).final.per_s
        assert {sm.value for sm in report.final.per_s[4:]} == {None}
        assert len(report.final.per_s) == 2 * r

    def test_single_vertex_has_no_pairs(self):
        with pytest.raises(ValueError, match="no vertex pairs at any distance in 1..2r"):
            small_graph_report(SmallGraph("one", (frozenset(),)), 1)


class TestDistanceRegularity:
    def test_cube_is_distance_regular(self):
        res = small_graph_is_distance_regular(hamming_graph(3, 2))
        assert res.is_distance_regular
        assert res.intersection_array == ((3, 2, 1), (1, 2, 3))

    def test_triangular_five_is_distance_regular(self):
        res = small_graph_is_distance_regular(johnson_graph(5, 2))
        assert res.is_distance_regular

    def test_irregular_graph_witnessed_by_degrees(self):
        res = small_graph_is_distance_regular(parse_edge_list("0 1\n1 2\n"))
        assert not res.is_distance_regular
        assert (res.witness.first, res.witness.first_params) == ("0", (0, 1))
        assert (res.witness.second, res.witness.second_params) == ("1", (0, 2))

    def test_regular_but_not_distance_regular(self):
        # two triangles joined by a perfect matching (the 3-prism): regular,
        # but c_2 differs between pairs
        prism = parse_edge_list("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n")
        res = small_graph_is_distance_regular(prism)
        assert not res.is_distance_regular
        assert (res.witness.base, res.witness.dist) == ("0", 1)
        assert (res.witness.first, res.witness.first_params) == ("1", (1, 1))
        assert (res.witness.second, res.witness.second_params) == ("3 (from 0)", (1, 2))


# every graph the small-graphs, bounds and distance-regularity suites build
SUITE_GRAPHS = [
    *(hamming_graph(n, q) for n in range(2, 5) for q in (2, 3)),
    *(johnson_graph(n, e) for n in range(2, 9) for e in range(1, n)),
    *(lattice_graph(q) for q in (2, 3)),
    *(triangular_graph(n) for n in range(4, 8)),
    *(complete_multipartite_graph(t, m) for t in (2, 3) for m in (2, 3)),
]

# the two cases of TestDistanceRegularity that fail, with their witnesses
IRREGULAR = [
    parse_edge_list("0 1\n1 2\n"),
    parse_edge_list("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n"),
]


def whole(report):
    """A report's document and its profile at every radius up to its own."""
    return report.to_doc(), [report.profile(rr) for rr in range(1, report.r + 1)]


def outcome(fn, *args):
    """fn's result, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def random_graphs(count: int, seed: int):
    """Seeded graphs on 2..40 vertices: every other one grows from a random
    spanning tree, so it is connected; the rest are plain random edge sets,
    many of them disconnected."""
    rng = random.Random(seed)
    for i in range(count):
        v = rng.randint(2, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.5, 0.9))
        edges = {(u, w) for u in range(v) for w in range(u + 1, v) if rng.random() < density}
        if i % 2 == 0:
            edges |= {(rng.randrange(w), w) for w in range(1, v)}
        yield graph_from_edges(f"random-{i}", v, sorted(edges))


class TestAgainstOracle:
    """The bitmask scans against the frozenset and BFS scans they replaced,
    compared as whole results: values, witnesses and witness order."""

    @pytest.mark.parametrize("graph", SUITE_GRAPHS + IRREGULAR, ids=lambda g: g.name)
    def test_suite_graphs(self, graph):
        for r in (1, 2, 3, 6):
            want = whole(oracles.small_graph_report(graph, r))
            assert whole(small_graph_report(graph, r)) == want
        assert small_graph_is_distance_regular(graph) == (
            oracles.small_graph_is_distance_regular(graph)
        )

    def test_random_graphs(self):
        disconnected = 0
        for i, graph in enumerate(random_graphs(240, seed=2024)):
            r = 1 + i % 3
            got = outcome(lambda *a: whole(small_graph_report(*a)), graph, r)
            want = outcome(lambda *a: whole(oracles.small_graph_report(*a)), graph, r)
            assert got == want, graph.name
            assert outcome(small_graph_is_distance_regular, graph) == (
                outcome(oracles.small_graph_is_distance_regular, graph)
            ), graph.name
            disconnected += got == f"ValueError: graph {graph.name} is disconnected"
        assert 20 <= disconnected <= 220
