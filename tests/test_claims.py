"""The claim suites and the conjecture probe read each overlap profile from
the engine's memo, so each (family, degree, radius, distance) is scanned
once per process however many claims quote it."""

from collections import Counter

import pytest

from permrec import cayley, claims


@pytest.fixture
def scans(monkeypatch):
    """The (kind, n, r, s) of every per-distance scan, from a cleared memo."""
    seen = Counter()
    scan = cayley.max_ball_intersection_at

    def counted(gen, r, s, workers=1):
        seen[gen.kind, gen.n, r, s] += 1
        return scan(gen, r, s, workers)

    monkeypatch.setattr(cayley, "max_ball_intersection_at", counted)
    # a copy imported beside the memo would scan uncounted, so it is counted too
    monkeypatch.setattr(claims, "max_ball_intersection_at", counted, raising=False)
    cayley.clear_ball_memo()
    yield seen
    cayley.clear_ball_memo()


def test_suites_scan_each_profile_once(scans):
    rows = claims.run_suites(["all"], claims.SuiteConfig(max_n=6))
    assert rows and all(row.verdict != "fail" for row in rows)
    assert len(scans) == 66
    assert set(scans.values()) == {1}


def test_probe_scans_each_profile_once(scans):
    doc = claims.conjecture_probe(7, 2)
    assert doc["distance2_value_at_two_errors"] == doc["distance2_value_at_r_errors"]
    assert sorted(scans) == [("T", 7, 2, s) for s in range(1, 5)]
    assert set(scans.values()) == {1}
