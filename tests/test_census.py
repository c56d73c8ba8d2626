"""The theorem census (census.py) for n <= 5 against its committed digest:
paper results (i) and (ii) on every connected graph, both kinds, every pair
and plus state, and the extremal spread against the exhaustive oracle. n = 6
runs as its own CI step from the same code."""

import pytest

import census


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_matches_digest(n):
    digest, violations = census.census(n)
    assert violations == []
    assert digest == census.recorded(n)


def test_digest_covers_six():
    row = census.recorded(6)
    assert [row[kind]["graphs"] for kind in census.KINDS] == [787, 787]
    assert [row[kind]["states"] for kind in census.KINDS] == [23610, 23610]


def test_extremal_mismatch_is_a_violation(monkeypatch):
    real = census.pw.extremal_min_pst_search

    def shifted(n, kind, **kw):
        report = real(n, kind, **kw)
        report.oracle["max_spread"] += 1e-6
        return report

    monkeypatch.setattr(census.pw, "extremal_min_pst_search", shifted)
    _, violations = census.census(3)
    assert [v.split(":")[0] for v in violations] == ["(extremal) n=3 adjacency", "(extremal) n=3 laplacian"]
