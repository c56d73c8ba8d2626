"""The theorem census (census.py) for n <= 5 against its committed digest:
paper results (i) and (ii) on every connected graph, both kinds, every pair
and plus state. n = 6 runs as its own CI step from the same code."""

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
