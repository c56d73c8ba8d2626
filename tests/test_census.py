"""The theorem census (census.py) for n <= 5 against its committed digest:
paper results (i) and (ii) on every connected graph, both kinds, every pair
and plus state, and the extremal spread against the exhaustive oracle. n = 6
runs as its own CI step from the same code."""

import numpy as np
import pytest

import census
import pstwalk as pw
from oracles import eigenvector


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_matches_digest(n):
    digest, violations = census.census(n)
    assert violations == []
    assert digest == census.recorded(n)


@pytest.mark.parametrize("kind", census.KINDS)
def test_universal_pair_is_the_dense_construction(kind):
    """On every census graph with n <= 5, universal_pst_pair's one lift of
    unit columns gives the pair of the dense V's extreme eigenvectors
    (oracles.eigenvector). Where both extreme clusters are one-dimensional
    each entry is one product of gathered entries, bit for bit; a wider
    block's product V_j V_j[col] may round differently in its last bit, as
    BLAS picks its kernel by the block's strides, which the gather changes."""
    for n in range(2, 6):
        for g in census.graphs(n):
            dec = pw.decompose(pw.hamiltonian(g, kind))
            u, v, _ = pw.universal_pst_pair(dec)
            top, bottom = eigenvector(dec, 0), eigenvector(dec, dec.k - 1)
            if dec.multiplicities[0] == dec.multiplicities[-1] == 1:
                assert u.tobytes() == (top + bottom).tobytes() and v.tobytes() == (top - bottom).tobytes()
            else:
                np.testing.assert_allclose(u, top + bottom, rtol=0, atol=4 * np.finfo(float).eps)
                np.testing.assert_allclose(v, top - bottom, rtol=0, atol=4 * np.finfo(float).eps)


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
