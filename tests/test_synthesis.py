import math

import numpy as np
import pytest

import pstwalk as pw
from conftest import basis_state, unit
from oracles import involution


def _random_request(rng, n):
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    y *= np.linalg.norm(x) / np.linalg.norm(y)
    # keep the pair clear of the degenerate rays
    while min(np.linalg.norm(x - y), np.linalg.norm(x + y)) < 0.2 * np.linalg.norm(x):
        y = rng.normal(size=n)
        y *= np.linalg.norm(x) / np.linalg.norm(y)
    m1 = int(rng.integers(1, n))
    m2 = int(rng.integers(1, n - m1 + 1))
    tau = float(rng.uniform(0.1, 10.0))
    return pw.SynthesisRequest(x=x, y=y, tau=tau, m1=m1, m2=m2)


def test_round_trip(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        req = _random_request(rng, n)
        m = pw.synthesize(req)
        assert np.max(np.abs(m - m.T)) <= 1e-12 * max(1.0, np.abs(m).max())
        dec = pw.decompose(m)
        assert dec.k == n  # all chosen eigenvalues distinct
        verdict = pw.pst_decide(dec, req.x, req.y)
        assert verdict.decision
        assert verdict.tau_min == pytest.approx(req.tau, rel=1e-9)
        assert len(verdict.sigma_plus) == req.m1
        assert len(verdict.sigma_minus) == req.m2
        assert pw.verify_pst_numeric(dec, req.x, req.y, req.tau).fidelity >= 1.0 - 1e-8


def test_two_point_case():
    x, y = basis_state(2, 0), basis_state(2, 1)
    m = pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=math.pi / 2, m1=1, m2=1))
    dec = pw.decompose(m)
    assert dec.eigenvalues[0] - dec.eigenvalues[-1] == pytest.approx(2.0, rel=1e-12)
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision and verdict.tau_min == pytest.approx(math.pi / 2, rel=1e-12)


def test_gap_scales_with_tau(rng):
    x = unit(rng.normal(size=5))
    y = rng.normal(size=5)
    y = unit(y - (y @ x) * x)  # orthogonal, same norm
    for m1, m2 in [(1, 1), (2, 2)]:
        m_full = pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=2.0, m1=m1, m2=m2))
        m_half = pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=1.0, m1=m1, m2=m2))
        def support_gap(mat):
            dec = pw.decompose(mat)
            prof = pw.support(dec, x)
            return float(prof.eigenvalues[0] - prof.eigenvalues[1])
        assert support_gap(m_half) == pytest.approx(2.0 * support_gap(m_full), rel=1e-9)


def test_invalid_requests():
    x, y = basis_state(4, 0), basis_state(4, 1)
    with pytest.raises(pw.SynthesisError):
        pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=1.0, m1=3, m2=2))
    with pytest.raises(pw.SynthesisError):
        pw.synthesize(pw.SynthesisRequest(x=x, y=x.copy(), tau=1.0, m1=1, m2=1))
    with pytest.raises(pw.InvalidPairError):
        pw.synthesize(pw.SynthesisRequest(x=x, y=2.0 * y, tau=1.0, m1=1, m2=1))
    with pytest.raises(pw.SynthesisError):
        pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=-1.0, m1=1, m2=1))


def test_involution_certificate(rng):
    # on a synthesized Hamiltonian
    x = unit(rng.normal(size=6))
    y = rng.normal(size=6)
    y = unit(y - (y @ x) * x)
    m = pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=1.5, m1=2, m2=3))
    dec = pw.decompose(m)
    q = involution(dec, pw.check_strong_cospectrality(dec, x, y))
    assert np.max(np.abs(q @ q - np.eye(6))) <= 1e-8
    assert np.linalg.norm(q @ x - y) <= 1e-8

    # on the complete-graph plus pair
    dec = pw.decompose(pw.hamiltonian(pw.build_complete(4), pw.ADJACENCY))
    x4, y4 = basis_state(4, 0, 2), basis_state(4, 1, 3)
    cert = pw.check_strong_cospectrality(dec, x4, y4)
    q4 = involution(dec, cert)
    assert np.max(np.abs(q4 @ q4 - np.eye(4))) <= 1e-10
    assert np.linalg.norm(q4 @ x4 - y4) <= 1e-10
    # trace counts the flipped dimensions
    flipped = sum(dec.multiplicities[cert.profile.indices[p]] for p in cert.minus_positions)
    assert np.trace(q4) == pytest.approx(4 - 2 * flipped, abs=1e-9)

    # a pair that is not strongly cospectral has no certificate
    refusal = pw.check_strong_cospectrality(dec, basis_state(4, 0), basis_state(4, 1))
    assert isinstance(refusal, pw.NotCospectral) and refusal.reason == "not-cospectral"


@pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -1.0])
def test_synthesis_refuses_a_time_that_is_not_positive_and_finite(tau):
    x, y = basis_state(3, 0), basis_state(3, 2)
    with pytest.raises(pw.SynthesisError, match="tau must be positive and finite"):
        pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=tau, m1=1, m2=1))
