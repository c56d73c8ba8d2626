"""verify_pst_numeric works in coefficient space: its residual is
||P c_x - gamma c_y|| (P the walk's phases repeated over each cluster's
columns), which V's orthogonality makes ||U(tau) x - gamma y||. Checked
against the state-space residual from evolve, and its fidelity against
scipy's expm, on dense bases (P7; C8 with its multiplicity-2 clusters; a
seeded weighted random graph on 40 vertices) and factored ones (Q8, P300),
for both kinds, at transfer times and at a time that is not one."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk.routes import KroneckerBasis
from pstwalk.spectral import DenseBasis
from conftest import pair_state, random_connected_graph
from oracles import expm_transfer


def _weighted_random(seed=40, n=40):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=30)
    return pw.make_graph(n, [(u, v, float(rng.uniform(0.5, 2.0))) for u, v, _ in g.edges])


GRAPHS = {
    "P7": lambda: pw.build_path(7),
    "C8": lambda: pw.build_cycle(8),
    "R40": _weighted_random,
    "Q8": lambda: pw.build_hypercube(8),
    "P300": lambda: pw.build_path(300),
}


def _pairs(dec):
    """(x, y, tau) at transfer times: the universal pair, and up to three
    pair or plus states e_0 -+ e_v with a pst_partners partner."""
    u, v, tau = pw.universal_pst_pair(dec)
    out = [(u, v, tau)]
    X = np.column_stack([pair_state(dec.n, 0, w, s) for w in range(1, min(dec.n, 9)) for s in (-1.0, 1.0)])
    partners, found, _, taus = pw.pst_partners(dec, X)
    out += [(X[:, c], partners[:, c], float(taus[c])) for c in np.flatnonzero(found)[:3]]
    return out


@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_coefficient_residual_is_the_state_residual(name, kind):
    ham = pw.hamiltonian(GRAPHS[name](), kind)
    dec = pw.decompose(ham)
    if name in ("C8", "P7", "R40"):
        assert isinstance(dec.basis, DenseBasis)
    if name == "C8":
        assert max(dec.multiplicities) == 2
    if name == "Q8":
        assert isinstance(dec.basis, KroneckerBasis)
    for x, y, tau in _pairs(dec):
        for t, transfers in ((tau, True), (0.37 * tau, False)):
            check = pw.verify_pst_numeric(dec, x, y, t)
            nx = np.linalg.norm(x)
            state = np.linalg.norm(pw.evolve(dec, t, x) - check.phase * y)
            assert abs(check.residual - state) <= 1e-13 * nx
            assert abs(check.fidelity - expm_transfer(ham.matrix, x, y, t) ** 2) <= 1e-12
            assert check.passed is transfers
            if not transfers:
                assert check.residual > 0.1 * nx
