"""transition_matrix from outside its largest cluster: with p_j =
exp(i t lambda_j) and * the cluster of largest multiplicity,
U = p_* I + V_R diag(p_j - p_*) V_R^T, V_R the n - m_* columns of V outside *.
It must agree with scipy's expm and with the full sum over all of V, stay
unitary, read no dense() of any basis, and lift the identity on exactly the
n - m_* columns outside *."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk.routes import FourierBasis, JoinBasis, KroneckerBasis, PathBasis
from pstwalk.spectral import DenseBasis, walk
from oracles import expm_walk
from conftest import random_connected_graph, random_tree

CLASSES = (DenseBasis, FourierBasis, PathBasis, KroneckerBasis, JoinBasis)


def _full(dec, t):
    """The walk operator as the sum over every column of V: V diag(p) V^T."""
    phases = np.repeat(walk(dec, t), dec.multiplicities)
    v = dec.basis.dense()
    return (v * phases.real) @ v.T + 1j * ((v * phases.imag) @ v.T)


def _distinct_graph():
    """A seeded random weighted graph on 40 vertices whose clusters are all
    single eigenvalues."""
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 40, 30)
    return pw.make_graph(g.n, [(u, v, float(w)) for (u, v, _), w in zip(g.edges, rng.uniform(0.5, 2.0, len(g.edges)))])


CASES = {
    "K70": pw.build_complete(70),
    "K8": pw.build_complete(8),
    "K30vK50": pw.join(pw.build_complete(30), pw.build_complete(50)),
    "K5vK9": pw.join(pw.build_complete(5), pw.build_complete(9)),
    "C20vK50": pw.join(pw.build_cycle(20), pw.build_complete(50)),
    "K40,60": pw.build_complete_bipartite(40, 60),
    "Q7": pw.build_hypercube(7),
    "P70": pw.build_path(70),
    "tree80": random_tree(np.random.default_rng(3), 80),
    "distinct": _distinct_graph(),
}


@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
@pytest.mark.parametrize("name", list(CASES))
def test_walk_operator_matches_expm_and_the_full_sum(name, kind, monkeypatch):
    ham = pw.hamiltonian(CASES[name], kind)
    dec = pw.decompose(ham)
    if name == "distinct":
        assert max(dec.multiplicities) == 1
    big = int(np.argmax(dec.multiplicities))
    rest = dec.n - dec.multiplicities[big]
    lifts, depth = [], [0]

    def refuse(self):
        raise AssertionError("dense() called")

    with monkeypatch.context() as m:
        for cls in CLASSES:
            m.setattr(cls, "dense", refuse)
            real = cls.lift

            def lift(self, c, *args, real=real):
                if not depth[0]:
                    lifts.append(c.shape)
                depth[0] += 1
                try:
                    return real(self, c, *args)
                finally:
                    depth[0] -= 1

            m.setattr(cls, "lift", lift)
        ops = {t: pw.transition_matrix(dec, t) for t in (0.37, 2.9)}
    # a dense V gives its own columns; every other basis lifts I_r once
    assert lifts == ([] if isinstance(dec.basis, DenseBasis) else [(rest, rest)] * 2)
    for t, u in ops.items():
        assert u.shape == (dec.n, dec.n) and u.dtype == complex
        assert np.max(np.abs(u - expm_walk(ham.matrix, t))) <= 1e-12 * max(1.0, t * dec.scale)
        assert np.max(np.abs(u - _full(dec, t))) <= 1e-13
        assert np.max(np.abs(u @ u.conj().T - np.eye(dec.n))) <= 1e-12
        assert np.max(np.abs(u - u.T)) <= 1e-13


@pytest.mark.parametrize("n", [5, 70])
def test_shifted_identity_is_one_phase(n):
    """For M = cI there is one cluster, V_R is empty and U is exp(i t c) I
    exactly."""
    dec = pw.decompose(2.5 * np.eye(n))
    assert dec.k == 1 and dec.eigenvalues[0] == 2.5
    for t in (0.0, 0.37, 2.9, -11.0):
        u = pw.transition_matrix(dec, t)
        want = np.exp(1j * (t * 2.5))
        assert np.array_equal(u.diagonal(), np.full(n, want))
        assert not (u - np.diag(u.diagonal())).any()


def test_largest_cluster_of_a_join_is_left_out():
    """K_p v K_q as an adjacency is K_{p+q}: the cluster at -1 holds n - 1
    columns, so V_R is the one column at p + q - 1."""
    dec = pw.decompose(pw.hamiltonian(CASES["K30vK50"], pw.ADJACENCY))
    assert sorted(dec.multiplicities) == [1, 79]
    u = pw.transition_matrix(dec, 0.9)
    want = np.exp(-0.9j) * np.eye(80) + (np.exp(79 * 0.9j) - np.exp(-0.9j)) / 80.0
    assert np.max(np.abs(u - want)) <= 1e-13
