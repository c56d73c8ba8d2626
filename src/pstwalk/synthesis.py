"""Synthesize a real symmetric Hamiltonian realizing transfer between two
given states at a prescribed time with prescribed sign-partition sizes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SynthesisError
from .graphs import check_dense
from .spectral import as_state
from .states import check_pair, coincident
from .tolerances import DEP_TOL


@dataclass(eq=False)
class SynthesisRequest:
    x: np.ndarray
    y: np.ndarray
    tau: float
    m1: int
    m2: int


def _complete_basis(seed: list[np.ndarray], n: int) -> np.ndarray:
    """Extend orthonormal seed vectors to an orthonormal basis by modified
    Gram-Schmidt over the standard basis, skipping near-dependent candidates."""
    basis = [v.copy() for v in seed]
    for k in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n)
        cand[k] = 1.0
        for _ in range(2):  # two MGS sweeps for orthogonality
            for b in basis:
                cand = cand - (b @ cand) * b
        nrm = np.linalg.norm(cand)
        if nrm > DEP_TOL:
            basis.append(cand / nrm)
    if len(basis) != n:
        raise SynthesisError("basis completion failed")
    return np.column_stack(basis)


def synthesize(req: SynthesisRequest) -> np.ndarray:
    """Dense symmetric matrix M with transfer from x to y at exactly tau and
    sign-partition sizes (m1, m2).

    Eigenvectors: an orthonormal basis W whose first m1 columns sum to the
    normalized x+y direction and next m2 columns to the x-y direction, so the
    pair is strongly cospectral with the prescribed partition. Eigenvalues:
    for m1+m2 = 2 a single gap pi/tau; otherwise theta_1 - theta_j =
    pi*b_j/(g*tau) with b_j even on the plus slots and odd on the minus
    slots, g their gcd. Off-support eigenvalues recede in steps of
    pi/(g*tau*sqrt(2)); the irrational step keeps them clear of the support
    lattice, and the pair cannot see them anyway.
    """
    x = as_state(req.x)
    y = as_state(req.y, len(req.x))
    n = check_dense(len(x))
    m1, m2 = int(req.m1), int(req.m2)
    tau = float(req.tau)
    if m1 < 1 or m2 < 1 or m1 + m2 > n:
        raise SynthesisError(f"invalid-request: need m1, m2 >= 1 and m1+m2 <= n, got ({m1}, {m2}, {n})")
    if not 0 < tau < math.inf:
        raise SynthesisError("invalid-request: tau must be positive and finite")
    if coincident(x, y):  # before check_pair, which would refuse it as InvalidPairError
        raise SynthesisError("degenerate-pair: y coincides with x or -x")
    check_pair(x, y)

    plus, minus = x + y, x - y
    v1 = plus / np.linalg.norm(plus)
    v2 = minus / np.linalg.norm(minus)
    vmat = _complete_basis([v1, v2], n)
    u1 = np.zeros(n)
    u1[:m1] = 1.0 / math.sqrt(m1)
    u2 = np.zeros(n)
    u2[m1 : m1 + m2] = 1.0 / math.sqrt(m2)
    umat = _complete_basis([u1, u2], n)
    w = vmat @ umat.T  # orthogonal, maps u_j to v_j; columns are eigenvectors

    thetas = np.empty(n)
    if m1 + m2 == 2:
        step = math.pi / tau
        thetas[0] = step / 2.0
        thetas[1] = -step / 2.0
        g = 1
    else:
        bs = [0] + [2 * j for j in range(1, m1)] + [2 * j - 1 for j in range(1, m2 + 1)]
        g = math.gcd(*bs[1:])
        for j, b in enumerate(bs):
            thetas[j] = -math.pi * b / (g * tau)
    floor = float(np.min(thetas[: m1 + m2]))
    off_step = math.pi / (g * tau * math.sqrt(2.0))
    for k in range(m1 + m2, n):
        thetas[k] = floor - (k - m1 - m2 + 1) * off_step
    if not np.isfinite(thetas).all():
        raise SynthesisError(f"invalid-request: tau {tau:.3g} is too small: pi/(g*tau) overflows")
    return (w * thetas) @ w.T
