"""Reference constructions the tests compare the engine against, built on
the dense V and projectors of a SpectralDecomposition, decompose with its
route table cut down (eigh alone, the reference every route is checked
against), scipy's expm (of a walk, a join's among them), the three-pass ratio condition the one-pass rule
replaced, and the argsort form of the catalog's pair-shape test."""

import math

import numpy as np
import pytest
import scipy.linalg

import pstwalk as pw
from pstwalk import routes, spectral
from pstwalk.arith import reconstruct_fraction
from pstwalk.periodicity import MAX_LCM, PHASE_ALIGNMENT, NonPeriodic, RatioTable, _validate_support
from pstwalk.spectral import Projection, _eigh_route
from pstwalk.tolerances import SHAPE_UNIT, SHAPE_ZERO


def projector(dec, j):
    """The dense (n, n) projector E_j = V_j V_j^T, made exactly symmetric."""
    v = dec.basis.dense()[:, dec.offsets[j]:dec.offsets[j + 1]]
    e = v @ v.T
    return (e + e.T) / 2.0


def eigh_decompose(m):
    """decompose(m) by np.linalg.eigh alone: ROUTES cut to spectral's own
    eigh, whatever a test has planted in its place."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routes, "ROUTES", (_eigh_route,))
        patch.setattr(spectral, "_eigh_route", _eigh_route)
        return pw.decompose(m)


def expm_walk(mat, t):
    """The walk operator exp(i t M) from scipy's expm of the dense M."""
    return scipy.linalg.expm(1j * t * np.asarray(mat))


def join_walk(g, h, kind, t):
    """expm_walk of the join of g and h: the reference join_transition_matrix
    is checked against."""
    return expm_walk(pw.hamiltonian(pw.join(g, h), kind).matrix, t)


def expm_transfer(mat, x, y, tau):
    """|y^T exp(i tau M) x| / (||x|| ||y||) from scipy's expm of the dense M."""
    u = expm_walk(mat, tau)
    return abs(y @ (u @ x)) / (np.linalg.norm(x) * np.linalg.norm(y))


def reconstruct(dec):
    """M as V diag(lambda) V^T."""
    v = dec.basis.dense()
    return (v * np.repeat(dec.eigenvalues, dec.multiplicities)) @ v.T


def eigenvector(dec, j):
    """The unit eigenvector universal_pst_pair takes for cluster j, from the
    dense V: the column of E_j with the largest diagonal entry, normalised."""
    v = dec.basis.dense()[:, dec.offsets[j]:dec.offsets[j + 1]]
    col = int(np.argmax(np.einsum("ij,ij->i", v, v)))  # diag(E_j)
    vec = v @ v[col]
    return vec / np.linalg.norm(vec)


def moments(dec, X, k_max):
    """x^T M^k x / x^T x in units of scale**k (1 for the zero matrix) for
    k = 0..k_max and each column x of X, (k_max + 1, b): sums of
    (lambda_j / scale)^k ||E_j x||^2 / ||x||^2 over a Projection's weights."""
    proj = Projection(dec, X)
    w = proj.weights() / np.einsum("ij,ij->j", proj.states, proj.states)
    return np.vander(dec.eigenvalues / (dec.scale or 1.0), k_max + 1, increasing=True).T @ w


def components(dec, x, rows):
    """E_j x for each cluster j in rows, as the rows of an (m, n) array, from
    the dense projectors E_j."""
    return np.array([projector(dec, j) @ x for j in rows]).reshape(len(rows), dec.n)


def all_partners(dec, x):
    """Every state strongly cospectral with x: x with the components of one
    proper subset of its support negated, the largest support eigenvalue
    never among them; an empty list for a fixed state."""
    x = np.asarray(x, dtype=float)
    comps = components(dec, x, pw.support(dec, x).indices)
    m = len(comps)
    flips = (np.arange(1, 2 ** (m - 1))[:, None] >> np.arange(m - 1)) & 1
    return list(x - 2.0 * flips @ comps[1:])


def involution(dec, cert):
    """I - 2 * (sum of the minus projectors of a cospectrality certificate):
    orthogonal, squares to I, maps x to y and is the identity off the support."""
    minus = [cert.profile.indices[pos] for pos in cert.minus_positions]
    return np.eye(dec.n) - 2.0 * sum(projector(dec, j) for j in minus)


def three_pass_ratio_condition(supp, cfg=pw.DEFAULT_TOLERANCES):
    """The ratio condition checked a whole pass at a time: every residual
    within int_tol, then the running lcm below MAX_LCM, then every phase
    aligned at the final lcm (2*pi*lcm*err <= PHASE_ALIGNMENT)."""
    vals = _validate_support(supp)
    gap = vals[0] - vals[1]
    if len(vals) == 2:
        return RatioTable(vals[0], vals[1], (), (), ())
    ps, qs, res = [], [], []
    for j in range(2, len(vals)):
        ratio = (vals[0] - vals[j]) / gap
        p, q, err = reconstruct_fraction(ratio, cfg.q_max)
        if err > cfg.int_tol:
            return NonPeriodic(offending_index=j, ratio=ratio, residual=err)
        ps.append(p)
        qs.append(q)
        res.append(err)
    lcm = 1
    for j, (q, err) in enumerate(zip(qs, res), start=2):
        lcm = math.lcm(lcm, q)
        if lcm >= MAX_LCM:
            return NonPeriodic(offending_index=j, ratio=(vals[0] - vals[j]) / gap, residual=err)
    for j, err in enumerate(res, start=2):
        if 2.0 * math.pi * lcm * err > PHASE_ALIGNMENT:
            return NonPeriodic(offending_index=j, ratio=(vals[0] - vals[j]) / gap, residual=err)
    return RatioTable(vals[0], vals[1], tuple(ps), tuple(qs), tuple(res))


def argsort_pair_shapes(Y):
    """families._pair_shapes read off a descending argsort of each column's
    magnitudes: the two largest within SHAPE_UNIT of one and, for three rows
    or more, the third largest within SHAPE_ZERO of zero."""
    mag = np.abs(Y)
    order = np.argsort(-mag, axis=0)[:3]
    cols = np.arange(Y.shape[1])
    ok = np.all(np.abs(mag[order[:2], cols] - 1.0) <= SHAPE_UNIT, axis=0)
    if Y.shape[0] > 2:
        ok &= mag[order[2], cols] <= SHAPE_ZERO
    cols = cols[ok]
    a, b = np.sort(order[:2, ok], axis=0)
    s = np.where((Y[a, cols] > 0) == (Y[b, cols] > 0), 1, -1)
    return cols, s, a, b
