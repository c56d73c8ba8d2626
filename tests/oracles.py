"""Reference constructions the tests compare the engine against, built on
the components and projectors of a SpectralDecomposition, and the
three-pass ratio condition the one-pass rule replaced."""

import math

import numpy as np

import pstwalk as pw
from pstwalk.arith import reconstruct_fraction
from pstwalk.periodicity import MAX_LCM, PHASE_ALIGNMENT, NonPeriodic, RatioTable, _validate_support


def all_partners(dec, x):
    """Every state strongly cospectral with x: x with the components of one
    proper subset of its support negated, the largest support eigenvalue
    never among them; an empty list for a fixed state."""
    x = np.asarray(x, dtype=float)
    comps = dec.components(x, pw.support(dec, x).indices)
    m = len(comps)
    flips = (np.arange(1, 2 ** (m - 1))[:, None] >> np.arange(m - 1)) & 1
    return list(x - 2.0 * flips @ comps[1:])


def involution(dec, cert):
    """I - 2 * (sum of the minus projectors of a cospectrality certificate):
    orthogonal, squares to I, maps x to y and is the identity off the support."""
    minus = [cert.profile.indices[pos] for pos in cert.minus_positions]
    return np.eye(dec.n) - 2.0 * sum(dec.projector(j) for j in minus)


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
