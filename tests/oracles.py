"""Reference constructions the tests compare the engine against, built on
the components and projectors of a SpectralDecomposition."""

import numpy as np

import pstwalk as pw


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
