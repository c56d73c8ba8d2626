"""Readout-time sensitivity: derivatives of the fidelity at the transfer
time from spectral moments, an independent finite-difference oracle, and the
sharp second-derivative bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicableError, NumericFailureError
from .spectral import Projection, fidelity, normalized_fidelity, walk
from .states import _check_pair_weights, _pair_weights, _support
from .tolerances import BOUND_SLACK, DEFAULT_TOLERANCES, NEAR_ZERO, STENCIL_STEP, ToleranceConfig
from .transfer import _verify


@dataclass(eq=False)
class SensitivityReport:
    tau: float
    derivatives: dict[int, float]   # k -> d^k f/dt^k at tau (moment formula)
    d2: float
    bound_lo: float                 # -(lam_max - lam_min)^2 / 2 over the support
    bound_ok: bool
    near_zero: bool                 # d2 / scale^2 in (-NEAR_ZERO, 0): indistinguishable from fixed
    odd_max_abs: float              # largest |odd-order derivative| seen numerically


def fidelity_derivatives(
    dec, x, y, tau: float, k_max: int = 4, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> SensitivityReport:
    """Derivatives of f(t) = |y^T U(t) x|^2 at a verified transfer time.

    Odd orders vanish; even order k equals an alternating binomial sum of
    moment products with sign +1 for k = 0 mod 4 and -1 for k = 2 mod 4. It
    is summed on y's moments, in units of scale**k, and rescaled once (an
    order beyond the float range reads +-inf or 0); bound_ok and near_zero
    compare in those units. Refuses a pair that breaks the pair rule on the
    Parseval norms check_strong_cospectrality reads (InvalidPairError:
    unequal norms, or y = +-x) and inputs that do not transfer at tau;
    NumericFailureError when d2 or its bound leaves the float range.
    """
    proj = Projection.of(dec, x, y)
    x, y = proj.states.T
    weights = _pair_weights(proj)
    _check_pair_weights(weights)
    if not _verify(proj, tau, cfg).passed:
        raise NotApplicableError("the moment formula is valid only at a transfer time")
    kk = max(k_max, 2)
    w = weights[:, 3:]  # ||E_j y||^2, whose sums against (lambda_j / scale)^k are the moments
    moments = np.vander(dec.eigenvalues / (dec.scale or 1.0), kk + 1, increasing=True).T @ (w[:, 0] / np.dot(y, y))
    unit = {k: 0.0 for k in range(1, kk + 1)}  # d^k f/dt^k / scale**k
    for k in range(2, kk + 1, 2):
        terms = [(-1.0) ** j * math.comb(k, j) * moments[j] * moments[k - j] for j in range(k + 1)]
        unit[k] = (-1.0) ** (k // 2) * sum(terms)
    sup = dec.eigenvalues[_support(w, cfg)[:, 0]]
    gap = float(sup[0] - sup[-1]) / (dec.scale or 1.0)
    bound_unit = -0.5 * gap * gap
    # value * scale**k in Python floats, left to right: +-inf or 0 out of range
    derivs = {k: math.prod([float(v)] + [dec.scale] * k) for k, v in unit.items()}
    d2, bound_lo = derivs[2], math.prod([bound_unit, dec.scale, dec.scale])
    if not (math.isfinite(d2) and math.isfinite(bound_lo)) or (d2 == 0.0) != (unit[2] == 0.0):
        raise NumericFailureError(f"f''(tau) leaves the float range at matrix scale {dec.scale:.3g}")
    # numeric corroboration of vanishing odd orders; limited to k <= 3 where
    # the stencil's roundoff still resolves zero. Both orders read one sampling.
    samples = normalized_fidelity(walk(dec, tau + STENCIL * STENCIL_STEP, proj.overlaps()), x, y)
    odd = max(abs(float(_stencil_weights(k, STENCIL_STEP) @ samples)) for k in range(1, min(kk, 3) + 1, 2))
    return SensitivityReport(
        tau=tau,
        derivatives=derivs,
        d2=d2,
        bound_lo=bound_lo,
        bound_ok=bound_unit - BOUND_SLACK <= unit[2] < 0.0,
        near_zero=-NEAR_ZERO < unit[2] < 0.0,
        odd_max_abs=odd,
    )


STENCIL = np.arange(-4, 5, dtype=float)  # offsets of the 9-point central stencil, in units of h


def _stencil_weights(k: int, h: float) -> np.ndarray:
    """Weights of the order-k derivative on the samples at tau + STENCIL * h,
    solved from the local Vandermonde system."""
    vander = np.vander(STENCIL, 9, increasing=True).T  # row p: offsets**p
    return np.linalg.solve(vander, math.factorial(k) * np.eye(9)[k]) / h**k


def finite_difference_oracle(dec, x, y, tau: float, k: int, h: float) -> float:
    """Order-k derivative of the fidelity at tau from a 9-point central
    stencil (_stencil_weights), its samples from one fidelity call on the
    stencil's times."""
    if h <= 0:
        raise ValueError("h must be positive")
    if not 1 <= k <= 8:
        raise ValueError("stencil supports derivative orders 1..8")
    return float(_stencil_weights(k, h) @ fidelity(dec, tau + STENCIL * h, x, y))
