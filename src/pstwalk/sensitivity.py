"""Readout-time sensitivity: derivatives of the fidelity at the transfer
time from spectral moments, an independent finite-difference oracle, and the
sharp second-derivative bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicableError
from .graphs import hamiltonian
from .spectral import DEFAULT_TOLERANCES, ToleranceConfig, as_state, decompose, fidelity
from .states import support
from .transfer import extremal_min_pst_search, verify_pst_numeric


@dataclass(eq=False)
class SensitivityReport:
    tau: float
    derivatives: dict[int, float]   # k -> d^k f/dt^k at tau (moment formula)
    d2: float
    bound_lo: float                 # -(lam_max - lam_min)^2 / 2 over the support
    bound_ok: bool
    near_zero: bool                 # d2 in (-1e-10, 0): indistinguishable from fixed
    odd_max_abs: float              # largest |odd-order derivative| seen numerically


def _moments(dec, y_unit: np.ndarray, k_max: int) -> np.ndarray:
    weights = dec.norms(y_unit) ** 2
    return np.array([float(dec.eigenvalues**k @ weights) for k in range(k_max + 1)])


def fidelity_derivatives(
    dec,
    x,
    y,
    tau: float,
    k_max: int = 4,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SensitivityReport:
    """Derivatives of f(t) = |y^T U(t) x|^2 at a verified transfer time.

    Odd orders vanish; even order k equals an alternating binomial sum of
    moment products with sign +1 for k = 0 mod 4 and -1 for k = 2 mod 4. The
    moments are computed spectrally (never by repeated matrix powers), with
    both states unit-normalized. Refuses inputs that do not transfer at tau.
    """
    x = as_state(x, dec.n)
    y = as_state(y, dec.n)
    if not verify_pst_numeric(dec, x, y, tau, cfg).passed:
        raise NotApplicableError("the moment formula is valid only at a transfer time")
    y_unit = y / np.linalg.norm(y)
    kk = max(k_max, 2)
    moments = _moments(dec, y_unit, kk)
    derivs: dict[int, float] = {}
    for k in range(1, kk + 1):
        if k % 2 == 1:
            derivs[k] = 0.0
            continue
        sign = -1.0 if k % 4 == 2 else 1.0
        total = 0.0
        for j in range(k + 1):
            total += (-1.0) ** j * math.comb(k, j) * moments[j] * moments[k - j]
        derivs[k] = sign * total
    d2 = derivs[2]

    prof = support(dec, y_unit, cfg)
    lam_max = float(prof.eigenvalues[0])
    lam_min = float(prof.eigenvalues[-1])
    bound_lo = -0.5 * (lam_max - lam_min) ** 2
    near_zero = -1e-10 < d2 < 0.0
    bound_ok = (d2 >= bound_lo - 1e-6) and d2 < 0.0
    # numeric corroboration of vanishing odd orders; limited to k <= 3 where
    # the stencil's roundoff still resolves zero
    odd = [
        abs(finite_difference_oracle(dec, x, y, tau, k, 1e-3))
        for k in range(1, min(kk, 3) + 1, 2)
    ]
    return SensitivityReport(
        tau=tau,
        derivatives=derivs,
        d2=d2,
        bound_lo=bound_lo,
        bound_ok=bound_ok,
        near_zero=near_zero,
        odd_max_abs=max(odd) if odd else 0.0,
    )


def finite_difference_oracle(dec, x, y, tau: float, k: int, h: float) -> float:
    """Order-k derivative of the fidelity at tau from a 9-point central
    stencil (weights solved from the local Vandermonde system)."""
    if h <= 0:
        raise ValueError("h must be positive")
    if not 1 <= k <= 8:
        raise ValueError("stencil supports derivative orders 1..8")
    x = as_state(x, dec.n)
    y = as_state(y, dec.n)
    offsets = np.arange(-4, 5, dtype=float)
    vander = np.vander(offsets, 9, increasing=True).T  # row p: offsets**p
    rhs = np.zeros(9)
    rhs[k] = math.factorial(k)
    weights = np.linalg.solve(vander, rhs) / h**k
    samples = np.array([fidelity(dec, tau + o * h, x, y) for o in offsets])
    return float(weights @ samples)


@dataclass(eq=False)
class ExtremalSensitivity:
    kind: str
    n: int
    tau: float
    d2: float
    bound_lo: float
    attained: bool
    report: SensitivityReport


def sensitivity_extremal(
    n: int, kind: str, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ExtremalSensitivity:
    """Graph and unit pair with the most readout-sensitive transfer among
    n-vertex graphs: the extremal-time pair, whose second derivative attains
    -(lam_max - lam_min)^2 / 2 exactly (-n^2/2 for the Laplacian walk)."""
    rep = extremal_min_pst_search(n, kind, cfg)
    dec = decompose(hamiltonian(rep.graph, kind), cfg)
    x = rep.x / np.linalg.norm(rep.x)
    y = rep.y / np.linalg.norm(rep.y)
    sr = fidelity_derivatives(dec, x, y, rep.tau, 2, cfg)
    return ExtremalSensitivity(
        kind=kind,
        n=n,
        tau=rep.tau,
        d2=sr.d2,
        bound_lo=sr.bound_lo,
        attained=abs(sr.d2 - sr.bound_lo) <= 1e-8 * max(1.0, abs(sr.bound_lo)),
        report=sr,
    )
