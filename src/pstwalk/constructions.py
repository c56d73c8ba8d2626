"""Transfer-preserving constructions: box products of walks and joins,
and the join's walk operator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NotApplicableError
from .graphs import ADJACENCY, LAPLACIAN, Graph, cartesian_product, hamiltonian, is_connected, join
from .spectral import as_state, decompose, transition_matrix
from .states import coincident
from .tolerances import DEFAULT_TOLERANCES, MEAN_ZERO, PHASE_ALIGNMENT, ToleranceConfig
from .transfer import pst_decide, verify_pst_numeric


@dataclass(eq=False)
class ProductPstWitness:
    decision: bool            # factor-analysis decision
    product_passed: bool      # numeric check on the composite graph
    agree: bool
    tau: float
    mode: str                 # "pst-pst" | "pst-periodic"
    x: np.ndarray
    y: np.ndarray
    factor_residuals: tuple[float, float]


@dataclass(eq=False)
class JoinPstVerdict:
    decision: bool
    tau: float | None
    mode: str                 # "embedded" | "combined"
    modular_hit: tuple[float, float] | None
    join_passed: bool | None
    agree: bool | None
    reason: str | None
    x: np.ndarray | None = None
    y: np.ndarray | None = None


def product_pst(
    g: Graph,
    h: Graph,
    kind: str,
    x1,
    y1,
    x2,
    y2,
    tau: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProductPstWitness:
    """Decide transfer between x1 (x) x2 and y1 (x) y2 on the box product by
    factor analysis, cross-checked numerically on the product itself.

    Transfer happens at tau iff either both factors transfer at tau, or the
    second factor state is (up to sign) periodic at tau while the first
    transfers at tau.
    """
    ham_p = hamiltonian(cartesian_product(g, h), kind)  # refuses a product above DENSE_GUARD
    x1 = as_state(x1, g.n)
    y1 = as_state(y1, g.n)
    x2 = as_state(x2, h.n)
    y2 = as_state(y2, h.n)
    dec_g = decompose(hamiltonian(g, kind), cfg)
    dec_h = decompose(hamiltonian(h, kind), cfg)

    ver_g = verify_pst_numeric(dec_g, x1, y1, tau, cfg)
    if coincident(x2, y2):
        mode = "pst-periodic"
        ver_h = verify_pst_numeric(dec_h, x2, x2, tau, cfg)  # periodicity of x2 at tau
    else:
        mode = "pst-pst"
        ver_h = verify_pst_numeric(dec_h, x2, y2, tau, cfg)
    decision = bool(ver_g.passed and ver_h.passed)

    xp = np.kron(x1, x2)
    yp = np.kron(y1, y2)
    dec_p = decompose(ham_p, cfg)
    product_passed = bool(verify_pst_numeric(dec_p, xp, yp, tau, cfg).passed)
    return ProductPstWitness(
        decision=decision,
        product_passed=product_passed,
        agree=decision == product_passed,
        tau=tau,
        mode=mode,
        x=xp,
        y=yp,
        factor_residuals=(ver_g.residual, ver_h.residual),
    )


def join_transition_matrix(
    g: Graph,
    h: Graph,
    kind: str,
    t: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Walk operator of the join at time t: transition_matrix of the join's
    decomposition, which the join route of decompose assembles from the
    factors' spectra from ROUTE_MIN_N vertices on (eigh below it). For the
    adjacency walk both factors must be regular (NotApplicableError), as
    join_pst asks. A t at which some t * lambda is not finite raises
    NumericFailureError at the walk kernel's check_phase guard.
    """
    if kind not in (ADJACENCY, LAPLACIAN):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == ADJACENCY and not (g.is_regular() and h.is_regular()):
        raise NotApplicableError("adjacency join formula needs regular factors")
    return transition_matrix(decompose(hamiltonian(join(g, h), kind), cfg), t)


def _mod_2pi_distance(value: float) -> float:
    return abs((value + math.pi) % (2.0 * math.pi) - math.pi)


def join_pst(
    g: Graph,
    h: Graph,
    kind: str,
    x1,
    y1,
    x2=None,
    y2=None,
    tau: float | None = None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> JoinPstVerdict:
    """Transfer verdicts on the join for mean-zero factor states.

    Embedded mode (x2 omitted): [x1; 0] transfers to [y1; 0] in the join
    exactly when x1 transfers to y1 in the first factor, at the same time.
    Combined mode: both factors must transfer at the common tau and some
    plus-class eigenvalue pair (lam, theta) must satisfy
    tau*(lam - theta + delta*(|h| - |g|)) = 0 mod 2*pi to PHASE_ALIGNMENT, with
    delta = 1 for the Laplacian walk and 0 for the adjacency walk. Both modes
    are cross-checked numerically on the join.
    """
    x1 = as_state(x1, g.n)
    y1 = as_state(y1, g.n)
    combined = x2 is not None
    if combined:
        if tau is None:
            raise InvalidStateError("combined mode needs an explicit tau")
        if not (is_connected(g) and is_connected(h)):
            raise NotApplicableError("combined join analysis needs connected factors")
        x2 = as_state(x2, h.n)
        y2 = as_state(y2, h.n)
    for name, x in (("x1", x1), ("x2", x2))[:1 + combined]:
        if abs(float(x.sum())) > MEAN_ZERO * np.linalg.norm(x):
            raise NotApplicableError(f"{name} must be orthogonal to the all-ones vector")
    if kind == ADJACENCY and not (g.is_regular() and h.is_regular()):
        raise NotApplicableError("adjacency join analysis needs regular factors")
    dec_g = decompose(hamiltonian(g, kind), cfg)
    dec_join = decompose(hamiltonian(join(g, h), kind), cfg)

    if not combined:
        verdict_g = pst_decide(dec_g, x1, y1, cfg)
        t = tau if tau is not None else verdict_g.tau_min
        ex = np.concatenate([x1, np.zeros(h.n)])
        ey = np.concatenate([y1, np.zeros(h.n)])
        join_passed = None
        if verdict_g.decision and t is not None:
            join_passed = bool(verify_pst_numeric(dec_join, ex, ey, t, cfg).passed)
        return JoinPstVerdict(
            decision=bool(verdict_g.decision),
            tau=t,
            mode="embedded",
            modular_hit=None,
            join_passed=join_passed,
            agree=None if join_passed is None else join_passed == verdict_g.decision,
            reason=verdict_g.reason,
            x=ex,
            y=ey,
        )

    dec_h = decompose(hamiltonian(h, kind), cfg)
    verdict_g = pst_decide(dec_g, x1, y1, cfg)
    verdict_h = pst_decide(dec_h, x2, y2, cfg)
    factors_ok = (
        verdict_g.decision
        and verdict_h.decision
        and verify_pst_numeric(dec_g, x1, y1, tau, cfg).passed
        and verify_pst_numeric(dec_h, x2, y2, tau, cfg).passed
    )
    delta = 1.0 if kind == LAPLACIAN else 0.0
    shift = delta * (h.n - g.n)
    hit = None
    if factors_ok:
        for lam in verdict_g.sigma_plus:
            for theta in verdict_h.sigma_plus:
                if _mod_2pi_distance(tau * (float(lam) - float(theta) + shift)) <= PHASE_ALIGNMENT:
                    hit = (float(lam), float(theta))
                    break
            if hit:
                break
    decision = bool(factors_ok and hit is not None)
    ex = np.concatenate([x1, x2])
    ey = np.concatenate([y1, y2])
    join_passed = bool(verify_pst_numeric(dec_join, ex, ey, tau, cfg).passed)
    reason = None
    if not factors_ok:
        reason = "factor-transfer-failed"
    elif hit is None:
        reason = "modular-condition-failed"
    return JoinPstVerdict(
        decision=decision,
        tau=tau,
        mode="combined",
        modular_hit=hit,
        join_passed=join_passed,
        agree=decision == join_passed,
        reason=reason,
        x=ex,
        y=ey,
    )
