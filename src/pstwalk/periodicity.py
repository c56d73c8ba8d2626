"""Periodicity of states: the ratio condition with exact rational
reconstruction, and the minimum period and the spectral form (integer vs
quadratic) read from its table."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import reconstruct_fraction, squarefree_split
from .errors import InvalidStateError, NumericFailureError
from .tolerances import DEFAULT_TOLERANCES, PHASE_ALIGNMENT, ToleranceConfig

# A period's denominator lcm must stay below this bound: ratio_condition reports
# a support whose running lcm reaches it as NonPeriodic, and RatioTable.period
# refuses such a table.
MAX_LCM = 2**63

# classify_form gives no form for a step u = (lam_1 - lam_2)/lcm at or above
# this bound: there u**2 >= 2**52, and every such double rounds to an integer.
MAX_FORM_STEP = 2.0**26

INTEGER = "integer"
QUADRATIC = "quadratic"
NONPERIODIC = "nonperiodic"


@dataclass(frozen=True)
class RatioTable:
    """Reduced fractions p_j/q_j ~ (lam_1 - lam_j)/(lam_1 - lam_2), j = 3..m."""

    lambda1: float
    lambda2: float
    p: tuple[int, ...]
    q: tuple[int, ...]
    residuals: tuple[float, ...]

    @property
    def lcm(self) -> int:
        return math.lcm(*self.q) if self.q else 1

    @property
    def period(self) -> float:
        """The minimum period 2*pi*lcm(q_j)/(lam_1 - lam_2); 2*pi/(lam_1 - lam_2)
        for two eigenvalues. Raises NumericFailureError when that quotient is
        not finite (a gap so small, e.g. subnormal, that it overflows)."""
        q = self.lcm
        if q >= MAX_LCM:
            raise OverflowError(f"denominator lcm {q} exceeds 2**63")
        with np.errstate(over="ignore"):
            rho = 2.0 * math.pi * q / (self.lambda1 - self.lambda2)
        if not math.isfinite(rho):
            raise NumericFailureError(
                f"minimum period overflows: eigenvalue gap {self.lambda1 - self.lambda2:.3g} is too small")
        return rho

    @property
    def r(self) -> tuple[int, ...]:
        """The integers r_j = lcm * p_j / q_j of every support position, where
        positions 0 and 1 carry the implicit ratios 0/1 and 1/1, so that
        lam_j = lam_1 - r_j * (lam_1 - lam_2) / lcm. They have gcd 1."""
        q = self.lcm
        return (0, q) + tuple(q // qj * p for p, qj in zip(self.p, self.q))

    @property
    def flips(self) -> tuple[int, ...]:
        """Support positions whose components change sign at half the
        minimum period: those with odd r_j, since the relative phase of
        position j there is (-1)**r_j."""
        return tuple(pos for pos, rj in enumerate(self.r) if rj % 2)


@dataclass(frozen=True)
class NonPeriodic:
    """Negative verdict: no denominator-bounded rational fits the ratio."""

    offending_index: int   # position within the (descending) support, 0-based
    ratio: float
    residual: float


@dataclass(frozen=True)
class SpectralForm:
    """Shape of a support: integer spectrum or half-integers a + b_j*sqrt(d)
    over two, with the gcd g used by the closed-form minimum period."""

    variant: str                      # integer | quadratic | nonperiodic
    a: int | None = None
    b: tuple[int, ...] | None = None
    delta: int | None = None          # 1 for integer spectra
    g: int | None = None


def _validate_support(supp) -> np.ndarray:
    vals = np.asarray(supp, dtype=float)
    if vals.ndim != 1 or len(vals) < 2:
        raise InvalidStateError("support needs at least two eigenvalues")
    # a comparison, not a difference: NaN fails it, and inf - inf never warns
    if not (vals[:-1] > vals[1:]).all():
        raise InvalidStateError("support eigenvalues must be strictly decreasing")
    if not (math.isfinite(vals[0]) and math.isfinite(vals[-1])):   # so are those between
        raise InvalidStateError("support eigenvalues must be finite")
    return vals


def ratio_condition(supp, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RatioTable | NonPeriodic:
    """Reconstruct each (lam_1 - lam_j)/(lam_1 - lam_2) as a reduced fraction.

    Two-element supports are trivially periodic (empty table). A fraction is
    accepted when the implied common period aligns all phases,
    2 pi lcm max_j|residual_j| <= PHASE_ALIGNMENT, and the lcm of the
    denominators must stay below 2**63, the bound RatioTable.period
    enforces. One pass over the support: after each fraction the running
    lcm and the running worst residual are checked, and the first position
    at which either test fails yields NonPeriodic. The final lcm is a
    multiple of every running lcm, so a misalignment seen early persists and
    the decision is that of checking the whole table; offending_index is the
    first position at which the support is known to be nonperiodic. It reads
    no int_tol: a residual above PHASE_ALIGNMENT / (2 pi) ~ 1.6e-8 already
    fails the phase test at that position.
    """
    vals = _validate_support(supp)
    lams = vals.tolist()   # the same IEEE arithmetic on Python floats, with no numpy scalars
    gap = lams[0] - lams[1]
    ps, qs, res = [], [], []
    lcm, worst = 1, 0.0
    for j in range(2, len(lams)):
        ratio = (lams[0] - lams[j]) / gap
        p, q, err = reconstruct_fraction(ratio, cfg.q_max)
        lcm, worst = math.lcm(lcm, q), max(worst, err)
        # phase misalignment at the running lcm, 2*pi*lcm*worst, never shrinks
        if lcm >= MAX_LCM or 2.0 * math.pi * lcm * worst > PHASE_ALIGNMENT:
            return NonPeriodic(offending_index=j, ratio=ratio, residual=err)
        ps.append(p)
        qs.append(q)
        res.append(err)
    return RatioTable(vals[0], vals[1], tuple(ps), tuple(qs), tuple(res))


def classify_form(
    table: RatioTable | NonPeriodic, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> SpectralForm | None:
    """Read the closed form of a support from its ratio table.

    A periodic support of an integer Hamiltonian is all integers or all
    quadratic integers (a + b_j*sqrt(delta))/2 with one square-free
    delta > 1 (Godsil, "Periodic graphs", EJC 18, 2011). With
    u = (lam_1 - lam_2)/lcm and the table's integers r_j = lcm*p_j/q_j
    (RatioTable.r), lam_j = lam_1 - u*r_j, so the form is integer
    when u and lam_1 are integers, and quadratic when u = g*sqrt(delta),
    the r_j pair up as r_j + r_{m-1-j} = r_last (conjugates) and
    a = 2*lam_1 - r_last*u is an integer; then b_j = g*(r_last - 2*r_j).
    Integrality is absolute, to int_tol. A NonPeriodic table gives the
    nonperiodic variant; a periodic table with neither form gives None.
    """
    if isinstance(table, NonPeriodic):
        return SpectralForm(variant=NONPERIODIC)
    u = (table.lambda1 - table.lambda2) / table.lcm
    if u >= MAX_FORM_STEP:
        return None
    nsq = round(u * u)
    if nsq == 0 or abs(u - math.sqrt(nsq)) > cfg.int_tol:
        return None
    g, delta = squarefree_split(nsq)
    r = table.r
    if delta == 1:
        lam1 = round(table.lambda1)
        if abs(table.lambda1 - lam1) > cfg.int_tol:
            return None
        return SpectralForm(INTEGER, a=0, b=tuple(2 * (lam1 - g * rj) for rj in r), delta=1, g=g)
    last = r[-1]
    twice_center = 2.0 * table.lambda1 - last * u
    a = round(twice_center)
    if abs(twice_center - a) > cfg.int_tol or any(rj + rk != last for rj, rk in zip(r, reversed(r))):
        return None
    return SpectralForm(QUADRATIC, a=a, b=tuple(g * (last - 2 * rj) for rj in r), delta=delta, g=g)
