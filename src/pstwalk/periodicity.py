"""Periodicity of states: the ratio condition with exact rational
reconstruction and the minimum period read from its table, spectral-form
classification (integer vs quadratic), and the covering-radius bound report."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import reconstruct_fraction, squarefree_split
from .errors import InvalidStateError, NotApplicableError
from .graphs import LAPLACIAN, Hamiltonian, covering_radius
from .spectral import DEFAULT_TOLERANCES, ToleranceConfig, decompose
from .states import support

# A reconstructed period rho must align every support phase to within this
# bound on max_j |exp(i rho lam_j) - exp(i rho lam_1)|; it converts plausible
# continued-fraction fits of irrational ratios into NonPeriodic verdicts.
PHASE_ALIGNMENT = 1e-7

# A period's denominator lcm must stay below this bound: ratio_condition reports
# a support whose running lcm reaches it as NonPeriodic, and RatioTable.period
# refuses such a table.
MAX_LCM = 2**63

SIZE2 = "size2"
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
        for two eigenvalues."""
        q = self.lcm
        if q >= MAX_LCM:
            raise OverflowError(f"denominator lcm {q} exceeds 2**63")
        return 2.0 * math.pi * q / (self.lambda1 - self.lambda2)

    @property
    def flips(self) -> tuple[int, ...]:
        """Support positions whose components change sign at half the
        minimum period: those with odd r_j = lcm * p_j / q_j, where positions
        0 and 1 carry the implicit ratios 0/1 and 1/1. The r_j have gcd 1, so
        the relative phase of position j there is (-1)**r_j."""
        q = self.lcm
        ps = (0, 1) + self.p
        qs = (1, 1) + self.q
        return tuple(pos for pos, (p, qj) in enumerate(zip(ps, qs)) if (q // qj) * p % 2)


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

    variant: str                      # size2 | integer | quadratic | nonperiodic
    a: int | None = None
    b: tuple[int, ...] | None = None
    delta: int | None = None          # 1 for integer spectra
    g: int | None = None


def _validate_support(supp) -> np.ndarray:
    vals = np.asarray(supp, dtype=float)
    if vals.ndim != 1 or len(vals) < 2:
        raise InvalidStateError("support needs at least two eigenvalues")
    if np.any(np.diff(vals) >= 0):
        raise InvalidStateError("support eigenvalues must be strictly decreasing")
    return vals


def ratio_condition(supp, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RatioTable | NonPeriodic:
    """Reconstruct each (lam_1 - lam_j)/(lam_1 - lam_2) as a reduced fraction.

    Two-element supports are trivially periodic (empty table). A fraction is
    accepted when its residual is within int_tol and the implied common
    period aligns all phases (see PHASE_ALIGNMENT); any failure yields
    NonPeriodic with the offending support position. So does the position
    at which the running lcm of the denominators reaches 2**63, the bound
    RatioTable.period enforces.
    """
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
        # phase misalignment at the common period is 2*pi*lcm*err
        if 2.0 * math.pi * lcm * err > PHASE_ALIGNMENT:
            ratio = (vals[0] - vals[j]) / gap
            return NonPeriodic(offending_index=j, ratio=ratio, residual=err)
    return RatioTable(vals[0], vals[1], tuple(ps), tuple(qs), tuple(res))


def classify_form(supp, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SpectralForm:
    """Fit the support as integers or as (a + b_j*sqrt(delta))/2 with delta > 1
    square-free; NonPeriodic when neither closed form holds."""
    vals = _validate_support(supp)
    if len(vals) == 2:
        return SpectralForm(variant=SIZE2)

    rounded = np.round(vals)
    if np.max(np.abs(vals - rounded)) <= cfg.int_tol:
        ints = [int(v) for v in rounded]
        diffs = [ints[0] - v for v in ints[1:]]
        return SpectralForm(
            variant=INTEGER,
            a=0,
            b=tuple(2 * v for v in ints),
            delta=1,
            g=math.gcd(*diffs),
        )

    candidates: list[int] = []
    for i in range(len(vals)):
        for j in range(i, len(vals)):
            a = vals[i] + vals[j]
            if abs(a - round(a)) <= 2.0 * cfg.int_tol:
                a_int = int(round(a))
                if a_int not in candidates:
                    candidates.append(a_int)
    for a in candidates:
        form = _fit_quadratic(vals, a, cfg)
        if form is not None:
            return form
    return SpectralForm(variant=NONPERIODIC)


def _fit_quadratic(vals: np.ndarray, a: int, cfg: ToleranceConfig) -> SpectralForm | None:
    ts = 2.0 * vals - a
    squares = ts**2
    ns = np.round(squares)
    if np.max(np.abs(squares - ns)) > 100.0 * cfg.int_tol * max(1.0, float(np.abs(ts).max())):
        return None
    delta = None
    bs = []
    for t, nsq in zip(ts, ns):
        nsq = int(nsq)
        if nsq == 0:
            if abs(t) > cfg.int_tol:
                return None
            bs.append(0)
            continue
        s, d = squarefree_split(nsq)
        if s * s * d != nsq:
            return None
        if delta is None:
            delta = d
        elif d != delta:
            return None
        bs.append(int(math.copysign(s, t)))
    if delta is None or delta <= 1:
        return None
    root = math.sqrt(delta)
    if np.max(np.abs(vals - (a + np.array(bs) * root) / 2.0)) > cfg.int_tol:
        return None
    # closure under conjugation forces equal parity of the b_j
    diffs = [bs[0] - b for b in bs[1:]]
    if any(d % 2 for d in diffs):
        return None
    g = math.gcd(*(d // 2 for d in diffs))
    return SpectralForm(variant=QUADRATIC, a=a, b=tuple(bs), delta=delta, g=g)


def closed_form_period(form: SpectralForm) -> float | None:
    """2*pi/(g*sqrt(delta)) when the integer/quadratic fit applies."""
    if form.variant in (INTEGER, QUADRATIC) and form.g:
        return 2.0 * math.pi / (form.g * math.sqrt(form.delta))
    return None


def spectral_gap_check(supp, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """All pairwise support differences at least one (boundary counts).

    For conjugate-closed supports of size >= 3 this is a necessary condition
    for periodicity, so it serves as a fast pre-filter.
    """
    vals = _validate_support(supp)
    return bool(np.min(vals[:-1] - vals[1:]) >= 1.0 - cfg.int_tol)


def is_conjugate_closed(supp, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Whether the support admits an integer or quadratic closed form (in the
    latter case both members of each conjugate pair must be present)."""
    vals = _validate_support(supp)
    if len(vals) == 2:
        rounded = np.round(vals)
        if np.max(np.abs(vals - rounded)) <= cfg.int_tol:
            return True
        # conjugate pair (a +- b sqrt(d))/2: sum integer and difference^2 integer
        s = vals[0] + vals[1]
        dsq = (vals[0] - vals[1]) ** 2
        return abs(s - round(s)) <= 2 * cfg.int_tol and abs(dsq - round(dsq)) <= 1e-4
    return classify_form(vals, cfg).variant in (INTEGER, QUADRATIC)


@dataclass(frozen=True)
class CoveringRadiusReport:
    radius: float
    support_size: int
    max_row_sum: float
    bound: float | None       # None when the bound's hypotheses do not apply
    satisfied: bool | None
    periodic: bool
    conjugate_closed: bool


def covering_radius_bound_check(
    ham: Hamiltonian, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> CoveringRadiusReport:
    """Report the covering radius of x against its support-size bound.

    Requires the working matrix and x entrywise nonnegative; Laplacians are
    handled through k*I - L with k the maximum weighted degree, which has the
    same support structure and a nonnegative sign pattern.
    """
    x = np.asarray(x, dtype=float)
    if np.min(x) < 0:
        raise NotApplicableError("state must be entrywise nonnegative")
    if ham.kind == LAPLACIAN:
        k = float(np.max(np.diag(ham.matrix)))
        work = k * np.eye(ham.n) - ham.matrix
    else:
        work = ham.matrix
    if np.min(work) < -1e-12:
        raise NotApplicableError("matrix must be entrywise nonnegative")

    dec = decompose(work, cfg)
    prof = support(dec, x, cfg)
    r = covering_radius(ham.graph, x, cfg.tol_supp)
    row_sum = float(np.max(work.sum(axis=1)))

    table = ratio_condition(prof.eigenvalues, cfg) if prof.size >= 2 else None
    periodic = isinstance(table, RatioTable)
    closed = prof.size >= 2 and is_conjugate_closed(prof.eigenvalues, cfg)

    bound: float | None
    if prof.size == 2:
        bound = 1.0
    elif prof.size >= 3 and periodic and closed:
        bound = 2.0 * row_sum
    else:
        bound = None
    satisfied = None if bound is None else bool(r <= bound + 1e-9)
    return CoveringRadiusReport(
        radius=r,
        support_size=prof.size,
        max_row_sum=row_sum,
        bound=bound,
        satisfied=satisfied,
        periodic=periodic,
        conjugate_closed=closed,
    )
