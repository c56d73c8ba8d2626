"""The perfect-state-transfer engine: full decision procedure, constructive
partner computation, numerical verification, universal pairs, extremal
minimum-time search, and fidelity scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import symbolic_pi_multiple
from .errors import FixedStateError, InvalidSizeError, InvalidStateError, NumericFailureError
from .graphs import (
    ADJACENCY,
    LAPLACIAN,
    Graph,
    build_complete,
    build_empty,
    check_dense,
    hamiltonian,
    join,
    make_graph,
)
from .periodicity import Ambiguous, NonPeriodic, RatioTable, support_period
from .spectral import Projection, SpectralDecomposition, _grid_walk, decompose, normalized_fidelity, walk
from .states import NotCospectral, _support, check_strong_cospectrality
from .tolerances import DEFAULT_TOLERANCES, FIEDLER_CUT, SPREAD_TIE, ToleranceConfig


@dataclass(eq=False)
class PstVerdict:
    """Decision object: either a transfer time with its phase and partition,
    or a structured refusal reason."""

    decision: bool
    tau_min: float | None = None
    tau_symbolic: str | None = None
    phase: complex | None = None
    sigma_plus: np.ndarray | None = None    # partition for the pair as given
    sigma_minus: np.ndarray | None = None
    ratio_table: RatioTable | None = None
    case: str | None = None                 # size2 | 2a | 2b
    reason: str | None = None
    detail: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "decision": "yes" if self.decision else "no",
            "tau_min": self.tau_min,
            "tau_symbolic": self.tau_symbolic,
            "phase_re": None if self.phase is None else float(self.phase.real),
            "phase_im": None if self.phase is None else float(self.phase.imag),
            "sigma_plus": None if self.sigma_plus is None else [float(v) for v in self.sigma_plus],
            "sigma_minus": None if self.sigma_minus is None else [float(v) for v in self.sigma_minus],
            "ratio_table": None,
            "reason": self.reason,
            "case": self.case,
        }
        if self.ratio_table is not None:
            doc["ratio_table"] = {
                "lambda1": self.ratio_table.lambda1,
                "lambda2": self.ratio_table.lambda2,
                "p": list(self.ratio_table.p),
                "q": list(self.ratio_table.q),
            }
        return doc


@dataclass(eq=False)
class PstVerification:
    fidelity: float
    phase: complex
    residual: float
    passed: bool


@dataclass(eq=False)
class ScanResult:
    times: np.ndarray
    values: np.ndarray
    peak_time: float
    peak_value: float


@dataclass(eq=False)
class ExtremalReport:
    kind: str
    n: int
    graph: Graph
    x: np.ndarray
    y: np.ndarray
    tau: float
    tau_symbolic: str | None
    optimality: str
    verdict: PstVerdict
    oracle: dict | None = None


def _refusal(reason: str, detail: float | None = None, **kw) -> PstVerdict:
    return PstVerdict(decision=False, reason=reason, detail=detail, **kw)


def pst_decide(
    dec: SpectralDecomposition, x, y, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PstVerdict:
    """Decide perfect state transfer between x and y.

    Decision tree, each step's "no" a returned value and no exception caught:
    strong cospectrality over the support of x (NotCospectral: fixed-state,
    not-cospectral or ambiguous-cospectrality, its eigenvalue the detail),
    then support_period on that support (not-periodic, or ambiguous-clustering
    with the phase spread the detail), then the parity condition: with the
    largest support eigenvalue plus, the minus class must be exactly the
    ratio table's flips (odd r_j, read on exact reconstructed integers). The
    case label records the support size and, for three or more eigenvalues,
    whether the second-largest is plus (2a) or minus (2b).
    """
    cert = check_strong_cospectrality(dec, x, y, cfg)
    if isinstance(cert, NotCospectral):
        return _refusal(cert.reason, detail=cert.eigenvalue)
    sup = cert.profile.eigenvalues
    table = support_period(dec, cert.profile.indices, cfg)
    if isinstance(table, NonPeriodic):
        return _refusal(
            "not-periodic",
            detail=float(sup[table.offending_index]),
            sigma_plus=cert.sigma_plus,
            sigma_minus=cert.sigma_minus,
        )
    if isinstance(table, Ambiguous):
        return _refusal("ambiguous-clustering", detail=table.spread)
    tau = table.period / 2.0
    minus = set(cert.minus_positions)
    if 0 in minus:  # canonicalize: largest support eigenvalue kept positive
        minus = set(cert.plus_positions)
    case = "size2" if len(sup) == 2 else "2b" if 1 in minus else "2a"
    if minus != set(table.flips):
        return _refusal(
            f"parity-condition-failed({case})",
            sigma_plus=cert.sigma_plus,
            sigma_minus=cert.sigma_minus,
            ratio_table=table,
            case=case,
        )
    # phase is shared by every plus eigenvalue of the pair as given
    gamma = complex(np.exp(1j * tau * float(cert.sigma_plus[0])))
    return PstVerdict(
        decision=True,
        tau_min=tau,
        tau_symbolic=symbolic_pi_multiple(tau),
        phase=gamma,
        sigma_plus=cert.sigma_plus,
        sigma_minus=cert.sigma_minus,
        ratio_table=table,
        case=case,
    )


def pst_partners(
    dec: SpectralDecomposition, X, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transfer partners of every column of the state matrix X, shape (n, b).

    Returns (partners, found, fixed, tau): partners has shape (n, b), and
    its column c is the partner of X[:, c] where the bool mask found[c] is
    set and NaN elsewhere; tau (b,) is the minimum transfer time, half the
    minimum period, where found and NaN elsewhere; fixed (b,) marks
    single-eigenvalue supports. A column that is neither found nor fixed is
    not periodic or, as pst_decide would refuse it, ambiguous-clustering.
    Nothing is raised for those states; a column that support_mask refuses
    raises InvalidStateError.

    Columns sharing a support share one ratio table, and each group's
    partners are its reflection X_g - 2 sum_j E_j X_g over the table's
    flips, from X's one Projection (Projection.reflect). Each mask column
    is keyed by ceil(k/63) int64 words of its bits, k the number of
    eigenvalue clusters, each word one integer matmul over its 63 rows; one
    stable np.lexsort of the keys is cut where consecutive keys differ, so
    each group lists its columns in ascending order.
    """
    return _partners(Projection(dec, X), cfg)


def _partners(proj: Projection, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """pst_partners' four arrays, of a Projection's columns."""
    dec, X = proj.dec, proj.states
    mask = _support(proj.weights(), cfg)
    partners = np.full(X.shape, np.nan)
    tau = np.full(X.shape[1], np.nan)
    bits = np.int64(1) << np.arange(63, dtype=np.int64)   # row r of the mask is bit r % 63 of key word r // 63
    keys = np.array([bits[:len(mask) - r] @ mask[r:r + 63] for r in range(0, len(mask), 63)])
    order = np.lexsort(keys)
    keys = keys[:, order]
    first = np.ones(len(order), dtype=bool)   # the sorted columns that start a group
    first[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    starts = np.flatnonzero(first).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(order)]):
        cols = order[lo:hi]
        idx = np.nonzero(mask[:, cols[0]])[0]
        if len(idx) == 1:
            continue
        table = support_period(dec, idx, cfg)
        if not isinstance(table, RatioTable):
            continue
        partners[:, cols] = proj.reflect(cols, idx[list(table.flips)])
        tau[cols] = table.period / 2.0
    return partners, ~np.isnan(tau), mask.sum(axis=0) == 1, tau


def pst_partner(
    dec: SpectralDecomposition, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray | None:
    """The unique state admitting transfer from x, or None when x is not
    periodic or ambiguous-clustering; the one-column case of pst_partners.
    Raises FixedStateError for a single-eigenvalue support."""
    partners, found, fixed, _ = _partners(Projection.of(dec, x), cfg)
    if fixed[0]:
        raise FixedStateError("fixed states admit no transfer")
    return partners[:, 0] if found[0] else None


def verify_pst_numeric(
    dec: SpectralDecomposition, x, y, tau: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PstVerification:
    """Pass iff ||U(tau) x - gamma y|| <= tol_phase * ||x||, gamma the unit
    phase of the amplitude y^T U(tau) x: the walk of one Projection's
    overlaps, as fidelity's, once a tau not positive and finite is refused.
    By Parseval the residual is ||P c_x - gamma c_y|| and ||x|| is ||c_x||, P
    the phases exp(i tau lambda_j) repeated over each cluster's columns; it is
    formed in full, as ||x||^2 + ||y||^2 - 2 |amplitude| would cancel at tol_phase."""
    _check_tau(tau)
    return _verify(Projection.of(dec, x, y), tau, cfg)


def _check_tau(tau: float) -> None:
    if not 0 < tau < math.inf:
        raise InvalidStateError("tau must be positive and finite")


def _verify(proj: Projection, tau: float, cfg: ToleranceConfig) -> PstVerification:
    """verify_pst_numeric on a record of (x, y), as fidelity_derivatives reuses its own."""
    _check_tau(tau)
    phases = walk(proj.dec, tau)
    inner = complex(phases @ proj.overlaps())
    gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
    cx, cy = proj.coef.T
    residual = float(np.linalg.norm(np.repeat(phases, proj.dec.multiplicities) * cx - gamma * cy))
    return PstVerification(fidelity=normalized_fidelity(inner, *proj.states.T), phase=gamma, residual=residual,
                           passed=residual <= cfg.tol_phase * float(np.linalg.norm(cx)))


def universal_pst_pair(
    dec: SpectralDecomposition,
) -> tuple[np.ndarray, np.ndarray, float]:
    """A transfer pair every matrix with two distinct eigenvalues admits:
    sums and differences of extreme-eigenvalue eigenvectors, at
    pi/(lambda_max - lambda_min). Each is the column of E_j = V_j V_j^T with
    the largest diagonal entry, normalised; the blocks V_j of both extreme
    clusters come from one lift of their unit coefficient columns."""
    if dec.k < 2:
        raise InvalidStateError("matrix has a single eigenvalue; no pair exists")
    cols = np.r_[:dec.offsets[1], dec.offsets[-2]:dec.n]
    vecs = []
    for block in np.split(dec.basis.lift(np.eye(len(cols)), cols), [dec.offsets[1]], axis=1):
        col = int(np.argmax(np.einsum("ij,ij->i", block, block)))  # diag(E_j)
        vec = block @ block[col]
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            raise NumericFailureError("projector has no nonzero column")
        vecs.append(vec / nrm)
    u, v = vecs
    tau = math.pi / float(dec.eigenvalues[0] - dec.eigenvalues[-1])
    return u + v, u - v, tau


def fidelity_scan(dec: SpectralDecomposition, x, y, t_max: float, steps: int) -> ScanResult:
    """Uniformly sampled fidelity with its peak refined by a safeguarded
    Newton iteration, every value the walk of one Projection's overlaps c: the
    grid's from _grid_walk's factorised phase table (whose guard also covers
    np.linspace's times), the refinement's from scalar walks.

    The refinement finds a stationary point of g(t) = |a(t)|^2, with
    a(t) = sum_j exp(i t lambda_j) c_j, from the grid's argmax inside the
    bracket of its two grid neighbours. Each step is one walk of
    C = [c, i mu c, -mu^2 c], mu = lambda / scale, which gives a, a' / scale
    and a'' / scale^2 without overflow. It stops once Re(conj(a) a') is
    within its rounding bound in units of scale,
    8 eps (1 + |t| scale) (sum|c| |a'| + |a| sum|mu c|), whose middle factor
    covers the rounding of the phases t lambda_j (at once where the
    amplitudes are roundoff); once a Newton step is below half an ulp of t;
    or once the bracket holds no float between its ends. Otherwise the sign
    of g' moves one end of the bracket to t, and the next t is the Newton
    step t - g'/g'' where g'' < 0 and it stays inside the bracket, else the
    bracket's midpoint (measured: at most 5 walks on grids that resolve the
    walk, |dt| (lambda_max - lambda_min) <= pi). The peak is the scalar
    fidelity at the final time, or the grid's best value where that is
    higher."""
    if steps < 2:
        raise InvalidStateError("steps must be at least 2")
    if not math.isfinite(t_max):
        raise InvalidStateError("t_max must be finite")
    proj = Projection.of(dec, x, y)
    x, y = proj.states.T
    amps = proj.overlaps()
    values = normalized_fidelity(_grid_walk(dec, t_max, steps, amps), x, y)
    times = np.linspace(0.0, t_max, steps)
    best = int(np.argmax(values))
    t = float(times[best])
    lo, hi = sorted((float(times[max(best - 1, 0)]), float(times[min(best + 1, steps - 1)])))
    scale = dec.scale or 1.0
    mu = dec.eigenvalues / scale
    coef = np.column_stack((amps, 1j * mu * amps, -(mu * mu) * amps))
    total, moment = float(np.abs(amps).sum()), float(np.abs(mu * amps).sum())
    bound = 8.0 * np.finfo(float).eps
    for _ in range(64):  # caps the walks; each step shrinks the bracket, so it ends anyway
        a, d1, d2 = walk(dec, t, coef).tolist()
        slope = (a.conjugate() * d1).real  # g' / (2 scale)
        if abs(slope) <= bound * (1.0 + abs(t) * scale) * (total * abs(d1) + abs(a) * moment):
            break
        if slope > 0.0:
            lo = t
        else:
            hi = t
        curve = abs(d1) ** 2 + (a.conjugate() * d2).real  # g'' / (2 scale^2)
        step = t - slope / curve / scale if curve < 0.0 else math.nan
        if step == t:  # a Newton step below half an ulp of t: converged
            break
        t = step if lo < step < hi else lo + (hi - lo) / 2.0
        if not lo < t < hi:
            break
    peak = normalized_fidelity(walk(dec, t, amps), x, y)
    if values[best] > peak:
        t, peak = times[best], values[best]
    return ScanResult(times=times, values=values, peak_time=float(t), peak_value=float(peak))


def _edge_tables(n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Bit e of an edge mask on n vertices is edge e of iu = triu_indices(n, 1). Returns iu,
    every mask's uint8 popcount and the star masks: v has degree popcount[mask & star[v]]."""
    iu, ends = np.triu_indices(n, 1), np.arange(n)[:, None]
    popcount = np.zeros(1 << len(iu[0]), dtype=np.uint8)
    for e in range(len(iu[0])):
        popcount[1 << e:2 << e] = popcount[:1 << e] + 1
    return iu, popcount, ((ends == iu[0]) | (ends == iu[1])) @ (1 << np.arange(len(iu[0])))


def _spread_classes(n: int, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys on n vertices, ascending, how many masks have each, and their
    spreads (-inf if disconnected) from eigvalsh on one (keys, n, n) stack.
    A graph is connected iff its second-smallest Laplacian eigenvalue exceeds
    FIEDLER_CUT (Fiedler): for n <= 6 it is 0 or at least 0.268."""
    iu, popcount, star = _edge_tables(n)
    masks = np.arange(len(popcount))
    fixed, prev = True, popcount[masks & star[0]]
    for s in star[1:].tolist():
        degree = popcount[masks & s]
        fixed, prev = fixed & (prev >= degree), degree
    keys = np.flatnonzero(fixed)
    rows = popcount[keys[:, None] & star] + n * np.arange(len(keys))[:, None]   # bin n * key index + degree
    classes = np.bincount(rows.ravel(), minlength=n * len(keys)).reshape(-1, n)
    factorial = np.cumprod([1, *range(1, n + 1)])
    a = np.zeros((len(keys), n, n))
    a[:, iu[0], iu[1]] = a[:, iu[1], iu[0]] = (keys[:, None] >> np.arange(len(iu[0]))) & 1
    w = np.linalg.eigvalsh(a.sum(axis=2)[:, :, None] * np.eye(n) - a)
    connected = w[:, 1] > FIEDLER_CUT
    if kind == ADJACENCY:
        w = np.linalg.eigvalsh(a)
    spreads = np.where(connected, w[:, -1] - w[:, 0], -np.inf)
    return keys, factorial[n] // factorial[classes].prod(axis=1), spreads


def _spread_oracle(n: int, kind: str) -> dict:
    """Exhaustive maximum spread (largest minus smallest eigenvalue) of the
    Laplacian or adjacency matrix over connected unweighted graphs on n
    vertices, guarded to 2 <= n <= 6. The minimum period of any state is at
    least 2*pi/spread, so the maximum certifies the least period.

    Every edge mask has the spectra of its key, a mask whose degrees do not
    increase along the labels (936 keys at n = 6). A key with degree classes
    of sizes c_d is the key of n!/prod c_d! masks, one per way to give each
    class its vertices. Returns n, connected_graphs, max_spread (of the
    least key within SPREAD_TIE of the maximum, from its own matrix) and
    attained_count (connected graphs with spread above max_spread - SPREAD_TIE).
    """
    if not 2 <= n <= 6:
        raise InvalidSizeError("exhaustive search is guarded to 2 <= n <= 6")
    keys, multiplicity, spreads = _spread_classes(n, kind)
    attains = spreads >= spreads.max() - SPREAD_TIE
    iu = np.triu_indices(n, 1)
    first = int(keys[attains][0])
    g = make_graph(n, np.transpose(iu)[(first >> np.arange(len(iu[0]))) & 1 == 1])
    w = np.linalg.eigvalsh(hamiltonian(g, kind).matrix)
    best = float(w[-1] - w[0])
    return {"n": n, "connected_graphs": int(multiplicity[spreads > -np.inf].sum()), "max_spread": best,
            "attained_count": int(multiplicity[spreads > best - SPREAD_TIE].sum())}


def extremal_min_pst_search(
    n: int,
    kind: str,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    exhaustive: bool = False,
) -> ExtremalReport:
    """Graph and state pair attaining the least minimum transfer time among
    n-vertex unweighted graphs.

    Laplacian: any join graph works (spread exactly n); a star is emitted and
    the claim is exact. Adjacency: the split graph of an empty part of size
    ceil(n/3) with a complete part; the optimality of that shape is an
    asymptotic fact, so for finite n the report labels it as unverified
    unless the exhaustive oracle (2 <= n <= 6) finds no larger spread.
    Both size guards, DENSE_GUARD and with exhaustive 2 <= n <= 6, raise
    InvalidSizeError before any graph is built.
    """
    if n < 2:
        raise InvalidSizeError("need n >= 2")
    if kind not in (LAPLACIAN, ADJACENCY):
        raise ValueError(f"unknown kind {kind!r}")
    oracle = _spread_oracle(n, kind) if exhaustive else None
    check_dense(n)
    if kind == LAPLACIAN:
        g = join(build_empty(1), build_empty(n - 1))  # star: simplest join
        w = np.concatenate([[float(n - 1)], -np.ones(n - 1)])
        w /= np.linalg.norm(w)
        ones = np.ones(n) / math.sqrt(n)
        x, y = ones + w, ones - w
        tau = math.pi / n
        optimality = "exact: the Laplacian spread of an n-vertex graph is at most n, attained exactly by join graphs"
    else:
        a = math.ceil(n / 3)
        g = join(build_empty(a), build_complete(n - a))
        k_reg = float(n - a - 1)
        disc = math.sqrt(k_reg**2 + 4.0 * a * (n - a))
        lam_plus = (k_reg + disc) / 2.0
        lam_minus = (k_reg - disc) / 2.0
        u = np.concatenate([-lam_minus * np.ones(a), a * np.ones(n - a)])
        v = np.concatenate([-lam_plus * np.ones(a), a * np.ones(n - a)])
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        x, y = u + v, u - v
        tau = math.pi / disc
        optimality = "asymptotic: maximal adjacency spread by this split graph is guaranteed only for sufficiently large n; unverified at this n"
    if kind == ADJACENCY and oracle and abs(oracle["max_spread"] - disc) <= SPREAD_TIE:
        optimality = "verified at this n: no connected graph on n vertices has a larger adjacency spread than this split graph (exhaustive check); in general its maximality is guaranteed only for sufficiently large n"
    dec = decompose(hamiltonian(g, kind), cfg)
    verdict = pst_decide(dec, x, y, cfg)
    return ExtremalReport(
        kind=kind,
        n=n,
        graph=g,
        x=x,
        y=y,
        tau=tau,
        tau_symbolic=symbolic_pi_multiple(tau),
        optimality=optimality,
        verdict=verdict,
        oracle=oracle,
    )
