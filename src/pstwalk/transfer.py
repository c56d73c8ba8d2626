"""The perfect-state-transfer engine: full decision procedure, constructive
partner computation, numerical verification, universal pairs, extremal
minimum-time search, and fidelity scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import symbolic_pi_multiple
from .errors import (
    AmbiguousCospectralityError,
    FixedStateError,
    InvalidSizeError,
    InvalidStateError,
    NotCospectralError,
)
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
from .periodicity import NonPeriodic, RatioTable, ratio_condition
from .spectral import (
    DEFAULT_TOLERANCES,
    SpectralDecomposition,
    ToleranceConfig,
    _grid_walk,
    as_state,
    decompose,
    evolve,
    normalized_fidelity,
    walk,
)
from .states import check_strong_cospectrality, support_mask

SPREAD_CHUNK = 1024    # edge masks per relabelling pass, and keys per stacked eigvalsh, of the spread oracle


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

    Decision tree: strong cospectrality over the support of x (refused as
    fixed-state, not-cospectral or ambiguous-cospectrality), then the ratio
    condition on that support, then the parity condition: with the largest
    support eigenvalue in the plus class, the minus class must be exactly
    the ratio table's flips (the positions with odd r_j, read on exact
    reconstructed integers). The case label records the support size and,
    for three or more eigenvalues, whether the second-largest sits in the
    plus (2a) or minus (2b) class.
    """
    try:
        cert = check_strong_cospectrality(dec, x, y, cfg)
    except FixedStateError:
        return _refusal("fixed-state")
    except AmbiguousCospectralityError as exc:
        return _refusal("ambiguous-cospectrality", detail=float(exc.eigenvalue))
    except NotCospectralError as exc:
        return _refusal("not-cospectral", detail=float(exc.eigenvalue))

    sup = cert.profile.eigenvalues
    table = ratio_condition(sup, cfg)
    if isinstance(table, NonPeriodic):
        return _refusal(
            "not-periodic",
            detail=float(sup[table.offending_index]),
            sigma_plus=cert.sigma_plus,
            sigma_minus=cert.sigma_minus,
        )
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
    not periodic. Nothing is raised for those states; a column that
    support_mask refuses raises InvalidStateError.

    Columns sharing a support share one ratio table, and each group's
    partners are X_g - 2 V_F (V_F^T X_g), with V_F the eigenvector columns
    of the table's flips. The groups come from one np.unique over the
    bit-packed mask columns, each viewed as a single void scalar, and one
    stable argsort of the group labels split at the group sizes, so each
    group lists its columns in ascending order.
    """
    X = np.asarray(X, dtype=float)
    mask = support_mask(dec, X, cfg)
    found = np.zeros(X.shape[1], dtype=bool)
    partners = np.full(X.shape, np.nan)
    tau = np.full(X.shape[1], np.nan)
    packed = np.ascontiguousarray(np.packbits(mask, axis=0).T)
    _, labels, counts = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                  return_inverse=True, return_counts=True)
    order = np.argsort(labels, kind="stable")
    for cols in np.split(order, np.cumsum(counts))[:-1]:
        idx = np.nonzero(mask[:, cols[0]])[0]
        if len(idx) == 1:
            continue
        sup = dec.eigenvalues[idx]
        table = ratio_condition(sup, cfg)
        if isinstance(table, NonPeriodic):
            continue
        xg = X[:, cols]
        vf = np.hstack([dec.block(j) for j in idx[list(table.flips)]])
        partners[:, cols] = xg - 2.0 * vf @ (vf.T @ xg)
        tau[cols] = table.period / 2.0
        found[cols] = True
    return partners, found, mask.sum(axis=0) == 1, tau


def pst_partner(
    dec: SpectralDecomposition, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray | None:
    """The unique state admitting transfer from x, or None when x is not
    periodic; the one-column case of pst_partners. Raises FixedStateError
    for a single-eigenvalue support."""
    x = as_state(x, dec.n)
    partners, found, fixed, _ = pst_partners(dec, x[:, None], cfg)
    if fixed[0]:
        raise FixedStateError("fixed states admit no transfer")
    return partners[:, 0] if found[0] else None


def verify_pst_numeric(
    dec: SpectralDecomposition, x, y, tau: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PstVerification:
    """Evolve x to time tau, extract the best unit phase against y, and pass
    iff the residual ||U(tau) x - gamma y|| is within tol_phase * ||x||."""
    if not 0 < tau < math.inf:
        raise InvalidStateError("tau must be positive and finite")
    x = as_state(x, dec.n)
    y = as_state(y, dec.n)
    z = evolve(dec, tau, x)
    inner = complex(y @ z)
    gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
    # formed in full: as ||x||^2 + ||y||^2 - 2|inner| it cancels at tol_phase
    residual = float(np.linalg.norm(z - gamma * y))
    return PstVerification(
        fidelity=normalized_fidelity(inner, x, y),
        phase=gamma,
        residual=residual,
        passed=residual <= cfg.tol_phase * float(np.linalg.norm(x)),
    )


def universal_pst_pair(
    dec: SpectralDecomposition,
) -> tuple[np.ndarray, np.ndarray, float]:
    """A transfer pair every matrix with two distinct eigenvalues admits:
    sums and differences of extreme-eigenvalue eigenvectors, at
    pi/(lambda_max - lambda_min)."""
    if dec.k < 2:
        raise InvalidStateError("matrix has a single eigenvalue; no pair exists")
    u = dec.eigenvector(0)
    v = dec.eigenvector(dec.k - 1)
    tau = math.pi / float(dec.eigenvalues[0] - dec.eigenvalues[-1])
    return u + v, u - v, tau


def fidelity_scan(dec: SpectralDecomposition, x, y, t_max: float, steps: int) -> ScanResult:
    """Uniformly sampled fidelity with a golden-section refinement of the
    peak, every value the walk of one overlaps(x, y): the grid's from
    _grid_walk's factorised phase table, the refinement's from scalar walks."""
    if steps < 2:
        raise InvalidStateError("steps must be at least 2")
    if not math.isfinite(t_max):
        raise InvalidStateError("t_max must be finite")
    x = as_state(x, dec.n)
    y = as_state(y, dec.n)
    amps = dec.overlaps(x, y)
    times = np.linspace(0.0, t_max, steps)
    values = normalized_fidelity(_grid_walk(dec, t_max, steps, amps), x, y)
    best = int(np.argmax(values))
    a = times[max(best - 1, 0)]
    b = times[min(best + 1, steps - 1)]
    # the search compares |amplitudes|, which order as the fidelities do. Its
    # bracket reaches a few ulps well before the last step, after which its
    # points repeat (about 17 of 82 on the benchmark's large graphs): each
    # distinct time is walked once.
    walked = {}

    def magnitude(t):
        if t not in walked:
            walked[t] = abs(walk(dec, t, amps))
        return walked[t]

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = magnitude(c), magnitude(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = magnitude(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = magnitude(d)
    peak_t = (a + b) / 2.0
    peak_v = normalized_fidelity(walk(dec, peak_t, amps), x, y)
    if values[best] > peak_v:
        peak_t, peak_v = times[best], values[best]
    return ScanResult(times=times, values=values, peak_time=float(peak_t), peak_value=float(peak_v))


def _degree_sorted_keys(n: int) -> np.ndarray:
    """Every edge mask on n vertices (bit e is edge e of triu_indices(n, 1)),
    re-packed after relabelling its vertices by descending degree, ties kept
    in label order. A relabelling keeps the spectra of A and L, so masks
    sharing a key share their spectra. Built SPREAD_CHUNK masks at a time."""
    iu = np.triu_indices(n, 1)
    m = len(iu[0])
    # a float incidence matrix: the degree product runs in BLAS, and its
    # small integer counts are exact
    incidence = np.zeros((m, n))
    incidence[np.arange(m), iu[0]] = incidence[np.arange(m), iu[1]] = 1.0
    position = np.zeros((n, n), dtype=np.int64)   # edge index of {u, v}
    position[iu] = position[iu[1], iu[0]] = np.arange(m)
    position = position.ravel()
    keys = np.empty(1 << m, dtype=np.int64)
    for start in range(0, 1 << m, SPREAD_CHUNK):
        masks = np.arange(start, min(start + SPREAD_CHUNK, 1 << m))
        bits = (masks[:, None] >> np.arange(m)) & 1
        order = np.argsort(-(bits @ incidence), axis=1, kind="stable")
        label = np.empty_like(order)   # new label of each old vertex
        label[np.arange(len(masks))[:, None], order] = np.arange(n)
        keys[start:start + len(masks)] = (bits << position[label[:, iu[0]] * n + label[:, iu[1]]]).sum(axis=1)
    return keys


def _mask_spreads(n: int, kind: str) -> np.ndarray:
    """Spread (largest minus smallest eigenvalue) of the Laplacian or
    adjacency matrix of every edge mask on n vertices, -inf where the graph
    is disconnected. One eigvalsh per distinct degree-sorted key, in stacks
    of SPREAD_CHUNK keys, scattered back to every mask with that key. A
    graph counts as connected iff its second-smallest Laplacian eigenvalue
    exceeds 1e-9 (Fiedler); for n <= 6 that eigenvalue is at least
    2 - 2cos(pi/6) ~ 0.268 on connected graphs, far from the cut."""
    iu = np.triu_indices(n, 1)
    keys, inverse = np.unique(_degree_sorted_keys(n), return_inverse=True)
    spreads = np.empty(len(keys))
    for start in range(0, len(keys), SPREAD_CHUNK):
        chunk = keys[start:start + SPREAD_CHUNK]
        a = np.zeros((len(chunk), n, n))
        a[:, iu[0], iu[1]] = (chunk[:, None] >> np.arange(len(iu[0]))) & 1
        a += a.transpose(0, 2, 1)
        w = np.linalg.eigvalsh(a.sum(axis=2)[:, :, None] * np.eye(n) - a)
        connected = w[:, 1] > 1e-9
        if kind == ADJACENCY:
            w = np.linalg.eigvalsh(a)
        spreads[start:start + len(chunk)] = np.where(connected, w[:, -1] - w[:, 0], -np.inf)
    return spreads[inverse]


def _spread_oracle(n: int, kind: str) -> dict:
    """Exhaustive maximum spread (largest minus smallest eigenvalue) of the
    Laplacian or adjacency matrix over connected unweighted graphs on n
    vertices, guarded to 2 <= n <= 6.

    The minimum period of any state is at least 2*pi/spread, so the maximum
    spread certifies the least achievable period. The spreads of all
    2^(n(n-1)/2) labelled graphs come from _mask_spreads, which runs one
    eigvalsh per degree-sorted relabelling (936 at n = 6) rather than one
    per edge mask; every count is still over labelled graphs. Returns n,
    connected_graphs, max_spread (the spread of the first connected graph
    within 1e-9 of the maximum, recomputed from that one matrix) and
    attained_count (connected graphs whose spread exceeds max_spread - 1e-9).
    """
    if not 2 <= n <= 6:
        raise InvalidSizeError("exhaustive search is guarded to 2 <= n <= 6")
    spreads = _mask_spreads(n, kind)
    iu = np.triu_indices(n, 1)
    first = int(np.argmax(spreads >= spreads.max() - 1e-9))
    g = make_graph(n, np.transpose(iu)[(first >> np.arange(len(iu[0]))) & 1 == 1])
    w = np.linalg.eigvalsh(hamiltonian(g, kind).matrix)
    best = float(w[-1] - w[0])
    return {
        "n": n,
        "connected_graphs": int(np.count_nonzero(spreads > -np.inf)),
        "max_spread": best,
        "attained_count": int(np.count_nonzero(spreads > best - 1e-9)),
    }


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
    if kind == ADJACENCY and oracle and abs(oracle["max_spread"] - disc) <= 1e-9:
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
