"""Eigendecomposition into distinct eigenvalues, each held as a block of
orthonormal eigenvectors, and the walk operator built from them.

The projector E_j = V_j V_j^T of cluster j, V_j its column block of the
eigenvector matrix V, is never stored. A stage reaches V only through the
record of its states, Projection: c = V^T X formed once, read as cluster
sums over c and lifts V c, which do not depend on the basis eigh picked
inside a cluster. Norms are sums over c too (Parseval), but for a fidelity's
denominator, the states' own, so that an inconsistent V shows. Every basis
holds V behind one protocol (n, project, lift, dense): eigh's DenseBasis
here, and the factored bases of the route table, routes.ROUTES, which
decompose loads on the first matrix of ROUTE_MIN_N vertices or more, so
that a hypercube, grid, torus, cycle, complete graph, path, complete
bipartite graph or join of either kind is decided with no (n, n) array of
its size, while a process that decomposes only smaller matrices (every CLI
golden) never compiles the route code."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InvalidStateError, NumericFailureError
from .graphs import LAPLACIAN, Hamiltonian, _vertex_sums
from .tolerances import DEFAULT_TOLERANCES, FIDELITY_CLAMP, GAP_WARNING, STATE_PEAK, SYMMETRY_TOL, ToleranceConfig

if TYPE_CHECKING:
    from .routes import Basis


class DenseBasis:
    """The eigenvectors V as the one (n, n) array v of eigh, read-only. lift
    gathers V's columns cols: V_F c[F] keeps its bytes."""

    def __init__(self, v: np.ndarray):
        self.v, self.n = v, len(v)
        v.setflags(write=False)

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x for an (n, b) x."""
        return self.v.T @ x

    def lift(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c for c with one row per column in cols (default all)."""
        return self.v[:, cols] @ c

    def dense(self) -> np.ndarray:
        return self.v


@dataclass(eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (strictly decreasing) with their eigenvector blocks:
    cluster j is spanned by the columns offsets[j]:offsets[j + 1] of V, which
    basis holds (one of routes.Basis) as the named route found it. The stages reach
    V^T X only through a Projection (basis.project); a lift V[:, cols] C is
    formed only by Projection.reflect, evolve, universal_pst_pair and
    transition_matrix (of the identity, on the columns outside the largest
    cluster), and V itself by no public call. Projection.of keeps the key,
    states and coefficients of its last state tuple in one slot on the
    decomposition, outside its fields (dataclasses.replace starts empty), as
    arrays only, so the slot makes no reference cycle."""

    eigenvalues: np.ndarray                   # shape (k,), descending
    basis: Basis                              # V, columns grouped by cluster
    offsets: np.ndarray                       # shape (k + 1,), cluster column boundaries
    multiplicities: tuple[int, ...]
    scale: float                              # ||M||_inf of the decomposed matrix
    route: str                                # the route that took M: product, circulant, path, join or eigh
    widths: np.ndarray                        # shape (k,), each cluster's lambda_first - lambda_last
    warnings: tuple[str, ...] = ()            # one per cluster gap below GAP_WARNING x the threshold

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def __post_init__(self):
        self._projection: tuple[bytes, np.ndarray, np.ndarray] | None = None  # Projection.of's slot

    def cluster_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum per-column values (along axis 0) over each cluster: (k[, b])."""
        return np.add.reduceat(values, self.offsets[:-1], axis=0)


SCAN_BLOCK = 1 << 18          # phase factors walk forms at once for an array of times


def check_magnitudes(x) -> None:
    """Refuse a state, or any column of an (n, b) state matrix, that has a
    non-finite entry, is zero, or whose largest |entry| lies outside
    STATE_PEAK. Inside that range ||x||^2 and the product ||x||^2 ||y||^2
    of a fidelity neither overflow nor underflow for n below 10^4."""
    peak = np.abs(x).max(axis=0, initial=0.0)
    if ((peak >= STATE_PEAK[0]) & (peak <= STATE_PEAK[1])).all():
        return
    if not np.isfinite(peak).all():
        raise InvalidStateError("state has non-finite entries")
    if not peak.all():
        raise InvalidStateError("state must be nonzero")
    raise InvalidStateError("state's largest |entry| must lie in [1e-75, 1e75]")


def as_state(x, n: int | None = None) -> np.ndarray:
    """Validate a real vector: finite, nonzero, and of a representable
    magnitude (check_magnitudes)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidStateError("state must be a one-dimensional real vector")
    if n is not None and x.shape[0] != n:
        raise InvalidStateError(f"state has length {x.shape[0]}, expected {n}")
    check_magnitudes(x)
    return x


class Projection:
    """c = V^T X of an (n, b) state matrix X (of(): 1-D states), formed once
    behind the one state check; per-state quantities are cluster sums or lifts.
    of() keeps the last tuple of states it projected on the decomposition,
    keyed by the bytes of the checked float array, so the same tuple again
    reads back the bits a fresh projection gives, as read-only arrays."""

    def __init__(self, dec: SpectralDecomposition, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != dec.n:
            raise InvalidStateError(f"state matrix must have shape ({dec.n}, b)")
        check_magnitudes(X)
        self.dec, self.states, self.coef = dec, X, dec.basis.project(X)

    @classmethod
    def of(cls, dec: SpectralDecomposition, *states) -> Projection:
        if any(np.shape(x) != (dec.n,) for x in states):
            for x in states:  # refuses the first state in error, as one state at a time would
                as_state(x, dec.n)
        rows = np.array(states, dtype=float)
        key, slot = rows.tobytes(), dec._projection
        if slot is not None and slot[0] == key:
            proj = cls.__new__(cls)
            proj.dec, proj.states, proj.coef = dec, *slot[1:]
            return proj
        proj = cls(dec, rows.T)
        for arr in (proj.states, proj.coef):
            arr.setflags(write=False)
        dec._projection = key, proj.states, proj.coef
        return proj

    def weights(self) -> np.ndarray:
        """||E_j x||^2 for every cluster j and column x: (k, b)."""
        return self.dec.cluster_sums(self.coef * self.coef)

    def overlaps(self) -> np.ndarray:
        """y^T E_j x for the columns x, y: (k,), whose walk is y^T U(t) x."""
        return self.dec.cluster_sums(self.coef[:, 0] * self.coef[:, 1])

    def reflect(self, cols, clusters) -> np.ndarray:
        """x - 2 sum_j E_j x over the clusters for the columns cols: the lift
        V[:, F] c[F] of c on their rows F."""
        flip = np.zeros(self.dec.k, dtype=bool)
        flip[clusters] = True
        flip = np.repeat(flip, self.dec.multiplicities)
        return self.states[:, cols] - 2.0 * self.dec.basis.lift(self.coef[flip][:, cols], flip)


ROUTE_MIN_N = 64      # measured crossover of the routes against eigh: below it, eigh alone
ASYMMETRY_BAND = 64   # rows per band of _asymmetry


class EdgeForm(NamedTuple):
    """The real symmetric n x n M as every route reads it: its diagonal, its
    nonzero entries on the edges src < dst, sorted by (src, dst), and
    scale = ||M||_inf, which only decompose reads (None on a product's or a
    join's factor); dense() gives M. src, dst and entries are None for a
    matrix symmetric only to within SYMMETRY_TOL, which eigh reads as is."""

    n: int
    diagonal: np.ndarray
    src: np.ndarray | None
    dst: np.ndarray | None
    entries: np.ndarray | None
    scale: float | None
    dense: Callable[[], np.ndarray]


def _asymmetry(mat: np.ndarray) -> float:
    """max |m_ij - m_ji| over the square mat, exactly, one band of
    ASYMMETRY_BAND rows at a time against the matching columns from the
    diagonal on: no transposed temporary of the whole matrix is made, and
    each band's transposed read stays in cache (2.3 ms against 6.7 ms for
    np.max(np.abs(mat - mat.T)) on Q10). Inf when a difference overflows."""
    out = 0.0
    for i in range(0, len(mat), ASYMMETRY_BAND):
        j = i + ASYMMETRY_BAND
        out = max(out, float(np.abs(mat[i:j, i:] - mat[i:, i:j].T).max()))
    return out


def _dense_edges(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the square mat above the diagonal as edges src < dst,
    sorted by (src, dst), read from one mask (Q10, one core: 0.7 ms;
    np.nonzero(np.triu(mat, 1)): 6.6 ms)."""
    src, dst = np.divmod(np.flatnonzero(mat != 0), len(mat))
    upper = src < dst
    return src[upper], dst[upper]


def _edge_scale(n: int, diagonal: np.ndarray, src: np.ndarray, dst: np.ndarray, entries: np.ndarray) -> float:
    """||M||_inf = max_i (the graphs._vertex_sums row sum of |entries| at i,
    then + |d_i|), inf with no warning on overflow."""
    with np.errstate(over="ignore"):
        return float((_vertex_sums(n, src, dst, np.abs(entries)) + np.abs(diagonal)).max())


def _edge_form(m) -> EdgeForm:
    """decompose's one door: the EdgeForm of a Hamiltonian, from its arrays
    with no dense pass (a value of 0 is no entry of M, and its edge is
    dropped, as the nonzero mask of M drops it), or of a raw matrix, which
    must be square, non-empty and symmetric to SYMMETRY_TOL * ||M||_inf,
    relative with no floor, so that scaling M by c > 0 keeps the verdict
    (exactly symmetric, its ||M||_inf is _edge_scale's, as a Hamiltonian's).
    A Laplacian's is 2 max(d): _edge_scale's _vertex_sums(|-w|) + |d| is d + d.
    ||M||_inf and twice it, which bounds every eigenvalue gap, are finite."""
    if isinstance(m, Hamiltonian):
        g, src, dst, values = m.graph, m.graph.src, m.graph.dst, m.values
        if m.kind == LAPLACIAN:
            scale = 2.0 * float(m.diagonal.max())
        else:
            scale = _edge_scale(g.n, m.diagonal, src, dst, values)
        if np.count_nonzero(values) < len(values):
            keep = values != 0
            src, dst, values = src[keep], dst[keep], values[keep]
        form = EdgeForm(g.n, m.diagonal, src, dst, values, scale, lambda: m.matrix)
    else:
        mat = np.asarray(m, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError("matrix must be square")
        if not mat.size:
            raise InvalidStateError("matrix must have at least one row")
        with np.errstate(over="ignore"):  # a non-finite entry or row sum leaves scale nan or inf
            scale = float(np.linalg.norm(mat, np.inf))
            asymmetry = _asymmetry(mat) if math.isfinite(scale) else 0.0  # inf if it overflows
        if asymmetry > SYMMETRY_TOL * scale:
            raise InvalidStateError("matrix must be symmetric")
        src, dst = _dense_edges(mat) if asymmetry == 0 else (None, None)
        entries = None if src is None else mat[src, dst]
        if src is not None and math.isfinite(scale):  # exactly symmetric: a Hamiltonian's scale
            scale = _edge_scale(len(mat), mat.diagonal(), src, dst, entries)
        form = EdgeForm(len(mat), mat.diagonal(), src, dst, entries, scale, lambda: mat)
    if not math.isfinite(form.scale):
        raise NumericFailureError("matrix has a non-finite entry or infinity-norm")
    if not math.isfinite(2.0 * form.scale):
        raise NumericFailureError(f"matrix infinity-norm {form.scale:.3g} overflows eigenvalue differences")
    return form


def _eigh_route(form: EdgeForm) -> tuple[np.ndarray, DenseBasis]:
    """np.linalg.eigh of the dense M, which takes every form (Q10's 1024 x
    1024 matrix: 230-270 ms)."""
    evals, vectors = np.linalg.eigh(form.dense())
    return evals, DenseBasis(vectors)


def route_name(route) -> str:
    """A route's name in SpectralDecomposition.route: eigh for _eigh_route."""
    return route.__name__[1:-len("_route")]


def _eigenpairs(form: EdgeForm) -> tuple[np.ndarray, Basis, str]:
    """(values, basis, route_name) of the first route of routes.ROUTES that
    does not pass the form on (None), its values sorted in either direction;
    the table is read through its module on each call. A form below
    ROUTE_MIN_N, with no edges, or with no edge list (symmetric only to
    SYMMETRY_TOL) goes to _eigh_route alone, and never loads routes."""
    if form.n < ROUTE_MIN_N or form.src is None or not len(form.src):
        return (*_eigh_route(form), route_name(_eigh_route))
    from . import routes
    for route in routes.ROUTES:
        pairs = route(form)
        if pairs is not None:
            return (*pairs, route_name(route))


def _clusters(evals: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clusters of the ascending evals: their boundaries
    (k + 1 indices into evals) and their means, each bit for bit np.mean of
    its members. A singleton's mean is its value. np.mean adds fewer than 8
    members one by one from +0.0 and 8 or more pairwise, so the clusters of
    2 to 7 are summed column by column over a zero-padded (m, 7) array (a sum
    from +0.0 is never -0.0, so each padding zero adds exactly nothing) and
    the few larger ones take one np.mean each. np.add.reduceat would not do:
    it adds x0 + (x1 + ...)."""
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(evals) > threshold) + 1, [len(evals)]))
    counts = np.diff(bounds)
    values = evals[bounds[:-1]]
    small = np.flatnonzero((counts > 1) & (counts < 8))
    if small.size:
        members = bounds[small, None] + np.arange(7)
        padded = np.where(members < bounds[small + 1, None], evals[np.minimum(members, len(evals) - 1)], 0.0)
        total = np.zeros(len(small))
        for column in padded.T:
            total += column
        values[small] = total / counts[small]
    for j in np.flatnonzero(counts >= 8):
        values[j] = np.mean(evals[bounds[j]:bounds[j + 1]])
    return bounds, values


def decompose(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """Group the spectrum of a real symmetric matrix into distinct eigenvalues.

    Single-linkage clustering on the sorted spectrum with threshold
    tol_group * ||M||_inf, so that scaling M by c > 0 scales every cluster
    gap and the threshold alike; each cluster's eigenvalue is the mean and
    its eigenvectors one contiguous column block of the basis, blocks in
    descending order. Every route returns its values sorted either way
    (else NumericFailureError); an ascending answer's blocks are reversed
    through dense(), values that all tie are left as they are.

    A Hamiltonian or a raw matrix m passes one door (_edge_form) into an
    EdgeForm, and the spectrum comes from _eigenpairs: below ROUTE_MIN_N,
    np.linalg.eigh alone; from it on, the first route of routes.ROUTES
    that takes the form, four routes for structures detected exactly on
    it, none reading the dense matrix, and np.linalg.eigh for every form.
    ROUTE_MIN_N is the crossover measured on paths, cycles and hypercubes
    and keeps the bytes of every CLI golden, all smaller: the routes agree
    with eigh to rounding only, and a process that decomposes only such
    matrices never imports routes.

    Raises InvalidStateError for an empty, non-square or asymmetric matrix
    and NumericFailureError for a non-finite or overflowing M.
    """
    form = _edge_form(m)
    try:
        evals, basis, route = _eigenpairs(form)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    steps = np.diff(evals)
    ascending = bool((steps >= 0).all() and (steps > 0).any())
    if not (ascending or (steps <= 0).all()):
        raise NumericFailureError(f"the {route} route returned unsorted eigenvalues")
    n, threshold = form.n, cfg.tol_group * form.scale
    evals = evals if ascending else evals[::-1]
    bounds, means = _clusters(evals, threshold)
    values, widths = means[::-1].copy(), (evals[bounds[1:] - 1] - evals[bounds[:-1]])[::-1]
    offsets = n - bounds[::-1]
    counts = np.diff(offsets)
    if ascending:
        # clusters descending, each block's columns ascending: block j starts
        # at offsets[j] and takes V's columns from bounds[k - 1 - j]
        cols = np.arange(n) + np.repeat(bounds[-2::-1] - offsets[:-1], counts)
        basis = DenseBasis(basis.dense()[:, cols])
    gaps = values[:-1] - values[1:]
    warnings = tuple(
        f"cluster gap {gaps[j]:.3e} between eigenvalues {values[j]:.6g} "
        f"and {values[j + 1]:.6g} is below twice the clustering threshold"
        for j in np.flatnonzero(gaps < GAP_WARNING * threshold)
    )
    for arr in (values, offsets, widths):
        arr.setflags(write=False)
    return SpectralDecomposition(eigenvalues=values, basis=basis, offsets=offsets, route=route, widths=widths,
                                 multiplicities=tuple(counts.tolist()), scale=form.scale, warnings=warnings)


def check_phase(reach: float, lam: float) -> None:
    """NumericFailureError unless every phase exp(i t lambda) with |t| <= reach
    and |lambda| <= lam can be formed: reach * lam is taken as a Python float,
    which overflows to inf quietly, and must be finite."""
    if not math.isfinite(reach * lam):
        raise NumericFailureError(f"walk phase t*lambda is not finite for |t| up to {reach:.3g}")


def walk(dec: SpectralDecomposition, t, coef=None):
    """sum_j exp(i t lambda_j) coef[j] over the clusters j (coef of shape (k,)),
    or without coef the phases exp(i t lambda_j): every time evolution at
    given times forms its phases here (a uniform grid from 0 takes
    _grid_walk). t is a scalar or a 1-D array (the leading axis of the
    result, SCAN_BLOCK phase factors at a time); for a scalar t, coef may
    also be (k, m), m sums from one set of phases, shape (m,).
    NumericFailureError when some t * lambda_j is not finite."""
    times = np.asarray(t, dtype=float)
    lam = dec.eigenvalues
    reach = abs(float(times)) if times.ndim == 0 else float(np.abs(times).max(initial=0.0))
    check_phase(reach, float(max(lam[0], -lam[-1])))
    if times.ndim == 0:
        phases = np.exp(1j * (times * lam))
        return phases if coef is None else phases @ coef
    out = np.empty(times.shape + ((dec.k,) if coef is None else ()), dtype=complex)
    rows = max(1, SCAN_BLOCK // dec.k)
    for s in range(0, len(times), rows):
        phases = np.exp(1j * np.multiply.outer(times[s:s + rows], lam))
        out[s:s + rows] = phases if coef is None else phases @ coef
    return out


def _grid_walk(dec: SpectralDecomposition, t_max: float, steps: int, coef) -> np.ndarray:
    """walk(dec, t, coef) on the steps >= 2 uniform times t_m = m dt from 0 to
    t_max, from a factorised phase table: with B = ceil(sqrt(steps)) and
    A = ceil(steps / B), t_{aB+b} = aB dt + b dt, so the amplitudes are the
    (A, k) coarse phases exp(i aB dt lambda) scaled by coef, times the (k, B)
    fine phases exp(i b dt lambda), raveled: (A + B) k exponentials and one
    complex GEMM in place of steps k exponentials. Each phase's rounding error
    is within a few eps |t_max| max|lambda| of the direct one. The guard is
    walk's, on the larger of |t_max| and the last time (steps - 1) dt, which
    can round past t_max, and to inf near the float maximum: every time
    formed here or by np.linspace(0, t_max, steps) is within it."""
    lam = dec.eigenvalues
    last = float(steps - 1)  # Python floats, so that the last time overflows quietly
    dt = float(t_max) / last
    check_phase(max(abs(dt * last), abs(t_max)), float(max(lam[0], -lam[-1])))
    cols = math.isqrt(steps - 1) + 1  # B
    # integer multiples of dt, each rounded once, as np.linspace's own times
    coarse = np.exp(1j * np.multiply.outer(np.arange(0, steps, cols) * dt, lam))
    fine = np.exp(1j * np.multiply.outer(np.arange(cols) * dt, lam))
    return ((coarse * coef) @ fine.T).ravel()[:steps]


def normalized_fidelity(amp, x, y):
    """|amp|^2 / (||x||^2 ||y||^2) for amplitudes y^T U x (scalar or array).
    Roundoff above 1 is clamped to 1 up to 1 + FIDELITY_CLAMP; a larger value
    is shown, so an inconsistent evolution does not read as a perfect
    transfer."""
    val = np.abs(amp) ** 2 / (np.dot(x, x) * np.dot(y, y))
    val = np.where(val <= 1.0 + FIDELITY_CLAMP, np.minimum(val, 1.0), val)
    return float(val) if val.ndim == 0 else val


def evolve(dec: SpectralDecomposition, t: float, x) -> np.ndarray:
    """Apply the walk operator at time t: sum_j exp(i t lambda_j) E_j x, the
    lift of x's Projection with its coefficients turned by the phases."""
    coef = Projection.of(dec, x).coef[:, 0] * np.repeat(walk(dec, t), dec.multiplicities)  # x checked first
    z = dec.basis.lift(np.column_stack((coef.real, coef.imag)))
    return z[:, 0] + 1j * z[:, 1]


def transition_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """Full walk operator at time t (complex symmetric unitary), from outside
    its largest cluster *: as sum_j E_j = I, U = p_* I + V_R diag(p_j - p_*)
    V_R^T with p_j = exp(i t lambda_j) and V_R the n - m_* columns of V
    outside *: a lift of the identity, with no dense(), or a dense V's own
    columns. A join's adjacency is mostly one eigenspace (K_p v K_q is
    K_{p+q}, m_* = n - 1), so V_R is a few columns; for M = cI, V_R is empty
    and U is p_* I."""
    phases = walk(dec, t)
    big = int(np.argmax(dec.multiplicities))
    rest = np.repeat(np.arange(dec.k) != big, dec.multiplicities)  # V's columns outside *
    delta = np.repeat(phases - phases[big], dec.multiplicities)[rest]
    basis = dec.basis
    v = basis.v[:, rest] if isinstance(basis, DenseBasis) else basis.lift(np.eye(len(delta)), rest)
    u = np.empty((dec.n, dec.n), dtype=complex)
    u.real = (v * delta.real) @ v.T
    u.imag = (v * delta.imag) @ v.T
    u.flat[::dec.n + 1] += phases[big]
    return u


def fidelity(dec: SpectralDecomposition, t: float | np.ndarray, x, y) -> float | np.ndarray:
    """normalized_fidelity of the walk of x and y's overlaps at t (scalar or 1-D)."""
    proj = Projection.of(dec, x, y)
    return normalized_fidelity(walk(dec, t, proj.overlaps()), *proj.states.T)
