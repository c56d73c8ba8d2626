"""Eigendecomposition into distinct eigenvalues, each held as a block of
orthonormal eigenvectors, and the walk operator built from them.

The spectral projector of cluster j is E_j = V_j V_j^T, where V_j is the
cluster's column block of `vectors`. It is applied to a state as
V_j (V_j^T x), which is independent of the basis eigh picked inside the
cluster, and is never stored: a decomposition holds O(n^2) numbers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, NumericFailureError
from .graphs import Hamiltonian


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package.

    tol_group scales by ||M||_inf at the point of use; the remaining fields
    are used as stored.
    """

    tol_group: float = 1e-8   # eigenvalue clustering
    tol_supp: float = 1e-8    # support membership, relative to ||x||
    tol_phase: float = 1e-8   # phase-match residual for transfer checks
    q_max: int = 10_000       # denominator cap for rational reconstruction
    int_tol: float = 1e-6     # integrality detection

    def __post_init__(self):
        for name in ("tol_group", "tol_supp", "tol_phase", "int_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.tol_supp >= 1:  # ||E_j x|| <= ||x||: every support would be empty
            raise ValueError("tol_supp must be below 1")
        if self.q_max < 1:
            raise ValueError("q_max must be at least 1")


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (strictly decreasing) with their eigenvector blocks:
    cluster j is spanned by the columns vectors[:, offsets[j]:offsets[j + 1]]."""

    eigenvalues: np.ndarray          # shape (k,), descending
    vectors: np.ndarray              # shape (n, n), columns grouped by cluster
    offsets: np.ndarray              # shape (k + 1,), cluster column boundaries
    multiplicities: tuple[int, ...]
    scale: float                     # ||M||_inf of the decomposed matrix
    ambiguous: bool = False          # some cluster gap was < 2x the threshold
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def block(self, j: int) -> np.ndarray:
        """V_j, the (n, m_j) orthonormal eigenvector block of cluster j."""
        return self.vectors[:, self.offsets[j]:self.offsets[j + 1]]

    def cluster_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum per-column values (along axis 0) over each cluster: (k[, b])."""
        return np.add.reduceat(values, self.offsets[:-1], axis=0)

    def norms(self, x) -> np.ndarray:
        """||E_j x|| for every cluster j, shape (k,) for a state and (k, b)
        for an (n, b) state matrix."""
        c = self.vectors.T @ np.asarray(x, dtype=float)
        return np.sqrt(self.cluster_sums(c * c))

    def overlaps(self, x, y) -> np.ndarray:
        """c_j = y^T E_j x, shape (k,), whose walk is y^T U(t) x."""
        cx, cy = (self.vectors.T @ np.column_stack((x, y))).T
        return self.cluster_sums(cx * cy)

    def moments(self, x, k_max: int) -> np.ndarray:
        """x^T M^k x / x^T x in units of scale**k (1 for the zero matrix) for
        k = 0..k_max: sums of (lambda_j / scale)^k ||E_j x||^2 / ||x||^2."""
        w = self.norms(x) ** 2 / np.dot(x, x)
        return np.vander(self.eigenvalues / (self.scale or 1.0), k_max + 1, increasing=True).T @ w

    def components(self, x, rows=None) -> np.ndarray:
        """E_j x for each cluster j in rows (every cluster by default), as
        the rows of an (m, n) array; x is a single state."""
        blocks = [self.block(j) for j in (range(self.k) if rows is None else rows)]
        return np.array([v @ (v.T @ x) for v in blocks]).reshape(len(blocks), self.n)

    def projector(self, j: int) -> np.ndarray:
        """The dense (n, n) projector E_j = V_j V_j^T, made exactly symmetric."""
        v = self.block(j)
        e = v @ v.T
        return (e + e.T) / 2.0

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * np.repeat(self.eigenvalues, self.multiplicities)) @ self.vectors.T

    def eigenvector(self, j: int) -> np.ndarray:
        """Deterministic unit eigenvector for the j-th distinct eigenvalue:
        the column of E_j with the largest diagonal entry."""
        v = self.block(j)
        col = int(np.argmax(np.einsum("ij,ij->i", v, v)))  # diag(E_j)
        vec = v @ v[col]
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            raise NumericFailureError("projector has no nonzero column")
        return vec / nrm


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, Hamiltonian):
        return m.matrix
    return np.asarray(m, dtype=float)


STATE_PEAK = (1e-75, 1e75)  # range of a state's largest |entry|
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


def decompose(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """Group the spectrum of a real symmetric matrix into distinct eigenvalues.

    Single-linkage clustering on the sorted spectrum with threshold
    tol_group * ||M||_inf, so that scaling M by c > 0 scales every cluster
    gap and the threshold alike; each cluster's eigenvalue is the mean and
    its eigenvectors become one contiguous column block, blocks in
    descending eigenvalue order.
    """
    mat = _as_matrix(m)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidStateError("matrix must be square")
    with np.errstate(over="ignore"):
        # a non-finite entry or an overflowing row sum leaves scale nan or inf
        scale = float(np.linalg.norm(mat, np.inf))
        if not math.isfinite(scale):
            raise NumericFailureError("matrix has a non-finite entry or infinity-norm")
        asymmetry = np.max(np.abs(mat - mat.T))  # inf, so refused, if it overflows
    if asymmetry > 1e-12 * max(1.0, scale):
        raise InvalidStateError("matrix must be symmetric")
    if not math.isfinite(2.0 * scale):
        # every |eigenvalue| is at most scale, so below this bound no
        # eigenvalue difference (gap, spread, ratio numerator) overflows
        raise NumericFailureError(f"matrix infinity-norm {scale:.3g} overflows eigenvalue differences")
    try:
        evals, evecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc

    threshold = cfg.tol_group * scale
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] <= threshold:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    clusters.reverse()  # descending eigenvalue order

    # np.mean per cluster costs microseconds; a singleton's mean is its value
    values = np.array([np.mean(evals[idx]) if len(idx) > 1 else evals[idx[0]] for idx in clusters])
    mults = tuple(len(idx) for idx in clusters)
    vectors = evecs[:, np.concatenate(clusters)]
    offsets = np.concatenate(([0], np.cumsum(mults)))

    ambiguous = False
    warnings = []
    for j in range(1, len(values)):
        gap = values[j - 1] - values[j]
        if gap < 2.0 * threshold:
            ambiguous = True
            warnings.append(
                f"cluster gap {gap:.3e} between eigenvalues {values[j - 1]:.6g} "
                f"and {values[j]:.6g} is below twice the clustering threshold"
            )
    for arr in (values, vectors, offsets):
        arr.setflags(write=False)
    return SpectralDecomposition(
        eigenvalues=values,
        vectors=vectors,
        offsets=offsets,
        multiplicities=mults,
        scale=scale,
        ambiguous=ambiguous,
        warnings=tuple(warnings),
    )


def check_phase(reach: float, lam: float) -> None:
    """NumericFailureError unless every phase exp(i t lambda) with |t| <= reach
    and |lambda| <= lam can be formed: reach * lam is taken as a Python float,
    which overflows to inf quietly, and must be finite."""
    if not math.isfinite(reach * lam):
        raise NumericFailureError(f"walk phase t*lambda is not finite for |t| up to {reach:.3g}")


def walk(dec: SpectralDecomposition, t, coef=None):
    """sum_j exp(i t lambda_j) coef[j] over the clusters j (coef of shape (k,)),
    or without coef the phases exp(i t lambda_j): every time evolution forms
    its phases here. t is a scalar or a 1-D array (the leading axis of the
    result, SCAN_BLOCK phase factors at a time); NumericFailureError when
    some t * lambda_j is not finite."""
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


def normalized_fidelity(amp, x, y):
    """|amp|^2 / (||x||^2 ||y||^2) for amplitudes y^T U x (scalar or array).
    Roundoff above 1 is clamped to 1 up to 1 + 1e-9; a larger value is shown,
    so an inconsistent evolution does not read as a perfect transfer."""
    val = np.abs(amp) ** 2 / (np.dot(x, x) * np.dot(y, y))
    val = np.where(val <= 1.0 + 1e-9, np.minimum(val, 1.0), val)
    return float(val) if val.ndim == 0 else val


def evolve(dec: SpectralDecomposition, t: float, x) -> np.ndarray:
    """Apply the walk operator at time t: sum_j exp(i t lambda_j) E_j x."""
    x = as_state(x, dec.n)
    coef = np.repeat(walk(dec, t), dec.multiplicities) * (dec.vectors.T @ x)
    return dec.vectors @ coef.real + 1j * (dec.vectors @ coef.imag)


def transition_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """Full walk operator at time t (complex symmetric unitary)."""
    phases = np.repeat(walk(dec, t), dec.multiplicities)
    v = dec.vectors
    return (v * phases.real) @ v.T + 1j * ((v * phases.imag) @ v.T)


def fidelity(dec: SpectralDecomposition, t: float | np.ndarray, x, y) -> float | np.ndarray:
    """normalized_fidelity of the walk of overlaps(x, y) at t (scalar or 1-D)."""
    x = as_state(x, dec.n)
    y = as_state(y, dec.n)
    return normalized_fidelity(walk(dec, t, dec.overlaps(x, y)), x, y)
