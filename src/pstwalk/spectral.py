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
from .graphs import Hamiltonian, _vertex_sums


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package.

    tol_group scales by ||M||_inf at the point of use; the remaining fields
    are used as stored.

    int_tol bounds a ratio's continued-fraction residual in
    periodicity.ratio_condition, but at the defaults it never decides
    there: the phase test refuses any residual above
    PHASE_ALIGNMENT / (2 pi) ~ 1.6e-8 (at lcm 1, and more as the lcm grows),
    so an int_tol above that cannot change a periodicity or transfer
    decision. It still sets the integrality tests of classify_form.
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


BIPARTITE_MIN_N = 64  # measured crossover of the bipartite route against eigh
ASYMMETRY_BAND = 64   # rows per band of _asymmetry


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


def _route_parts(n: int, diagonal: np.ndarray, src: np.ndarray,
                 dst: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The sorted parts P, Q on which the exactly symmetric n x n matrix
    with this diagonal and its off-diagonal nonzeros on the edges src < dst,
    sorted by (src, dst), takes the bipartite route (_bipartite_eigh); None
    (eigh) below BIPARTITE_MIN_N or for two diagonal values. Vertex 0's
    edges settle the dense patterns in O(m): a triangle through it has no
    2-colouring, and a complete bipartite pattern is left to eigh, which
    deflates its rank-2 adjacency, while the SVD of its rank-one block is
    erratic (1.8x eigh's time over K_{p,q}, 64 <= p + q <= 256). Otherwise
    a breadth-first search colours each component from its least vertex,
    refuses at the first edge inside a colour and stops once every vertex
    is coloured; one pass over the edges then checks each joins P to Q."""
    if n < BIPARTITE_MIN_N or (diagonal != diagonal[0]).any():
        return None
    d = int(np.searchsorted(src, 1))  # vertex 0's edges come first
    nbrs = np.zeros(n, dtype=bool)
    nbrs[dst[:d]] = True
    if (nbrs[src] & nbrs[dst]).any() or len(src) == d * (n - d) > 0 and (nbrs[src] != nbrs[dst]).all():
        return None
    ends = np.concatenate((src, dst))
    order = np.argsort(ends, kind="stable")
    adj = np.concatenate((dst, src))[order].tolist()
    starts = np.searchsorted(ends[order], np.arange(n + 1)).tolist()
    colour = [-1] * n
    left = n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        left -= 1
        queue = [root]
        for u in queue:  # grows while it is read
            if not left:
                break
            other = 1 - colour[u]
            for v in adj[starts[u]:starts[u + 1]]:
                if colour[v] < 0:
                    colour[v] = other
                    left -= 1
                    queue.append(v)
                elif colour[v] != other:
                    return None
    side = np.array(colour, dtype=bool)
    if (side[src] == side[dst]).any():
        return None
    return np.flatnonzero(~side), np.flatnonzero(side)


def _dense_edges(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the square mat above the diagonal as edges src < dst,
    sorted by (src, dst), read from one mask (Q10, one core: 0.7 ms;
    np.nonzero(np.triu(mat, 1)): 6.6 ms)."""
    src, dst = np.divmod(np.flatnonzero(mat != 0), len(mat))
    upper = src < dst
    return src[upper], dst[upper]


def _half_block_edges(b: np.ndarray, p: np.ndarray, q: np.ndarray, src: np.ndarray,
                      dst: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The edges of the square half block b = M[P, Q] in _dense_edges' form,
    or None unless b is exactly symmetric, read from M's edges (src, dst),
    which each join P to Q, in O(m) with no pass over b: the edge
    (p_i, q_k) is the entry (i, k) of b, and b is zero off these entries,
    so b is symmetric iff b[i, k] == b[k, i] on each of them, and its
    nonzeros above the diagonal are those with i < k. The same edges, in
    the same order, as _dense_edges(b)."""
    h = len(p)
    in_q = np.zeros(2 * h, dtype=bool)
    in_q[q] = True
    rank = np.empty(2 * h, dtype=np.intp)
    rank[p] = rank[q] = np.arange(h)
    flip = in_q[src]
    i, k = rank[np.where(flip, dst, src)], rank[np.where(flip, src, dst)]
    values = b[i, k]
    if (values != b[k, i]).any():
        return None
    keep = (i < k) & (values != 0)
    return np.divmod(np.sort(i[keep] * h + k[keep]), h)


def _bipartite_eigh(mat: np.ndarray, p: np.ndarray, q: np.ndarray, src: np.ndarray,
                    dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of a symmetric mat = cI + A whose diagonal is the one
    constant c and whose off-diagonal part A is zero inside P and inside Q,
    with its off-diagonal nonzeros on the edges (src, dst), eigenvalues
    descending, from an SVD of the half-size block
    B = M[P, Q] = U S V^T (Golub and Van Loan, Matrix Computations, 8.6):
    A has the eigenpairs (+-s_i, [u_i; +-v_i]/sqrt(2)) for i < r = min(|P|, |Q|),
    and 0 on the |P| - |Q| columns of U (or |Q| - |P| of V) past r, as
    [u; 0] (or [0; v]), written to the rows P and Q. The eigenvalues
    c + s, c, c - s reversed are descending as S is.

    A square B that is exactly symmetric has the SVD of its eigenpairs:
    B = B^T = W Lambda W^T gives B = W |Lambda| (sign(Lambda) W)^T, so
    U = W and V = W sign(Lambda) (sign(0) = +1), columns sorted by |lambda|
    descending. W Lambda W^T comes from the route decompose takes for a raw
    matrix, B's symmetry and edges read from M's (_half_block_edges), so a B
    that is itself bI + [[0, B'], [B'^T, 0]] takes the route again: for a
    bipartite G, the half block of G x K2 from cartesian_product(G,
    build_path(2)) is +-(I + A(G)); that of Q_d as build_hypercube labels it
    is I plus the adjacency of a relabelled Q_{d-1}, so Q10 goes
    1024 -> 512 -> ... -> one eigh of a 32 x 32 matrix, with no SVD. Any
    other B keeps np.linalg.svd.

    The rows P and Q of the result are each one gather of U's or V's
    columns in their final order, scaled in place and copied once into
    their rows: no zero-filled matrix, no scatter, no regrouping afterwards."""
    c, b = mat[0, 0], mat[np.ix_(p, q)]
    edges = _half_block_edges(b, p, q, src, dst) if len(p) == len(q) else None
    if edges is not None:
        sub = _route_parts(len(b), b.diagonal(), *edges)
        lam, w = np.linalg.eigh(b) if sub is None else _bipartite_eigh(b, *sub, *edges)
        col = np.argsort(-np.abs(lam), kind="stable")
        s, sign = np.abs(lam[col]), np.where(lam[col] < 0, -1.0, 1.0)
        u = v = w
    else:
        u, s, vt = np.linalg.svd(b)
        v, col, sign = vt.T, np.arange(len(s)), np.ones(len(s))
    del b  # done with: the peak is vectors, U, V and one block
    n, r = len(mat), len(s)
    h = math.sqrt(0.5)
    # columns: c + s, c on the null vectors of the longer side (zero on the
    # other), c - s reversed
    vectors = np.empty((n, n))
    for rows, basis, head, tail in ((p, u, np.full(r, h), np.full(r, h)),
                                    (q, v, h * sign, -h * sign[::-1])):
        nulls = np.arange(r, len(rows)) if len(rows) > r else np.zeros(n - 2 * r, dtype=int)
        block = np.take(basis, np.concatenate((col, nulls, col[::-1])), axis=1)
        block *= np.concatenate((head, np.ones(n - 2 * r), tail))
        if len(rows) == r:
            block[:, r:n - r] = 0.0
        vectors[rows] = block
        del block  # so the next take does not hold a second block alive
    return np.concatenate((c + s, np.full(n - 2 * r, c), (c - s)[::-1])), vectors


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


def _check_scale(scale: float) -> None:
    """NumericFailureError unless ||M||_inf and twice it (bounding every eigenvalue gap) are finite."""
    if not math.isfinite(scale):
        raise NumericFailureError("matrix has a non-finite entry or infinity-norm")
    if not math.isfinite(2.0 * scale):
        raise NumericFailureError(f"matrix infinity-norm {scale:.3g} overflows eigenvalue differences")


def decompose(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """Group the spectrum of a real symmetric matrix into distinct eigenvalues.

    Single-linkage clustering on the sorted spectrum with threshold
    tol_group * ||M||_inf, so that scaling M by c > 0 scales every cluster
    gap and the threshold alike; each cluster's eigenvalue is the mean and
    its eigenvectors become one contiguous column block, blocks in
    descending eigenvalue order.

    m is a Hamiltonian or a raw matrix. A Hamiltonian is exactly symmetric
    by construction: ||M||_inf = max_i (|d_i| + sum of |v| at i) and the
    route come from its diagonal and edge arrays, with no pass over the
    dense matrix. A raw matrix must be symmetric to 1e-12 * max(1, ||M||_inf)
    and, when exactly symmetric, has its nonzeros above the diagonal as edges.

    The sorted spectrum comes from np.linalg.eigh, or from the half-size
    block B of M = cI + [[0, B], [B^T, 0]] (_bipartite_eigh) when
    _route_parts finds parts P, Q: from n = BIPARTITE_MIN_N on, the
    adjacency of a bipartite graph or the Laplacian of a regular one
    (Q10: 9-12 ms against 115-130 ms for eigh, on one core).
    BIPARTITE_MIN_N is the crossover measured on paths, cycles and
    hypercubes; it also keeps the bytes of every recorded CLI golden, all
    smaller: the factorisations agree to rounding, not in their last bits.

    Raises InvalidStateError for an empty, non-square or asymmetric matrix
    and NumericFailureError for a non-finite or overflowing M.
    """
    if isinstance(m, Hamiltonian):
        g, mat = m.graph, m.matrix
        with np.errstate(over="ignore"):  # an overflowing row sum is inf, so refused
            scale = float(np.max(np.abs(m.diagonal) + _vertex_sums(g.n, g.src, g.dst, np.abs(m.values))))
        _check_scale(scale)
        edges = g.src, g.dst
        parts = _route_parts(g.n, m.diagonal, *edges)
    else:
        mat = np.asarray(m, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError("matrix must be square")
        if not mat.size:
            raise InvalidStateError("matrix must have at least one row")
        with np.errstate(over="ignore"):  # a non-finite entry or row sum leaves scale nan or inf
            scale = float(np.linalg.norm(mat, np.inf))
            asymmetry = _asymmetry(mat) if math.isfinite(scale) else 0.0  # inf if it overflows
        if asymmetry > 1e-12 * max(1.0, scale):
            raise InvalidStateError("matrix must be symmetric")
        _check_scale(scale)
        edges = _dense_edges(mat) if asymmetry == 0 else None
        parts = None if edges is None else _route_parts(len(mat), mat.diagonal(), *edges)
    try:
        evals, evecs = np.linalg.eigh(mat) if parts is None else _bipartite_eigh(mat, *parts, *edges)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc

    threshold = cfg.tol_group * scale
    n = len(evals)
    bounds, means = _clusters(evals if parts is None else evals[::-1], threshold)
    values = means[::-1].copy()
    offsets = n - bounds[::-1]
    counts = np.diff(offsets)
    if parts is None:
        # eigh's columns regrouped in descending cluster order, each block's
        # columns ascending: block j starts at offsets[j] and takes evals'
        # columns from bounds[k - 1 - j]
        vectors = evecs[:, np.arange(n) + np.repeat(bounds[-2::-1] - offsets[:-1], counts)]
    else:
        vectors = evecs  # the route wrote them descending
    mults = tuple(counts.tolist())

    gaps = values[:-1] - values[1:]
    warnings = tuple(
        f"cluster gap {gaps[j]:.3e} between eigenvalues {values[j]:.6g} "
        f"and {values[j + 1]:.6g} is below twice the clustering threshold"
        for j in np.flatnonzero(gaps < 2.0 * threshold)
    )
    for arr in (values, vectors, offsets):
        arr.setflags(write=False)
    return SpectralDecomposition(
        eigenvalues=values,
        vectors=vectors,
        offsets=offsets,
        multiplicities=mults,
        scale=scale,
        ambiguous=bool(warnings),
        warnings=warnings,
    )


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


def _grid_walk(dec: SpectralDecomposition, t_max: float, steps: int, coef) -> np.ndarray:
    """walk(dec, t, coef) on the steps >= 2 uniform times t_m = m dt from 0 to
    t_max, from a factorised phase table: with B = ceil(sqrt(steps)) and
    A = ceil(steps / B), t_{aB+b} = aB dt + b dt, so the amplitudes are the
    (A, k) coarse phases exp(i aB dt lambda) scaled by coef, times the (k, B)
    fine phases exp(i b dt lambda), raveled: (A + B) k exponentials and one
    complex GEMM in place of steps k exponentials. Each phase's rounding error
    is within a few eps |t_max| max|lambda| of the direct one; the guard is
    walk's, on |t_max|."""
    lam = dec.eigenvalues
    check_phase(abs(t_max), float(max(lam[0], -lam[-1])))
    dt = t_max / (steps - 1)
    cols = math.isqrt(steps - 1) + 1  # B
    # integer multiples of dt, each rounded once, as np.linspace's own times
    coarse = np.exp(1j * np.multiply.outer(np.arange(0, steps, cols) * dt, lam))
    fine = np.exp(1j * np.multiply.outer(np.arange(cols) * dt, lam))
    return ((coarse * coef) @ fine.T).ravel()[:steps]


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
