"""Eigendecomposition into distinct eigenvalues, each held as a block of
orthonormal eigenvectors, and the walk operator built from them.

The projector E_j = V_j V_j^T of cluster j, V_j its column block of the
eigenvector matrix V, is never stored. A stage reaches V only through the
record of its states, Projection: c = V^T X formed once, read as cluster
sums over c and lifts V c, which do not depend on the basis eigh picked
inside a cluster. Norms are sums over c too (Parseval), but for a fidelity's
denominator, the states' own, so that an inconsistent V shows. Each route
of decompose's table ROUTES holds V in its own format (one of Basis) behind
one protocol (n, project, lift, dense), so a hypercube, grid, torus, cycle,
complete graph, path, complete bipartite graph or join of either kind is
decided with no (n, n) array of its size."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidStateError, NumericFailureError
from .graphs import LAPLACIAN, Hamiltonian, _dense, _vertex_sums
from .tolerances import DEFAULT_TOLERANCES, FIDELITY_CLAMP, GAP_WARNING, STATE_PEAK, SYMMETRY_TOL, ToleranceConfig


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


class BipartiteBasis:
    """The eigenvectors V of cI + [[0, B], [B^T, 0]] on the parts P, Q, held
    as the SVD B = U S W^T (u = U, v = W) of the bipartite route. With
    r = min(|P|, |Q|), V's columns are the r plus vectors [u_i; w_i]/sqrt(2),
    the null columns u_i (rows P) or w_i (rows Q), i >= r, of the longer
    side, and the r minus vectors [u_i; -w_i]/sqrt(2) in reverse. project
    and lift make no (n, n) array; dense() builds V."""

    def __init__(self, p: np.ndarray, q: np.ndarray, u: np.ndarray, v: np.ndarray):
        self.p, self.q, self.u, self.v = p, q, u, v
        self.n = len(p) + len(q)

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x for an (n, b) x."""
        n, r, h = self.n, min(len(self.p), len(self.q)), math.sqrt(0.5)
        a, b = self.u.T @ x[self.p], self.v.T @ x[self.q]
        out = np.empty((n, x.shape[1]))
        np.add(a[:r], b[:r], out=out[:r])
        np.subtract(a[:r], b[:r], out=out[n - r:][::-1])
        out[:r] *= h
        out[n - r:] *= h
        out[r:n - r] = a[r:] if len(self.p) > r else b[r:]
        return out

    def lift(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c, as V c with the rows of c outside cols zero."""
        n, r, h = self.n, min(len(self.p), len(self.q)), math.sqrt(0.5)
        c, given = np.zeros((n, c.shape[1])), c
        c[cols] = given
        parts = []
        for side, sub, fold in ((self.p, self.u, np.add), (self.q, self.v, np.subtract)):
            z = np.empty((len(side), c.shape[1]))
            fold(c[:r], c[n - r:][::-1], out=z[:r])
            z[:r] *= h
            if len(side) > r:  # the null columns are the longer side's
                z[r:] = c[r:n - r]
            parts.append(sub @ z)
        out = np.empty((n, c.shape[1]))
        out[self.p], out[self.q] = parts
        return out

    def dense(self) -> np.ndarray:
        """V as one (n, n) array."""
        n, r, h = self.n, min(len(self.p), len(self.q)), math.sqrt(0.5)
        vectors = np.zeros((n, n))
        for rows, basis, tail in ((self.p, self.u, h), (self.q, self.v, -h)):
            vectors[rows, :r] = basis[:, :r] * h
            vectors[rows, n - r:] = basis[:, :r][:, ::-1] * tail
            if len(rows) > r:  # the null columns are the longer side's
                vectors[rows, r:n - r] = basis[:, r:]
        return vectors


class FourierBasis:
    """The eigenvectors V of an n x n circulant M, the real Fourier vectors
    of the circulant route (Davis, Circulant Matrices, 1979): with h =
    n // 2 + 1, the layout's row k < h is the unit cosine vector of
    frequency k, cos(2 pi k j / n), and its row h + k the unit sine vector,
    for 0 < k < n/2; order holds V's columns among these n rows. project is
    one orthonormal rfft X along axis 0, read as sqrt(2) Re X_k on a cosine
    row, -sqrt(2) Im X_k on a sine row and Re X_k alone at frequency 0 and,
    for even n, n/2, then gathered by order; lift divides by the same
    weights, scatters into a half spectrum and runs one irfft: neither
    makes an (n, n) array; dense() builds V."""

    def __init__(self, n: int, order: np.ndarray):
        self.n, self.order = n, order
        h = n // 2 + 1
        weight = np.full(2 * h, math.sqrt(2.0))
        weight[h:] *= -1.0
        weight[0] = 1.0
        if n % 2 == 0:
            weight[h - 1] = 1.0
        self.weight = weight[order]

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x for an (n, b) x."""
        z = np.fft.rfft(x, axis=0, norm="ortho")
        return np.concatenate((z.real, z.imag))[self.order] * self.weight[:, None]

    def lift(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c, as V c with the rows of c outside cols zero."""
        h = self.n // 2 + 1
        z = np.zeros((2 * h, c.shape[1]))
        z[self.order[cols]] = c / self.weight[cols, None]
        return np.fft.irfft(z[:h] + 1j * z[h:], self.n, axis=0, norm="ortho")

    def dense(self) -> np.ndarray:
        """V as one (n, n) array."""
        return self.lift(np.eye(self.n))


class PathBasis:
    """The eigenvectors V of a uniform path M = tridiag(w, a, w) of the path
    route, the vectors of the DST-I for ends a (Dirichlet) or of the DCT-II
    for ends a + w (Neumann) (Strang, SIAM Review 41, 1999): the layout's row
    k is the unit vector sin(pi (k + 1)(j + 1) / (n + 1)), or
    cos(pi k (j + 1/2) / n); order holds V's columns among these n rows.
    project is one orthonormal rfft of the odd extension [0, x, 0, -Jx]
    (length 2n + 2), read as -Im X_k, or of the even extension [x, Jx]
    (length 2n), read as Re(exp(-i pi k / 2n) X_k), halved in power at
    k = 0; then gathered by order. lift scatters by order and runs the same
    DST-I, its own inverse, or one irfft of the twiddled coefficients
    (DCT-III): neither makes an (n, n) array; dense() builds V."""

    def __init__(self, n: int, neumann: bool, order: np.ndarray):
        self.n, self.neumann, self.order = n, neumann, order

    def _dst(self, x: np.ndarray) -> np.ndarray:
        """S x for an (n, b) x and the orthonormal DST-I S = S^T = S^-1."""
        n = self.n
        ext = np.zeros((2 * n + 2, x.shape[1]))
        ext[1:n + 1] = x
        ext[n + 2:] = -x[::-1]
        return -np.fft.rfft(ext, axis=0, norm="ortho").imag[1:n + 1]

    def _twiddle(self) -> np.ndarray:
        """The half-sample shifts exp(i pi k / 2n), k < n, as an (n, 1) column."""
        return np.exp(1j * np.pi / (2 * self.n) * np.arange(self.n))[:, None]

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x for an (n, b) x."""
        if not self.neumann:
            return self._dst(x)[self.order]
        z = np.fft.rfft(np.concatenate((x, x[::-1])), axis=0, norm="ortho")[:self.n]
        out = (z * self._twiddle().conj()).real
        out[0] *= math.sqrt(0.5)
        return out[self.order]

    def lift(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c, as V c with the rows of c outside cols zero."""
        n = self.n
        z = np.zeros((n, c.shape[1]))
        z[self.order[cols]] = c
        if not self.neumann:
            return self._dst(z)
        z[0] *= math.sqrt(2.0)
        spectrum = np.zeros((n + 1, c.shape[1]), dtype=complex)
        spectrum[:n] = z * self._twiddle()
        return np.fft.irfft(spectrum, 2 * n, axis=0, norm="ortho")[:n]

    def dense(self) -> np.ndarray:
        """V as one (n, n) array."""
        return self.lift(np.eye(self.n))


class KroneckerBasis:
    """The eigenvectors V = (g (x) h)[:, order] of a box product
    M = M_G (x) I + I (x) M_H on the vertices v = a |H| + b, held as the
    product route finds them: G's basis g (any of Basis but this one:
    FourierBasis, as for a prism C_n x K2 or a torus, PathBasis, as for a
    ladder P_n x K2, JoinBasis, as for K_{p,p} x K2), H's dense h, whatever
    route took H, and order, V's columns among the g_i (x) h_j (column
    i |H| + j). A nested product folds into one h (Q10 is V_Q5 (x) a
    32 x 32 h). With x read as an (|G|, |H|) matrix X, V^T x is g^T X h, and
    V c its reverse: neither makes an (n, n) array; dense() builds V."""

    def __init__(self, g: Basis, h: np.ndarray, order: np.ndarray):
        self.g, self.h, self.order = g, h, order
        self.n = len(order)

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x for an (n, b) x."""
        g, m, b = self.g.n, len(self.h), x.shape[1]
        z = np.tensordot(x.reshape(g, m, b), self.h, axes=(1, 0))  # (|G|, b, |H|)
        z = self.g.project(z.transpose(0, 2, 1).reshape(g, m * b))
        return z.reshape(self.n, b)[self.order]

    def lift(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c, as V c with the rows of c outside cols zero."""
        g, m, b = self.g.n, len(self.h), c.shape[1]
        z = np.zeros((self.n, b))
        z[self.order[cols]] = c
        z = self.g.lift(z.reshape(g, m * b))
        z = np.tensordot(z.reshape(g, m, b), self.h, axes=(1, 1))  # (|G|, b, |H|)
        return z.transpose(0, 2, 1).reshape(self.n, b)

    def dense(self) -> np.ndarray:
        """V as one (n, n) array: column k is g_i (x) h_j for
        (i, j) = divmod(order[k], |H|), formed as one broadcast product."""
        i, j = np.divmod(self.order, len(self.h))
        return (self.g.dense()[:, i][:, None, :] * self.h[:, j][None, :, :]).reshape(self.n, self.n)


def _reflect(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(I - 2 w w^T) y for a unit w and an (len(w), b) y, in O(len(w) b)."""
    return y - np.outer(w, 2.0 * (w @ y))


class JoinBasis:
    """The eigenvectors V of a join M = [[A, cJ], [cJ, B]] on the vertices
    [0, s) and [s, n), A and B with constant row sums, as the join route
    finds them (Merris, Linear Algebra Appl. 278, 1998): for each factor,
    its basis (any of Basis, or None for an edgeless factor, whose basis is
    I) turned by the Householder reflection I - 2 w w^T of its coefficients
    that maps the factor's unit ones vector to its column k, so that its
    other columns are orthogonal to it; then the 2 x 2 rotation q of the
    two ones columns into the quotient's eigenvectors. order holds V's
    columns among the n of this layout, A's first. project and lift make no
    (n, n) array, an edgeless factor's costing O(p); dense() builds V."""

    def __init__(self, s: int, sides: tuple, q: np.ndarray, order: np.ndarray):
        self.s, self.sides, self.q, self.order = s, sides, q, order  # sides: (basis, w, k) of A, of B
        self.n = len(order)
        self.ends = [sides[0][2], s + sides[1][2]]  # the layout rows of the two ones columns

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x for an (n, b) x."""
        z = np.concatenate([_reflect(w, part if basis is None else basis.project(part))
                            for (basis, w, _), part in zip(self.sides, (x[:self.s], x[self.s:]))])
        z[self.ends] = self.q.T @ z[self.ends]
        return z[self.order]

    def lift(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c, as V c with the rows of c outside cols zero."""
        z = np.zeros((self.n, c.shape[1]))
        z[self.order[cols]] = c
        z[self.ends] = self.q @ z[self.ends]
        for (basis, w, _), part in zip(self.sides, (z[:self.s], z[self.s:])):
            part[:] = _reflect(w, part)
            if basis is not None:
                part[:] = basis.lift(part)
        return z

    def dense(self) -> np.ndarray:
        """V as one (n, n) array."""
        return self.lift(np.eye(self.n))


# V, as each route holds it
Basis = DenseBasis | BipartiteBasis | KroneckerBasis | FourierBasis | PathBasis | JoinBasis


@dataclass(eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (strictly decreasing) with their eigenvector blocks:
    cluster j is spanned by the columns offsets[j]:offsets[j + 1] of V, which
    basis holds (one of Basis) as the named route found it. The stages reach
    V^T X only through a Projection (basis.project); a lift V[:, cols] C is
    formed only by Projection.reflect, evolve, universal_pst_pair and
    transition_matrix (of the identity, on the columns outside the largest
    cluster), and V itself by no public call. Projection.of keeps the states
    and coefficients of its last PROJECTION_MEMO state tuples on the
    decomposition, outside its fields (dataclasses.replace starts empty), as
    arrays only, so the memo makes no reference cycle."""

    eigenvalues: np.ndarray                   # shape (k,), descending
    basis: Basis                              # V, columns grouped by cluster
    offsets: np.ndarray                       # shape (k + 1,), cluster column boundaries
    multiplicities: tuple[int, ...]
    scale: float                              # ||M||_inf of the decomposed matrix
    route: str                                # ROUTES' entry that took M: product, ..., join, ..., eigh
    widths: np.ndarray                        # shape (k,), each cluster's lambda_first - lambda_last
    warnings: tuple[str, ...] = ()            # one per cluster gap below GAP_WARNING x the threshold

    @property
    def ambiguous(self) -> bool:
        """Whether some cluster gap was below GAP_WARNING times the clustering threshold."""
        return bool(self.warnings)

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def __post_init__(self):
        self._projections: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}  # Projection.of's memo

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


PROJECTION_MEMO = 4   # state tuples whose projection Projection.of keeps per decomposition


class Projection:
    """c = V^T X of an (n, b) state matrix X (of(): 1-D states), formed once
    behind the one state check; per-state quantities are cluster sums or lifts.
    of() projects a tuple of states once per decomposition while it stays
    among the last PROJECTION_MEMO: the key is the bytes of the checked
    float array, so a repeat reads back the bits a fresh projection gives,
    as read-only arrays."""

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
        key, memo = rows.tobytes(), dec._projections
        if key in memo:
            memo[key] = memo.pop(key)  # now the newest
            proj = cls.__new__(cls)
            proj.dec, (proj.states, proj.coef) = dec, memo[key]
            return proj
        proj = cls(dec, rows.T)
        for arr in (proj.states, proj.coef):
            arr.setflags(write=False)
        memo[key] = proj.states, proj.coef
        if len(memo) > PROJECTION_MEMO:
            del memo[next(iter(memo))]  # the least recently read
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
        flip = np.repeat(np.isin(np.arange(self.dec.k), clusters), self.dec.multiplicities)
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
    """||M||_inf = max_i (sum of |entries| at i, then + |d_i|) in one bincount,
    which adds in input order, as graphs._vertex_sums, and leaves an
    overflowing row sum inf with no warning, unlike a ufunc."""
    size = np.abs(entries)
    ends = np.concatenate((dst, src, np.arange(n)))
    return float(np.bincount(ends, np.concatenate((size, size, np.abs(diagonal))), n).max())


def _edge_form(m) -> EdgeForm:
    """decompose's one door: the EdgeForm of a Hamiltonian, from its arrays
    with no dense pass (a value of 0 is no entry of M, and its edge is
    dropped, as the nonzero mask of M drops it), or of a raw matrix, which
    must be square, non-empty and symmetric to SYMMETRY_TOL * ||M||_inf,
    relative with no floor, so that scaling M by c > 0 keeps the verdict
    (exactly symmetric, its ||M||_inf is _edge_scale's, as a Hamiltonian's).
    A Laplacian's is read off its diagonal as 2 max(d), bit for bit
    _edge_scale's: d is _vertex_sums of w, added in the order in which
    _edge_scale adds |-w|, so each row sum is d_i + d_i (inf on overflow).
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


def _route_parts(form: EdgeForm) -> tuple[np.ndarray, np.ndarray] | None:
    """The sorted parts P, Q on which the form takes the bipartite route
    (_bipartite_eigh); None for two diagonal values. Vertex 0's edges settle
    the dense patterns in O(m): a triangle through it has no 2-colouring, and
    a complete bipartite pattern is left to the routes after it, while the SVD
    of its rank-one block is erratic (1.8x eigh's time over K_{p,q}, 64 <= p +
    q <= 256); a uniform one, K_{p,q} as built, meets the join route before
    this one. Otherwise a breadth-first search colours each component from
    its least vertex, refuses at the first edge inside a colour and stops once
    every vertex is coloured; one pass over the edges then checks each joins P
    to Q."""
    n, diagonal, src, dst = form.n, form.diagonal, form.src, form.dst
    if (diagonal != diagonal[0]).any():
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


def _block_entries(n: int, p: np.ndarray, q: np.ndarray, src: np.ndarray,
                   dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) for each edge (src, dst) of the n x n M, which each join P to
    Q: the edge (p_i, q_k) is the entry (i, k) of B = M[P, Q]."""
    in_q = np.zeros(n, dtype=bool)
    in_q[q] = True
    rank = np.empty(n, dtype=np.intp)
    rank[p] = np.arange(len(p))
    rank[q] = np.arange(len(q))
    flip = in_q[src]
    return rank[np.where(flip, dst, src)], rank[np.where(flip, src, dst)]


def _dense_block(shape: tuple[int, int], i: np.ndarray, k: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The SVD's rectangular block B = M[P, Q] of the given shape, with the
    entries at (i, k) (_block_entries) and zero elsewhere, float for float
    the gather from the dense M (a -0.0 off M's nonzeros reads as 0.0)."""
    b = np.zeros(shape)
    b[i, k] = entries
    return b


def _bipartite_eigh(form: EdgeForm, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, BipartiteBasis]:
    """The eigenpairs, descending, of the form's M = cI + A, A zero inside P
    and inside Q, from an SVD of the half-size block B = M[P, Q] = U S V^T
    (Golub and Van Loan, Matrix Computations, 8.6): A has the eigenpairs
    (+-s_i, [u_i; +-v_i]/sqrt(2)) for i < r = min(|P|, |Q|), and 0 on the
    columns [u; 0] (or [0; v]) of U (or V) past r. Neither M nor V is
    formed: V is returned factored (BipartiteBasis), and B is made dense
    (_dense_block) only for np.linalg.svd."""
    n, c = form.n, form.diagonal[0]
    i, k = _block_entries(n, p, q, form.src, form.dst)
    u, s, vt = np.linalg.svd(_dense_block((len(p), len(q)), i, k, form.entries))
    return np.concatenate((c + s, np.full(n - 2 * len(s), c), (c - s)[::-1])), BipartiteBasis(p, q, u, vt.T)


def _divisors(n: int) -> list[int]:
    """The divisors q of n with 1 < q < n, ascending."""
    small = [q for q in range(2, math.isqrt(n) + 1) if n % q == 0]
    return small + [n // q for q in reversed(small) if q * q != n]


def _box_split(form: EdgeForm) -> tuple[EdgeForm, EdgeForm] | None:
    """G's and H's EdgeForms at the least divisor q of n at which the form's
    M is a box product (_box_factors), else None. Vertices 0 = (0, 0) and
    1 = (0, 1) settle most q at once: vertex 0 needs a neighbour below q, in
    its copy of H, and one at or past q, in its copy of G, each of these a
    multiple of q, and vertex 1's neighbours at or past q are those plus 1.
    So a path, a cycle or a random graph is passed on in microseconds, as is
    a product whose copy of G or of H through vertex 0 has no edge there."""
    k, k1 = np.searchsorted(form.src, [1, 2]).tolist()  # vertex 0's edges come first, then vertex 1's
    near, after, j = form.dst[:k].tolist(), form.dst[k:k1].tolist(), 0
    for q in _divisors(form.n):
        while j < k and near[j] < q:
            j += 1
        if j == k:
            return None
        if (j and near[j] % q == 0 and math.gcd(*near[j:]) % q == 0
                and [v - 1 for v in after if v >= q] == near[j:]):
            factors = _box_factors(form, q)
            if factors is not None:
                return factors
    return None


def _box_factors(form: EdgeForm, q: int) -> tuple[EdgeForm, EdgeForm] | None:
    """G's and H's EdgeForms when the form's M is exactly
    M_G (x) I_q + I_p (x) M_H, p = n / q, in cartesian_product's labelling
    v = a q + b, else None. In O(m) on the edge keys src n + dst: the edges
    within a block are p runs of H's, each the last shifted by q; every other
    edge joins two blocks in one column b, those with b < q - 1 shifted by 1
    are those with b > 0, and column 0 holds G's. Each d(a q + b) - d(a q)
    must be d(b) - d(0): G's diagonal is d(a q), H's d(b) - d(0)."""
    n, d, src, dst, entries = form.n, form.diagonal, form.src, form.dst, form.entries
    p = n // q
    block = d.reshape(p, q)
    low = block[0] - block[0, 0]
    if (block - block[:, :1] != low).any():
        return None
    a = src // q  # each edge's lesser end is a q + b
    base = a * q
    col = src - base
    inner = dst - base < q
    key = src * n + dst
    i = np.flatnonzero(inner)
    k, e = key[i], entries[i]
    h = int(np.searchsorted(k, q * n))  # block 0's edges, H's, come first
    if len(i) != p * h or (k[h:] - k[:-h] != q * (n + 1)).any() or (e[h:] != e[:-h]).any():
        return None
    outer = ~inner
    lo, hi = np.flatnonzero(outer & (col < q - 1)), np.flatnonzero(outer & (col > 0))
    if len(lo) != len(hi) or (key[hi] - key[lo] != n + 1).any() or (entries[hi] != entries[lo]).any():
        return None
    g = lo[col[lo] == 0]
    far = dst[g]
    b = far // q
    if (b * q != far).any():
        return None
    return _factor_form(p, block[:, 0], a[g], b, entries[g]), _factor_form(q, low, src[i[:h]], dst[i[:h]], e[:h])


def _factor_form(n: int, diagonal: np.ndarray, src: np.ndarray, dst: np.ndarray, entries: np.ndarray) -> EdgeForm:
    """A factor's EdgeForm (of a product or a join) from its arrays, with no
    scale, which no route reads; its dense() is graphs' one dense builder,
    unguarded, as a raw matrix's form is."""
    return EdgeForm(n, diagonal, src, dst, entries, None, lambda: _dense(n, src, dst, diagonal, entries))


def _join_factors(form: EdgeForm) -> tuple[float, list[tuple[EdgeForm, float]]] | None:
    """(c, [(A's EdgeForm, its row sum), (B's, its)]) when the form's M is
    exactly [[A, cJ], [cJ, B]] in join's labelling, A on [0, s) and B on
    [s, n), each with constant row sums, else None. In O(m), with no dense
    M. Vertex 0 must meet every vertex from some lo on, and vertex n - 1
    every vertex below some hi, so lo <= s <= hi. Where lo < hi, the splits
    with all s (n - s) cross edges u < s <= v are counted in one pass, and s
    is the first of them at which the number of edges per vertex changes,
    else the first (K_b = K_1 v K_(b-1) makes C_a v K_b a join at every
    split from a on, and its Laplacian row sums are constant at each). The
    s (n - s) cross edges must then all be there, with one entry c."""
    n, d, src, dst, entries = form.n, form.diagonal, form.src, form.dst, form.entries
    k = int(np.searchsorted(src, 1))  # vertex 0's edges come first
    near = dst[:k]
    if not k or near[-1] != n - 1:
        return None
    gaps = np.flatnonzero(near != np.arange(n - k, n))
    lo = n - k + (gaps[-1] + 1 if gaps.size else 0)
    far = src[dst == n - 1]
    gaps = np.flatnonzero(far != np.arange(len(far)))
    hi = gaps[0] if gaps.size else len(far)
    if lo > hi:
        return None
    s = int(lo)
    if lo < hi:
        splits = np.arange(lo, hi + 1)
        cross = np.searchsorted(src, splits) - np.cumsum(np.bincount(dst, minlength=n))[splits - 1]
        splits = splits[cross == splits * (n - splits)]
        degree = np.bincount(np.concatenate((src, dst)), minlength=n)
        steps = splits[degree[splits] != degree[splits - 1]]
        s = int(steps[0] if steps.size else splits[0] if splits.size else lo)
    tail = int(np.searchsorted(src, s))  # B's edges come last; before them, A's and the cross edges
    in_a = dst[:tail] < s
    c = entries[:tail][~in_a]
    if len(c) != s * (n - s) or (c != c[0]).any():
        return None
    factors = []
    for f in (_factor_form(s, d[:s], src[:tail][in_a], dst[:tail][in_a], entries[:tail][in_a]),
              _factor_form(n - s, d[s:], src[tail:] - s, dst[tail:] - s, entries[tail:])):
        sums = _vertex_sums(f.n, f.src, f.dst, f.entries) + f.diagonal
        if (sums != sums[0]).any():
            return None
        factors.append((f, float(sums[0])))
    return float(c[0]), factors


def _product_route(form: EdgeForm):
    """A box product G x H (_box_split) from its factors' eigenpairs, each
    from the route table (_eigenpairs), H's held dense: the eigenpairs
    (lambda_i + mu_j, g_i (x) h_j) sorted descending into a KroneckerBasis,
    into which a factored G's own KroneckerBasis folds, so Q10 splits down
    to one eigh of Q5 (Q10 built and decomposed: 0.8-0.9 ms against 230-270
    ms by eigh; the P45 x P45 grid: 1.0-1.1 ms against 220-320 ms by eigh or
    the bipartite route's SVD; best of runs on one core of a 2-vCPU machine,
    as every time here)."""
    factors = _box_split(form)
    if factors is None:
        return None
    (lam, g, _), (mu, h, _) = _eigenpairs(factors[0]), _eigenpairs(factors[1])
    h, q = h.dense(), factors[1].n
    sums = np.add.outer(lam, mu).ravel()  # entry i q + j: the column g_i (x) h_j
    order = np.argsort(-sums, kind="stable")
    evals = sums[order]
    if isinstance(g, KroneckerBasis):  # g_i is the column g.order[i] of g.g (x) g.h
        h = (g.h[:, None, :, None] * h[None, :, None, :]).reshape(len(g.h) * q, -1)  # np.kron(g.h, h)
        g, order = g.g, (q * g.order[:, None] + np.arange(q)).ravel()[order]
    return evals, KroneckerBasis(g, h, order)


def _circulant_route(form: EdgeForm):
    """A circulant M, m_ij = r_((j - i) mod n), by one real FFT of its first row
    r: eigenvalue rfft(r)[k].real for the cosine and the sine vector of
    frequency k alike, so each pair is degenerate exactly, sorted descending
    into a FourierBasis. Detected exactly in O(m) from the form: one diagonal
    value, and the circular distance d = min(j - i, n - (j - i)) of every edge
    sorts the edges into classes that are each empty or complete (n edges, n/2
    at d = n/2, the form's edges being distinct) and hold one entry each.
    numpy.fft loads on first access (about 0.9 ms), so only a circulant
    reaches it (C300 Laplacian: 0.12 ms, against 4.5 ms by the bipartite
    route's SVD)."""
    n, src, dst, entries = form.n, form.src, form.dst, form.entries
    if (form.diagonal != form.diagonal[0]).any():
        return None
    step = dst - src
    h = n // 2 + 1
    full = np.full(h, n)
    if n % 2 == 0:
        full[-1] = n // 2  # the diameters
    counts = np.bincount(np.minimum(step, n - step), minlength=h)
    if ((counts != 0) & (counts != full)).any():
        return None
    row = np.zeros(n)
    row[step] = entries
    row[n - step] = entries
    if (row[step] != entries).any():  # two entries in one class
        return None
    row[0] = form.diagonal[0]
    lam = np.fft.rfft(row).real
    rows = np.r_[:h, h + 1:n + 1]  # the layout's cosine rows, then its sine rows
    values = np.concatenate((lam, lam))[rows]
    order = np.argsort(-values, kind="stable")
    return values[order], FourierBasis(n, rows[order])


def _path_route(form: EdgeForm):
    """A uniform path M = tridiag(w, a, w) in closed form: with ends a
    (Dirichlet), the eigenvalues a + 2w cos(pi k / (n + 1)), k = 1..n, on the
    DST-I vectors; with ends a + w (Neumann), a + 2w cos(pi k / n), k = 0..n -
    1, on the DCT-II vectors; sorted descending into a PathBasis. Detected
    exactly in O(n) from the form: the n - 1 edges (i, i + 1), all with one
    entry w, one interior diagonal value a, and both ends equal to a or to a +
    w as it rounds. So a path shifted by cI whose end sum a + w rounds away
    from its shifted end value is passed on, to eigh, which is slower but as
    correct (P300 adjacency: 0.09 ms, against 3.7 ms by the bipartite route's
    SVD)."""
    n, d, src, dst, entries = form.n, form.diagonal, form.src, form.dst, form.entries
    if len(src) != n - 1:
        return None
    w, a, r = entries[0], d[1], np.arange(n)
    if (not np.array_equal(src, r[:-1]) or not np.array_equal(dst, r[1:]) or (entries != w).any()
            or (d[1:-1] != a).any() or d[0] != d[-1] or d[0] not in (a, a + w)):
        return None
    neumann = bool(d[0] != a)
    values = a + 2.0 * w * np.cos(np.pi / n * r if neumann else np.pi / (n + 1) * (r + 1))
    order = np.argsort(-values, kind="stable")
    return values[order], PathBasis(n, neumann, order)


def _join_route(form: EdgeForm):
    """A join [[A, cJ], [cJ, B]] (_join_factors), A of p vertices with row
    sums alpha and B of q with beta, from its factors' eigenpairs (Cvetkovic,
    Rowlinson and Simic, An Introduction to the Theory of Graph Spectra,
    2010): each eigenvector of A orthogonal to its ones vector, padded with
    zeros, keeps its eigenvalue, and so does each of B's; the quotient
    [[alpha, c sqrt(pq)], [c sqrt(pq), beta]] on the two unit ones vectors
    gives the last two. A and B go back through the table (_eigenpairs),
    but for an edgeless factor, alpha I, whose basis is I; in each, a
    Householder reflection splits the ones vector off the columns that hold
    it (a disconnected factor's cluster at alpha, say); all sorted
    descending into a JoinBasis (K_{88,162} Laplacian built and decomposed:
    0.39-0.40 ms, against 3.3 ms by eigh)."""
    join = _join_factors(form)
    if join is None:
        return None
    c, factors = join
    values, sides, signs = [], [], []
    for f, alpha in factors:
        unit = np.full(f.n, 1.0 / math.sqrt(f.n))  # the unit ones vector
        if len(f.src):
            lam, basis, _ = _eigenpairs(f)
            z = basis.project(unit[:, None])[:, 0]
        else:
            lam, basis, z = np.full(f.n, alpha), None, unit
        k = int(np.argmax(np.abs(z)))
        signs.append(math.copysign(1.0, z[k]))
        w = z.copy()
        w[k] += signs[-1]  # the reflection maps z to -sign(z_k) e_k
        sides.append((basis, w / np.linalg.norm(w), k))
        values.append(np.array(lam, dtype=float))
    (a, alpha), (b, beta) = factors
    off = signs[0] * signs[1] * c * math.sqrt(a.n * b.n)
    mu, q = np.linalg.eigh(np.array([[alpha, off], [off, beta]]))
    values[0][sides[0][2]], values[1][sides[1][2]] = mu
    values = np.concatenate(values)
    order = np.argsort(-values, kind="stable")
    return values[order], JoinBasis(a.n, tuple(sides), q, order)


def _bipartite_route(form: EdgeForm):
    """cI + [[0, B], [B^T, 0]] on the parts _route_parts finds, by one SVD of
    B (_bipartite_eigh) (P300 adjacency with weight 2 on both end edges:
    3.4 ms, against 8.2 ms by eigh)."""
    parts = _route_parts(form)
    return None if parts is None else _bipartite_eigh(form, *parts)


def _eigh_route(form: EdgeForm) -> tuple[np.ndarray, DenseBasis]:
    """np.linalg.eigh of the dense M, which takes every form (Q10's 1024 x
    1024 matrix: 230-270 ms)."""
    evals, vectors = np.linalg.eigh(form.dense())
    return evals, DenseBasis(vectors)


ROUTES = (_product_route, _circulant_route, _path_route, _join_route, _bipartite_route, _eigh_route)


def route_name(route) -> str:
    """A route's name in SpectralDecomposition.route: eigh for _eigh_route."""
    return route.__name__[1:-len("_route")]


def _eigenpairs(form: EdgeForm) -> tuple[np.ndarray, Basis, str]:
    """(values, basis, route_name) of the first route of ROUTES that does not
    pass the form on (None), its values sorted in either direction. A form
    below ROUTE_MIN_N, with no edges, or with no edge list (symmetric only to
    SYMMETRY_TOL) goes to eigh alone."""
    routed = form.n >= ROUTE_MIN_N and form.src is not None and len(form.src)
    for route in ROUTES if routed else ROUTES[-1:]:
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
    EdgeForm, and the spectrum comes from the first route of ROUTES that
    takes it (_eigenpairs): from ROUTE_MIN_N on, five routes for structures
    detected exactly on the form, none reading the dense matrix, and
    np.linalg.eigh for every form. ROUTE_MIN_N is the crossover
    measured on paths, cycles and hypercubes and keeps the bytes of every
    CLI golden, all smaller: the routes agree with eigh to rounding only.

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
