"""The route table of decompose, ROUTES, and the factored bases its routes
hold V in: each route detects one structure exactly on the EdgeForm, in
O(m), and returns its eigenpairs (values sorted in either direction, and a
basis of spectral's protocol n, project, lift, dense) or passes the form on
(None); ROUTES ends in spectral._eigh_route, which takes every form.

spectral._eigenpairs imports this module on the first form of ROUTE_MIN_N
vertices or more and reads ROUTES through it on each call, so a process
that decomposes only smaller matrices, as every CLI golden does, never
compiles it; a product's and a join's factors go back through
_eigenpairs."""

from __future__ import annotations

import math

import numpy as np

from .graphs import _dense, _vertex_sums
from .spectral import DenseBasis, EdgeForm, _eigenpairs, _eigh_route


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
    product route finds them: G's basis g and H's basis h, each any of Basis
    (Q12 = Q6 x Q6 holds two of this class), and order, V's columns among
    the g_i (x) h_j (column i |H| + j). With x read as an (|G|, |H|) matrix
    X, V^T x is g^T X h, by g.project and h.project along the two axes, and
    V c its reverse: neither makes an (n, n) array; dense() builds V."""

    def __init__(self, g: Basis, h: Basis, order: np.ndarray):
        self.g, self.h, self.order = g, h, order
        self.n = len(order)

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x for an (n, b) x."""
        g, m, b = self.g.n, self.h.n, x.shape[1]
        z = self.g.project(x.reshape(g, m * b))
        z = self.h.project(z.reshape(g, m, b).transpose(1, 0, 2).reshape(m, g * b))
        return z.reshape(m, g, b).transpose(1, 0, 2).reshape(self.n, b)[self.order]

    def lift(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c, as V c with the rows of c outside cols zero."""
        g, m, b = self.g.n, self.h.n, c.shape[1]
        z = np.zeros((self.n, b))
        z[self.order[cols]] = c
        z = self.g.lift(z.reshape(g, m * b))
        z = self.h.lift(z.reshape(g, m, b).transpose(1, 0, 2).reshape(m, g * b))
        return z.reshape(m, g, b).transpose(1, 0, 2).reshape(self.n, b)

    def dense(self) -> np.ndarray:
        """V as one (n, n) array: column k is g_i (x) h_j for
        (i, j) = divmod(order[k], |H|), formed as one broadcast product."""
        i, j = np.divmod(self.order, self.h.n)
        return (self.g.dense()[:, i][:, None, :] * self.h.dense()[:, j][None, :, :]).reshape(self.n, self.n)


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
    """G's and H's EdgeForms at the most balanced divisor q of n, least
    max(q, n / q) and then least q, at which the form's M is a box product
    (_box_factors), else None. Vertices 0 = (0, 0) and 1 = (0, 1) screen the
    divisors from the least: vertex 0 needs a neighbour below q, in its copy
    of H, and one at or past q, in its copy of G, each of these a multiple of
    q, and vertex 1's neighbours at or past q are those plus 1. So a path, a
    cycle or a random graph is passed on in microseconds, Q10 splits once,
    as Q5 x Q5, and P45 x P45 is checked at q = 45 only, not at 3, 5, 9, 15."""
    k, k1 = np.searchsorted(form.src, [1, 2]).tolist()  # vertex 0's edges come first, then vertex 1's
    near, after, j, passed = form.dst[:k].tolist(), form.dst[k:k1].tolist(), 0, []
    for q in _divisors(form.n):
        while j < k and near[j] < q:
            j += 1
        if j == k:
            break
        if (j and near[j] % q == 0 and math.gcd(*near[j:]) % q == 0
                and [v - 1 for v in after if v >= q] == near[j:]):
            passed.append(q)
    for q in sorted(passed, key=lambda q: max(q, form.n // q)):  # a stable sort: the smaller q on a tie
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
    from the route table (_eigenpairs) in its own basis: the eigenpairs
    (lambda_i + mu_j, g_i (x) h_j) sorted descending into a KroneckerBasis
    (Q10 built and decomposed: 0.7-0.8 ms against 230-270 ms by eigh; the
    P45 x P45 grid: 0.95-1.05 ms against 220-320 ms by eigh or the bipartite
    route's SVD; best of runs on one core of a 2-vCPU machine, as every time
    here)."""
    factors = _box_split(form)
    if factors is None:
        return None
    (lam, g, _), (mu, h, _) = _eigenpairs(factors[0]), _eigenpairs(factors[1])
    sums = np.add.outer(lam, mu).ravel()  # entry i |H| + j: the column g_i (x) h_j
    order = np.argsort(-sums, kind="stable")
    return sums[order], KroneckerBasis(g, h, order)


def _circulant_route(form: EdgeForm):
    """A circulant M, m_ij = r_((j - i) mod n), by one real FFT of its first row
    r: eigenvalue rfft(r)[k].real for the cosine and the sine vector of
    frequency k alike, so each pair is degenerate exactly, sorted descending
    into a FourierBasis. Detected exactly in O(m) from the form: one diagonal
    value, and the circular distance d = min(j - i, n - (j - i)) of every edge
    sorts the edges into classes that are each empty or complete (n edges, n/2
    at d = n/2, the form's edges being distinct) and hold one entry each.
    Every circulant is regular, so a form with 2m != n deg(0) is passed on
    first, in O(log m) (K100,156 adjacency: 1.7 us, against 36 us for the
    class count). numpy.fft loads on first access (about 0.9 ms), so only a
    circulant reaches it (C300 Laplacian: 0.12 ms, against 4.5 ms by the
    bipartite route's SVD)."""
    n, src, dst, entries = form.n, form.src, form.dst, form.entries
    if 2 * len(src) != n * int(src.searchsorted(1)):  # vertex 0's edges come first
        return None
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


ROUTES = (_product_route, _circulant_route, _path_route, _join_route, _bipartite_route, _eigh_route)
