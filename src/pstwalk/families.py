"""Closed-form eigenbases and transfer catalogs for complete graphs, cycles,
paths (adjacency and Laplacian), and complete bipartite graphs.

Each family case records which eigenvalue groups a state may occupy and which
components flip sign in its partner. Only pair_plus_catalog runs the engine:
it keeps an entry only when pst_decide confirms it. The closed-form pairs of
FamilyCase.match and FamilyCase.sample, complete_graph_pst,
complete_bipartite_pst and the CLI `family` command are checked against the
engine in the tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arith import symbolic_pi_multiple, two_adic_valuation
from .errors import InvalidSizeError
from .graphs import (
    ADJACENCY,
    LAPLACIAN,
    build_complete,
    build_complete_bipartite,
    build_cycle,
    build_path,
    check_dense,
    hamiltonian,
)
from .spectral import as_state, decompose
from .tolerances import DEFAULT_TOLERANCES, GROUP_MATCH, SHAPE_UNIT, SHAPE_ZERO, ToleranceConfig
from .transfer import pst_decide, pst_partners

CATALOG_GUARD = 30  # vertex limit for exhaustive s-pair sweeps


# ---------------------------------------------------------------------------
# closed-form eigenbases


def cycle_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency eigenbasis of the n-cycle: eigenvalue 2*cos(2*pi*j'/n) with
    j' = min(j, n-j); cosine vectors for j <= n/2, sine vectors above.
    Returns (values, vectors) with vectors as orthonormal columns."""
    if n < 3:
        raise InvalidSizeError("cycle needs n >= 3")
    values = np.empty(check_dense(n))
    vectors = np.empty((n, n))
    grid = np.arange(n)
    values[0] = 2.0
    vectors[:, 0] = 1.0 / math.sqrt(n)
    if n % 2 == 0:
        values[n // 2] = -2.0
        vectors[:, n // 2] = np.where(grid % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    for j in range(1, (n + 1) // 2):
        if 2 * j == n:
            continue
        angle = 2.0 * j * np.pi / n
        values[j] = 2.0 * math.cos(angle)
        values[n - j] = values[j]
        vectors[:, j] = math.sqrt(2.0 / n) * np.cos(angle * grid)
        vectors[:, n - j] = math.sqrt(2.0 / n) * np.sin(angle * grid)
    return values, vectors


def path_adj_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency eigenbasis of the n-path: eigenvalue 2*cos(j*pi/(n+1)) with
    sine eigenvector, j = 1..n (column j-1)."""
    if n < 1:
        raise InvalidSizeError("path needs n >= 1")
    js = np.arange(1, check_dense(n) + 1)
    values = 2.0 * np.cos(js * np.pi / (n + 1))
    grid = np.arange(1, n + 1)
    vectors = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(grid, js) * np.pi / (n + 1))
    return values, vectors


def path_lap_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian eigenbasis of the n-path: eigenvalue 2*(1 - cos(j*pi/n)) with
    cosine eigenvector, j = 0..n-1."""
    if n < 1:
        raise InvalidSizeError("path needs n >= 1")
    js = np.arange(check_dense(n))
    values = 2.0 * (1.0 - np.cos(js * np.pi / n))
    grid = 2.0 * np.arange(n) + 1.0
    vectors = math.sqrt(2.0 / n) * np.cos(np.outer(grid, js) * np.pi / (2 * n))
    vectors[:, 0] = 1.0 / math.sqrt(n)
    return values, vectors


# ---------------------------------------------------------------------------
# complete graphs


def complete_graph_pst(
    n: int, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, float] | None:
    """Partner and time in the complete graph: y = x - (2/n)(1^T x) 1 at
    pi/n; None when x is fixed (a multiple of 1 or orthogonal to it)."""
    if n < 2:
        raise InvalidSizeError("need n >= 2")
    x = as_state(x, n)
    nrm = float(np.linalg.norm(x))
    total = float(x.sum())
    mean = total / n * np.ones(n)
    if np.linalg.norm(x - mean) <= cfg.tol_supp * nrm:
        return None
    if abs(total) <= cfg.tol_supp * math.sqrt(n) * nrm:
        return None
    return x - 2.0 * mean, math.pi / n


# ---------------------------------------------------------------------------
# parametrized cycle and path families


@dataclass(eq=False)
class EigenGroup:
    value: float
    vectors: np.ndarray  # (n, d) orthonormal columns spanning the eigenspace


@dataclass(eq=False)
class FamilyPair:
    x: np.ndarray
    y: np.ndarray
    tau: float
    tau_symbolic: str | None
    case: str


@dataclass(eq=False)
class FamilyCase:
    """One support shape admitting transfer; `kept` indexes the `groups` the
    partner keeps, and it flips the others."""

    family: str
    kind: str
    case: str
    n: int
    tau: float
    tau_symbolic: str | None
    groups: list[EigenGroup]
    kept: tuple[int, ...]
    required_all: tuple[int, ...] = ()
    required_any: tuple[int, ...] = ()

    def sample(self, rng: np.random.Generator, min_coef: float) -> FamilyPair:
        """Random valid instance; coefficients are drawn from [min_coef, 1)
        in magnitude, away from zero, so required components cannot vanish."""
        chosen = set(self.required_all)
        anys = [g for g in self.required_any if g not in chosen]
        if anys:
            picked = [g for g in anys if rng.random() < 0.5]
            chosen.update(picked if picked else [anys[int(rng.integers(len(anys)))]])
        optional = [g for g in range(len(self.groups)) if g not in chosen]
        chosen.update(g for g in optional if rng.random() < 0.5)
        pool = [g for g in range(len(self.groups)) if g not in chosen]
        while len(chosen) < 3 and pool:
            chosen.add(pool.pop(int(rng.integers(len(pool)))))
        x = np.zeros(self.groups[0].vectors.shape[0])
        y = np.zeros_like(x)
        for g in sorted(chosen):
            grp = self.groups[g]
            direction = rng.normal(size=grp.vectors.shape[1])
            direction /= np.linalg.norm(direction)
            coef = float(rng.uniform(min_coef, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            comp = coef * (grp.vectors @ direction)
            x += comp
            y += comp if g in self.kept else -comp
        scale = 1.0 / np.linalg.norm(x)
        return FamilyPair(x * scale, y * scale, self.tau, self.tau_symbolic, self.case)

    def match(self, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FamilyPair | None:
        """Classify x against this case; returns the partner pair when the
        support fits the case's shape and constraints."""
        x = as_state(x, self.groups[0].vectors.shape[0])
        nrm = float(np.linalg.norm(x))
        comps = []
        present = set()
        for g, grp in enumerate(self.groups):
            comp = grp.vectors @ (grp.vectors.T @ x)
            comps.append(comp)
            if np.linalg.norm(comp) > cfg.tol_supp * nrm:
                present.add(g)
        residual = x - sum(comps)
        if np.linalg.norm(residual) > cfg.tol_supp * nrm:
            return None  # support leaks outside the allowed eigenvalues
        if len(present) < 3:
            return None
        if not set(self.required_all) <= present:
            return None
        if self.required_any and not (set(self.required_any) & present):
            return None
        y = np.zeros_like(x)
        for g in present:
            y += comps[g] if g in self.kept else -comps[g]
        return FamilyPair(x, y, self.tau, self.tau_symbolic, self.case)


def _groups_for(values: np.ndarray, vectors: np.ndarray, wanted: list[float]) -> list[EigenGroup] | None:
    groups = []
    for v in wanted:
        cols = np.nonzero(np.abs(values - v) <= GROUP_MATCH)[0]
        if len(cols) == 0:
            return None
        groups.append(EigenGroup(value=v, vectors=vectors[:, cols]))
    return groups


def _add_case(cases: list[FamilyCase], family: str, kind: str, n: int, basis,
              case: str, tau: float, wanted: list[float], kept: tuple[int, ...],
              required_all: tuple[int, ...] = (), required_any: tuple[int, ...] = ()) -> None:
    """Append the case when every wanted eigenvalue occurs in the (values,
    vectors) basis."""
    groups = _groups_for(*basis, wanted)
    if groups is not None:
        cases.append(
            FamilyCase(
                family=family, kind=kind, case=case, n=n,
                tau=tau, tau_symbolic=symbolic_pi_multiple(tau),
                groups=groups, kept=kept,
                required_all=required_all, required_any=required_any,
            )
        )


def cycle_pst_families(n: int) -> list[FamilyCase]:
    """All transfer-supporting support shapes of the n-cycle with at least
    three eigenvalues; empty when no case divides n."""
    cases: list[FamilyCase] = []
    add = partial(_add_case, cases, "cycle", ADJACENCY, n, cycle_eigenbasis(n))
    r2, r3 = math.sqrt(2.0), math.sqrt(3.0)

    if n % 2 == 0 and (n // 2) % 3 == 0:
        # integer support avoiding 0: subset of {+-1, +-2} with a +-1 component
        add("int-pm1", math.pi, [2.0, 1.0, -1.0, -2.0], kept=(0, 3), required_any=(1, 2))
    if n % 2 == 0 and (n // 2) % 6 == 0:
        # integer support containing 0 and a +-1 component
        add("int-with0", math.pi, [2.0, 1.0, 0.0, -1.0, -2.0],
            kept=(0, 2, 4), required_all=(2,), required_any=(1, 3))
    if n % 4 == 0:
        add("int-0pm2", math.pi / 2.0, [2.0, 0.0, -2.0], kept=(1,), required_all=(0, 1, 2))
    if n % 12 == 0:
        add("surd3", math.pi / r3, [r3, 0.0, -r3], kept=(1,), required_all=(0, 1, 2))
    if n % 8 == 0:
        add("surd2", math.pi / r2, [r2, 0.0, -r2], kept=(1,), required_all=(0, 1, 2))
    return cases


def path_pst_families(n: int, kind: str) -> list[FamilyCase]:
    """Transfer-supporting support shapes of the n-path (three eigenvalues or
    more); empty when no case divides n (adjacency keys on n+1). Every
    eigenvalue of a case is required."""
    if n < 3:
        raise InvalidSizeError("path families need n >= 3")
    r2, r3 = math.sqrt(2.0), math.sqrt(3.0)
    cases: list[FamilyCase] = []
    if kind == ADJACENCY:
        add = partial(_add_case, cases, "path", kind, n, path_adj_eigenbasis(n),
                      required_all=(0, 1, 2))
        if (n + 1) % 6 == 0:
            # NOTE: with support {0, +-1} the phases only align at pi, not pi/2
            add("int-pm1", math.pi, [1.0, 0.0, -1.0], kept=(1,))
            add("surd3", math.pi / r3, [r3, 0.0, -r3], kept=(1,))
        if (n + 1) % 4 == 0:
            add("surd2", math.pi / r2, [r2, 0.0, -r2], kept=(1,))
        return cases

    if kind != LAPLACIAN:
        raise ValueError(f"unknown kind {kind!r}")
    add = partial(_add_case, cases, "path", kind, n, path_lap_eigenbasis(n))
    if n % 6 == 0:
        add("int-0123", math.pi, [3.0, 2.0, 1.0, 0.0], kept=(1, 3))
        add("surd3", math.pi / r3, [2.0 + r3, 2.0, 2.0 - r3], kept=(1,), required_all=(0, 1, 2))
    elif n % 3 == 0:
        add("int-013", math.pi, [3.0, 1.0, 0.0], kept=(2,), required_all=(0, 1, 2))
    if n % 4 == 0:
        add("surd2", math.pi / r2, [2.0 + r2, 2.0, 2.0 - r2], kept=(1,), required_all=(0, 1, 2))
    return cases


def cycle_family_match(n: int, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FamilyPair | None:
    for case in cycle_pst_families(n):
        pair = case.match(x, cfg)
        if pair is not None:
            return pair
    return None


def path_family_match(
    n: int, kind: str, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> FamilyPair | None:
    for case in path_pst_families(n, kind):
        pair = case.match(x, cfg)
        if pair is not None:
            return pair
    return None


def path_least_pst_time(n: int, kind: str) -> tuple[float, np.ndarray, np.ndarray]:
    """Least minimum transfer time over the n-path and an attaining pair:
    a two-eigenvalue combination of the extreme eigenvectors. Tends to pi/4
    as n grows, for both Hamiltonians."""
    if n < 2:
        raise InvalidSizeError("need n >= 2")
    if kind == ADJACENCY:
        values, vectors = path_adj_eigenbasis(n)
        tau = math.pi / (4.0 * math.cos(math.pi / (n + 1)))
        u, v = vectors[:, 0], vectors[:, n - 1]
    elif kind == LAPLACIAN:
        values, vectors = path_lap_eigenbasis(n)
        tau = math.pi / (2.0 * (1.0 - math.cos((n - 1) * math.pi / n)))
        u, v = vectors[:, 0], vectors[:, n - 1]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return tau, u + v, u - v


# ---------------------------------------------------------------------------
# complete bipartite graphs


def complete_bipartite_pst(
    m: int, n: int, kind: str, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, float] | None:
    """Closed-form partner in the complete bipartite graph for supports of
    size at least three; None when the state sits in a two-eigenvalue span
    (those pairs are handled by the generic size-two route) or is fixed.

    Adjacency: y negates the per-part means, at pi/sqrt(m*n). Laplacian: the
    partner formula is keyed on comparing the 2-adic valuations of the part
    sizes, at pi/gcd(m, n)."""
    if m < 1 or n < 1:
        raise InvalidSizeError("need part sizes >= 1")
    x = as_state(x, m + n)
    nrm = float(np.linalg.norm(x))
    x1, x2 = x[:m], x[m:]
    s1, s2 = float(x1.sum()), float(x2.sum())
    tol = cfg.tol_supp * nrm
    if kind == ADJACENCY:
        vplus = np.concatenate([math.sqrt(n) * np.ones(m), math.sqrt(m) * np.ones(n)])
        vminus = np.concatenate([math.sqrt(n) * np.ones(m), -math.sqrt(m) * np.ones(n)])
        vplus /= np.linalg.norm(vplus)
        vminus /= np.linalg.norm(vminus)
        cp, cm = float(vplus @ x), float(vminus @ x)
        kernel = x - cp * vplus - cm * vminus
        if abs(cp) <= tol or abs(cm) <= tol or np.linalg.norm(kernel) <= tol:
            return None
        y = x - 2.0 * np.concatenate([s1 / m * np.ones(m), s2 / n * np.ones(n)])
        return y, math.pi / math.sqrt(m * n)
    if kind != LAPLACIAN:
        raise ValueError(f"unknown kind {kind!r}")
    ones = np.ones(m + n)
    c0 = float(x @ ones) / math.sqrt(m + n)
    w = np.concatenate([n * np.ones(m), -m * np.ones(n)])
    w /= np.linalg.norm(w)
    cw = float(w @ x)
    d1 = x1 - s1 / m * np.ones(m)   # eigenvalue n component (first part deviations)
    d2 = x2 - s2 / n * np.ones(n)   # eigenvalue m component
    if m == n:
        mids = 1 if (np.linalg.norm(d1) > tol or np.linalg.norm(d2) > tol) else 0
    else:
        mids = int(np.linalg.norm(d1) > tol) + int(np.linalg.norm(d2) > tol)
    count = int(abs(c0) > tol) + int(abs(cw) > tol) + mids
    if count < 3:
        return None
    v2m, v2n = two_adic_valuation(m), two_adic_valuation(n)
    if v2m == v2n:
        y = np.concatenate(
            [-x1 + 2.0 * s1 / m * np.ones(m), -x2 + 2.0 * s2 / n * np.ones(n)]
        )
    elif v2m > v2n:
        y = np.concatenate(
            [
                -x1 + 2.0 / (m + n) * (s2 + s1) * np.ones(m),
                x2 + 2.0 / (m + n) * (s1 - m / n * s2) * np.ones(n),
            ]
        )
    else:
        y = np.concatenate(
            [
                x1 + 2.0 / (m + n) * (s2 - n / m * s1) * np.ones(m),
                -x2 + 2.0 / (m + n) * (s1 + s2) * np.ones(n),
            ]
        )
    return y, math.pi / math.gcd(m, n)


# ---------------------------------------------------------------------------
# exhaustive s-pair catalogs


@dataclass(frozen=True)
class CatalogEntry:
    """One s-pair transfer: e_u + s e_v goes to (a sign of) e_a + t e_b."""

    s: int
    u: int
    v: int
    partner_s: int
    partner_u: int
    partner_v: int
    tau: float
    tau_symbolic: str | None


def _pair_shapes(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns of Y of the form +-(e_a + s e_b) with s in {-1, +1}: exactly
    two entries within SHAPE_UNIT of one in magnitude and every other entry
    within SHAPE_ZERO of zero, counted down each column (SHAPE_ZERO lies far
    below 1 - SHAPE_UNIT, so the two unit entries are the two largest).
    Returns (columns, s, a, b) with a < b the rows of the unit entries; s is
    read with the entry at a taken positive."""
    mag = np.abs(Y)
    unit = np.abs(mag - 1.0) <= SHAPE_UNIT
    zero = mag <= SHAPE_ZERO
    ok = (np.count_nonzero(unit, axis=0) == 2) & (np.count_nonzero(zero, axis=0) == len(Y) - 2)
    cols = np.flatnonzero(ok)
    a, b = np.nonzero(unit[:, ok].T)[1].reshape(-1, 2).T
    s = np.where((Y[a, cols] > 0) == (Y[b, cols] > 0), 1, -1)
    return cols, s, a, b


def _pair_plus_states(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """u, v, s and the state matrix X of the catalog on n vertices: column c
    of X is e_u[c] + s[c] e_v[c], u < v, s = -1 or +1, in (u, v, s) order."""
    u, v = np.repeat(np.triu_indices(n, 1), 2, axis=1)
    s = np.tile([-1, 1], len(u) // 2)
    X = np.zeros((n, len(u)))
    X[u, np.arange(len(u))] = 1.0
    X[v, np.arange(len(u))] = s
    return u, v, s, X


def pair_plus_catalog(
    family: str, kind: str, *sizes: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> list[CatalogEntry]:
    """Every pair state (s = -1) and plus state (s = +1) e_u + s e_v, u < v,
    whose unique transfer partner is itself an s-pair state.

    One pass per sweep: the n(n-1) states form one state matrix for
    pst_partners, so the support mask is one product per eigenvalue cluster,
    the supports are grouped by integer keys of their mask bits, and each
    distinct support gets one ratio table, reconstructed on plain ints.
    Only partners of pair shape (_pair_shapes, a count down each column) are
    confirmed with pst_decide; entries come in (u, v, s) order.
    """
    build = {"path": build_path, "cycle": build_cycle, "complete": build_complete,
             "complete-bipartite": build_complete_bipartite}.get(family)
    if build is None:
        raise ValueError(f"unknown family {family!r}")
    if sum(sizes) > CATALOG_GUARD:  # checked before the graph is built
        raise InvalidSizeError(f"catalog sweep guarded to {CATALOG_GUARD} vertices")
    g = build(*sizes)
    if g.n < 2:
        return []
    dec = decompose(hamiltonian(g, kind), cfg)
    u, v, s, X = _pair_plus_states(g.n)
    partners, found, _, _ = pst_partners(dec, X, cfg)
    hits = np.nonzero(found)[0]
    cols, ps, pu, pv = _pair_shapes(partners[:, hits])
    entries: list[CatalogEntry] = []
    for c, t, a, b in zip(hits[cols].tolist(), ps.tolist(), pu.tolist(), pv.tolist()):
        verdict = pst_decide(dec, X[:, c], partners[:, c], cfg)
        if not verdict.decision:
            continue
        entries.append(
            CatalogEntry(
                s=int(s[c]), u=int(u[c]), v=int(v[c]), partner_s=t, partner_u=a, partner_v=b,
                tau=verdict.tau_min,
                tau_symbolic=verdict.tau_symbolic,
            )
        )
    return entries
