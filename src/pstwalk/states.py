"""Eigenvalue supports, fixed-state detection, and strong cospectrality with
its sign partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPairError, InvalidStateError
from .spectral import Projection, SpectralDecomposition
from .tolerances import AMBIGUITY_BAND, DEFAULT_TOLERANCES, PAIR_TOL, ToleranceConfig

FIXED = "fixed"
SIZE2 = "size2"
GENERAL = "general"


@dataclass(eq=False)
class SupportProfile:
    """Support eigenvalues of a state, by their positions in the decomposition."""

    indices: tuple[int, ...]      # positions in the decomposition (descending eigenvalues)
    eigenvalues: np.ndarray       # support eigenvalues, descending
    kind: str                     # fixed | size2 | general

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(eq=False)
class CospectralityCertificate:
    """Sign partition of the support: E_j x = E_j y on plus, = -E_j y on minus."""

    plus_positions: tuple[int, ...]   # positions within the support profile
    minus_positions: tuple[int, ...]
    sigma_plus: np.ndarray            # eigenvalues
    sigma_minus: np.ndarray
    residual: float                   # max_j || E_j x -+ E_j y || over the winner signs
    profile: SupportProfile


@dataclass(frozen=True)
class NotCospectral:
    """Negative verdict of strong cospectrality: reason is pst_decide's refusal
    (fixed-state, not-cospectral or ambiguous-cospectrality), eigenvalue the
    one that decided it (None for a fixed state)."""

    reason: str
    eigenvalue: float | None = None


def _support(weights: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """support_mask's rule on the (k, b) cluster weights ||E_j x||^2 of a
    Projection's columns, ||x|| being the square root of a column's sum."""
    mask = np.sqrt(weights) > cfg.tol_supp * np.sqrt(weights.sum(axis=0))
    if not np.all(mask.any(axis=0)):
        raise InvalidStateError("state has empty eigenvalue support at this tolerance")
    return mask


def _profile(dec: SpectralDecomposition, mask: np.ndarray) -> SupportProfile:
    idx = tuple(np.flatnonzero(mask).tolist())
    kind = FIXED if len(idx) == 1 else SIZE2 if len(idx) == 2 else GENERAL
    return SupportProfile(indices=idx, eigenvalues=dec.eigenvalues[list(idx)], kind=kind)


def support_mask(dec: SpectralDecomposition, X, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """The (k, b) support mask ||E_j x|| > tol_supp * ||x|| of each column x
    of the (n, b) state matrix X; InvalidStateError for a column that
    check_magnitudes refuses or that has an empty support."""
    return _support(Projection(dec, X).weights(), cfg)


def support(dec: SpectralDecomposition, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SupportProfile:
    """Support of the state x: the one-column case of support_mask."""
    return _profile(dec, _support(Projection.of(dec, x).weights(), cfg)[:, 0])


def _pair_rule(nx: float, ny: float, diff: float, total: float) -> str | None:
    """The pair rule on ||x||, ||y||, ||x - y|| and ||x + y||: why a pair is
    refused (norms apart by more than PAIR_TOL * max(||x||, ||y||), or y = +-x:
    min(||x - y||, ||x + y||) within PAIR_TOL * ||x||), or None."""
    if abs(nx - ny) > PAIR_TOL * max(nx, ny):
        return "states must have equal norms"
    return "y must differ from both x and -x" if min(diff, total) <= PAIR_TOL * nx else None


def coincident(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether y = +-x under the pair rule (whose norm test y = +-x passes)."""
    nx = np.linalg.norm(x)
    return _pair_rule(nx, nx, np.linalg.norm(x - y), np.linalg.norm(x + y)) is not None


def check_pair(x: np.ndarray, y: np.ndarray) -> None:
    """InvalidPairError where the raw vectors x and y break the pair rule."""
    if refusal := _pair_rule(np.linalg.norm(x), np.linalg.norm(y), np.linalg.norm(x - y), np.linalg.norm(x + y)):
        raise InvalidPairError(refusal)


def _pair_weights(proj: Projection) -> np.ndarray:
    """(k, 4) cluster weights ||E_j x||^2, ||E_j (x - y)||^2, ||E_j (x + y)||^2
    and ||E_j y||^2 of a Projection of (x, y): ||E_j (x -+ y)|| = ||c_x -+ c_y||
    on cluster j, by linearity."""
    cx, cy = proj.coef.T
    return proj.dec.cluster_sums(np.column_stack((cx, cx - cy, cx + cy, cy)) ** 2)


def _check_pair_weights(weights: np.ndarray) -> float:
    """InvalidPairError where the Parseval norms of a _pair_weights table (its
    column sums: ||x||, ||x - y||, ||x + y||, ||y||) break the pair rule; else ||x||."""
    nx, diff, total, ny = np.sqrt(weights.sum(axis=0)).tolist()
    if refusal := _pair_rule(nx, ny, diff, total):
        raise InvalidPairError(refusal)
    return nx


def check_strong_cospectrality(
    dec: SpectralDecomposition, x, y, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> CospectralityCertificate | NotCospectral:
    """Classify E_j x = +-E_j y over the support of x.

    The sign per eigenvalue is whichever of ||E_j (x - y)||, ||E_j (x + y)||
    is smaller. Every decision is returned; NotCospectral, in this order, for
    a single-eigenvalue support of x (fixed-state), at the first support
    eigenvalue whose winner exceeds tol_supp*||x|| or else where y leaves the
    support (not-cospectral), and else at the first support eigenvalue whose
    loser is also below AMBIGUITY_BAND times that tolerance
    (ambiguous-cospectrality). Raises only for a request it cannot answer:
    a state Projection refuses, and InvalidPairError for a pair that breaks
    the pair rule (after the fixed-state test) or whose signs all agree
    (numerically y = +-x).
    """
    weights = _pair_weights(Projection.of(dec, x, y))
    d_plus, d_minus, y_norms = np.sqrt(weights[:, 1:]).T
    prof = _profile(dec, _support(weights[:, :1], cfg)[:, 0])
    if prof.kind == FIXED:
        return NotCospectral("fixed-state")
    tol = cfg.tol_supp * _check_pair_weights(weights)
    plus, minus = [], []
    worst = 0.0
    ambiguous = None  # reported only when no eigenvalue fails outright
    for pos, j in enumerate(prof.indices):
        win, lose = sorted((float(d_plus[j]), float(d_minus[j])))
        if win > tol:
            return NotCospectral("not-cospectral", float(dec.eigenvalues[j]))
        if lose < AMBIGUITY_BAND * tol and ambiguous is None:
            ambiguous = float(dec.eigenvalues[j])
        worst = max(worst, win)
        (plus if d_plus[j] <= d_minus[j] else minus).append(pos)
    # y may not carry support outside sigma_x
    outside = y_norms > tol
    outside[list(prof.indices)] = False
    if outside.any():
        return NotCospectral("not-cospectral", float(dec.eigenvalues[np.argmax(outside)]))
    if ambiguous is not None:
        return NotCospectral("ambiguous-cospectrality", ambiguous)
    if not plus or not minus:
        raise InvalidPairError("pair is numerically indistinguishable from y = +-x")
    return CospectralityCertificate(
        plus_positions=tuple(plus),
        minus_positions=tuple(minus),
        sigma_plus=prof.eigenvalues[plus],
        sigma_minus=prof.eigenvalues[minus],
        residual=worst,
        profile=prof,
    )
