"""Eigenvalue supports, fixed-state detection, and strong cospectrality with
its sign partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousCospectralityError,
    FixedStateError,
    InvalidPairError,
    InvalidStateError,
    NotCospectralError,
)
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


def check_strong_cospectrality(
    dec: SpectralDecomposition, x, y, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> CospectralityCertificate:
    """Classify E_j x = +-E_j y over the support of x.

    The sign per eigenvalue is whichever of ||E_j (x - y)||, ||E_j (x + y)||
    is smaller (equal to ||V_j^T x -+ V_j^T y||, V_j having orthonormal
    columns). Raises, in this order: FixedStateError for a single-eigenvalue
    support of x, InvalidPairError, NotCospectralError where a winner exceeds
    tol_supp*||x|| or y leaves the support, and AmbiguousCospectralityError
    where a loser is also below AMBIGUITY_BAND times that tolerance.
    """
    cx, cy = Projection.of(dec, x, y).coef.T  # ||E_j (x -+ y)|| = ||c_x -+ c_y|| on cluster j
    weights = dec.cluster_sums(np.column_stack((cx, cx - cy, cx + cy, cy)) ** 2)
    d_plus, d_minus, y_norms = np.sqrt(weights[:, 1:]).T
    prof = _profile(dec, _support(weights[:, :1], cfg)[:, 0])
    if prof.kind == FIXED:
        raise FixedStateError("a fixed state cannot be strongly cospectral")
    nx, diff, total, ny = np.sqrt(weights.sum(axis=0)).tolist()  # Parseval: the norms of x, x -+ y, y
    if refusal := _pair_rule(nx, ny, diff, total):
        raise InvalidPairError(refusal)
    tol = cfg.tol_supp * nx
    plus, minus = [], []
    worst = 0.0
    ambiguous = None  # raised only when no eigenvalue fails outright
    for pos, j in enumerate(prof.indices):
        win, lose = sorted((float(d_plus[j]), float(d_minus[j])))
        if win > tol:
            raise NotCospectralError(float(dec.eigenvalues[j]))
        if lose < AMBIGUITY_BAND * tol and ambiguous is None:
            ambiguous = float(dec.eigenvalues[j])
        worst = max(worst, win)
        (plus if d_plus[j] <= d_minus[j] else minus).append(pos)
    # y may not carry support outside sigma_x
    outside = y_norms > tol
    outside[list(prof.indices)] = False
    if outside.any():
        raise NotCospectralError(float(dec.eigenvalues[np.argmax(outside)]))
    if ambiguous is not None:
        raise AmbiguousCospectralityError(ambiguous)
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
