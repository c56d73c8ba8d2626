"""The tolerance policy: every numerical threshold of the package, in one block.

ToleranceConfig holds the five thresholds a caller may set. Each constant
below makes one fixed numerical decision, and its comment gives its value,
its scale rule (relative to ||x||, relative to ||M||_inf, or absolute) and
the decision it makes. This module imports nothing from the package."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds a caller may set (the CLI's tolerance flags).

    tol_group scales by ||M||_inf at the point of use, tol_supp and tol_phase
    by ||x||; q_max and int_tol are used as stored.

    int_tol: integrality in classify_form.
    """

    tol_group: float = 1e-8   # eigenvalue clustering
    tol_supp: float = 1e-8    # support membership, relative to ||x||
    tol_phase: float = 1e-8   # phase-match residual for transfer checks
    q_max: int = 10_000       # denominator cap for rational reconstruction
    int_tol: float = 1e-6     # integrality in classify_form

    def __post_init__(self):
        for name in ("tol_group", "tol_supp", "tol_phase", "int_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.tol_supp >= 1:  # ||E_j x|| <= ||x||: every support would be empty
            raise ValueError("tol_supp must be below 1")
        if self.q_max < 1:
            raise ValueError("q_max must be at least 1")


DEFAULT_TOLERANCES = ToleranceConfig()

# -- states and pairs ---------------------------------------------------------
# 1e-75 and 1e75, absolute: the range of a state's largest |entry|
# (spectral.check_magnitudes refuses a state outside it).
STATE_PEAK = (1e-75, 1e75)
# 1e-10, relative to ||x|| (to max(||x||, ||y||) for the norms): the pair rule
# (states._pair_rule). ||x|| and ||y|| must agree to it, and y = +-x when
# min(||x - y||, ||x + y||) is within it (states.coincident).
PAIR_TOL = 1e-10
# 1e-10, relative to ||x||: constructions.join_pst takes x as orthogonal to
# the all-ones vector when |sum(x)| is within it.
MEAN_ZERO = 1e-10
# 10, a factor on tol_supp * ||x||: strong cospectrality is ambiguous when a
# loser ||E_j (x +- y)|| is below it times the winner's bound.
AMBIGUITY_BAND = 10.0

# -- matrices and spectra -----------------------------------------------------
# 1e-12, relative to ||M||_inf: spectral.decompose refuses a raw matrix with
# max |m_ij - m_ji| above it.
SYMMETRY_TOL = 1e-12
# 1e-12, relative to |d_0|: Graph.is_regular when every degree is within it
# of d_0.
REGULAR_TOL = 1e-12
# 2, a factor on tol_group * ||M||_inf: a cluster gap below it times the
# clustering threshold adds a decomposition warning.
GAP_WARNING = 2.0
# 1e-8, absolute on a unit candidate: synthesis._complete_basis skips a
# standard basis vector whose remainder after Gram-Schmidt is within it.
DEP_TOL = 1e-8

# -- periodicity --------------------------------------------------------------
# 1e-7, absolute: a reconstructed period must align every support phase,
# 2 pi lcm max_j|residual_j| <= PHASE_ALIGNMENT (periodicity.ratio_condition),
# and the combined join's modular condition tau*(lam - theta + shift) = 0
# mod 2 pi holds to it. It turns close continued-fraction fits of
# irrational ratios into NonPeriodic verdicts.
PHASE_ALIGNMENT = 1e-7

# -- transfer times and fidelities --------------------------------------------
# 1e-4, absolute phase: transfer.pst_decide refuses a yes as ambiguous-clustering
# when tau times a support cluster's width exceeds it.
CLUSTER_SPREAD = 1e-4
# 1e-9, absolute: a fidelity in (1, 1 + FIDELITY_CLAMP] reads as 1
# (spectral.normalized_fidelity); a larger one is shown as it is.
FIDELITY_CLAMP = 1e-9
# 1e-9, absolute: an unweighted graph on n <= 6 vertices is connected when its
# second-smallest Laplacian eigenvalue exceeds it (at least 0.268 there).
FIEDLER_CUT = 1e-9
# 1e-9, absolute: spreads within it of the exhaustive maximum tie with it,
# and the split graph is verified when its spread is within it of that maximum.
SPREAD_TIE = 1e-9

# -- symbolic times: arith.symbolic_pi_multiple ---------------------------------
# 1e-7 and 1e5, absolute: the range of tau/pi that is fitted at all (every
# a*pi/(b*sqrt(d)) with a, b, d <= 10**4 lies in [1e-6, 1e4] * pi).
PI_RANGE = (1e-7, 1e5)
# 1e-10, relative to tau/pi: tau/pi is the fraction a/b when within it.
PI_FRACTION_FIT = 1e-10
# 1e-12, relative to (tau/pi)^2: (tau/pi)^2 is a fraction when within it.
PI_SQUARE_FIT = 1e-12
# 1e-9, relative to tau: the surd a*pi/(b*sqrt(d)) fits tau when within it.
PI_SURD_FIT = 1e-9

# -- closed-form families -----------------------------------------------------
# 1e-9, absolute: families._groups_for takes a closed-form eigenvalue as the
# wanted value when within it.
GROUP_MATCH = 1e-9
# 1e-7, absolute on a unit column: families._pair_shapes needs exactly two
# magnitudes of a +-(e_a + s e_b) column within it of one.
SHAPE_UNIT = 1e-7
# 1e-8, absolute on a unit column: and every other entry within it of zero.
SHAPE_ZERO = 1e-8

# -- sensitivity and constructions --------------------------------------------
# 1e-6, relative to ||M||_inf^2: fidelity_derivatives' bound_ok allows d2
# this far below the sharp bound.
BOUND_SLACK = 1e-6
# 1e-10, relative to ||M||_inf^2: fidelity_derivatives' near_zero when
# d2 lies in (-NEAR_ZERO, 0), indistinguishable from a fixed state.
NEAR_ZERO = 1e-10
# 1e-3, absolute time: the step h of fidelity_derivatives' 9-point stencil,
# which corroborates the vanishing odd orders.
STENCIL_STEP = 1e-3
# 1e-8, absolute on unitary entries: join_transition_matrix
# refuses a closed form that differs from the spectral operator by more.
JOIN_CHECK = 1e-8
