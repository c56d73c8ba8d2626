"""Independent correctness checks, run after the timed loop.

Every claimed transfer is re-evaluated on a Hamiltonian the benchmark builds
itself from its own edge lists, with scipy's matrix exponential; nothing in
here calls pstwalk. A check returns None when the output holds and a short
reason string when it is refuted.
"""

from __future__ import annotations

import numpy as np

FIDELITY_TOL = 1e-7     # a claimed transfer must reach fidelity >= 1 - this
DENSE_MAX_N = 64        # dense expm up to this size, expm_multiply above it


def hamiltonian(n: int, edges, kind: str) -> np.ndarray:
    """Adjacency ('adjacency') or Laplacian ('laplacian') from (u, v, w) edges."""
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u, v] = a[v, u] = w
    if kind == "laplacian":
        return np.diag(a.sum(axis=1)) - a
    return a


def operator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i t H), dense."""
    # scipy is imported on first use so that it never weighs on set-up time
    # or on the peak RSS of the timed loop.
    import scipy.linalg

    return scipy.linalg.expm(1j * t * h)


def evolve(h: np.ndarray, times, x: np.ndarray) -> np.ndarray:
    """exp(i t H) x for each t of an increasing `times` (rows of the result);
    each state is stepped on from the previous one."""
    times = np.asarray(times, dtype=float)
    if h.shape[0] <= DENSE_MAX_N:
        return np.array([operator(h, t) @ x for t in times])
    import scipy.sparse
    import scipy.sparse.linalg

    a = scipy.sparse.csr_matrix(h) * 1j
    z, now, rows = x.astype(complex), 0.0, []
    for t in times:
        z = scipy.sparse.linalg.expm_multiply(a * (t - now), z)
        now = t
        rows.append(z)
    return np.array(rows)


def fidelities(h: np.ndarray, times, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    amp = evolve(h, times, x) @ y
    return np.abs(amp) ** 2 / (x @ x) / (y @ y)


def fidelity(h: np.ndarray, t: float, x, y) -> float:
    return float(fidelities(h, [t], x, y)[0])


def transfer(h: np.ndarray, x, y, tau) -> str | None:
    """Refute the claim that x transfers to y at tau."""
    if tau is None or not np.isfinite(tau) or tau <= 0:
        return f"bad tau {tau!r}"
    f = fidelity(h, float(tau), x, y)
    if 1.0 - f > FIDELITY_TOL:
        return f"fidelity {f:.12g} at tau={tau:.12g}"
    return None


def claim(h: np.ndarray, x, y, tau):
    """The refutation of "x transfers to y at tau", or the accepted transfer
    as (x, y, tau, h) for the checker's self-check."""
    return transfer(h, x, y, tau) or (x, y, tau, h)


def second_derivative(h: np.ndarray, x, y, tau: float) -> float:
    """f''(tau) by Richardson-extrapolated central second differences, with
    the step scaled to the spectral radius bound ||H||_inf."""
    step = 0.02 / max(1.0, float(np.abs(h).sum(axis=1).max()))
    f = fidelities(h, tau + step * np.array([-1.0, -0.5, 0.0, 0.5, 1.0]), x, y)
    wide = (f[0] - 2.0 * f[2] + f[4]) / step**2
    narrow = (f[1] - 2.0 * f[2] + f[3]) / (step / 2.0) ** 2
    return (4.0 * narrow - wide) / 3.0


def flip_one_component(h: np.ndarray, y) -> np.ndarray:
    """y with the sign of its largest eigenspace component flipped, using the
    benchmark's own eigendecomposition of h."""
    y = np.asarray(y, dtype=float)
    values, vectors = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(values).max()))
    best, best_comp = -1.0, None
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > 1e-8 * scale:
            block = vectors[:, start:i]
            comp = block @ (block.T @ y)
            if np.linalg.norm(comp) > best:
                best, best_comp = float(np.linalg.norm(comp)), comp
            start = i
    return y - 2.0 * best_comp


def self_check(h: np.ndarray, x, y, tau: float) -> dict:
    """The checker must refute a planted wrong partner and a planted wrong
    tau derived from a transfer it accepts."""
    wrong_partner = transfer(h, x, flip_one_component(h, y), tau) is not None
    wrong_tau = transfer(h, x, y, 1.05 * tau) is not None
    return {
        "accepts_true": transfer(h, x, y, tau) is None,
        "refutes_wrong_partner": wrong_partner,
        "refutes_wrong_tau": wrong_tau,
    }


def known_transfer() -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """End-to-end transfer on the adjacency path P3 at pi/sqrt(2)."""
    h = hamiltonian(3, [(0, 1, 1.0), (1, 2, 1.0)], "adjacency")
    return h, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.pi / np.sqrt(2.0)
