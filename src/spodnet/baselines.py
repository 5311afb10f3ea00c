"""Model-based precision estimators.

The l1-penalized maximum-likelihood estimator

    minimize  -logdet(Theta) + <S, Theta> + lam * sum_{i != j} |Theta_ij|

is solved by proximal block coordinate descent whose blocks are column-row
pairs: each block takes soft-thresholded gradient steps on the off-diagonal
column, then sets the pivot diagonal to its exact coordinate minimizer
(Schur margin 1/S_ii), so every iterate is SPD by construction and the
objective never increases across accepted steps. The inverse is maintained
through the same O(p^2) block identities as the update layer and refreshed
densely once per sweep; a sweep factors Theta once, and the refresh and
the sweep's objective share that factor.

The column loop is written to cut interpreter round trips: each pivot's
constants are built once per solve, the products use bound ``ndarray.dot``
methods, and a proximal step evaluates its candidate before it asks
whether the candidate moved at all. A candidate equal to the iterate has
exactly the iterate's objective, so one whose objective fell has moved;
the exact no-move test runs only on a step whose objective did not fall,
which a no-move always is. The loop must keep the iterates,
objective trace and step count of the plain per-block loop bit for bit
(``tests/test_baselines.py`` holds that loop as a reference). It calls
``block_gista_step``, ``glasso_objective`` and core's numpy block helpers
through their module attributes, so a tracer that patches those attributes
sees every call.

Ledoit-Wolf and OAS are the classical shrinkage estimators toward mu*I,
inverted to give precisions. All estimators assume centered samples and use
S = X'X / n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import core, linalg

__all__ = [
    "GlassoConfig",
    "NonPositiveDiagonal",
    "block_gista_step",
    "default_lambda_grid",
    "empirical_covariance",
    "glasso_cv",
    "glasso_objective",
    "glasso_solve",
    "ledoit_wolf",
    "ledoit_wolf_shrinkage",
    "oas",
    "oas_shrinkage",
]

_MAX_BACKTRACKS = 60


class NonPositiveDiagonal(ValueError):
    """A covariance handed to the solver has a diagonal entry <= 0, so the
    pivot margin 1/S_ii of its column updates does not exist."""


@dataclass(frozen=True)
class GlassoConfig:
    """Solver knobs: penalty, sweep budget, per-sweep objective tolerance
    and proximal steps per block. Each step starts at size 1 and halves
    until the block objective does not increase. The defaults are also the
    command line's."""

    lam: float = 0.1
    max_sweeps: int = 200
    tol: float = 1e-8
    inner_steps: int = 5

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_sweeps < 1 or self.inner_steps < 1:
            raise ValueError("max_sweeps and inner_steps must be >= 1")


def empirical_covariance(samples) -> np.ndarray:
    """S = X'X / n for centered rows."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected an n-by-p sample matrix, got shape {x.shape}")
    s = x.T @ x / x.shape[0]
    return 0.5 * (s + s.T)


def glasso_objective(theta, s, lam: float, factor=None) -> float:
    """-logdet(theta) + <s, theta> + lam * off-diagonal l1 norm. A caller
    that already holds ``linalg.cholesky(theta)`` passes it as ``factor``."""
    sd = linalg.as_sym_matrix(s)
    td = linalg.as_sym_matrix(theta)
    L = linalg.cholesky(td) if factor is None else factor
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    trace_term = float((sd * td).sum())
    off_l1 = float(np.abs(td).sum() - np.abs(np.diag(td)).sum())
    return -logdet + trace_term + lam * off_l1


def block_gista_step(theta12, s12, w12, gamma: float, lam: float) -> np.ndarray:
    """Soft-thresholded gradient step on one off-diagonal column:
    ST_{gamma*lam}(theta12 - gamma * (s12 - w12)), for float64 columns and
    gamma > 0, as ``_update_block`` passes them (gamma = 2^-k, k < 60).
    At gamma = 1 the product gamma * d is d exactly, so it is skipped.
    ``np.sign(step) * ...`` is kept over ``copysign`` and ``clip``, which
    give a thresholded entry the other zero's sign."""
    grad = s12 - w12
    step = theta12 - (grad if gamma == 1.0 else gamma * grad)
    return np.sign(step) * np.maximum(np.abs(step) - gamma * lam, 0.0)


def _block_objective(x, mx, s12_dot, s22: float, lam2: float) -> float:
    # block restriction of the objective with the pivot diagonal pinned
    # to its coordinate minimizer; constants dropped. s12_dot is s12.dot
    # and lam2 is 2 * lam.
    return (2.0 * float(s12_dot(x)) + s22 * float(x.dot(mx))
            + lam2 * float(np.add.reduce(np.abs(x))))


def _update_block(theta: np.ndarray, w: np.ndarray, pivot: tuple, lam: float,
                  inner_steps: int) -> tuple[np.ndarray, np.ndarray]:
    i, flat, s12, s22, v_target = pivot  # see glasso_solve
    m = core.theta11_inverse_np(w, i)
    step, m_dot, s12_dot = block_gista_step, m.dot, s12.dot
    lam2 = 2.0 * lam
    x = theta.take(flat)
    mx = m_dot(x)
    h_cur = _block_objective(x, mx, s12_dot, s22, lam2)
    for _ in range(inner_steps):
        w12 = -s22 * mx  # inverse column implied by the pinned diagonal
        gamma = 1.0
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            cand = step(x, s12, w12, gamma, lam)
            mc = m_dot(cand)
            h_new = _block_objective(cand, mc, s12_dot, s22, lam2)
            # a candidate equal to x scores exactly h_cur, so one whose
            # objective fell has moved; testing `not <` rather than `==`
            # sends a NaN objective through the no-move test as well
            if not h_new < h_cur:
                # exact no-move test: -0.0 equals 0.0 and NaN never equals
                if not np.count_nonzero(cand != x):
                    break
                if not h_new <= h_cur:
                    gamma *= 0.5
                    continue
            x, mx, h_cur = cand, mc, h_new
            moved = True
            break
        if not moved:
            break

    # mx is m x for the final x, which both identities take
    return (core.theta_plus_np(theta, i, x, v_target, mx),
            core.w_plus_np(m, mx, v_target, i))


def glasso_solve(s, cfg: GlassoConfig) -> np.ndarray:
    """Penalized precision estimate; SPD at every iterate by construction.

    Terminates when the objective decrease over a sweep drops below
    ``cfg.tol`` or the sweep budget runs out. The objective is evaluated
    through the module attribute ``glasso_objective`` at initialization and
    after each sweep, so a wrapper patched over it sees the objective trace.
    """
    sd = linalg.as_sym_matrix(s)
    p = sd.shape[0]
    # owns the margins 1/S_ii; a NaN S_ii fails initial_state's Cholesky
    if np.any(np.diag(sd) <= 0.0):
        raise NonPositiveDiagonal("covariance diagonal must be strictly positive")
    # per pivot i, once per solve: the C-order flat positions of column i's
    # off-pivot entries, that column of S (contiguous), S_ii and 1/S_ii
    pivots = []
    for i in range(p):
        rest = linalg.rest_indices(p, i)
        s22 = float(sd[i, i])
        pivots.append((i, rest * p + i, sd[rest, i], s22, 1.0 / s22))
    start = core.initial_state(sd)
    theta, w = start.theta.data, start.w.data
    obj = glasso_objective(theta, sd, cfg.lam)
    for _ in range(cfg.max_sweeps):
        prev = obj
        for pivot in pivots:
            theta, w = _update_block(theta, w, pivot, cfg.lam, cfg.inner_steps)
        # one factor serves the refresh, which bounds drift of the
        # maintained pair, and the objective; it goes by position, as a
        # wrapper patched over either may take no keywords
        L = linalg.cholesky(theta)
        w = linalg.spd_inverse(theta, L)
        obj = glasso_objective(theta, sd, cfg.lam, L)
        if prev - obj < cfg.tol:
            break
    return theta


def default_lambda_grid(samples, size: int) -> list[float]:
    """``size`` log-spaced values over [0.01, 1] times S's largest off-diagonal."""
    if size < 1:
        raise ValueError(f"grid size must be >= 1, got {size}")
    s = empirical_covariance(samples)
    off = s.copy()
    np.fill_diagonal(off, 0.0)
    top = float(np.abs(off).max())
    if top <= 0.0:
        top = 1.0
    return [float(v) for v in np.geomspace(0.01 * top, top, size)]


def _holdout_nll(theta, s_holdout) -> float:
    L = linalg.cholesky(theta)  # checks theta's symmetry as well
    td = np.asarray(theta, dtype=np.float64)
    return -2.0 * float(np.log(np.diag(L)).sum()) + float((s_holdout * td).sum())


def glasso_cv(samples, lambda_grid, folds: int,
              cfg: GlassoConfig) -> tuple[float, np.ndarray]:
    """Pick the penalty from ``lambda_grid`` (see :func:`default_lambda_grid`)
    by ``folds``-fold held-out Gaussian negative log-likelihood. Every
    solve runs with ``cfg``'s settings and a grid value as its penalty.

    Contiguous folds, mean score per grid value, ties resolved toward the
    larger (sparser) penalty; the winner is refit on all samples.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected an n-by-p sample matrix, got shape {x.shape}")
    n = x.shape[0]
    if folds < 2:
        raise ValueError("folds must be >= 2")
    bounds = np.linspace(0, n, folds + 1).astype(int)
    if int(np.diff(bounds).min()) < 2:
        raise ValueError(f"{folds} folds over {n} samples leaves a fold "
                         "with fewer than 2 samples")
    grid = sorted(float(v) for v in lambda_grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    if any(np.isnan(grid)):  # sorted() leaves a NaN wherever it was
        raise ValueError(f"lambda grid holds NaN: {grid}")
    scores = np.zeros(len(grid))
    for k in range(folds):
        mask = np.ones(n, dtype=bool)
        mask[bounds[k]:bounds[k + 1]] = False
        s_fit = empirical_covariance(x[mask])
        s_hold = empirical_covariance(x[~mask])
        for j, lam in enumerate(grid):
            scores[j] += _holdout_nll(glasso_solve(s_fit, replace(cfg, lam=lam)),
                                      s_hold)
    scores /= folds
    best = 0
    for j in range(1, len(grid)):
        if scores[j] <= scores[best]:
            best = j
    theta = glasso_solve(empirical_covariance(x), replace(cfg, lam=grid[best]))
    return grid[best], theta


# -- shrinkage estimators ----------------------------------------------------


def ledoit_wolf_shrinkage(samples) -> tuple[np.ndarray, float]:
    """Shrunk covariance (1-rho) S + rho mu I with the optimal intensity
    estimated from the samples; rho is clipped into [0, 1]."""
    x = np.asarray(samples, dtype=np.float64)
    n, p = x.shape
    s = empirical_covariance(x)
    mu = float(np.trace(s)) / p
    target = mu * np.eye(p)
    if n < 2:
        return target, 1.0
    delta2 = float(((s - target) ** 2).sum()) / p
    if delta2 <= 0.0:
        # S already equals the shrinkage target
        return s, 0.0
    norms4 = float((np.einsum("ij,ij->i", x, x) ** 2).sum())
    beta2 = (norms4 - n * float((s * s).sum())) / (n * n * p)
    beta2 = min(max(beta2, 0.0), delta2)
    rho = beta2 / delta2
    return (1.0 - rho) * s + rho * target, rho


def ledoit_wolf(samples) -> np.ndarray:
    """Precision: inverse of the Ledoit-Wolf shrunk covariance."""
    cov, _ = ledoit_wolf_shrinkage(samples)
    return linalg.spd_inverse(cov)


def oas_shrinkage(samples) -> tuple[np.ndarray, float]:
    """Shrunk covariance with the oracle-approximating intensity

        rho = min(1, ((1 - 2/p) tr(S^2) + tr(S)^2)
                      / ((n + 1 - 2/p) (tr(S^2) - tr(S)^2 / p)))

    with rho = 1 whenever the denominator is not positive (S proportional
    to the identity)."""
    x = np.asarray(samples, dtype=np.float64)
    n, p = x.shape
    s = empirical_covariance(x)
    mu = float(np.trace(s)) / p
    target = mu * np.eye(p)
    tr_s2 = float((s * s).sum())
    tr_sq = float(np.trace(s)) ** 2
    den = (n + 1.0 - 2.0 / p) * (tr_s2 - tr_sq / p)
    if den <= 0.0:
        return target, 1.0
    rho = min(1.0, ((1.0 - 2.0 / p) * tr_s2 + tr_sq) / den)
    return (1.0 - rho) * s + rho * target, rho


def oas(samples) -> np.ndarray:
    """Precision: inverse of the OAS shrunk covariance."""
    cov, _ = oas_shrinkage(samples)
    return linalg.spd_inverse(cov)
