"""Model-based precision estimators.

The l1-penalized maximum-likelihood estimator

    minimize  -logdet(Theta) + <S, Theta> + lam * sum_{i != j} |Theta_ij|

is solved by proximal block coordinate descent whose blocks are column-row
pairs: each block takes soft-thresholded gradient steps on the off-diagonal
column, then sets the pivot diagonal to its exact coordinate minimizer
(Schur margin 1/S_ii), so every iterate is SPD by construction and the
objective never increases across accepted steps. The inverse is maintained
through the same O(p^2) block identities as the update layer and refreshed
densely once per sweep.

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
    "block_gista_step",
    "default_lambda_grid",
    "empirical_covariance",
    "glasso_cv",
    "glasso_kkt_residual",
    "glasso_objective",
    "glasso_solve",
    "ledoit_wolf",
    "ledoit_wolf_shrinkage",
    "oas",
    "oas_shrinkage",
]

_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class GlassoConfig:
    """Solver knobs: penalty, sweep budget, per-sweep objective tolerance,
    proximal steps per block, initial step size, and whether the step size
    backtracks (halving until the block objective decreases) or stays fixed."""

    lam: float = 0.1
    max_sweeps: int = 500
    tol: float = 1e-10
    inner_steps: int = 5
    step_size: float = 1.0
    step_rule: str = "backtracking"  # or "fixed"

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")
        if self.max_sweeps < 1 or self.inner_steps < 1:
            raise ValueError("max_sweeps and inner_steps must be >= 1")
        if not self.step_size > 0.0:
            raise ValueError("step_size must be > 0")
        if self.step_rule not in ("backtracking", "fixed"):
            raise ValueError(f"unknown step_rule {self.step_rule!r}")


def empirical_covariance(samples) -> np.ndarray:
    """S = X'X / n for centered rows."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected an n-by-p sample matrix, got shape {x.shape}")
    s = x.T @ x / x.shape[0]
    return 0.5 * (s + s.T)


def glasso_objective(theta, s, lam: float) -> float:
    """-logdet(theta) + <s, theta> + lam * off-diagonal l1 norm."""
    td = linalg.as_sym_array(theta)
    sd = linalg.as_sym_array(s)
    L = linalg.cholesky(td)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    trace_term = float((sd * td).sum())
    off_l1 = float(np.abs(td).sum() - np.abs(np.diag(td)).sum())
    return -logdet + trace_term + lam * off_l1


def block_gista_step(theta12, s12, w12, gamma: float, lam: float) -> np.ndarray:
    """Soft-thresholded gradient step on one off-diagonal column:
    ST_{gamma*lam}(theta12 - gamma * (s12 - w12))."""
    if not gamma > 0.0:
        raise ValueError("gamma must be > 0")
    step = np.asarray(theta12, dtype=np.float64) - gamma * (
        np.asarray(s12, dtype=np.float64) - np.asarray(w12, dtype=np.float64))
    return np.sign(step) * np.maximum(np.abs(step) - gamma * lam, 0.0)


def _block_objective(x, mx, s12, s22: float, lam: float) -> float:
    # block restriction of the objective with the pivot diagonal pinned
    # to its coordinate minimizer; constants dropped
    return (2.0 * float(s12 @ x) + s22 * float(x @ mx)
            + 2.0 * lam * float(np.abs(x).sum()))


def _update_block(theta: np.ndarray, w: np.ndarray, sd: np.ndarray, i: int,
                  cfg: GlassoConfig) -> tuple[np.ndarray, np.ndarray]:
    rest = linalg.rest_indices(sd.shape[0], i)
    m = core.theta11_inverse_np(w, i)
    s12 = sd[rest, i]
    s22 = float(sd[i, i])
    v_target = 1.0 / s22

    x = theta[rest, i].copy()
    mx = m @ x
    h_cur = _block_objective(x, mx, s12, s22, cfg.lam)
    for _ in range(cfg.inner_steps):
        w12 = -s22 * mx  # inverse column implied by the pinned diagonal
        gamma = cfg.step_size
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            cand = block_gista_step(x, s12, w12, gamma, cfg.lam)
            if np.array_equal(cand, x):
                break
            mc = m @ cand
            h_new = _block_objective(cand, mc, s12, s22, cfg.lam)
            if cfg.step_rule == "fixed" or h_new <= h_cur:
                x, mx, h_cur = cand, mc, h_new
                moved = True
                break
            gamma *= 0.5
        if not moved:
            break

    return (core.theta_plus_np(theta, i, x, v_target, m),
            core.w_plus_np(m, x, v_target, i))


def glasso_solve(s, cfg: GlassoConfig, objective_trace: list | None = None
                 ) -> np.ndarray:
    """Penalized precision estimate; SPD at every iterate by construction.

    Terminates when the objective decrease over a sweep drops below
    ``cfg.tol`` or the sweep budget runs out. ``objective_trace`` collects
    the objective value at initialization and after each sweep.
    """
    sd = linalg.as_sym_array(s)
    p = sd.shape[0]
    if np.any(np.diag(sd) <= 0.0):
        raise ValueError("covariance diagonal must be strictly positive")
    start = core.initial_state(sd)
    theta, w = start.theta.data, start.w.data
    obj = glasso_objective(theta, sd, cfg.lam)
    if objective_trace is not None:
        objective_trace.append(obj)
    for _ in range(cfg.max_sweeps):
        prev = obj
        for i in range(p):
            theta, w = _update_block(theta, w, sd, i, cfg)
        w = linalg.spd_inverse(theta)  # bound drift of the maintained pair
        obj = glasso_objective(theta, sd, cfg.lam)
        if objective_trace is not None:
            objective_trace.append(obj)
        if prev - obj < cfg.tol:
            break
    return theta


def glasso_kkt_residual(theta, s, lam: float) -> float:
    """Largest stationarity violation of the penalized objective at theta.

    Zero entries must satisfy |S_ij - W_ij| <= lam, nonzero entries
    S_ij - W_ij + lam*sign(theta_ij) = 0, and the diagonal S_ii = W_ii,
    where W is the exact inverse of theta.
    """
    td = linalg.as_sym_array(theta)
    w = linalg.spd_inverse(td)
    g = linalg.as_sym_array(s) - w
    off = ~np.eye(td.shape[0], dtype=bool)
    nz = off & (td != 0.0)
    zz = off & (td == 0.0)
    res = float(np.abs(np.diag(g)).max())
    if nz.any():
        res = max(res, float(np.abs(g + lam * np.sign(td))[nz].max()))
    if zz.any():
        res = max(res, float(np.maximum(np.abs(g)[zz] - lam, 0.0).max()))
    return res


def default_lambda_grid(samples, size: int = 10) -> list[float]:
    """Log-spaced grid over [0.01, 1] times the largest off-diagonal of S."""
    s = empirical_covariance(samples)
    off = s.copy()
    np.fill_diagonal(off, 0.0)
    top = float(np.abs(off).max())
    if top <= 0.0:
        top = 1.0
    return [float(v) for v in np.geomspace(0.01 * top, top, size)]


def _holdout_nll(theta, s_holdout) -> float:
    td = linalg.as_sym_array(theta)
    L = linalg.cholesky(td)
    return -2.0 * float(np.log(np.diag(L)).sum()) + float((s_holdout * td).sum())


def glasso_cv(samples, lambda_grid=None, folds: int = 5,
              cfg: GlassoConfig | None = None) -> tuple[float, np.ndarray]:
    """Pick the penalty by K-fold held-out Gaussian negative log-likelihood.

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
    grid = sorted(float(v) for v in (lambda_grid if lambda_grid is not None
                                     else default_lambda_grid(x)))
    if not grid:
        raise ValueError("lambda grid is empty")
    cfg = cfg if cfg is not None else GlassoConfig()
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
