"""Dense symmetric/SPD linear algebra used outside the differentiated path.

Factorizations and eigensolves are delegated to LAPACK through numpy/scipy.
This module adds the strict positive-definiteness contract (failures carry
the offending pivot index; non-finite input is never positive definite),
symmetrized inverses, and the pivot index set shared by the update layer
and the solvers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "NotPositiveDefinite",
    "as_sym_array",
    "cholesky",
    "eig_diagnostics",
    "is_spd",
    "rest_indices",
    "spd_inverse",
]

_SYM_RTOL = 1e-12


class NotPositiveDefinite(Exception):
    """Cholesky met a non-positive pivot: the matrix is not numerically PD."""

    def __init__(self, pivot: int):
        super().__init__(f"matrix is not positive definite (failing pivot {pivot})")
        self.pivot = pivot


def as_sym_array(a) -> np.ndarray:
    """Coerce to a square float64 array and require symmetry: 1e-12 relative
    when finite, exact (NaN positions included) otherwise."""
    m = np.asarray(getattr(a, "data", a), dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.abs(m).max()) if m.size else 0.0
    if np.isfinite(scale):
        asymmetric = scale > 0.0 and float(np.abs(m - m.T).max()) > _SYM_RTOL * scale
    else:
        # a NaN or inf scale makes the relative test meaningless
        asymmetric = not np.array_equal(m, m.T, equal_nan=True)
    if asymmetric:
        raise ValueError("matrix is not symmetric")
    return m


@lru_cache(maxsize=None)
def rest_indices(p: int, i: int) -> np.ndarray:
    """All indices except ``i``, ascending; cached, so the array is read-only."""
    if not 0 <= i < p:
        raise IndexError(f"pivot {i} out of range for dimension {p}")
    rest = np.concatenate([np.arange(i), np.arange(i + 1, p)])
    rest.setflags(write=False)
    return rest


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with a = L L'; strictly positive pivots required.

    Non-finite input is rejected too: LAPACK factors NaN without failing.
    """
    m = as_sym_array(a)
    if not np.isfinite(m).all():
        raise NotPositiveDefinite(_failing_pivot(m))
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(_failing_pivot(m)) from None


def _failing_pivot(m: np.ndarray) -> int:
    # slow path, only entered after LAPACK reported failure
    p = m.shape[0]
    L = np.zeros_like(m)
    for j in range(p):
        d = m[j, j] - L[j, :j] @ L[j, :j]
        if not 0.0 < d < np.inf:
            return j
        L[j, j] = np.sqrt(d)
        if j + 1 < p:
            L[j + 1:, j] = (m[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return p - 1


def is_spd(a) -> bool:
    try:
        cholesky(a)
    except NotPositiveDefinite:
        return False
    return True


def spd_inverse(a) -> np.ndarray:
    """Inverse of an SPD matrix via Cholesky, symmetrized on output."""
    m = as_sym_array(a)
    L = cholesky(m)
    eye = np.eye(m.shape[0])
    half = solve_triangular(L, eye, lower=True)
    inv = solve_triangular(L.T, half, lower=False)
    return 0.5 * (inv + inv.T)


def eig_diagnostics(a) -> tuple[float, float, float]:
    """(smallest eigenvalue, largest eigenvalue, their ratio).

    Diagnostic only; never on the differentiated path.
    """
    m = as_sym_array(a)
    vals = np.linalg.eigvalsh(m)
    lo, hi = float(vals[0]), float(vals[-1])
    cond = hi / lo if lo != 0.0 else float("inf")
    return lo, hi, cond
