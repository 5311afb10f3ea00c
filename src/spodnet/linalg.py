"""Dense symmetric/SPD linear algebra used outside the differentiated path.

Every function takes one ``(p, p)`` matrix or a stack ``(..., p, p)``, and
checks and factors a stack in one vectorised call. Factorizations and
eigensolves are delegated to LAPACK through numpy, which runs the same
``potrf``/``syevd`` per matrix of a stack, so a stacked result has the bits
of the per-matrix one. The triangular solves of :func:`spd_inverse` call
scipy's LAPACK ``dtrtrs``, once per matrix, with the arguments that
``scipy.linalg.solve_triangular`` passes it. numpy is not used for them
yet: it has no transposed triangular solve, a numpy-only inverse rounds
differently, and the acceptance suite's 30-epoch training (criterion 10)
turns on the inverse's last bits. scipy is imported on the first call:
loading it takes about 0.2 s, which a process that never inverts, such as
``gen-data``, should not pay.

This module adds the strict positive-definiteness contract (failures carry
the offending pivot index and, for a stack, the sample; non-finite input is
never positive definite), symmetrized inverses, and the pivot index set
shared by the update layer and the solvers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "as_sym_array",
    "as_sym_matrix",
    "cholesky",
    "eig_diagnostics",
    "is_spd",
    "rest_indices",
    "spd_inverse",
]

_SYM_RTOL = 1e-12


class NotPositiveDefinite(Exception):
    """Cholesky met a non-positive pivot: the matrix is not numerically PD.

    ``sample`` is the flat batch position of the first failing matrix of a
    stack, or None when the input had no batch axis.
    """

    def __init__(self, pivot: int, sample: int | None = None):
        super().__init__(f"matrix is not positive definite (failing pivot {pivot})")
        self.pivot = pivot
        self.sample = sample


def as_sym_array(a) -> np.ndarray:
    """Coerce to a float64 ``(..., p, p)`` array and require each matrix to be
    symmetric: 1e-12 relative when finite, exact (NaN positions included)
    otherwise."""
    m = np.asarray(getattr(a, "data", a), dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    finite = np.isfinite(scale)
    if finite.all():
        asymmetric = np.abs(m - m.mT).max(axis=(-2, -1), initial=0.0) > _SYM_RTOL * scale
    else:
        # a NaN or inf scale makes the relative test meaningless
        mirrored = ((m == m.mT) | (np.isnan(m) & np.isnan(m.mT))).all(axis=(-2, -1))
        with np.errstate(invalid="ignore"):
            diff = np.abs(m - m.mT).max(axis=(-2, -1), initial=0.0)
        asymmetric = np.where(finite, diff > _SYM_RTOL * scale, ~mirrored)
    if asymmetric.any():
        raise ValueError("matrix is not symmetric")
    return m


def as_sym_matrix(a) -> np.ndarray:
    """:func:`as_sym_array` for callers that take one matrix, not a stack."""
    m = np.asarray(getattr(a, "data", a), dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return as_sym_array(m)


@lru_cache(maxsize=None)
def rest_indices(p: int, i: int) -> np.ndarray:
    """All indices except ``i``, ascending; cached, so the array is read-only."""
    if not 0 <= i < p:
        raise IndexError(f"pivot {i} out of range for dimension {p}")
    rest = np.concatenate([np.arange(i), np.arange(i + 1, p)])
    rest.setflags(write=False)
    return rest


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with a = L L' for each matrix of ``a``; strictly
    positive pivots required.

    Non-finite input is rejected too: LAPACK factors NaN without failing.
    A stack is checked and factored in one call; only when that fails is it
    walked matrix by matrix, to name the first failing one.
    """
    m = as_sym_array(a)
    if np.isfinite(m).all():
        try:
            return np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            pass
    if m.ndim == 2:
        raise NotPositiveDefinite(_failing_pivot(m))
    for j, mj in enumerate(m.reshape(-1, *m.shape[-2:])):
        try:
            cholesky(mj)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(exc.pivot, sample=j) from None
    raise AssertionError("a stacked Cholesky failed where each matrix factors")


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
    """Inverse of each SPD matrix of ``a`` via Cholesky, symmetrized on output.

    Each inverse is ``inv(L') inv(L)``: two ``dtrtrs`` solves against L',
    with the arguments that ``scipy.linalg.solve_triangular(L, I,
    lower=True)`` and ``solve_triangular(L', ., lower=False)`` pass, so the
    bits are theirs. Their per-call checks are skipped: :func:`cholesky`
    has checked the input, and its factor has a strictly positive diagonal.
    """
    # imported here so a process that never inverts does not load scipy.linalg
    from scipy.linalg.lapack import dtrtrs

    L = cholesky(a)
    p = L.shape[-1]
    eye = np.eye(p)
    inv = np.empty(L.shape)
    for lj, out in zip(L.reshape(-1, p, p), inv.reshape(-1, p, p)):
        upper = lj.T
        half, _ = dtrtrs(upper, eye, lower=0, trans=1)
        out[...], _ = dtrtrs(upper, half, lower=0, trans=0, overwrite_b=1)
    return 0.5 * (inv + inv.mT)


def eig_diagnostics(a):
    """(smallest eigenvalue, largest eigenvalue, their ratio) of each matrix
    of ``a``: floats for one matrix, arrays of the batch shape for a stack.

    Diagnostic only; never on the differentiated path.
    """
    m = as_sym_array(a)
    if not np.isfinite(m).all():
        raise ValueError("eig_diagnostics: matrix has non-finite entries")
    vals = np.linalg.eigvalsh(m)
    lo, hi = vals[..., 0], vals[..., -1]
    cond = np.divide(hi, lo, out=np.full(lo.shape, np.inf), where=lo != 0.0)
    if m.ndim == 2:
        return float(lo), float(hi), float(cond)
    return lo, hi, cond
