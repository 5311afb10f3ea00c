"""Dense symmetric/SPD linear algebra used outside the differentiated path.

Every function takes one ``(p, p)`` matrix or a stack ``(..., p, p)``, and
checks and factors a stack in one vectorised call. Factorizations and
eigensolves are delegated to LAPACK through numpy, which runs the same
``potrf``/``syevd`` per matrix of a stack, so a stacked result has the bits
of the per-matrix one.

The triangular solves of :func:`spd_inverse` call LAPACK ``dtrtrs`` once
per matrix, with the arguments that ``scipy.linalg.solve_triangular``
passes it, because the acceptance suite's 30-epoch training (criterion 10)
turns on the inverse's last bits and numpy's own solves round differently.
numpy's wheels bundle their BLAS/LAPACK as scipy-openblas
(``numpy.libs/libscipy_openblas64_*``), whose symbols carry a ``scipy_``
prefix and, for its 64-bit integers, a ``64_`` suffix: ``dtrtrs`` is
``scipy_dtrtrs_64_``. That library is already loaded with numpy, so
:func:`spd_inverse` calls it through ``ctypes`` and the process never
imports scipy, which costs about 26 MB of resident memory (scipy brings
its own copy of OpenBLAS). It is the routine scipy calls, called with the
same arguments, so the bits are scipy's; the tests check this bit for bit
on both paths. Where numpy bundles no such library (macOS builds on
Accelerate, conda builds on MKL, source builds), the solves go through
``scipy.linalg.lapack.dtrtrs``, imported on the first call.

This module adds the strict positive-definiteness contract (failures carry
the offending pivot index and, for a stack, the sample; non-finite input is
never positive definite), symmetrized inverses, and the pivot index set
shared by the update layer and the solvers.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "as_sym_array",
    "as_sym_matrix",
    "cholesky",
    "eig_diagnostics",
    "rest_indices",
    "spd_inverse",
    "spectrum",
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


def spd_inverse(a, factor=None) -> np.ndarray:
    """Inverse of each SPD matrix of ``a`` via Cholesky, symmetrized on output.
    A caller that already holds ``cholesky(a)`` passes it as ``factor``, and
    ``a`` is then neither checked nor factored again.

    Each inverse is ``inv(L') inv(L)``: two LAPACK ``dtrtrs`` solves against
    U = L', the first transposed (``L X = I``), the second not (``L' Y =
    X``). These are the calls ``scipy.linalg.solve_triangular(L, I,
    lower=True)`` and ``solve_triangular(L', X, lower=False)`` make, so the
    bits are theirs. The solves run in numpy's bundled OpenBLAS when
    :func:`_bundled_dtrtrs` finds it, and through scipy otherwise. Neither
    path repeats scipy's per-call checks: :func:`cholesky` has checked the
    input, and its factor has a strictly positive diagonal.
    """
    L = cholesky(a) if factor is None else factor
    dtrtrs = _bundled_dtrtrs()
    inv = _solve_scipy(L) if dtrtrs is None else _solve_bundled(dtrtrs, L)
    return 0.5 * (inv + inv.mT)


# Fortran CHARACTER arguments of dtrtrs; read-only, so shared by all callers
_CHARS = tuple(ctypes.create_string_buffer(c) for c in (b"U", b"T", b"N"))
_UPPER, _TRANS, _NOTRANS = (ctypes.addressof(c) for c in _CHARS)


@lru_cache(maxsize=None)
def _bundled_dtrtrs():
    """``scipy_dtrtrs_64_`` of the scipy-openblas in numpy's wheel, or None.

    The library is the one numpy itself loaded, so opening it maps nothing
    new. Every argument is declared a pointer and passed as an integer
    address, which ``ctypes`` converts with the least work per call.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_dtrtrs_64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_void_p] * 10
        fn.restype = None
        return fn
    return None


def _solve_bundled(dtrtrs, L: np.ndarray) -> np.ndarray:
    """inv(L') inv(L) per matrix of ``L``, unsymmetrized and column-major.

    L's C buffer read column-major is U = L'. The output starts as the
    identity, which reads the same either way, and each matrix is solved
    in place. The output holds each inverse transposed; the caller's
    symmetrization adds the same two entries either way round.
    """
    p = L.shape[-1]
    L = np.ascontiguousarray(L)
    inv = np.zeros(L.shape)
    inv.reshape(-1, p * p)[:, :: p + 1] = 1.0
    # N = NRHS = LDA = LDB = p, then INFO; per call, as callers may run
    # concurrently in threads
    dims = (ctypes.c_int64 * 2)(p, 0)
    n = ctypes.addressof(dims)
    info = n + 8
    lo, out = L.ctypes.data, inv.ctypes.data
    for off in range(0, L.nbytes, L.itemsize * p * p):
        dtrtrs(_UPPER, _TRANS, _NOTRANS, n, n, lo + off, n, out + off, n, info)
        dtrtrs(_UPPER, _NOTRANS, _NOTRANS, n, n, lo + off, n, out + off, n, info)
        if dims[1]:
            raise np.linalg.LinAlgError(f"dtrtrs failed with info {dims[1]}")
    return inv


def _solve_scipy(L: np.ndarray) -> np.ndarray:
    """inv(L') inv(L) per matrix of ``L`` through scipy's ``dtrtrs``,
    unsymmetrized."""
    # imported here so a process that never inverts does not load scipy.linalg
    from scipy.linalg.lapack import dtrtrs

    p = L.shape[-1]
    eye = np.eye(p)
    inv = np.empty(L.shape)
    for lj, out in zip(L.reshape(-1, p, p), inv.reshape(-1, p, p)):
        upper = lj.T
        half, _ = dtrtrs(upper, eye, lower=0, trans=1)
        out[...], _ = dtrtrs(upper, half, lower=0, trans=0, overwrite_b=1)
    return inv


def spectrum(a) -> np.ndarray:
    """Ascending eigenvalues, ``(..., p)``, of each symmetric, finite matrix
    of ``a``. Diagnostic only; never on the differentiated path."""
    m = as_sym_array(a)
    if not np.isfinite(m).all():
        raise ValueError("spectrum: matrix has non-finite entries")
    return np.linalg.eigvalsh(m)


def eig_diagnostics(a, vals=None):
    """(smallest eigenvalue, largest eigenvalue, their ratio) of each matrix
    of ``a``: floats for one matrix, arrays of the batch shape for a stack.
    A caller that already holds ``spectrum(a)`` passes it as ``vals``."""
    vals = spectrum(a) if vals is None else vals
    lo, hi = vals[..., 0], vals[..., -1]
    cond = np.divide(hi, lo, out=np.full(lo.shape, np.inf), where=lo != 0.0)
    if vals.ndim == 1:
        return float(lo), float(hi), float(cond)
    return lo, hi, cond
