"""SPD-preserving column-row updates with O(p^2) inverse maintenance.

One layer cycles over pivot columns. At each pivot it reads the inverse's
blocks, forms the reduced-block inverse

    inv(Theta_11) = W_11 - w_12 w_12' / w_22

in O(p^2), lets the learned maps pick the new off-diagonal column ``u`` and
a strictly positive margin ``v``, pins the pivot diagonal to
``v + u' inv(Theta_11) u`` (so the updated Schur complement equals ``v``
and positive-definiteness is preserved for any ``u``), and rebuilds both
the matrix and its inverse from the same blocks.

Each of the three block identities (reduced-block inverse, updated matrix,
updated inverse) is computed by one numpy function, ``*_np``, which the
glasso baseline also calls; the tape op of the same name without the
suffix runs that function and carries its hand-written adjoint. An update
forms u' M and M u once, M = inv(Theta_11): the Schur quadratic (the g
net's input) reads the first, the updated pivot and inverse the second. So
the identities take those products from their caller instead of
multiplying again. While a tape records, the layer also forms their sum
(M + M') u, which the adjoints of the quadratic and of the updated matrix
read; every form z' M z, the stabilizer's too, takes its adjoint from one
helper.

Every function here takes matrices of shape ``(..., p, p)``: a stack of
independent samples with a leading batch axis runs through the same code,
one tape node per op, as one ``(p, p)`` matrix does. Per-sample vectors are
``(..., p - 1)`` and per-sample scalars ``(...)``. The pivot loop is
sequential; the samples are not. A check that fails names the first
failing sample of a batch in :attr:`SpdViolation.sample`.

Gradient bookkeeping offers two modes. In ``detached`` mode the inverse is
maintained as plain numbers: quantities derived from it enter each update
as constants and gradients do not flow through the inverse-maintenance
recursion across columns (the matrix path itself stays fully on the tape).
In ``full`` mode the inverse is maintained as tape tensors and gradients
flow through everything. Both modes run the same numpy functions, so
their values are bit-identical; only the differentiated dependency
structure differs. A forward pass is observed through one hook, called
after every column update with an :class:`UpdateEvent`; replaying the
events' inverse-derived inputs (``w_replay``) freezes them, so the detached
gradient can be checked against finite differences of the function it
actually differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import linalg
from .autodiff import Tensor, apply_op

__all__ = [
    "ColumnContext",
    "LayerConfig",
    "SpdState",
    "SpdViolation",
    "UpdateEvent",
    "UpdateFns",
    "bauer_fike_check",
    "col_off",
    "diag_entry",
    "initial_state",
    "rank2_delta_eigs",
    "schur_quadratic",
    "spd_inverse_op",
    "spodnet_forward",
    "spodnet_layer",
    "stabilize_preactivation",
    "theta11_inverse",
    "theta11_inverse_np",
    "theta_plus",
    "theta_plus_np",
    "w_plus",
    "w_plus_np",
]

QUAD_GUARD = 1e-12
PAIR_RESIDUAL_RTOL = 1e-8
BAUER_FIKE_SLACK = 1e-8
TAPE_MODES = ("detached", "full")


class SpdViolation(RuntimeError):
    """The running state lost positive-definiteness; an upstream contract broke.

    ``sample`` is the flat batch position of the first sample that failed,
    or None when the input had no batch axis.
    """

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


def _require(ok, describe: Callable[[int], str]) -> None:
    """Raise :class:`SpdViolation` for the first sample whose ``ok`` entry is
    False; ``describe(j)`` words the failure at flat batch position ``j``."""
    # bool() on the scalar an unbatched check gives is far cheaper than .all()
    if bool(ok) if ok.ndim == 0 else ok.all():
        return
    j = int(np.argmin(ok.reshape(-1)))
    raise SpdViolation(describe(j), sample=j if ok.ndim else None)


@dataclass(frozen=True)
class LayerConfig:
    """Shape of the unrolled forward pass.

    ``zeta`` is the target quadratic form of the rescaled pre-threshold
    vector; ``stabilize`` switches that rescaling off entirely (for
    instability studies). ``tape_mode`` picks the gradient bookkeeping
    described in the module docstring. Every layer of a pass that is not
    a replay ends with a dense refresh of the inverse, one stacked
    Cholesky over the whole batch that proves each theta PD, and
    :meth:`SpdState.validate`, which checks the refreshed pair's residual.
    Frozen, so the checks below hold for the config's lifetime: the
    stabilizer takes ``zeta`` unchecked.
    """

    zeta: float = 1.0
    num_layers: int = 1
    stabilize: bool = True
    tape_mode: str = "detached"

    def __post_init__(self):
        if not 0.0 < self.zeta < np.inf:
            raise ValueError(f"zeta must be finite and > 0, got {self.zeta}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.tape_mode not in TAPE_MODES:
            raise ValueError(f"unknown tape_mode {self.tape_mode!r}")


@dataclass
class SpdState:
    """Matrix/inverse pair threaded through the layers, each ``(..., p, p)``."""

    theta: Tensor
    w: Tensor

    @property
    def p(self) -> int:
        return self.theta.data.shape[-1]

    def validate(self) -> None:
        """Inverse-pair residual, one vectorised call over the stack, naming
        the first sample that drifted. The refresh's Cholesky has proved
        theta PD; this checks the inverse its triangular solves returned."""
        td, wd = self.theta.data, self.w.data
        resid = np.abs(td @ wd - np.eye(self.p)).max(axis=(-2, -1))
        cond_inf = np.abs(td).sum(axis=-1).max(axis=-1) * np.abs(wd).sum(axis=-1).max(axis=-1)
        paired = np.isfinite(resid) & (resid <= PAIR_RESIDUAL_RTOL * np.maximum(cond_inf, 1.0))
        _require(paired, lambda j: f"inverse pair drifted: residual "
                                   f"{float(resid.reshape(-1)[j]):.3e} vs cond "
                                   f"{float(cond_inf.reshape(-1)[j]):.3e}")


@dataclass
class ColumnContext:
    """Everything a column update sees at pivot ``i``: per-sample vectors
    ``(..., p - 1)``, per-sample scalars ``(...)`` and ``theta11_inv`` of
    shape ``(..., p - 1, p - 1)``."""

    i: int
    theta12: Tensor
    theta22: Tensor
    s12: Tensor
    s22: Tensor
    w12: Tensor
    theta11_inv: Tensor
    zeta: float
    stabilize: bool


@dataclass
class UpdateFns:
    """Learned (or test-supplied) column and margin maps.

    ``f(ctx)`` returns the new off-diagonal column. ``g(ctx, u, schur_quad)``
    returns the strictly positive Schur margin of the updated pivot, shape
    ``(...)`` or ``(..., 1)``, where ``schur_quad`` is u' inv(Theta_11) u for
    the column just produced.
    """

    f: Callable[[ColumnContext], Tensor]
    g: Callable[[ColumnContext, Tensor, Tensor], Tensor]


@dataclass
class UpdateEvent:
    """What a hook sees after updating pivot ``i``: the layer's own arrays,
    by reference (each update allocates fresh ones; do not write to them),
    the update's inverse-derived inputs and its Schur margin ``v``. Every
    array keeps the forward's batch axis; ``v`` has the batch shape (0-d
    for one matrix)."""

    layer: int
    i: int
    theta_before: np.ndarray
    theta_after: np.ndarray
    w_after: np.ndarray
    theta11_inv: np.ndarray
    w12: np.ndarray
    v: np.ndarray

    @property
    def col_diff(self) -> np.ndarray:
        rest = linalg.rest_indices(self.theta_after.shape[-1], self.i)
        return self.theta_after[..., rest, self.i] - self.theta_before[..., rest, self.i]

    @property
    def diag_diff(self):
        i = self.i
        return self.theta_after[..., i, i] - self.theta_before[..., i, i]


@lru_cache(maxsize=None)
def _block_index(p: int, i: int) -> np.ndarray:
    """Flat indices, into a p x p matrix, of its block without row and
    column ``i``; cached, so the array is read-only."""
    rest = linalg.rest_indices(p, i)
    idx = (rest[:, None] * p + rest[None, :]).ravel()
    idx.setflags(write=False)
    return idx


# Gathers go through ``take``: fancy indexing on trailing axes of a stack
# returns a transposed memory layout, which numpy's matvec/vecmat/vecdot
# then run without BLAS, rounding differently from the unbatched call.


def _col(a: np.ndarray, i: int, rest: np.ndarray) -> np.ndarray:
    """Column ``i`` of ``a`` without its diagonal entry, C-contiguous."""
    return a[..., :, i].take(rest, axis=-1)


def _row(a: np.ndarray, i: int, rest: np.ndarray) -> np.ndarray:
    """Row ``i`` of ``a`` without its diagonal entry, C-contiguous."""
    return a[..., i, :].take(rest, axis=-1)


def _block11(a: np.ndarray, i: int) -> np.ndarray:
    """The ``(..., p - 1, p - 1)`` block of ``a`` without row and column
    ``i``, C-contiguous."""
    lead, p = a.shape[:-2], a.shape[-1]
    flat = a.reshape(*lead, p * p).take(_block_index(p, i), axis=-1)
    return flat.reshape(*lead, p - 1, p - 1)


def _set_block11(out: np.ndarray, i: int, block: np.ndarray) -> None:
    """Write ``block`` into the block of ``out`` without row and column
    ``i``; ``out`` must be C-contiguous, so that its reshape is a view."""
    lead, p = out.shape[:-2], out.shape[-1]
    out.reshape(*lead, p * p)[..., _block_index(p, i)] = block.reshape(*lead, -1)


# -- structural tape primitives ------------------------------------------


def col_off(a: Tensor, i: int) -> Tensor:
    """Off-diagonal part of column ``i``, shape ``(..., p - 1)``."""
    ad_ = a.data
    shape = ad_.shape
    rest = linalg.rest_indices(shape[-1], i)

    def vjp(g):
        out = np.zeros(shape)
        out[..., rest, i] = g
        return (out,)

    return apply_op(_col(ad_, i, rest), (a,), vjp)


def diag_entry(a: Tensor, i: int) -> Tensor:
    """Diagonal entry (i, i), shape ``(...)``."""
    shape = a.data.shape

    def vjp(g):
        out = np.zeros(shape)
        out[..., i, i] = g
        return (out,)

    return apply_op(a.data[..., i, i], (a,), vjp)


def spd_inverse_op(a: Tensor) -> Tensor:
    """Differentiable SPD inverse (dense; used at layer boundaries only)."""
    inv = linalg.spd_inverse(a.data)

    def vjp(g):
        return (-inv @ g @ inv,)

    return apply_op(inv, (a,), vjp)


# -- quadratic forms z' M z in M = inv(Theta_11) --------------------------


def _quad_adjoint(c, z: np.ndarray, sym: np.ndarray, need_m: bool):
    """Adjoints of c z' M z for per-sample ``c``: c (M + M') z to z, from
    ``sym`` = (M + M') z so that a tape does not keep M alive, and c z z'
    to M when ``need_m`` (else None)."""
    dm = c[..., None, None] * (z[..., :, None] * z[..., None, :]) if need_m else None
    return c[..., None] * sym, dm


def schur_quadratic(u: Tensor, theta11_inv: Tensor, um: np.ndarray,
                    sym: np.ndarray | None) -> Tensor:
    """Per-sample u' inv(Theta_11) u, shape ``(...)``, with adjoints for both
    operands, given ``um`` = u' inv(Theta_11) and ``sym`` = (M + M') u, which
    the layer forms only while a tape records (None otherwise). The value is
    (u' M) u, the association the unbatched 1-D form u @ M @ u rounds in."""
    ud, md, need_m = u.data, theta11_inv.data, theta11_inv.requires_grad
    if ud.ndim < 1 or md.shape != ud.shape + ud.shape[-1:]:
        raise ad.ShapeError(f"schur_quadratic: vector {ud.shape} against matrix {md.shape}")
    return apply_op(np.vecdot(um, ud), (u, theta11_inv),
                    lambda g: _quad_adjoint(g, ud, sym, need_m))


# -- block identities: numpy forward, tape op with its adjoint -------------
#
# The tape ops call the numpy functions by their module-global names, so a
# patched function (as the bench tracer installs) is the one that runs.


def theta11_inverse_np(w: np.ndarray, i: int) -> np.ndarray:
    """Reduced-block inverse W_11 - w_12 w_12' / w_22, read off ``w``, in O(p^2)."""
    p = w.shape[-1]
    rest = linalg.rest_indices(p, i)
    # [()] makes the 0-d read of an unbatched w a scalar, whose compare and
    # divide skip numpy's array machinery (about 1 us each); same bits
    w22 = w[..., i, i][()]
    _require(w22 > 0.0, lambda j: f"inverse w22 = {float(w22.reshape(-1)[j])!r} "
                                  f"at pivot {i} is not positive")
    w12 = _col(w, i, rest)
    # in place on fresh arrays: the same roundings with fewer (p, p) temporaries
    rank1 = w12[..., :, None] * w12[..., None, :]
    rank1 /= w22[..., None, None]
    out = _block11(w, i)
    out -= rank1
    return out


def theta11_inverse(w: Tensor, i: int) -> Tensor:
    """Tape op for :func:`theta11_inverse_np`; the off-diagonal block is
    read from column ``i``, so its adjoint lands there."""
    wd = w.data
    out = theta11_inverse_np(wd, i)
    rest = linalg.rest_indices(wd.shape[-1], i)
    # the adjoint reads w12 and w22, not W, so the tape does not keep W alive
    shape, w12, w22 = wd.shape, _col(wd, i, rest), wd[..., i, i].copy()

    def vjp(g):
        dw = np.zeros(shape)
        _set_block11(dw, i, g)
        dw[..., rest, i] = -np.matvec(g + g.mT, w12) / w22[..., None]
        dw[..., i, i] = np.vecdot(np.vecmat(w12, g), w12) / (w22 * w22)
        return (dw,)

    return apply_op(out, (w,), vjp)


def theta_plus_np(theta: np.ndarray, i: int, u: np.ndarray, v,
                  mu: np.ndarray) -> np.ndarray:
    """Write column/row ``i`` to ``u`` and pin the pivot diagonal to
    ``v + u' mu``, with ``mu`` = inv(Theta_11) u from the caller, so the
    updated matrix has Schur margin exactly ``v`` (shape ``(...)``); SPD for
    any u, v > 0. Its owners check that ``v`` is finite and positive: the
    layer, naming sample and pivot, and ``glasso_solve``, whose v is 1/S_ii."""
    rest = linalg.rest_indices(theta.shape[-1], i)
    out = theta.copy()
    out[..., rest, i] = u
    out[..., i, rest] = u
    out[..., i, i] = v + np.vecdot(u, mu)
    return out


def theta_plus(theta: Tensor, u: Tensor, v: Tensor, theta11_inv: Tensor,
               i: int, mu: np.ndarray, sym: np.ndarray | None) -> Tensor:
    """Tape op for :func:`theta_plus_np`, given ``mu`` and ``sym`` as the
    layer forms them; ``u`` fills both the row and the column, so its
    adjoint collects both sides plus the pivot's quadratic."""
    ud = u.data
    vshape = v.data.shape
    out = theta_plus_np(theta.data, i, ud, v.data.reshape(theta.data.shape[:-2]), mu)
    rest = linalg.rest_indices(out.shape[-1], i)
    need_m = theta11_inv.requires_grad

    def vjp(g):
        gii = g[..., i, i]
        dtheta = g.copy()
        dtheta[..., i, :] = 0.0
        dtheta[..., :, i] = 0.0
        dq, dm = _quad_adjoint(gii, ud, sym, need_m)
        return (dtheta, _col(g, i, rest) + _row(g, i, rest) + dq, gii.reshape(vshape), dm)

    return apply_op(out, (theta, u, v, theta11_inv), vjp)


def w_plus_np(theta11_inv: np.ndarray, mu: np.ndarray, v, i: int) -> np.ndarray:
    """Inverse of the updated matrix from the same blocks, in O(p^2), with
    ``mu`` = inv(Theta_11) u from the caller and ``v`` checked by its
    owners (see :func:`theta_plus_np`)."""
    v = np.asarray(v)[()]  # a scalar when unbatched, as w22 above
    p = theta11_inv.shape[-1] + 1
    rest = linalg.rest_indices(p, i)
    col = -mu / v[..., None]
    block = mu[..., :, None] * mu[..., None, :]
    block /= v[..., None, None]
    block += theta11_inv
    out = np.empty(theta11_inv.shape[:-2] + (p, p))
    _set_block11(out, i, block)
    out[..., rest, i] = col
    out[..., i, rest] = col
    out[..., i, i] = 1.0 / v
    return out


def w_plus(theta11_inv: Tensor, u: Tensor, v: Tensor, i: int,
           mu: np.ndarray) -> Tensor:
    """Tape op for :func:`w_plus_np`, given ``mu`` = inv(Theta_11) u; the
    adjoint carries the chain through ``mu`` back to ``u`` and the block."""
    md, ud = theta11_inv.data, u.data
    vshape = v.data.shape
    vval = v.data.reshape(md.shape[:-2])
    out = w_plus_np(md, mu, vval, i)
    p = out.shape[-1]
    rest = linalg.rest_indices(p, i)

    def vjp(g):
        g11 = _block11(g, i)
        gcol = _col(g, i, rest) + _row(g, i, rest)
        dmu = (np.matvec(g11 + g11.mT, mu) - gcol) / vval[..., None]
        dv = ((np.vecdot(gcol, mu) - np.vecdot(np.vecmat(mu, g11), mu) - g[..., i, i])
              / (vval * vval))
        return (g11 + dmu[..., :, None] * ud[..., None, :], np.vecmat(dmu, md),
                dv.reshape(vshape))

    return apply_op(out, (theta11_inv, u, v), vjp)


def stabilize_preactivation(z: Tensor, theta11_inv: Tensor, zeta: float) -> Tensor:
    """Rescale each sample's ``z`` so z' inv(Theta_11) z equals ``zeta``.

    Degenerate samples (quadratic form <= 1e-12) pass through unchanged so
    the zero vector never divides by zero; when every sample is degenerate
    ``z`` itself is returned. One tape op: the output is ``s * z`` with
    ``s = sqrt(zeta) / sqrt(q)`` and ``q = z' M z``, and the adjoint sends
    ``g * s`` plus the chain through ``q`` to ``z``. :class:`LayerConfig`
    checks that ``zeta`` is finite and positive.
    """
    zd, md = z.data, theta11_inv.data
    # (z' M) z, the association the unbatched 1-D form z @ M @ z rounds in
    zm = np.vecmat(zd, md)
    q = np.vecdot(zm, zd)
    live = q > QUAD_GUARD
    if not live.any():
        return z
    c = float(np.sqrt(zeta))
    t = np.sqrt(np.where(live, q, 1.0))
    r = 1.0 / t
    s = np.where(live, r * c, 1.0)[..., None]
    # z is not the layer's u, so the stabilizer forms its own (M + M') z
    sym_z = zm + np.matvec(md, zd) if ad.recording() else None
    need_m = theta11_inv.requires_grad

    def vjp(g):
        dq = np.where(live, -((g * zd).sum(axis=-1) * c) * r * r * (0.5 / t), 0.0)
        dz, dm = _quad_adjoint(dq, zd, sym_z, need_m)
        return (g * s + dz, dm)

    return apply_op(s * zd, (z, theta11_inv), vjp)


def rank2_delta_eigs(col_diff, diag_diff):
    """Nonzero eigenvalues of the symmetric column-row perturbation, for one
    perturbation or a stack of them.

    The perturbation carries ``col_diff`` (``(..., p - 1)``) on one
    column/row pair and ``diag_diff`` (the batch shape) on the pivot
    diagonal; its rank is at most 2 and the nonzero eigenvalues are
    (d +/- sqrt(d^2 + 4 ||c||^2)) / 2. Returns (larger, smaller), each of
    the batch shape.
    """
    # contiguous, so a stack's strided rows round as one contiguous vector does
    c = np.ascontiguousarray(col_diff, dtype=np.float64)
    d = np.asarray(diag_diff, dtype=np.float64)
    root = np.sqrt(d * d + 4.0 * np.vecdot(c, c))
    return 0.5 * (d + root), 0.5 * (d - root)


def bauer_fike_check(eigs_before, eigs_after, delta_op_norm):
    """Check |lambda_k(before) - lambda_k(after)| <= delta_op_norm for all k,
    up to ``BAUER_FIKE_SLACK``, for the spectra of one matrix pair or of a
    stack of pairs (:func:`linalg.spectrum`), ``delta_op_norm`` per pair.

    Returns (within bound, max excess over the bound), each of the batch
    shape; the excess is negative when the bound holds with room to spare.
    """
    excess = (np.abs(eigs_before - eigs_after) - np.asarray(delta_op_norm)[..., None]).max(-1)
    return excess <= BAUER_FIKE_SLACK, excess


# -- the layer -------------------------------------------------------------


def spodnet_layer(state: SpdState, fns: UpdateFns, cfg: LayerConfig,
                  s: np.ndarray, *, layer_index: int = 0, hook=None,
                  w_replay: list | None = None) -> SpdState:
    """One full cycle of column-row updates, pivots 0..p-1 in order.

    ``hook`` gets an :class:`UpdateEvent` after every update. ``w_replay``
    supplies this layer's (theta11_inv, w12) pairs, one per pivot, in place
    of those read off the maintained inverse.
    """
    sd = np.asarray(s, dtype=np.float64)
    p = state.p
    batch = state.theta.data.shape[:-2]
    # replayed passes keep the inverse as plain numbers regardless of mode;
    # otherwise detached mode keeps it as an array, read without tape ops
    use_tape_w = cfg.tape_mode == "full" and w_replay is None
    theta = state.theta
    w = state.w if use_tape_w else None
    wd = state.w.data

    for i in range(p):
        rest = linalg.rest_indices(p, i)
        if w_replay is not None:
            rec_inv, rec_w12 = w_replay[i]
            t11inv = Tensor(rec_inv)
            w12 = Tensor(rec_w12)
        elif use_tape_w:
            t11inv = theta11_inverse(w, i)
            w12 = col_off(w, i)
        else:
            t11inv = Tensor(theta11_inverse_np(wd, i))
            w12 = Tensor(_col(wd, i, rest))

        theta_before = theta.data if hook is not None else None
        ctx = ColumnContext(
            i=i,
            theta12=col_off(theta, i),
            theta22=diag_entry(theta, i),
            s12=Tensor(_col(sd, i, rest)),
            s22=Tensor(sd[..., i, i]),
            w12=w12,
            theta11_inv=t11inv,
            zeta=cfg.zeta,
            stabilize=cfg.stabilize,
        )
        u = fns.f(ctx)
        # u' M and M u, each computed once: the Schur quadratic reads the
        # first, the pivot and W+ the second, and both adjoints their sum
        md, ud = t11inv.data, u.data
        um, mu = np.vecmat(ud, md), np.matvec(md, ud)
        sym = um + mu if ad.recording() else None
        v = fns.g(ctx, u, schur_quadratic(u, t11inv, um, sym))
        vval = v.data.reshape(batch)
        _require(np.isfinite(vval) & (vval > 0.0),
                 lambda j: f"margin v = {float(vval.reshape(-1)[j])!r} at pivot {i} "
                           "is not positive")
        theta = theta_plus(theta, u, v, t11inv, i, mu, sym)
        if use_tape_w:
            w = w_plus(t11inv, u, v, i, mu)
            wd = w.data
        else:
            wd = w_plus_np(md, mu, vval, i)

        if hook is not None:
            hook(UpdateEvent(layer_index, i, theta_before, theta.data, wd,
                             md, w12.data, vval))

    return SpdState(theta=theta, w=w if use_tape_w else Tensor(wd))


def initial_state(s: np.ndarray) -> SpdState:
    """theta = inv(s + I), w = s + I: an exact inverse pair to start from,
    for each symmetric matrix of ``s`` (``(..., p, p)``); one stacked check
    and one stacked inverse."""
    sd = linalg.as_sym_array(s)
    shifted = sd + np.eye(sd.shape[-1])
    theta0 = linalg.spd_inverse(shifted)
    return SpdState(theta=Tensor(theta0), w=Tensor(0.5 * (shifted + shifted.mT)))


def spodnet_forward(s, fns: UpdateFns, cfg: LayerConfig, *, hook=None,
                    w_replay: list | None = None) -> SpdState:
    """Initialize from the shifted covariance and run ``num_layers`` cycles.

    ``s`` is one covariance ``(p, p)`` or a batch ``(..., p, p)``, which runs
    as one pass. After every layer the inverse is refreshed by a dense
    factorization, which bounds drift of the maintained pair without
    changing the per-layer complexity class. A recording for ``w_replay``
    is the (theta11_inv, w12) pair of every event: ``hook=lambda ev:
    rec.append((ev.theta11_inv, ev.w12))``. An :class:`SpdViolation` names
    the layer it arose in and, in ``sample``, the batch position.
    """
    sd = np.asarray(getattr(s, "data", s), dtype=np.float64)
    state = initial_state(sd)
    p = state.p
    for k in range(cfg.num_layers):
        replay = None if w_replay is None else w_replay[k * p:(k + 1) * p]
        try:
            state = spodnet_layer(state, fns, cfg, sd, layer_index=k, hook=hook,
                                  w_replay=replay)
            if w_replay is None:
                # resynchronize the maintained inverse at every layer boundary
                w = (spd_inverse_op(state.theta) if cfg.tape_mode == "full"
                     else Tensor(linalg.spd_inverse(state.theta.data)))
                state = SpdState(state.theta, w)
                state.validate()
        except linalg.NotPositiveDefinite as exc:
            raise SpdViolation(f"layer {k}: state matrix is not PD at the "
                               f"boundary refresh: {exc}", sample=exc.sample) from exc
        except SpdViolation as exc:
            raise SpdViolation(f"layer {k}: {exc}", sample=exc.sample) from exc
    return state
