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
suffix runs that function and carries its hand-written adjoint.

Gradient bookkeeping offers two modes. In ``detached`` mode the inverse is
maintained as plain numbers: quantities derived from it enter each update
as constants and gradients do not flow through the inverse-maintenance
recursion across columns (the matrix path itself stays fully on the tape).
In ``full`` mode the inverse is maintained as tape tensors and gradients
flow through everything. Both modes run the same numpy functions, so
their values are bit-identical; only the differentiated dependency
structure differs. A record/replay facility freezes the inverse-derived
inputs of every update so the detached gradient can be checked against
finite differences of the function it actually differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

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


class SpdViolation(RuntimeError):
    """The running state lost positive-definiteness; an upstream contract broke."""


@dataclass
class LayerConfig:
    """Shape of the unrolled forward pass.

    ``zeta`` is the target quadratic form of the rescaled pre-threshold
    vector; ``stabilize`` switches that rescaling off entirely (for
    instability studies). ``tape_mode`` picks the gradient bookkeeping
    described in the module docstring.
    """

    zeta: float = 1.0
    num_layers: int = 1
    column_order: str | Sequence[int] = "natural"
    stabilize: bool = True
    tape_mode: str = "detached"
    validate: bool = True

    def __post_init__(self):
        if not self.zeta > 0.0:
            raise ValueError("zeta must be > 0")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.tape_mode not in ("detached", "full"):
            raise ValueError(f"unknown tape_mode {self.tape_mode!r}")

    def order(self, p: int) -> Sequence[int]:
        if isinstance(self.column_order, str):
            if self.column_order != "natural":
                raise ValueError(f"unknown column order {self.column_order!r}")
            return range(p)
        order = [int(i) for i in self.column_order]
        if sorted(order) != list(range(p)):
            raise ValueError("column_order must be a permutation of 0..p-1")
        return order


@dataclass
class SpdState:
    """Matrix/inverse pair threaded through the layers."""

    theta: Tensor
    w: Tensor

    @property
    def p(self) -> int:
        return self.theta.data.shape[0]

    def validate(self) -> None:
        """Strict Cholesky on a detached copy plus inverse-pair residual."""
        td, wd = self.theta.data, self.w.data
        try:
            linalg.cholesky(td)
        except linalg.NotPositiveDefinite as exc:
            raise SpdViolation(f"state matrix is not PD: {exc}") from exc
        resid = float(np.abs(td @ wd - np.eye(self.p)).max())
        cond_inf = float(np.abs(td).sum(axis=1).max() * np.abs(wd).sum(axis=1).max())
        if not np.isfinite(resid) or resid > PAIR_RESIDUAL_RTOL * max(cond_inf, 1.0):
            raise SpdViolation(
                f"inverse pair drifted: residual {resid:.3e} vs cond {cond_inf:.3e}"
            )


@dataclass
class ColumnContext:
    """Everything a column update sees at pivot ``i``."""

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
    returns the strictly positive Schur margin of the updated pivot, where
    ``schur_quad`` is u' inv(Theta_11) u for the column just produced.
    """

    f: Callable[[ColumnContext], Tensor]
    g: Callable[[ColumnContext, Tensor, Tensor], Tensor]


@dataclass
class UpdateEvent:
    """Snapshot handed to diagnostics hooks after each column update."""

    layer: int
    step: int
    i: int
    theta_before: np.ndarray
    theta_after: np.ndarray
    w_after: np.ndarray
    col_diff: np.ndarray
    diag_diff: float


@lru_cache(maxsize=None)
def _rest_grid(p: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    rest = linalg.rest_indices(p, i)
    grid = np.ix_(rest, rest)
    for a in grid:
        a.setflags(write=False)
    return grid


# -- structural tape primitives ------------------------------------------


def col_off(a: Tensor, i: int) -> Tensor:
    """Off-diagonal part of column ``i`` as a length p-1 tensor."""
    ad_ = a.data
    rest = linalg.rest_indices(ad_.shape[0], i)

    def vjp(g):
        out = np.zeros_like(ad_)
        out[rest, i] = g
        return (out,)

    return apply_op(ad_[rest, i], (a,), vjp)


def diag_entry(a: Tensor, i: int) -> Tensor:
    """Diagonal entry (i, i) as a scalar tensor."""
    ad_ = a.data

    def vjp(g):
        out = np.zeros_like(ad_)
        out[i, i] = float(g)
        return (out,)

    return apply_op(np.asarray(ad_[i, i]), (a,), vjp)


def spd_inverse_op(a: Tensor) -> Tensor:
    """Differentiable SPD inverse (dense; used at layer boundaries only)."""
    inv = linalg.spd_inverse(a.data)

    def vjp(g):
        return (-inv @ g @ inv,)

    return apply_op(inv, (a,), vjp)


# -- block identities: numpy forward, tape op with its adjoint -------------
#
# The tape ops call the numpy functions by their module-global names, so a
# patched function (as the bench tracer installs) is the one that runs.


def theta11_inverse_np(w: np.ndarray, i: int) -> np.ndarray:
    """Reduced-block inverse W_11 - w_12 w_12' / w_22, read off ``w``, in O(p^2)."""
    rest = linalg.rest_indices(w.shape[0], i)
    w22 = w[i, i]
    if not w22 > 0.0:
        raise SpdViolation("inverse pivot w22 is not positive")
    w12 = w[rest, i]
    return w[_rest_grid(w.shape[0], i)] - np.outer(w12, w12) / w22


def theta11_inverse(w: Tensor, i: int) -> Tensor:
    """Tape op for :func:`theta11_inverse_np`; the off-diagonal block is
    read from column ``i``, so its adjoint lands there."""
    wd = w.data
    out = theta11_inverse_np(wd, i)
    p = wd.shape[0]
    rest = linalg.rest_indices(p, i)

    def vjp(g):
        w12, w22 = wd[rest, i], wd[i, i]
        dw = np.zeros_like(wd)
        dw[_rest_grid(p, i)] = g
        dw[rest, i] = -((g + g.T) @ w12) / w22
        dw[i, i] = (w12 @ g @ w12) / (w22 * w22)
        return (dw,)

    return apply_op(out, (w,), vjp)


def theta_plus_np(theta: np.ndarray, i: int, u: np.ndarray, v: float,
                  theta11_inv: np.ndarray) -> np.ndarray:
    """Write column/row ``i`` to ``u`` and pin the pivot diagonal so the
    updated matrix has Schur margin exactly ``v``; SPD for any u, v > 0."""
    if not v > 0.0:
        raise ValueError("margin v must be strictly positive")
    rest = linalg.rest_indices(theta.shape[0], i)
    out = theta.copy()
    out[rest, i] = u
    out[i, rest] = u
    out[i, i] = v + u @ (theta11_inv @ u)
    return out


def theta_plus(theta: Tensor, u: Tensor, v: Tensor, theta11_inv: Tensor,
               i: int) -> Tensor:
    """Tape op for :func:`theta_plus_np`; ``u`` fills both the row and the
    column, so its adjoint collects both sides plus the pivot's quadratic."""
    ud, md = u.data, theta11_inv.data
    out = theta_plus_np(theta.data, i, ud, v.item(), md)
    p = out.shape[0]
    rest = linalg.rest_indices(p, i)
    grid = _rest_grid(p, i)
    vshape = v.data.shape

    def vjp(g):
        gii = g[i, i]
        dtheta = np.zeros_like(g)
        dtheta[grid] = g[grid]
        du = g[rest, i] + g[i, rest] + gii * ((md + md.T) @ ud)
        return (dtheta, du, np.full(vshape, gii), gii * np.outer(ud, ud))

    return apply_op(out, (theta, u, v, theta11_inv), vjp)


def w_plus_np(theta11_inv: np.ndarray, u: np.ndarray, v: float, i: int) -> np.ndarray:
    """Inverse of the updated matrix from the same blocks, in O(p^2)."""
    if not v > 0.0:
        raise ValueError("margin v must be strictly positive")
    p = theta11_inv.shape[0] + 1
    rest = linalg.rest_indices(p, i)
    mu = theta11_inv @ u
    out = np.empty((p, p), dtype=np.float64)
    out[_rest_grid(p, i)] = theta11_inv + np.outer(mu, mu) / v
    out[rest, i] = -mu / v
    out[i, rest] = -mu / v
    out[i, i] = 1.0 / v
    return out


def w_plus(theta11_inv: Tensor, u: Tensor, v: Tensor, i: int) -> Tensor:
    """Tape op for :func:`w_plus_np`."""
    md, ud, vval = theta11_inv.data, u.data, v.item()
    out = w_plus_np(md, ud, vval, i)
    p = out.shape[0]
    rest = linalg.rest_indices(p, i)
    vshape = v.data.shape

    def vjp(g):
        mu = md @ ud
        g11 = g[_rest_grid(p, i)]
        gcol = g[rest, i] + g[i, rest]
        dmu = ((g11 + g11.T) @ mu - gcol) / vval
        dv = (gcol @ mu - mu @ g11 @ mu - g[i, i]) / (vval * vval)
        return (g11 + np.outer(dmu, ud), md.T @ dmu, np.full(vshape, dv))

    return apply_op(out, (theta11_inv, u, v), vjp)


def stabilize_preactivation(z: Tensor, theta11_inv: Tensor, zeta: float) -> Tensor:
    """Rescale ``z`` so z' inv(Theta_11) z equals ``zeta``.

    Degenerate inputs (quadratic form <= 1e-12) pass through unchanged so
    the zero vector never divides by zero.
    """
    if not zeta > 0.0:
        raise ValueError("zeta must be > 0")
    q = ad.quadratic_form(z, theta11_inv)
    if q.item() <= QUAD_GUARD:
        return z
    return ad.mul(ad.scale(ad.reciprocal(ad.sqrt(q)), float(np.sqrt(zeta))), z)


def rank2_delta_eigs(col_diff: np.ndarray, diag_diff: float) -> tuple[float, float]:
    """Nonzero eigenvalues of the symmetric column-row perturbation.

    The perturbation carries ``col_diff`` on one column/row pair and
    ``diag_diff`` on the pivot diagonal; its rank is at most 2 and the
    nonzero eigenvalues are (d +/- sqrt(d^2 + 4 ||c||^2)) / 2.
    """
    c2 = float(np.dot(col_diff, col_diff))
    d = float(diag_diff)
    root = float(np.sqrt(d * d + 4.0 * c2))
    return 0.5 * (d + root), 0.5 * (d - root)


def bauer_fike_check(theta_before, theta_after, delta_op_norm: float,
                     slack: float = 1e-8) -> tuple[bool, float]:
    """Check |lambda_k(before) - lambda_k(after)| <= delta_op_norm for all k.

    Returns (within bound, max excess over the bound); the excess is
    negative when the bound holds with room to spare.
    """
    wb = np.linalg.eigvalsh(linalg.as_sym_array(theta_before))
    wa = np.linalg.eigvalsh(linalg.as_sym_array(theta_after))
    excess = float((np.abs(wb - wa) - delta_op_norm).max())
    return excess <= slack, excess


# -- the layer -------------------------------------------------------------


def spodnet_layer(state: SpdState, fns: UpdateFns, cfg: LayerConfig,
                  s: np.ndarray, *, layer_index: int = 0, hook=None,
                  w_record: list | None = None, w_replay: list | None = None,
                  replay_base: int = 0) -> SpdState:
    """One full cycle of column-row updates in ``cfg.order(p)``.

    ``w_record``/``w_replay`` capture and replay the inverse-derived inputs
    of every update, in order, as (reduced_inverse, w12) pairs.
    """
    sd = np.asarray(s, dtype=np.float64)
    p = state.p
    # replayed passes keep the inverse as plain numbers regardless of mode
    use_tape_w = cfg.tape_mode == "full" and w_replay is None
    theta = state.theta
    w = state.w if use_tape_w else Tensor(state.w.data)

    for step, i in enumerate(cfg.order(p)):
        rest = linalg.rest_indices(p, i)
        if w_replay is not None:
            rec_inv, rec_w12 = w_replay[replay_base + step]
            t11inv = Tensor(rec_inv)
            w12 = Tensor(rec_w12)
        else:
            t11inv = theta11_inverse(w, i)
            w12 = col_off(w, i)
        if w_record is not None:
            w_record.append((np.array(t11inv.data), np.array(w12.data)))

        theta_before = np.array(theta.data) if hook is not None else None
        ctx = ColumnContext(
            i=i,
            theta12=col_off(theta, i),
            theta22=diag_entry(theta, i),
            s12=Tensor(sd[rest, i]),
            s22=Tensor(np.asarray(sd[i, i])),
            w12=w12,
            theta11_inv=t11inv,
            zeta=cfg.zeta,
            stabilize=cfg.stabilize,
        )
        u = fns.f(ctx)
        v = fns.g(ctx, u, ad.quadratic_form(u, t11inv))
        vval = v.item()
        if not np.isfinite(vval) or vval <= 0.0:
            raise SpdViolation(f"margin v = {vval!r} at pivot {i} is not positive")
        theta = theta_plus(theta, u, v, t11inv, i)
        w = (w_plus(t11inv, u, v, i) if use_tape_w
             else Tensor(w_plus_np(t11inv.data, u.data, vval, i)))

        if hook is not None:
            hook(UpdateEvent(
                layer=layer_index,
                step=step,
                i=i,
                theta_before=theta_before,
                theta_after=np.array(theta.data),
                w_after=np.array(w.data),
                col_diff=u.data - theta_before[rest, i],
                diag_diff=float(theta.data[i, i] - theta_before[i, i]),
            ))

    return SpdState(theta=theta, w=w)


def initial_state(s: np.ndarray) -> SpdState:
    """theta = inv(s + I), w = s + I: an exact inverse pair to start from."""
    sd = linalg.as_sym_array(s)
    shifted = sd + np.eye(sd.shape[0])
    theta0 = linalg.spd_inverse(shifted)
    return SpdState(theta=Tensor(theta0), w=Tensor(0.5 * (shifted + shifted.T)))


def spodnet_forward(s, fns: UpdateFns, cfg: LayerConfig, *, hook=None,
                    w_record: list | None = None,
                    w_replay: list | None = None) -> SpdState:
    """Initialize from the shifted covariance and run ``num_layers`` cycles.

    After every layer the inverse is refreshed by a dense factorization,
    which bounds drift of the maintained pair without changing the per-layer
    complexity class.
    """
    sd = linalg.as_sym_array(s)
    p = sd.shape[0]
    state = initial_state(sd)
    for k in range(cfg.num_layers):
        state = spodnet_layer(state, fns, cfg, sd, layer_index=k, hook=hook,
                              w_record=w_record, w_replay=w_replay,
                              replay_base=k * p)
        if w_replay is None:
            # resynchronize the maintained inverse at every layer boundary
            try:
                if cfg.tape_mode == "full":
                    w = spd_inverse_op(state.theta)
                else:
                    w = Tensor(linalg.spd_inverse(state.theta.data))
            except linalg.NotPositiveDefinite as exc:
                raise SpdViolation(f"layer {k}: state matrix is not PD at the "
                                   f"boundary refresh: {exc}") from exc
            state = SpdState(state.theta, w)
            if cfg.validate:
                state.validate()
    return state
