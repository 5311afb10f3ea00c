"""Checks no command runs, which the tests share: the central-difference
gradient oracle, the glasso stationarity residual, a positive-definiteness
predicate, the one broadcasting tape op the tests compose with, and a
randomly drawn MLP of any widths.
"""

from typing import Callable, Sequence

import numpy as np

from spodnet import linalg
from spodnet.autodiff import (DomainError, Tape, Tensor, apply_op, backward,
                              parameter, zero_grad)
from spodnet.linalg import NotPositiveDefinite, cholesky
from spodnet.models import Mlp, MlpSpec


def random_mlp(spec: MlpSpec, rng: np.random.Generator) -> Mlp:
    """An Mlp of ``spec`` drawn from ``rng`` as ``init_params`` draws a
    net: per layer, a fan-in uniform weight, then a zero bias."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths, spec.widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(parameter(rng.uniform(-bound, bound, size=(fan_out, fan_in))))
        biases.append(parameter(np.zeros(fan_out)))
    return Mlp(spec, weights, biases)


def broadcast_to(t: Tensor, shape: tuple) -> Tensor:
    """``t`` broadcast to ``shape`` as one tape op. The adjoint sums over
    the broadcast axes, so ``mul(broadcast_to(a, b.shape), b)`` rounds as
    the engine's broadcasting ``mul(a, b)`` did."""
    tshape = t.data.shape

    def vjp(g):
        lead = g.ndim - len(tshape)
        axes = tuple(range(lead)) + tuple(
            lead + k for k, n in enumerate(tshape) if n == 1 and g.shape[lead + k] != 1)
        return (g.sum(axis=axes).reshape(tshape),)

    return apply_op(np.broadcast_to(t.data, shape), (t,), vjp)


def finite_diff_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                      h: float = 1e-6) -> float:
    """Max relative gap between tape gradients and central differences.

    ``loss_fn`` evaluates the scalar loss from the parameters' current
    values. It runs once under a fresh tape for the gradients, then twice
    per parameter entry, without recording, for the central differences.
    The relative error uses max(1, |central|) as denominator.
    """
    if h <= 0:
        raise DomainError("finite_diff_check requires h > 0")
    params = list(params)
    zero_grad(params)
    with Tape():
        backward(loss_fn())
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        gflat = np.zeros_like(flat) if p.grad is None else p.grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fplus = float(loss_fn().data.reshape(()))
            flat[j] = orig - h
            fminus = float(loss_fn().data.reshape(()))
            flat[j] = orig
            central = (fplus - fminus) / (2.0 * h)
            err = abs(gflat[j] - central) / max(1.0, abs(central))
            if err > worst:
                worst = err
    return worst


def glasso_kkt_residual(theta, s, lam: float) -> float:
    """Largest stationarity violation of the penalized objective at theta.

    Zero entries must satisfy |S_ij - W_ij| <= lam, nonzero entries
    S_ij - W_ij + lam*sign(theta_ij) = 0, and the diagonal S_ii = W_ii,
    where W is the exact inverse of theta.
    """
    td = linalg.as_sym_matrix(theta)
    w = linalg.spd_inverse(td)
    g = linalg.as_sym_matrix(s) - w
    off = ~np.eye(td.shape[0], dtype=bool)
    nz = off & (td != 0.0)
    zz = off & (td == 0.0)
    res = float(np.abs(np.diag(g)).max())
    if nz.any():
        res = max(res, float(np.abs(g + lam * np.sign(td))[nz].max()))
    if zz.any():
        res = max(res, float(np.maximum(np.abs(g)[zz] - lam, 0.0).max()))
    return res


def is_spd(a) -> bool:
    try:
        cholesky(a)
    except NotPositiveDefinite:
        return False
    return True
