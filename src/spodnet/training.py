"""Training loop (squared-error objective + Adam) and evaluation metrics.

Training is deterministic under a pinned seed: the epoch shuffles come from
one seeded counter-based stream. Each minibatch is stacked on a leading
batch axis and runs as one forward pass and one tape. Evaluation forwards
and scores stacks sized in bytes the same way: :func:`eval_stack_size`
matrices of ``EVAL_BYTES`` at a time, so small matrices share each
per-pivot numpy call among many samples and large ones keep the stack's
memory bounded. A report is bit-identical at every stack size.

:func:`score_stack` is the one scorer: ``eval``, every baseline and the
per-epoch metrics of :func:`train` read their figures from it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import core, datagen, linalg, models
from .autodiff import Tensor

__all__ = [
    "AdamState",
    "MetricsRow",
    "TrainConfig",
    "adam_step",
    "eval_stack_size",
    "evaluate",
    "forward_chunks",
    "mse_loss",
    "offdiag_density",
    "score_estimates",
    "score_stack",
    "train",
    "write_metrics_csv",
]

ZERO_TOL = 1e-8
# bytes of one eval/diagnose stack of float64 matrices: 10 at p=100, whose
# forward is bound by its O(p^2) block algebra, and 250 at p=20, whose pivot
# loop is bound by the interpreter, so a larger stack shares its calls
EVAL_BYTES = 10 * 100 * 100 * 8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Adam step size, minibatch size, epoch count and the seed of the epoch
    shuffles. Adam's moment decays and denominator guard are the constants
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``."""

    lr: float = 1e-2
    batch_size: int = 10
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lr < np.inf:  # NaN fails too
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class MetricsRow:
    epoch: int
    train_mse: float
    test_nmse: float
    test_f1: float
    min_eig: float
    max_cond: float
    mean_density: float


def mse_loss(pred: Tensor, truth, weight: float = 1.0) -> Tensor:
    """``weight`` times the squared Frobenius distance to the target matrix,
    as one tape op; for a batch ``(..., p, p)``, summed over its samples.
    Value and adjoint round as those of the composition
    scale(sum(mul(d, d)), weight) of d = pred - truth, which
    ``tests/test_training.py`` holds as the reference: the adjoint is the
    two factors' g * weight * d, added."""
    d = pred.data - truth

    def vjp(g):
        cd = (float(g) * weight) * d
        return (cd + cd,)

    return ad.apply_op((d * d).sum() * weight, (pred,), vjp)


@dataclass
class AdamState:
    t: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(t=0,
                   m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params, grads, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update in place; None gradients count as zero.
    ``state`` comes from :meth:`AdamState.for_params` on the same params."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            g = np.zeros_like(p.data)
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        p.data -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def offdiag_density(mats) -> np.ndarray:
    """Fraction of off-diagonal entries larger than ``ZERO_TOL`` in magnitude,
    of each matrix of a ``(..., p, p)`` stack; 0-d for one matrix."""
    return _offdiag_support(mats).mean(axis=-1)


def _offdiag_support(mats) -> np.ndarray:
    # (..., p(p-1)) mask of the off-diagonal entries above ZERO_TOL
    m = np.asarray(mats, dtype=np.float64)
    return (np.abs(m) > ZERO_TOL)[..., ~np.eye(m.shape[-1], dtype=bool)]


def score_stack(estimates, truths) -> dict[str, np.ndarray]:
    """Length-B arrays of each sample's metrics for ``(B, p, p)`` stacks of
    estimates and truths, with the bits of scoring each matrix alone:
    ``nmse`` ||est - truth||_F^2 / ||truth||_F^2; ``f1`` of the off-diagonal
    supports (|entry| > ``ZERO_TOL``), 1 when both are empty; the estimate's
    ``density`` (:func:`offdiag_density`); and its ``min_eig`` and ``cond``
    from one :func:`linalg.eig_diagnostics`."""
    est = np.asarray(estimates, dtype=np.float64)
    truth = np.asarray(truths, dtype=np.float64)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {truth.shape}")
    if est.ndim != 3 or not len(est):
        raise ValueError(f"expected non-empty (B, p, p) stacks, got shape {est.shape}")
    denom = (truth ** 2).sum(axis=(-2, -1))
    if (denom == 0.0).any():
        raise ValueError("nmse is undefined for a zero-norm truth")
    support, true_support = _offdiag_support(est), _offdiag_support(truth)
    # F1 = 2 tp / (2 tp + fp + fn), and 2 tp + fp + fn = |support| + |true support|
    tp = (support & true_support).sum(axis=-1)
    sizes = support.sum(axis=-1) + true_support.sum(axis=-1)
    lo, _, cond = linalg.eig_diagnostics(est)
    return {
        "nmse": ((est - truth) ** 2).sum(axis=(-2, -1)) / denom,
        "f1": np.divide(2.0 * tp, sizes, out=np.ones(len(est)), where=sizes > 0),
        "density": support.mean(axis=-1),
        "min_eig": lo,
        "cond": cond,
    }


def eval_stack_size(p: int) -> int:
    """Matrices of order ``p`` per eval/diagnose stack: as many as fit in
    ``EVAL_BYTES``, and at least one."""
    return max(1, EVAL_BYTES // (8 * p * p))


def score_estimates(entries, estimates) -> dict:
    """Per-sample rows plus aggregates for one estimate per entry, scored by
    :func:`score_stack` in stacks of :func:`eval_stack_size` estimates, so
    no copy of all of them is made at once."""
    estimates = list(estimates)
    if not estimates or len(estimates) != len(entries):
        raise ValueError(f"need one estimate per entry, got {len(estimates)} "
                         f"for {len(entries)} entries")
    size = eval_stack_size(np.shape(estimates[0])[-1])
    chunks = [score_stack(estimates[start:start + size],
                          [e.theta_true for e in entries[start:start + size]])
              for start in range(0, len(estimates), size)]
    scores = {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}
    rows = [{"sample_id": idx, **{key: float(v[idx]) for key, v in scores.items()},
             "spd": bool(scores["min_eig"][idx] > 0.0)}
            for idx in range(len(estimates))]
    agg = {
        "nmse": float(np.mean(scores["nmse"])),
        "f1": float(np.mean(scores["f1"])),
        "min_eig": float(np.min(scores["min_eig"])),
        "max_cond": float(np.max(scores["cond"])),
        "density": float(np.mean(scores["density"])),
        "all_spd": bool((scores["min_eig"] > 0.0).all()),
    }
    return {"samples": rows, "aggregates": agg}


def forward_chunks(params: models.ModelParams, entries, cfg: core.LayerConfig,
                   hook=None):
    """Forward the entries without taping, in stacks of
    :func:`eval_stack_size` entries, each as one batch, yielding each
    chunk's first index and its forward output; an
    :class:`core.SpdViolation` names the sample it arose in."""
    size = eval_stack_size(params.p)
    for start in range(0, len(entries), size):
        chunk = entries[start:start + size]
        try:
            out = models.forward(np.stack([e.s for e in chunk]), params, cfg,
                                 hook=hook)
        except core.SpdViolation as exc:
            raise core.SpdViolation(f"sample {start + exc.sample}: {exc}",
                                    sample=start + exc.sample) from exc
        yield start, out


def evaluate(params: models.ModelParams, entries, cfg: core.LayerConfig) -> dict:
    """Forward the entries by :func:`forward_chunks` and score the estimates."""
    estimates = [theta for _, out in forward_chunks(params, entries, cfg)
                 for theta in out.theta.data]
    return score_estimates(entries, estimates)


def train(params: models.ModelParams, train_entries, test_entries,
          cfg: TrainConfig, layer_cfg: core.LayerConfig, *,
          hook=None) -> list[MetricsRow]:
    """Minimize the mean squared Frobenius reconstruction error with Adam.

    Each minibatch is one batched forward and one tape, with loss
    sum_b ||Theta_b - T_b||^2 / len(batch). One metrics row per epoch,
    evaluated on the full test set. ``hook`` is forwarded to every training
    forward pass (diagnostics only), so its events carry the minibatch axis.
    """
    tensors = params.tensors()
    opt = AdamState.for_params(tensors)
    rng = datagen.make_rng(datagen.child_seed(cfg.seed, 0))
    history: list[MetricsRow] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_entries))
        mse_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_entries[int(idx)] for idx in order[start:start + cfg.batch_size]]
            truth = np.stack([e.theta_true for e in batch])
            ad.zero_grad(tensors)
            try:
                with ad.Tape() as tape:
                    out = models.forward(np.stack([e.s for e in batch]), params,
                                         layer_cfg, hook=hook)
                    tape.backward(mse_loss(out.theta, truth, 1.0 / len(batch)))
            except core.SpdViolation as exc:
                idx = int(order[start + exc.sample])
                raise core.SpdViolation(f"epoch {epoch}, sample {idx}: {exc}",
                                        sample=idx) from exc
            for sample_loss in ((out.theta.data - truth) ** 2).sum(axis=(-2, -1)):
                mse_sum += float(sample_loss)
            adam_step(tensors, [t.grad for t in tensors], opt, cfg)
        metrics = evaluate(params, test_entries, layer_cfg)
        agg = metrics["aggregates"]
        history.append(MetricsRow(
            epoch=epoch,
            train_mse=mse_sum / len(order),
            test_nmse=agg["nmse"],
            test_f1=agg["f1"],
            min_eig=agg["min_eig"],
            max_cond=agg["max_cond"],
            mean_density=agg["density"],
        ))
    return history


def write_metrics_csv(path, rows) -> None:
    """One CSV line per :class:`MetricsRow`, headed by its field names."""
    names = [f.name for f in fields(MetricsRow)]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([repr(getattr(row, name)) for name in names])
