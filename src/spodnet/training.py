"""Training loop (squared-error objective + Adam) and evaluation metrics.

Training is deterministic under a pinned seed: the epoch shuffles come from
one seeded counter-based stream. Each minibatch is stacked on a leading
batch axis and runs as one forward pass and one tape, and evaluation
forwards ``EVAL_CHUNK`` matrices at a time the same way.
"""

from __future__ import annotations

import csv
import gc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import core, datagen, linalg, models
from .autodiff import Tensor

__all__ = [
    "AdamState",
    "METRICS_FIELDS",
    "MetricsRow",
    "TrainConfig",
    "adam_step",
    "evaluate",
    "f1_support",
    "mse_loss",
    "nmse",
    "offdiag_density",
    "score_estimates",
    "spectral_trace",
    "train",
    "write_metrics_csv",
]

ZERO_TOL = 1e-8
# matrices per evaluation forward: enough that the per-pivot numpy calls
# are shared by many samples. It matches the default training minibatch, so
# evaluation after each epoch reuses heap blocks of the sizes training
# freed; a chunk of 20 raised a p=20 training run's peak RSS by 0.4 MB.
EVAL_CHUNK = 10
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
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
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


METRICS_FIELDS = ("epoch", "train_mse", "test_nmse", "test_f1",
                  "min_eig", "max_cond", "mean_density")


def mse_loss(pred: Tensor, truth) -> Tensor:
    """Squared Frobenius distance to the target matrix, as a scalar tensor;
    for a batch ``(..., p, p)``, the sum over its samples."""
    td = np.asarray(getattr(truth, "data", truth), dtype=np.float64)
    diff = ad.sub(pred, ad.constant(td))
    return ad.mul(diff, diff).sum()


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


def nmse(preds, truths) -> float:
    """Mean over samples of ||pred - truth||_F^2 / ||truth||_F^2."""
    preds = list(preds)
    truths = list(truths)
    if not preds or len(preds) != len(truths):
        raise ValueError("nmse needs equally many non-empty preds and truths")
    total = 0.0
    for pr, tr in zip(preds, truths):
        prd = np.asarray(getattr(pr, "data", pr), dtype=np.float64)
        trd = np.asarray(getattr(tr, "data", tr), dtype=np.float64)
        if prd.shape != trd.shape:
            raise ValueError(f"shape mismatch {prd.shape} vs {trd.shape}")
        denom = float((trd ** 2).sum())
        if denom == 0.0:
            raise ValueError("nmse is undefined for a zero-norm truth")
        total += float(((prd - trd) ** 2).sum()) / denom
    return total / len(preds)


def f1_support(pred, truth) -> float:
    """F1 of off-diagonal support (|entry| > ZERO_TOL); empty-vs-empty scores 1."""
    prd = np.asarray(getattr(pred, "data", pred), dtype=np.float64)
    trd = np.asarray(getattr(truth, "data", truth), dtype=np.float64)
    if prd.shape != trd.shape:
        raise ValueError(f"shape mismatch {prd.shape} vs {trd.shape}")
    off = ~np.eye(prd.shape[0], dtype=bool)
    ps = np.abs(prd) > ZERO_TOL
    ts = np.abs(trd) > ZERO_TOL
    tp = int((ps & ts & off).sum())
    fp = int((ps & ~ts & off).sum())
    fn = int((~ps & ts & off).sum())
    if tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def offdiag_density(mat) -> float:
    """Fraction of off-diagonal entries larger than ``ZERO_TOL`` in magnitude."""
    m = np.asarray(getattr(mat, "data", mat), dtype=np.float64)
    off = ~np.eye(m.shape[0], dtype=bool)
    return float((np.abs(m) > ZERO_TOL)[off].mean())


def score_estimates(entries, estimates) -> dict:
    """Per-sample rows plus aggregates for one estimate per entry; the
    spectra come from one stacked eigensolve per ``EVAL_CHUNK`` estimates,
    so no copy of all of them is made at once."""
    estimates = list(estimates)
    spectra = [linalg.eig_diagnostics(np.stack(estimates[start:start + EVAL_CHUNK]))
               for start in range(0, len(estimates), EVAL_CHUNK)]
    lows = np.concatenate([lo for lo, _, _ in spectra])
    conds = np.concatenate([cond for _, _, cond in spectra])
    rows = []
    for idx, (entry, est, lo, cond) in enumerate(zip(entries, estimates, lows, conds)):
        rows.append({
            "sample_id": idx,
            "nmse": nmse([est], [entry.theta_true]),
            "f1": f1_support(est, entry.theta_true),
            "min_eig": float(lo),
            "cond": float(cond),
            "density": offdiag_density(est),
            "spd": bool(lo > 0.0),
        })
    agg = {
        "nmse": float(np.mean([r["nmse"] for r in rows])),
        "f1": float(np.mean([r["f1"] for r in rows])),
        "min_eig": float(np.min([r["min_eig"] for r in rows])),
        "max_cond": float(np.max([r["cond"] for r in rows])),
        "density": float(np.mean([r["density"] for r in rows])),
        "all_spd": bool(all(r["spd"] for r in rows)),
    }
    return {"samples": rows, "aggregates": agg}


def evaluate(params: models.ModelParams, entries, cfg: core.LayerConfig) -> dict:
    """Forward the entries without taping, ``EVAL_CHUNK`` at a time as one
    batch, and score the estimates; an :class:`core.SpdViolation` names the
    sample it arose in."""
    estimates = []
    for start in range(0, len(entries), EVAL_CHUNK):
        chunk = entries[start:start + EVAL_CHUNK]
        try:
            out = models.forward(np.stack([e.s for e in chunk]), params, cfg)
        except core.SpdViolation as exc:
            raise core.SpdViolation(f"sample {start + exc.sample}: {exc}",
                                    sample=start + exc.sample) from exc
        estimates.extend(out.theta.data)
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
        # A minibatch tape frees thousands of small objects at once, which
        # stay on the interpreter's free lists; with one tape per minibatch
        # the collector's full passes, which empty those lists, rarely run.
        # One per epoch (about 20 ms) kept a process that trains again and
        # again about 1 MB smaller at its peak.
        gc.collect()
        order = rng.permutation(len(train_entries))
        mse_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_entries[int(idx)] for idx in order[start:start + cfg.batch_size]]
            truth = np.stack([e.theta_true for e in batch])
            ad.zero_grad(tensors)
            try:
                with ad.Tape():
                    out = models.forward(np.stack([e.s for e in batch]), params,
                                         layer_cfg, hook=hook)
                    loss = mse_loss(out.theta, truth)
                    ad.backward(ad.scale(loss, 1.0 / len(batch)))
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


def spectral_trace(snapshots) -> list[tuple[int, float, float, float]]:
    """Per-update (index, smallest eigenvalue, largest diagonal, condition)."""
    rows = []
    for idx, th in enumerate(snapshots):
        lo, _, cond = linalg.eig_diagnostics(th)
        rows.append((idx, lo, float(np.diag(th).max()), cond))
    return rows


def write_metrics_csv(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for row in rows:
            writer.writerow([row.epoch] + [repr(getattr(row, f))
                                           for f in METRICS_FIELDS[1:]])
