"""Learned column-update maps and the shared positive margin network.

Three column maps trade inductive bias for expressivity:

* ``ubg`` unrolls the proximal column step: a step size from one network,
  per-entry thresholds from another, then a soft-threshold of the gradient
  step itself.
* ``pnp`` inserts a learned denoiser between the gradient step and the
  thresholding.
* ``e2e`` predicts the new column directly from the current one, with no
  gradient-step structure at all.

All three end in an elementwise soft-threshold, so outputs carry exact
zeros, and all can rescale the pre-threshold vector so that its quadratic
form under the reduced-block inverse equals the configured ``zeta``. The
margin network ``g`` reads the pivot diagonal, the matching covariance
diagonal and the updated Schur quadratic form, and is kept strictly
positive by an absolute-value output plus a tiny floor.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import core
from .autodiff import Tensor

__all__ = [
    "CHECKPOINT_TAG",
    "G_FLOOR",
    "Mlp",
    "MlpSpec",
    "ModelParams",
    "VARIANTS",
    "f_e2e",
    "f_pnp",
    "f_ubg",
    "forward",
    "g_eval",
    "init_params",
    "load_checkpoint",
    "make_update_fns",
    "save_checkpoint",
]

VARIANTS = ("ubg", "pnp", "e2e")
G_FLOOR = 1e-8
CHECKPOINT_TAG = "SPODNET-CKPT-1"

_NET_ORDER = ("gamma", "lambda", "psi", "phi", "g")


@dataclass(frozen=True)
class MlpSpec:
    widths: tuple[int, ...]
    out_activation: str = "identity"  # "identity" or "abs"


class Mlp:
    """Fully connected ReLU network over tape tensors."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator):
        self.spec = spec
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(ad.parameter(rng.uniform(-bound, bound,
                                                         size=(fan_out, fan_in))))
            self.biases.append(ad.parameter(np.zeros(fan_out)))

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        last = len(self.weights) - 1
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add(ad.matmul(w, h), b)
            if idx < last:
                h = ad.relu(h)
        if self.spec.out_activation == "abs":
            return ad.absval(h)
        return h

    def tensors(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


@dataclass
class ModelParams:
    variant: str
    p: int
    seed: int
    nets: dict[str, Mlp]
    lambda_scale: float

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for net_name in _NET_ORDER:
            net = self.nets.get(net_name)
            if net is None:
                continue
            for li, (w, b) in enumerate(zip(net.weights, net.biases)):
                out.append((f"{net_name}.w{li}", w))
                out.append((f"{net_name}.b{li}", b))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]


def _net_specs(variant: str, p: int) -> dict[str, MlpSpec]:
    k = p - 1
    specs = {
        "gamma": MlpSpec((k, p // 2, 1), "abs"),
        "lambda": MlpSpec((k, 5, k), "abs"),
        "g": MlpSpec((3, 3, 3, 1), "abs"),
    }
    if variant == "pnp":
        specs["psi"] = MlpSpec((k, 2 * p, k))
    if variant == "e2e":
        specs["phi"] = MlpSpec((k, 10 * p, k))
    return specs


def init_params(variant: str, p: int, seed: int) -> ModelParams:
    """Fan-in uniform weights, zero biases; bitwise deterministic in seed."""
    variant = str(variant).lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if p < 2:
        raise ValueError("p must be >= 2")
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    specs = _net_specs(variant, p)
    nets = {name: Mlp(specs[name], rng) for name in _NET_ORDER if name in specs}
    return ModelParams(variant=variant, p=p, seed=seed, nets=nets,
                       lambda_scale=1.0 if variant == "ubg" else 0.1)


# -- the update maps -------------------------------------------------------


def _grad_step(ctx: core.ColumnContext, params: ModelParams) -> Tensor:
    """theta12 - gamma * (s12 - w12) with a learned non-negative step size."""
    gamma = params.nets["gamma"](ctx.theta12)
    return ad.sub(ctx.theta12, ad.mul(gamma, ad.sub(ctx.s12, ctx.w12)))


def _maybe_stabilize(z: Tensor, ctx: core.ColumnContext) -> Tensor:
    if ctx.stabilize:
        return core.stabilize_preactivation(z, ctx.theta11_inv, ctx.zeta)
    return z


def _scaled_lambda(lam: Tensor, params: ModelParams) -> Tensor:
    if params.lambda_scale == 1.0:
        return lam
    return ad.scale(lam, params.lambda_scale)


def f_ubg(ctx: core.ColumnContext, params: ModelParams) -> Tensor:
    step = _grad_step(ctx, params)
    lam = params.nets["lambda"](step)
    return ad.soft_threshold(_maybe_stabilize(step, ctx), _scaled_lambda(lam, params))


def f_pnp(ctx: core.ColumnContext, params: ModelParams) -> Tensor:
    step = _grad_step(ctx, params)
    lam = params.nets["lambda"](step)
    z = params.nets["psi"](step)
    return ad.soft_threshold(_maybe_stabilize(z, ctx), _scaled_lambda(lam, params))


def f_e2e(ctx: core.ColumnContext, params: ModelParams) -> Tensor:
    lam = params.nets["lambda"](ctx.theta12)
    z = params.nets["phi"](ctx.theta12)
    return ad.soft_threshold(_maybe_stabilize(z, ctx), _scaled_lambda(lam, params))


def g_eval(theta22: Tensor, s22: Tensor, schur_quad: Tensor,
           params: ModelParams) -> Tensor:
    """Strictly positive margin from the pivot features.

    The absolute-value output can land exactly on zero, so a floor of
    ``G_FLOOR`` keeps the margin in the open cone.
    """
    feats = ad.concat_scalars((theta22, s22, schur_quad))
    return ad.add(params.nets["g"](feats), ad.constant([G_FLOOR]))


_F_BY_VARIANT = {"ubg": f_ubg, "pnp": f_pnp, "e2e": f_e2e}


def make_update_fns(params: ModelParams) -> core.UpdateFns:
    f_impl = _F_BY_VARIANT[params.variant]

    def f(ctx):
        return f_impl(ctx, params)

    def g(ctx, u, schur_quad):
        return g_eval(ctx.theta22, ctx.s22, schur_quad, params)

    return core.UpdateFns(f=f, g=g)


def forward(s, params: ModelParams, cfg: core.LayerConfig, **kwargs) -> core.SpdState:
    """Full model pass: shifted-covariance start plus K update cycles."""
    return core.spodnet_forward(s, make_update_fns(params), cfg, **kwargs)


# -- checkpoints ------------------------------------------------------------


def save_checkpoint(path, params: ModelParams, cfg: core.LayerConfig) -> None:
    """Text checkpoint: a header plus base64-coded little-endian float64
    buffers per named parameter; values round-trip bitwise."""
    doc = {
        "format": CHECKPOINT_TAG,
        "variant": params.variant,
        "p": params.p,
        "seed": params.seed,
        "zeta": cfg.zeta,
        "num_layers": cfg.num_layers,
        "stabilize": cfg.stabilize,
        "params": [
            {
                "name": name,
                "shape": list(t.data.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for name, t in params.named_tensors()
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[ModelParams, core.LayerConfig]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    tag = doc.get("format")
    if tag != CHECKPOINT_TAG:
        raise ValueError(f"unrecognized checkpoint format tag {tag!r}")
    try:
        params = init_params(doc["variant"], int(doc["p"]), int(doc["seed"]))
        remaining = dict(params.named_tensors())
        for rec in doc["params"]:
            name = rec["name"]
            if name not in remaining:
                raise ValueError(f"unexpected parameter {name!r} in checkpoint")
            t = remaining.pop(name)
            arr = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8")
            arr = arr.reshape([int(d) for d in rec["shape"]])
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name!r}: "
                                 f"{arr.shape} vs {t.data.shape}")
            t.data[...] = arr
        if remaining:
            raise ValueError(f"checkpoint is missing parameters: {sorted(remaining)}")
        cfg = core.LayerConfig(
            zeta=float(doc["zeta"]),
            num_layers=int(doc["num_layers"]),
            stabilize=bool(doc.get("stabilize", True)),
        )
    except KeyError as exc:
        raise ValueError(f"checkpoint lacks key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc
    return params, cfg
