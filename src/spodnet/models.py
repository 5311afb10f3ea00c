"""Learned column-update maps and the shared positive margin network.

Three column maps trade inductive bias for expressivity:

* ``ubg`` unrolls the proximal column step: a step size from one network,
  per-entry thresholds from another, then a soft-threshold of the gradient
  step itself.
* ``pnp`` inserts a learned denoiser between the gradient step and the
  thresholding.
* ``e2e`` predicts the new column directly from the current one, with no
  gradient-step structure at all.

All three are one map, :func:`column_map`. It takes the gradient step
(``theta12`` for e2e) through the variant's denoiser net, if any, and
the stabilizer, unless it is off, which rescales it so that its quadratic
form under the reduced-block inverse equals the configured ``zeta``. An
elementwise soft-threshold by the lambda net's output ends it, so outputs
carry exact zeros. The margin network ``g`` reads the pivot diagonal, the
matching covariance diagonal and the updated Schur quadratic form, and is
kept strictly positive by an absolute-value output plus a tiny floor,
``G_FLOOR``. The lambda net's output scale and the g net's floor are both
fields of their net's :class:`MlpSpec`, so each net's one tape op applies
them.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import core, datagen
from .autodiff import Tensor

__all__ = [
    "CHECKPOINT_TAG",
    "G_FLOOR",
    "Mlp",
    "MlpSpec",
    "ModelParams",
    "VARIANTS",
    "column_map",
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
    scale: float = 1.0  # multiplies the output activation
    floor: float = 0.0  # added after the scale

    def layout(self, net: str) -> list[tuple[str, tuple[int, ...]]]:
        """The one naming and shape rule of a net's parameters, in checkpoint
        order: per layer k, ``{net}.w{k}`` of shape (fan_out, fan_in), then
        ``{net}.b{k}`` of shape (fan_out,)."""
        return [(f"{net}.{kind}{k}", shape)
                for k, (fan_in, fan_out) in enumerate(zip(self.widths, self.widths[1:]))
                for kind, shape in (("w", (fan_out, fan_in)), ("b", (fan_out,)))]


class Mlp:
    """Fully connected ReLU network, applied as one tape op per call.

    The input is one tensor ``(..., fan_in)``, or ``fan_in`` per-sample
    scalars of one shape ``(...)``, which the op stacks as the features and
    whose adjoints it splits back out. Each sample of a leading batch axis
    runs through the same weights, and the adjoint sums the weight and bias
    gradients over the batch. The numpy forward keeps every layer's input
    and the output pre-activation; the hand-written adjoint runs back
    through the output scale, the ``abs`` head's sign and the ReLU masks,
    both of which pass 0 at their kink.
    """

    def __init__(self, spec: MlpSpec, weights: list[Tensor], biases: list[Tensor]):
        self.spec, self.weights, self.biases = spec, weights, biases

    def __call__(self, *xs: Tensor) -> Tensor:
        if len(xs) == 1:
            x = xs[0].data
        elif len({t.data.shape for t in xs}) == 1:
            x = np.stack([t.data for t in xs], axis=-1)
        else:
            raise ad.ShapeError("Mlp expects per-sample scalars of one shape, "
                                f"got {[t.data.shape for t in xs]}")
        n, weights, biases = len(xs), self.weights, self.biases  # the adjoint keeps n, not xs
        abs_head = self.spec.out_activation == "abs"
        scale = self.spec.scale
        inputs, pre = [x], None
        for w, b in zip(weights, biases):
            if pre is not None:
                inputs.append(np.maximum(pre, 0.0))
            pre = np.matvec(w.data, inputs[-1]) + b.data

        def vjp(g):
            if scale != 1.0:
                g = g * scale
            if abs_head:
                g = g * np.sign(pre)
            dws, dbs = [None] * len(weights), [None] * len(weights)
            for k in range(len(weights) - 1, -1, -1):
                # rows are samples; one product sums the batch's outer products
                g2 = g.reshape(-1, g.shape[-1])
                dws[k] = g2.T @ inputs[k].reshape(-1, inputs[k].shape[-1])
                dbs[k] = g2.sum(axis=0)
                g = np.vecmat(g, weights[k].data)
                if k:
                    # a hidden input is positive exactly where its ReLU passes
                    g = g * (inputs[k] > 0.0)
            dxs = (g,) if n == 1 else tuple(g[..., j] for j in range(n))
            return (*dxs, *dws, *dbs)

        out = np.abs(pre) if abs_head else pre
        if scale != 1.0:
            out = out * scale
        if self.spec.floor:
            out = out + self.spec.floor
        # the op's inputs: the features, every weight, then every bias
        return ad.apply_op(out, (*xs, *weights, *biases), vjp)

    def tensors(self) -> list[Tensor]:
        return [t for pair in zip(self.weights, self.biases) for t in pair]


@dataclass
class ModelParams:
    variant: str
    p: int
    seed: int
    nets: dict[str, Mlp]

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [(name, t) for net, mlp in self.nets.items()
                for (name, _), t in zip(mlp.spec.layout(net), mlp.tensors())]

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]


def _net_specs(variant: str, p: int) -> dict[str, MlpSpec]:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if p < 2:
        raise ValueError("p must be >= 2")
    k = p - 1
    specs = {
        "gamma": MlpSpec((k, p // 2, 1), "abs"),
        # pnp and e2e threshold by a tenth of the lambda net's raw output
        "lambda": MlpSpec((k, 5, k), "abs", scale=1.0 if variant == "ubg" else 0.1),
        "g": MlpSpec((3, 3, 3, 1), "abs", floor=G_FLOOR),
    }
    if variant == "pnp":
        specs["psi"] = MlpSpec((k, 2 * p, k))
    if variant == "e2e":
        specs["phi"] = MlpSpec((k, 10 * p, k))
    return {net: specs[net] for net in _NET_ORDER if net in specs}


def _build(variant: str, p: int, seed: int, value) -> ModelParams:
    """Nets whose parameters are ``value(name, shape)``, called in layout order."""
    nets = {}
    for net, spec in _net_specs(variant, p).items():
        ts = [ad.parameter(value(name, shape)) for name, shape in spec.layout(net)]
        nets[net] = Mlp(spec, ts[0::2], ts[1::2])
    return ModelParams(variant, p, seed, nets)


def init_params(variant: str, p: int, seed: int) -> ModelParams:
    """Fan-in uniform weights, zero biases; bitwise deterministic in seed."""
    rng = datagen.make_rng(seed)

    def draw(name, shape):  # a weight is (fan_out, fan_in), a bias (fan_out,)
        bound = 1.0 / np.sqrt(shape[-1])
        return rng.uniform(-bound, bound, size=shape) if len(shape) == 2 else np.zeros(shape)

    return _build(str(variant).lower(), p, seed, draw)


# -- the update maps -------------------------------------------------------


def _grad_step(ctx: core.ColumnContext, params: ModelParams) -> Tensor:
    """theta12 - gamma * (s12 - w12) with a learned non-negative step size
    ``(..., 1)``, as one tape op. Its adjoints round as those of the
    composed ``sub(theta12, mul(gamma, sub(s12, w12)))`` do, with gamma
    broadcast along the column and its adjoint summed back."""
    gamma = params.nets["gamma"](ctx.theta12)
    gd = gamma.data
    diff = ctx.s12.data - ctx.w12.data
    need_diff = ctx.s12.requires_grad or ctx.w12.requires_grad

    def vjp(g):
        dprod = -g
        ddiff = dprod * gd if need_diff else None
        return (g, (dprod * diff).sum(axis=-1, keepdims=True), ddiff,
                None if ddiff is None else -ddiff)

    return ad.apply_op(ctx.theta12.data - gd * diff,
                       (ctx.theta12, gamma, ctx.s12, ctx.w12), vjp)


def column_map(ctx: core.ColumnContext, params: ModelParams) -> Tensor:
    """The new column: the gradient step x (``theta12`` for e2e), or the
    variant's denoiser net of x (pnp's psi, e2e's phi), stabilized if
    ``ctx.stabilize``, then soft-thresholded by the lambda net of x."""
    nets = params.nets
    x = ctx.theta12 if params.variant == "e2e" else _grad_step(ctx, params)
    lam = nets["lambda"](x)
    denoiser = nets.get("psi", nets.get("phi"))
    z = x if denoiser is None else denoiser(x)
    if ctx.stabilize:
        z = core.stabilize_preactivation(z, ctx.theta11_inv, ctx.zeta)
    return ad.soft_threshold(z, lam)


def g_eval(theta22: Tensor, s22: Tensor, schur_quad: Tensor,
           params: ModelParams) -> Tensor:
    """Strictly positive margin from the pivot features, shape ``(..., 1)``.

    The absolute-value output can land exactly on zero, so the g net adds
    a floor of ``G_FLOOR`` inside its op, keeping the margin in the open
    cone.
    """
    return params.nets["g"](theta22, s22, schur_quad)


def make_update_fns(params: ModelParams) -> core.UpdateFns:
    def f(ctx):
        return column_map(ctx, params)

    def g(ctx, u, schur_quad):
        return g_eval(ctx.theta22, ctx.s22, schur_quad, params)

    return core.UpdateFns(f=f, g=g)


def forward(s, params: ModelParams, cfg: core.LayerConfig, **kwargs) -> core.SpdState:
    """Full model pass: shifted-covariance start plus K update cycles, for
    one covariance ``(p, p)`` or a batch ``(..., p, p)``."""
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
        "params": [{"name": name, "shape": list(t.data.shape),
                    "data": base64.b64encode(t.data.astype("<f8").tobytes()).decode("ascii")}
                   for name, t in params.named_tensors()],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _header(doc: dict, key: str, kind, *default):
    value = doc.get(key, *default) if default else doc[key]
    # bool subclasses int, so it passes only where a bool is asked for
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        name = "number" if kind == (int, float) else kind.__name__
        raise ValueError(f"checkpoint field {key!r} must be a JSON {name}, "
                         f"got {value!r}")
    return value


def load_checkpoint(path) -> tuple[ModelParams, core.LayerConfig]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    tag = doc.get("format")
    if tag != CHECKPOINT_TAG:
        raise ValueError(f"unrecognized checkpoint format tag {tag!r}")
    try:
        variant = str(doc["variant"]).lower()
        p, seed = _header(doc, "p", int), _header(doc, "seed", int)
        # every record is checked against the shapes the header implies
        # before a net is built, so a corrupt p allocates nothing
        shapes = dict(entry for net, spec in _net_specs(variant, p).items()
                      for entry in spec.layout(net))
        arrays = {}
        for rec in doc["params"]:
            name = rec["name"]
            if name not in shapes or name in arrays:
                raise ValueError(f"unexpected parameter {name!r} in checkpoint")
            arr = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8")
            arr = arr.reshape([int(d) for d in rec["shape"]])
            if arr.shape != shapes[name]:
                raise ValueError(f"shape mismatch for {name!r}: "
                                 f"{arr.shape} vs {shapes[name]}")
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name!r} has non-finite values")
            arrays[name] = arr
        if len(arrays) < len(shapes):
            raise ValueError("checkpoint is missing parameters: "
                             f"{sorted(shapes.keys() - arrays.keys())}")
        params = _build(variant, p, seed, lambda name, shape: arrays[name])
        cfg = core.LayerConfig(
            zeta=float(_header(doc, "zeta", (int, float))),
            num_layers=_header(doc, "num_layers", int),
            stabilize=_header(doc, "stabilize", bool, True),
        )
    except KeyError as exc:
        raise ValueError(f"checkpoint lacks key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc
    return params, cfg
