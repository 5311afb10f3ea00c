"""Float64 tensors with tape-based reverse-mode differentiation.

A deliberately small engine: it provides exactly the primitives needed by
the column-row update networks and the unrolled SPD forward pass. All data
is float64 and the only broadcasting allowed is scalar-with-tensor. A Tape
is a per-forward-pass object, discarded after the backward sweep; leaf
gradients accumulate additively until cleared with ``zero_grad``. Tapes are
tracked per thread, so independent samples may run forward/backward
concurrently on their own tapes.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "ShapeError",
    "Tape",
    "Tensor",
    "absval",
    "add",
    "apply_op",
    "backward",
    "concat_scalars",
    "constant",
    "finite_diff_check",
    "matmul",
    "mul",
    "parameter",
    "quadratic_form",
    "reciprocal",
    "relu",
    "scale",
    "soft_threshold",
    "sqrt",
    "sub",
    "zero_grad",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside an operation's domain."""


_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = []
        _LOCAL.tapes = stack
    return stack


def active_tape():
    """The innermost open Tape on this thread, or None."""
    stack = _stack()
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def sum(self) -> "Tensor":
        shape = self.data.shape

        def vjp(g):
            return (np.full(shape, float(g)),)

        return apply_op(np.asarray(self.data.sum()), (self,), vjp)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out: Tensor, inputs: tuple, vjp: Callable):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Execution-ordered record of differentiable operations.

    Insertion order is a topological order of the computation, so the
    backward sweep is a single reverse pass over ``nodes``.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _stack().pop()
        if popped is not self:
            raise RuntimeError("tape contexts exited out of order")
        return False

    def record(self, out: Tensor, inputs: tuple, vjp: Callable) -> None:
        self.nodes.append(_Node(out, inputs, vjp))
        self._produced.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

        Interior adjoints live only for the duration of this call, so
        running backward again re-derives them from scratch and adds the
        same contributions onto the leaves once more.
        """
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self.nodes):
            g = flows.pop(id(node.out), None)
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.vjp(g)):
                if gi is None or not inp.requires_grad:
                    continue
                if id(inp) in self._produced:
                    acc = flows.get(id(inp))
                    flows[id(inp)] = gi if acc is None else acc + gi
                elif inp.grad is None:
                    inp.grad = np.array(gi, dtype=np.float64)
                else:
                    inp.grad = inp.grad + gi


def backward(loss: Tensor) -> None:
    """Run the reverse sweep of the innermost active tape."""
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward called outside a Tape context")
    tape.backward(loss)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def parameter(data) -> Tensor:
    """A leaf tensor that owns its buffer and receives gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def apply_op(out_data, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result, recording it on the active tape when it matters.

    ``vjp`` maps the output adjoint to a tuple of input adjoints aligned
    with ``inputs`` (``None`` entries for inputs that need no gradient).
    Nothing is recorded when no input requires gradients or no tape is
    open, so inference-time forwards cost plain numpy.
    """
    out = Tensor(out_data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape = active_tape()
        if tape is not None:
            tape.record(out, tuple(inputs), vjp)
    return out


def zero_grad(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def _check_pair(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape == b.data.shape or a.data.size == 1 or b.data.size == 1:
        return
    raise ShapeError(
        f"{opname}: shapes {a.data.shape} and {b.data.shape} "
        "(only scalar-with-tensor mixing is supported)"
    )


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "add")
    ashape, bshape = a.data.shape, b.data.shape

    def vjp(g):
        return (_reduce_to(g, ashape), _reduce_to(g, bshape))

    return apply_op(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "sub")
    ashape, bshape = a.data.shape, b.data.shape

    def vjp(g):
        return (_reduce_to(g, ashape), _reduce_to(-g, bshape))

    return apply_op(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "mul")
    ad, bd = a.data, b.data

    def vjp(g):
        return (_reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape))

    return apply_op(ad * bd, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return apply_op(a.data * c, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions {ad.shape} @ {bd.shape}")

        def vjp(g):
            return (g @ bd.T, ad.T @ g)

    elif ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions {ad.shape} @ {bd.shape}")

        def vjp(g):
            return (np.outer(g, bd), ad.T @ g)

    else:
        raise ShapeError(
            f"matmul supports 2-D @ 2-D or 2-D @ 1-D, got {ad.shape} @ {bd.shape}"
        )
    return apply_op(ad @ bd, (a, b), vjp)


def quadratic_form(z: Tensor, m: Tensor) -> Tensor:
    """Scalar z' M z with adjoints for both the vector and the matrix."""
    zd, md = z.data, m.data
    if zd.ndim != 1 or md.ndim != 2 or md.shape != (zd.shape[0], zd.shape[0]):
        raise ShapeError(f"quadratic_form: vector {zd.shape} against matrix {md.shape}")

    def vjp(g):
        s = float(g)
        return (s * ((md + md.T) @ zd), s * np.outer(zd, zd))

    return apply_op(np.asarray(zd @ md @ zd), (z, m), vjp)


def relu(x: Tensor) -> Tensor:
    xd = x.data

    def vjp(g):
        return (g * (xd > 0.0),)

    return apply_op(np.maximum(xd, 0.0), (x,), vjp)


def absval(x: Tensor) -> Tensor:
    # subgradient 0 at the kink, via sign(0) == 0
    xd = x.data

    def vjp(g):
        return (g * np.sign(xd),)

    return apply_op(np.abs(xd), (x,), vjp)


def sqrt(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0.0):
        raise DomainError("sqrt requires strictly positive inputs")
    out = np.sqrt(xd)

    def vjp(g):
        return (g * (0.5 / out),)

    return apply_op(out, (x,), vjp)


def reciprocal(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0.0):
        raise DomainError("reciprocal requires strictly positive inputs")
    out = 1.0 / xd

    def vjp(g):
        return (-g * out * out,)

    return apply_op(out, (x,), vjp)


def soft_threshold(x: Tensor, gamma) -> Tensor:
    """sign(x) * max(|x| - gamma, 0), producing exact zeros in the dead zone.

    ``gamma`` must be elementwise non-negative, same shape as ``x`` or a
    scalar. Subgradient convention at |x| == gamma: zero for both operands.
    """
    gamma = _wrap(gamma)
    _check_pair(x, gamma, "soft_threshold")
    xd, gd = x.data, gamma.data
    if np.any(gd < 0.0):
        raise DomainError("soft_threshold requires gamma >= 0")
    mask = np.abs(xd) > gd
    sgn = np.sign(xd)

    def vjp(g):
        live = g * mask
        return (_reduce_to(live, xd.shape), _reduce_to(-sgn * live, gd.shape))

    return apply_op(sgn * np.maximum(np.abs(xd) - gd, 0.0), (x, gamma), vjp)


def concat_scalars(parts: Sequence[Tensor]) -> Tensor:
    """Pack scalar tensors into a vector, routing adjoints entrywise."""
    parts = tuple(parts)
    shapes = []
    vals = []
    for t in parts:
        if t.data.size != 1:
            raise ShapeError("concat_scalars expects scalar tensors")
        shapes.append(t.data.shape)
        vals.append(float(t.data.reshape(())))

    def vjp(g):
        return tuple(np.asarray(g[j]).reshape(shapes[j]) for j in range(len(parts)))

    return apply_op(np.array(vals), parts, vjp)


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
