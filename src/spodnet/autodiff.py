"""Float64 tensors with tape-based reverse-mode differentiation.

A deliberately small engine, holding only the ops its callers compose:
the layer's ``quadratic_form``, the column map's ``soft_threshold``, and
``sub``, ``mul``, ``scale`` and ``Tensor.sum``, which only the training
loss uses. Larger maps (each MLP call, the gradient step, the
stabilizer, the block identities) are single ops built with ``apply_op``:
a numpy forward plus a hand-written adjoint.

All data is float64. Every op is written over leading axes, so a stack of
independent samples with a leading batch axis runs through the same op,
as one tape node, as a single sample does: a per-sample vector has shape
``(..., k)``, a per-sample matrix ``(..., k, k)`` and a per-sample scalar
``(...)``. The elementwise ops (``sub``, ``mul`` and ``soft_threshold``)
take operands of one shape only, so every adjoint is the plain
elementwise product. A Tape is a per-forward-pass object, discarded after
the backward sweep; leaf gradients accumulate additively until cleared
with ``zero_grad``. Open tapes live on one module-level stack, so a
process runs one forward/backward at a time.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "ShapeError",
    "Tape",
    "Tensor",
    "apply_op",
    "backward",
    "constant",
    "mul",
    "parameter",
    "quadratic_form",
    "scale",
    "soft_threshold",
    "sub",
    "zero_grad",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside an operation's domain."""


_TAPES: list = []
# serials of recorded op outputs, unique in the process
_KEYS = itertools.count(1)


def active_tape():
    """The innermost open Tape, or None."""
    return _TAPES[-1] if _TAPES else None


def recording() -> bool:
    """Whether a tape is open. An op whose adjoint needs a derived array
    (rather than a large input) computes it only then."""
    return bool(_TAPES)


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        # serial of the taped op that produced this tensor, if any
        self.key: int | None = None

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
    __slots__ = ("key", "inputs", "vjp")

    def __init__(self, key: int, inputs: list, vjp: Callable):
        self.key = key
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Execution-ordered record of differentiable operations.

    Insertion order is a topological order of the computation, so the
    backward sweep is a single reverse pass over ``nodes``. A node keeps
    the key of its output and, per input, the key of an input produced on
    this tape, the tensor of any other input that needs a gradient (a
    leaf), or None. Arrays outlive the forward only in adjoint closures,
    which keep what their adjoints read, not a whole input they slice.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        if popped is not self:
            raise RuntimeError("tape contexts exited out of order")
        return False

    def record(self, out: Tensor, inputs: tuple, vjp: Callable) -> None:
        produced = self._produced
        refs = [None if not t.requires_grad
                else t.key if t.key in produced else t
                for t in inputs]
        out.key = key = next(_KEYS)
        produced.add(key)
        self.nodes.append(_Node(key, refs, vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

        Interior adjoints live only for the duration of this call, so
        running backward again re-derives them from scratch and adds the
        same contributions onto the leaves once more.
        """
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        flows: dict[int | None, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        for node in reversed(self.nodes):
            g = flows.pop(node.key, None)
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.vjp(g)):
                if gi is None or inp is None:
                    continue
                if isinstance(inp, int):
                    acc = flows.get(inp)
                    flows[inp] = gi if acc is None else acc + gi
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


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def parameter(data) -> Tensor:
    """A leaf tensor that owns its buffer and receives gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def apply_op(out_data, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Wrap an op result, recording it on the active tape when it matters.

    ``vjp`` maps the output adjoint to a tuple of input adjoints aligned
    with ``inputs`` (``None`` entries for inputs that need no gradient).
    Nothing is recorded when no input requires gradients or no tape is
    open, so inference-time forwards cost plain numpy.
    """
    out = Tensor(out_data)
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            if _TAPES:
                _TAPES[-1].record(out, inputs, vjp)
            break
    return out


def zero_grad(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def _check_pair(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} differ")


# The elementwise adjoints compute and keep only what an operand that needs
# a gradient uses, so a constant operand costs the tape nothing.


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "sub")
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (g if na else None, -g if nb else None)

    return apply_op(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "mul")
    # each operand's adjoint reads the other operand
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (None if bd is None else g * bd,
                None if ad is None else g * ad)

    return apply_op(a.data * b.data, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return apply_op(a.data * c, (a,), vjp)


def quadratic_form(z: Tensor, m: Tensor, zm: np.ndarray | None = None,
                   mz: np.ndarray | None = None) -> Tensor:
    """Per-sample scalar z' M z of vectors ``(..., k)`` and matrices
    ``(..., k, k)``, shape ``(...)``, with adjoints for both operands. A
    caller that already holds z'M or Mz passes it as ``zm`` or ``mz``,
    and neither is computed again."""
    zd, md = z.data, m.data
    if zd.ndim < 1 or md.shape != zd.shape + zd.shape[-1:]:
        raise ShapeError(f"quadratic_form: vector {zd.shape} against matrix {md.shape}")

    if zm is None:
        # (z' M) z, the association the unbatched 1-D form z @ M @ z rounds in
        zm = np.vecmat(zd, md)
    # the adjoint needs (M + M') z, not M, so a tape does not keep M alive
    sym_z = None
    if recording():
        sym_z = zm + (np.matvec(md, zd) if mz is None else mz)
    need_m = m.requires_grad

    def vjp(g):
        g = g[..., None]
        dm = g[..., None] * (zd[..., :, None] * zd[..., None, :]) if need_m else None
        return (g * sym_z, dm)

    return apply_op(np.vecdot(zm, zd), (z, m), vjp)


def soft_threshold(x: Tensor, gamma: Tensor) -> Tensor:
    """sign(x) * max(|x| - gamma, 0), producing exact zeros in the dead zone.

    ``gamma`` must be elementwise non-negative and of ``x``'s shape.
    Subgradient convention at |x| == gamma: zero for both operands.
    """
    _check_pair(x, gamma, "soft_threshold")
    xd, gd = x.data, gamma.data
    if np.any(gd < 0.0):
        raise DomainError("soft_threshold requires gamma >= 0")
    mask = np.abs(xd) > gd
    sgn = np.sign(xd)

    def vjp(g):
        live = g * mask
        return (live, -sgn * live)

    return apply_op(sgn * np.maximum(np.abs(xd) - gd, 0.0), (x, gamma), vjp)
