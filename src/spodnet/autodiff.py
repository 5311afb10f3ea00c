"""Float64 tensors with tape-based reverse-mode differentiation.

A deliberately small engine, holding only what the package runs: its one
op is the column map's ``soft_threshold``. Every larger map (each MLP
call, the gradient step, the stabilizer, the Schur quadratic and the block
identities in ``core``, the training loss) is a single op built with
``apply_op``: a numpy forward plus a hand-written adjoint.

All data is float64. Every op is written over leading axes, so a stack of
independent samples with a leading batch axis runs through the same op,
as one tape node, as a single sample does: a per-sample vector has shape
``(..., k)``, a per-sample matrix ``(..., k, k)`` and a per-sample scalar
``(...)``. ``soft_threshold`` takes operands of one shape only, so its
adjoint is the plain elementwise product. A Tape is a per-forward-pass
object, discarded after its ``backward`` sweep; leaf gradients accumulate
additively until cleared with ``zero_grad``. Open tapes live on one
module-level stack, so a process runs one forward/backward at a time.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tape",
    "Tensor",
    "apply_op",
    "parameter",
    "recording",
    "soft_threshold",
    "zero_grad",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


_TAPES: list = []
# serials of recorded op outputs, unique in the process
_KEYS = itertools.count(1)


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
        same contributions onto the leaves once more. A loss this tape did
        not record (built with no tape open, or on another tape) raises
        RuntimeError, since every gradient would silently stay untouched.
        """
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        if loss.key not in self._produced:
            raise RuntimeError("backward: the loss was not recorded on this tape")
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


def soft_threshold(x: Tensor, gamma: Tensor) -> Tensor:
    """sign(x) * max(|x| - gamma, 0), producing exact zeros in the dead zone.

    ``gamma`` is of ``x``'s shape; its sign is the caller's to keep (the
    lambda net's ``abs`` head emits no negative value). Subgradient
    convention at |x| == gamma: zero for both operands.
    """
    xd, gd = x.data, gamma.data
    if xd.shape != gd.shape:
        raise ShapeError(f"soft_threshold: shapes {xd.shape} and {gd.shape} differ")
    mask = np.abs(xd) > gd
    sgn = np.sign(xd)

    def vjp(g):
        live = g * mask
        return (live, -sgn * live)

    return apply_op(sgn * np.maximum(np.abs(xd) - gd, 0.0), (x, gamma), vjp)
