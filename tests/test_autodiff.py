"""Tape engine: forward semantics, adjoints, and the difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spodnet import autodiff as ad
from spodnet.autodiff import ShapeError, Tape, Tensor
from spodnet.models import MlpSpec

from oracles import (finite_diff_check, mul, random_mlp, scale, sub, total,
                     weighted_sum)


def _mlp(widths, seed, out_activation="identity"):
    return random_mlp(MlpSpec(tuple(widths), out_activation), np.random.default_rng(seed))


def _grads(loss_fn, *leaves):
    """Each leaf's gradient of ``loss_fn()``, from a fresh tape."""
    ad.zero_grad(leaves)
    with Tape() as tape:
        tape.backward(loss_fn())
    return [t.grad for t in leaves]


class TestSoftThreshold:
    def test_definition(self):
        assert ad.soft_threshold(Tensor([1.5]), Tensor([1.0])).data[0] == 0.5

    def test_dead_zone(self):
        assert ad.soft_threshold(Tensor([-0.5]), Tensor([1.0])).data[0] == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.array([-3.0, 0.0, 0.25, 7.0])
        out = ad.soft_threshold(Tensor(x), Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x)

    def test_gradients(self):
        x = ad.parameter([2.0, -0.3, -4.0])
        g = ad.parameter([1.0, 1.0, 1.0])
        _grads(lambda: total(ad.soft_threshold(x, g)), x, g)
        # |x| > gamma passes d/dx = 1; the dead entry passes 0
        assert np.array_equal(x.grad, [1.0, 0.0, 1.0])
        # d/dgamma = -sign(x) where the threshold is active
        assert np.array_equal(g.grad, [-1.0, 0.0, 1.0])

    @settings(derandomize=True, max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(0.0, 1e6))
    def test_shrinks_and_zeroes(self, xs, gamma):
        x = np.asarray(xs)
        out = ad.soft_threshold(Tensor(x), Tensor(np.full_like(x, gamma))).data
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.all(out[np.abs(x) <= gamma] == 0.0)


class TestElementwise:
    def test_grad_of_squared_norm(self):
        # both operands are x: the tape adds the two adjoints
        x = ad.parameter([1.0, 2.0])
        _grads(lambda: weighted_sum(x, x), x)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_unequal_shapes_rejected(self):
        # no broadcasting of any kind: not a scalar against a tensor, nor a
        # per-sample scalar (B, 1) against a per-sample vector (B, k)
        pairs = [((), (3,)), ((1,), (3,)), ((2,), (3,)), ((3, 1), (3, 4)),
                 ((2, 1), (3, 4)), ((3, 2), (3, 4)), ((4,), (3, 4))]
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ShapeError):
                    ad.soft_threshold(Tensor(np.ones(x)), Tensor(np.ones(y)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.parameter([5.0, -1.0, 2.0])
        _grads(lambda: total(x), x)
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_dead_relu_blocks_gradient(self):
        net = _mlp((2, 3, 1), 0)
        net.biases[0].data[...] = -10.0  # every hidden pre-activation < 0
        _grads(lambda: total(net(Tensor([0.5, -0.25]))), *net.tensors())
        assert not net.weights[0].grad.any()
        assert not net.biases[0].grad.any()
        assert net.biases[1].grad[0] == 1.0

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter([1.0, 2.0])
        with Tape() as tape:
            y = scale(x, 2.0)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        xv = rng.standard_normal(5)
        a, b = 2.5, -1.25

        def run(fn):
            x = ad.parameter(xv)
            return _grads(lambda: fn(x), x)[0]

        gf = run(lambda x: weighted_sum(x, x))
        gg = run(total)
        combined = run(lambda x: sub(scale(weighted_sum(x, x), a),
                                     scale(total(x), -b)))
        assert np.abs(combined - (a * gf + b * gg)).max() <= 1e-12

    def test_loss_not_recorded_on_this_tape_rejected(self):
        # a loss built with no tape open, or recorded on another tape, would
        # leave every gradient at None; backward refuses it instead
        x = ad.parameter([1.0, 2.0])
        unrecorded = weighted_sum(x, x)
        with Tape() as other:
            foreign = weighted_sum(x, x)
        for loss in (unrecorded, foreign):
            with Tape() as tape:
                total(x)
                with pytest.raises(RuntimeError, match="not recorded on this tape"):
                    tape.backward(loss)
            assert x.grad is None
        other.backward(foreign)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_double_backward_doubles_exactly(self):
        x = ad.parameter([1.0, -2.0, 0.5])
        with Tape() as tape:
            loss = weighted_sum(x, x)
            tape.backward(loss)
            once = x.grad.copy()
            tape.backward(loss)
        assert np.array_equal(x.grad, 2.0 * once)

    def test_grads_accumulate_until_zeroed(self):
        x = ad.parameter([1.0])
        for _ in range(2):
            with Tape() as tape:
                tape.backward(total(x))
        assert x.grad[0] == 2.0
        ad.zero_grad([x])
        assert x.grad is None


class TestFiniteDiffCheck:
    def test_quadratic_is_machine_exact(self):
        x = ad.parameter([1.0, -0.5, 2.0])
        err = finite_diff_check(lambda: weighted_sum(x, x), [x])
        assert err <= 1e-9

    def test_relu_network_at_non_kink(self):
        rng = np.random.default_rng(2)
        net = _mlp((3, 4, 1), 2)
        x = Tensor(rng.standard_normal(3) + 0.5)
        assert finite_diff_check(lambda: total(net(x)), net.tensors()) <= 1e-5

    def test_constant_function(self):
        x = ad.parameter([3.0])
        assert finite_diff_check(lambda: total(Tensor(7.0)), [x]) == 0.0

    def test_h_must_be_positive(self):
        x = ad.parameter([1.0])
        with pytest.raises(ValueError):
            finite_diff_check(lambda: total(x), [x], h=0.0)


class TestPrimitiveGradients:
    """Every differentiable primitive, the engine's and the oracles' the
    tests compose references from, against central differences at
    randomly drawn non-kink points."""

    TOL = 1e-5

    def _check(self, build, n_params, seed, shift=0.0):
        rng = np.random.default_rng(seed)
        params = [ad.parameter(rng.standard_normal(4) + shift)
                  for _ in range(n_params)]
        assert finite_diff_check(lambda: build(*params), params) <= self.TOL

    def test_sub(self):
        self._check(lambda a, b: total(sub(a, b)), 2, 11)

    def test_mul(self):
        self._check(lambda a, b: total(mul(mul(a, b), mul(a, b))), 2, 12)

    def test_scale_and_neg(self):
        self._check(lambda a: total(mul(scale(a, 1.7), a)), 1, 13)

    def test_soft_threshold_non_kink(self):
        rng = np.random.default_rng(22)
        x = ad.parameter(rng.standard_normal(4) * 3.0 + 4.0)
        g = ad.parameter(np.abs(rng.standard_normal(4)))
        err = finite_diff_check(lambda: total(ad.soft_threshold(x, g)), [x, g])
        assert err <= self.TOL


class TestBatchAxis:
    """A leading batch axis runs through every primitive as one tape node,
    and each adjoint passes central differences."""

    TOL = 1e-7

    def _check(self, build, params, seed):
        # a random cotangent weights every output entry
        out_shape = build(*params).data.shape
        cot = Tensor(np.random.default_rng(seed).standard_normal(out_shape))
        err = finite_diff_check(lambda: weighted_sum(build(*params), cot), params)
        assert err <= self.TOL

    def test_soft_threshold(self):
        rng = np.random.default_rng(37)
        x = ad.parameter(rng.standard_normal((3, 4)) * 3.0 + 4.0)
        g = ad.parameter(np.abs(rng.standard_normal((3, 4))))
        self._check(ad.soft_threshold, [x, g], 38)

    def test_scale_and_sum(self):
        rng = np.random.default_rng(41)
        x = ad.parameter(rng.standard_normal((3, 4)))
        self._check(lambda a: scale(a, 1.7), [x], 42)
        assert finite_diff_check(lambda: weighted_sum(x, x), [x]) <= self.TOL

    @pytest.mark.parametrize("head", ["identity", "abs"])
    def test_mlp_sums_parameter_gradients_over_the_batch(self, head):
        rng = np.random.default_rng(43)
        net = _mlp((4, 5, 3, 2), 43, head)
        for b in net.biases:  # keep every pre-activation off the kinks
            b.data[...] = rng.standard_normal(b.data.shape)
        x = ad.parameter(rng.standard_normal((3, 4)))
        out = net(x).data
        for b in range(3):
            assert np.array_equal(out[b], net(Tensor(x.data[b])).data)
        self._check(lambda a, *_: net(a), [x, *net.tensors()], 44)
