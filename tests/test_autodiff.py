"""Tape engine: forward semantics, adjoints, and the difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spodnet import autodiff as ad
from spodnet.autodiff import DomainError, ShapeError, Tape, Tensor
from spodnet.models import MlpSpec

from oracles import finite_diff_check, random_mlp


def _mlp(widths, seed, out_activation="identity"):
    return random_mlp(MlpSpec(tuple(widths), out_activation), np.random.default_rng(seed))


class TestSoftThreshold:
    def test_definition(self):
        assert ad.soft_threshold(ad.constant([1.5]), ad.constant([1.0])).data[0] == 0.5

    def test_dead_zone(self):
        assert ad.soft_threshold(ad.constant([-0.5]), ad.constant([1.0])).data[0] == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.array([-3.0, 0.0, 0.25, 7.0])
        out = ad.soft_threshold(ad.constant(x), ad.constant(np.zeros(4)))
        assert np.array_equal(out.data, x)

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            ad.soft_threshold(ad.constant([1.0]), ad.constant([-0.1]))

    def test_gradients(self):
        x = ad.parameter([2.0, -0.3, -4.0])
        g = ad.parameter([1.0, 1.0, 1.0])
        with Tape():
            ad.backward(ad.soft_threshold(x, g).sum())
        # |x| > gamma passes d/dx = 1; the dead entry passes 0
        assert np.array_equal(x.grad, [1.0, 0.0, 1.0])
        # d/dgamma = -sign(x) where the threshold is active
        assert np.array_equal(g.grad, [-1.0, 0.0, 1.0])

    @settings(derandomize=True, max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(0.0, 1e6))
    def test_shrinks_and_zeroes(self, xs, gamma):
        x = np.asarray(xs)
        out = ad.soft_threshold(ad.constant(x), ad.constant(np.full_like(x, gamma))).data
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.all(out[np.abs(x) <= gamma] == 0.0)


class TestElementwise:
    def test_quadratic_form_identity(self):
        q = ad.quadratic_form(ad.constant([1.0, 1.0]), ad.constant(np.eye(2)))
        assert q.item() == 2.0

    def test_grad_of_squared_norm(self):
        x = ad.parameter([1.0, 2.0])
        with Tape():
            ad.backward(ad.mul(x, x).sum())
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_unequal_shapes_rejected(self):
        # no broadcasting of any kind: not a scalar against a tensor, nor a
        # per-sample scalar (B, 1) against a per-sample vector (B, k)
        pairs = [((), (3,)), ((1,), (3,)), ((2,), (3,)), ((3, 1), (3, 4)),
                 ((2, 1), (3, 4)), ((3, 2), (3, 4)), ((4,), (3, 4))]
        for op in (ad.sub, ad.mul, ad.soft_threshold):
            for a, b in pairs:
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(ShapeError):
                        op(ad.constant(np.ones(x)), ad.constant(np.ones(y)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.parameter([5.0, -1.0, 2.0])
        with Tape():
            ad.backward(x.sum())
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_dead_relu_blocks_gradient(self):
        net = _mlp((2, 3, 1), 0)
        net.biases[0].data[...] = -10.0  # every hidden pre-activation < 0
        with Tape():
            ad.backward(net(ad.constant([0.5, -0.25])).sum())
        assert not net.weights[0].grad.any()
        assert not net.biases[0].grad.any()
        assert net.biases[1].grad[0] == 1.0

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter([1.0, 2.0])
        with Tape():
            y = ad.scale(x, 2.0)
            with pytest.raises(ShapeError):
                ad.backward(y)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        xv = rng.standard_normal(5)
        a, b = 2.5, -1.25

        def run(fn):
            x = ad.parameter(xv)
            with Tape():
                ad.backward(fn(x))
            return x.grad

        gf = run(lambda x: ad.mul(x, x).sum())
        gg = run(lambda x: x.sum())
        combined = run(lambda x: ad.sub(ad.scale(ad.mul(x, x).sum(), a),
                                        ad.scale(x.sum(), -b)))
        assert np.abs(combined - (a * gf + b * gg)).max() <= 1e-12

    def test_double_backward_doubles_exactly(self):
        x = ad.parameter([1.0, -2.0, 0.5])
        with Tape():
            loss = ad.mul(x, x).sum()
            ad.backward(loss)
            once = x.grad.copy()
            ad.backward(loss)
        assert np.array_equal(x.grad, 2.0 * once)

    def test_grads_accumulate_until_zeroed(self):
        x = ad.parameter([1.0])
        with Tape():
            ad.backward(x.sum())
        with Tape():
            ad.backward(x.sum())
        assert x.grad[0] == 2.0
        ad.zero_grad([x])
        assert x.grad is None

    def test_backward_outside_tape_rejected(self):
        x = ad.parameter([1.0])
        with pytest.raises(RuntimeError):
            ad.backward(x.sum())


class TestFiniteDiffCheck:
    def test_quadratic_is_machine_exact(self):
        x = ad.parameter([1.0, -0.5, 2.0])
        err = finite_diff_check(lambda: ad.mul(x, x).sum(), [x])
        assert err <= 1e-9

    def test_relu_network_at_non_kink(self):
        rng = np.random.default_rng(2)
        net = _mlp((3, 4, 1), 2)
        x = ad.constant(rng.standard_normal(3) + 0.5)
        assert finite_diff_check(lambda: net(x).sum(), net.tensors()) <= 1e-5

    def test_constant_function(self):
        x = ad.parameter([3.0])
        assert finite_diff_check(lambda: ad.constant(7.0).sum(), [x]) == 0.0

    def test_h_must_be_positive(self):
        x = ad.parameter([1.0])
        with pytest.raises(DomainError):
            finite_diff_check(lambda: x.sum(), [x], h=0.0)


class TestPrimitiveGradients:
    """Every differentiable primitive against central differences at
    randomly drawn non-kink points."""

    TOL = 1e-5

    def _check(self, build, n_params, seed, shift=0.0):
        rng = np.random.default_rng(seed)
        params = [ad.parameter(rng.standard_normal(4) + shift)
                  for _ in range(n_params)]
        assert finite_diff_check(lambda: build(*params), params) <= self.TOL

    def test_sub(self):
        self._check(lambda a, b: ad.sub(a, b).sum(), 2, 11)

    def test_mul(self):
        self._check(lambda a, b: ad.mul(ad.mul(a, b), ad.mul(a, b)).sum(), 2, 12)

    def test_scale_and_neg(self):
        self._check(lambda a: ad.mul(ad.scale(a, 1.7), a).sum(), 1, 13)

    def test_quadratic_form(self):
        rng = np.random.default_rng(17)
        z = ad.parameter(rng.standard_normal(4))
        m = ad.parameter(rng.standard_normal((4, 4)))
        err = finite_diff_check(lambda: ad.quadratic_form(z, m), [z, m])
        assert err <= self.TOL

    def test_soft_threshold_non_kink(self):
        rng = np.random.default_rng(22)
        x = ad.parameter(rng.standard_normal(4) * 3.0 + 4.0)
        g = ad.parameter(np.abs(rng.standard_normal(4)))
        err = finite_diff_check(lambda: ad.soft_threshold(x, g).sum(), [x, g])
        assert err <= self.TOL


def test_tensor_shape_and_item():
    t = Tensor([[1.0, 2.0]])
    assert t.shape == (1, 2)
    with pytest.raises(ShapeError):
        t.item()
    assert Tensor(3.5).item() == 3.5


class TestBatchAxis:
    """A leading batch axis runs through every primitive as one tape node,
    and each adjoint passes central differences."""

    TOL = 1e-7

    def _check(self, build, params, seed):
        # a random cotangent weights every output entry
        out_shape = build(*params).data.shape
        cot = Tensor(np.random.default_rng(seed).standard_normal(out_shape))
        err = finite_diff_check(lambda: ad.mul(build(*params), cot).sum(), params)
        assert err <= self.TOL

    def test_quadratic_form(self):
        rng = np.random.default_rng(35)
        z = ad.parameter(rng.standard_normal((3, 4)))
        m = ad.parameter(rng.standard_normal((3, 4, 4)))
        q = ad.quadratic_form(z, m)
        assert q.data.shape == (3,)
        for b in range(3):
            single = ad.quadratic_form(Tensor(z.data[b]), Tensor(m.data[b])).item()
            assert abs(q.data[b] - single) <= 1e-12 * abs(single)
        self._check(ad.quadratic_form, [z, m], 36)

    def test_soft_threshold(self):
        rng = np.random.default_rng(37)
        x = ad.parameter(rng.standard_normal((3, 4)) * 3.0 + 4.0)
        g = ad.parameter(np.abs(rng.standard_normal((3, 4))))
        self._check(ad.soft_threshold, [x, g], 38)

    def test_scale_and_sum(self):
        rng = np.random.default_rng(41)
        x = ad.parameter(rng.standard_normal((3, 4)))
        self._check(lambda a: ad.scale(a, 1.7), [x], 42)
        assert finite_diff_check(lambda: ad.mul(x, x).sum(), [x]) <= self.TOL

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
