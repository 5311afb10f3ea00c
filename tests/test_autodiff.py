"""Tape engine: forward semantics, adjoints, and the difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spodnet import autodiff as ad
from spodnet.autodiff import DomainError, ShapeError, Tape, Tensor


def _grad_by_hand(fn, x0, h=1e-6):
    """Central differences of a scalar numpy function, entry by entry."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gf = g.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = fn(x0)
        flat[j] = orig - h
        fm = fn(x0)
        flat[j] = orig
        gf[j] = (fp - fm) / (2 * h)
    return g


class TestMatmul:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_hand_product(self):
        a = ad.constant([[1.0, 2.0]])
        b = ad.constant([[3.0], [4.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        x = ad.parameter(rng.standard_normal(4))

        with Tape():
            ad.backward(ad.matmul(ad.constant(a), x).sum())
        expected = _grad_by_hand(lambda v: float((a @ v).sum()), x.data)
        rel = np.abs(x.grad - expected) / np.maximum(1.0, np.abs(expected))
        assert rel.max() <= 1e-6


class TestSoftThreshold:
    def test_definition(self):
        assert ad.soft_threshold(ad.constant([1.5]), ad.constant([1.0])).data[0] == 0.5

    def test_dead_zone(self):
        assert ad.soft_threshold(ad.constant([-0.5]), ad.constant([1.0])).data[0] == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.array([-3.0, 0.0, 0.25, 7.0])
        out = ad.soft_threshold(ad.constant(x), ad.constant(0.0))
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
        out = ad.soft_threshold(ad.constant(x), ad.constant(gamma)).data
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.all(out[np.abs(x) <= gamma] == 0.0)


class TestElementwise:
    def test_relu(self):
        assert np.array_equal(ad.relu(ad.constant([-1.0, 0.0, 2.0])).data,
                              [0.0, 0.0, 2.0])

    def test_quadratic_form_identity(self):
        q = ad.quadratic_form(ad.constant([1.0, 1.0]), ad.constant(np.eye(2)))
        assert q.item() == 2.0

    def test_grad_of_squared_norm(self):
        x = ad.parameter([1.0, 2.0])
        with Tape():
            ad.backward(ad.mul(x, x).sum())
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_scalar_tensor_mixing(self):
        s = ad.constant(2.0)
        v = ad.constant([1.0, 2.0, 3.0])
        assert np.array_equal(ad.mul(s, v).data, [2.0, 4.0, 6.0])
        assert np.array_equal(ad.add(v, s).data, [3.0, 4.0, 5.0])

    def test_vector_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            ad.sqrt(ad.constant([1.0, 0.0]))

    def test_reciprocal_domain(self):
        with pytest.raises(DomainError):
            ad.reciprocal(ad.constant([-2.0]))


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.parameter([5.0, -1.0, 2.0])
        with Tape():
            ad.backward(x.sum())
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_dead_relu_blocks_gradient(self):
        w = ad.parameter(3.0)
        with Tape():
            ad.backward(ad.mul(ad.relu(ad.constant(-2.0)), w))
        assert w.grad == 0.0

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
        combined = run(lambda x: ad.add(ad.scale(ad.mul(x, x).sum(), a),
                                        ad.scale(x.sum(), b)))
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
        err = ad.finite_diff_check(lambda: ad.mul(x, x).sum(), [x])
        assert err <= 1e-9

    def test_relu_network_at_non_kink(self):
        rng = np.random.default_rng(2)
        w1 = ad.parameter(rng.standard_normal((4, 3)))
        w2 = ad.parameter(rng.standard_normal((1, 4)))
        x = ad.constant(rng.standard_normal(3) + 0.5)

        def loss():
            return ad.matmul(w2, ad.relu(ad.matmul(w1, x))).sum()

        assert ad.finite_diff_check(loss, [w1, w2]) <= 1e-5

    def test_constant_function(self):
        x = ad.parameter([3.0])
        assert ad.finite_diff_check(lambda: ad.constant(7.0).sum(), [x]) == 0.0

    def test_h_must_be_positive(self):
        x = ad.parameter([1.0])
        with pytest.raises(DomainError):
            ad.finite_diff_check(lambda: x.sum(), [x], h=0.0)


class TestPrimitiveGradients:
    """Every differentiable primitive against central differences at
    randomly drawn non-kink points."""

    TOL = 1e-5

    def _check(self, build, n_params, seed, shift=0.0):
        rng = np.random.default_rng(seed)
        params = [ad.parameter(rng.standard_normal(4) + shift)
                  for _ in range(n_params)]
        assert ad.finite_diff_check(lambda: build(*params), params) <= self.TOL

    def test_add(self):
        self._check(lambda a, b: ad.add(a, b).sum(), 2, 10)

    def test_sub(self):
        self._check(lambda a, b: ad.sub(a, b).sum(), 2, 11)

    def test_mul(self):
        self._check(lambda a, b: ad.mul(ad.mul(a, b), ad.mul(a, b)).sum(), 2, 12)

    def test_scale_and_neg(self):
        self._check(lambda a: ad.mul(ad.scale(a, 1.7), a).sum(), 1, 13)

    def test_matvec(self):
        rng = np.random.default_rng(14)
        w = ad.parameter(rng.standard_normal((3, 4)))
        x = ad.parameter(rng.standard_normal(4))
        err = ad.finite_diff_check(
            lambda: ad.mul(ad.matmul(w, x), ad.matmul(w, x)).sum(), [w, x])
        assert err <= self.TOL

    def test_matmat(self):
        rng = np.random.default_rng(15)
        a = ad.parameter(rng.standard_normal((3, 4)))
        b = ad.parameter(rng.standard_normal((4, 2)))
        err = ad.finite_diff_check(lambda: ad.matmul(a, b).sum(), [a, b])
        assert err <= self.TOL

    def test_quadratic_form(self):
        rng = np.random.default_rng(17)
        z = ad.parameter(rng.standard_normal(4))
        m = ad.parameter(rng.standard_normal((4, 4)))
        err = ad.finite_diff_check(lambda: ad.quadratic_form(z, m), [z, m])
        assert err <= self.TOL

    def test_relu_non_kink(self):
        self._check(lambda a: ad.mul(ad.relu(a), ad.relu(a)).sum(), 1, 18, shift=0.3)

    def test_abs_non_kink(self):
        self._check(lambda a: ad.absval(a).sum(), 1, 19, shift=2.0)

    def test_sqrt(self):
        self._check(lambda a: ad.sqrt(a).sum(), 1, 20, shift=3.0)

    def test_reciprocal(self):
        self._check(lambda a: ad.reciprocal(a).sum(), 1, 21, shift=3.0)

    def test_soft_threshold_non_kink(self):
        rng = np.random.default_rng(22)
        x = ad.parameter(rng.standard_normal(4) * 3.0 + 4.0)
        g = ad.parameter(np.abs(rng.standard_normal(4)))
        err = ad.finite_diff_check(lambda: ad.soft_threshold(x, g).sum(), [x, g])
        assert err <= self.TOL

    def test_concat_scalars(self):
        a = ad.parameter(1.5)
        b = ad.parameter(-0.5)
        c = ad.parameter(2.0)
        err = ad.finite_diff_check(
            lambda: ad.mul(ad.concat_scalars((a, b, c)),
                           ad.concat_scalars((a, b, c))).sum(), [a, b, c])
        assert err <= self.TOL


def test_tensor_shape_and_item():
    t = Tensor([[1.0, 2.0]])
    assert t.shape == (1, 2)
    with pytest.raises(ShapeError):
        t.item()
    assert Tensor(3.5).item() == 3.5


def test_tapes_are_thread_local():
    import threading

    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        x = ad.parameter(rng.standard_normal(6))
        for _ in range(50):
            ad.zero_grad([x])
            with Tape():
                ad.backward(ad.mul(x, x).sum())
            if not np.allclose(x.grad, 2 * x.data):
                errors.append(seed)
                return

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
