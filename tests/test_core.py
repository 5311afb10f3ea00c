"""Column-row update layer: block algebra, SPD preservation, diagnostics."""

import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest

from spodnet import autodiff as ad
from spodnet import core, datagen, linalg, models
from spodnet.autodiff import Tape, Tensor
from spodnet.core import (LayerConfig, SpdState, SpdViolation, UpdateFns,
                          bauer_fike_check, rank2_delta_eigs,
                          stabilize_preactivation, theta11_inverse,
                          theta11_inverse_np, theta_plus, theta_plus_np,
                          w_plus)

from oracles import broadcast_to, finite_diff_check


def _random_spd(rng, p, shift=1.0):
    a = rng.standard_normal((p, p))
    m = a @ a.T / p + shift * np.eye(p)
    return 0.5 * (m + m.T)


def _theta_plus(theta, u, v, m, i):
    """:func:`theta_plus` with the products it takes computed from its own
    inputs, so that central differences move them too."""
    return theta_plus(theta, u, v, m, i, np.vecmat(u.data, m.data),
                      np.matvec(m.data, u.data))


def _w_plus(m, u, v, i):
    """:func:`w_plus` with M u computed from its own inputs."""
    return w_plus(m, u, v, i, np.matvec(m.data, u.data))


def _identity_fns():
    """f returns the current column, g the current Schur margin: a no-op."""

    def f(ctx):
        return ctx.theta12

    def g(ctx, u, q):
        return ad.sub(ctx.theta22, ad.quadratic_form(ctx.theta12, ctx.theta11_inv))

    return UpdateFns(f=f, g=g)


def _constant_fns(uval, vval):
    def f(ctx):
        return Tensor(np.full(ctx.theta12.data.shape, uval))

    def g(ctx, u, q):
        return Tensor(np.asarray(vval))

    return UpdateFns(f=f, g=g)


class TestTheta11Inverse:
    def test_identity(self):
        out = theta11_inverse_np(np.eye(2), 1)
        assert np.array_equal(out, [[1.0]])

    def test_hand_2x2(self):
        w = np.array([[2.0, 1.0], [1.0, 1.0]])
        out = theta11_inverse_np(w, 1)
        assert np.allclose(out, [[1.0]])
        # cross-check: theta = inv(w) = [[1,-1],[-1,2]], theta11 = [1]
        theta = linalg.spd_inverse(w)
        assert np.allclose(np.linalg.inv(theta[:1, :1]), out, atol=1e-12)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = _random_spd(rng, 10)
            w = linalg.spd_inverse(theta)
            for i in (0, 4, 9):
                rest = linalg.rest_indices(10, i)
                oracle = np.linalg.inv(theta[np.ix_(rest, rest)])
                got = theta11_inverse_np(w, i)
                rel = np.linalg.norm(got - oracle) / np.linalg.norm(oracle)
                assert rel <= 1e-9


    def test_nonpositive_pivot_rejected(self):
        w = np.eye(3)
        w[1, 1] = -0.5
        with pytest.raises(SpdViolation):
            theta11_inverse_np(w, 1)


class TestAssembleThetaPlus:
    def test_noop_update(self):
        out = theta_plus_np(np.eye(2), 1, np.array([0.0]), 1.0, np.array([0.0]))
        assert np.array_equal(out, np.eye(2))

    def test_hand_schur_evaluation(self):
        out = theta_plus_np(np.eye(2), 1, np.array([0.5]), 2.0, np.array([0.5]))
        assert np.allclose(out, [[1.0, 0.5], [0.5, 2.25]])
        assert np.linalg.det(out) == pytest.approx(2.0)

    def test_spd_preserved_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            theta = _random_spd(rng, 8)
            i = int(rng.integers(8))
            rest = linalg.rest_indices(8, i)
            t11inv = np.linalg.inv(theta[np.ix_(rest, rest)])
            u = rng.standard_normal(7) * 10.0 ** rng.uniform(-1, 2)
            out = theta_plus_np(theta, i, u, 0.5, np.matvec(t11inv, u))
            assert np.linalg.eigvalsh(out)[0] > 0.0

    def test_schur_margin_equals_v(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = _random_spd(rng, 7)
            i = int(rng.integers(7))
            rest = linalg.rest_indices(7, i)
            t11inv = np.linalg.inv(theta[np.ix_(rest, rest)])
            u = rng.standard_normal(6)
            v = float(10.0 ** rng.uniform(-4, 1))
            out = theta_plus_np(theta, i, u, v, np.matvec(t11inv, u))
            # independent dense evaluation of the updated Schur complement
            schur = out[i, i] - out[rest, i] @ np.linalg.inv(
                out[np.ix_(rest, rest)]) @ out[rest, i]
            assert abs(schur - v) <= 1e-10 * max(1.0, abs(out[i, i]))


class TestAssembleWPlus:
    def test_identity_case(self):
        out = _w_plus(Tensor(np.eye(1)), Tensor([0.0]), Tensor(1.0), 1)
        assert np.array_equal(out.data, np.eye(2))

    def test_hand_2x2_continuation(self):
        out = _w_plus(Tensor(np.eye(1)), Tensor([0.5]), Tensor(2.0), 1)
        assert np.allclose(out.data, [[1.125, -0.25], [-0.25, 0.5]])
        theta_plus = np.array([[1.0, 0.5], [0.5, 2.25]])
        assert np.abs(theta_plus @ out.data - np.eye(2)).max() <= 1e-14

    def test_inverse_pair_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            theta = _random_spd(rng, 10)
            i = int(rng.integers(10))
            rest = linalg.rest_indices(10, i)
            t11inv = np.linalg.inv(theta[np.ix_(rest, rest)])
            u = rng.standard_normal(9)
            v = float(10.0 ** rng.uniform(-2, 1))
            mu = np.matvec(t11inv, u)
            tp = theta_plus_np(theta, i, u, v, mu)
            wp = core.w_plus_np(t11inv, mu, v, i)
            assert np.abs(tp @ wp - np.eye(10)).max() <= 1e-10


class TestScaleCovariance:
    """The block algebra is homogeneous of degree one: Theta/c, cW, u/c and
    v/c give the c = 1 outputs scaled, inv(Theta_11) and W+ by c and Theta+
    by 1/c, for each block identity and for one layer pass with fixed maps.
    A power of two scales without rounding, so its match is bit for bit.
    Otherwise each identity matches to ``rtol``; the layer chains p
    updates, whose roundings grow with the conditioning, so its bound is
    ``rtol`` times the condition number of its Theta."""

    P, B = 7, 3

    def _outputs(self, c):
        """inv(Theta_11), Theta+ and W+ at every pivot, then one layer's
        Theta and W, each as (its degree in c, the array, its error scale)."""
        rng = np.random.default_rng(31)
        theta = np.stack([_random_spd(rng, self.P) for _ in range(self.B)])
        w = np.linalg.inv(theta)
        us = rng.standard_normal((self.P, self.B, self.P - 1)) / c
        vs = rng.uniform(0.5, 2.0, (self.P, self.B)) / c
        theta, w = theta / c, c * w
        out = []
        for i in range(self.P):
            m = theta11_inverse_np(w, i)
            mu = np.matvec(m, us[i])
            out += [(1, m, 1.0), (-1, theta_plus_np(theta, i, us[i], vs[i], mu), 1.0),
                    (1, core.w_plus_np(m, mu, vs[i], i), 1.0)]
        fns = UpdateFns(f=lambda ctx: Tensor(us[ctx.i]),
                        g=lambda ctx, u, q: Tensor(vs[ctx.i]))
        state = core.spodnet_layer(SpdState(Tensor(theta), Tensor(w)), fns,
                                   LayerConfig(), np.zeros((self.B, self.P, self.P)))
        cond = float(np.linalg.cond(state.theta.data).max())
        return out + [(-1, state.theta.data, cond), (1, state.w.data, cond)]

    @pytest.mark.parametrize("c,rtol", [(2.0 ** 20, 0.0), (2.0 ** -20, 0.0),
                                        (1e6, 1e-15), (1e-6, 1e-15), (3.0, 1e-15)])
    def test_outputs_scale_with_the_inputs(self, c, rtol):
        for (degree, want, cond), (_, got, _) in zip(self._outputs(1.0), self._outputs(c)):
            want = want * c if degree == 1 else want / c
            assert np.abs(got - want).max() <= rtol * cond * np.abs(want).max()


def _per_sample_close(batched, single_fn, batch, rtol=1e-12):
    """Each sample of a batched result against the unbatched function."""
    for b in np.ndindex(*batch):
        single = single_fn(b)
        assert np.abs(batched[b] - single).max() <= rtol * np.abs(single).max()


class TestBlockOpAdjoints:
    """Each tape op equals its numpy function and passes central differences
    on every input; a random cotangent weights every output entry, so a
    wrong adjoint for any entry shows."""

    TOL = 1e-7
    BATCH: tuple = ()

    def _setup(self, seed, batch, p=6):
        rng = np.random.default_rng(seed)
        theta = np.zeros(batch + (p, p))
        for b in np.ndindex(*batch):
            theta[b] = _random_spd(rng, p)
        w = np.zeros_like(theta)
        for b in np.ndindex(*batch):
            w[b] = linalg.spd_inverse(theta[b])
        i = int(rng.integers(p))
        return rng, theta, w, i

    def _check(self, op, inputs, weights):
        err = finite_diff_check(
            lambda: ad.mul(op(*inputs), Tensor(weights)).sum(), inputs)
        assert err <= self.TOL

    def test_theta11_inverse(self):
        batch = self.BATCH
        rng, _, w, i = self._setup(41, batch)
        wt = ad.parameter(w)
        op = partial(theta11_inverse, i=i)
        out = op(wt).data
        assert np.array_equal(out, theta11_inverse_np(w, i))
        _per_sample_close(out, lambda b: theta11_inverse_np(w[b], i), batch)
        self._check(op, [wt], rng.standard_normal(batch + (5, 5)))

    def test_theta_plus(self):
        batch = self.BATCH
        rng, theta, w, i = self._setup(42, batch)
        m = theta11_inverse_np(w, i)
        inputs = [ad.parameter(theta), ad.parameter(rng.standard_normal(batch + (5,))),
                  ad.parameter(np.full(batch + (1,), 0.7)), ad.parameter(m)]
        op = partial(_theta_plus, i=i)
        out = op(*inputs).data
        u = inputs[1].data
        mu = np.matvec(m, u)
        assert np.array_equal(out, theta_plus_np(theta, i, u, np.full(batch, 0.7), mu))
        _per_sample_close(out, lambda b: theta_plus_np(theta[b], i, u[b], 0.7, mu[b]), batch)
        self._check(op, inputs, rng.standard_normal(batch + (6, 6)))

    def test_w_plus(self):
        batch = self.BATCH
        rng, _, w, i = self._setup(43, batch)
        m = theta11_inverse_np(w, i)
        inputs = [ad.parameter(m), ad.parameter(rng.standard_normal(batch + (5,))),
                  ad.parameter(np.full(batch + (1,), 0.7))]
        op = partial(_w_plus, i=i)
        out = op(*inputs).data
        mu = np.matvec(m, inputs[1].data)
        assert np.array_equal(out, core.w_plus_np(m, mu, np.full(batch, 0.7), i))
        _per_sample_close(out, lambda b: core.w_plus_np(m[b], mu[b], 0.7, i), batch)
        self._check(op, inputs, rng.standard_normal(batch + (6, 6)))

    def test_structural_ops(self):
        batch = self.BATCH
        rng, theta, _, i = self._setup(44, batch)
        t = ad.parameter(theta)
        assert core.col_off(t, i).data.shape == batch + (5,)
        assert core.diag_entry(t, i).data.shape == batch
        self._check(partial(core.col_off, i=i), [t], rng.standard_normal(batch + (5,)))
        self._check(partial(core.diag_entry, i=i), [t], rng.standard_normal(batch))
        inv = core.spd_inverse_op(t).data
        _per_sample_close(inv, lambda b: linalg.spd_inverse(theta[b]), batch)
        # a symmetric direction, since the inverse takes symmetric input only
        c = ad.parameter(0.3)
        direction = Tensor(self._setup(46, batch)[1])
        self._check(lambda c: core.spd_inverse_op(ad.sub(Tensor(theta), ad.mul(
            broadcast_to(c, theta.shape), Tensor(-direction.data)))),
                    [c], rng.standard_normal(batch + (6, 6)))

    def test_stabilizer(self):
        batch = self.BATCH
        rng, theta, _, _ = self._setup(45, batch, p=5)
        z = ad.parameter(rng.standard_normal(batch + (5,)))
        m = ad.parameter(theta)
        op = partial(stabilize_preactivation, zeta=2.5)
        out = op(z, m).data
        _per_sample_close(out, lambda b: stabilize_preactivation(
            Tensor(z.data[b]), Tensor(theta[b]), 2.5).data, batch)
        self._check(op, [z, m], rng.standard_normal(batch + (5,)))


class TestBlockOpAdjointsBatched(TestBlockOpAdjoints):
    """The same ops on a stack of three samples with a leading batch axis;
    each sample also matches its unbatched result."""

    BATCH = (3,)


class TestStabilizer:
    def test_zero_vector_guard(self):
        z = Tensor(np.zeros(3))
        out = stabilize_preactivation(z, Tensor(np.eye(3)), 1.0)
        assert out is z

    def test_zero_sample_passes_through_in_a_batch(self):
        z = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        m = Tensor(np.stack([np.eye(2), np.eye(2)]))
        out = stabilize_preactivation(z, m, 1.0).data
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(out[1], [0.6, 0.8], atol=1e-14)

    def test_hand_scaling(self):
        out = stabilize_preactivation(Tensor([3.0, 4.0]), Tensor(np.eye(2)), 1.0)
        assert np.allclose(out.data, [0.6, 0.8], atol=1e-14)

    def test_quadratic_form_hits_target(self):
        rng = np.random.default_rng(5)
        for zeta in (1.0, 0.25, 4.0):
            for _ in range(25):
                p = int(rng.integers(2, 9))
                m = _random_spd(rng, p)
                z = rng.standard_normal(p) * 10.0 ** rng.uniform(-3, 3)
                out = stabilize_preactivation(Tensor(z), Tensor(m), zeta)
                q = float(out.data @ m @ out.data)
                assert abs(q - zeta) <= 1e-10

    def test_adjoint_on_both_inputs(self):
        rng = np.random.default_rng(44)
        skew = rng.standard_normal((5, 5))
        # an asymmetric M checks that the adjoint uses M + M', not 2M
        z = ad.parameter(rng.standard_normal(5))
        m = ad.parameter(_random_spd(rng, 5) + 0.3 * (skew - skew.T))
        cot = Tensor(rng.standard_normal(5))
        with Tape() as tape:
            stabilize_preactivation(z, m, 2.5)
        assert len(tape.nodes) == 1
        err = finite_diff_check(
            lambda: ad.mul(stabilize_preactivation(z, m, 2.5), cot).sum(), [z, m])
        assert err <= 1e-7


class TestLayer:
    def test_fixed_point_identity_update(self):
        rng = np.random.default_rng(6)
        theta = _random_spd(rng, 6)
        w = linalg.spd_inverse(theta)
        state = SpdState(Tensor(theta), Tensor(w))
        out = core.spodnet_layer(state, _identity_fns(), LayerConfig(),
                                 _random_spd(rng, 6, shift=0.5))
        assert np.abs(out.theta.data - theta).max() <= 1e-10

    def test_forced_identity_output(self):
        state = SpdState(Tensor(np.eye(3)), Tensor(np.eye(3)))
        out = core.spodnet_layer(state, _constant_fns(0.0, 1.0), LayerConfig(),
                                 np.zeros((3, 3)))
        assert np.allclose(out.theta.data, np.eye(3), atol=1e-14)
        assert np.allclose(out.w.data, np.eye(3), atol=1e-14)

    def test_random_models_stay_spd(self):
        # healthy-init seeds; degenerate margin seeds are exercised elsewhere
        rng = np.random.default_rng(7)
        okay = 0
        seed = 0
        trials = 0
        while okay < 20 and trials < 60:
            trials += 1
            seed += 1
            entry_rng = datagen.make_rng(datagen.child_seed(123, trials))
            theta_true = datagen.make_sparse_spd(12, 0.9, 0.1, entry_rng)
            s, _ = datagen.sample_covariance(theta_true, 60, entry_rng)
            params = models.init_params(("ubg", "pnp", "e2e")[trials % 3], 12, seed)
            try:
                out = models.forward(s, params, LayerConfig())
            except (SpdViolation, linalg.NotPositiveDefinite):
                continue  # degenerate margin at init; not this test's subject
            assert np.linalg.eigvalsh(out.theta.data)[0] > 0.0
            okay += 1
        assert okay >= 20

    def test_pair_residual_inside_layer(self):
        rng = np.random.default_rng(8)
        entry_rng = datagen.make_rng(5)
        theta_true = datagen.make_sparse_spd(20, 0.9, 0.1, entry_rng)
        s, _ = datagen.sample_covariance(theta_true, 80, entry_rng)
        params = models.init_params("ubg", 20, seed=2)
        worst = []

        def hook(ev):
            if ev.w_after is None:
                return
            resid = np.abs(ev.theta_after @ ev.w_after - np.eye(20)).max()
            vals = np.linalg.eigvalsh(ev.theta_after)
            worst.append(resid / (vals[-1] / vals[0]))

        models.forward(s, params, LayerConfig(), hook=hook)
        assert len(worst) == 20
        assert max(worst) <= 1e-8

    @pytest.mark.parametrize("v", [0.0, -1.0, float("nan")])
    def test_nonpositive_margin_raises(self, v):
        # the one margin check before theta_plus and w_plus
        state = SpdState(Tensor(np.eye(3)), Tensor(np.eye(3)))
        with pytest.raises(SpdViolation, match="at pivot 0 is not positive"):
            core.spodnet_layer(state, _constant_fns(0.0, v), LayerConfig(),
                               np.zeros((3, 3)))


class TestForward:
    def test_zero_covariance_initialization(self):
        state = core.initial_state(np.zeros((4, 4)))
        assert np.allclose(state.theta.data, np.eye(4), atol=1e-14)
        assert np.array_equal(state.w.data, np.eye(4))

    def test_identity_covariance_initialization(self):
        state = core.initial_state(np.eye(4))
        assert np.allclose(state.theta.data, np.eye(4) / 2.0, atol=1e-14)

    def test_collapsed_margin_fails_at_refresh_naming_layer(self):
        rng = np.random.default_rng(16)
        s = _random_spd(rng, 6)

        def f(ctx):
            return Tensor(np.full(ctx.theta12.data.shape, 0.5))

        def g(ctx, u, q):
            return Tensor(np.asarray(1e-17 if ctx.i == 5 else 1.0))

        for mode in ("detached", "full"):
            with pytest.raises(SpdViolation, match="layer 0"):
                core.spodnet_forward(s, UpdateFns(f=f, g=g),
                                     LayerConfig(tape_mode=mode))

    def test_margin_check_names_the_sample(self):
        s = np.zeros((3, 4, 4))

        def g(ctx, u, q):
            return Tensor(np.array([[1.0], [-1.0], [-2.0]]))

        with pytest.raises(SpdViolation, match="layer 0: margin v = -1.0 at pivot 0") as exc:
            core.spodnet_forward(s, UpdateFns(f=_constant_fns(0.0, 1.0).f, g=g),
                                 LayerConfig())
        assert exc.value.sample == 1

    @pytest.mark.parametrize("mode", ["detached", "full"])
    def test_boundary_refresh_names_the_sample(self, mode):
        rng = np.random.default_rng(16)
        s = np.stack([_random_spd(rng, 6) for _ in range(3)])

        def f(ctx):
            return Tensor(np.full(ctx.theta12.data.shape, 0.5))

        def g(ctx, u, q):
            collapsed = (np.arange(3) == 2) & (ctx.i == 5)
            return Tensor(np.where(collapsed, 1e-17, 1.0))

        with pytest.raises(SpdViolation, match="layer 0: state matrix is not PD") as exc:
            core.spodnet_forward(s, UpdateFns(f=f, g=g), LayerConfig(tape_mode=mode))
        assert exc.value.sample == 2

    def test_validate_names_the_sample(self):
        theta = np.stack([np.eye(3)] * 3)
        w = theta.copy()
        w[2, 0, 1] = w[2, 1, 0] = 0.5
        with pytest.raises(SpdViolation, match="drifted") as exc:
            SpdState(Tensor(theta), Tensor(w)).validate()
        assert exc.value.sample == 2
        with pytest.raises(SpdViolation) as exc:
            SpdState(Tensor(np.eye(3)), Tensor(np.eye(3) * 2.0)).validate()
        assert exc.value.sample is None

    def test_validate_names_the_first_failing_sample(self):
        theta = np.stack([np.eye(3)] * 4)
        w = theta.copy()
        w[1, 0, 1] = w[1, 1, 0] = 0.5  # drifted pair
        theta[2, 0, 0] = -1.0  # not PD
        with pytest.raises(SpdViolation, match="drifted") as exc:
            SpdState(Tensor(theta), Tensor(w)).validate()
        assert exc.value.sample == 1

    def test_validate_rejects_non_finite_state(self):
        with pytest.raises(SpdViolation, match="drifted"):
            SpdState(Tensor(np.eye(3)),
                     Tensor(np.full((3, 3), np.nan))).validate()

    @pytest.mark.parametrize("mode", ["detached", "full"])
    def test_non_finite_column_fails_at_the_refresh(self, mode):
        # NaN in sample 1's last column: at an earlier pivot the next one's
        # w22 check would meet it, here the refresh's Cholesky does
        rng = np.random.default_rng(17)
        s = np.stack([_random_spd(rng, 5) for _ in range(3)])

        def f(ctx):
            u = np.full(ctx.theta12.data.shape, 0.1)
            if ctx.i == 4:
                u[1] = np.nan
            return Tensor(u)

        def g(ctx, u, q):
            return Tensor(np.ones(3))

        with pytest.raises(SpdViolation, match="layer 0: state matrix is not PD "
                                               "at the boundary refresh") as exc:
            core.spodnet_forward(s, UpdateFns(f=f, g=g), LayerConfig(tape_mode=mode))
        assert exc.value.sample == 1

    @pytest.mark.parametrize("mode", ["detached", "full"])
    def test_one_factorization_per_layer_boundary(self, mode, monkeypatch):
        # the start's inverse, then one Cholesky per boundary refresh, which
        # validate does not repeat
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a.shape) or cholesky(a))
        rng = np.random.default_rng(18)
        s = np.stack([_random_spd(rng, 6) for _ in range(3)])
        params = models.init_params("ubg", 6, seed=2)
        for layers in (1, 2):
            calls.clear()
            with Tape():
                models.forward(s, params, LayerConfig(num_layers=layers, tape_mode=mode))
            assert calls == [(3, 6, 6)] * (1 + layers)

    def test_corrupt_input_rejected(self):
        bad = np.diag([-2.0, 1.0])  # eigenvalue below -1
        with pytest.raises(linalg.NotPositiveDefinite):
            core.spodnet_forward(bad, _constant_fns(0.0, 1.0), LayerConfig())

    def test_multi_layer_resync(self):
        rng = np.random.default_rng(9)
        s = _random_spd(rng, 5, shift=0.2)
        out = core.spodnet_forward(s, _identity_fns(), LayerConfig(num_layers=3))
        resid = np.abs(out.theta.data @ out.w.data - np.eye(5)).max()
        assert resid <= 1e-10

    def test_zeta_validation(self):
        with pytest.raises(ValueError):
            LayerConfig(zeta=0.0)
        with pytest.raises(ValueError):
            LayerConfig(zeta=-1.0)

    def test_zeta_cannot_be_set_past_the_check(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LayerConfig().zeta = 0.0

    @pytest.mark.parametrize("zeta", [np.inf, np.nan])
    def test_non_finite_zeta_rejected(self, zeta):
        with pytest.raises(ValueError, match="finite"):
            LayerConfig(zeta=zeta)

    def test_modes_agree_in_value(self):
        rng = np.random.default_rng(10)
        entry_rng = datagen.make_rng(17)
        theta_true = datagen.make_sparse_spd(8, 0.9, 0.1, entry_rng)
        s, _ = datagen.sample_covariance(theta_true, 50, entry_rng)
        params = models.init_params("ubg", 8, seed=2)
        out_d = models.forward(s, params, LayerConfig(tape_mode="detached"))
        out_f = models.forward(s, params, LayerConfig(tape_mode="full"))
        assert np.array_equal(out_d.theta.data, out_f.theta.data)


class TestGradients:
    def _entry(self, p=6, n=20, seed=21):
        rng = datagen.make_rng(seed)
        theta_true = datagen.make_sparse_spd(p, 0.9, 0.1, rng)
        s, _ = datagen.sample_covariance(theta_true, n, rng)
        return s, theta_true

    def test_full_mode_matches_finite_differences(self):
        s, theta_true = self._entry()
        params = models.init_params("ubg", 6, seed=2)
        cfg = LayerConfig(tape_mode="full")

        def loss():
            out = models.forward(s, params, cfg)
            return ad.mul(ad.sub(out.theta, Tensor(theta_true)),
                          ad.sub(out.theta, Tensor(theta_true))).sum()

        assert finite_diff_check(loss, params.tensors()) <= 1e-5

    def test_detached_mode_matches_its_own_objective(self):
        # the detached gradient differentiates the forward map with the
        # inverse-derived inputs frozen; replaying them makes that map
        # explicit for the difference oracle
        s, theta_true = self._entry(seed=22)
        params = models.init_params("ubg", 6, seed=2)
        cfg = LayerConfig(tape_mode="detached")
        record: list = []
        models.forward(s, params, cfg, hook=_recorder(record))

        def loss():
            out = models.forward(s, params, cfg, w_replay=record)
            return ad.mul(ad.sub(out.theta, Tensor(theta_true)),
                          ad.sub(out.theta, Tensor(theta_true))).sum()

        assert finite_diff_check(loss, params.tensors()) <= 1e-5

    def test_replay_reproduces_plain_forward(self):
        s, _ = self._entry(seed=23)
        params = models.init_params("ubg", 6, seed=2)
        cfg = LayerConfig(tape_mode="detached")
        record: list = []
        plain = models.forward(s, params, cfg, hook=_recorder(record))
        replayed = models.forward(s, params, cfg, w_replay=record)
        assert np.array_equal(plain.theta.data, replayed.theta.data)


@pytest.mark.parametrize("mode,held", [("detached", 2), ("full", 42)])
def test_tape_keeps_no_theta_or_w(mode, held):
    """After a taped forward, the blocks of at least one (B, p-1, p-1) stack
    still held are the output pair and, in full mode, each column's
    inv(Theta_11), which w_plus's adjoint reads: no column's theta or W."""
    p, b = 40, 4
    rng = np.random.default_rng(19)
    s = np.stack([_random_spd(rng, p) for _ in range(b)])
    params = models.init_params("ubg", p, seed=3)
    tracemalloc.start()
    try:
        with Tape():
            out = models.forward(s, params, LayerConfig(tape_mode=mode))
            traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    big = sum(t.size >= 8 * b * (p - 1) ** 2 for t in traces)
    assert out.theta.data.shape == (b, p, p) and big <= held


def _recorder(record: list):
    """A hook that records each update's inverse-derived inputs for replay."""
    return lambda ev: record.append((ev.theta11_inv, ev.w12))


class TestHook:
    def _setup(self):
        rng = datagen.make_rng(31)
        theta_true = datagen.make_sparse_spd(6, 0.9, 0.1, rng)
        s, _ = datagen.sample_covariance(theta_true, 20, rng)
        return s, models.init_params("ubg", 6, seed=2)

    def test_two_layer_replay_reproduces_plain_forward(self):
        s, params = self._setup()
        cfg = LayerConfig(num_layers=2, tape_mode="detached")
        record: list = []
        plain = models.forward(s, params, cfg, hook=_recorder(record))
        assert len(record) == 2 * 6
        replayed = models.forward(s, params, cfg, w_replay=record)
        assert np.array_equal(plain.theta.data, replayed.theta.data)

    def test_events_chain_by_reference(self):
        s, params = self._setup()
        events: list = []
        out = models.forward(s, params, LayerConfig(num_layers=2),
                             hook=events.append)
        assert [(ev.layer, ev.i) for ev in events] == [
            (k, i) for k in range(2) for i in range(6)]
        for prev, ev in zip(events, events[1:]):
            assert ev.theta_before is prev.theta_after
        assert events[-1].theta_after is out.theta.data

    def test_hook_does_not_change_the_output(self):
        s, params = self._setup()
        for mode in ("detached", "full"):
            cfg = LayerConfig(num_layers=2, tape_mode=mode)
            plain = models.forward(s, params, cfg)
            hooked = models.forward(s, params, cfg, hook=lambda ev: None)
            assert np.array_equal(plain.theta.data, hooked.theta.data)
            assert np.array_equal(plain.w.data, hooked.w.data)


class TestRank2Eigs:
    def test_pure_column_perturbation(self):
        hi, lo = rank2_delta_eigs(np.array([0.6, 0.8]), 0.0)
        assert hi == pytest.approx(1.0)
        assert lo == pytest.approx(-1.0)

    def test_pure_diagonal_perturbation(self):
        hi, lo = rank2_delta_eigs(np.zeros(3), 2.0)
        assert (hi, lo) == (2.0, 0.0)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = 6
            i = int(rng.integers(p))
            c = rng.standard_normal(p - 1) * 10.0 ** rng.uniform(-2, 2)
            d = float(rng.standard_normal() * 10.0 ** rng.uniform(-2, 2))
            delta = np.zeros((p, p))
            rest = linalg.rest_indices(p, i)
            delta[rest, i] = c
            delta[i, rest] = c
            delta[i, i] = d
            vals = np.linalg.eigvalsh(delta)
            hi, lo = rank2_delta_eigs(c, d)
            scale = max(1.0, abs(hi), abs(lo))
            assert abs(hi - vals[-1]) <= 1e-10 * scale
            assert abs(lo - vals[0]) <= 1e-10 * scale


class TestBauerFike:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(12)
        a = _random_spd(rng, 5)
        ok, excess = bauer_fike_check(linalg.spectrum(a), linalg.spectrum(a), 0.0)
        assert ok and excess <= 0.0

    def test_single_column_update(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            theta = _random_spd(rng, 8)
            i = int(rng.integers(8))
            rest = linalg.rest_indices(8, i)
            t11inv = np.linalg.inv(theta[np.ix_(rest, rest)])
            u = rng.standard_normal(7)
            tp = theta_plus_np(theta, i, u, 0.5, np.matvec(t11inv, u))
            hi, lo = rank2_delta_eigs(u - theta[rest, i],
                                      tp[i, i] - theta[i, i])
            ok, _ = bauer_fike_check(linalg.spectrum(theta), linalg.spectrum(tp),
                                     max(abs(hi), abs(lo)))
            assert ok

    def test_diagonal_bump(self):
        rng = np.random.default_rng(14)
        theta = _random_spd(rng, 6)
        bumped = theta.copy()
        bumped[5, 5] += 2.0
        before = np.linalg.eigvalsh(theta)
        after = np.linalg.eigvalsh(bumped)
        assert np.abs(after - before).max() <= 2.0 + 1e-12
        ok, _ = bauer_fike_check(before, after, 2.0)
        assert ok

    def test_stack_equals_each_pair(self):
        # diagnose audits a forward's stack at once, with each pair's bits
        rng = np.random.default_rng(16)
        p, i = 7, 3
        rest = linalg.rest_indices(p, i)
        before = np.stack([_random_spd(rng, p) for _ in range(4)])
        us = rng.standard_normal((4, p - 1))
        after = np.stack([theta_plus_np(t, i, u, 0.5,
                                        np.linalg.inv(t[np.ix_(rest, rest)]) @ u)
                          for t, u in zip(before, us)])
        col_diff = after[..., rest, i] - before[..., rest, i]
        diag_diff = after[..., i, i] - before[..., i, i]
        hi, lo = rank2_delta_eigs(col_diff, diag_diff)
        bound = np.maximum(abs(hi), abs(lo))
        eb, ea = linalg.spectrum(before), linalg.spectrum(after)
        ok, excess = bauer_fike_check(eb, ea, bound)
        assert ok.shape == excess.shape == (4,) and ok.all()
        for j in range(4):
            assert (hi[j], lo[j]) == rank2_delta_eigs(col_diff[j].copy(), diag_diff[j])
            assert (ok[j], excess[j]) == bauer_fike_check(linalg.spectrum(before[j]),
                                                          linalg.spectrum(after[j]), bound[j])


def test_single_column_update_quadratic_scaling():
    """Doubling p should roughly quadruple one column update's cost."""
    import time

    def median_update_time(p, reps=40):
        rng = np.random.default_rng(15)
        theta = _random_spd(rng, p)
        w = linalg.spd_inverse(theta)
        u = rng.standard_normal(p - 1)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            m = theta11_inverse_np(w, 3)
            mu = np.matvec(m, u)
            tp = theta_plus_np(theta, 3, u, 0.5, mu)
            wp = core.w_plus_np(m, mu, 0.5, 3)
            times.append(time.perf_counter() - t0)
        del tp, wp
        return float(np.median(times))

    median_update_time(256, reps=5)  # warm caches
    # least-contended trial, to tolerate transient machine load
    ratios = [median_update_time(512) / median_update_time(256)
              for _ in range(3)]
    assert 3.0 <= min(ratios) <= 6.0, ratios


class TestMultiLayerGradients:
    def test_dense_inverse_adjoint(self):
        # the boundary-resync op is the only new differentiable piece at K>1
        rng = np.random.default_rng(44)
        basis = [Tensor(np.eye(4))] + [Tensor(_random_spd(rng, 4, shift=0.0))
                                       for _ in range(2)]
        coefs = [ad.parameter(c) for c in (1.0, 0.3, -0.2)]

        def loss():
            m = ad.mul(broadcast_to(coefs[0], (4, 4)), basis[0])
            for c, b in zip(coefs[1:], basis[1:]):
                m = ad.sub(m, ad.mul(broadcast_to(c, (4, 4)), Tensor(-b.data)))
            return core.spd_inverse_op(m).sum()

        assert finite_diff_check(loss, coefs) <= 1e-8

    def test_two_layer_modes_agree_in_value(self):
        # whole-model two-layer finite differencing is ill-posed: thresholded
        # layer-one columns sit exactly on the stabilizer's degenerate guard,
        # where the rescaling map jumps by construction
        rng = datagen.make_rng(31)
        theta_true = datagen.make_sparse_spd(5, 0.85, 0.1, rng)
        s, _ = datagen.sample_covariance(theta_true, 40, rng)
        params = models.init_params("ubg", 5, seed=1)
        out_d = models.forward(s, params,
                               LayerConfig(tape_mode="detached", num_layers=2))
        out_f = models.forward(s, params,
                               LayerConfig(tape_mode="full", num_layers=2))
        assert np.array_equal(out_d.theta.data, out_f.theta.data)
        with ad.Tape():
            from spodnet.training import mse_loss
            out = models.forward(s, params,
                                 LayerConfig(tape_mode="full", num_layers=2))
            ad.backward(mse_loss(out.theta, theta_true))
        assert any(t.grad is not None and np.abs(t.grad).max() > 0
                   for t in params.tensors())


def test_rank2_eigs_satisfy_vieta():
    from hypothesis import given, settings, strategies as st

    @settings(derandomize=True, max_examples=100)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
           st.floats(-1e3, 1e3))
    def inner(cs, d):
        c = np.asarray(cs)
        hi, lo = rank2_delta_eigs(c, d)
        scale = max(1.0, abs(hi), abs(lo))
        assert abs((hi + lo) - d) <= 1e-9 * scale
        assert abs(hi * lo + float(c @ c)) <= 1e-9 * scale ** 2

    inner()
