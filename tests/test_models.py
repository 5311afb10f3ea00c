"""Update-map variants, margin network, initialization, checkpoints."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from spodnet import autodiff as ad
from spodnet import baselines, core, datagen, linalg, models
from spodnet.autodiff import Tensor
from spodnet.core import ColumnContext, LayerConfig
from spodnet.models import VARIANTS, init_params, load_checkpoint, save_checkpoint

from oracles import (broadcast_to, finite_diff_check, mul, random_mlp, scale, sub,
                     weighted_sum)


def _zero_net(net):
    for t in net.tensors():
        t.data[...] = 0.0


def _force_constant(net, value):
    """Zero all weights, set the output bias: abs nets emit |value|."""
    _zero_net(net)
    net.biases[-1].data[...] = value


def _ctx(p, theta12, s12, w12, theta11_inv=None, theta22=1.0, s22=1.0,
         zeta=1.0, stabilize=False):
    k = p - 1
    return ColumnContext(
        i=p - 1,
        theta12=Tensor(np.asarray(theta12, dtype=float)),
        theta22=Tensor(np.asarray(theta22, dtype=float)),
        s12=Tensor(np.asarray(s12, dtype=float)),
        s22=Tensor(np.asarray(s22, dtype=float)),
        w12=Tensor(np.asarray(w12, dtype=float)),
        theta11_inv=Tensor(np.eye(k) if theta11_inv is None else theta11_inv),
        zeta=zeta,
        stabilize=stabilize,
    )


class TestMlpOp:
    """One tape op per call; its adjoint passes central differences on
    every input under a random cotangent."""

    def _net(self, head):
        rng = np.random.default_rng(3)
        net = random_mlp(models.MlpSpec((4, 5, 3, 2), head), rng)
        for b in net.biases:  # keep every pre-activation off the kinks
            b.data[...] = rng.standard_normal(b.data.shape)
        return net, ad.parameter(rng.standard_normal(4)), rng

    def test_one_tape_node_per_call(self):
        net, x, _ = self._net("abs")
        with ad.Tape() as tape:
            net(x)
        assert len(tape.nodes) == 1

    @pytest.mark.parametrize("head", ["identity", "abs"])
    def test_adjoint_on_every_input(self, head):
        net, x, rng = self._net(head)
        cot = Tensor(rng.standard_normal(2))
        inputs = [x, *net.tensors()]
        err = finite_diff_check(lambda: weighted_sum(net(x), cot), inputs)
        assert err <= 1e-7


class TestMlpScalarInputs:
    """Several per-sample scalars are stacked as the features inside the op,
    and their adjoints split back out."""

    def _net(self):
        rng = np.random.default_rng(9)
        net = random_mlp(models.MlpSpec((3, 4, 2), "abs"), rng)
        for b in net.biases:  # keep every pre-activation off the kinks
            b.data[...] = rng.standard_normal(b.data.shape)
        return net, rng

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_equals_the_stacked_call(self, batch):
        net, rng = self._net()
        parts = [ad.parameter(rng.standard_normal(batch)) for _ in range(3)]
        out = net(*parts).data
        assert np.array_equal(out, net(Tensor(np.stack([t.data for t in parts], -1))).data)
        cot = Tensor(rng.standard_normal(out.shape))
        err = finite_diff_check(lambda: weighted_sum(net(*parts), cot),
                                [*parts, *net.tensors()])
        assert err <= 1e-7

    def test_mismatched_shapes_rejected(self):
        net, _ = self._net()
        with pytest.raises(ad.ShapeError):
            net(Tensor(np.ones(3)), Tensor(1.0), Tensor(2.0))


def _stack_scalars(parts):
    # per-sample scalars stacked on a new last axis, one tape op
    n = len(parts)
    return ad.apply_op(np.stack([t.data for t in parts], axis=-1), parts,
                       lambda g: tuple(g[..., j] for j in range(n)))


def _composed_grad_step(ctx, params):
    gamma = params.nets["gamma"](ctx.theta12)
    diff = sub(ctx.s12, ctx.w12)
    return sub(ctx.theta12, mul(broadcast_to(gamma, diff.data.shape), diff))


def _composed_g_eval(net, theta22, s22, schur_quad):
    # the g net's weights without the floor, the features stacked by one op
    # and the floor added by another
    bare = models.Mlp(replace(net.spec, floor=0.0), net.weights, net.biases)
    out = bare(_stack_scalars((theta22, s22, schur_quad)))
    return sub(out, broadcast_to(Tensor([-models.G_FLOOR]), out.data.shape))


def _run(build, leaves, cot):
    """The output, each leaf's gradient under the cotangent ``cot`` and the
    number of tape nodes ``build`` records."""
    ad.zero_grad(leaves)
    with ad.Tape() as tape:
        out = build()
        nodes = len(tape.nodes)
        tape.backward(weighted_sum(out, Tensor(cot)))
    return out.data, [t.grad for t in leaves], nodes


def _assert_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b)


class TestFusedOps:
    """The gradient step and the g net's call are one tape op each, with the
    forward and every adjoint of the primitives they replace, bit for bit."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("mode", ["detached", "full"])
    def test_grad_step(self, mode, batch):
        rng = np.random.default_rng(11)
        params = init_params("ubg", 6, seed=1)
        k = 5

        def vec(leaf):
            data = rng.standard_normal(batch + (k,))
            return ad.parameter(data) if leaf else Tensor(data)

        # the full tape differentiates through the inverse, and so w12
        theta12, s12, w12 = vec(True), vec(False), vec(mode == "full")
        ctx = ColumnContext(i=k, theta12=theta12, theta22=Tensor(np.ones(batch)),
                            s12=s12, s22=Tensor(np.ones(batch)), w12=w12,
                            theta11_inv=Tensor(np.eye(k)), zeta=1.0, stabilize=False)
        leaves = [theta12, *params.nets["gamma"].tensors()]
        if w12.requires_grad:
            leaves.append(w12)
        cot = rng.standard_normal(batch + (k,))
        out, grads, nodes = _run(lambda: models._grad_step(ctx, params), leaves, cot)
        ref_out, ref_grads, ref_nodes = _run(lambda: _composed_grad_step(ctx, params),
                                             leaves, cot)
        assert np.array_equal(out, ref_out)
        _assert_bit_equal(grads, ref_grads)
        assert (nodes, ref_nodes) == (2, 5 if mode == "full" else 4)
        err = finite_diff_check(
            lambda: weighted_sum(models._grad_step(ctx, params), Tensor(cot)), leaves)
        assert err <= 1e-7

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("s22_leaf", [False, True])
    def test_g_net(self, batch, s22_leaf):
        rng = np.random.default_rng(12)
        params = init_params("ubg", 6, seed=1)
        for b in params.nets["g"].biases:  # keep every pre-activation off the kinks
            b.data[...] = rng.standard_normal(b.data.shape)
        theta22 = ad.parameter(rng.uniform(0.5, 2.0, batch))
        s22 = Tensor(rng.uniform(0.5, 2.0, batch), requires_grad=s22_leaf)
        quad = ad.parameter(rng.uniform(0.0, 1.0, batch))
        leaves = [theta22, quad, *params.nets["g"].tensors()]
        if s22_leaf:
            leaves.append(s22)
        cot = rng.standard_normal(batch + (1,))
        net = params.nets["g"]
        out, grads, nodes = _run(lambda: net(theta22, s22, quad), leaves, cot)
        ref_out, ref_grads, ref_nodes = _run(
            lambda: _composed_g_eval(net, theta22, s22, quad), leaves, cot)
        assert np.array_equal(out, ref_out)
        _assert_bit_equal(grads, ref_grads)
        assert (nodes, ref_nodes) == (1, 3)
        err = finite_diff_check(
            lambda: weighted_sum(net(theta22, s22, quad), Tensor(cot)), leaves)
        assert err <= 1e-7

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_lambda_scale(self, batch):
        # pnp's lambda net scales its output by 0.1 inside its op, as a
        # separate scale op on the unscaled net's output would
        rng = np.random.default_rng(13)
        net = init_params("pnp", 6, seed=1).nets["lambda"]
        for b in net.biases:  # keep every pre-activation off the kinks
            b.data[...] = rng.standard_normal(b.data.shape)
        random_mlp(net.spec, rng)  # x and cot follow one net's draws from rng
        bare = models.Mlp(replace(net.spec, scale=1.0), net.weights, net.biases)
        x = ad.parameter(rng.standard_normal(batch + (5,)))
        leaves = [x, *net.tensors()]
        cot = rng.standard_normal(batch + (5,))
        out, grads, nodes = _run(lambda: net(x), leaves, cot)
        ref_out, ref_grads, ref_nodes = _run(lambda: scale(bare(x), 0.1), leaves, cot)
        assert net.spec.scale == 0.1
        assert np.array_equal(out, ref_out)
        _assert_bit_equal(grads, ref_grads)
        assert (nodes, ref_nodes) == (1, 2)
        err = finite_diff_check(lambda: weighted_sum(net(x), Tensor(cot)), leaves)
        assert err <= 1e-7

    # healthy inits: the margin net starts off its floor on these samples
    @pytest.mark.parametrize("variant,seed", [("ubg", 2), ("pnp", 3)])
    @pytest.mark.parametrize("mode", ["detached", "full"])
    def test_minibatch_matches_composition(self, variant, seed, mode, monkeypatch):
        from spodnet.training import mse_loss
        entries = TestBatchEquivalence._entries()
        s = np.stack([e[0] for e in entries])
        truth = np.stack([e[1] for e in entries])
        params = init_params(variant, 8, seed)
        tensors = params.tensors()
        cfg = LayerConfig(num_layers=2, tape_mode=mode)

        def run():
            ad.zero_grad(tensors)
            with ad.Tape() as tape:
                out = models.forward(s, params, cfg)
                tape.backward(mse_loss(out.theta, truth))
            return [out.theta.data, out.w.data] + [t.grad for t in tensors]

        fused = run()
        monkeypatch.setattr(models, "_grad_step", _composed_grad_step)
        monkeypatch.setitem(params.nets, "g", partial(_composed_g_eval, params.nets["g"]))
        _assert_bit_equal(fused, run())

    # Per pivot, ubg records 10 ops: theta12, theta22, the gamma net, the
    # step, the lambda net, the stabilizer, the threshold, u' inv(Theta_11) u,
    # the g net and the updated Theta. pnp adds the psi net (11); e2e drops
    # the gamma net and the step and adds the phi net (9). Theta starts as a
    # constant, so pivot 0 records neither read. The full tape adds the
    # inverse's three ops from pivot 1 on (its start is a constant too), W's
    # update at pivot 0 and the boundary inverse. The loss, with its 1/B
    # weight, is one op.
    @pytest.mark.parametrize("variant,mode,nodes", [
        ("ubg", "detached", 8 + 5 * 10 + 1),
        ("ubg", "full", 9 + 5 * 13 + 1 + 1),
        ("pnp", "detached", 9 + 5 * 11 + 1),
        ("pnp", "full", 10 + 5 * 14 + 1 + 1),
        ("e2e", "detached", 7 + 5 * 9 + 1),
        ("e2e", "full", 8 + 5 * 12 + 1 + 1),
    ])
    def test_tape_nodes_of_a_minibatch(self, variant, mode, nodes):
        from spodnet.training import mse_loss
        rng = datagen.make_rng(21)
        truth = np.stack([datagen.make_sparse_spd(6, 0.9, 0.1, rng) for _ in range(3)])
        s = np.stack([datagen.sample_covariance(t, 50, rng)[0] for t in truth])
        params = init_params(variant, 6, seed=2)
        with ad.Tape() as tape:
            out = models.forward(s, params, LayerConfig(tape_mode=mode))
            tape.backward(mse_loss(out.theta, truth, 1.0 / 3))
        assert len(tape.nodes) == nodes


class TestArchitectures:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_shapes(self, variant):
        p = 10
        params = init_params(variant, p, seed=0)
        k = p - 1
        assert [w.data.shape for w in params.nets["gamma"].weights] == \
            [(p // 2, k), (1, p // 2)]
        assert [w.data.shape for w in params.nets["lambda"].weights] == \
            [(5, k), (k, 5)]
        assert [w.data.shape for w in params.nets["g"].weights] == \
            [(3, 3), (3, 3), (1, 3)]
        if variant == "pnp":
            assert [w.data.shape for w in params.nets["psi"].weights] == \
                [(2 * p, k), (k, 2 * p)]
        if variant == "e2e":
            assert [w.data.shape for w in params.nets["phi"].weights] == \
                [(10 * p, k), (k, 10 * p)]

    @pytest.mark.parametrize("variant,scale", [("ubg", 1.0), ("pnp", 0.1),
                                               ("e2e", 0.1)])
    def test_threshold_is_scaled_lambda_output(self, variant, scale):
        # gamma off, so ubg thresholds theta12 itself; psi/phi emit theta12
        theta12 = np.array([1.0, -0.5, 0.2, 0.04])
        params = init_params(variant, 5, seed=0)
        _zero_net(params.nets["gamma"])
        _force_constant(params.nets["lambda"], 0.5)
        for name in ("psi", "phi"):
            if name in params.nets:
                _force_constant(params.nets[name], theta12)
        ctx = _ctx(5, theta12, np.zeros(4), np.zeros(4))  # stabilizer off
        out = models.column_map(ctx, params).data
        expected = np.sign(theta12) * np.maximum(np.abs(theta12) - 0.5 * scale, 0.0)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            init_params("cnn", 10, 0)

    def test_p_too_small(self):
        with pytest.raises(ValueError):
            init_params("ubg", 1, 0)


class TestInit:
    def test_seed_determinism_is_bitwise(self):
        a = init_params("pnp", 8, seed=7)
        b = init_params("pnp", 8, seed=7)
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seeds_differ(self):
        a = init_params("ubg", 8, seed=0)
        b = init_params("ubg", 8, seed=1)
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(a.named_tensors(),
                                               b.named_tensors()))

    def test_fan_in_bound(self):
        params = init_params("ubg", 9, seed=3)
        for net in params.nets.values():
            for w in net.weights:
                bound = 1.0 / np.sqrt(w.data.shape[1])
                assert np.abs(w.data).max() < bound
            for b in net.biases:
                assert np.all(b.data == 0.0)

    def test_initial_forward_is_finite_and_spd(self):
        rng = datagen.make_rng(3)
        theta_true = datagen.make_sparse_spd(10, 0.9, 0.1, rng)
        s, _ = datagen.sample_covariance(theta_true, 60, rng)
        out = models.forward(s, init_params("ubg", 10, seed=2), LayerConfig())
        assert np.all(np.isfinite(out.theta.data))
        assert np.linalg.eigvalsh(out.theta.data)[0] > 0.0


class TestFUbg:
    def test_hand_evaluation(self):
        params = init_params("ubg", 2, seed=0)
        _force_constant(params.nets["gamma"], 1.0)
        _force_constant(params.nets["lambda"], 0.2)
        ctx = _ctx(2, theta12=[1.0], s12=[0.5], w12=[0.5])
        u = models.column_map(ctx, params)
        assert np.allclose(u.data, [0.8], atol=1e-15)

    def test_threshold_kills_everything(self):
        params = init_params("ubg", 4, seed=0)
        _force_constant(params.nets["gamma"], 0.5)
        _force_constant(params.nets["lambda"], 100.0)
        ctx = _ctx(4, theta12=[1.0, -2.0, 0.3], s12=[0.1, 0.2, 0.3],
                   w12=[0.0, 0.0, 0.0])
        u = models.column_map(ctx, params)
        assert np.array_equal(u.data, np.zeros(3))

    def test_identity_when_gamma_and_lambda_vanish(self):
        params = init_params("ubg", 4, seed=0)
        _force_constant(params.nets["gamma"], 0.0)
        _force_constant(params.nets["lambda"], 0.0)
        theta12 = [0.7, -1.2, 0.05]
        ctx = _ctx(4, theta12=theta12, s12=[9.0, 9.0, 9.0], w12=[0.0, 0.0, 0.0])
        u = models.column_map(ctx, params)
        assert np.array_equal(u.data, theta12)

    def test_frozen_constants_reproduce_proximal_step(self):
        # cross-module oracle: equals the solver's column step to 1e-12
        rng = np.random.default_rng(4)
        gamma, lam = 0.37, 0.21
        params = init_params("ubg", 7, seed=1)
        _force_constant(params.nets["gamma"], gamma)
        _force_constant(params.nets["lambda"], gamma * lam)
        for _ in range(25):
            theta12 = rng.standard_normal(6)
            s12 = rng.standard_normal(6)
            w12 = rng.standard_normal(6)
            ctx = _ctx(7, theta12, s12, w12)
            u = models.column_map(ctx, params)
            oracle = baselines.block_gista_step(theta12, s12, w12, gamma, lam)
            assert np.abs(u.data - oracle).max() <= 1e-12


class TestFPnp:
    def test_zero_denoiser_gives_zero(self):
        params = init_params("pnp", 5, seed=0)
        _zero_net(params.nets["psi"])
        ctx = _ctx(5, [1.0, 2.0, 3.0, 4.0], np.zeros(4), np.zeros(4))
        assert np.array_equal(models.column_map(ctx, params).data, np.zeros(4))

    def test_threshold_off_passes_denoiser_output(self):
        params = init_params("pnp", 5, seed=1)
        _force_constant(params.nets["lambda"], 0.0)
        _force_constant(params.nets["gamma"], 0.0)
        theta12 = np.array([0.5, -0.25, 1.0, 0.0])
        ctx = _ctx(5, theta12, np.zeros(4), np.zeros(4))
        got = models.column_map(ctx, params)
        psi = params.nets["psi"]
        h = np.maximum(psi.weights[0].data @ theta12 + psi.biases[0].data, 0.0)
        expected = psi.weights[1].data @ h + psi.biases[1].data
        assert np.allclose(got.data, expected, atol=1e-14)

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(5)
        params = init_params("pnp", 6, seed=2)
        theta12 = rng.standard_normal(5)
        s12 = rng.standard_normal(5)
        w12 = rng.standard_normal(5)
        m = np.eye(5) * 0.5
        ctx = _ctx(6, theta12, s12, w12, theta11_inv=m, stabilize=True)
        got = models.column_map(ctx, params).data

        def mlp(net, x):
            h = x
            for idx, (wt, bt) in enumerate(zip(net.weights, net.biases)):
                h = wt.data @ h + bt.data
                if idx < len(net.weights) - 1:
                    h = np.maximum(h, 0.0)
            return np.abs(h) if net.spec.out_activation == "abs" else h

        gamma = mlp(params.nets["gamma"], theta12)
        step = theta12 - gamma * (s12 - w12)
        lam = 0.1 * mlp(params.nets["lambda"], step)
        z = mlp(params.nets["psi"], step)
        q = z @ m @ z
        if q > core.QUAD_GUARD:
            z = z * np.sqrt(1.0 / q)
        expected = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        assert np.abs(got - expected).max() <= 1e-12


class TestFE2e:
    def test_zero_network_gives_zero(self):
        params = init_params("e2e", 5, seed=0)
        _zero_net(params.nets["phi"])
        ctx = _ctx(5, [1.0, -1.0, 2.0, 0.5], np.zeros(4), np.zeros(4))
        assert np.array_equal(models.column_map(ctx, params).data, np.zeros(4))

    def test_large_threshold_gives_zero(self):
        params = init_params("e2e", 5, seed=1)
        _force_constant(params.nets["lambda"], 1e6)
        ctx = _ctx(5, [1.0, -1.0, 2.0, 0.5], np.zeros(4), np.zeros(4))
        assert np.array_equal(models.column_map(ctx, params).data, np.zeros(4))

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(6)
        params = init_params("e2e", 6, seed=3)
        theta12 = rng.standard_normal(5)
        m = np.eye(5)
        ctx = _ctx(6, theta12, np.zeros(5), np.zeros(5), theta11_inv=m,
                   stabilize=True)
        got = models.column_map(ctx, params).data

        def mlp(net, x):
            h = x
            for idx, (wt, bt) in enumerate(zip(net.weights, net.biases)):
                h = wt.data @ h + bt.data
                if idx < len(net.weights) - 1:
                    h = np.maximum(h, 0.0)
            return np.abs(h) if net.spec.out_activation == "abs" else h

        lam = 0.1 * mlp(params.nets["lambda"], theta12)
        z = mlp(params.nets["phi"], theta12)
        q = z @ m @ z
        if q > core.QUAD_GUARD:
            z = z / np.sqrt(q)
        expected = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        assert np.abs(got - expected).max() <= 1e-12


class TestMarginNet:
    def test_zero_network_hits_floor(self):
        params = init_params("ubg", 4, seed=0)
        _zero_net(params.nets["g"])
        v = params.nets["g"](Tensor(1.0), Tensor(2.0), Tensor(0.5))
        assert v.data[0] == models.G_FLOOR

    def test_selector_weights_pass_theta22(self):
        params = init_params("ubg", 4, seed=0)
        g = params.nets["g"]
        _zero_net(g)
        for w in g.weights:  # route the first feature through every layer
            w.data[0, 0] = 1.0
        v = g(Tensor(2.0), Tensor(5.0), Tensor(0.25))
        assert v.data[0] == pytest.approx(2.0 + models.G_FLOOR)

    def test_always_strictly_positive(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            params = init_params("ubg", 4, seed=seed)
            for _ in range(50):
                v = params.nets["g"](Tensor(float(rng.standard_normal() * 10)),
                                     Tensor(float(rng.standard_normal() * 10)),
                                     Tensor(float(np.abs(rng.standard_normal()))))
                assert v.data[0] > 0.0

    def test_gamma_lambda_outputs_nonnegative(self):
        rng = np.random.default_rng(8)
        params = init_params("ubg", 8, seed=4)
        for _ in range(50):
            x = Tensor(rng.standard_normal(7) * 5.0)
            assert params.nets["gamma"](x).data[0] >= 0.0
            assert np.all(params.nets["lambda"](x).data >= 0.0)


class TestExactZeros:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_outputs_carry_exact_zeros_when_threshold_dominates(self, variant):
        params = init_params(variant, 6, seed=5)
        _force_constant(params.nets["lambda"], 1e4)
        ctx = _ctx(6, [0.4, -0.2, 0.9, 0.0, 1.3], np.zeros(5), np.zeros(5),
                   stabilize=True)
        u = models.column_map(ctx, params)
        assert np.count_nonzero(u.data) == 0


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        params = init_params("pnp", 9, seed=11)
        rng = np.random.default_rng(9)
        for _, t in params.named_tensors():  # non-trivial values
            t.data[...] = rng.standard_normal(t.data.shape)
        cfg = LayerConfig(zeta=2.5, num_layers=2, stabilize=False)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded.variant == "pnp" and loaded.p == 9 and loaded.seed == 11
        assert loaded_cfg.zeta == 2.5
        assert loaded_cfg.num_layers == 2
        assert loaded_cfg.stabilize is False
        for (na, ta), (nb, tb) in zip(params.named_tensors(),
                                      loaded.named_tensors()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        params = init_params("ubg", 5, seed=0)
        cfg = LayerConfig()
        save_checkpoint(tmp_path / "a.json", params, cfg)
        save_checkpoint(tmp_path / "b.json", params, cfg)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params("ubg", 5, seed=0), LayerConfig())
        doc = path.read_text().replace("SPODNET-CKPT-1", "SOMETHING-ELSE")
        path.write_text(doc)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params("ubg", 5, seed=0), LayerConfig())
        doc = json.loads(path.read_text())
        doc["params"] = doc["params"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        params = init_params("ubg", 5, seed=0)
        params.nets["lambda"].biases[0].data[2] = np.inf
        save_checkpoint(path, params, LayerConfig())
        with pytest.raises(ValueError, match="'lambda.b0'"):
            load_checkpoint(path)

    def test_malformed_checkpoint_rejected(self, tmp_path):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params("ubg", 5, seed=0), LayerConfig())
        good = json.loads(path.read_text())
        broken = [{k: v for k, v in good.items() if k != "variant"},
                  {**good, "params": [3]},
                  [good]]
        for doc in broken:
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError):
                load_checkpoint(path)


class TestBatchEquivalence:
    """A batched forward and its tape agree with one forward per sample:
    Theta, W and every parameter gradient within 1e-12 relative."""

    RTOL = 1e-12

    @staticmethod
    def _entries(p=8, seed=17):
        rng = datagen.make_rng(seed)
        out = []
        for _ in range(3):
            theta_true = datagen.make_sparse_spd(p, 0.9, 0.1, rng)
            s, _ = datagen.sample_covariance(theta_true, 50, rng)
            out.append((s, theta_true))
        return out

    def _close(self, got, want):
        assert np.abs(got - want).max() <= self.RTOL * np.abs(want).max()

    # healthy inits: the margin net starts off its floor on these samples
    @pytest.mark.parametrize("variant,seed", [("ubg", 2), ("pnp", 3), ("e2e", 2)])
    @pytest.mark.parametrize("mode", ["detached", "full"])
    def test_batched_matches_per_sample(self, variant, seed, mode):
        from spodnet.training import mse_loss
        entries = self._entries()
        params = init_params(variant, 8, seed)
        tensors = params.tensors()
        cfg = LayerConfig(tape_mode=mode)

        def run(s, truth):
            ad.zero_grad(tensors)
            with ad.Tape() as tape:
                out = models.forward(s, params, cfg)
                tape.backward(mse_loss(out.theta, truth))
            return out, [np.zeros_like(t.data) if t.grad is None else t.grad
                         for t in tensors]

        batched, grads = run(np.stack([s for s, _ in entries]),
                             np.stack([t for _, t in entries]))
        summed = [np.zeros_like(t.data) for t in tensors]
        for b, (s, truth) in enumerate(entries):
            single, g1 = run(s, truth)
            self._close(batched.theta.data[b], single.theta.data)
            self._close(batched.w.data[b], single.w.data)
            summed = [a + g for a, g in zip(summed, g1)]
        for got, want in zip(grads, summed):
            assert np.abs(got - want).max() <= self.RTOL * max(np.abs(want).max(), 1e-300)
