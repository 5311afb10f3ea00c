"""Update-map variants, margin network, initialization, checkpoints."""

import numpy as np
import pytest

from spodnet import autodiff as ad
from spodnet import baselines, core, datagen, linalg, models
from spodnet.autodiff import Tensor
from spodnet.core import ColumnContext, LayerConfig
from spodnet.models import (VARIANTS, g_eval, init_params, load_checkpoint,
                            save_checkpoint)


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
        assert params.lambda_scale == (1.0 if variant == "ubg" else 0.1)

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
        u = models.f_ubg(ctx, params)
        assert np.allclose(u.data, [0.8], atol=1e-15)

    def test_threshold_kills_everything(self):
        params = init_params("ubg", 4, seed=0)
        _force_constant(params.nets["gamma"], 0.5)
        _force_constant(params.nets["lambda"], 100.0)
        ctx = _ctx(4, theta12=[1.0, -2.0, 0.3], s12=[0.1, 0.2, 0.3],
                   w12=[0.0, 0.0, 0.0])
        u = models.f_ubg(ctx, params)
        assert np.array_equal(u.data, np.zeros(3))

    def test_identity_when_gamma_and_lambda_vanish(self):
        params = init_params("ubg", 4, seed=0)
        _force_constant(params.nets["gamma"], 0.0)
        _force_constant(params.nets["lambda"], 0.0)
        theta12 = [0.7, -1.2, 0.05]
        ctx = _ctx(4, theta12=theta12, s12=[9.0, 9.0, 9.0], w12=[0.0, 0.0, 0.0])
        u = models.f_ubg(ctx, params)
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
            u = models.f_ubg(ctx, params)
            oracle = baselines.block_gista_step(theta12, s12, w12, gamma, lam)
            assert np.abs(u.data - oracle).max() <= 1e-12


class TestFPnp:
    def test_zero_denoiser_gives_zero(self):
        params = init_params("pnp", 5, seed=0)
        _zero_net(params.nets["psi"])
        ctx = _ctx(5, [1.0, 2.0, 3.0, 4.0], np.zeros(4), np.zeros(4))
        assert np.array_equal(models.f_pnp(ctx, params).data, np.zeros(4))

    def test_threshold_off_passes_denoiser_output(self):
        params = init_params("pnp", 5, seed=1)
        _force_constant(params.nets["lambda"], 0.0)
        _force_constant(params.nets["gamma"], 0.0)
        theta12 = np.array([0.5, -0.25, 1.0, 0.0])
        ctx = _ctx(5, theta12, np.zeros(4), np.zeros(4))
        got = models.f_pnp(ctx, params)
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
        got = models.f_pnp(ctx, params).data

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
        assert np.array_equal(models.f_e2e(ctx, params).data, np.zeros(4))

    def test_large_threshold_gives_zero(self):
        params = init_params("e2e", 5, seed=1)
        _force_constant(params.nets["lambda"], 1e6)
        ctx = _ctx(5, [1.0, -1.0, 2.0, 0.5], np.zeros(4), np.zeros(4))
        assert np.array_equal(models.f_e2e(ctx, params).data, np.zeros(4))

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(6)
        params = init_params("e2e", 6, seed=3)
        theta12 = rng.standard_normal(5)
        m = np.eye(5)
        ctx = _ctx(6, theta12, np.zeros(5), np.zeros(5), theta11_inv=m,
                   stabilize=True)
        got = models.f_e2e(ctx, params).data

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


class TestGEval:
    def test_zero_network_hits_floor(self):
        params = init_params("ubg", 4, seed=0)
        _zero_net(params.nets["g"])
        v = g_eval(Tensor(1.0), Tensor(2.0), Tensor(0.5), params)
        assert v.data[0] == models.G_FLOOR

    def test_selector_weights_pass_theta22(self):
        params = init_params("ubg", 4, seed=0)
        g = params.nets["g"]
        _zero_net(g)
        for w in g.weights:  # route the first feature through every layer
            w.data[0, 0] = 1.0
        v = g_eval(Tensor(2.0), Tensor(5.0), Tensor(0.25), params)
        assert v.data[0] == pytest.approx(2.0 + models.G_FLOOR)

    def test_always_strictly_positive(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            params = init_params("ubg", 4, seed=seed)
            for _ in range(50):
                v = g_eval(Tensor(float(rng.standard_normal() * 10)),
                           Tensor(float(rng.standard_normal() * 10)),
                           Tensor(float(np.abs(rng.standard_normal()))),
                           params)
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
        fn = {"ubg": models.f_ubg, "pnp": models.f_pnp, "e2e": models.f_e2e}
        u = fn[variant](ctx, params)
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
