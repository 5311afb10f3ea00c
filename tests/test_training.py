"""Loss, optimizer, metrics, and the training loop."""

import numpy as np
import pytest

from spodnet import autodiff as ad
from spodnet import core, datagen, models, training
from spodnet.autodiff import Tape, Tensor
from spodnet.core import LayerConfig
from spodnet.training import (AdamState, MetricsRow, TrainConfig, adam_step,
                              evaluate, mse_loss, offdiag_density, score_stack,
                              train)


def _dataset(p=10, n=50, num=8, alpha=0.9, seed=42):
    return datagen.build_dataset(
        datagen.GenConfig(p=p, n=n, num=num, alpha=alpha, seed=seed))


class TestMseLoss:
    def test_zero_at_truth(self):
        t = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert mse_loss(Tensor(t), t).item() == 0.0

    def test_identity_offset(self):
        t = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert mse_loss(Tensor(t + np.eye(2)), t).item() == pytest.approx(2.0)

    def test_gradient_is_two_times_residual(self):
        truth = np.array([[1.0, 0.0], [0.0, 1.0]])
        pred = ad.parameter([[2.0, 0.5], [0.5, 3.0]])
        with Tape():
            ad.backward(mse_loss(pred, truth))
        assert np.allclose(pred.grad, 2.0 * (pred.data - truth))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        cfg = TrainConfig(lr=0.1, epochs=1)
        p = ad.parameter([1.0, -2.0, 3.0])
        g = np.array([0.5, -1.5, 2.0])
        state = AdamState.for_params([p])
        before = p.data.copy()
        adam_step([p], [g], state, cfg)
        step = p.data - before
        assert np.allclose(step, -cfg.lr * np.sign(g), atol=cfg.lr * 1e-4)

    def test_zero_gradient_keeps_params(self):
        cfg = TrainConfig(lr=0.1, epochs=1)
        p = ad.parameter([1.0, 2.0])
        state = AdamState.for_params([p])
        for _ in range(5):
            adam_step([p], [np.zeros(2)], state, cfg)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_none_gradient_counts_as_zero(self):
        cfg = TrainConfig(lr=0.1, epochs=1)
        p = ad.parameter([1.0])
        state = AdamState.for_params([p])
        adam_step([p], [None], state, cfg)
        assert np.array_equal(p.data, [1.0])

    def test_quadratic_bowl_converges(self):
        cfg = TrainConfig(lr=0.1, epochs=1)
        p = ad.parameter([1.0])
        state = AdamState.for_params([p])
        for _ in range(200):
            adam_step([p], [p.data.copy()], state, cfg)  # grad of 0.5 x^2
        assert abs(p.data[0]) < 1e-2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr"):
                TrainConfig(lr=bad)


def _score(pred, truth) -> dict:
    """:func:`score_stack` of one matrix, as floats."""
    return {key: float(v[0]) for key, v in score_stack([pred], [truth]).items()}


def _sym(a):
    return a + a.T


class TestNmse:
    def test_perfect_predictions(self):
        t = np.eye(3)
        assert _score(t, t)["nmse"] == 0.0

    def test_zero_prediction_is_one(self):
        t = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert _score(np.zeros((2, 2)), t)["nmse"] == 1.0

    def test_doubled_truth_is_one(self):
        t = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert _score(2.0 * t, t)["nmse"] == pytest.approx(1.0)

    def test_zero_norm_truth_rejected(self):
        truths = np.stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="zero-norm truth"):
            score_stack(np.stack([np.eye(2)] * 2), truths)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            score_stack([np.eye(2)], [np.eye(3)])
        with pytest.raises(ValueError, match="shape mismatch"):
            score_stack([np.eye(2)] * 2, [np.eye(2)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            score_stack([], [])
        with pytest.raises(ValueError, match="non-empty"):
            score_stack(np.eye(2), np.eye(2))

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        pred = _sym(rng.standard_normal((6, 6)))
        truth = _sym(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        a = _score(pred, truth)["nmse"]
        b = _score(q @ pred @ q.T, q @ truth @ q.T)["nmse"]
        assert abs(a - b) <= 1e-10


class TestF1Support:
    def test_identical_supports(self):
        t = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert _score(t, t)["f1"] == 1.0

    def test_empty_prediction_on_nonempty_truth(self):
        truth = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert _score(np.eye(2), truth)["f1"] == 0.0

    def test_confusion_matrix_arithmetic(self):
        truth = np.zeros((3, 3))
        truth[0, 1] = truth[1, 0] = 1.0
        np.fill_diagonal(truth, 1.0)
        pred = truth.copy()
        pred[0, 2] = pred[2, 0] = 0.5
        # precision 1/2, recall 1 -> F1 = 2/3
        assert _score(pred, truth)["f1"] == pytest.approx(2.0 / 3.0)

    def test_both_supports_empty(self):
        # an empty pair scores 1 also next to a non-empty one in the stack
        full = np.ones((4, 4)) + np.eye(4)
        got = score_stack(np.stack([np.eye(4), full]), np.stack([np.eye(4), np.eye(4)]))
        assert got["f1"].tolist() == [1.0, 0.0]

    def test_transpose_invariance(self):
        rng = np.random.default_rng(1)
        # the estimate passes the eigensolve's 1e-12 relative symmetry check,
        # yet its support is not symmetric: entries straddle ZERO_TOL
        pred = 1e5 * np.eye(5)
        upper = np.triu(rng.random((5, 5)) < 0.5, 1)
        pred[upper] = 2e-8
        pred[upper.T] = 5e-9
        truth = np.where(rng.random((5, 5)) < 0.5, 0.0, 1.0) + np.eye(5)
        assert (pred.T != pred).any() and (truth.T != truth).any()
        assert _score(pred, truth)["f1"] == _score(pred.T, truth.T)["f1"]

    def test_zero_tol_counts_exact_zeros(self):
        truth = np.eye(3)
        pred = np.eye(3)
        pred[0, 1] = pred[1, 0] = 1e-9  # below tolerance: treated as zero
        assert _score(pred, truth)["f1"] == 1.0
        assert _score(pred, truth)["density"] == 0.0


class TestDensity:
    def test_diagonal_matrix_has_zero_density(self):
        assert offdiag_density(np.diag([1.0, 2.0, 3.0])) == 0.0
        assert _score(np.diag([1.0, 2.0, 3.0]), np.ones((3, 3)))["density"] == 0.0

    def test_full_matrix(self):
        assert offdiag_density(np.ones((3, 3))) == 1.0
        stack = np.stack([np.eye(3), np.ones((3, 3)), np.eye(3)])
        stack[2, 0, 1] = stack[2, 1, 0] = 1.0
        assert offdiag_density(stack).tolist() == [0.0, 1.0, 1.0 / 3.0]


def test_scoring_a_stack_equals_scoring_each_matrix_alone():
    rng = np.random.default_rng(3)
    for p, b in ((6, 1), (13, 7), (40, 12)):
        a = rng.standard_normal((b, p, p))
        est = a @ a.mT / p + 0.1 * np.eye(p)
        est[np.abs(est) < 0.05] = 0.0
        truth = np.where(rng.random((b, p, p)) < 0.8, 0.0, 1.0) + p * np.eye(p)
        stacked = score_stack(est, truth)
        for j in range(b):
            alone = score_stack(est[j:j + 1], truth[j:j + 1])
            for key, values in stacked.items():
                assert values[j].tobytes() == alone[key][0].tobytes(), (p, j, key)


class TestTrain:
    def test_smoke_run_improves(self):
        ds = _dataset(num=12)
        params = models.init_params("ubg", 10, seed=0)
        cfg = TrainConfig(lr=1e-2, batch_size=4, epochs=5, seed=1)
        history = train(params, ds.entries[:8], ds.entries[8:], cfg,
                        LayerConfig())
        assert len(history) == 5
        assert history[-1].train_mse <= history[0].train_mse
        assert all(row.min_eig > 0.0 for row in history)

    def test_zero_lr_freezes_everything(self):
        ds = _dataset(num=6)
        params = models.init_params("ubg", 10, seed=0)
        before = [t.data.copy() for t in params.tensors()]
        cfg = TrainConfig(lr=0.0, batch_size=3, epochs=3, seed=1)
        history = train(params, ds.entries[:4], ds.entries[4:], cfg,
                        LayerConfig())
        for t, b in zip(params.tensors(), before):
            assert np.array_equal(t.data, b)
        assert all(row.test_nmse == history[0].test_nmse for row in history)

    def test_zero_epochs(self):
        ds = _dataset(num=4)
        params = models.init_params("ubg", 10, seed=0)
        before = [t.data.copy() for t in params.tensors()]
        history = train(params, ds.entries[:2], ds.entries[2:],
                        TrainConfig(lr=1e-2, epochs=0), LayerConfig())
        assert history == []
        for t, b in zip(params.tensors(), before):
            assert np.array_equal(t.data, b)

    def test_pinned_seed_is_bitwise_reproducible(self):
        ds = _dataset(num=6)

        def run():
            params = models.init_params("ubg", 10, seed=0)
            history = train(params, ds.entries[:4], ds.entries[4:],
                            TrainConfig(lr=1e-2, batch_size=2, epochs=2,
                                        seed=9), LayerConfig())
            return params, history

        p1, h1 = run()
        p2, h2 = run()
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert a.data.tobytes() == b.data.tobytes()
        assert h1 == h2


def _repro():
    """Untrained e2e at p=8 whose boundary refresh fails on some entries,
    the first of them entry 1."""
    ds = datagen.build_dataset(datagen.GenConfig(p=8, n=40, num=40, alpha=0.9, seed=0))
    return ds.entries, models.init_params("e2e", 8, seed=0)


class TestMinibatch:
    def test_minibatch_of_ten_records_as_many_nodes_as_one(self, monkeypatch):
        ds = _dataset(num=11)
        nodes = []
        backward = ad.Tape.backward

        def counting(tape, loss):
            nodes.append(len(tape.nodes))
            return backward(tape, loss)

        monkeypatch.setattr(ad.Tape, "backward", counting)
        for batch_size, entries in ((1, ds.entries[:1]), (10, ds.entries[1:])):
            train(models.init_params("ubg", 10, seed=0), entries, ds.entries[:1],
                  TrainConfig(batch_size=batch_size, epochs=1), LayerConfig())
        assert len(nodes) == 2 and nodes[0] == nodes[1]

    def test_violation_names_the_dataset_sample(self):
        entries, params = _repro()
        with pytest.raises(core.SpdViolation, match=r"^epoch 0, sample \d+: layer 0: ") as exc:
            train(params, entries, entries[:1], TrainConfig(epochs=1), LayerConfig())
        # the named entry fails on its own, too
        with pytest.raises(core.SpdViolation):
            models.forward(entries[exc.value.sample].s, params, LayerConfig())


def _budget(monkeypatch, matrices: int, p: int) -> None:
    """Set the eval byte budget to ``matrices`` matrices of order ``p``."""
    monkeypatch.setattr(training, "EVAL_BYTES", matrices * 8 * p * p)
    assert training.eval_stack_size(p) == matrices


class TestEvaluate:
    def test_stack_size_from_the_budget(self):
        assert [training.eval_stack_size(p) for p in (6, 20, 100)] == [2777, 250, 10]
        # a matrix larger than the budget still forwards, one per stack
        assert training.eval_stack_size(1000) == 1

    def test_chunks_match_one_forward_per_sample(self, monkeypatch):
        ds = _dataset(num=5)
        params = models.init_params("ubg", 10, seed=0)
        _budget(monkeypatch, 2, 10)
        report = evaluate(params, ds.entries, LayerConfig())
        singles = [models.forward(e.s, params, LayerConfig()).theta.data
                   for e in ds.entries]
        assert report == training.score_estimates(ds.entries, singles)

    @pytest.mark.parametrize("variant,layers", [("ubg", 1), ("pnp", 2)])
    def test_report_is_bit_identical_at_every_budget(self, monkeypatch, variant,
                                                     layers):
        ds = _dataset(num=7)
        params = models.init_params(variant, 10, seed=2)
        cfg = LayerConfig(num_layers=layers)
        reports = []
        for matrices in (1, 3, 7):  # one matrix, a few, all of them
            _budget(monkeypatch, matrices, 10)
            reports.append(evaluate(params, ds.entries, cfg))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("chunk", [1, 32])
    def test_violation_names_the_sample_in_any_chunk(self, monkeypatch, chunk):
        entries, params = _repro()
        _budget(monkeypatch, chunk, 8)
        with pytest.raises(core.SpdViolation, match="^sample 1: layer 0: "):
            evaluate(params, entries, LayerConfig())

    def test_scoring_needs_one_estimate_per_entry(self, monkeypatch):
        # fewer estimates than entries, a whole number of chunks of them
        ds = _dataset(num=4)
        _budget(monkeypatch, 2, 10)
        truths = [e.theta_true for e in ds.entries]
        for estimates in (truths[:2], truths + truths[:1], []):
            with pytest.raises(ValueError, match="one estimate per entry"):
                training.score_estimates(ds.entries, estimates)

    def test_schema_and_spd_flags(self):
        ds = _dataset(num=3)
        params = models.init_params("ubg", 10, seed=0)
        report = evaluate(params, ds.entries, LayerConfig())
        assert len(report["samples"]) == 3
        for row in report["samples"]:
            for key in ("sample_id", "nmse", "f1", "min_eig", "cond",
                        "density", "spd"):
                assert key in row
            assert row["spd"]
        assert report["aggregates"]["all_spd"]


class TestSpectralTrace:
    def test_identity_updates_trace(self):
        snapshots = np.stack([np.eye(4)] * 5)
        got = score_stack(snapshots, snapshots)
        assert got["min_eig"].tolist() == [1.0] * 5
        assert got["cond"].tolist() == [1.0] * 5

    def test_collects_one_event_per_update(self):
        ds = _dataset(num=1)
        params = models.init_params("ubg", 10, seed=0)
        events = []
        models.forward(ds.entries[0].s, params, LayerConfig(num_layers=2),
                       hook=events.append)
        assert len(events) == 2 * 10
        got = score_stack([ev.theta_after for ev in events],
                          [ds.entries[0].theta_true] * len(events))
        assert (got["min_eig"] > 0.0).all()
        assert (got["cond"] >= 1.0).all()


def test_metrics_csv_round_trip(tmp_path):
    rows = [MetricsRow(0, 1.5, 0.25, 0.5, 0.01, 100.0, 0.3),
            MetricsRow(1, 1.25, 0.2, 0.6, 0.02, 90.0, 0.25)]
    path = tmp_path / "metrics.csv"
    training.write_metrics_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_mse,test_nmse,test_f1,min_eig,max_cond,mean_density"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == repr(1.5)
