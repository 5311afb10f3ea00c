"""End-to-end command line behavior, including exit codes and determinism."""

import json

import numpy as np
import pytest

from spodnet import datagen, models
from spodnet.cli import main


def _read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    """Tiny train/test datasets shared across CLI tests."""
    root = tmp_path_factory.mktemp("data")
    train = root / "train"
    test = root / "test"
    for out, seed, num in ((train, 0, 6), (test, 1, 3)):
        code = main(["gen-data", "--p", "6", "--n", "30", "--num", str(num),
                     "--alpha", "0.9", "--seed", str(seed),
                     "--keep-samples", "--out", str(out)])
        assert code == 0
    return train, test


@pytest.fixture(scope="module")
def trained(tmp_path_factory, small_data):
    train, test = small_data
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--model", "ubg", "--train", str(train),
                 "--test", str(test), "--epochs", "2", "--lr", "1e-2",
                 "--batch-size", "3", "--seed", "2", "--out", str(out)])
    assert code == 0
    return out


class TestGenData:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen-data", "--p", "5", "--n", "10", "--num", "3",
                "--alpha", "0.8", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert _read_tree(tmp_path / "a") == _read_tree(tmp_path / "b")

    def test_alpha_out_of_range_exits_2(self, tmp_path, capsys):
        code = main(["gen-data", "--p", "5", "--n", "10", "--num", "1",
                     "--alpha", "1.5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_out_exits_2(self):
        assert main(["gen-data", "--p", "5", "--n", "10", "--num", "1"]) == 2

    def test_entry_count(self, tmp_path):
        main(["gen-data", "--p", "4", "--n", "5", "--num", "4",
              "--alpha", "0.5", "--out", str(tmp_path / "ds")])
        ds = datagen.load_dataset(tmp_path / "ds")
        assert len(ds.entries) == 4


class TestTrain:
    def test_zero_epochs_checkpoint_equals_init(self, tmp_path, small_data):
        train, test = small_data
        out = tmp_path / "frozen"
        code = main(["train", "--model", "pnp", "--train", str(train),
                     "--test", str(test), "--epochs", "0", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        params, _ = models.load_checkpoint(out / "checkpoint.json")
        init = models.init_params("pnp", 6, seed=5)
        for (_, a), (_, b) in zip(params.named_tensors(), init.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_zeta_zero_rejected(self, small_data):
        train, test = small_data
        code = main(["train", "--train", str(train), "--test", str(test),
                     "--zeta", "0", "--out", "/tmp/nope"])
        assert code == 2

    def test_p_mismatch_rejected(self, tmp_path, small_data):
        train, _ = small_data
        other = tmp_path / "other"
        main(["gen-data", "--p", "4", "--n", "10", "--num", "2",
              "--alpha", "0.9", "--out", str(other)])
        code = main(["train", "--train", str(train), "--test", str(other),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_metrics_csv_written(self, trained):
        lines = (trained / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,train_mse")
        assert len(lines) == 3  # header + 2 epochs


class TestEval:
    def test_report_schema(self, tmp_path, small_data, trained):
        _, test = small_data
        out = tmp_path / "eval.json"
        code = main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(test), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "model:ubg"
        assert {"nmse", "f1", "min_eig", "max_cond", "density", "all_spd"} \
            <= set(doc["aggregates"])
        for row in doc["samples"]:
            assert {"sample_id", "nmse", "f1", "min_eig", "cond",
                    "density", "spd"} <= set(row)
        assert doc["aggregates"]["all_spd"] is True

    def test_p_mismatch_exits_2(self, tmp_path, trained):
        other = tmp_path / "other"
        main(["gen-data", "--p", "4", "--n", "10", "--num", "2",
              "--alpha", "0.9", "--out", str(other)])
        code = main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(other), "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_missing_checkpoint_exits_3(self, tmp_path, small_data):
        _, test = small_data
        code = main(["eval", "--checkpoint", str(tmp_path / "none.json"),
                     "--data", str(test), "--out", str(tmp_path / "x.json")])
        assert code == 3


    def test_broken_checkpoint_exits_2(self, tmp_path, small_data, trained):
        _, test = small_data
        doc = json.loads((trained / "checkpoint.json").read_text())
        del doc["variant"]
        ckpt = tmp_path / "broken.json"
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(test), "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_non_finite_dataset_exits_2(self, tmp_path, trained, capsys):
        ds = datagen.build_dataset(datagen.GenConfig(
            p=6, n=30, num=2, alpha=0.9, seed=1, keep_samples=True))
        ds.entries[1].s[0, 0] = np.nan
        datagen.save_dataset(ds, tmp_path / "bad")
        code = main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(tmp_path / "bad"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "entry 1" in capsys.readouterr().err
        code = main(["baseline", "--method", "glasso",
                     "--data", str(tmp_path / "bad"),
                     "--out", str(tmp_path / "y.json")])
        assert code == 2

    def test_covariance_below_minus_identity_exits_2(self, tmp_path, small_data,
                                                      trained, capsys):
        # S + I not positive definite: the layers' start inv(S + I) fails
        _, test = small_data
        ds = datagen.build_dataset(datagen.GenConfig(
            p=6, n=30, num=2, alpha=0.9, seed=1, keep_samples=True))
        ds.entries[1].s = np.diag([-3.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        bad = tmp_path / "bad"
        datagen.save_dataset(ds, bad)
        ckpt = str(trained / "checkpoint.json")
        for argv in (["eval", "--checkpoint", ckpt, "--data", str(bad),
                      "--out", str(tmp_path / "x.json")],
                     ["diagnose", "--checkpoint", ckpt, "--data", str(bad),
                      "--out", str(tmp_path / "d")],
                     ["train", "--model", "ubg", "--train", str(bad),
                      "--test", str(test), "--epochs", "1",
                      "--out", str(tmp_path / "run")]):
            assert main(argv) == 2, argv[0]
            assert "entry 1" in capsys.readouterr().err


class TestBaseline:
    def test_lw_all_spd(self, tmp_path, small_data):
        _, test = small_data
        out = tmp_path / "lw.json"
        code = main(["baseline", "--method", "lw", "--data", str(test),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "lw"
        assert doc["aggregates"]["all_spd"] is True

    def test_huge_penalty_gives_diagonal(self, tmp_path, small_data):
        _, test = small_data
        out = tmp_path / "gl.json"
        code = main(["baseline", "--method", "glasso", "--lambda", "1e6",
                     "--data", str(test), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(row["density"] == 0.0 for row in doc["samples"])
        assert all(row["f1"] == 0.0 for row in doc["samples"])

    def test_cv_without_samples_exits_2(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        main(["gen-data", "--p", "4", "--n", "12", "--num", "2",
              "--alpha", "0.9", "--out", str(bare)])
        code = main(["baseline", "--method", "glasso-cv", "--data", str(bare),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--keep-samples" in capsys.readouterr().err

    def test_glasso_cv_runs(self, tmp_path, small_data):
        _, test = small_data
        out = tmp_path / "cv.json"
        code = main(["baseline", "--method", "glasso-cv", "--folds", "3",
                     "--grid-size", "4", "--max-sweeps", "20",
                     "--data", str(test), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["aggregates"]["all_spd"] is True

    def test_oas_runs(self, tmp_path, small_data):
        _, test = small_data
        code = main(["baseline", "--method", "oas", "--data", str(test),
                     "--out", str(tmp_path / "oas.json")])
        assert code == 0


class TestDiagnose:
    def test_trace_rows_and_audit(self, tmp_path, small_data, trained):
        _, test = small_data
        out = tmp_path / "diag"
        code = main(["diagnose", "--checkpoint",
                     str(trained / "checkpoint.json"), "--data", str(test),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 6  # header + samples * K * p
        report = json.loads((out / "bauer_fike.json").read_text())
        assert report["violations"] == 0
        assert report["updates_checked"] == 3 * 6

    def test_zeta_zero_rejected(self, tmp_path, small_data, trained):
        _, test = small_data
        code = main(["diagnose", "--checkpoint",
                     str(trained / "checkpoint.json"), "--data", str(test),
                     "--zeta", "0", "--out", str(tmp_path / "d")])
        assert code == 2

    def test_limit(self, tmp_path, small_data, trained):
        _, test = small_data
        out = tmp_path / "diag1"
        code = main(["diagnose", "--checkpoint",
                     str(trained / "checkpoint.json"), "--data", str(test),
                     "--limit", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1 * 6

    def test_negative_limit_exits_2(self, tmp_path, small_data, trained):
        _, test = small_data
        code = main(["diagnose", "--checkpoint",
                     str(trained / "checkpoint.json"), "--data", str(test),
                     "--limit", "-1", "--out", str(tmp_path / "d")])
        assert code == 2


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 5, "n": 10, "num": 2, "alpha": 0.8,
                                   "seed": 3, "out": str(tmp_path / "from_file")}))
        assert main(["--config", str(cfg), "gen-data"]) == 0
        ds = datagen.load_dataset(tmp_path / "from_file")
        assert ds.config.p == 5 and ds.config.seed == 3

        assert main(["--config", str(cfg), "gen-data", "--seed", "4",
                     "--out", str(tmp_path / "override")]) == 0
        ds2 = datagen.load_dataset(tmp_path / "override")
        assert ds2.config.seed == 4

    def test_missing_config_exits_3(self):
        assert main(["--config", "/nonexistent/cfg.json", "gen-data"]) == 3

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2


def test_threads_flag_is_deterministic(tmp_path, small_data):
    _, test = small_data
    outs = []
    for name, workers in (("a.json", "1"), ("b.json", "3")):
        out = tmp_path / name
        code = main(["baseline", "--method", "oas", "--data", str(test),
                     "--threads", workers, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_threads_must_be_positive(tmp_path, small_data):
    _, test = small_data
    assert main(["baseline", "--method", "oas", "--data", str(test),
                 "--threads", "0", "--out", str(tmp_path / "x.json")]) == 2


def test_gen_data_io_failure_exits_3():
    code = main(["gen-data", "--p", "4", "--n", "5", "--num", "1",
                 "--alpha", "0.5", "--out", "/proc/definitely/not/writable"])
    assert code == 3


def test_invalid_solver_config_exits_2(tmp_path, small_data):
    _, test = small_data
    code = main(["baseline", "--method", "glasso", "--max-sweeps", "0",
                 "--data", str(test), "--out", str(tmp_path / "x.json")])
    assert code == 2
