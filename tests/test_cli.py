"""End-to-end command line behavior, including exit codes and determinism."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spodnet import baselines, cli, core, datagen, linalg, models, training
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

    @pytest.mark.parametrize("boost", ["nan", "inf"])
    def test_non_finite_diag_boost_exits_2(self, tmp_path, boost, capsys):
        code = main(["gen-data", "--p", "5", "--n", "10", "--num", "1",
                     "--alpha", "0.5", "--diag-boost", boost,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "diag_boost" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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


def _write_checkpoint(path, doc, nan_param=None):
    """Save ``doc`` at ``path``, first setting entry 0 of ``nan_param`` to NaN."""
    import base64
    for rec in doc["params"]:
        if rec["name"] == nan_param:
            arr = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").copy()
            arr[0] = np.nan
            rec["data"] = base64.b64encode(arr.tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    return str(path)


class TestNonFiniteCheckpoint:
    def _doc(self, trained):
        return json.loads((trained / "checkpoint.json").read_text())

    def test_nan_weight_exits_2(self, tmp_path, small_data, trained, capsys):
        _, test = small_data
        ckpt = _write_checkpoint(tmp_path / "nan.json", self._doc(trained),
                                 nan_param="g.w1")
        for cmd, out in (("eval", "x.json"), ("diagnose", "d")):
            code = main([cmd, "--checkpoint", ckpt, "--data", str(test),
                         "--out", str(tmp_path / out)])
            assert code == 2, cmd
            assert "'g.w1'" in capsys.readouterr().err

    def test_infinite_zeta_exits_2(self, tmp_path, small_data, trained, capsys):
        train, test = small_data
        doc = self._doc(trained)
        doc["zeta"] = float("inf")
        ckpt = _write_checkpoint(tmp_path / "inf.json", doc)
        good = str(trained / "checkpoint.json")
        for argv in (["eval", "--checkpoint", ckpt, "--data", str(test),
                      "--out", str(tmp_path / "x.json")],
                     ["diagnose", "--checkpoint", ckpt, "--data", str(test),
                      "--out", str(tmp_path / "d")],
                     ["diagnose", "--checkpoint", good, "--data", str(test),
                      "--zeta", "inf", "--out", str(tmp_path / "d")],
                     ["train", "--model", "ubg", "--train", str(train),
                      "--test", str(test), "--zeta", "inf",
                      "--out", str(tmp_path / "run")]):
            assert main(argv) == 2, argv
            assert "zeta" in capsys.readouterr().err


class TestCheckpointHeader:
    @pytest.mark.parametrize("field,value", [
        ("stabilize", "false"),
        ("stabilize", 0),
        ("num_layers", 1.5),
        ("num_layers", True),
        ("seed", 2.7),
        ("p", "6"),
        ("zeta", "2"),
        ("zeta", True),
    ])
    def test_mistyped_field_exits_2(self, tmp_path, small_data, trained,
                                    field, value, capsys):
        _, test = small_data
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc[field] = value
        ckpt = _write_checkpoint(tmp_path / "bad.json", doc)
        code = main(["eval", "--checkpoint", ckpt, "--data", str(test),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert repr(field) in capsys.readouterr().err

    def test_huge_p_exits_2_before_drawing_weights(self, tmp_path, small_data,
                                                   trained, capsys):
        # nets for p = 10**7 would take hundreds of TiB: the recorded shapes
        # are checked against the header's before any weight is drawn
        _, test = small_data
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["p"] = 10 ** 7
        ckpt = _write_checkpoint(tmp_path / "huge.json", doc)
        code = main(["eval", "--checkpoint", ckpt, "--data", str(test),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "shape mismatch for 'gamma.w0'" in capsys.readouterr().err


_EVAL_AND_DIAGNOSE = """
import sys
from spodnet import cli
ckpt, data, out = sys.argv[1:]
assert cli.main(["eval", "--checkpoint", ckpt, "--data", data, "--out", out + "/x.json"]) == 0
assert cli.main(["diagnose", "--checkpoint", ckpt, "--data", data, "--out", out + "/d"]) == 0
print("numpy.random" in sys.modules)
"""


def test_loading_a_checkpoint_draws_nothing(tmp_path, small_data, trained):
    """load_checkpoint builds the nets from the records, so a process that
    runs eval and then diagnose never imports numpy.random."""
    src = str(Path(models.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _EVAL_AND_DIAGNOSE, str(trained / "checkpoint.json"),
         str(small_data[1]), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


class TestSpdViolation:
    def test_eval_and_diagnose_name_the_sample(self, tmp_path, capsys):
        # an untrained e2e model whose margin path breaks on entry 1 first
        data = str(tmp_path / "data")
        assert main(["gen-data", "--p", "8", "--n", "40", "--num", "40",
                     "--alpha", "0.9", "--seed", "0", "--out", data]) == 0
        assert main(["train", "--model", "e2e", "--train", data, "--test", data,
                     "--seed", "0", "--epochs", "0",
                     "--out", str(tmp_path / "run")]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.json")
        capsys.readouterr()
        for cmd, out in (("eval", "x.json"), ("diagnose", "d")):
            code = main([cmd, "--checkpoint", ckpt, "--data", data,
                         "--out", str(tmp_path / out)])
            assert code == 4, cmd
            assert "sample 1: layer 0:" in capsys.readouterr().err
        # the failing minibatch names the dataset index of its first failure
        assert main(["train", "--model", "e2e", "--train", data, "--test", data,
                     "--seed", "0", "--epochs", "1",
                     "--out", str(tmp_path / "run1")]) == 4
        assert re.search(r"epoch 0, sample \d+: layer 0:", capsys.readouterr().err)


    def test_diagnose_violation_carries_the_sample(self, tmp_path):
        data = str(tmp_path / "data")
        assert main(["gen-data", "--p", "8", "--n", "40", "--num", "3",
                     "--alpha", "0.9", "--seed", "0", "--out", data]) == 0
        assert main(["train", "--model", "e2e", "--train", data, "--test", data,
                     "--seed", "0", "--epochs", "0",
                     "--out", str(tmp_path / "run")]) == 0
        args = cli._build_parser().parse_args(
            ["diagnose", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
             "--data", data, "--out", str(tmp_path / "d")])
        with pytest.raises(core.SpdViolation, match="^sample 1: ") as exc:
            args.func(args)
        assert exc.value.sample == 1


class TestBaseline:
    def test_help_names_the_options_each_method_reads(self, capsys):
        assert main(["baseline", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "read only by --method glasso" in text
        assert "glasso-cv picks lambda from this many log-spaced values" in text
        assert "(default 200)" in text
        assert "(default 1e-08)" in text

    @pytest.mark.parametrize("edit", [
        lambda m: {**m, "extra": 1},
        lambda m: {k: v for k, v in m.items() if k != "p"},
        lambda m: {**m, "p": "6"},
        lambda m: {**m, "num": 2.5},
        lambda m: {**m, "keep_samples": "no"},
        lambda m: [m],
    ], ids=["extra-key", "missing-p", "string-p", "float-num", "string-keep-samples",
            "list"])
    def test_malformed_meta_exits_2(self, tmp_path, small_data, edit, capsys):
        import shutil
        _, test = small_data
        bad = tmp_path / "bad"
        shutil.copytree(test, bad)
        meta = json.loads((bad / "meta.json").read_text())
        (bad / "meta.json").write_text(json.dumps(edit(meta)))
        code = main(["baseline", "--method", "lw", "--data", str(bad),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "meta.json" in capsys.readouterr().err

    def test_previous_format_exits_2_naming_tag_and_gen_data(self, tmp_path,
                                                             capsys):
        # the layout of one blob file per entry, which no reader is kept for
        old = tmp_path / "old"
        old.mkdir()
        meta = {"alpha": 0.9, "diag_boost": 0.1, "format": "SPODNET-DS-1",
                "keep_samples": False, "n": 30, "num": 1, "p": 6, "seed": 1}
        (old / "meta.json").write_text(json.dumps(meta))
        (old / "entry-00000.bin").write_bytes(np.eye(6).tobytes() * 2)
        code = main(["baseline", "--method", "glasso", "--data", str(old),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'SPODNET-DS-1'" in err and "regenerate" in err and "gen-data" in err

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

    @pytest.fixture
    def zero_data(self, tmp_path, small_data):
        """The p=6 test set with entry 1's samples and S zeroed: finite, and
        S + I = I is PD, so the dataset loads."""
        ds = datagen.load_dataset(small_data[1])
        ds.entries[1].samples[...] = 0.0
        ds.entries[1].s[...] = 0.0
        datagen.save_dataset(ds, tmp_path / "zero")
        return tmp_path / "zero"

    @pytest.mark.parametrize("method", ["lw", "oas"])
    def test_all_zero_samples_exit_4_naming_the_sample(self, tmp_path, zero_data,
                                                       method, capsys):
        # the shrunk covariance is 0, which has no inverse
        out = tmp_path / "x.json"
        code = main(["baseline", "--method", method, "--data", str(zero_data),
                     "--out", str(out)])
        assert code == 4
        assert "sample 1: matrix is not positive definite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["glasso", "glasso-cv"])
    def test_glasso_on_all_zero_sample_exits_4_naming_it(self, tmp_path, zero_data,
                                                         method, capsys):
        # S (or each fold's S) has a zero diagonal, which the solver rejects
        out = tmp_path / "x.json"
        code = main(["baseline", "--method", method, "--data", str(zero_data),
                     "--folds", "3", "--grid-size", "2", "--max-sweeps", "5",
                     "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "sample 1: covariance diagonal must be strictly positive" in err
        assert not out.exists()


class TestDiagnose:
    def test_trace_rows_and_audit(self, tmp_path, small_data, trained,
                                  monkeypatch):
        _, test = small_data
        out = tmp_path / "diag"
        # 2 does not divide the 3 samples: they are forwarded as two stacks,
        # and a chunk boundary falls between samples 1 and 2
        monkeypatch.setattr(training, "EVAL_BYTES", 2 * 8 * 6 * 6)
        code = main(["diagnose", "--checkpoint",
                     str(trained / "checkpoint.json"), "--data", str(test),
                     "--out", str(out)])
        assert code == 0
        with (out / "trace.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_id", "layer", "update", "pivot",
                           "min_eig", "max_diag", "cond"]
        # each row is the spectrum of its update's snapshot, bit for bit
        params, layer_cfg = models.load_checkpoint(trained / "checkpoint.json")
        expected = []
        for idx, entry in enumerate(datagen.load_dataset(test).entries):
            events = []
            models.forward(entry.s, params, layer_cfg, hook=events.append)
            for ev in events:
                lo, _, cond = linalg.eig_diagnostics(ev.theta_after)
                expected.append([str(idx), str(ev.layer), str(ev.i), str(ev.i),
                                 repr(float(lo)),
                                 repr(float(np.diag(ev.theta_after).max())),
                                 repr(float(cond))])
        assert len(expected) == 3 * 6  # samples * K * p
        assert rows[1:] == expected
        report = json.loads((out / "bauer_fike.json").read_text())
        assert report["violations"] == 0
        assert report["updates_checked"] == 3 * 6

    def test_one_spectrum_per_theta(self, tmp_path, small_data, trained,
                                    monkeypatch):
        # an update's theta_before is the previous one's theta_after, so each
        # theta is decomposed once, and the stack's starting theta once more
        _, test = small_data
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or eigvalsh(a))
        code = main(["diagnose", "--checkpoint",
                     str(trained / "checkpoint.json"), "--data", str(test),
                     "--out", str(tmp_path / "diag")])
        assert code == 0
        assert calls == [(3, 6, 6)] * (1 + 6)

    def test_update_counts_across_layers(self, tmp_path, small_data, trained):
        _, test = small_data
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["num_layers"] = 2
        ckpt = tmp_path / "two_layers.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "diag2"
        code = main(["diagnose", "--checkpoint", str(ckpt), "--data", str(test),
                     "--limit", "1", "--out", str(out)])
        assert code == 0
        with (out / "trace.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        p = 6
        assert [int(r["layer"]) for r in rows] == [0] * p + [1] * p
        assert [int(r["update"]) for r in rows] == list(range(2 * p))
        assert [int(r["pivot"]) for r in rows] == list(range(p)) * 2

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


@pytest.mark.parametrize("flags,rule", [
    (["train", "--epochs", "-1"], "epochs"),
    (["train", "--batch-size", "0"], "batch_size"),
    (["baseline", "--method", "glasso-cv", "--folds", "1"], "folds"),
    (["baseline", "--method", "glasso-cv", "--grid-size", "0"], "grid size"),
    (["baseline", "--method", "glasso-cv", "--grid-size", "-1"], "grid size"),
    (["train", "--lr", "inf"], "lr must be finite"),
    (["baseline", "--method", "glasso", "--lambda", "inf"], "lam must be finite"),
    (["baseline", "--method", "glasso-cv", "--tol", "inf"], "tol must be finite"),
], ids=["epochs", "batch-size", "folds", "grid-size-0", "grid-size-neg",
        "lr-inf", "lambda-inf", "tol-inf"])
def test_out_of_range_flag_exits_2(tmp_path, small_data, flags, rule, capsys):
    # each rule is owned by the config object or function the flag feeds
    train, test = small_data
    data = (["--train", str(train), "--test", str(test)] if flags[0] == "train"
            else ["--data", str(test)])
    out = tmp_path / "out"
    assert main(flags + data + ["--out", str(out)]) == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before its output location was checked")


class TestOutputLocationCheckedFirst:
    def test_train_out_naming_a_file_exits_3(self, tmp_path, small_data,
                                             monkeypatch):
        train, test = small_data
        out = tmp_path / "taken"
        out.write_text("")
        monkeypatch.setattr(training, "train", _must_not_run)
        assert main(["train", "--train", str(train), "--test", str(test),
                     "--out", str(out)]) == 3

    def test_train_creates_out_before_training(self, tmp_path, small_data,
                                               monkeypatch):
        train, test = small_data
        out = tmp_path / "new" / "run"
        seen = []

        def record(*args, **kwargs):
            seen.append(out.is_dir())
            return []

        monkeypatch.setattr(training, "train", record)
        assert main(["train", "--train", str(train), "--test", str(test),
                     "--out", str(out)]) == 0
        assert seen == [True]

    def test_eval_unwritable_out_exits_3(self, tmp_path, small_data, trained,
                                         monkeypatch, capsys):
        _, test = small_data
        monkeypatch.setattr(training, "evaluate", _must_not_run)
        for out, why in ((tmp_path / "no" / "e.json", "no directory"),
                         (tmp_path, "is a directory")):
            code = main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                         "--data", str(test), "--out", str(out)])
            assert code == 3
            assert why in capsys.readouterr().err

    @pytest.mark.parametrize("method, work", [
        ("glasso", "glasso_solve"), ("glasso-cv", "glasso_cv"),
        ("lw", "ledoit_wolf"), ("oas", "oas")])
    def test_baseline_missing_out_directory_exits_3(self, tmp_path, small_data,
                                                    monkeypatch, method, work):
        _, test = small_data
        monkeypatch.setattr(baselines, work, _must_not_run)
        code = main(["baseline", "--method", method, "--data", str(test),
                     "--out", str(tmp_path / "no" / "b.json")])
        assert code == 3


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

    def test_config_without_a_value_exits_2(self, capsys):
        # returned, not raised: an in-process caller gets the exit code
        assert main(["--config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: spodnet ")
        assert "--config: expected one argument" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # "sed" names no option; "lr" names one of train, which gen-data
        # ignores, so one file can serve several subcommands
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 4, "n": 5, "num": 1, "alpha": 0.5,
                                   "sed": 3, "lr": 0.1, "out": str(tmp_path / "ds")}))
        assert main(["--config", str(cfg), "gen-data"]) == 2
        assert "'sed'" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()
        doc = json.loads(cfg.read_text())
        del doc["sed"]
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), "gen-data"]) == 0

    @pytest.mark.parametrize("key,flag,value", [
        ("lambda", "--lambda", 0.2), ("lam", "--lambda", 0.2),
        ("max-sweeps", "--max-sweeps", 3), ("max_sweeps", "--max-sweeps", 3),
    ])
    def test_key_names_flag_or_destination(self, tmp_path, small_data, key, flag, value):
        _, test = small_data
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        from_file, from_flag = tmp_path / "file.json", tmp_path / "flag.json"
        assert main(["--config", str(cfg), "baseline", "--method", "glasso",
                     "--data", str(test), "--out", str(from_file)]) == 0
        assert main(["baseline", "--method", "glasso", flag, str(value),
                     "--data", str(test), "--out", str(from_flag)]) == 0
        assert from_file.read_text() == from_flag.read_text()
        default = tmp_path / "default.json"
        assert main(["baseline", "--method", "glasso", "--data", str(test),
                     "--out", str(default)]) == 0
        assert from_file.read_text() != default.read_text()

    @pytest.mark.parametrize("key, command", [
        ("method", "baseline"), ("data", "baseline"), ("train", "train"),
        ("test", "train"), ("checkpoint", "eval"), ("out", "eval")])
    def test_required_option_from_file(self, tmp_path, small_data, trained,
                                       key, command, capsys):
        train, test = small_data
        options = {"baseline": {"method": "lw", "data": test},
                   "train": {"train": train, "test": test, "epochs": 1},
                   "eval": {"checkpoint": trained / "checkpoint.json",
                            "data": test}}[command]

        def run(tag, file_value, flag_value, config_after=False):
            """``command`` with ``key`` from the file and the flag (None
            leaves it out) and the other options as flags; its exit code."""
            opts = {**options, "out": tmp_path / tag, key: flag_value}
            flags = [t for k, v in opts.items() if v is not None
                     for t in (f"--{k}", str(v))]
            cfg = tmp_path / f"{tag}.json"
            cfg.write_text(json.dumps({} if file_value is None
                                      else {key: str(file_value)}))
            head = [command, "--config", str(cfg)] if config_after else \
                ["--config", str(cfg), command]
            return main(head + flags)

        def value(tag):  # the option's value in the run named ``tag``
            return tmp_path / tag if key == "out" else options[key]

        def written(tag):
            out = tmp_path / tag
            return _read_tree(out) if out.is_dir() else out.read_bytes()

        assert run("flag", None, value("flag")) == 0
        assert run("file", value("file"), None) == 0
        assert written("file") == written("flag")
        # a flag typed after the file wins
        decoy = "oas" if key == "method" else tmp_path / "decoy"
        assert run("both", decoy, value("both")) == 0
        assert written("both") == written("flag")
        assert not (tmp_path / "decoy").exists()
        capsys.readouterr()
        assert run("neither", None, None) == 2
        assert f"required: --{key}" in capsys.readouterr().err
        # --config is read only before the subcommand
        assert run("after", value("after"), value("after"), config_after=True) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_plain_calls_reuse_one_parser(self, tmp_path, monkeypatch):
        cli._plain_parsers()  # built once per process, maybe by an earlier test
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser",
                            lambda *a: built.append(a) or build(*a))
        for j in range(2):
            assert main(["gen-data", "--p", "3", "--n", "4", "--num", "1",
                         "--out", str(tmp_path / f"ds{j}")]) == 0
        assert built == []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 3}))
        assert main(["--config", str(cfg), "gen-data", "--n", "4", "--num", "1",
                     "--out", str(tmp_path / "ds_cfg")]) == 0
        # a --config call reads the file's values as flags through the same parser
        assert built == []

    def test_file_defaults_do_not_reach_a_later_call(self, tmp_path, small_data,
                                                     monkeypatch):
        train, test = small_data
        epochs = []

        def fake_train(params, train_entries, test_entries, cfg, layer_cfg):
            epochs.append(cfg.epochs)
            return []
        monkeypatch.setattr(training, "train", fake_train)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3}))
        flags = ["train", "--train", str(train), "--test", str(test)]
        assert main(["--config", str(cfg)] + flags + ["--out", str(tmp_path / "a")]) == 0
        assert main(flags + ["--out", str(tmp_path / "b")]) == 0
        assert epochs == [3, 10]

    @pytest.mark.parametrize("doc", [
        {"epochs": 1.5}, {"p": 2.5}, {"batch_size": True}, {"keep_samples": 1},
        {"no_stabilizer": "yes"}, {"model": "xyz"}, {"out": 5}])
    def test_mistyped_value_exits_2(self, tmp_path, small_data, doc, capsys):
        # argparse converts only string defaults, so a file value must go
        # through its option's type (and choices) as the flag's text would
        train, test = small_data
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for command in (["gen-data", "--n", "5", "--num", "1"],
                        ["train", "--train", str(train), "--test", str(test)]):
            assert main(["--config", str(cfg), *command,
                         "--out", str(tmp_path / "out")]) == 2
            assert f"error: --config: {next(iter(doc))}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"p": 4}]))
        assert main(["--config", str(cfg), "gen-data"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_exits_3(self):
        assert main(["--config", "/nonexistent/cfg.json", "gen-data"]) == 3

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2


def test_option_surface():
    # the long options of the command line; a change that adds or drops one
    # edits this table
    parser = cli._plain_parsers()[1]
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    surface = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
               for name, p in [("spodnet", parser), *commands.items()]}
    assert surface == {
        "spodnet": {"--help", "--config"},
        "gen-data": {"--help", "--p", "--n", "--num", "--alpha", "--diag-boost",
                     "--seed", "--keep-samples", "--out"},
        "train": {"--help", "--model", "--train", "--test", "--epochs", "--lr",
                  "--batch-size", "--zeta", "--layers", "--seed", "--no-stabilizer",
                  "--tape-mode", "--out"},
        "eval": {"--help", "--checkpoint", "--data", "--out"},
        "baseline": {"--help", "--method", "--data", "--out", "--lambda", "--folds",
                     "--grid-size", "--max-sweeps", "--tol"},
        "diagnose": {"--help", "--checkpoint", "--data", "--out", "--zeta", "--limit"},
    }


def test_defaults_are_the_config_classes():
    # each option that sets a config field defaults to that field
    parser = cli._plain_parsers()[1]
    gen = parser.parse_args(["gen-data", "--out", "x"])
    train = parser.parse_args(["train", "--train", "a", "--test", "b", "--out", "x"])
    base = parser.parse_args(["baseline", "--method", "glasso", "--data", "a",
                              "--out", "x"])
    gen_cfg, train_cfg = datagen.GenConfig, training.TrainConfig
    layer_cfg, glasso_cfg = core.LayerConfig, baselines.GlassoConfig
    pairs = {
        "gen-data --diag-boost": (gen.diag_boost, gen_cfg.diag_boost),
        "gen-data --seed": (gen.seed, gen_cfg.seed),
        "train --epochs": (train.epochs, train_cfg.epochs),
        "train --lr": (train.lr, train_cfg.lr),
        "train --batch-size": (train.batch_size, train_cfg.batch_size),
        "train --seed": (train.seed, train_cfg.seed),
        "train --zeta": (train.zeta, layer_cfg.zeta),
        "train --layers": (train.layers, layer_cfg.num_layers),
        "train --tape-mode": (train.tape_mode, layer_cfg.tape_mode),
        "baseline --lambda": (base.lam, glasso_cfg.lam),
        "baseline --max-sweeps": (base.max_sweeps, glasso_cfg.max_sweeps),
        "baseline --tol": (base.tol, glasso_cfg.tol),
    }
    assert ({k: cli_value for k, (cli_value, _) in pairs.items()}
            == {k: field for k, (_, field) in pairs.items()})
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    tape_mode = next(a for a in commands["train"]._actions if a.dest == "tape_mode")
    assert tuple(tape_mode.choices) == core.TAPE_MODES


def test_gen_data_io_failure_exits_3():
    code = main(["gen-data", "--p", "4", "--n", "5", "--num", "1",
                 "--alpha", "0.5", "--out", "/proc/definitely/not/writable"])
    assert code == 3


def test_invalid_solver_config_exits_2(tmp_path, small_data):
    _, test = small_data
    code = main(["baseline", "--method", "glasso", "--max-sweeps", "0",
                 "--data", str(test), "--out", str(tmp_path / "x.json")])
    assert code == 2
