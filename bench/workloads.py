"""The benchmark's workloads: the inputs each one generates, the CLI call it
times, and how that call's outputs are read back for the reference gate.

Every workload drives one of the CLI paths users run, with the CLI's own
defaults; ``--threads`` is never passed. The two workloads together cover
every traced layer: train runs autodiff, models, core, linalg and
training; glasso-cv runs baselines, core's numpy block helpers and linalg's
per-sweep factorizations.

The matrices are fixed: ``gen-data --alpha 0.95`` with the seeds the
acceptance suite already uses (100 for training data, 200 for test data),
none chosen by screening, and the ``ubg`` model init with seed 5. The run's
``--seed`` shuffles the order of the matrices in every dataset a call reads,
except the training set, whose order decides the trained model. The work
per call is therefore the same for every seed, so the spread between runs
is measurement noise (glasso-cv's cost differs by about 25% between
gen-data seeds 200-203, which would swamp it), and each call is checked
against one stored reference after its per-sample outputs are put back in
generation order. That check also shows whether a sample's result depends
on its position in the dataset.

Sizes keep several calls in each run: one epoch on 200 training matrices
with its 20-matrix test evaluation, and one matrix for glasso-cv. Both
calls run on one core: train always does, and on a single matrix
glasso-cv's default pool of ``os.cpu_count()`` workers does not start.
That matches the single-threaded host-speed kernel ``run.py`` scales call
times by. With two matrices, glasso-cv's two pool threads slowed far less
than the kernel in a busy spell of the host, and the scaled figure
overshot by 70%.

``eval`` and ``diagnose`` are not workloads. On a shared 2-core host the
speed of every workload drifts by 10-40% over tens of seconds, so a run
must be long to be steady, and the time budget for all runs allows 55 s
runs with two workloads but only 40 s with three. ``eval`` at p=100, with
its two pool threads, spread by up to 25% of its median between 40 s runs
of the same code.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

MODEL = "ubg"
MODEL_SEED = 5
ALPHA = "0.95"


@dataclass(frozen=True)
class Dataset:
    """One ``gen-data`` call of a workload's set-up."""

    name: str
    p: int
    n: int
    num: int
    seed: int
    keep_samples: bool = False
    shuffled: bool = True

    def argv(self, root: Path) -> list[str]:
        argv = ["gen-data", "--p", str(self.p), "--n", str(self.n),
                "--num", str(self.num), "--alpha", ALPHA, "--seed", str(self.seed),
                "--out", str(root / self.name)]
        if self.keep_samples:
            argv.append("--keep-samples")
        return argv


@dataclass(frozen=True)
class Workload:
    """A timed CLI call and the inputs it needs."""

    name: str
    command: str
    datasets: tuple[Dataset, ...]

    @property
    def matrices_per_op(self) -> int:
        # train counts training matrices; glasso-cv counts its one dataset
        return self.datasets[0].num

    def op_argv(self, inputs: Path, out: Path) -> list[str]:
        """The timed call: one ``spodnet.cli.main(argv)``."""
        if self.command == "train":
            return ["train", "--model", MODEL, "--seed", str(MODEL_SEED),
                    "--epochs", "1", "--train", str(inputs / "train"),
                    "--test", str(inputs / "test"), "--out", str(out)]
        if self.command == "glasso-cv":
            return ["baseline", "--method", "glasso-cv",
                    "--data", str(inputs / "data"), "--out", str(out / "cv.json")]
        raise ValueError(f"unknown command {self.command!r}")

    def read_outputs(self, out: Path, order: list[int] | None = None) -> dict:
        """The call's outputs as plain JSON values, for the reference gate.

        ``order[j]`` is the generation index of the dataset's ``j``-th
        matrix; per-sample outputs are returned in generation order.
        """
        if self.command == "train":
            return {"checkpoint": _read_checkpoint(out / "checkpoint.json"),
                    "metrics": _read_metrics_csv(out / "metrics.csv")}
        outputs = _read_report(out / "cv.json")
        if order is not None:
            rows = outputs["samples"]
            outputs["samples"] = [rows[j] for j in sorted(range(len(order)),
                                                          key=order.__getitem__)]
        return outputs

    def quality(self, outputs: dict | None) -> tuple[float, float]:
        """(nmse, f1) as the command itself reports them; NaN if missing."""
        if outputs is None:
            return float("nan"), float("nan")
        if self.command == "train":
            return outputs["metrics"]["test_nmse"], outputs["metrics"]["test_f1"]
        return outputs["aggregates"]["nmse"], outputs["aggregates"]["f1"]


def _read_checkpoint(path: Path) -> dict:
    import base64
    import struct

    doc = json.loads(path.read_text())
    params = {}
    for rec in doc.pop("params"):
        raw = base64.b64decode(rec["data"])
        params[rec["name"]] = list(struct.unpack(f"<{len(raw) // 8}d", raw))
    doc["params"] = params
    return doc


def _read_metrics_csv(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]
    return {k: (int(v) if k == "epoch" else float(v)) for k, v in last.items()}


_ROW_FIELDS = ("nmse", "f1", "min_eig", "cond", "density", "spd")


def _read_report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    return {"method": doc["method"],
            "samples": [[row[f] for f in _ROW_FIELDS] for row in doc["samples"]],
            "aggregates": doc["aggregates"]}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-ubg-p20", command="train",
        datasets=(Dataset("train", p=20, n=100, num=200, seed=100, shuffled=False),
                  Dataset("test", p=20, n=100, num=20, seed=200))),
    Workload(
        name="glasso-cv-p20", command="glasso-cv",
        datasets=(Dataset("data", p=20, n=100, num=1, seed=200,
                          keep_samples=True),)),
)}
