"""Tests of the benchmark itself, on tiny versions of every workload.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run.prepare_environment()

import setup_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUPS = [{"seconds": 1.0, "kernel_s": run.KERNEL_REF_S, "datagen.build_dataset_s": 0.5}]


def tiny(wl):
    """The same workload at p=6 with a handful of matrices."""
    return replace(wl, datasets=tuple(
        replace(d, p=6, n=30, num=3) for d in wl.datasets))


@pytest.fixture(params=sorted(WORKLOADS))
def tiny_runner(request, tmp_path):
    wl = tiny(WORKLOADS[request.param])
    setup_inputs.build_inputs(wl, tmp_path / "inputs")
    return run.Runner(wl, tmp_path / "inputs", tmp_path / "out", reference=None)


def _reference_of(runner):
    """A reference of the runner's own outputs, every field at the floor
    tolerance."""
    outputs = runner.op().outputs
    return {"op": outputs,
            "sensitivity": {"by_field": reference.rel_change_by_field(outputs, outputs)}}


def _perturb_first_float(doc, rel):
    for key, value in sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, float) and value != 0.0:
            doc[key] = value * (1.0 + rel)
            return True
        if isinstance(value, (dict, list)) and _perturb_first_float(value, rel):
            return True
    return False


def test_tiny_workload_passes_its_own_reference_in_any_order(tiny_runner):
    tiny_runner.reference = _reference_of(tiny_runner)
    assert all(c.outputs is not None and not c.problems for c in tiny_runner.calls)
    assert tiny_runner.op().problems == []
    tiny_runner.order = run.shuffle_inputs(tiny_runner.wl, tiny_runner.inputs, seed=1)
    assert tiny_runner.order != sorted(tiny_runner.order)
    assert tiny_runner.op().problems == []


def test_reference_gate_fails_a_perturbed_output(tiny_runner):
    ref = _reference_of(tiny_runner)
    assert _perturb_first_float(ref["op"], 10 * max(reference.tolerances(ref).values()))
    tiny_runner.reference = ref
    call = tiny_runner.op()
    assert call.problems and "vs reference" in call.problems[0]


def test_nonzero_exit_counts_as_failed(tiny_runner, monkeypatch):
    monkeypatch.setattr(tiny_runner.cli, "main", lambda argv: 4)
    result, info = run.measure(tiny_runner, 0.0, SETUPS)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_OPS
    assert info["failed_frac"] == 1.0
    assert "exit code 4" in info["failures"][0][0]


def test_metrics_match_benchmark_json(tiny_runner, tmp_path):
    result, info = run.measure(tiny_runner, 0.0, SETUPS)
    assert result["correct"], info["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())

    result, info = run.measure(tiny_runner, 0.0, SETUPS, tmp_path / "spans.csv.gz")
    assert result["correct"], info["failures"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cli.self_s"] > 0 and metrics["datagen.load_dataset_s"] > 0
    command = tiny_runner.wl.command
    ran = {
        "train": ("autodiff.backward_s", "autodiff.tape_nodes_per_matrix",
                  "autodiff.apply_op_calls_per_matrix", "training.adam_step_s",
                  "training.evaluate_s", "models.f_s", "models.g_s",
                  "models.mlp_calls_per_matrix", "models.margin_min",
                  "core.layer_s", "core.layer_self_s", "core.stabilize_s",
                  "core.validate_s"),
        "glasso-cv": ("baselines.glasso_solve_s", "baselines.sweeps_per_solve",
                      "baselines.gista_steps_per_block", "linalg.cholesky_calls",
                      "linalg.spd_inverse_calls", "core.block_np_s"),
    }[command]
    assert all(metrics[name] > 0 for name in ran), {n: metrics[n] for n in ran}
    if command == "glasso-cv":
        # CLI defaults: 5 folds x 10 penalties plus the refit
        assert metrics["baselines.glasso_solve_calls_per_matrix"] == 51
        assert metrics["autodiff.apply_op_calls_per_matrix"] == 0


def test_tracing_is_removed_after_the_traced_run(tiny_runner, tmp_path):
    from spodnet import autodiff, core, models

    before = (autodiff.apply_op, core.apply_op, models.make_update_fns,
              models.Mlp.__call__, core.SpdState.validate)
    run.measure(tiny_runner, 0.0, SETUPS, tmp_path / "spans.csv.gz")
    assert before == (autodiff.apply_op, core.apply_op, models.make_update_fns,
                      models.Mlp.__call__, core.SpdState.validate)


def test_mismatches_within_and_beyond_tolerance():
    ref = {"a": [1.0, 2.0], "b": True, "c": 3}
    rtols = {"/a[]": 1e-8, "/b": 0.0, "/c": 0.0}
    assert reference.mismatches({"a": [1.0 + 1e-9, 2.0], "b": True, "c": 3},
                                ref, rtols, atol=0.0) == []
    assert reference.mismatches({"a": [1.0 + 1e-7, 2.0], "b": True, "c": 3},
                                ref, rtols, atol=0.0)
    assert reference.mismatches({"a": [1.0, 2.0], "b": False, "c": 3},
                                ref, rtols, atol=0.0)
    assert reference.mismatches({"a": [1.0], "b": True, "c": 3},
                                ref, rtols, atol=0.0)
    assert reference.mismatches({"a": [1.0, float("nan")], "b": True, "c": 3},
                                ref, rtols, atol=0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tolerances_exceed_the_measured_sensitivity(name):
    doc = reference.load(name)
    by_field = doc["sensitivity"]["by_field"]
    assert set(by_field) == set(reference.rel_change_by_field(doc["op"], doc["op"]))
    rtols = reference.tolerances(doc)
    for field, change in by_field.items():
        assert change < rtols[field] < 1.0, field
    assert reference.mismatches(doc["op"], doc["op"], rtols) == []


def test_gate_fails_a_small_shift_of_nmse():
    # a speed-up that quietly changes the estimate, e.g. a looser glasso
    # stop, must fail even when it moves nmse by far less than 1%
    doc = reference.load("glasso-cv-p20")
    rtols = reference.tolerances(doc)
    nmse_col = workloads._ROW_FIELDS.index("nmse")
    shifted = json.loads(json.dumps(doc["op"]))
    for row in shifted["samples"]:
        row[nmse_col] *= 1.001
    assert reference.mismatches(shifted, doc["op"], rtols)
    shifted = json.loads(json.dumps(doc["op"]))
    shifted["aggregates"]["nmse"] *= 1.001
    assert reference.mismatches(shifted, doc["op"], rtols)


def test_cholesky_inside_spd_inverse_is_not_counted():
    import numpy as np
    from spodnet import linalg

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        a = np.eye(3) * 2.0
        tracer.op(lambda: linalg.spd_inverse(a))
        tracer.op(lambda: linalg.cholesky(a))
    finally:
        tracer.uninstall()
    calls = [s[2] for s in tracer.spans()]
    assert calls.count("linalg.spd_inverse") == 1
    assert calls.count("linalg.cholesky") == 1


def test_tracer_under_threads_loses_no_update():
    tracer = tracing.Tracer()
    counted = tracer.counted(lambda: None, "calls")
    timed = tracer.timed(lambda: counted(), "span")
    workers, per_worker = 8, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(per_worker):
                timed()

        def op():
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        tracer.op(op)
    finally:
        sys.setswitchinterval(old)
    spans = tracer.spans()
    root = [s for s in spans if s[2] == "op"]
    assert tracer.counts()["calls"] == workers * per_worker
    assert len(spans) == workers * per_worker + 1
    assert all(s[1] == root[0][0] for s in spans if s[2] == "span")
    assert tracer.self_time()["op"] <= root[0][4] - root[0][3]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "train-ubg-p20", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_kernel_scaling_cancels_a_uniform_slowdown():
    wl = WORKLOADS["train-ubg-p20"]
    calls = [run.Call(2.0, 0.1, None), run.Call(3.0, 0.15, None)]
    slowed = [run.Call(1.4 * c.seconds, 1.4 * c.kernel_s, None) for c in calls]
    steady = run.matrices_per_ref_s(wl, calls)
    assert run.matrices_per_ref_s(wl, slowed) == pytest.approx(steady)
    assert steady == pytest.approx(2 * wl.matrices_per_op / (40 * run.KERNEL_REF_S))
    assert run.matrices_per_s(wl, slowed) == pytest.approx(2 * wl.matrices_per_op / 7.0)
