"""Benchmark of the spodnet CLI on two workloads (see ``workloads.py``).

Run from the repository root:

    python3 bench/run.py --workload train-ubg-p20 --seed 0 --seconds 55 --trace 0

One run:

1. builds the workload's inputs ``SETUP_REPS`` times, each in a fresh
   process (``setup_inputs.py``), and reports the median time of those
   processes, in reference seconds (below), as ``setup_s``;
2. calls ``spodnet.cli.main(argv)`` in this process, one call after another
   (a closed loop with one client), for about ``--seconds`` seconds and at
   least ``MIN_OPS`` calls, and times a fixed host-speed kernel
   (``kernel_seconds``) before the first call and after each one;
3. checks every call: it fails if it exits nonzero or if any output number
   leaves the stored reference by more than its field's tolerance
   (``reference.py``);
4. prints a line ``{"info": ...}`` with the machine, the per-call times and
   any failures, then, as the last line, the result object.

With ``--trace 0`` the metrics are the end-to-end figures:
``matrices_per_ref_s``, ``setup_s``, the peak RSS of this process
(which runs only this workload), and the ``nmse``/``f1`` aggregates the
command writes. With ``--trace 1`` the first half of the time runs
untraced and the second half with spans around every spodnet module
(``tracing.py``); the metrics are the per-layer figures plus the tracing
overhead, traced minus untraced ``matrices_per_ref_s``.

``matrices_per_ref_s`` is the matrices of all calls over their summed
time in reference seconds. A span of wall time in reference seconds is its
wall seconds times ``KERNEL_REF_S`` over the time of a fixed single-threaded
kernel measured just before and just after it (``kernel_seconds``). On a
shared host the speed of this machine's cores drifts by 10-40% over tens of
seconds, for the workloads and the kernel alike, so wall-clock throughput
of the same code spread past 25% of its median between runs, and set-up
time with it; reference seconds take that drift out. The kernel is the
benchmark's own code, so a change to spodnet moves only the spans it
scales. The unscaled ``matrices_per_s`` and set-up seconds are in the
``info`` line.

``OPENBLAS_NUM_THREADS`` is set to 1 and recorded, because the OpenBLAS
pool cannot be pinned from Python without threadpoolctl. Work files go to
``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
MIN_OPS = 3
SETUP_TIMEOUT_S = 120
KERNEL_REPS = 10000
# the kernel's median time on the 2-core Xeon host the benchmark was made
# on, so reference seconds read close to wall seconds there
KERNEL_REF_S = 0.1


class SetupError(RuntimeError):
    pass


def prepare_environment() -> None:
    """Pin BLAS threads and make the package importable; call before the
    first numpy import."""
    if not (SRC / "spodnet" / "__init__.py").is_file():
        raise SetupError(f"no spodnet sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def set_up(wl, inputs: Path) -> dict:
    """Build the inputs in a fresh process; returns its wall time as
    ``seconds``, the kernel time around it as ``kernel_s``, and the layer
    figures it reports."""
    shutil.rmtree(inputs, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "setup_inputs.py"), "--workload", wl.name,
           "--out", str(inputs)]
    before = kernel_seconds()
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    seconds = perf_counter() - t0
    kernel_s = (before + kernel_seconds()) / 2
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return {"seconds": seconds, "kernel_s": kernel_s,
            **json.loads(proc.stdout.strip().splitlines()[-1])}


def shuffle_inputs(wl, inputs: Path, seed: int) -> list[int] | None:
    """Rewrite the shuffled datasets of ``wl`` with their matrices in the
    seed's order; returns that order (generation index per position)."""
    from spodnet import datagen

    order = None
    for ds in wl.datasets:
        if ds.shuffled:
            order = random.Random(seed).sample(range(ds.num), ds.num)
            data = datagen.load_dataset(inputs / ds.name)
            data.entries = [data.entries[i] for i in order]
            datagen.save_dataset(data, inputs / ds.name)
    return order


def kernel_seconds() -> float:
    """Wall time of a fixed kernel of small numpy operations and interpreter
    work, the workloads' kind of work: the host's speed right now."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 400).reshape(20, 20)
    b = a.T.copy()
    acc = 0.0
    t0 = perf_counter()
    for _ in range(KERNEL_REPS):
        acc += float(np.sqrt(np.abs((a @ b)[3:9, 2:7] + 1.0)).sum())
        acc += [j * 0.5 for j in range(20)][-1]
    return perf_counter() - t0


@dataclass
class Call:
    seconds: float
    # mean kernel time just before and just after the call
    kernel_s: float
    outputs: dict | None
    problems: list[str] = field(default_factory=list)


class Runner:
    """Makes the workload's CLI calls and checks their outputs against
    ``reference`` (the stored file's contents), if given. ``order`` is the
    generation index of each matrix position in the shuffled dataset."""

    def __init__(self, wl, inputs: Path, out: Path, reference: dict | None,
                 order: list[int] | None = None):
        from spodnet import cli

        self.cli = cli
        self.wl = wl
        self.inputs = inputs
        self.out = out
        self.reference = reference
        self.order = order
        self.calls: list[Call] = []
        self.last_kernel_s: float | None = None

    def op(self, wrap=None) -> Call:
        """One timed call of the workload's command."""
        argv = self.wl.op_argv(self.inputs, self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        before = self.last_kernel_s or kernel_seconds()
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0 = perf_counter()
            try:
                code = wrap(lambda: self.cli.main(argv)) if wrap else self.cli.main(argv)
            except Exception:  # a crash is a failed call, not a failed run
                traceback.print_exc()
                code = None
            seconds = perf_counter() - t0
        self.last_kernel_s = kernel_seconds()
        call = Call(seconds, (before + self.last_kernel_s) / 2, None)
        if code != 0:
            tail = log.getvalue().strip().splitlines()[-3:]
            call.problems.append(f"exit code {code}: {' | '.join(tail)}")
        else:
            try:
                call.outputs = self.wl.read_outputs(self.out, self.order)
            except (OSError, ValueError, KeyError) as exc:
                call.problems.append(f"unreadable outputs: {exc!r}")
        if call.outputs is not None and self.reference is not None:
            call.problems += reference.mismatches(
                call.outputs, self.reference["op"], reference.tolerances(self.reference))
        self.calls.append(call)
        return call

    def loop(self, seconds: float, min_ops: int, wrap=None) -> list[Call]:
        """Calls until ``seconds`` would be exceeded by one more call of the
        median length, and at least ``min_ops`` calls."""
        calls = []
        start = perf_counter()
        while True:
            calls.append(self.op(wrap))
            elapsed = perf_counter() - start
            typical = statistics.median(c.seconds for c in calls)
            if len(calls) >= min_ops and elapsed + typical > seconds:
                return calls


def matrices_per_s(wl, calls: list[Call]) -> float:
    """Matrices per second of command wall time, over all ``calls``."""
    return wl.matrices_per_op * len(calls) / sum(c.seconds for c in calls)


def ref_seconds(seconds: float, kernel_s: float) -> float:
    return seconds * KERNEL_REF_S / kernel_s


def matrices_per_ref_s(wl, calls: list[Call]) -> float:
    """Matrices per reference second, over all ``calls``."""
    total = sum(ref_seconds(c.seconds, c.kernel_s) for c in calls)
    return wl.matrices_per_op * len(calls) / total


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        # baseline sizes its pool by os.cpu_count()
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info)."""
    wl = WORKLOADS[workload]
    base = WORK / wl.name
    inputs = base / "inputs"
    setups = [set_up(wl, inputs) for _ in range(SETUP_REPS)]
    order = shuffle_inputs(wl, inputs, seed)
    runner = Runner(wl, inputs, base / "out", reference.load(wl.name), order)
    spans = base / f"spans-seed{seed}.csv.gz" if trace else None
    result, info = measure(runner, seconds, setups, spans)
    return result, {"workload": wl.name, "seed": seed, "machine": machine_info(), **info}


def measure(runner: Runner, seconds: float, setups: list[dict],
            spans: Path | None = None) -> tuple[dict, dict]:
    """Time the runner's calls and build the result; traced (spans written
    to ``spans``) when ``spans`` is given."""
    wl = runner.wl
    if spans is None:
        timed = runner.loop(seconds, min_ops=MIN_OPS)
        last = next((c.outputs for c in reversed(timed) if c.outputs is not None), None)
        nmse, f1 = wl.quality(last)
        metrics = {
            "matrices_per_ref_s": matrices_per_ref_s(wl, timed),
            "setup_s": statistics.median(ref_seconds(s["seconds"], s["kernel_s"])
                                         for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "nmse": nmse,
            "f1": f1,
        }
    else:
        import tracing

        untraced = runner.loop(seconds / 2, min_ops=1)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = runner.loop(seconds / 2, min_ops=1, wrap=tracer.op)
        finally:
            tracer.uninstall()
        timed = untraced + traced
        metrics = tracing.layer_metrics(tracer, len(traced),
                                        len(traced) * wl.matrices_per_op)
        metrics["datagen.build_dataset_s"] = statistics.median(
            s["datagen.build_dataset_s"] for s in setups)
        before = matrices_per_ref_s(wl, untraced)
        after = matrices_per_ref_s(wl, traced)
        metrics["trace.untraced_matrices_per_ref_s"] = before
        metrics["trace.traced_matrices_per_ref_s"] = after
        metrics["trace.overhead_matrices_per_ref_s"] = after - before
        tracer.write(spans)

    failed = [c for c in runner.calls if c.problems]
    result = {
        "correct": not failed,
        "attempted": len(runner.calls),
        "failed": len(failed),
        "metrics": metrics,
    }
    info = {
        "trace": spans is not None,
        "failed_frac": len(failed) / len(runner.calls),
        "failures": [c.problems for c in failed][:5],
        "matrices_per_s": matrices_per_s(wl, timed),
        "call_seconds": [c.seconds for c in timed],
        "kernel_seconds": [c.kernel_s for c in timed],
        "setup_seconds": [s["seconds"] for s in setups],
        "setup_kernel_seconds": [s["kernel_s"] for s in setups],
        "spans": str(spans) if spans else None,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spodnet CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare_environment()
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    result["metrics"] = {k: {"value": v, "unit": unit_of[k]}
                         for k, v in result["metrics"].items()}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"result": result, "info": info}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
