"""Spans and counters around the public functions of each spodnet module.

The traced run patches module and class attributes at the boundaries the
code actually calls through; the sources under ``src/`` stay untouched.
Spans (name, start, end, parent) and counters are kept per thread, so the
CLI's default thread pool records without locks; busy time summed over
threads may exceed wall time. Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[tuple[int, str]] = []  # open spans: (id, name)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.minima: dict[str, float] = {}


class Tracer:
    """Per-thread span and counter store plus the patches that feed it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        # parent of spans opened on a thread with no open span: the span of
        # the CLI call in progress, so pool-thread spans attach to it
        self.root = 0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    # -- recording ---------------------------------------------------------

    def timed(self, fn, name: str):
        """``fn`` wrapped in a span called ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent = st.stack[-1][0] if st.stack else self.root
            st.stack.append((sid, name))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.spans.append((sid, parent, name, t0, t1))
        return wrapper

    def counted(self, fn, name: str):
        """``fn`` wrapped in a call counter called ``name`` (no span)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def current(self) -> str | None:
        """The name of this thread's innermost open span."""
        stack = self._state().stack
        return stack[-1][1] if stack else None

    def add(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    def minimum(self, name: str, value: float) -> None:
        minima = self._state().minima
        if value < minima.get(name, float("inf")):
            minima[name] = value

    def op(self, fn):
        """Run ``fn()`` as a root span named ``op``; spans opened on other
        threads meanwhile become its children."""
        sid = next(self._ids)
        self.root = sid
        st = self._state()
        st.stack.append((sid, "op"))
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            st.stack.pop()
            st.spans.append((sid, 0, "op", t0, t1))
            self.root = 0

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def spans(self) -> list[tuple]:
        return [s + (st.index,) for st in self._states for s in st.spans]

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for st in self._states:
            for k, v in st.counts.items():
                out[k] += v
        return out

    def minima(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._states:
            for k, v in st.minima.items():
                out[k] = min(v, out.get(k, v))
        return out

    def busy(self) -> dict[str, float]:
        """Summed span durations per name, over all threads."""
        out: dict[str, float] = defaultdict(float)
        for _, _, name, t0, t1, _ in self.spans():
            out[name] += t1 - t0
        return out

    def self_time(self) -> dict[str, float]:
        """Per name: span durations minus the part of each span's interval
        that its direct children (on any thread) cover."""
        spans = self.spans()
        children: dict[int, list] = defaultdict(list)
        for _, parent, _, t0, t1, _ in spans:
            children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1, _ in spans:
            out[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "name", "start", "end", "thread"))
            writer.writerows(self.spans())


def _covered(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def install(tracer: Tracer) -> None:
    """Patch every traced boundary of the spodnet package."""
    from spodnet import autodiff, baselines, core, datagen, linalg, models, training

    t = tracer
    # core binds apply_op by name, so both module attributes are patched;
    # apply_op runs ~38 times per column, so it is counted without spans
    apply_op = t.counted(autodiff.apply_op, "autodiff.apply_op")
    t.patch(autodiff, "apply_op", apply_op)
    t.patch(core, "apply_op", apply_op)

    backward = t.timed(autodiff.Tape.backward, "autodiff.backward")

    def tape_backward(self, loss):
        t.add("autodiff.tape_nodes", len(self.nodes))
        return backward(self, loss)
    t.patch(autodiff.Tape, "backward", tape_backward)

    # models.forward looks make_update_fns up as a module global, but the
    # variant table holds the original f maps, so f/g are timed by
    # wrapping the UpdateFns that make_update_fns returns
    make_update_fns = models.make_update_fns

    def traced_update_fns(params):
        fns = make_update_fns(params)
        g = t.timed(fns.g, "models.g")

        def margin(ctx, u, schur_quad):
            v = g(ctx, u, schur_quad)
            t.minimum("models.margin_min", float(v.data.min()))
            return v
        return dataclasses.replace(fns, f=t.timed(fns.f, "models.f"), g=margin)
    t.patch(models, "make_update_fns", traced_update_fns)
    t.patch(models.Mlp, "__call__", t.counted(models.Mlp.__call__, "models.mlp_calls"))

    t.patch(core, "spodnet_layer", t.timed(core.spodnet_layer, "core.layer"))
    for attr, name in (("theta11_inverse_np", "core.theta11_inverse_np"),
                       ("w_plus_np", "core.w_plus_np"),
                       ("stabilize_preactivation", "core.stabilize")):
        t.patch(core, attr, t.timed(getattr(core, attr), name))
    t.patch(core.SpdState, "validate", t.timed(core.SpdState.validate, "core.validate"))

    for attr in ("spd_inverse", "eig_diagnostics"):
        t.patch(linalg, attr, t.timed(getattr(linalg, attr), f"linalg.{attr}"))
    # spd_inverse factorizes through linalg.cholesky; only the Cholesky
    # calls made outside it (glasso's per-sweep objective, core's checks)
    # get a span, so the two linalg figures do not overlap
    plain_cholesky = linalg.cholesky
    timed_cholesky = t.timed(plain_cholesky, "linalg.cholesky")

    def cholesky(a):
        if t.current() == "linalg.spd_inverse":
            return plain_cholesky(a)
        return timed_cholesky(a)
    t.patch(linalg, "cholesky", cholesky)

    solve = t.timed(baselines.glasso_solve, "baselines.glasso_solve")

    def glasso_solve(s, *args, **kwargs):
        # one objective per sweep plus one at initialization
        counts = t._state().counts
        before = counts["baselines.glasso_objective"]
        try:
            return solve(s, *args, **kwargs)
        finally:
            sweeps = counts["baselines.glasso_objective"] - before - 1
            t.add("baselines.blocks", sweeps * len(s))
    t.patch(baselines, "glasso_solve", glasso_solve)
    for attr in ("glasso_objective", "block_gista_step"):
        t.patch(baselines, attr, t.counted(getattr(baselines, attr), f"baselines.{attr}"))

    for attr in ("adam_step", "evaluate"):
        t.patch(training, attr, t.timed(getattr(training, attr), f"training.{attr}"))
    t.patch(datagen, "load_dataset", t.timed(datagen.load_dataset, "datagen.load_dataset"))


def layer_metrics(tracer: Tracer, ops: int, matrices: int) -> dict[str, float]:
    """Per-layer figures of a traced run of ``ops`` CLI calls that processed
    ``matrices`` matrices in total. ``*_s`` figures are busy seconds per
    call; ``*_per_matrix`` figures are counts per matrix."""
    busy, own, n = tracer.busy(), tracer.self_time(), tracer.counts()
    calls = Counter(s[2] for s in tracer.spans())
    solves = calls["baselines.glasso_solve"]

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "autodiff.backward_s": per_op(busy["autodiff.backward"]),
        "autodiff.tape_nodes_per_matrix": ratio(n["autodiff.tape_nodes"], matrices),
        "autodiff.apply_op_calls_per_matrix": ratio(n["autodiff.apply_op"], matrices),
        "models.f_s": per_op(busy["models.f"]),
        "models.g_s": per_op(busy["models.g"]),
        "models.mlp_calls_per_matrix": ratio(n["models.mlp_calls"], matrices),
        "models.margin_min": tracer.minima().get("models.margin_min", 0.0),
        "core.layer_s": per_op(busy["core.layer"]),
        "core.layer_self_s": per_op(own["core.layer"]),
        "core.block_np_s": per_op(busy["core.theta11_inverse_np"] + busy["core.w_plus_np"]),
        "core.stabilize_s": per_op(busy["core.stabilize"]),
        "core.validate_s": per_op(busy["core.validate"]),
        "linalg.spd_inverse_s": per_op(busy["linalg.spd_inverse"]),
        "linalg.spd_inverse_calls": per_op(calls["linalg.spd_inverse"]),
        "linalg.cholesky_s": per_op(busy["linalg.cholesky"]),
        "linalg.cholesky_calls": per_op(calls["linalg.cholesky"]),
        "linalg.eig_diagnostics_s": per_op(busy["linalg.eig_diagnostics"]),
        "baselines.glasso_solve_calls_per_matrix": ratio(solves, matrices),
        "baselines.sweeps_per_solve": ratio(n["baselines.glasso_objective"] - solves, solves),
        "baselines.gista_steps_per_block": ratio(n["baselines.block_gista_step"],
                                                 n["baselines.blocks"]),
        "baselines.glasso_solve_s": per_op(busy["baselines.glasso_solve"]),
        "training.adam_step_s": per_op(busy["training.adam_step"]),
        "training.evaluate_s": per_op(busy["training.evaluate"]),
        "datagen.load_dataset_s": per_op(busy["datagen.load_dataset"]),
        "cli.self_s": per_op(own["op"]),
    }
