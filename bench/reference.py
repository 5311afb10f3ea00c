"""The reference-output gate: the stored outputs of every workload, the
tolerance check against them, and the command that rewrites them.

    python3 bench/reference.py [--workload NAME ...]

rewrites ``reference/<workload>.json`` from the current sources. Each file
holds the outputs the gate compares (see ``Workload.read_outputs``), in
generation order, and their measured sensitivity: per output field, the
largest relative change seen when every input number is scaled by
(1 + 1e-14 r), r uniform in [-1, 1], over ``DRAWS`` draws of r. A field is
one leaf path with its first list index dropped: one column of the
per-sample rows, one aggregate, one parameter array.

The gate lets each field move by ``SLACK`` times its measured sensitivity,
and by at least ``FLOOR_RTOL``. So a field that an input perturbation at
rounding level leaves almost unmoved is held tight, and only the fields
that really move get loose tolerances. A 1e-14 input change moves
glasso-cv-p20 outputs by at most about 1e-9 and train-ubg-p20 outputs by
at most about 3e-7 (see each file's ``sensitivity``). The model is far
more sensitive at p=100: an untrained seed-5 ubg there emits margins v
down to about 0.012, its estimates reach condition numbers of 1.4e6, and
the same perturbation moves min_eig and cond by about 6e-3, flips support
entries (per-sample f1 by about 5e-3) and moves per-sample nmse by about
6e-5. That is recorded here, not reseeded away (see the ROADMAP's
conditioning item); p=100 eval is not a workload (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PERTURBATION = 1e-14
DRAWS = 3
SLACK = 10.0
FLOOR_RTOL = 1e-9
# absolute slack, for outputs that sit at or near 0
ATOL = 1e-12


def load(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def _field(path: str) -> str:
    return re.sub(r"\[\d+\]", "[]", path, count=1)


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], f"{path}/{key}")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, doc


def tolerances(doc: dict) -> dict[str, float]:
    """The relative tolerance of each output field of a stored reference."""
    return {f: max(SLACK * change, FLOOR_RTOL)
            for f, change in doc["sensitivity"]["by_field"].items()}


def mismatches(got, ref, rtols: dict[str, float], atol: float = ATOL,
               limit: int = 5) -> list[str]:
    """Describe where ``got`` leaves the reference: a different structure,
    a non-float that differs, or a float with |got - ref| > atol + rtol*|ref|,
    where ``rtols`` gives rtol per field. At most ``limit`` descriptions are
    returned."""
    got_leaves, ref_leaves = list(_leaves(got)), list(_leaves(ref))
    if [p for p, _ in got_leaves] != [p for p, _ in ref_leaves]:
        return ["output structure differs from the reference"]
    out = []
    for (path, a), (_, b) in zip(got_leaves, ref_leaves):
        if isinstance(a, float) or isinstance(b, float):
            ok = (isinstance(a, (int, float)) and not isinstance(a, bool)
                  and (a == b or abs(a - b) <= atol + rtols[_field(path)] * abs(b)))
        else:
            ok = a == b
        if not ok:
            out.append(f"{path}: {a!r} vs reference {b!r}")
            if len(out) >= limit:
                break
    return out


def rel_change_by_field(got, ref) -> dict[str, float]:
    """Largest |got - ref| / |ref| per output field, where a field is a
    leaf path with its first list index dropped (one column of per-sample
    rows, one parameter array). inf where a non-float or an exact zero
    changes."""
    got_leaves, ref_leaves = list(_leaves(got)), list(_leaves(ref))
    if [p for p, _ in got_leaves] != [p for p, _ in ref_leaves]:
        return {"structure": math.inf}
    out: dict[str, float] = {}
    for (path, a), (_, b) in zip(got_leaves, ref_leaves):
        key = _field(path)
        if a == b:
            change = 0.0
        elif isinstance(b, float) and isinstance(a, float) and b:
            change = abs(a - b) / abs(b)
        else:
            change = math.inf
        out[key] = max(change, out.get(key, 0.0))
    return out


# -- writing the references -----------------------------------------------


def _perturb_inputs(src: Path, dst: Path, datasets, draw: int) -> None:
    import shutil

    import numpy as np
    from spodnet import datagen

    shutil.copytree(src, dst)
    rng = np.random.default_rng(draw)
    for ds in datasets:
        data = datagen.load_dataset(src / ds.name)
        for entry in data.entries:
            r = rng.uniform(-1.0, 1.0, entry.s.shape)
            entry.s = entry.s * (1.0 + PERTURBATION * 0.5 * (r + r.T))
            if entry.samples is not None:
                r = rng.uniform(-1.0, 1.0, entry.samples.shape)
                entry.samples = entry.samples * (1.0 + PERTURBATION * r)
        datagen.save_dataset(data, dst / ds.name)


def write_reference(wl, work: Path) -> dict:
    import run

    inputs = work / "inputs"
    run.set_up(wl, inputs)
    calls = [run.Runner(wl, inputs, work / "out", reference=None).op()]
    for draw in range(DRAWS):
        noisy = work / f"perturbed{draw}"
        _perturb_inputs(inputs, noisy / "inputs", wl.datasets, draw)
        calls.append(run.Runner(wl, noisy / "inputs", noisy / "out", reference=None).op())
    for call in calls:
        if call.problems:
            raise RuntimeError(f"{wl.name}: {call.problems}")
    doc = {"workload": wl.name, "op": calls[0].outputs}
    by_field: dict[str, float] = {}
    for call in calls[1:]:
        for key, change in rel_change_by_field(call.outputs, doc["op"]).items():
            by_field[key] = max(change, by_field.get(key, 0.0))
    doc["sensitivity"] = {"perturbation": PERTURBATION, "draws": DRAWS,
                          "by_field": by_field}
    return doc


def main(argv=None) -> int:
    import shutil

    import run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    run.prepare_environment()
    for name in args.workload or sorted(run.WORKLOADS):
        work = run.WORK / "reference" / name
        shutil.rmtree(work, ignore_errors=True)
        doc = write_reference(run.WORKLOADS[name], work)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc) + "\n")
        print(f"{name}: sensitivity {doc['sensitivity']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
