"""Compare the CLI's outputs at a git revision with the working tree's.

    python tools/compare_outputs.py [REV] [--p 8 20]

``REV`` (default ``HEAD``) has its ``src/`` extracted with ``git archive``.
Each side then runs one fixed matrix of CLI calls in a fresh process, with
``OPENBLAS_NUM_THREADS=1``, its own ``src`` on ``PYTHONPATH`` and the same
relative output paths. Per p the matrix is:

- ``gen-data --n 3p --num 12 --alpha 0.8 --seed 3 --keep-samples``, which
  serves as both training and test set;
- ``train`` for each model, tape mode and ``--layers`` 1 and 2, with
  ``--seed 2 --epochs 2 --batch-size 5``, then ``eval`` and ``diagnose``
  of each checkpoint;
- ``train --no-stabilizer``;
- ``baseline`` with each method.

Four calls that must fail run once: ``train --zeta 0``, ``gen-data --alpha
1.5``, ``baseline --lambda 0`` and ``diagnose --zeta -1``. Each call's exit
code, stdout and stderr go to a log file in the tree. The two trees are
compared byte for byte; every differing or missing file is printed, and
the exit code is 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the matrix is fixed here, not read from either side's spodnet
MODELS = ("ubg", "pnp", "e2e")
TAPE_MODES = ("detached", "full")
METHODS = ("glasso", "glasso-cv", "lw", "oas")


def matrix(ps) -> list[tuple[str, list[str]]]:
    """(log name, argv) of every call, in run order; paths are relative."""
    calls = []
    for p in ps:
        data = f"p{p}/data"
        calls.append((f"p{p}-gen-data", [
            "gen-data", "--p", str(p), "--n", str(3 * p), "--num", "12",
            "--alpha", "0.8", "--seed", "3", "--keep-samples", "--out", data]))
        runs = [(f"{m}-{mode}-L{k}", ["--model", m, "--tape-mode", mode,
                                      "--layers", str(k)])
                for m in MODELS for mode in TAPE_MODES for k in (1, 2)]
        runs.append(("no-stabilizer", ["--no-stabilizer"]))
        for name, flags in runs:
            out = f"p{p}/{name}"
            calls.append((f"p{p}-train-{name}", [
                "train", *flags, "--train", data, "--test", data, "--seed", "2",
                "--epochs", "2", "--batch-size", "5", "--out", out]))
            if name == "no-stabilizer":
                continue
            ckpt = ["--checkpoint", f"{out}/checkpoint.json", "--data", data]
            calls.append((f"p{p}-eval-{name}", ["eval", *ckpt, "--out", f"{out}/eval.json"]))
            calls.append((f"p{p}-diagnose-{name}",
                          ["diagnose", *ckpt, "--out", f"{out}/diagnose"]))
        for method in METHODS:
            calls.append((f"p{p}-baseline-{method}", [
                "baseline", "--method", method, "--data", data,
                "--out", f"p{p}/baseline-{method}.json"]))
    # the failing calls' outputs go where a success would write them
    root = f"p{ps[0]}"
    data, ckpt = f"{root}/data", f"{root}/ubg-detached-L1/checkpoint.json"
    calls += [
        ("error-train-zeta", ["train", "--train", data, "--test", data,
                              "--zeta", "0", "--out", f"{root}/error-train"]),
        ("error-gen-data-alpha", ["gen-data", "--p", "4", "--n", "5", "--num", "1",
                                  "--alpha", "1.5", "--out", f"{root}/error-data"]),
        ("error-baseline-lambda", ["baseline", "--method", "glasso", "--data", data,
                                   "--lambda", "0", "--out", f"{root}/error-glasso.json"]),
        ("error-diagnose-zeta", ["diagnose", "--checkpoint", ckpt, "--data", data,
                                 "--zeta", "-1", "--out", f"{root}/error-diagnose"]),
    ]
    return calls


def run_matrix(ps, src: Path) -> None:
    """Run every call of :func:`matrix` in this process, in the current
    directory, logging each to ``logs/``; ``spodnet`` must come from ``src``."""
    import spodnet
    from spodnet import cli

    if Path(spodnet.__file__).resolve().parent != (src / "spodnet").resolve():
        raise SystemExit(f"spodnet imported from {spodnet.__file__}, not {src}")
    Path("logs").mkdir()
    for k, (name, argv) in enumerate(matrix(ps)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        Path(f"logs/{k:03d}-{name}.log").write_text(
            f"$ spodnet {' '.join(argv)}\nexit {code}\n--- stdout\n"
            f"{out.getvalue()}--- stderr\n{err.getvalue()}")


def compare_trees(a: Path, b: Path) -> list[str]:
    """One line per file that differs between the trees or is in only one,
    in path order; empty when they are byte-identical."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            lines.append(f"only in {a.name}: {rel}")
        elif rel not in files_a:
            lines.append(f"only in {b.name}: {rel}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            lines.append(f"differs: {rel}")
    return lines


def extract_src(rev: str, dest: Path) -> Path:
    """Extract ``rev``'s ``src/`` into the new directory ``dest`` with ``git
    archive`` and return the extracted ``src``; exit with status 2, after
    git's message, if git cannot."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        raise SystemExit(2)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def _run_side(src: Path, out: Path, ps) -> None:
    out.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run-matrix",
                    str(src), "--p", *map(str, ps)], cwd=out, env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD",
                        help="revision whose outputs are the reference (default HEAD)")
    parser.add_argument("--p", type=int, nargs="+", default=[8, 20],
                        help="matrix sizes to run (default 8 20)")
    parser.add_argument("--run-matrix", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_matrix:  # the child process of one side
        run_matrix(args.p, Path(args.run_matrix))
        return 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        _run_side(extract_src(args.rev, tmp / "src-rev"), tmp / "rev", args.p)
        _run_side(ROOT / "src", tmp / "worktree", args.p)
        lines = compare_trees(tmp / "rev", tmp / "worktree")
        count = sum(1 for p in (tmp / "worktree").rglob("*") if p.is_file())
    print("\n".join(lines) if lines else f"identical: {count} files")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
