"""Time one CLI call at a git revision against the working tree's.

    python tools/ab_time.py [REV] [--pairs 10] -- <cli argv>

for example ``python tools/ab_time.py HEAD -- baseline --method glasso-cv
--data ds/test --out runs/cv.json``. ``REV`` (default ``HEAD``) has its
``src/`` extracted as ``compare_outputs.py`` extracts it. Each pair runs
the call once on each side, one fresh process at a time, and the side that
runs first alternates from pair to pair. Every process has
``OPENBLAS_NUM_THREADS=1`` and its side's ``src`` on ``PYTHONPATH``, runs in
the current directory (so both sides write the same outputs), imports
``spodnet.cli`` and then times ``cli.main(argv)`` alone in CPU seconds of
the process, so start-up and imports are left out. A call that exits
nonzero stops the run.

It prints each side's median and quartiles, how many pairs the working
tree ran in less CPU time (ties count for neither side), and whether that
is a gain: the tree won at least nine pairs in ten and the medians differ
by more than the distance between the revision's quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_outputs import ROOT, extract_src


def run_call(src: Path, call: list[str]) -> float:
    """CPU seconds of one ``cli.main(call)`` in this process, whose
    ``spodnet`` must come from ``src``; its own output is discarded."""
    import spodnet
    from spodnet import cli

    if Path(spodnet.__file__).resolve().parent != (src / "spodnet").resolve():
        raise SystemExit(f"spodnet imported from {spodnet.__file__}, not {src}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        code = cli.main(call)
        cpu = time.process_time() - start
    if code:
        raise SystemExit(f"spodnet {' '.join(call)} exited {code}:\n"
                         + err.getvalue().rstrip())
    return cpu


def _time_side(src: Path, call: list[str]) -> float:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--run-call", str(src), "--", *call],
                           env=env, capture_output=True, text=True)
    if child.returncode:
        raise SystemExit(child.stderr.rstrip())
    return float(child.stdout)


def summary(rev: str, rev_s: list[float], tree_s: list[float]) -> list[str]:
    """The report on paired CPU times: ``rev_s[k]`` and ``tree_s[k]`` are
    pair ``k``'s."""
    lines = []
    for name, times in ((rev, rev_s), ("tree", tree_s)):
        q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
        lines.append(f"{name}: median {med:.4f} s, quartiles {q1:.4f}-{q3:.4f} s "
                     f"over {len(times)} runs")
    wins = sum(t < r for r, t in zip(rev_s, tree_s))
    q1, rev_med, q3 = statistics.quantiles(rev_s, n=4, method="inclusive")
    tree_med = statistics.median(tree_s)
    gain = 10 * wins >= 9 * len(rev_s) and rev_med - tree_med > q3 - q1
    lines.append(f"tree won {wins} of {len(rev_s)} pairs; "
                 f"{'a gain' if gain else 'no gain shown'}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD",
                        help="revision to time against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs of runs (default 10)")
    parser.add_argument("--run-call", metavar="SRC", help=argparse.SUPPRESS)
    if "--" not in argv:
        parser.error("give the CLI call after --")
    cut = argv.index("--")
    args, call = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if args.run_call:  # the child process of one run
        print(repr(run_call(Path(args.run_call), call)))
        return 0
    if not call:
        parser.error("the CLI call after -- is empty")
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    rev_s, tree_s = [], []
    with tempfile.TemporaryDirectory(prefix="ab-time-") as tmp:
        rev_src = extract_src(args.rev, Path(tmp) / "src-rev")
        for k in range(args.pairs):
            sides = [(rev_src, rev_s), (ROOT / "src", tree_s)]
            for src, times in sides if k % 2 == 0 else sides[::-1]:
                times.append(_time_side(src, call))
    print("\n".join(summary(args.rev, rev_s, tree_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
