"""Build one workload's inputs: ``gen-data`` for each of its datasets.

``run.py`` times this process from spawn to exit for ``setup_s`` (in
reference seconds, see ``run.py``), so the figure covers interpreter start
and importing spodnet/numpy/scipy. The last
line of standard output is a JSON object of set-up layer figures: the
busy time of ``datagen.build_dataset``.

    python3 bench/setup_inputs.py --workload NAME --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from spodnet import cli, datagen  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def build_inputs(wl, out: Path) -> None:
    """``gen-data`` for each dataset of ``wl``."""
    for ds in wl.datasets:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(ds.argv(out))
        if code != 0:
            raise RuntimeError(f"gen-data exited {code}: {log.getvalue()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    tracer.patch(datagen, "build_dataset",
                 tracer.timed(datagen.build_dataset, "datagen.build_dataset"))
    build_inputs(WORKLOADS[args.workload], Path(args.out))
    print(json.dumps({"datagen.build_dataset_s": tracer.busy()["datagen.build_dataset"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
