"""Experiment command line.

Subcommands generate datasets, train and evaluate the learned models, score
the model-based baselines with the same metrics, and dump per-update
spectral diagnostics. Outputs are plain CSV/JSON for downstream plotting.

argparse parses every option: a ``--config`` file's values are checked,
then read as flags placed right after the subcommand, so a flag typed later
wins; an option that sets a config field defaults to that field. This
module only turns options into library calls and writes files.

Exit codes: 0 success, 2 usage/validation, 3 I/O, 4 numerical contract
violation.
"""

from __future__ import annotations

import argparse
import json
import csv
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import baselines, core, datagen, linalg, models, training

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _positive(value: float, flag: str) -> float:
    if not value > 0:
        raise ValueError(f"{flag} must be > 0, got {value}")
    return value


def _load_dataset(path, flag: str) -> datagen.Dataset:
    if not Path(path, "meta.json").exists():
        raise ValueError(f"{flag}: no dataset at {path}")
    try:
        return datagen.load_dataset(path)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _checkpoint_and_data(args):
    """The ``--checkpoint`` model, its layer config and the ``--data`` set
    it runs on, which must agree in p."""
    try:
        params, layer_cfg = models.load_checkpoint(args.checkpoint)
    except ValueError as exc:
        raise ValueError(f"--checkpoint: {exc}") from exc
    ds = _load_dataset(args.data, "--data")
    if ds.config.p != params.p:
        raise ValueError(f"checkpoint has p={params.p} but dataset has "
                         f"p={ds.config.p}")
    return params, layer_cfg, ds


def _out_file(out: str) -> str:
    """``--out`` for a file written after the work, checked before it: a
    location that cannot take the file should fail at once, not after a
    long run."""
    if not Path(out).parent.is_dir():
        raise FileNotFoundError(f"--out: no directory {Path(out).parent}")
    if Path(out).is_dir():
        raise IsADirectoryError(f"--out: {out} is a directory")
    return out


def _json_dump(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_report(out, report: dict, method: str) -> None:
    """Tag a scored report with ``method`` and write it."""
    for row in report["samples"]:
        row["method"] = method
    report["method"] = method
    _json_dump(out, report)
    agg = report["aggregates"]
    print(f"method={method} nmse={agg['nmse']:.6f} f1={agg['f1']:.4f} "
          f"all_spd={agg['all_spd']} out={out}")


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = datagen.GenConfig(p=args.p, n=args.n, num=args.num,
                            alpha=args.alpha, diag_boost=args.diag_boost,
                            seed=args.seed, keep_samples=args.keep_samples)
    ds = datagen.build_dataset(cfg)
    datagen.save_dataset(ds, args.out)
    density = float(np.mean([training.offdiag_density(e.theta_true)
                             for e in ds.entries]))
    print(f"p={cfg.p} n={cfg.n} num={cfg.num} alpha={cfg.alpha} "
          f"mean_density={density:.4f} out={args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    train_ds = _load_dataset(args.train, "--train")
    test_ds = _load_dataset(args.test, "--test")
    if train_ds.config.p != test_ds.config.p:
        raise ValueError(f"--train has p={train_ds.config.p} but --test has "
                         f"p={test_ds.config.p}")
    _positive(args.lr, "--lr")
    layer_cfg = core.LayerConfig(zeta=args.zeta, num_layers=args.layers,
                                 stabilize=not args.no_stabilizer,
                                 tape_mode=args.tape_mode)
    train_cfg = training.TrainConfig(lr=args.lr, batch_size=args.batch_size,
                                     epochs=args.epochs, seed=args.seed)
    params = models.init_params(args.model, train_ds.config.p, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    history = training.train(params, train_ds.entries, test_ds.entries,
                             train_cfg, layer_cfg)
    models.save_checkpoint(out_dir / "checkpoint.json", params, layer_cfg)
    training.write_metrics_csv(out_dir / "metrics.csv", history)
    last = history[-1].test_nmse if history else float("nan")
    print(f"model={args.model} epochs={args.epochs} test_nmse={last} out={out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = _out_file(args.out)
    params, layer_cfg, ds = _checkpoint_and_data(args)
    report = training.evaluate(params, ds.entries, layer_cfg)
    _write_report(out, report, f"model:{params.variant}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    out = _out_file(args.out)
    ds = _load_dataset(args.data, "--data")
    method = args.method
    needs_samples = method in ("glasso-cv", "lw", "oas")
    if needs_samples and ds.entries[0].samples is None:
        raise ValueError(
            f"--method {method} needs raw samples; regenerate the dataset "
            "with gen-data --keep-samples")

    if method == "glasso":
        _positive(args.lam, "--lambda")
        cfg = baselines.GlassoConfig(lam=args.lam, max_sweeps=args.max_sweeps,
                                     tol=args.tol)

        def one(entry):
            return baselines.glasso_solve(entry.s, cfg)

    elif method == "glasso-cv":
        cfg = baselines.GlassoConfig(max_sweeps=args.max_sweeps, tol=args.tol)

        def one(entry):
            grid = baselines.default_lambda_grid(entry.samples, args.grid_size)
            _, theta = baselines.glasso_cv(entry.samples, grid,
                                           folds=args.folds, cfg=cfg)
            return theta

    elif method == "lw":
        def one(entry):
            return baselines.ledoit_wolf(entry.samples)

    else:  # oas; argparse restricts --method to the four choices
        def one(entry):
            return baselines.oas(entry.samples)

    estimates = []
    for idx, entry in enumerate(ds.entries):
        try:
            estimates.append(one(entry))
        except (linalg.NotPositiveDefinite, baselines.NonPositiveDiagonal) as exc:
            raise core.SpdViolation(f"sample {idx}: {exc}", sample=idx) from exc
    report = training.score_estimates(ds.entries, estimates)
    _write_report(out, report, method)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    out_dir = Path(args.out)
    params, layer_cfg, ds = _checkpoint_and_data(args)
    if args.zeta is not None:
        layer_cfg = replace(layer_cfg, zeta=args.zeta)
    if args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    entries = ds.entries[:args.limit] if args.limit else ds.entries
    out_dir.mkdir(parents=True, exist_ok=True)

    updates: list[tuple] = []  # per update of a chunk, its per-sample arrays
    oks, excesses = [], []
    prev = [None, None]  # the previous update's theta_after and its spectrum
    with (out_dir / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sample_id", "layer", "update", "pivot",
                         "min_eig", "max_diag", "cond"))

        def audit(ev: core.UpdateEvent) -> None:
            after, vals = ev.theta_after, linalg.spectrum(ev.theta_after)
            # theta_before is the previous update's theta_after but at a chunk's start
            before = (prev[1] if ev.theta_before is prev[0]
                      else linalg.spectrum(ev.theta_before))
            prev[:] = after, vals
            lows, _, conds = linalg.eig_diagnostics(after, vals)
            lam_hi, lam_lo = core.rank2_delta_eigs(ev.col_diff, ev.diag_diff)
            ok, excess = core.bauer_fike_check(
                before, vals, np.maximum(abs(lam_hi), abs(lam_lo)))
            oks.append(ok)
            excesses.append(excess)
            values = np.stack([lows, after.diagonal(0, -2, -1).max(-1), conds], -1)
            updates.append((ev.layer, ev.layer * params.p + ev.i, ev.i,
                            values.tolist()))

        for start, out in training.forward_chunks(params, entries, layer_cfg,
                                                  hook=audit):
            for j in range(len(out.theta.data)):
                writer.writerows((start + j, *head, *map(repr, values[j]))
                                 for *head, values in updates)
            updates.clear()
    ok, excess = np.concatenate(oks), np.concatenate(excesses)
    violations = int(np.count_nonzero(~ok))
    report = {"updates_checked": ok.size, "violations": violations,
              "max_excess": float(excess.max())}
    _json_dump(out_dir / "bauer_fike.json", report)
    status = "PASS" if violations == 0 else "FAIL"
    print(f"bauer-fike {status}: {violations} violations over {ok.size} "
          f"updates (max excess {report['max_excess']:.3e}) out={out_dir}")
    return EXIT_OK if violations == 0 else EXIT_NUMERIC


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spodnet",
        description="SPD-preserving learned precision estimation experiments")
    parser.add_argument("--config", help="JSON file with default option values "
                                         "(explicit flags take precedence)")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a dataset")
    g.add_argument("--p", type=int, default=20)
    g.add_argument("--n", type=int, default=100)
    g.add_argument("--num", type=int, default=100)
    g.add_argument("--alpha", type=float, default=0.95)
    g.add_argument("--diag-boost", type=float, default=datagen.GenConfig.diag_boost)
    g.add_argument("--seed", type=int, default=datagen.GenConfig.seed)
    g.add_argument("--keep-samples", action="store_true",
                   help="also store the raw n-by-p sample blocks")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--model", choices=models.VARIANTS, default="ubg")
    t.add_argument("--train", required=True, help="training dataset directory")
    t.add_argument("--test", required=True, help="test dataset directory")
    t.add_argument("--epochs", type=int, default=training.TrainConfig.epochs)
    t.add_argument("--lr", type=float, default=training.TrainConfig.lr)
    t.add_argument("--batch-size", type=int, default=training.TrainConfig.batch_size)
    t.add_argument("--zeta", type=float, default=core.LayerConfig.zeta)
    t.add_argument("--layers", type=int, default=core.LayerConfig.num_layers)
    t.add_argument("--seed", type=int, default=training.TrainConfig.seed)
    t.add_argument("--no-stabilizer", action="store_true",
                   help="disable the pre-threshold rescaling")
    t.add_argument("--tape-mode", choices=core.TAPE_MODES,
                   default=core.LayerConfig.tape_mode)
    t.add_argument("--out", required=True,
                   help="output directory for checkpoint + metrics")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True, help="output JSON path")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("baseline", help="run a baseline method")
    b.add_argument("--method", choices=("glasso", "glasso-cv", "lw", "oas"),
                   required=True)
    b.add_argument("--data", required=True)
    b.add_argument("--out", required=True, help="output JSON path")
    b.add_argument("--lambda", dest="lam", type=float,
                   default=baselines.GlassoConfig.lam,
                   help="l1 penalty; read only by --method glasso "
                        "(default %(default)s)")
    b.add_argument("--folds", type=int, default=5,
                   help="glasso-cv's cross-validation folds (default %(default)s)")
    b.add_argument("--grid-size", type=int, default=10,
                   help="glasso-cv picks lambda from this many log-spaced "
                        "values over [0.01, 1] x the largest off-diagonal "
                        "|S_ij| (default %(default)s)")
    b.add_argument("--max-sweeps", type=int,
                   default=baselines.GlassoConfig.max_sweeps,
                   help="glasso sweep budget per solve (default %(default)s)")
    b.add_argument("--tol", type=float, default=baselines.GlassoConfig.tol,
                   help="stop a solve when a sweep lowers the objective by "
                        "less than this (default %(default)s)")
    b.set_defaults(func=cmd_baseline)

    d = sub.add_parser("diagnose", help="spectral trace + perturbation audit")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--zeta", type=float, default=None,
                   help="override the checkpoint's zeta (must be > 0)")
    d.add_argument("--limit", type=int, default=0,
                   help="diagnose only the first N samples (0 = all)")
    d.set_defaults(func=cmd_diagnose)
    return parser


def _config_flags(parser: argparse.ArgumentParser, doc, command) -> list[str]:
    """A ``--config`` file's values for ``command``, as flag tokens.

    A key may name an option of any subcommand, so one file can serve
    several; a key that names none is a typo. An option is named by its long
    flag or its destination (``lambda`` or ``lam``). Every value is checked
    against each option it names, whichever subcommand runs.
    """
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object of option values")
    values = {k.replace("-", "_"): v for k, v in doc.items()}
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    options = {name: {key.replace("-", "_"): a for a in p._actions if a.dest != "help"
                      for key in (a.dest, *(o[2:] for o in a.option_strings
                                            if o.startswith("--")))}
               for name, p in commands.items()}
    unknown = sorted(set(values).difference(*options.values()))
    if unknown:
        raise ValueError(f"no subcommand has an option named {unknown}")
    flags = []
    for name, named in options.items():
        for k, v in values.items():
            if k in named:
                _file_value(named[k], k, v)
                if name == command and v is not False:  # a switch left off
                    flag = named[k].option_strings[0]
                    flags.append(flag if v is True else f"{flag}={v}")
    return flags


def _file_value(action: argparse.Action, key: str, value) -> None:
    """Check a ``--config`` value as the same text given as the flag would
    be checked, and more strictly: a switch takes only a JSON bool, an
    option without a type only a string, so ``{"out": 5}`` does not pass as
    the path ``5``."""
    if action.nargs == 0:  # a store_true switch
        ok = isinstance(value, bool)
    elif action.type is None:
        ok = isinstance(value, str)
    else:
        try:
            value, ok = action.type(str(value)), True
        except (TypeError, ValueError):
            ok = False
    if not ok or action.choices is not None and value not in action.choices:
        raise ValueError(f"{key}: invalid value {value!r}")


@lru_cache(maxsize=None)
def _plain_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``--config`` pre-parser and the one parser of every call, built
    once per process: each build leaves a few hundred objects in reference
    cycles. The pre-parser reads ``--config`` only before the subcommand,
    and its ``rest`` is what follows the subcommand."""
    pre = argparse.ArgumentParser(prog="spodnet", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("command", nargs="?")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    return pre, _build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre, parser = _plain_parsers()
    try:
        known, _ = pre.parse_known_args(argv)
        if known.config:
            at = len(argv) - len(known.rest)  # just after the subcommand
            argv[at:at] = _config_flags(
                parser, json.loads(Path(known.config).read_text()), known.command)
    except OSError as exc:
        print(f"error: --config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: --config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # the pre-parser's usage error, e.g. no value
        return int(exc.code)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        # the CLI's own checks and the config dataclasses' validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.SpdViolation as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
