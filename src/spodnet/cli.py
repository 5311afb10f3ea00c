"""Experiment command line.

Subcommands generate datasets, train and evaluate the learned models, score
the model-based baselines with the same metrics, and dump per-update
spectral diagnostics. Outputs are plain CSV/JSON for downstream plotting.

Exit codes: 0 success, 2 usage/validation, 3 I/O, 4 numerical contract
violation.
"""

from __future__ import annotations

import argparse
import json
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, core, datagen, models, training

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


def _positive(value: float, flag: str) -> float:
    if not value > 0:
        raise UsageError(f"{flag} must be > 0, got {value}")
    return value


def _load_dataset(path, flag: str) -> datagen.Dataset:
    if path is None:
        raise UsageError(f"missing required option {flag}")
    if not Path(path, "meta.json").exists():
        raise UsageError(f"{flag}: no dataset at {path}")
    try:
        return datagen.load_dataset(path)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _require(args, name: str, flag: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


def _json_dump(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _threads(args) -> int:
    n = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if n < 1:
        raise UsageError(f"--threads must be >= 1, got {n}")
    return n


def _map_entries(fn, entries, threads: int):
    if threads == 1 or len(entries) <= 1:
        return [fn(e) for e in entries]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, entries))


def _write_report(out, entries, estimates, method: str) -> None:
    """Score the estimates, tag them with ``method`` and write the report."""
    report = training.score_estimates(entries, estimates)
    for row in report["samples"]:
        row["method"] = method
    report["method"] = method
    _json_dump(out, report)
    agg = report["aggregates"]
    print(f"method={method} nmse={agg['nmse']:.6f} f1={agg['f1']:.4f} "
          f"all_spd={agg['all_spd']} out={out}")


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    out = _require(args, "out", "--out")
    try:
        cfg = datagen.GenConfig(p=args.p, n=args.n, num=args.num,
                                alpha=args.alpha, diag_boost=args.diag_boost,
                                seed=args.seed, keep_samples=args.keep_samples)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ds = datagen.build_dataset(cfg)
    datagen.save_dataset(ds, out)
    density = float(np.mean([training.offdiag_density(e.theta_true)
                             for e in ds.entries]))
    print(f"p={cfg.p} n={cfg.n} num={cfg.num} alpha={cfg.alpha} "
          f"mean_density={density:.4f} out={out}")
    return EXIT_OK


def cmd_train(args) -> int:
    out_dir = Path(_require(args, "out", "--out"))
    train_ds = _load_dataset(args.train, "--train")
    test_ds = _load_dataset(args.test, "--test")
    if train_ds.config.p != test_ds.config.p:
        raise UsageError(f"--train has p={train_ds.config.p} but --test has "
                         f"p={test_ds.config.p}")
    _positive(args.zeta, "--zeta")
    _positive(args.lr, "--lr")
    if args.epochs < 0:
        raise UsageError(f"--epochs must be >= 0, got {args.epochs}")
    if args.batch_size < 1:
        raise UsageError(f"--batch-size must be >= 1, got {args.batch_size}")
    layer_cfg = core.LayerConfig(zeta=args.zeta, num_layers=args.layers,
                                 stabilize=not args.no_stabilizer,
                                 tape_mode=args.tape_mode)
    train_cfg = training.TrainConfig(lr=args.lr, batch_size=args.batch_size,
                                     epochs=args.epochs, seed=args.seed)
    params = models.init_params(args.model, train_ds.config.p, args.seed)
    history = training.train(params, train_ds.entries, test_ds.entries,
                             train_cfg, layer_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    models.save_checkpoint(out_dir / "checkpoint.json", params, layer_cfg)
    training.write_metrics_csv(out_dir / "metrics.csv", history)
    last = history[-1].test_nmse if history else float("nan")
    print(f"model={args.model} epochs={args.epochs} test_nmse={last} out={out_dir}")
    return EXIT_OK


def _load_checkpoint(args):
    path = _require(args, "checkpoint", "--checkpoint")
    try:
        return models.load_checkpoint(path)
    except ValueError as exc:
        raise UsageError(f"--checkpoint: {exc}") from exc


def cmd_eval(args) -> int:
    out = _require(args, "out", "--out")
    params, layer_cfg = _load_checkpoint(args)
    ds = _load_dataset(args.data, "--data")
    if ds.config.p != params.p:
        raise UsageError(f"checkpoint has p={params.p} but dataset has "
                         f"p={ds.config.p}")
    if not ds.entries:
        raise UsageError("--data: dataset is empty")
    threads = _threads(args)

    def one(entry):
        state = models.forward(entry.s, params, layer_cfg)
        return state.theta.data

    estimates = _map_entries(one, ds.entries, threads)
    _write_report(out, ds.entries, estimates, f"model:{params.variant}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    out = _require(args, "out", "--out")
    ds = _load_dataset(args.data, "--data")
    if not ds.entries:
        raise UsageError("--data: dataset is empty")
    method = args.method
    needs_samples = method in ("glasso-cv", "lw", "oas")
    if needs_samples and ds.entries[0].samples is None:
        raise UsageError(
            f"--method {method} needs raw samples; regenerate the dataset "
            "with gen-data --keep-samples")
    threads = _threads(args)

    if method == "glasso":
        _positive(args.lam, "--lambda")
        cfg = baselines.GlassoConfig(lam=args.lam, max_sweeps=args.max_sweeps,
                                     tol=args.tol)

        def one(entry):
            return baselines.glasso_solve(entry.s, cfg)

    elif method == "glasso-cv":
        if args.folds < 2:
            raise UsageError(f"--folds must be >= 2, got {args.folds}")
        if args.grid_size < 1:
            raise UsageError(f"--grid-size must be >= 1, got {args.grid_size}")
        cfg = baselines.GlassoConfig(max_sweeps=args.max_sweeps, tol=args.tol)

        def one(entry):
            grid = baselines.default_lambda_grid(entry.samples, args.grid_size)
            _, theta = baselines.glasso_cv(entry.samples, grid,
                                           folds=args.folds, cfg=cfg)
            return theta

    elif method == "lw":
        def one(entry):
            return baselines.ledoit_wolf(entry.samples)

    elif method == "oas":
        def one(entry):
            return baselines.oas(entry.samples)

    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown method {method!r}")

    estimates = _map_entries(one, ds.entries, threads)
    _write_report(out, ds.entries, estimates, method)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    out_dir = Path(_require(args, "out", "--out"))
    params, layer_cfg = _load_checkpoint(args)
    if args.zeta is not None:
        _positive(args.zeta, "--zeta")
        layer_cfg = replace(layer_cfg, zeta=args.zeta)
    ds = _load_dataset(args.data, "--data")
    if ds.config.p != params.p:
        raise UsageError(f"checkpoint has p={params.p} but dataset has "
                         f"p={ds.config.p}")
    if args.limit < 0:
        raise UsageError(f"--limit must be >= 0, got {args.limit}")
    entries = ds.entries[:args.limit] if args.limit else ds.entries
    if not entries:
        raise UsageError("--data: dataset is empty")
    out_dir.mkdir(parents=True, exist_ok=True)

    violations = 0
    checked = 0
    max_excess = -float("inf")
    with (out_dir / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sample_id", "layer", "update", "pivot",
                         "min_eig", "max_diag", "cond"))
        for idx, entry in enumerate(entries):
            events = training.collect_update_events(params, entry.s, layer_cfg)
            trace = training.spectral_trace([ev.theta_after for ev in events])
            for ev, (_, lo, max_diag, cond) in zip(events, trace):
                writer.writerow((idx, ev.layer, ev.step, ev.i, repr(lo),
                                 repr(max_diag), repr(cond)))
                lam_hi, lam_lo = core.rank2_delta_eigs(ev.col_diff, ev.diag_diff)
                ok, excess = core.bauer_fike_check(
                    ev.theta_before, ev.theta_after,
                    max(abs(lam_hi), abs(lam_lo)))
                checked += 1
                max_excess = max(max_excess, excess)
                if not ok:
                    violations += 1
    report = {"updates_checked": checked, "violations": violations,
              "max_excess": max_excess}
    _json_dump(out_dir / "bauer_fike.json", report)
    status = "PASS" if violations == 0 else "FAIL"
    print(f"bauer-fike {status}: {violations} violations over {checked} "
          f"updates (max excess {max_excess:.3e}) out={out_dir}")
    return EXIT_OK if violations == 0 else EXIT_NUMERIC


# -- parser ------------------------------------------------------------------


def _build_parser(file_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spodnet",
        description="SPD-preserving learned precision estimation experiments")
    parser.add_argument("--config", help="JSON file with default option values "
                                         "(explicit flags take precedence)")
    sub = parser.add_subparsers(dest="command", required=True)
    built = []

    def with_defaults(p):
        built.append(p)
        return p

    g = with_defaults(sub.add_parser("gen-data", help="generate a dataset"))
    g.add_argument("--p", type=int, default=20)
    g.add_argument("--n", type=int, default=100)
    g.add_argument("--num", type=int, default=100)
    g.add_argument("--alpha", type=float, default=0.95)
    g.add_argument("--diag-boost", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--keep-samples", action="store_true",
                   help="also store the raw n-by-p sample blocks")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen_data)

    t = with_defaults(sub.add_parser("train", help="train a model"))
    t.add_argument("--model", choices=models.VARIANTS, default="ubg")
    t.add_argument("--train", help="training dataset directory")
    t.add_argument("--test", help="test dataset directory")
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--lr", type=float, default=1e-2)
    t.add_argument("--batch-size", type=int, default=10)
    t.add_argument("--zeta", type=float, default=1.0)
    t.add_argument("--layers", type=int, default=1)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--no-stabilizer", action="store_true",
                   help="disable the pre-threshold rescaling")
    t.add_argument("--tape-mode", choices=("detached", "full"),
                   default="detached")
    t.add_argument("--out", help="output directory for checkpoint + metrics")
    t.set_defaults(func=cmd_train)

    e = with_defaults(sub.add_parser("eval", help="evaluate a checkpoint"))
    e.add_argument("--checkpoint")
    e.add_argument("--data")
    e.add_argument("--out", help="output JSON path")
    e.add_argument("--threads", type=int, default=None)
    e.set_defaults(func=cmd_eval)

    b = with_defaults(sub.add_parser("baseline", help="run a baseline method"))
    b.add_argument("--method", choices=("glasso", "glasso-cv", "lw", "oas"),
                   required=True)
    b.add_argument("--data")
    b.add_argument("--out", help="output JSON path")
    b.add_argument("--lambda", dest="lam", type=float, default=0.1)
    b.add_argument("--folds", type=int, default=5)
    b.add_argument("--grid-size", type=int, default=10)
    b.add_argument("--max-sweeps", type=int, default=200)
    b.add_argument("--tol", type=float, default=1e-8)
    b.add_argument("--threads", type=int, default=None)
    b.set_defaults(func=cmd_baseline)

    d = with_defaults(sub.add_parser("diagnose",
                                     help="spectral trace + perturbation audit"))
    d.add_argument("--checkpoint")
    d.add_argument("--data")
    d.add_argument("--out", help="output directory")
    d.add_argument("--zeta", type=float, default=None,
                   help="override the checkpoint's zeta (must be > 0)")
    d.add_argument("--limit", type=int, default=0,
                   help="diagnose only the first N samples (0 = all)")
    d.set_defaults(func=cmd_diagnose)

    if file_defaults:
        for p in built:
            dests = {a.dest for a in p._actions}
            p.set_defaults(**{k.replace("-", "_"): v
                              for k, v in file_defaults.items()
                              if k.replace("-", "_") in dests})

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    file_defaults = None
    if known.config:
        try:
            file_defaults = json.loads(Path(known.config).read_text())
        except OSError as exc:
            print(f"error: --config: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: --config: {exc}", file=sys.stderr)
            return EXIT_USAGE
    parser = _build_parser(file_defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # config dataclasses validate flag-derived values
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
