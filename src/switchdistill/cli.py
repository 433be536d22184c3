"""Command-line interface: train, compare, grad-check, and timeline.

Exit codes: 0 success, 1 configuration, input or output-path failure (a
``--out`` that is not missing or empty is refused before training), 2 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import RunSetup, apply_overrides, build_setup, ignoring_choice, load_config
from .errors import ConfigError, DomainError, FormatError, NumericError, ShapeError
from .gap import mode_stats
from .runio import (
    MANIFEST_NAME,
    check_comparable,
    checked_data,
    comparison_rows,
    execute_run,
    new_directory,
    read_iteration_log,
    write_csv,
)
from .verify import logit_grad_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchdistill",
        description="Online distillation with adaptive switching between reciprocal and frozen-teacher training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.add_argument("--out", required=True, help="run directory for artifacts")
    p_train.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )

    p_cmp = sub.add_parser("compare", help="train several configs and tabulate accuracies")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument("--allow-mismatch", action="store_true",
                       help="skip the shared dataset/seed check")
    p_cmp.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override applied to every config",
    )

    p_gc = sub.add_parser("grad-check", help="verify analytic logit gradients against finite differences")
    p_gc.add_argument("--strategy", default="switch")
    p_gc.add_argument("--tau", type=float, default=1.0)
    p_gc.add_argument("--alpha", type=float, default=1.0)
    p_gc.add_argument("--beta", type=float, default=1.0)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--trials", type=int, default=100)
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.add_argument("--inject-fault", action="store_true",
                      help="scale the KL gradient by 2 to prove the check fails")

    p_tl = sub.add_parser("timeline", help="flatten a run's iteration log into a mode-timeline CSV")
    p_tl.add_argument("--run", required=True, help="run directory containing iteration JSONL")
    p_tl.add_argument("--file", default="iterations.jsonl",
                      help="which iteration log inside the run dir (for triples)")
    p_tl.add_argument("--out", default="timeline.csv",
                      help="output CSV path (written outside the run dir by default)")
    return parser


def _say(line: str) -> None:
    """Print one line to stdout. A reader that has gone away is not a failure: further output is dropped."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so that the interpreter's final flush cannot raise again
        os.close(devnull)


def _setups(paths: list[str], overrides: list[str]) -> list[tuple[str, RunSetup]]:
    """(label, setup) per config file, each from the file's values under ``overrides``.

    Every key the user sets must be read: a key a file sets by that file's
    run, and a ``--set`` key by at least one run.
    """
    setups = []
    for path in paths:
        values = load_config(path)
        setup = build_setup(apply_overrides(values, overrides))
        for key in values:
            if choice := ignoring_choice(setup.resolved, key):
                raise ConfigError(f"{key}: not read when {choice}, but set in {path}")
        setups.append((os.path.splitext(os.path.basename(path))[0], setup))
    for item in overrides:
        key = item.partition("=")[0].strip()
        choices = [ignoring_choice(setup.resolved, key) for _, setup in setups]
        if all(choices):
            raise ConfigError(f"{key}: not read when {choices[0]}, but set by --set")
    return setups


def cmd_train(args) -> int:
    [(_, setup)] = _setups([args.config], args.overrides)
    inputs = checked_data([setup])[0]
    with new_directory(args.out) as out:
        execute_run(setup, out, inputs)
    _say(f"run complete: {args.out}")
    for name in sorted(os.listdir(args.out)):
        _say(f"  {name}")
    return EXIT_OK


def cmd_compare(args) -> int:
    setups = _setups(args.configs, args.overrides)
    if not args.allow_mismatch:
        check_comparable(setups)
    inputs = checked_data([setup for _, setup in setups])
    rows = []
    with new_directory(args.out) as out:
        for i, ((label, setup), run_inputs) in enumerate(zip(setups, inputs)):
            run_dir = os.path.join(out, f"run_{i:02d}_{label}")
            os.mkdir(run_dir)
            rows.extend(comparison_rows(label, execute_run(setup, run_dir, run_inputs)))
        write_csv(os.path.join(out, "comparison.csv"), list(rows[0]), rows)
    _say(f"wrote {os.path.join(args.out, 'comparison.csv')} ({len(rows)} rows)")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    report = logit_grad_check(
        args.strategy,
        tau=args.tau,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
        trials=args.trials,
        tolerance=args.tolerance,
        fault_scale=2.0 if args.inject_fault else 1.0,
    )
    for line in report.lines():
        _say(line)
    if not report.ok:
        _say(f"FAILED: max relative error {report.max_rel_error:.3e} > {report.tolerance:g}")
        return EXIT_RUNTIME
    _say(f"all gradients within {report.tolerance:g} (max {report.max_rel_error:.3e})")
    return EXIT_OK


def cmd_timeline(args) -> int:
    records = read_iteration_log(os.path.join(args.run, args.file))
    if os.path.exists(os.path.join(args.run, MANIFEST_NAME)):
        inside = os.path.relpath(os.path.realpath(args.out), os.path.realpath(args.run))
        if inside.split(os.sep)[0] != os.pardir:
            raise ConfigError(f"--out: {args.out} is inside run directory {args.run}; write the timeline elsewhere")
    columns = ["iteration", "mode", "G", "delta", "epsilon"]
    rows = [{key: rec[key] for key in columns} for rec in records]
    write_csv(args.out, columns, rows)
    _say(f"wrote {args.out} ({len(rows)} rows)")
    for key, value in mode_stats(rec["mode"] for rec in records).items():
        _say(f"  {key}: {value}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "compare": cmd_compare,
        "grad-check": cmd_grad_check,
        "timeline": cmd_timeline,
    }
    try:
        if getattr(args, "out", None) == "":
            raise ConfigError("--out: empty path")
        with np.errstate(over="raise", invalid="raise"):  # an overflow or a NaN ends the command
            return handlers[args.command](args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FloatingPointError as exc:
        print(f"error: floating-point {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
