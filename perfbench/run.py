"""switchdistill benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload blob-compare --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout. Each round runs the workload's
`switchdistill` command once, in a fresh interpreter, through
`switchdistill.cli.main`, then checks everything the command wrote. Rounds
repeat until the next one would end after `--seconds`. With `--trace 0` the
run also times set-up alone several times and prints the end-to-end metrics;
with `--trace 1` it alternates untraced and traced rounds and prints the
per-layer metrics, including the tracing overhead. The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = "src"
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")

SETUP_PROBES = 10
CHILD_TIMEOUT_S = 120

# Per-layer network metrics are per role, so that no time metric reads 0 on
# every run of a workload: "students" sums student and student2.
ROLES = {"students": ("student", "student2"), "teacher": ("teacher",)}
PAIRS = ("teacher_student", "teacher_student2")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "student_acc": "fraction",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "config.build_ms": "ms",
        "datasets.load_ms": "ms",
        "datasets.batches_ms": "ms",
    }
    for role in ROLES:
        units[f"network.forward_ms.{role}"] = "ms"
        units[f"network.forward_calls.{role}"] = "count"
        units[f"network.backward_ms.{role}"] = "ms"
        units[f"network.backward_calls.{role}"] = "count"
    units.update({
        "network.evaluate_ms": "ms",
        "network.evaluate_calls": "count",
        "losses.ms": "ms",
        "losses.calls": "count",
        "gap.ms": "ms",
        "gap.calls": "count",
    })
    for pair in PAIRS:
        units[f"gap.learning_iters.{pair}"] = "count"
        units[f"gap.expert_iters.{pair}"] = "count"
    for role in ROLES:
        units[f"optim.step_ms.{role}"] = "ms"
        units[f"optim.steps.{role}"] = "count"
    units.update({
        "training.self_ms": "ms",
        "training.iters.learning": "count",
        "training.iters.expert": "count",
        "training.iter_ms.learning.p50": "ms",
        "training.iter_ms.learning.p90": "ms",
        "training.iter_ms.expert.p50": "ms",
        "training.iter_ms.expert.p90": "ms",
        "runio.write_ms": "ms",
        "checkpoint.save_ms": "ms",
        "runio.bytes_written": "bytes",
        "trace.run_s": "s",
        "trace.untraced_run_s": "s",
        "trace.overhead_s": "s",
        "trace.coverage": "fraction",
    })
    return units


PER_LAYER = per_layer_units()


class Workload:
    """One workload's inputs, command line and work directory for one seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.dir = os.path.relpath(os.path.join(WORK, name), ROOT)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = os.path.join(self.dir, "out")
        self.argv = inputs.prepare(name, seed, ".", os.path.join(self.dir, "inputs"), self.out)
        self.compare = name == "blob-compare"

    def child(self, setup_only: bool, trace: bool) -> tuple[dict | None, str]:
        """Run the command once in a fresh interpreter; (result or None, stderr tail)."""
        shutil.rmtree(self.out, ignore_errors=True)
        spec_path = os.path.join(self.dir, "spec.json")
        result_path = os.path.join(self.dir, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump({"src": SRC, "argv": self.argv, "setup_only": setup_only, "trace": trace}, f)
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, spec_path, result_path],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not os.path.exists(result_path):
            return None, proc.stderr[-2000:]
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
        if result["exit_code"] != 0:
            return None, f"switchdistill exited {result['exit_code']}: {proc.stderr[-2000:]}"
        return result, ""


def bytes_in(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def student_acc(runs: list[checks.RunSummary]) -> float:
    """Final accuracy of the switch run's students (their mean in a triple)."""
    run = next(r for r in runs if r.strategy == "switch")
    accs = [acc for net, acc in run.accuracy.items() if net.startswith("student")]
    return sum(accs) / len(accs)


def layer_values(result: dict, runs: list[checks.RunSummary], out: str) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    trace = result["trace"]
    total, calls = trace["total_ms"], trace["calls"]
    v = {
        "config.build_ms": total.get("config.build", 0.0),
        "datasets.load_ms": total.get("datasets.load", 0.0),
        "datasets.batches_ms": total.get("datasets.batches", 0.0) + total.get("datasets.augment", 0.0),
        "network.evaluate_ms": total.get("network.evaluate", 0.0),
        "network.evaluate_calls": calls.get("network.evaluate", 0),
        "losses.ms": total.get("losses", 0.0),
        "losses.calls": calls.get("losses", 0),
        "gap.ms": total.get("gap", 0.0),
        "gap.calls": calls.get("gap", 0),
        "training.self_ms": trace["self_ms"].get("training", 0.0),
        "training.iters.learning": trace["iters"]["learning"],
        "training.iters.expert": trace["iters"]["expert"],
        "runio.write_ms": total.get("runio.write", 0.0),
        "checkpoint.save_ms": total.get("checkpoint.save", 0.0),
        "runio.bytes_written": bytes_in(out),
        "trace.coverage": trace["covered_s"] / result["run_s"],
    }
    for key, ms in trace["iter_ms"].items():
        v[f"training.iter_ms.{key}"] = ms
    for role, nets in ROLES.items():
        for span, count in (("network.forward", "network.forward_calls"),
                            ("network.backward", "network.backward_calls"), ("optim.step", "optim.steps")):
            v[f"{span}_ms.{role}"] = sum(total.get(f"{span}.{n}", 0.0) for n in nets)
            v[f"{count}.{role}"] = sum(calls.get(f"{span}.{n}", 0) for n in nets)
    for pair in PAIRS:
        logs = [r.logs[pair] for r in runs if pair in r.logs]
        v[f"gap.learning_iters.{pair}"] = sum(1 for log in logs for rec in log if rec["mode"] == checks.LEARNING)
        v[f"gap.expert_iters.{pair}"] = sum(1 for log in logs for rec in log if rec["mode"] == checks.EXPERT)
    return v


def run_round(wl: Workload, traced: bool) -> tuple[dict | None, list[str], str]:
    """One execution of the workload's command and the checks of its output."""
    result, err = wl.child(setup_only=False, trace=traced)
    if result is None:
        return None, [], err
    try:
        runs, problems = checks.check_output(wl.out, wl.compare)
        if traced:
            problems += checks.check_steps(runs, result["trace"]["steps"])
        row = dict(result, samples=sum(r.train_samples * int(r.config["epochs"]) for r in runs),
                   student_acc=student_acc(runs))
        if traced:
            row["layers"] = layer_values(result, runs, wl.out)
    except (OSError, KeyError, IndexError, ValueError, StopIteration) as exc:
        return None, [f"unreadable output: {exc!r}"], ""
    return row, problems, ""


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Run rounds until the next would overrun; return metrics and operation counts."""
    started = time.perf_counter()
    setups, rows, traced_rows, problems, errors = [], [], [], [], []
    attempted = failed = 0
    if not trace:
        for _ in range(SETUP_PROBES):
            result, err = wl.child(setup_only=True, trace=False)
            if result is None:
                errors.append(f"set-up: {err}")
                break
            setups.append(result["setup_s"])
    round_walls: list[float] = []
    while True:
        traced = trace and len(traced_rows) < len(rows)
        t0 = time.perf_counter()
        attempted += 1
        row, found, err = run_round(wl, traced)
        problems += found
        if err:
            failed += 1
            errors.append(err)
        elif row is not None:
            (traced_rows if traced else rows).append(row)
            if not traced:
                setups.append(row["setup_s"])
        round_walls.append(time.perf_counter() - t0)
        next_end = time.perf_counter() - started + statistics.median(round_walls)
        if row is None or (next_end > seconds and (traced_rows or not trace)):
            break

    for err in errors:
        print(f"round failed: {err}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    metrics = {}
    if trace:
        if traced_rows and rows:
            metrics = {name: statistics.median([r["layers"][name] for r in traced_rows]) for name in PER_LAYER
                       if not name.startswith("trace.") or name == "trace.coverage"}
            metrics["trace.run_s"] = statistics.median([r["run_s"] for r in traced_rows])
            metrics["trace.untraced_run_s"] = statistics.median([r["run_s"] for r in rows])
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        units = PER_LAYER
        with open(os.path.join(wl.dir, "trace.json"), "w", encoding="utf-8") as f:
            json.dump([r["trace"] for r in traced_rows], f, indent=1)
    else:
        if rows:
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median([r["run_s"] for r in rows]),
                "samples_per_s": statistics.median([r["samples"] / r["run_s"] for r in rows]),
                "cpu_s": statistics.median([r["cpu_s"] for r in rows]),
                "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in rows]),
                "student_acc": statistics.median([r["student_acc"] for r in rows]),
            }
        units = END_TO_END
    with open(os.path.join(wl.dir, "rounds.json"), "w", encoding="utf-8") as f:
        json.dump({"setup_s": setups, "rounds": [{k: v for k, v in r.items() if k != "trace"} for r in rows + traced_rows]},
                  f, indent=1)
    return {
        "correct": not problems and not errors and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    missing = [p for p in (os.path.join(SRC, "switchdistill", "cli.py"),
                           *(os.path.join("configs", f"{c}.cfg") for c in inputs.REFERENCE_CONFIGS))
               if not os.path.isfile(p)]
    if missing:
        print(f"error: not a switchdistill source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed)
    report = measure(wl, args.seconds, bool(args.trace))
    for name, m in report["metrics"].items():
        print(f"{args.workload:<13} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
