"""Output checks for the benchmark's run directories.

Each check holds a run's artifacts against a property of the switching
method, or against a value recomputed here without switchdistill's code:
the blob test set is regenerated, the CIFAR test file is parsed with NumPy,
and every checkpoint is evaluated by a forward pass written in this file.
A check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

LEARNING = "learning"
EXPERT = "expert"

# Every student's final test accuracy must beat chance (1 / classes) by this much.
CHANCE_MARGIN = 0.25

CIFAR_RECORD = 1 + 3 * 32 * 32


@dataclass
class RunSummary:
    """What one run directory holds, as read back by the checks."""

    run_dir: str
    config: dict
    logs: dict[str, list[dict]] = field(default_factory=dict)  # pair name -> records
    accuracy: dict[str, float] = field(default_factory=dict)  # network -> final test accuracy in epochs.csv
    train_samples: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def strategy(self) -> str:
        return self.config["strategy"]

    @property
    def iterations(self) -> int:
        return len(next(iter(self.logs.values()))) if self.logs else 0

    def teacher_learning_iters(self) -> int:
        """Iterations in which the teacher should step: at least one of its pairs learns."""
        if not self.logs:
            return 0
        per_iter = zip(*self.logs.values())
        return sum(1 for recs in per_iter if any(r.get("mode") == LEARNING for r in recs))


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


# ---- test data, rebuilt without switchdistill ----------------------------------


def blob_train_per_class(cfg: dict) -> int:
    per_class = int(cfg["data.per_class"])
    return max(1, int(round(0.8 * per_class))) if per_class > 1 else 1


def blob_test_set(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """The blob generator's test split: unit-basis centers plus spread * N(0, 1), 80/20 per class."""
    k = int(cfg["data.classes"])
    per_class = int(cfg["data.per_class"])
    dims = int(cfg["data.dims"])
    spread = float(cfg["data.spread"])
    rng = np.random.default_rng(int(cfg["data.seed"]))
    n_train = blob_train_per_class(cfg)
    train_x, test_x, test_y = [], [], []
    for c in range(k):
        center = np.zeros(dims)
        center[c] = 1.0
        samples = center + spread * rng.standard_normal((per_class, dims))
        train_x.append(samples[:n_train])
        test_x.append(samples[n_train:])
        test_y.append(np.full(per_class - n_train, c))
    rng.permutation(k * n_train)  # the train split is shuffled first
    x, y = np.concatenate(test_x), np.concatenate(test_y)
    order = rng.permutation(len(y))
    return x[order], y[order]


def cifar_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % CIFAR_RECORD:
        raise ValueError(f"{path}: not a whole number of {CIFAR_RECORD}-byte records")
    raw = raw.reshape(-1, CIFAR_RECORD)
    return raw[:, 1:].astype(np.float64) / 255.0, raw[:, 0].astype(np.int64)


def train_size(cfg: dict) -> int:
    if cfg["data.kind"] == "blobs":
        return int(cfg["data.classes"]) * blob_train_per_class(cfg)
    return os.path.getsize(cfg["data.train_path"]) // CIFAR_RECORD


def test_set(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    if cfg["data.kind"] == "blobs":
        return blob_test_set(cfg)
    return cifar_file(cfg["data.test_path"])


# ---- checkpoint forward pass ----------------------------------------------------


def load_npz_network(path: str) -> tuple[list[dict], list[np.ndarray], list[np.ndarray]]:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        layers = header["layers"]
        weights = [data[f"w{i}"] for i in range(len(layers))]
        biases = [data[f"b{i}"] for i in range(len(layers))]
    return layers, weights, biases


def npz_logits(path: str, x: np.ndarray) -> np.ndarray:
    """Logits of a checkpointed dense/conv network, from its header and arrays alone."""
    layers, weights, biases = load_npz_network(path)
    h = np.asarray(x, dtype=np.float64)
    for spec, w, b in zip(layers, weights, biases):
        if spec["type"] == "dense":
            h = h @ w + b
        elif spec["type"] == "conv2d":
            k, s = spec["kernel"], spec["stride"]
            img = h.reshape(len(h), spec["in_channels"], spec["height"], spec["width"])
            windows = np.lib.stride_tricks.sliding_window_view(img, (k, k), axis=(2, 3))[:, :, ::s, ::s]
            out = np.einsum("bcijkl,ockl->boij", windows, w) + b[None, :, None, None]
            h = out.reshape(len(h), -1)
        else:
            raise ValueError(f"{path}: unknown layer type {spec['type']!r}")
        if spec["activation"] == "relu":
            h = np.maximum(h, 0.0)
    return h


# ---- run directory checks -------------------------------------------------------


def pair_log_files(cfg: dict) -> dict[str, str]:
    if cfg["topology"] == "pair":
        return {"teacher_student": "iterations.jsonl"}
    if cfg["topology"] == "1t2s":
        pairs = ("teacher_student", "teacher_student2")
    else:
        pairs = ("teacher_student", "teacher2_student")
    return {p: f"iterations_{p}.jsonl" for p in pairs}


def mode_stats(records: list[dict]) -> tuple[int, float]:
    """(switch count, expert fraction) of one iteration log."""
    modes = [r["mode"] for r in records]
    switches = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
    return switches, (modes.count(EXPERT) / len(modes) if modes else 0.0)


def check_records(name: str, records: list[dict], switch: bool, expected: int) -> list[str]:
    problems = []
    if len(records) != expected:
        problems.append(f"{name}: {len(records)} records, expected {expected}")
    if [r.get("iteration") for r in records] != list(range(len(records))):
        problems.append(f"{name}: iteration indices are not 0, 1, 2, ...")
    for r in records:
        i = r.get("iteration")
        if not switch:
            if r["mode"] != LEARNING:
                problems.append(f"{name}: iteration {i} of a non-switch run is {r['mode']}")
                break
            continue
        g, delta, s_err, t_err = r["G"], r["delta"], r["student_err_l1"], r["teacher_err_l1"]
        if not 0.0 <= g <= 2.0:
            problems.append(f"{name}: iteration {i}: G={g} outside [0, 2]")
            break
        if not (s_err - t_err - 1e-12 <= delta < s_err):
            problems.append(f"{name}: iteration {i}: delta={delta} outside [{s_err - t_err}, {s_err})")
            break
        if r["mode"] != (LEARNING if g <= delta else EXPERT):
            problems.append(f"{name}: iteration {i}: mode {r['mode']} but G={g}, delta={delta}")
            break
    if switch:
        modes = {r["mode"] for r in records}
        switches, _ = mode_stats(records)
        if modes != {LEARNING, EXPERT} or switches < 1:
            problems.append(f"{name}: switch pair shows modes {sorted(modes)} and {switches} switches")
    return problems


def check_run(run_dir: str) -> RunSummary:
    """Check one run directory: file list, iteration logs, accuracies."""
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    cfg = manifest["config"]
    summary = RunSummary(run_dir=run_dir, config=cfg)
    problems = summary.problems

    listed, present = sorted(manifest["artifacts"]), sorted(os.listdir(run_dir))
    if listed != present:
        problems.append(f"{run_dir}: files {present} differ from manifest list {listed}")

    summary.train_samples = train_size(cfg)
    if manifest["dataset"]["train"]["samples"] != summary.train_samples:
        problems.append(f"{run_dir}: manifest says {manifest['dataset']['train']['samples']} train samples, "
                        f"the input has {summary.train_samples}")
    epochs, batch = int(cfg["epochs"]), int(cfg["batch_size"])
    expected = epochs * math.ceil(summary.train_samples / batch)
    for pair, name in pair_log_files(cfg).items():
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            problems.append(f"{run_dir}: missing {name}")
            continue
        summary.logs[pair] = read_jsonl(path)
        problems += check_records(f"{run_dir}/{name}", summary.logs[pair], cfg["strategy"] == "switch", expected)

    rows = read_csv(os.path.join(run_dir, "epochs.csv"))
    if len(rows) != epochs:
        problems.append(f"{run_dir}/epochs.csv: {len(rows)} rows, expected {epochs}")
    x, y = test_set(cfg)
    chance = 1.0 / int(cfg["data.classes"])
    for artifact in manifest["artifacts"]:
        if not artifact.endswith(".npz"):
            continue
        net = artifact[: -len(".npz")]
        logged = float(rows[-1][f"{net}_acc"])
        recomputed = float(np.mean(np.argmax(npz_logits(os.path.join(run_dir, artifact), x), axis=1) == y))
        summary.accuracy[net] = logged
        if abs(recomputed - logged) > 1.0 / len(y) + 1e-12:
            problems.append(f"{run_dir}: {net} accuracy {recomputed} from its checkpoint, {logged} in epochs.csv")
        if net.startswith("student") and recomputed <= chance + CHANCE_MARGIN:
            problems.append(f"{run_dir}: {net} accuracy {recomputed} is not above chance {chance} + {CHANCE_MARGIN}")
    return summary


def check_comparison(out_dir: str, runs: list[RunSummary]) -> list[str]:
    """comparison.csv against mode statistics recounted from each run's iteration log."""
    problems = []
    rows = read_csv(os.path.join(out_dir, "comparison.csv"))
    expected_rows = sum(len(r.accuracy) for r in runs)
    if len(rows) != expected_rows:
        problems.append(f"comparison.csv: {len(rows)} rows, expected {expected_rows}")
    by_label = {os.path.basename(r.run_dir).split("_", 2)[2]: r for r in runs}
    for row in rows:
        run = by_label.get(row["config"])
        if run is None:
            problems.append(f"comparison.csv: row for unknown config {row['config']!r}")
            continue
        switches, expert = mode_stats(run.logs["teacher_student"])
        if int(row["switch_count"]) != switches or float(row["expert_fraction"]) != expert:
            problems.append(
                f"comparison.csv: {row['config']}/{row['network']} has switch_count={row['switch_count']}, "
                f"expert_fraction={row['expert_fraction']}; the log gives {switches}, {expert}"
            )
    return problems


def check_output(out_dir: str, compare: bool) -> tuple[list[RunSummary], list[str]]:
    """Check a `compare` output directory or a single `train` run directory."""
    if not compare:
        run = check_run(out_dir)
        return [run], list(run.problems)
    run_dirs = sorted(d for d in os.listdir(out_dir) if d.startswith("run_"))
    runs = [check_run(os.path.join(out_dir, d)) for d in run_dirs]
    problems = [p for r in runs for p in r.problems]
    return runs, problems + check_comparison(out_dir, runs)


def check_steps(runs: list[RunSummary], steps: list[dict[str, int]]) -> list[str]:
    """Traced optimizer steps: teachers step on learning iterations, students every iteration."""
    if len(steps) != len(runs):
        return [f"trace saw {len(steps)} training runs, the output holds {len(runs)}"]
    problems = []
    for run, counted in zip(runs, steps):
        for net in run.accuracy:
            want = run.teacher_learning_iters() if net == "teacher" else run.iterations
            if counted.get(net, 0) != want:
                problems.append(f"{run.run_dir}: {net} stepped {counted.get(net, 0)} times, expected {want}")
    return problems
