"""Run directories: JSONL/CSV artifact writers, the run manifest, and the
side-by-side strategy comparison."""

from __future__ import annotations

import csv
import json
import os
from datetime import datetime, timezone

from . import __version__
from .checkpoint import save_checkpoint
from .config import RunSetup
from .datasets import Dataset
from .errors import ConfigError, FormatError
from .gap import EXPERT, LEARNING, GapState
from .training import ModeTimeline, TrainResult, check_data_fit, run_training

MANIFEST_NAME = "manifest.json"
RUN_FORMAT = "switchdistill-run"
RUN_VERSION = 1


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_jsonl(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise FormatError(f"missing JSONL file {path}")
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: corrupt JSONL line ({exc.msg})") from exc
    return records


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _iteration_file(pair_name: str, single: bool) -> str:
    return "iterations.jsonl" if single else f"iterations_{pair_name}.jsonl"


def checked_data(setups: list[RunSetup]) -> list[tuple[Dataset, Dataset] | None]:
    """Make every setup's data-dependent checks before any of them trains.

    Image and IDX data is loaded, once per distinct source, and returned for
    ``execute_run``. Blob data is sized from its config and not generated
    (None).
    """
    loaded: dict[str, tuple[Dataset, Dataset]] = {}
    out = []
    for setup in setups:
        if setup.data.kind == "blobs":
            data, dims, classes = None, setup.data.options["dims"], setup.data.options["classes"]
        else:
            source = json.dumps(setup.data.describe(), sort_keys=True)
            if source not in loaded:
                loaded[source] = setup.data.build()
            data = loaded[source]
            dims, classes = data[0].dims, data[0].num_classes
        check_data_fit(setup.train, dims, classes)
        out.append(data)
    return out


def execute_run(
    setup: RunSetup, run_dir: str, data: tuple[Dataset, Dataset] | None = None
) -> tuple[TrainResult, dict]:
    """Train per the setup and write every artifact plus the manifest.

    ``data`` is the setup's (train, test) datasets, if already built. The
    run directory is created only once training has finished, so a run that
    fails before then leaves nothing behind.
    """
    started = datetime.now(timezone.utc).isoformat()
    train_ds, test_ds = data if data is not None else setup.data.build()
    result = run_training(setup.train, train_ds, test_ds)
    os.makedirs(run_dir, exist_ok=True)

    artifacts: list[str] = []

    config_path = os.path.join(run_dir, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as f:
        for key in sorted(setup.resolved):
            f.write(f"{key} = {setup.resolved[key]}\n")
    artifacts.append("config.cfg")

    single = setup.train.topology == "pair"
    for pair_name, records in result.iteration_log.items():
        name = _iteration_file(pair_name, single)
        write_jsonl(os.path.join(run_dir, name), records)
        artifacts.append(name)

    epoch_fields = list(result.epoch_log[0].keys())
    write_csv(os.path.join(run_dir, "epochs.csv"), epoch_fields, result.epoch_log)
    artifacts.append("epochs.csv")

    for net_name, net in result.networks.items():
        ckpt = f"{net_name}.npz"
        save_checkpoint(os.path.join(run_dir, ckpt), net)
        artifacts.append(ckpt)

    artifacts.append(MANIFEST_NAME)
    manifest = {
        "format": RUN_FORMAT,
        "version": RUN_VERSION,
        "code_version": __version__,
        "config": dict(setup.resolved),
        "dataset": {
            "train": train_ds.describe(),
            "test": test_ds.describe(),
            "source": setup.data.describe(),
        },
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "artifacts": sorted(artifacts),
    }
    with open(os.path.join(run_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return result, manifest


def _freeze_stats(result: TrainResult, net_name: str) -> tuple[int, float]:
    """(switch_count, frozen fraction) of the mode sequence governing one network.

    Networks in a single pair use that pair's timeline. A network tied to two
    pairs (the shared teacher or shared student in a triple) is governed by
    the all-pairs-expert indicator, i.e. the iterations it was fully
    suspended. A pre-trained offline teacher is a permanently frozen expert.
    """
    cfg = result.config
    if cfg.strategy == "kd-offline" and net_name == "teacher":
        return 0, 1.0
    if cfg.strategy != "switch":
        return 0, 0.0
    own_pairs = [p for p in cfg.pair_names() if net_name in p.split("_")]
    if not own_pairs:
        return 0, 0.0
    if len(own_pairs) == 1:
        tl = result.timelines[own_pairs[0]]
        return tl.switch_count, tl.fractions()[EXPERT]
    seqs = [result.timelines[p].states for p in own_pairs]
    flags = [all(s.mode == EXPERT for s in step_states) for step_states in zip(*seqs)]
    if not flags:
        return 0, 0.0
    switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    return switches, sum(flags) / len(flags)


COMPARISON_FIELDS = [
    "config",
    "strategy",
    "topology",
    "network",
    "role",
    "final_acc",
    "best_acc",
    "switch_count",
    "expert_fraction",
]


def comparison_rows(label: str, result: TrainResult) -> list[dict]:
    rows = []
    for net_name in result.config.network_names():
        switches, frozen = _freeze_stats(result, net_name)
        rows.append(
            {
                "config": label,
                "strategy": result.config.strategy,
                "topology": result.config.topology,
                "network": net_name,
                "role": "teacher" if net_name.startswith("teacher") else "student",
                "final_acc": result.final_accuracy(net_name),
                "best_acc": result.best_accuracy(net_name),
                "switch_count": switches,
                "expert_fraction": frozen,
            }
        )
    return rows


def check_comparable(setups: list[tuple[str, RunSetup]]) -> None:
    """All compared runs must share the dataset and seed."""
    baseline = None
    for label, setup in setups:
        key = (json.dumps(setup.data.describe(), sort_keys=True), setup.train.seed)
        if baseline is None:
            baseline = (label, key)
        elif key != baseline[1]:
            raise ConfigError(
                f"configs {baseline[0]} and {label} differ in dataset or seed; "
                "pass --allow-mismatch to compare anyway"
            )


def summarize_timeline(records: list[dict]) -> dict:
    """Recount modes and switches from iteration JSONL records."""
    timeline = ModeTimeline()
    for i, rec in enumerate(records, start=1):
        try:
            state_fields = {
                "iteration": rec["iteration"],
                "G": rec["G"],
                "r": rec["r"],
                "epsilon": rec["epsilon"],
                "delta": rec["delta"],
                "mode": rec["mode"],
            }
        except KeyError as exc:
            raise FormatError(f"record {i}: missing field {exc.args[0]!r}") from exc
        timeline.append(GapState(**state_fields))
    summary = timeline.summary()
    return {
        "iterations": summary["iterations"],
        "switch_count": summary["switch_count"],
        "learning_fraction": summary["fractions"][LEARNING],
        "expert_fraction": summary["fractions"][EXPERT],
    }
