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
from .errors import ConfigError, DomainError, FormatError
from .gap import EXPERT, LEARNING, GapState, mode_stats
from .training import TEACHER, TrainResult, check_data_fit, run_training

MANIFEST_NAME = "manifest.json"
RUN_FORMAT = "switchdistill-run"
RUN_VERSION = 1
STATE_FIELDS = ("iteration", "G", "r", "epsilon", "delta", "mode")  # the GapState fields an iteration record holds


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

    A network is frozen on the iterations where every pair it belongs to is
    in expert mode, so a network in one pair follows that pair's modes. Runs
    that do not switch log every iteration as learning. A pre-trained offline
    teacher is a permanently frozen expert.
    """
    cfg = result.config
    if cfg.strategy == "kd-offline" and net_name == TEACHER:
        return 0, 1.0
    logs = [result.iteration_log[p] for p in cfg.pair_names() if net_name in p.split("_")]
    stats = mode_stats(EXPERT if all(r["mode"] == EXPERT for r in step) else LEARNING for step in zip(*logs))
    return stats["switch_count"], stats["expert_fraction"]


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
    """Check iteration JSONL records, then count their modes and switches.

    Every record must hold a valid ``GapState`` and iterations must strictly
    increase; a record that does not is a FormatError naming it.
    """
    last = -1
    for i, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            raise FormatError(f"record {i}: not a JSON object")
        try:
            state = GapState(**{key: rec[key] for key in STATE_FIELDS})
        except KeyError as exc:
            raise FormatError(f"record {i}: missing field {exc.args[0]!r}") from exc
        except DomainError as exc:
            raise FormatError(f"record {i}: {exc}") from exc
        if state.iteration <= last:
            raise FormatError(f"record {i}: iteration {state.iteration} is not after {last}")
        last = state.iteration
    return mode_stats(rec["mode"] for rec in records)
