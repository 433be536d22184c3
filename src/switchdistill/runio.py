"""Run directories, each built beside its path by ``new_directory`` so that a failure leaves nothing behind:
JSONL/CSV artifact writers, the run manifest, and the side-by-side strategy comparison."""

from __future__ import annotations

import csv
import errno
import json
import os
import shutil
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from datetime import datetime, timezone

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunSetup, save_config
from .datasets import Dataset
from .errors import ConfigError, DomainError, FormatError
from .gap import EXPERT, LEARNING, GapState, mode_stats
from .network import NetworkParams
from .training import TEACHER, TOPOLOGY_TABLE, TrainResult, check_image_shape, run_training

MANIFEST_NAME = "manifest.json"
RUN_FORMAT = "switchdistill-run"
RUN_VERSION = 1


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_iteration_log(path: str) -> list[dict]:
    """The records of an iteration JSONL file, each checked as it is read.

    Every non-blank line must be JSON holding a valid ``GapState``, and
    iterations must strictly increase. The first line in the file that fails
    is a FormatError naming its ``path:line``, and a bad record also its number;
    a file that is not UTF-8 or holds no records is a FormatError naming it.
    """
    if not os.path.exists(path):
        raise FormatError(f"missing JSONL file {path}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    records: list[dict] = []
    last = -1
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: corrupt JSONL line ({exc.msg})") from exc
        at = f"record {len(records) + 1}: {path}:{lineno}: "
        if not isinstance(rec, dict):
            raise FormatError(f"{at}not a JSON object")
        try:
            state = GapState.from_record(rec)
        except KeyError as exc:
            raise FormatError(f"{at}missing field {exc.args[0]!r}") from exc
        except DomainError as exc:
            raise FormatError(f"{at}{exc}") from exc
        if state.iteration <= last:
            raise FormatError(f"{at}iteration {state.iteration} is not after {last}")
        last = state.iteration
        records.append(rec)
    if not records:
        raise FormatError(f"{path}: no iteration records")
    return records


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def checked_data(setups: list[RunSetup]) -> list[tuple[Dataset, Dataset, dict[str, NetworkParams]]]:
    """Every setup's (train, test, initial) inputs, with every data-dependent check made before any of them trains.

    Each distinct data source is built once and each kd-offline teacher
    checkpoint read once. A checkpoint is refused unless it maps the data's
    features to its classes; it is the run's ``initial`` teacher.
    """
    built: dict[str, tuple[Dataset, Dataset]] = {}
    teachers: dict[str, NetworkParams] = {}
    out = []
    for setup in setups:
        source = json.dumps(setup.data.describe(), sort_keys=True)
        if source not in built:
            built[source] = setup.data.build()
        train, test = built[source]
        check_image_shape(setup.train, train.dims)
        initial = {}
        if setup.train.strategy == "kd-offline":
            path = setup.resolved["kd.teacher_checkpoint"]
            if path not in teachers:
                teachers[path] = load_checkpoint(path)
            net = initial[TEACHER] = teachers[path]
            maps = (net.layers[0].in_features, net.out_features)
            if maps != (train.dims, train.num_classes):
                raise ConfigError(
                    f"kd.teacher_checkpoint: {path} maps {maps[0]} input features to {maps[1]} classes, "
                    f"but the data has {train.dims} features and {train.num_classes} classes"
                )
        out.append((train, test, initial))
    return out


@contextmanager
def new_directory(path: str) -> Iterator[str]:
    """Yield a fresh directory beside ``path``; rename it onto ``path`` when the block succeeds, remove it when it raises.

    ``path`` must be missing or an empty directory, or an OSError naming it is
    raised before the block runs. Missing parents of ``path`` are made first.
    An OSError from the block that names a file in the removed directory is
    re-raised naming that file under ``path``.
    """
    with suppress(FileNotFoundError):
        if os.listdir(path):
            raise OSError(errno.ENOTEMPTY, os.strerror(errno.ENOTEMPTY), path)
    parent, name = os.path.split(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    staged = os.path.join(parent, f".{name}.{os.getpid()}")
    os.mkdir(staged)  # not tempfile.mkdtemp, whose 0700 would ignore the umask
    try:
        yield staged
        os.replace(staged, path)
    except BaseException as exc:
        shutil.rmtree(staged, ignore_errors=True)
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            inside = os.path.relpath(os.path.abspath(exc.filename), staged)
            if inside.split(os.sep)[0] != os.pardir:  # the staged directory or a file in it
                exc.filename = os.path.normpath(os.path.join(path, inside))
        raise


def execute_run(setup: RunSetup, run_dir: str, inputs: tuple) -> TrainResult:
    """Train per the setup on its ``checked_data`` inputs and write every artifact plus the manifest into ``run_dir``."""
    started = datetime.now(timezone.utc).isoformat()
    train_ds, test_ds, initial = inputs
    result = run_training(setup.train, train_ds, test_ds, initial=initial)
    save_config(os.path.join(run_dir, "config.cfg"), setup.resolved)
    for pair_name, records in result.iteration_log.items():
        name = "iterations.jsonl" if setup.train.topology == "pair" else f"iterations_{pair_name}.jsonl"
        write_jsonl(os.path.join(run_dir, name), records)
    write_csv(os.path.join(run_dir, "epochs.csv"), list(result.epoch_log[0]), result.epoch_log)
    for net_name, net in result.networks.items():
        save_checkpoint(os.path.join(run_dir, f"{net_name}.npz"), net)
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
        "artifacts": sorted(os.listdir(run_dir) + [MANIFEST_NAME]),
    }
    with open(os.path.join(run_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return result


def _freeze_stats(result: TrainResult, net_name: str) -> tuple[int, float]:
    """(switch_count, frozen fraction) of the mode sequence governing one network.

    A network is frozen on the iterations where every pair it belongs to is
    in expert mode, so a network in one pair follows that pair's modes. Runs
    that do not switch log every iteration as learning. A network with no
    optimizer, the pre-trained offline teacher, is a permanently frozen expert.
    """
    cfg = result.config
    if net_name not in result.opts:
        return 0, 1.0
    pairs = zip(cfg.pair_names(), TOPOLOGY_TABLE[cfg.topology].pairs)
    logs = [result.iteration_log[p] for p, pair in pairs if net_name in pair]
    stats = mode_stats(EXPERT if all(r["mode"] == EXPERT for r in step) else LEARNING for step in zip(*logs))
    return stats["switch_count"], stats["expert_fraction"]


def comparison_rows(label: str, result: TrainResult) -> list[dict]:
    """One ``comparison.csv`` row per network; the keys, in order, are the file's header."""
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
