"""Golden outputs: short CLI runs of every strategy and topology must reproduce
the stored iteration logs, epoch table and checkpoint arrays exactly.

Values are compared after parsing, and only the stored fields are checked, so
a field added to the logs later does not break the test. Regenerate the
stored values (only after a deliberate numerical change) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import csv
import hashlib
import json
import os
import struct
import sys

import numpy as np
import pytest

from switchdistill.cli import main
from switchdistill.runio import read_iteration_log

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "runs.json")

BLOB_CFG = """\
seed = 3
epochs = 5
batch_size = 16
alpha = 0.8
beta = 0.3
data.kind = blobs
data.classes = 4
data.dims = 16
data.per_class = 20
data.spread = 0.5
data.seed = 4
student.hidden = 6
student.lr = 0.002
teacher.hidden = 64,64
teacher.lr = 0.05
"""

CONV_CFG = """\
strategy = switch
seed = 1
epochs = 3
batch_size = 8
beta = 0.3
data.kind = idx
data.train_images = {dir}/train-images.idx
data.train_labels = {dir}/train-labels.idx
data.test_images = {dir}/test-images.idx
data.test_labels = {dir}/test-labels.idx
data.channels = 1
data.height = 6
data.width = 6
data.augment = true
student.conv = 2
student.hidden = 6
student.lr = 0.002
teacher.conv = 4
teacher.hidden = 16
teacher.lr = 0.05
"""

# run name -> config overrides on top of BLOB_CFG ("conv" uses CONV_CFG)
RUNS = {
    "vanilla": ["strategy=vanilla"],
    "dml": ["strategy=dml"],
    "switch": ["strategy=switch"],
    "kdcl": ["strategy=kdcl"],
    "kd-offline": ["strategy=kd-offline", "alpha=0.5", "tau=2"],  # teacher: the vanilla run's
    "1t2s": ["topology=1t2s", "third.hidden=8", "third.lr=0.002"],
    "2t1s": ["topology=2t1s", "third.hidden=8", "third.lr=0.05"],
    "conv": [],
}


def write_idx(dir_path, prefix, rng, count, classes=3):
    labels = rng.integers(0, classes, size=count).astype(np.uint8)
    base = rng.integers(0, 256, size=(classes, 6, 6))
    noise = rng.integers(-60, 61, size=(count, 6, 6))
    images = np.clip(base[labels] + noise, 0, 255).astype(np.uint8)
    with open(os.path.join(dir_path, f"{prefix}-images.idx"), "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, count, 6, 6))
        f.write(images.tobytes())
    with open(os.path.join(dir_path, f"{prefix}-labels.idx"), "wb") as f:
        f.write(struct.pack(">II", 0x00000801, count))
        f.write(labels.tobytes())


def run_outputs(run_dir):
    """Parsed iteration logs, epoch rows, and a sha256 per checkpoint array."""
    out = {"iterations": {}, "epochs": None, "checkpoints": {}}
    for name in sorted(os.listdir(run_dir)):
        path = os.path.join(run_dir, name)
        if name.startswith("iterations"):
            out["iterations"][name] = read_iteration_log(path)
        elif name == "epochs.csv":
            with open(path, newline="") as f:
                out["epochs"] = list(csv.DictReader(f))
        elif name.endswith(".npz"):
            with np.load(path) as data:
                out["checkpoints"][name] = {
                    key: hashlib.sha256(np.ascontiguousarray(data[key]).tobytes()).hexdigest()
                    for key in sorted(data.files)
                }
    return out


def produce(base_dir):
    """Run every golden configuration through the CLI; run name -> parsed outputs."""
    rng = np.random.default_rng(11)
    write_idx(base_dir, "train", rng, 48)
    write_idx(base_dir, "test", rng, 12)
    blob_cfg = os.path.join(base_dir, "blob.cfg")
    with open(blob_cfg, "w") as f:
        f.write(BLOB_CFG)
    conv_cfg = os.path.join(base_dir, "conv.cfg")
    with open(conv_cfg, "w") as f:
        f.write(CONV_CFG.format(dir=base_dir))
    results = {}
    for name, overrides in RUNS.items():
        run_dir = os.path.join(base_dir, name)
        if name == "kd-offline":
            overrides = overrides + [f"kd.teacher_checkpoint={base_dir}/vanilla/teacher.npz"]
        args = ["train", "--config", conv_cfg if name == "conv" else blob_cfg, "--out", run_dir]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 0, name
        results[name] = run_outputs(run_dir)
    return results


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("run", list(RUNS))
def test_iteration_logs_match(run, produced, golden):
    want = golden[run]["iterations"]
    got = produced[run]["iterations"]
    assert sorted(got) == sorted(want)
    for name, records in want.items():
        assert len(got[name]) == len(records), name
        for i, (g, w) in enumerate(zip(got[name], records)):
            for key, value in w.items():
                assert g[key] == value, (name, i, key)


@pytest.mark.parametrize("run", list(RUNS))
def test_epoch_table_matches(run, produced, golden):
    want = golden[run]["epochs"]
    got = produced[run]["epochs"]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert {k: g[k] for k in w} == w


@pytest.mark.parametrize("run", list(RUNS))
def test_checkpoint_arrays_match(run, produced, golden):
    assert produced[run]["checkpoints"] == golden[run]["checkpoints"]


def test_golden_runs_exercise_both_modes(golden):
    for run in ("switch", "1t2s", "2t1s", "conv"):
        modes = {r["mode"] for recs in golden[run]["iterations"].values() for r in recs}
        assert modes == {"learning", "expert"}, run


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        values = produce(tmp)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(values, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
