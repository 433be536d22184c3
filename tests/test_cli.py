"""End-to-end CLI tests: artifacts, manifests, determinism, exit codes."""

import csv
import errno
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from test_checkpoint import DAMAGES, damaged_checkpoint
from test_datasets import write_idx_pair

from switchdistill import cli, config, runio, training
from switchdistill.checkpoint import save_checkpoint
from switchdistill.cli import main
from switchdistill.config import DATA_KEYS, KEYS, build_setup, ignoring_choice, load_config
from switchdistill.errors import DomainError
from switchdistill.network import init_params, mlp
from switchdistill.runio import read_iteration_log

SMALL_CFG = """
strategy = switch
epochs = 2
batch_size = 16
seed = 5
data.kind = blobs
data.classes = 3
data.dims = 6
data.per_class = 30
data.spread = 0.4
student.hidden = 8
teacher.hidden = 16,16
student.lr = 0.01
teacher.lr = 0.02
"""


# One bad value per config key, each refused at exit 1 by a message naming the key.
# Path keys are left out: their bad inputs are FormatErrors that name the path.
PATH_KEYS = {
    "data.train_images", "data.train_labels", "data.test_images", "data.test_labels",
    "data.train_path", "data.test_path", "kd.teacher_checkpoint",
}
BAD_VALUES = {
    "strategy": "warp",
    "topology": "ring",
    "seed": "-1",  # SMALL_CFG sets no data.seed, so the data takes this seed
    "alpha": "-1",
    "beta": "-0.5",
    "tau": "0",
    "epochs": "0",
    "batch_size": "0",
    "lr.milestones": "3,-1",
    "lr.gamma": "0",
    "data.kind": "parquet",
    "data.classes": "1",
    "data.dims": "0",
    "data.per_class": "0",
    "data.spread": "nan",
    "data.seed": "-1",
    "data.augment": "true",  # without an image shape
    "data.channels": "0",
    "data.height": "4",  # without data.channels and data.width
    "data.width": "-2",
    **{
        f"{net}.{key}": value
        for net in ("student", "teacher", "third")
        for key, value in (("hidden", "8,0"), ("conv", "0"), ("optimizer", "nadam"),
                           ("lr", "-1"), ("momentum", "1.0"), ("weight_decay", "-1"))
    },
}


def train_args(cfg, out, overrides):
    args = ["train", "--config", cfg, "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    return args


def assert_config_error(code, capsys, out, key):
    """Exit 1 with one line `error: <key>: ...`, and no run directory."""
    err = capsys.readouterr().err.strip()
    assert code == 1, err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {key}: "), err
    assert not os.path.exists(out)
    return err


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def missing_data_cfg(tmp_path):
    """A CIFAR-layout config whose data files do not exist."""
    path = tmp_path / "missing_data.cfg"
    gone = tmp_path / "gone.bin"
    path.write_text(f"data.kind = cifar\ndata.classes = 10\ndata.train_path = {gone}\ndata.test_path = {gone}\n")
    return str(path)


def cifar_cfg(tmp_path, train_records, test_records):
    """A CIFAR-10 config whose train and test files hold the given numbers of random records."""
    rng = np.random.default_rng(0)
    paths = {}
    for split, n in (("train", train_records), ("test", test_records)):
        paths[split] = tmp_path / f"{split}.bin"
        labels = rng.integers(0, 10, size=(n, 1))
        paths[split].write_bytes(np.hstack([labels, rng.integers(0, 256, size=(n, 3072))]).astype(np.uint8).tobytes())
    path = tmp_path / "cifar.cfg"
    path.write_text(
        "epochs = 1\nbatch_size = 4\nstudent.hidden = 4\nteacher.hidden = 4\ndata.kind = cifar\n"
        f"data.classes = 10\ndata.train_path = {paths['train']}\ndata.test_path = {paths['test']}\n"
    )
    return str(path)


def idx_cfg(tmp_path, train_labels, test_labels):
    """An IDX config over 2x2 images whose train and test splits carry the given labels."""
    paths = {}
    for split, labels in (("train", train_labels), ("test", test_labels)):
        (tmp_path / split).mkdir()
        images = np.arange(4 * len(labels), dtype=np.uint8).reshape(-1, 2, 2)
        paths[split] = write_idx_pair(tmp_path / split, images, np.asarray(labels, dtype=np.uint8))
    path = tmp_path / "idx.cfg"
    path.write_text(
        "epochs = 1\nbatch_size = 8\nstudent.hidden = 4\nteacher.hidden = 4\ndata.kind = idx\n"
        f"data.train_images = {paths['train'][0]}\ndata.train_labels = {paths['train'][1]}\n"
        f"data.test_images = {paths['test'][0]}\ndata.test_labels = {paths['test'][1]}\n"
    )
    return str(path), paths["train"][1], paths["test"][1]


def run_dir_files(run_dir):
    return sorted(os.listdir(run_dir))


def watch_training(monkeypatch):
    """The argument tuples of every `runio.run_training` call from now on."""
    trained = []
    monkeypatch.setattr(runio, "run_training", lambda *a, **k: trained.append(a) or training.run_training(*a, **k))
    return trained


class TestTrainCommand:
    def test_artifacts_exist_and_parse(self, cfg_file, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_file, "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        for name in manifest["artifacts"]:
            assert os.path.exists(os.path.join(out, name)), name
        # and vice versa: nothing on disk that the manifest does not list
        assert run_dir_files(out) == manifest["artifacts"]
        records = read_iteration_log(os.path.join(out, "iterations.jsonl"))
        assert {"iteration", "G", "r", "epsilon", "delta", "mode"} <= set(records[0])
        with open(os.path.join(out, "epochs.csv")) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert {"epoch", "student_acc", "teacher_acc"} == set(rows[0])

    def test_override_reflected_in_manifest(self, cfg_file, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_file, "--out", out, "--set", "strategy=dml"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["strategy"] == "dml"

    def test_config_snapshot_round_trips_through_the_parser(self, cfg_file, tmp_path):
        from switchdistill.config import build_setup, load_config

        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_file, "--out", out]) == 0
        snapshot = load_config(os.path.join(out, "config.cfg"))
        setup = build_setup(snapshot)
        assert setup.train.strategy == "switch"
        assert setup.train.seed == 5

    def test_rerun_is_byte_identical(self, cfg_file, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["train", "--config", cfg_file, "--out", out_a]) == 0
        assert main(["train", "--config", cfg_file, "--out", out_b]) == 0
        for name in ("epochs.csv", "iterations.jsonl", "config.cfg"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b, name

    def test_invalid_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("strategy = warp\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            ["alpha=nan"],
            ["beta=inf"],
            ["tau=inf"],
            ["lr.gamma=nan"],
            ["student.lr=nan"],
            ["teacher.weight_decay=inf"],
            ["topology=1t2s", "third.lr=-inf"],
            # optimizer settings out of range fail here too, not at optimizer init
            ["student.momentum=nan"],
            ["student.momentum=1.0"],
            ["student.lr=-1"],
            ["teacher.weight_decay=-1"],
            ["topology=1t2s", "third.momentum=-0.1"],
        ],
    )
    def test_non_finite_number_exits_1_naming_the_key(self, cfg_file, tmp_path, capsys, overrides):
        args = ["train", "--config", cfg_file, "--out", str(tmp_path / "r")]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 1
        err = capsys.readouterr().err.strip()
        key = overrides[-1].split("=")[0]
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {key}:"), err
        assert not os.path.exists(tmp_path / "r")

    def test_every_key_has_a_bad_value(self):
        assert set(BAD_VALUES) == set(KEYS) - PATH_KEYS

    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_bad_value_of_each_key_exits_1_naming_it(self, cfg_file, tmp_path, capsys, key):
        overrides = ["topology=1t2s"] if key.startswith("third.") else []  # a pair has no third network
        out = tmp_path / "r"
        code = main(train_args(cfg_file, out, overrides + [f"{key}={BAD_VALUES[key]}"]))
        assert_config_error(code, capsys, out, key)

    @pytest.mark.parametrize(
        "overrides,key,words",
        [
            (["data.spread=-1"], "data.spread", ["-1"]),
            (["data.dims=2"], "data.dims", ["data.classes (3)", "got 2"]),
            (["data.width=4"], "data.width", ["data.channels and data.height"]),
            (["student.conv=4"], "student.conv", ["data.channels, data.height, data.width"]),
            (["data.channels=1", "data.height=2", "data.width=3", "student.conv=4"], "student.conv", ["1x2x3"]),
            (["seed=-1"], "seed", ["got -1"]),
            # an image shape that does not fit the 6 blob features
            (["data.channels=3", "data.height=32", "data.width=32", "data.augment=true"],
             "data.channels, data.height, data.width", ["3072", "has 6"]),
            (["data.channels=3", "data.height=32", "data.width=32", "student.conv=4"],
             "data.channels, data.height, data.width", ["3072", "has 6"]),
        ],
    )
    def test_config_error_exits_1_naming_the_key(self, cfg_file, tmp_path, capsys, overrides, key, words):
        out = tmp_path / "r"
        err = assert_config_error(main(train_args(cfg_file, out, overrides)), capsys, out, key)
        assert all(w in err for w in words), err

    def test_cifar_classes_other_than_10_or_100_exit_1(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(train_args(missing_data_cfg(tmp_path), out, ["data.classes=11"]))
        assert_config_error(code, capsys, out, "data.classes")

    def test_negative_run_seed_exits_1_when_data_seed_is_set(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "r"
        err = assert_config_error(main(train_args(cfg_file, out, ["seed=-1", "data.seed=2"])), capsys, out, "seed")
        assert err == "error: seed: must be >= 0, got -1"

    @pytest.mark.parametrize("kind", ["cifar", "idx"])
    def test_negative_run_seed_exits_1_on_image_data(self, tmp_path, capsys, kind):
        """Image data reads no `data.seed`; the run's seed is refused all the same."""
        cfg = cifar_cfg(tmp_path, 8, 4) if kind == "cifar" else idx_cfg(tmp_path, [0, 1, 2] * 4, [0, 1, 2] * 2)[0]
        out = tmp_path / "r"
        err = assert_config_error(main(train_args(cfg, out, ["seed=-1"])), capsys, out, "seed")
        assert err == "error: seed: must be >= 0, got -1"

    def test_unknown_optimizer_exits_1_naming_the_key(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["train", "--config", cfg_file, "--out", str(out), "--set", "student.optimizer=nadam"]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: student.optimizer: unknown value 'nadam', expected one of ('sgd', 'adam')"
        assert not os.path.exists(out)

    def test_missing_data_file_leaves_no_run_dir(self, tmp_path, capsys):
        out = tmp_path / "r"
        args = ["train", "--config", missing_data_cfg(tmp_path), "--out", str(out)]
        entries = run_dir_files(tmp_path)
        assert main(args) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "gone.bin" in err, err
        assert not os.path.exists(out)
        assert run_dir_files(tmp_path) == entries

    def test_optimizer_init_failure_leaves_no_run_dir(self, cfg_file, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise DomainError("optimizer refused")

        monkeypatch.setattr(training, "init_optimizer", refuse)
        out = tmp_path / "r"
        entries = run_dir_files(tmp_path)
        assert main(["train", "--config", cfg_file, "--out", str(out)]) == 2
        assert not os.path.exists(out)
        assert run_dir_files(tmp_path) == entries  # nor the directory it was being built in

    def test_unreadable_teacher_checkpoint_leaves_no_run_dir(self, cfg_file, tmp_path, capsys):
        ckpt = tmp_path / "teacher.npz"
        ckpt.write_bytes(b"not a checkpoint")
        out = tmp_path / "r"
        args = ["train", "--config", cfg_file, "--out", str(out)]
        args += ["--set", "strategy=kd-offline", "--set", f"kd.teacher_checkpoint={ckpt}"]
        entries = run_dir_files(tmp_path)
        assert main(args) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not os.path.exists(out)
        assert run_dir_files(tmp_path) == entries

    @pytest.mark.parametrize(
        "layers,widths",
        [(mlp(8, (4,), 3), ["8 input features", "6 features"]), (mlp(6, (4,), 4), ["4 classes", "3 classes"])],
    )
    def test_teacher_checkpoint_not_fitting_the_data_exits_1(self, cfg_file, tmp_path, capsys, layers, widths):
        ckpt = str(tmp_path / "teacher.npz")
        save_checkpoint(ckpt, init_params(layers, 0))
        out = tmp_path / "r"
        args = ["train", "--config", cfg_file, "--out", str(out)]
        args += ["--set", "strategy=kd-offline", "--set", f"kd.teacher_checkpoint={ckpt}"]
        assert main(args) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("error: kd.teacher_checkpoint:"), err
        assert ckpt in err and all(w in err for w in widths), err
        assert not os.path.exists(out)

    def test_kd_offline_alpha_above_1_exits_1_naming_it(self, cfg_file, tmp_path, capsys):
        """The student's KL weight is 1 - alpha, so an alpha above 1 would push the student away from its teacher."""
        ckpt = str(tmp_path / "teacher.npz")
        save_checkpoint(ckpt, init_params(mlp(6, (4,), 3), 0))
        out = tmp_path / "r"
        code = main(train_args(cfg_file, out, ["strategy=kd-offline", f"kd.teacher_checkpoint={ckpt}", "alpha=1.5"]))
        err = assert_config_error(code, capsys, out, "alpha")
        assert err == "error: alpha: must be <= 1 for strategy=kd-offline, got 1.5"

    @pytest.mark.parametrize("item", ["alpha=1e308", "student.lr=1e308", "data.spread=1e308"])
    def test_floating_point_overflow_exits_2_in_one_line(self, cfg_file, tmp_path, capsys, item):
        """A finite value so large that NumPy overflows ends the run, instead of warning and training on."""
        out = tmp_path / "r"
        entries = run_dir_files(tmp_path)
        assert main(train_args(cfg_file, out, ["epochs=1", item])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: floating-point ") and err.count("\n") == 1, err
        assert run_dir_files(tmp_path) == entries

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_malformed_teacher_checkpoint_exits_1_naming_it(self, cfg_file, tmp_path, capsys, damage):
        ckpt = tmp_path / "teacher.npz"
        damaged_checkpoint(ckpt, damage)
        out = tmp_path / "r"
        args = ["train", "--config", cfg_file, "--out", str(out)]
        args += ["--set", "strategy=kd-offline", "--set", f"kd.teacher_checkpoint={ckpt}"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: malformed checkpoint (ShapeError: ") and err.count("\n") == 1, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("per_class", [1, 2])
    def test_blob_per_class_below_3_exits_1_before_any_data(self, cfg_file, tmp_path, capsys, monkeypatch, per_class):
        monkeypatch.setattr(config, "generate_blobs", lambda *a, **k: pytest.fail("blobs were generated"))
        out = tmp_path / "r"
        code = main(train_args(cfg_file, out, [f"data.per_class={per_class}"]))
        err = assert_config_error(code, capsys, out, "data.per_class")
        assert err == f"error: data.per_class: must be >= 3, got {per_class}"

    def test_idx_test_labels_beyond_train_classes_exit_1(self, tmp_path, capsys):
        cfg, train_labels, test_labels = idx_cfg(tmp_path, [0, 1, 2] * 4, [0, 1, 2, 3, 4] * 4)
        out = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and train_labels in err and test_labels in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("kind", ["cifar", "idx"])
    def test_empty_split_exits_1_naming_the_file(self, tmp_path, capsys, kind, split):
        if kind == "cifar":
            records = {"train": 8, "test": 4, split: 0}
            cfg = cifar_cfg(tmp_path, records["train"], records["test"])
            empty = tmp_path / f"{split}.bin"
        else:
            labels = {"train": [0, 1] * 4, "test": [0, 1], split: []}
            cfg, _, _ = idx_cfg(tmp_path, labels["train"], labels["test"])
            empty = tmp_path / split / "images.idx"
        out = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: {empty}: holds no records; the {split} split needs at least one", err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("classes, split, label", [(10, "train", 12), (100, "test", 150)])
    def test_cifar_label_outside_the_classes_exits_1_naming_the_record(self, tmp_path, capsys, classes, split, label):
        """The label byte of CIFAR-10, or the fine-label byte of CIFAR-100, of the third record."""
        label_bytes = 1 if classes == 10 else 2
        paths = {name: tmp_path / f"{name}.bin" for name in ("train", "test")}
        for name, path in paths.items():
            labels = np.zeros((4, label_bytes), dtype=np.uint8)
            labels[2, -1] = label if name == split else 1
            path.write_bytes(np.hstack([labels, np.zeros((4, 3072), dtype=np.uint8)]).tobytes())
        cfg = tmp_path / "cifar.cfg"
        cfg.write_text(
            f"epochs = 1\ndata.kind = cifar\ndata.classes = {classes}\n"
            f"data.train_path = {paths['train']}\ndata.test_path = {paths['test']}\n"
        )
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {paths[split]}: record 3 has label {label}, outside [0, {classes})\n", err
        assert not os.path.exists(out)

    def test_idx_images_of_no_pixels_exit_1_naming_the_file(self, tmp_path, capsys):
        cfg, _, _ = idx_cfg(tmp_path, [0, 1, 2], [0, 1, 2])
        images, _ = write_idx_pair(tmp_path / "train", np.zeros((3, 0, 5), dtype=np.uint8), np.array([0, 1, 2], np.uint8))
        out = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {images}: images of 0x5 pixels hold no pixels\n"
        assert not os.path.exists(out)

    def test_idx_test_split_with_fewer_classes_trains(self, tmp_path):
        cfg, _, _ = idx_cfg(tmp_path, [0, 1, 2] * 4, [0, 1] * 4)
        out = str(tmp_path / "r")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        dataset = json.load(open(os.path.join(out, "manifest.json")))["dataset"]
        assert (dataset["train"]["classes"], dataset["test"]["classes"]) == (3, 2)

    def test_input_config_never_modified(self, cfg_file, tmp_path):
        before = open(cfg_file).read()
        main(["train", "--config", cfg_file, "--out", str(tmp_path / "r")])
        assert open(cfg_file).read() == before


class TestCompareCommand:
    def test_three_strategy_comparison(self, tmp_path):
        paths = []
        for strategy in ("vanilla", "dml", "switch"):
            p = tmp_path / f"{strategy}.cfg"
            p.write_text(SMALL_CFG + f"strategy = {strategy}\n")
            paths.append(str(p))
        out = str(tmp_path / "cmp")
        assert main(["compare", "--configs", *paths, "--out", out]) == 0
        with open(os.path.join(out, "comparison.csv")) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6  # 3 strategies x 2 networks
        for row in rows:
            assert row["role"] in ("teacher", "student")
            assert 0.0 <= float(row["final_acc"]) <= 1.0
            assert 0.0 <= float(row["best_acc"]) <= 1.0
            assert 0.0 <= float(row["expert_fraction"]) <= 1.0
        # join oracle: every cell must agree with the per-run epochs.csv
        for i, strategy in enumerate(("vanilla", "dml", "switch")):
            run_csv = os.path.join(out, f"run_{i:02d}_{strategy}", "epochs.csv")
            with open(run_csv) as f:
                epochs = list(csv.DictReader(f))
            for network in ("student", "teacher"):
                row = next(
                    r for r in rows if r["strategy"] == strategy and r["network"] == network
                )
                assert float(row["final_acc"]) == float(epochs[-1][f"{network}_acc"])
                assert float(row["best_acc"]) == max(float(e[f"{network}_acc"]) for e in epochs)

    def test_comparing_run_with_itself_yields_identical_rows(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text(SMALL_CFG)
        out = str(tmp_path / "cmp")
        assert main(["compare", "--configs", str(p), str(p), "--out", out]) == 0
        with open(os.path.join(out, "comparison.csv")) as f:
            rows = list(csv.DictReader(f))
        halves = [
            [tuple(sorted(r.items())) for r in rows[:2]],
            [tuple(sorted(r.items())) for r in rows[2:]],
        ]
        assert halves[0] == halves[1]

    def test_failed_first_run_leaves_no_output_dir(self, tmp_path):
        out = tmp_path / "cmp"
        args = ["compare", "--configs", missing_data_cfg(tmp_path), "--out", str(out)]
        entries = run_dir_files(tmp_path)
        assert main(args) == 1
        assert not os.path.exists(out)
        assert run_dir_files(tmp_path) == entries

    def test_mismatched_seed_rejected(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(SMALL_CFG)
        b.write_text(SMALL_CFG + "seed = 6\n")
        out = str(tmp_path / "cmp")
        assert main(["compare", "--configs", str(a), str(b), "--out", out]) == 1
        assert main(["compare", "--configs", str(a), str(b), "--out", out, "--allow-mismatch"]) == 0

    def test_each_data_source_is_built_and_each_checkpoint_read_once(self, tmp_path, monkeypatch):
        ckpt = str(tmp_path / "teacher.npz")
        save_checkpoint(ckpt, init_params(mlp(6, (4,), 3), 0))
        paths = []
        for label, extra in (
            ("vanilla", "strategy = vanilla\n"),
            ("switch", ""),
            ("kd", f"strategy = kd-offline\nkd.teacher_checkpoint = {ckpt}\n"),
            ("kd_half", f"strategy = kd-offline\nalpha = 0.5\nkd.teacher_checkpoint = {ckpt}\n"),
        ):
            paths.append(tmp_path / f"{label}.cfg")
            paths[-1].write_text(SMALL_CFG + extra)
        calls = {"build": 0, "load": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(config.DataSettings, "build", counted("build", config.DataSettings.build))
        monkeypatch.setattr(runio, "load_checkpoint", counted("load", runio.load_checkpoint))
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", *map(str, paths), "--out", str(out), "--set", "epochs=1"]) == 0
        assert calls == {"build": 1, "load": 1}
        assert len(os.listdir(out)) == 5  # four run directories and comparison.csv

    def test_bad_later_config_fails_before_any_run(self, tmp_path, capsys):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(SMALL_CFG)
        b.write_text(SMALL_CFG + "data.classes = 1\n")
        out = tmp_path / "cmp"
        code = main(["compare", "--configs", str(a), str(b), "--out", str(out), "--allow-mismatch"])
        assert_config_error(code, capsys, out, "data.classes")

    @pytest.mark.parametrize("misfit", ["image_shape", "teacher_checkpoint", "idx_labels"])
    def test_later_config_whose_data_does_not_fit_fails_before_any_run(self, tmp_path, capsys, misfit):
        first, later = tmp_path / "first.cfg", tmp_path / "later.cfg"
        if misfit == "image_shape":  # a 3x32x32 image shape on the reference config's 16-feature blobs
            reference = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "reference_switch.cfg")
            first.write_text(open(reference).read())
            later.write_text(first.read_text() + "data.channels = 3\ndata.height = 32\ndata.width = 32\nstudent.conv = 4\n")
            words = ["error: data.channels, data.height, data.width:", "3072", "has 16"]
        elif misfit == "teacher_checkpoint":  # 8 input features for the 6 blob features
            ckpt = str(tmp_path / "teacher.npz")
            save_checkpoint(ckpt, init_params(mlp(8, (4,), 3), 0))
            first.write_text(SMALL_CFG)
            later.write_text(SMALL_CFG + f"strategy = kd-offline\nkd.teacher_checkpoint = {ckpt}\n")
            words = ["error: kd.teacher_checkpoint:", ckpt]
        else:
            cfg, train_labels, test_labels = idx_cfg(tmp_path, [0, 1, 2] * 4, [0, 1, 2, 3, 4] * 4)
            first.write_text(SMALL_CFG)
            later = cfg
            words = [train_labels, test_labels]
        out = tmp_path / "cmp"
        args = ["compare", "--configs", str(first), str(later), "--out", str(out), "--allow-mismatch"]
        assert main(args + ["--set", "epochs=1"]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and all(w in err for w in words), err
        assert not os.path.exists(out)


BLOB_ONLY_CFG = "data.kind = blobs\n"
CIFAR_ONLY_CFG = "data.kind = cifar\ndata.classes = 10\ndata.train_path = a.bin\ndata.test_path = b.bin\n"
IDX_ONLY_CFG = "data.kind = idx\n" + "".join(
    f"data.{name} = {name}.idx\n" for name in ("train_images", "train_labels", "test_images", "test_labels")
)
# key -> (a config whose run never reads the key, the choice in it that ignores the key)
UNREAD_BY = {
    "data.classes": (IDX_ONLY_CFG, "data.kind=idx"),
    **{f"data.{name}": (CIFAR_ONLY_CFG, "data.kind=cifar") for name in ("dims", "per_class", "spread", "seed")},
    **{
        f"data.{name}": (BLOB_ONLY_CFG, "data.kind=blobs")
        for name in ("train_images", "train_labels", "test_images", "test_labels", "train_path", "test_path")
    },
    **{key: (SMALL_CFG, "topology=pair") for key in KEYS if key.startswith("third.")},
    "kd.teacher_checkpoint": (SMALL_CFG, "strategy=switch"),
}
# each data kind, a triple and kd-offline: every choice in the three tables that changes which keys are read
EVERY_CHOICE = [
    {},
    {"topology": "1t2s"},
    {"strategy": "kd-offline", "kd.teacher_checkpoint": "teacher.npz"},
    {"data.kind": "cifar", "data.classes": "10", "data.train_path": "a.bin", "data.test_path": "b.bin"},
    {"data.kind": "idx", **{f"data.{name}": "x" for name in DATA_KEYS["idx"]}},
]

REFERENCE_CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "*.cfg")))


class TestUnreadKeys:
    """Every key the user sets is read by the run, or refused before anything is read or trained."""

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_each_key_is_read_or_refused(self, tmp_path, capsys, monkeypatch, key):
        if key not in UNREAD_BY:  # every choice reads it
            assert all(ignoring_choice(build_setup(values).resolved, key) is None for values in EVERY_CHOICE)
            return
        text, choice = UNREAD_BY[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        value = {"data.seed": "3", "third.conv": "4"}.get(key, KEYS[key][1] or "x")
        monkeypatch.setattr(config.DataSettings, "build", lambda self: pytest.fail("data was read"))
        out = tmp_path / "r"
        assert main(train_args(str(cfg), out, [f"{key}={value}"])) == 1
        assert capsys.readouterr().err == f"error: {key}: not read when {choice}, but set by --set\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "values",
        EVERY_CHOICE + [load_config(path) for path in REFERENCE_CONFIGS],
        ids=[f"choice{i}" for i in range(len(EVERY_CHOICE))] + [os.path.basename(p) for p in REFERENCE_CONFIGS],
    )
    def test_snapshot_holds_only_read_keys_and_builds_the_same_run(self, values):
        setup = build_setup(values)
        assert [key for key in setup.resolved if ignoring_choice(setup.resolved, key)] == []
        again = build_setup(setup.resolved)
        assert (again.train, again.data, again.resolved) == (setup.train, setup.data, setup.resolved)

    def test_ignored_keys_of_a_reference_config_exit_1(self, tmp_path, capsys):
        reference = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "reference_switch.cfg")
        overrides = ["data.train_path=/nope", "third.lr=5", "kd.teacher_checkpoint=/nope.npz"]
        out = tmp_path / "r"
        assert main(train_args(reference, out, overrides)) == 1
        assert capsys.readouterr().err == "error: data.train_path: not read when data.kind=blobs, but set by --set\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_key_its_file_sets_must_be_read_by_that_run(self, tmp_path, capsys, command):
        pair, triple = tmp_path / "pair.cfg", tmp_path / "triple.cfg"
        pair.write_text(SMALL_CFG + "third.hidden = 8\n")
        triple.write_text(SMALL_CFG + "topology = 1t2s\nthird.hidden = 8\n")
        out = tmp_path / "r"
        configs = [str(pair)] if command == "train" else [str(triple), str(pair)]
        args = ["train", "--config", configs[0]] if command == "train" else ["compare", "--configs", *configs]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: third.hidden: not read when topology=pair, but set in {pair}\n"
        assert not os.path.exists(out)

    def test_file_key_its_run_ignores_is_refused_though_set_gives_it(self, tmp_path, capsys):
        pair, triple = tmp_path / "pair.cfg", tmp_path / "triple.cfg"
        pair.write_text(SMALL_CFG + "third.hidden = 8\n")
        triple.write_text(SMALL_CFG + "topology = 1t2s\n")
        out = tmp_path / "cmp"
        args = ["compare", "--configs", str(triple), str(pair), "--out", str(out), "--set", "third.hidden=5"]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: third.hidden: not read when topology=pair, but set in {pair}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind", ["blobs", "cifar", "idx"])
    def test_run_snapshot_trains_again(self, tmp_path, kind):
        """A snapshot lists only the keys its run reads, e.g. no `third.*` for a pair, so it is taken as a config."""
        if kind == "blobs":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(SMALL_CFG)
        elif kind == "cifar":
            cfg = cifar_cfg(tmp_path, 8, 4)
        else:
            cfg = idx_cfg(tmp_path, [0, 1, 2] * 4, [0, 1, 2] * 2)[0]
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(train_args(str(cfg), first, [])) == 0
        snapshot = first / "config.cfg"
        assert "third.hidden" not in load_config(str(snapshot))
        assert main(train_args(str(snapshot), again, [])) == 0
        for name in ("config.cfg", "student.npz", "iterations.jsonl"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_compare_takes_a_set_key_that_one_config_reads(self, tmp_path, capsys):
        pair, triple = tmp_path / "pair.cfg", tmp_path / "triple.cfg"
        pair.write_text(SMALL_CFG)
        triple.write_text(SMALL_CFG + "topology = 1t2s\n")
        out = tmp_path / "cmp"
        args = ["compare", "--configs", str(pair), str(triple), "--out", str(out), "--set", "third.hidden=5"]
        assert main(args) == 0
        assert load_config(str(out / "run_01_triple" / "config.cfg"))["third.hidden"] == "5"
        capsys.readouterr()
        assert main(args[:-1] + ["kd.teacher_checkpoint=x.npz"]) == 1  # no config reads it
        assert capsys.readouterr().err == (
            "error: kd.teacher_checkpoint: not read when strategy=switch, but set by --set\n"
        )


class TestOutDirectory:
    """`--out` is taken only when missing or empty, and a failed command leaves its parent as it was."""

    @staticmethod
    def args(command, cfg_file, out):
        if command == "train":
            return ["train", "--config", cfg_file, "--out", str(out)]
        return ["compare", "--configs", cfg_file, cfg_file, "--out", str(out)]

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_used_run_dir_is_refused_before_training(self, cfg_file, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "r"
        assert main(train_args(cfg_file, out, ["topology=1t2s"])) == 0
        files = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert len(files) == 8
        entries = run_dir_files(tmp_path)
        trained = watch_training(monkeypatch)
        capsys.readouterr()
        assert main(self.args(command, cfg_file, out)) == 1  # a pair run, whose files differ from the triple's
        assert capsys.readouterr().err == f"error: {out}: Directory not empty\n"
        assert trained == []
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == files
        assert run_dir_files(tmp_path) == entries

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_empty_dir_is_accepted(self, cfg_file, tmp_path, command):
        out = tmp_path / "r"
        out.mkdir()
        assert main(self.args(command, cfg_file, out)) == 0
        if command == "train":
            assert run_dir_files(out) == json.load(open(out / "manifest.json"))["artifacts"]
        else:
            assert run_dir_files(out) == ["comparison.csv", "run_00_run", "run_01_run"]
        assert run_dir_files(tmp_path) == ["r", "run.cfg"]

    def test_dirs_get_the_mode_a_plain_mkdir_gives(self, cfg_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(self.args("compare", cfg_file, out)) == 0
        os.mkdir(tmp_path / "plain")
        modes = {os.stat(path).st_mode for path in (tmp_path / "plain", out, out / "run_00_run", out / "run_01_run")}
        assert len(modes) == 1, [oct(m) for m in modes]

    @pytest.mark.parametrize("command", ["train", "compare", "timeline"])
    def test_empty_out_path_exits_1_before_training(self, cfg_file, tmp_path, capsys, monkeypatch, command):
        trained = watch_training(monkeypatch)
        if command == "timeline":
            args = ["timeline", "--run", str(tmp_path), "--out", ""]
        else:
            args = self.args(command, cfg_file, "")
        assert main(args) == 1
        assert capsys.readouterr().err == "error: --out: empty path\n"
        assert trained == []

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_out_inside_a_run_directory_exits_1_before_any_data(self, cfg_file, tmp_path, capsys, monkeypatch, command):
        run = tmp_path / "a"
        assert main(train_args(cfg_file, run, [])) == 0
        built = []
        monkeypatch.setattr(config.DataSettings, "build", lambda settings: built.append(settings))
        capsys.readouterr()
        out = run / "nested"
        assert main(self.args(command, cfg_file, out)) == 1
        assert capsys.readouterr().err == f"error: --out: {out} is inside run directory {run}\n"
        assert built == []
        assert run_dir_files(run) == json.load(open(run / "manifest.json"))["artifacts"]

    @pytest.mark.parametrize(
        "command,failing_save,named",
        [("train", 2, "teacher.npz"), ("compare", 4, "run_01_run/teacher.npz")],
        ids=["train-2", "compare-4"],
    )
    def test_failed_write_leaves_parent_as_it_was(
        self, cfg_file, tmp_path, capsys, monkeypatch, command, failing_save, named
    ):
        saved = []

        def save_until_disk_full(path, net):
            if len(saved) + 1 == failing_save:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            save_checkpoint(path, net)
            saved.append(path)

        monkeypatch.setattr(runio, "save_checkpoint", save_until_disk_full)
        entries = run_dir_files(tmp_path)
        out = tmp_path / "r"
        assert main(self.args(command, cfg_file, out)) == 1
        # the file is named where it would have been, not inside the removed staging directory
        assert capsys.readouterr().err == f"error: {out / named}: No space left on device\n"
        assert len(saved) == failing_save - 1  # artifacts existed when the write failed
        assert run_dir_files(tmp_path) == entries

    def test_compare_renames_one_directory_into_place(self, cfg_file, tmp_path, monkeypatch):
        replaced = []
        monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(dst) or os.rename(src, dst))
        out = tmp_path / "cmp"
        assert main(self.args("compare", cfg_file, out)) == 0
        assert replaced == [str(out)]  # the run directories are made inside it, not staged on their own
        assert run_dir_files(out) == ["comparison.csv", "run_00_run", "run_01_run"]


class TestGradCheckCommand:
    def test_default_passes(self, capsys):
        assert main(["grad-check", "--strategy", "switch", "--trials", "20"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_tau_five_passes(self):
        assert main(["grad-check", "--strategy", "switch", "--tau", "5", "--trials", "20"]) == 0

    def test_injected_fault_fails(self, capsys):
        assert main(["grad-check", "--strategy", "dml", "--trials", "10", "--inject-fault"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_strategy_is_runtime_error(self):
        assert main(["grad-check", "--strategy", "atkd"]) == 2

    def test_switch_checks_every_network_of_every_topology(self, capsys):
        assert main(["grad-check", "--strategy", "switch", "--trials", "3"]) == 0
        *cases, verdict = capsys.readouterr().out.splitlines()
        assert [line.split()[:1] + line.split()[2:-2] for line in cases] == [
            ["ok", "student"], ["ok", "teacher"],
            ["ok", "1t2s", "student"], ["ok", "1t2s", "teacher"], ["ok", "1t2s", "student2"],
            ["ok", "2t1s", "student"], ["ok", "2t1s", "teacher"], ["ok", "2t1s", "teacher2"],
        ]
        assert verdict.startswith("all gradients within")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--alpha", "-1"], "alpha: must be non-negative, got -1.0"),
            (["--beta", "inf"], "beta: must be finite, got inf"),
            (["--tau", "nan"], "tau: must be finite, got nan"),
            (["--strategy", "kd-offline", "--alpha", "1.5"], "alpha: must be <= 1 for strategy=kd-offline, got 1.5"),
        ],
    )
    def test_objective_a_run_refuses_exits_2_naming_the_argument(self, capsys, args, message):
        assert main(["grad-check", "--trials", "2", *args]) == 2
        assert capsys.readouterr()[:] == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args, argument",
        [
            (["--trials", "0"], "trials"),
            (["--trials", "-3"], "trials"),
            (["--tolerance", "inf"], "tolerance"),
            (["--tolerance", "nan"], "tolerance"),
            (["--tolerance", "0"], "tolerance"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_check_of_nothing_exits_2_naming_the_argument(self, capsys, args, argument):
        assert main(["grad-check", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {argument} must be") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("command", ["train", "compare"])
def test_config_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"epochs = 1\n\xff\n")
    out = tmp_path / "r"
    assert main([command, "--config" if command == "train" else "--configs", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1, err
    assert not out.exists()


def run_into_closed_pipe(args):
    """Run the CLI in a child process whose stdout is a pipe with its read end already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        return subprocess.run(
            [sys.executable, "-m", "switchdistill.cli", *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
    finally:
        os.close(write_end)


def test_closed_stdout_keeps_each_commands_exit_code(cfg_file, tmp_path):
    out = tmp_path / "run"
    train = run_into_closed_pipe(["train", "--config", cfg_file, "--out", str(out)])
    assert (train.returncode, train.stderr) == (0, "")
    manifest = json.load(open(out / "manifest.json"))
    assert run_dir_files(out) == manifest["artifacts"]
    check = run_into_closed_pipe(["grad-check", "--inject-fault", "--trials", "10"])
    assert (check.returncode, check.stderr) == (2, "")


@pytest.mark.parametrize("command", ["train", "compare", "timeline"])
def test_unwritable_output_path_exits_1_naming_it(cfg_file, tmp_path, capsys, monkeypatch, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")  # a path under a regular file
    run = str(tmp_path / "run")
    assert main(["train", "--config", cfg_file, "--out", run]) == 0
    args = {
        "train": ["train", "--config", cfg_file, "--out", out],
        "compare": ["compare", "--configs", cfg_file, "--out", out],
        "timeline": ["timeline", "--run", run, "--out", str(tmp_path / "missing" / "t.csv")],
    }[command]
    trained = watch_training(monkeypatch)
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    path = args[-1] if command == "timeline" else out
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert trained == []  # a bad --out is refused before anything trains


ITERATION_RECORD_HEAD = ["iteration", "G", "r", "epsilon", "delta", "mode"]
L1_ERRORS = ["student_err_l1", "teacher_err_l1"]


def test_artifact_byte_layout(cfg_file, tmp_path):
    """Key and column order of the written artifacts, which reruns must reproduce byte for byte."""
    cmp_dir, triple = tmp_path / "cmp", tmp_path / "triple"
    assert main(["compare", "--configs", cfg_file, "--out", str(cmp_dir)]) == 0
    pair_run = cmp_dir / "run_00_run"
    assert list(read_iteration_log(pair_run / "iterations.jsonl")[0]) == [
        *ITERATION_RECORD_HEAD,
        "student_ce", "teacher_ce", "student_kl", "teacher_kl", "student_loss", "teacher_loss",
        *L1_ERRORS,
    ]
    with open(cmp_dir / "comparison.csv") as f:
        assert f.readline() == (
            "config,strategy,topology,network,role,final_acc,best_acc,switch_count,expert_fraction\n"
        )
    timeline = tmp_path / "timeline.csv"
    assert main(["timeline", "--run", str(pair_run), "--out", str(timeline)]) == 0
    with open(timeline) as f:
        assert f.readline() == "iteration,mode,G,delta,epsilon\n"

    assert main(train_args(cfg_file, triple, ["topology=1t2s"])) == 0
    for name in ("iterations_teacher_student.jsonl", "iterations_teacher_student2.jsonl"):
        assert list(read_iteration_log(triple / name)[0]) == [
            *ITERATION_RECORD_HEAD, "student_ce", "student_kl", "teacher_ce", "teacher_kl", *L1_ERRORS,
        ]
    assert run_dir_files(triple) == json.load(open(triple / "manifest.json"))["artifacts"] == [
        "config.cfg", "epochs.csv", "iterations_teacher_student.jsonl", "iterations_teacher_student2.jsonl",
        "manifest.json", "student.npz", "student2.npz", "teacher.npz",
    ]


class TestTimelineCommand:
    @staticmethod
    def write_log(run, modes):
        run.mkdir(exist_ok=True)
        with open(run / "iterations.jsonl", "w") as f:
            for i, mode in enumerate(modes):
                f.write(
                    json.dumps(
                        {"iteration": i, "G": 0.4, "r": 0.3, "epsilon": 0.7, "delta": 0.5, "mode": mode}
                    )
                    + "\n"
                )

    def test_counts_alternating_log(self, tmp_path, capsys):
        run = tmp_path / "run"
        self.write_log(run, ["learning", "expert", "learning", "expert"])
        out = str(tmp_path / "timeline.csv")
        assert main(["timeline", "--run", str(run), "--out", out]) == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert [r["mode"] for r in rows] == ["learning", "expert", "learning", "expert"]
        assert "switch_count: 3" in capsys.readouterr().out

    def test_all_learning_log_has_zero_expert_fraction(self, tmp_path, capsys):
        run = tmp_path / "run"
        self.write_log(run, ["learning"] * 6)
        out = str(tmp_path / "timeline.csv")
        assert main(["timeline", "--run", str(run), "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "expert_fraction: 0.0" in printed
        assert "switch_count: 0" in printed

    def test_summary_matches_recount(self, cfg_file, tmp_path, capsys):
        run = str(tmp_path / "run")
        main(["train", "--config", cfg_file, "--out", run])
        out = str(tmp_path / "tl.csv")
        assert main(["timeline", "--run", run, "--out", out]) == 0
        printed = capsys.readouterr().out
        records = read_iteration_log(os.path.join(run, "iterations.jsonl"))
        switches = sum(
            1 for a, b in zip(records, records[1:]) if a["mode"] != b["mode"]
        )
        assert f"switch_count: {switches}" in printed
        expert = sum(1 for r in records if r["mode"] == "expert") / len(records)
        assert f"expert_fraction: {expert}" in printed

    def test_missing_log_exits_1(self, tmp_path):
        assert main(["timeline", "--run", str(tmp_path), "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["zero-bytes", "blank-lines"])
    def test_log_with_no_records_exits_1_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "iterations.jsonl"
        path.write_text(text)
        out = tmp_path / "t.csv"
        assert main(["timeline", "--run", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: no iteration records\n"
        assert not out.exists()

    VALID = {"iteration": 4, "G": 0.4, "r": 0.3, "epsilon": 0.7, "delta": 0.5, "mode": "learning"}

    def test_log_that_is_not_utf8_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "iterations.jsonl"
        path.write_bytes(json.dumps(self.VALID).encode() + b"\n\xff\n")
        out = tmp_path / "t.csv"
        assert main(["timeline", "--run", str(tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text (") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["run", "link", "dotdot", "other-run"])
    def test_out_inside_a_run_directory_exits_1_writing_nothing(self, tmp_path, capsys, via):
        run, other = tmp_path / "run", tmp_path / "other"
        for directory in (run, other):
            self.write_log(directory, ["learning", "expert"])
            (directory / "manifest.json").write_text("{}\n")
        (tmp_path / "link").symlink_to(run)
        into = other if via == "other-run" else run
        out = {"run": run, "link": tmp_path / "link", "dotdot": tmp_path / "elsewhere" / ".." / "run",
               "other-run": other}[via] / "t.csv"
        assert main(["timeline", "--run", str(run), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out: {out} is inside run directory {into}") and err.count("\n") == 1, err
        assert run_dir_files(into) == ["iterations.jsonl", "manifest.json"]

    @pytest.mark.parametrize(
        "record",
        [
            {**VALID, "mode": "paused"},
            {**VALID, "G": 2.5},
            {**VALID, "iteration": 2},
            {**VALID, "iteration": 3},
            "x",
            [1, 2],
            {**VALID, "iteration": "a"},
            {**VALID, "G": None},
            {**VALID, "delta": None},
            {**VALID, "delta": float("nan")},
        ],
        ids=[
            "unknown-mode",
            "G-out-of-range",
            "decreasing-iteration",
            "repeated-iteration",
            "string",
            "list",
            "text-iteration",
            "null-G",
            "null-delta",
            "nan-delta",
        ],
    )
    def test_malformed_record_exits_1_naming_it(self, tmp_path, capsys, record):
        run = tmp_path / "run"
        run.mkdir()
        lines = [{**self.VALID, "iteration": 3}, record, {**self.VALID, "iteration": 5}]
        (run / "iterations.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["timeline", "--run", str(run), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: record 2: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("key", ["student_err_l1", "teacher_err_l1"])
    def test_l1_error_that_is_not_a_number_exits_1_naming_the_record(self, tmp_path, capsys, key):
        run = tmp_path / "run"
        run.mkdir()
        lines = [{**self.VALID, "iteration": 3, key: 0.5}, {**self.VALID, key: None}]
        (run / "iterations.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["timeline", "--run", str(run), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: record 2: ") and key[:-3] in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("line", [json.dumps({**VALID, "iteration": 1}), "not json"], ids=["record", "json"])
    def test_bad_line_after_a_blank_one_is_named_by_its_line(self, tmp_path, capsys, line):
        run = tmp_path / "run"
        run.mkdir()
        path = run / "iterations.jsonl"
        path.write_text(json.dumps({**self.VALID, "iteration": 3}) + "\n\n" + line + "\n")
        assert main(["timeline", "--run", str(run), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3: " in err and err.count("\n") == 1, err

    def test_corrupt_line_reports_line_number(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        path = run / "iterations.jsonl"
        path.write_text('{"iteration": 0}\nnot json\n')
        assert main(["timeline", "--run", str(run), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        # the first bad line in file order is reported: here the record on line 1, not the corrupt line 2
        assert err.startswith(f"error: record 1: {path}:1: missing field ") and err.count("\n") == 1, err
