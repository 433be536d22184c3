"""End-to-end CLI tests: artifacts, manifests, determinism, exit codes."""

import csv
import json
import os

import numpy as np
import pytest
from test_datasets import write_idx_pair

from switchdistill import training
from switchdistill.checkpoint import save_checkpoint
from switchdistill.cli import main
from switchdistill.errors import DomainError
from switchdistill.network import init_params, mlp
from switchdistill.runio import read_jsonl

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


class TestTrainCommand:
    def test_artifacts_exist_and_parse(self, cfg_file, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_file, "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        for name in manifest["artifacts"]:
            assert os.path.exists(os.path.join(out, name)), name
        # and vice versa: nothing on disk that the manifest does not list
        assert run_dir_files(out) == manifest["artifacts"]
        records = read_jsonl(os.path.join(out, "iterations.jsonl"))
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

    def test_unknown_optimizer_exits_1_naming_the_key(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["train", "--config", cfg_file, "--out", str(out), "--set", "student.optimizer=nadam"]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: student.optimizer: unknown value 'nadam', expected one of ('sgd', 'adam')"
        assert not os.path.exists(out)

    def test_missing_data_file_leaves_no_run_dir(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["train", "--config", missing_data_cfg(tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "gone.bin" in err, err
        assert not os.path.exists(out)

    def test_optimizer_init_failure_leaves_no_run_dir(self, cfg_file, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise DomainError("optimizer refused")

        monkeypatch.setattr(training, "init_optimizer", refuse)
        out = tmp_path / "r"
        assert main(["train", "--config", cfg_file, "--out", str(out)]) == 2
        assert not os.path.exists(out)

    def test_unreadable_teacher_checkpoint_leaves_no_run_dir(self, cfg_file, tmp_path, capsys):
        ckpt = tmp_path / "teacher.npz"
        ckpt.write_bytes(b"not a checkpoint")
        out = tmp_path / "r"
        args = ["train", "--config", cfg_file, "--out", str(out)]
        args += ["--set", "strategy=kd-offline", "--set", f"kd.teacher_checkpoint={ckpt}"]
        assert main(args) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not os.path.exists(out)

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

    def test_idx_test_labels_beyond_train_classes_exit_1(self, tmp_path, capsys):
        cfg, train_labels, test_labels = idx_cfg(tmp_path, [0, 1, 2] * 4, [0, 1, 2, 3, 4] * 4)
        out = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and train_labels in err and test_labels in err, err
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
        assert main(["compare", "--configs", missing_data_cfg(tmp_path), "--out", str(out)]) == 1
        assert not os.path.exists(out)

    def test_mismatched_seed_rejected(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(SMALL_CFG)
        b.write_text(SMALL_CFG + "seed = 6\n")
        out = str(tmp_path / "cmp")
        assert main(["compare", "--configs", str(a), str(b), "--out", out]) == 1
        assert main(["compare", "--configs", str(a), str(b), "--out", out, "--allow-mismatch"]) == 0


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
        records = read_jsonl(os.path.join(run, "iterations.jsonl"))
        switches = sum(
            1 for a, b in zip(records, records[1:]) if a["mode"] != b["mode"]
        )
        assert f"switch_count: {switches}" in printed
        expert = sum(1 for r in records if r["mode"] == "expert") / len(records)
        assert f"expert_fraction: {expert}" in printed

    def test_missing_log_exits_1(self, tmp_path):
        assert main(["timeline", "--run", str(tmp_path), "--out", str(tmp_path / "t.csv")]) == 1

    def test_corrupt_line_reports_line_number(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "iterations.jsonl").write_text('{"iteration": 0}\nnot json\n')
        assert main(["timeline", "--run", str(run), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert "iterations.jsonl:2" in err or "record 1" in err
