"""Each output check accepts a real run and rejects a tampered copy of it.

    python3 -m pytest -q perfbench/test_checks.py

The run is the blob-compare workload cut to 20 epochs, written under
perfbench/_work/tests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from switchdistill import cli  # noqa: E402
from switchdistill.checkpoint import save_checkpoint  # noqa: E402
from switchdistill.network import conv_mlp, forward, init_params  # noqa: E402

WORK = os.path.join(HERE, "_work", "tests")


@pytest.fixture(scope="module")
def good_output():
    shutil.rmtree(WORK, ignore_errors=True)
    argv = inputs.prepare("blob-compare", 0, ROOT, os.path.join(WORK, "inputs"), os.path.join(WORK, "good"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--set", "epochs=20"]) == 0
    return os.path.join(WORK, "good")


@pytest.fixture
def output(good_output):
    """A fresh copy of the good output, to tamper with."""
    dest = os.path.join(WORK, f"copy{len(os.listdir(WORK))}")
    shutil.copytree(good_output, dest)
    return dest


def problems(out_dir: str) -> list[str]:
    return checks.check_output(out_dir, compare=True)[1]


def switch_run(out_dir: str) -> str:
    return os.path.join(out_dir, next(d for d in sorted(os.listdir(out_dir)) if d.endswith("reference_switch")))


def test_untouched_output_passes(good_output):
    assert problems(good_output) == []


def test_flipped_mode_is_rejected(output):
    path = os.path.join(switch_run(output), "iterations.jsonl")
    records = checks.read_jsonl(path)
    records[5]["mode"] = checks.EXPERT if records[5]["mode"] == checks.LEARNING else checks.LEARNING
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(r) + "\n" for r in records)
    found = problems(output)
    assert any("iteration 5: mode" in p for p in found), found


def test_unlisted_file_is_rejected(output):
    with open(os.path.join(switch_run(output), "stray.txt"), "w", encoding="utf-8") as f:
        f.write("left over\n")
    found = problems(output)
    assert any("differ from manifest list" in p for p in found), found


def test_perturbed_checkpoint_weight_is_rejected(output):
    path = os.path.join(switch_run(output), "student.npz")
    with np.load(path) as data:
        arrays = dict(data)
    last = max(int(k[1:]) for k in arrays if k.startswith("w"))
    arrays[f"w{last}"] = -arrays[f"w{last}"]
    np.savez(path, **arrays)
    found = problems(output)
    assert any("student accuracy" in p and "from its checkpoint" in p for p in found), found


def test_wrong_comparison_count_is_rejected(output):
    path = os.path.join(output, "comparison.csv")
    rows = checks.read_csv(path)
    row = next(r for r in rows if r["strategy"] == "switch")
    row["switch_count"] = str(int(row["switch_count"]) + 1)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    found = problems(output)
    assert any("comparison.csv" in p and "switch_count" in p for p in found), found


def test_wrong_teacher_step_count_is_rejected(good_output):
    runs, _ = checks.check_output(good_output, compare=True)
    steps = [{"student": r.iterations, "teacher": r.teacher_learning_iters()} for r in runs]
    assert checks.check_steps(runs, steps) == []
    switch = next(i for i, r in enumerate(runs) if r.strategy == "switch")
    steps[switch]["teacher"] = runs[switch].iterations
    found = checks.check_steps(runs, steps)
    assert any("teacher stepped" in p for p in found), found


def test_checkpoint_forward_matches_the_engine():
    net = init_params(conv_mlp((3, 32, 32), (8, 4), (16,), 10), np.random.default_rng(3))
    x = np.random.default_rng(4).random((5, 3 * 32 * 32))
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "conv.npz")
    save_checkpoint(path, net)
    np.testing.assert_allclose(checks.npz_logits(path, x), forward(net, x), rtol=1e-10, atol=1e-12)
