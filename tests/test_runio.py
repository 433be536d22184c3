"""Run-artifact helpers: the iteration-log reader's checks, comparison-row semantics."""

import json

import pytest

from switchdistill.checkpoint import load_checkpoint, save_checkpoint
from switchdistill.config import build_setup
from switchdistill.errors import FormatError
from switchdistill.gap import mode_stats
from switchdistill.runio import (
    check_comparable,
    comparison_rows,
    read_iteration_log,
    write_jsonl,
)
from switchdistill.training import train_pair

# a weak student and a fast teacher on overlapping blobs, so that switch runs
# spend some iterations, but not all, in expert mode
SMALL = {
    "epochs": "6",
    "batch_size": "16",
    "data.classes": "3",
    "data.dims": "6",
    "data.per_class": "30",
    "data.spread": "1.0",
    "student.hidden": "2",
    "teacher.hidden": "64,64",
    "teacher.lr": "0.05",
}


def small_run(initial=None, **overrides):
    setup = build_setup({**SMALL, **overrides})
    train, test = setup.data.build()
    return setup, train_pair(setup.train, train, test, initial=initial)


@pytest.fixture(scope="module")
def small_result():
    return small_run()


VALID = {"iteration": 0, "G": 0.4, "r": 0.3, "epsilon": 0.7, "delta": 0.5, "mode": "learning"}


class TestJsonl:
    """`read_iteration_log` reads JSONL: a missing file or a corrupt line is named."""

    def test_corrupt_line_number(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(json.dumps(VALID) + '\n{"b":\n')
        with pytest.raises(FormatError, match=r"x\.jsonl:2: corrupt JSONL line"):
            read_iteration_log(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="missing"):
            read_iteration_log(str(tmp_path / "nope.jsonl"))

    @pytest.mark.parametrize(
        "lines,first",
        [
            (['{"iteration": 0}', "not json"], r"^record 1: .*x\.jsonl:1: missing field"),
            ([json.dumps(VALID), "not json", json.dumps(VALID)], r"x\.jsonl:2: corrupt JSONL line"),
        ],
        ids=["bad-record-first", "corrupt-line-first"],
    )
    def test_first_bad_line_in_file_order_is_reported(self, tmp_path, lines, first):
        path = tmp_path / "x.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(FormatError, match=first):
            read_iteration_log(str(path))


class TestSummarizeTimeline:
    """What `timeline` summarizes: the records `read_iteration_log` checks, counted by `mode_stats`."""

    def test_recount_matches_timeline(self, small_result, tmp_path):
        _, result = small_result
        path = str(tmp_path / "iterations.jsonl")
        write_jsonl(path, result.iteration_log["teacher_student"])
        records = read_iteration_log(path)
        assert records == result.iteration_log["teacher_student"]
        summary = mode_stats(r["mode"] for r in records)
        modes = [r["mode"] for r in records]
        assert summary["iterations"] == len(records)
        assert summary["switch_count"] == sum(1 for a, b in zip(modes, modes[1:]) if a != b)
        assert summary["expert_fraction"] == modes.count("expert") / len(modes)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"iteration": 0}\n')
        with pytest.raises(FormatError, match=r"^record 1: .*x\.jsonl:1: missing field"):
            read_iteration_log(str(path))


class TestComparisonRows:
    def test_pair_run_rows(self, small_result):
        _, result = small_result
        rows = comparison_rows("ref", result)
        assert [r["network"] for r in rows] == ["student", "teacher"]
        student = rows[0]
        assert student["role"] == "student"
        stats = mode_stats(r["mode"] for r in result.iteration_log["teacher_student"])
        assert student["switch_count"] == stats["switch_count"]
        teacher = rows[1]
        assert teacher["expert_fraction"] == stats["expert_fraction"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"topology": "1t2s", "third.hidden": "8"},
            {"topology": "2t1s", "third.hidden": "64,64", "third.lr": "0.05"},
            {"strategy": "vanilla"},
            {"strategy": "kd-offline", "alpha": "0.5"},
        ],
        ids=["1t2s", "2t1s", "vanilla", "kd-offline"],
    )
    def test_rows_recount_the_iteration_log(self, overrides, tmp_path):
        initial = None
        if overrides.get("strategy") == "kd-offline":
            _, pre = small_run(strategy="vanilla")
            ckpt = str(tmp_path / "teacher.npz")
            save_checkpoint(ckpt, pre.networks["teacher"])
            overrides = {**overrides, "kd.teacher_checkpoint": ckpt}
            initial = {"teacher": load_checkpoint(ckpt)}
        _, result = small_run(initial, **overrides)
        cfg = result.config
        rows = comparison_rows("x", result)
        if cfg.strategy == "switch":
            assert any(0 < row["expert_fraction"] < 1 for row in rows)
        for row in rows:
            net = row["network"]
            if cfg.strategy == "kd-offline" and net == "teacher":
                expected = (0, 1.0)  # a pre-trained teacher never steps
            else:
                # a network is frozen on the iterations where every pair it belongs to is in expert mode
                logs = [result.iteration_log[p] for p in cfg.pair_names() if net in p.split("_")]
                frozen = [all(r["mode"] == "expert" for r in recs) for recs in zip(*logs)]
                switches = sum(1 for a, b in zip(frozen, frozen[1:]) if a != b)
                expected = (switches, sum(frozen) / len(frozen))
            assert (row["switch_count"], row["expert_fraction"]) == expected, net

    def test_check_comparable_accepts_same(self, small_result):
        setup, _ = small_result
        check_comparable([("a", setup), ("b", setup)])
