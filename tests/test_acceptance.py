"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import os
import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import reference_config

from switchdistill.config import build_setup, load_config
from switchdistill.datasets import batches, generate_blobs, load_cifar_binary, load_idx
from switchdistill.gap import EXPERT, LEARNING, threshold_from_errors
from switchdistill.losses import degeneration_curve, one_hot, soften
from switchdistill.training import (
    NetworkDef,
    OptimizerSettings,
    TrainConfig,
    train_multi,
    train_pair,
)
from switchdistill.verify import full_grad_check


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {name}")
        raise
    print(f"[criterion {num}] PASS - {name}")


def random_simplex(rng, n, k):
    x = rng.standard_exponential((n, k))
    return x / x.sum(axis=1, keepdims=True)


def params_bytes(net):
    return tuple(a.tobytes() for a in (*net.weights, *net.biases))


def opt_bytes(opt):
    out = [str(opt.step_count).encode()]
    for slot in sorted(opt.slots):
        g = opt.slots[slot]
        out.extend(a.tobytes() for a in (*g.weights, *g.biases))
    return tuple(out)


def test_criterion_1_gradient_exactness():
    with criterion(1, "analytic logit gradients match finite differences (<=1e-4, tau sweep)"):
        start = time.perf_counter()
        report = full_grad_check(taus=(0.5, 1.0, 2.0, 5.0), trials=100, tolerance=1e-4)
        elapsed = time.perf_counter() - start
        assert report.ok, [l for l in report.lines() if "FAIL" in l]
        assert elapsed < 10.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_2_threshold_corridor():
    with criterion(2, "adaptive threshold stays inside its corridor on 1e5 simplex triples"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        n, k = 120_000, 7
        ps = random_simplex(rng, n, k)
        pt = random_simplex(rng, n, k)
        y = one_hot(rng.integers(k, size=n), k)
        es = np.abs(ps - y).sum(axis=1)
        et = np.abs(pt - y).sum(axis=1)
        keep = et > 1e-6
        assert int(keep.sum()) >= 100_000
        delta, _, _ = threshold_from_errors(es[keep], et[keep])
        lower = es[keep] - et[keep]
        assert np.all(delta >= lower - 1e-12)
        assert np.all(delta < es[keep])
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"corridor sweep took {elapsed:.1f}s"


def test_criterion_3_decision_scale_invariance():
    with criterion(3, "mode decision unchanged when every l1 norm is scaled by c"):
        rng = np.random.default_rng(33)
        n, k = 20_000, 5
        ps = random_simplex(rng, n, k)
        pt = random_simplex(rng, n, k)
        y = one_hot(rng.integers(k, size=n), k)
        g = np.abs(ps - pt).sum(axis=1)
        es = np.abs(ps - y).sum(axis=1)
        et = np.abs(pt - y).sum(axis=1)
        delta, _, _ = threshold_from_errors(es, et)
        base = g <= delta
        for c in (1.0 / k, 1.0, 7.3):
            delta_c, _, _ = threshold_from_errors(c * es, c * et)
            np.testing.assert_array_equal((c * g) <= delta_c, base)


def test_criterion_4_degeneration_limit():
    with criterion(4, "KL collapses onto CE as the teacher approaches the one-hot label"):
        ps = soften(np.array([2.0, 1.0, 0.0, -1.0]), 1.0)
        y = one_hot(0, 4)
        lambdas = [0.5, 0.1, 0.01, 1e-4, 1e-6]
        curve = degeneration_curve(ps, y, lambdas)
        gaps = [abs(kl - ce) for kl, ce in curve]
        assert gaps[-1] < 1e-4
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_5_frozen_teacher_bit_identity():
    with criterion(5, "teacher params and optimizer state bit-identical through 500 forced-alternation iterations"):
        train, test = generate_blobs(4, 100, 16, spread=0.5, seed=7)
        adam = OptimizerSettings(kind="adam", lr=0.005, momentum=0.9, weight_decay=1e-4)
        cfg = TrainConfig(
            strategy="switch",
            epochs=50,  # 320 train samples / batch 32 -> 10 iterations per epoch
            batch_size=32,
            seed=0,
            student=NetworkDef(hidden=(16,), opt=adam),
            teacher=NetworkDef(hidden=(64, 64), opt=adam),
        )
        snapshots = []
        train_pair(
            cfg,
            train,
            test,
            mode_hook=lambda i, p, s: EXPERT if i % 2 == 1 else LEARNING,
            inspect=lambda i, info: snapshots.append(
                (info["mode"], params_bytes(info["teacher"]), opt_bytes(info["teacher_opt"]))
            ),
        )
        assert len(snapshots) == 500
        expert_iterations = 0
        for prev, cur in zip(snapshots, snapshots[1:]):
            if cur[0] == EXPERT:
                assert cur[1] == prev[1], "teacher parameters changed during an expert step"
                assert cur[2] == prev[2], "teacher optimizer state changed during an expert step"
                expert_iterations += 1
        assert expert_iterations == 250  # every odd iteration in 1..499


def test_criterion_6_dml_equivalence():
    with criterion(6, "switching strategy pinned to learning reproduces mutual learning bit-for-bit over 200 iterations"):
        train, test = generate_blobs(4, 100, 16, spread=0.5, seed=7)
        adam = OptimizerSettings(kind="adam", lr=0.005, momentum=0.9, weight_decay=1e-4)
        kw = dict(
            topology="pair",
            alpha=1.0,
            beta=1.0,
            tau=1.0,
            epochs=20,  # 10 iterations per epoch -> 200 iterations
            batch_size=32,
            seed=11,
            student=NetworkDef(hidden=(16,), opt=adam),
            teacher=NetworkDef(hidden=(64, 64), opt=adam),
        )
        pinned = train_pair(
            TrainConfig(strategy="switch", **kw), train, test, mode_hook=lambda i, p, s: LEARNING
        )
        dml = train_pair(TrainConfig(strategy="dml", **kw), train, test)
        assert len(pinned.iteration_log["teacher_student"]) == 200
        for name in ("student", "teacher"):
            assert params_bytes(pinned.networks[name]) == params_bytes(dml.networks[name])
            assert opt_bytes(pinned.opts[name]) == opt_bytes(dml.opts[name])
        assert pinned.epoch_log == dml.epoch_log


def test_criterion_7_desk_scale_behavior(reference_runs):
    with criterion(7, "switching behavior on the reference task: both modes, lower late G than mutual learning, accuracy floors"):
        seeds = reference_runs["seeds"]
        assert len(seeds) == 5
        for s in seeds:
            # (a) both modes appear, switch-count >= 1, on every seed
            assert s["counts"][LEARNING] > 0 and s["counts"][EXPERT] > 0, s
            assert s["switch_count"] >= 1
        # (b) the switching strategy keeps the late-training gap smaller
        switch_g = [s["switch_g"] for s in seeds]
        dml_g = [s["dml_g"] for s in seeds]
        assert np.median(switch_g) < np.median(dml_g), (switch_g, dml_g)
        # (c) accuracy floors, median over the 5 seeds
        med_switch = float(np.median([s["switch_acc"] for s in seeds]))
        med_vanilla = float(np.median([s["vanilla_acc"] for s in seeds]))
        med_dml = float(np.median([s["dml_acc"] for s in seeds]))
        assert med_switch >= med_vanilla - 0.005, (med_switch, med_vanilla)
        assert med_switch >= med_dml - 0.010, (med_switch, med_dml)
        assert reference_runs["elapsed"] < 300.0, f"reference runs took {reference_runs['elapsed']:.0f}s"


@pytest.mark.parametrize("strategy", ["vanilla", "dml", "switch"])
def test_criterion_7_task_is_the_shipped_reference_config(strategy):
    """The fixture's runs are what ``train --config configs/reference_<strategy>.cfg`` runs at seed 0."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", f"reference_{strategy}.cfg")
    setup = build_setup(load_config(path))
    assert setup.train == reference_config(strategy, 0)
    blobs = {"classes": 4, "per_class": 100, "dims": 16, "spread": 0.5, "seed": 7}
    assert setup.data.describe() == {"kind": "blobs", **blobs}
    for built, fixture in zip(setup.data.build(), generate_blobs(4, 100, 16, spread=0.5, seed=7)):
        assert np.array_equal(built.rows, fixture.rows) and np.array_equal(built.labels, fixture.labels)


def test_criterion_8_one_teacher_two_students_suspension():
    with criterion(8, "shared teacher suspends only when both pairs are expert; partial learning uses that pair's KL alone"):
        train, test = generate_blobs(3, 40, 6, spread=0.4, seed=1)
        adam = OptimizerSettings(kind="adam", lr=0.005, momentum=0.9, weight_decay=1e-4)
        cfg = TrainConfig(
            strategy="switch",
            topology="1t2s",
            epochs=1,
            batch_size=16,
            seed=2,
            student=NetworkDef(hidden=(8,), opt=adam),
            teacher=NetworkDef(hidden=(24, 24), opt=adam),
            third=NetworkDef(hidden=(8,), opt=adam),
        )

        # scenario 1: both pairs expert -> teacher fully frozen
        frozen = []
        train_multi(
            cfg,
            train,
            test,
            mode_hook=lambda i, p, s: EXPERT,
            inspect=lambda i, info: frozen.append(params_bytes(info["networks"]["teacher"])),
        )
        assert len(set(frozen)) == 1

        # scenario 2: exactly one pair learning -> teacher updates and its
        # gradient decomposes into CE plus that student's KL term only
        updated = []

        def inspect(i, info):
            expected = (info["p_1"]["teacher"] - info["y"]) + cfg.beta * cfg.tau * (
                info["p_tau"]["teacher"] - info["p_tau"]["student"]
            )
            np.testing.assert_array_equal(info["teacher_grad"], expected)
            updated.append(params_bytes(info["networks"]["teacher"]))

        train_multi(
            cfg,
            train,
            test,
            mode_hook=lambda i, p, s: LEARNING if p == "teacher_student" else EXPERT,
            inspect=inspect,
        )
        assert len(set(updated)) == len(updated)


def test_criterion_9_data_io_round_trips(tmp_path):
    with criterion(9, "IDX/CIFAR byte fixtures parse exactly; epoch batching is a multiset round-trip"):
        # IDX pair built byte by byte
        images = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
        labels = np.array([1, 0], dtype=np.uint8)
        img_path = tmp_path / "imgs.idx"
        lbl_path = tmp_path / "lbls.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            f.write(images.tobytes())
        with open(lbl_path, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 2))
            f.write(labels.tobytes())
        ds = load_idx(str(img_path), str(lbl_path))
        np.testing.assert_array_equal(ds.features * 255.0, images.reshape(2, 4).astype(float))
        np.testing.assert_array_equal(ds.labels, [1, 0])

        # CIFAR single record, 10- and 100-class layouts
        pixels = (np.arange(3072) % 251).astype(np.uint8)
        p10 = tmp_path / "c10.bin"
        p10.write_bytes(bytes([7]) + pixels.tobytes())
        ds10 = load_cifar_binary(str(p10), 10)
        assert ds10.labels[0] == 7
        np.testing.assert_allclose(ds10.features[0], pixels / 255.0, rtol=1e-15)
        p100 = tmp_path / "c100.bin"
        p100.write_bytes(bytes([3, 42]) + pixels.tobytes())
        ds100 = load_cifar_binary(str(p100), 100)
        assert ds100.labels[0] == 42

        # batching reproduces the dataset as a multiset
        blob_train, _ = generate_blobs(3, 30, 4, 0.5, seed=5)
        seen = np.concatenate([x for x, _ in batches(blob_train, 7, seed=1, epoch=3)])
        np.testing.assert_array_equal(
            np.sort(seen.reshape(-1)), np.sort(blob_train.features.reshape(-1))
        )
