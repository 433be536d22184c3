"""Training-loop tests: mode switching, frozen-teacher guarantees, baseline
strategy behavior, bit-level strategy equivalence, triples, and evaluation."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_datasets import write_idx_pair

from switchdistill.checkpoint import load_checkpoint, save_checkpoint
from switchdistill.datasets import Dataset, generate_blobs, load_idx
from switchdistill.errors import ConfigError, DomainError, NumericError
from switchdistill.gap import EXPERT, LEARNING, GapState, mode_stats
from switchdistill.losses import (
    ensemble_target,
    kd_logit_grad,
    kdcl_logit_grad,
    one_hot,
    soften,
    student_logit_grad,
    teacher_logit_grad,
)
from switchdistill.network import Dense, NetworkParams, conv_mlp, forward, init_params, mlp
from switchdistill.training import (
    STRATEGIES,
    TOPOLOGY_TABLE,
    NetworkDef,
    OptimizerSettings,
    TrainConfig,
    build_network,
    evaluate,
    logit_grad,
    pair_terms,
    run_training,
    scheduled_lr,
    stepping_terms,
    train_multi,
    train_pair,
)

ADAM = OptimizerSettings(kind="adam", lr=0.005, momentum=0.9, weight_decay=1e-4)
HOT_ADAM = OptimizerSettings(kind="adam", lr=0.02, momentum=0.9, weight_decay=1e-4)


def blob_pair(classes=3, per_class=40, dims=6, spread=0.4, seed=1):
    return generate_blobs(classes, per_class, dims, spread, seed)


def pair_cfg(strategy="switch", epochs=2, seed=0, **kw):
    defaults = dict(
        strategy=strategy,
        topology="pair",
        epochs=epochs,
        batch_size=16,
        seed=seed,
        student=NetworkDef(hidden=(8,), opt=ADAM),
        teacher=NetworkDef(hidden=(32, 32), opt=ADAM),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def params_bytes(net):
    return tuple(a.tobytes() for a in (*net.weights, *net.biases))


def opt_bytes(opt):
    out = [str(opt.step_count).encode()]
    for slot in sorted(opt.slots):
        g = opt.slots[slot]
        out.extend(a.tobytes() for a in (*g.weights, *g.biases))
    return tuple(out)


class TestSwitchPair:
    def test_static_teacher_online_distillation(self):
        # teacher lr 0 + pinned learning mode: classic online distillation
        # against a non-moving teacher; the student's CE must fall.
        train, test = blob_pair()
        zero_lr = OptimizerSettings(kind="sgd", lr=0.0, momentum=0.0, weight_decay=0.0)
        cfg = pair_cfg(
            epochs=10,
            teacher=NetworkDef(hidden=(32, 32), opt=zero_lr),
            student=NetworkDef(hidden=(8,), opt=OptimizerSettings(kind="sgd", lr=0.5, momentum=0.9, weight_decay=0.0)),
        )
        result = train_pair(cfg, train, test, mode_hook=lambda i, p, s: LEARNING)
        recs = result.iteration_log["teacher_student"]
        assert len(recs) >= 50
        early = np.mean([r["student_ce"] for r in recs[:5]])
        late = np.mean([r["student_ce"] for r in recs[-5:]])
        assert late < early

    def test_identical_networks_start_with_zero_gap_in_learning(self):
        train, test = blob_pair()
        net = init_params(mlp(train.dims, (8,), train.num_classes), 123)
        cfg = pair_cfg(epochs=1)
        states = []
        train_pair(
            cfg,
            train,
            test,
            initial={"student": net.copy(), "teacher": net.copy()},
            inspect=lambda i, info: states.append(info["states"]["teacher_student"]),
        )
        assert states[0].G == 0.0
        assert states[0].mode == LEARNING

    def test_both_modes_appear_on_two_class_task(self):
        # fixed-seed run oracle: a wide teacher racing ahead of a narrow
        # student must trigger at least one switch well within 2000 iterations
        train, test = generate_blobs(2, 80, 8, spread=0.6, seed=3)
        cfg = TrainConfig(
            strategy="switch",
            epochs=30,
            batch_size=16,
            seed=0,
            student=NetworkDef(hidden=(4,), opt=ADAM),
            teacher=NetworkDef(hidden=(128, 128), opt=HOT_ADAM),
        )
        result = train_pair(cfg, train, test)
        stats = mode_stats(r["mode"] for r in result.iteration_log["teacher_student"])
        assert stats["iterations"] <= 2000
        assert 0 < stats["expert_fraction"] < 1
        assert stats["switch_count"] >= 1

    def test_frozen_teacher_under_forced_alternation(self):
        train, test = blob_pair()
        cfg = pair_cfg(epochs=5)
        seen = []
        train_pair(
            cfg,
            train,
            test,
            mode_hook=lambda i, p, s: EXPERT if i % 2 == 1 else LEARNING,
            inspect=lambda i, info: seen.append(
                (info["mode"], params_bytes(info["teacher"]), opt_bytes(info["teacher_opt"]))
            ),
        )
        expert_steps = 0
        for prev, cur in zip(seen, seen[1:]):
            if cur[0] == EXPERT:
                assert cur[1] == prev[1], "teacher parameters moved in expert mode"
                assert cur[2] == prev[2], "teacher optimizer state moved in expert mode"
                expert_steps += 1
            else:
                assert cur[1] != prev[1], "teacher failed to train in learning mode"
        assert expert_steps > 10

    def test_expert_mode_uses_frozen_teacher_distribution(self):
        train, test = blob_pair()
        cfg = pair_cfg(epochs=1)
        checked = []

        def inspect(i, info):
            if info["mode"] == EXPERT:
                expected = (info["p_1"]["student"] - info["y"]) + cfg.alpha * cfg.tau * (
                    info["p_tau"]["student"] - info["p_tau"]["teacher"]
                )
                np.testing.assert_array_equal(info["logit_grads"]["student"], expected)
                assert info["teacher_grad"] is None
                checked.append(i)

        train_pair(cfg, train, test, mode_hook=lambda i, p, s: EXPERT, inspect=inspect)
        assert checked

    def test_network_evaluated_only_after_epochs_it_stepped_in(self, monkeypatch):
        import switchdistill.training as training

        evaluated = []
        real = training.evaluate
        monkeypatch.setattr(training, "evaluate", lambda net, ds, *a: evaluated.append(net) or real(net, ds, *a))
        train, test = blob_pair()
        result = train_pair(pair_cfg(epochs=4), train, test, mode_hook=lambda *a: EXPERT)
        # the student every epoch; the always-frozen teacher once, in epoch 0
        assert len(evaluated) == 4 + 1
        assert [row["teacher_acc"] for row in result.epoch_log] == [real(result.networks["teacher"], test)] * 4
        assert result.epoch_log[-1]["student_acc"] == real(result.networks["student"], test)

    def test_mode_recorded_matches_decision_without_hook(self):
        train, test = blob_pair()
        result = train_pair(pair_cfg(epochs=2), train, test)
        for rec in result.iteration_log["teacher_student"]:
            assert rec["mode"] == (LEARNING if rec["G"] <= rec["delta"] else EXPERT)

    def test_determinism(self):
        train, test = blob_pair()
        a = train_pair(pair_cfg(epochs=2), train, test)
        b = train_pair(pair_cfg(epochs=2), train, test)
        assert a.epoch_log == b.epoch_log
        assert params_bytes(a.networks["student"]) == params_bytes(b.networks["student"])
        assert a.iteration_log == b.iteration_log

    def test_a_seed_past_64_bits_is_its_own_run(self):
        """The seed keys its streams whole: 2**64 does not wrap round to seed 0."""
        first = [build_network(NetworkDef(), 16, 4, seed, 0).weights[0] for seed in (0, 2**64)]
        assert not np.array_equal(*first)

    def test_concurrent_instances_match_serial_runs(self):
        # no shared mutable state: four trainings in parallel threads must
        # reproduce their serial counterparts exactly
        from concurrent.futures import ThreadPoolExecutor

        train, test = blob_pair()
        configs = [pair_cfg(epochs=1, seed=s) for s in range(4)]
        serial = [train_pair(c, train, test) for c in configs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda c: train_pair(c, train, test), configs))
        for a, b in zip(serial, threaded):
            assert params_bytes(a.networks["student"]) == params_bytes(b.networks["student"])
            assert a.iteration_log == b.iteration_log

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergent_run_aborts_with_iteration_index(self):
        train, test = blob_pair()
        explode = OptimizerSettings(kind="sgd", lr=1e18, momentum=0.0, weight_decay=0.0)
        cfg = pair_cfg(
            epochs=5,
            student=NetworkDef(hidden=(8,), opt=explode),
            teacher=NetworkDef(hidden=(8,), opt=explode),
        )
        with pytest.raises(NumericError, match=r"iteration \d+"):
            train_pair(cfg, train, test)


class TestStrategyEquivalence:
    def test_switch_pinned_to_learning_is_dml_bit_for_bit(self):
        train, test = blob_pair(classes=3, per_class=40)
        kw = dict(epochs=4, seed=9, alpha=1.0, beta=1.0, tau=1.0)
        pinned = train_pair(
            pair_cfg("switch", **kw), train, test, mode_hook=lambda i, p, s: LEARNING
        )
        dml = train_pair(pair_cfg("dml", **kw), train, test)
        for name in ("student", "teacher"):
            assert params_bytes(pinned.networks[name]) == params_bytes(dml.networks[name])
            assert opt_bytes(pinned.opts[name]) == opt_bytes(dml.opts[name])
        assert pinned.epoch_log == dml.epoch_log


class TestObjectiveTable:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_folded_gradients_match_the_closed_forms_bit_for_bit(self, strategy):
        rng = np.random.default_rng(4)
        alpha, beta, tau = 0.6, 1.5, 3.0
        y = one_hot(rng.integers(0, 5, size=8), 5)
        p1 = {n: soften(rng.normal(0, 2, (8, 5)), 1.0) for n in ("student", "teacher")}
        pt = {n: soften(rng.normal(0, 2, (8, 5)), tau) for n in ("student", "teacher")}
        topo = TOPOLOGY_TABLE["pair"]
        cfg = TrainConfig(strategy=strategy, alpha=alpha, beta=beta, tau=tau)
        per_pair = [pair_terms(cfg, "teacher", "student", pt)]
        got = {
            n: logit_grad(w_ce, terms, p1[n], pt[n], y, tau)
            for n, (w_ce, terms) in stepping_terms(topo, [LEARNING], per_pair, pt).items()
        }
        pm = ensemble_target(pt["student"], pt["teacher"])
        want = {
            "vanilla": {"student": p1["student"] - y, "teacher": p1["teacher"] - y},
            "kd-offline": {"student": kd_logit_grad(p1["student"], pt["student"], pt["teacher"], y, alpha, tau)},
            "dml": {
                "student": student_logit_grad(pt["teacher"], p1["student"], pt["student"], y, alpha, tau),
                "teacher": teacher_logit_grad(p1["teacher"], pt["teacher"], pt["student"], y, beta, tau),
            },
            "kdcl": {n: kdcl_logit_grad(p1[n], pt[n], pm, y, tau) for n in ("student", "teacher")},
        }
        want["switch"] = want["dml"]
        assert set(got) == set(want[strategy])
        for n, g in got.items():
            np.testing.assert_array_equal(g, want[strategy][n])


class TestBaselines:
    def test_dml_identical_networks_stay_symmetric(self):
        train, test = blob_pair()
        net = init_params(mlp(train.dims, (8,), train.num_classes), 7)
        cfg = pair_cfg("dml", epochs=2, student=NetworkDef(hidden=(8,), opt=ADAM), teacher=NetworkDef(hidden=(8,), opt=ADAM))
        result = train_pair(
            cfg, train, test, initial={"student": net.copy(), "teacher": net.copy()}
        )
        assert params_bytes(result.networks["student"]) == params_bytes(result.networks["teacher"])

    def test_initial_networks_are_copied(self):
        train, test = blob_pair()
        net = init_params(mlp(train.dims, (8,), train.num_classes), 7)
        before = params_bytes(net)
        cfg = pair_cfg("dml", epochs=2, student=NetworkDef(hidden=(8,), opt=ADAM), teacher=NetworkDef(hidden=(8,), opt=ADAM))
        shared = train_pair(cfg, train, test, initial={"student": net, "teacher": net})
        assert params_bytes(net) == before  # the caller's arrays are not trained in place
        copies = train_pair(cfg, train, test, initial={"student": net.copy(), "teacher": net.copy()})
        for name in ("student", "teacher"):
            assert params_bytes(shared.networks[name]) == params_bytes(copies.networks[name])
            assert opt_bytes(shared.opts[name]) == opt_bytes(copies.opts[name])
        assert shared.iteration_log == copies.iteration_log

    def test_kdcl_with_equal_networks_reduces_to_vanilla(self):
        train, test = blob_pair()
        net = init_params(mlp(train.dims, (8,), train.num_classes), 21)
        shared = dict(epochs=2, student=NetworkDef(hidden=(8,), opt=ADAM), teacher=NetworkDef(hidden=(8,), opt=ADAM))
        initial = {"student": net.copy(), "teacher": net.copy()}
        kdcl = train_pair(pair_cfg("kdcl", **shared), train, test, initial={k: v.copy() for k, v in initial.items()})
        vanilla = train_pair(pair_cfg("vanilla", **shared), train, test, initial=initial)
        assert params_bytes(kdcl.networks["student"]) == params_bytes(vanilla.networks["student"])

    def test_kd_offline_trains_against_frozen_checkpoint(self, tmp_path):
        train, test = blob_pair()
        pre = train_pair(pair_cfg("vanilla", epochs=3), train, test)
        ckpt = tmp_path / "teacher.npz"
        save_checkpoint(str(ckpt), pre.networks["teacher"])

        cfg = pair_cfg("kd-offline", epochs=2, alpha=0.5)
        result = train_pair(cfg, train, test, initial={"teacher": load_checkpoint(str(ckpt))})
        assert params_bytes(result.networks["teacher"]) == params_bytes(pre.networks["teacher"])
        for rec in result.iteration_log["teacher_student"]:
            assert rec["mode"] == LEARNING

    def test_kd_offline_teacher_has_no_optimizer(self, tmp_path):
        train, test = blob_pair()
        pre = train_pair(pair_cfg("vanilla", epochs=1), train, test)
        ckpt = tmp_path / "teacher.npz"
        save_checkpoint(str(ckpt), pre.networks["teacher"])
        seen = []
        cfg = pair_cfg("kd-offline", epochs=1, alpha=0.5)
        result = train_pair(
            cfg, train, test,
            inspect=lambda i, info: seen.append(info["teacher_opt"]),
            initial={"teacher": load_checkpoint(str(ckpt))},
        )
        assert set(result.opts) == {"student"}
        assert seen and all(opt is None for opt in seen)
        assert params_bytes(result.networks["teacher"]) == params_bytes(pre.networks["teacher"])

    def test_kd_offline_requires_checkpoint(self):
        train, test = blob_pair()
        student = init_params(mlp(train.dims, (8,), train.num_classes), 0)
        for initial in (None, {"student": student}):  # the teacher comes only through initial
            with pytest.raises(ConfigError, match=r"^kd\.teacher_checkpoint: .*initial"):
                run_training(pair_cfg("kd-offline"), train, test, initial=initial)

    def test_baseline_log_schema_matches_switch(self):
        train, test = blob_pair()
        sw = train_pair(pair_cfg("switch", epochs=1), train, test)
        va = train_pair(pair_cfg("vanilla", epochs=1), train, test)
        assert set(sw.iteration_log["teacher_student"][0]) == set(va.iteration_log["teacher_student"][0])
        assert all(r["mode"] == LEARNING for r in va.iteration_log["teacher_student"])


class TestMultiNetwork:
    def multi_cfg(self, topology, **kw):
        defaults = dict(
            strategy="switch",
            topology=topology,
            epochs=1,
            batch_size=16,
            seed=2,
            student=NetworkDef(hidden=(8,), opt=ADAM),
            teacher=NetworkDef(hidden=(24, 24), opt=ADAM),
            third=NetworkDef(hidden=(8,), opt=ADAM),
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_1t2s_both_pairs_expert_freezes_teacher(self):
        train, test = blob_pair()
        seen = []
        train_multi(
            self.multi_cfg("1t2s"),
            train,
            test,
            mode_hook=lambda i, p, s: EXPERT,
            inspect=lambda i, info: seen.append(params_bytes(info["networks"]["teacher"])),
        )
        assert len(set(seen)) == 1  # never updated

    def test_1t2s_partial_learning_uses_only_that_students_kl(self):
        train, test = blob_pair()
        cfg = self.multi_cfg("1t2s")
        checked = []

        def hook(i, pair, state):
            return LEARNING if pair == "teacher_student" else EXPERT

        def inspect(i, info):
            pt1 = info["p_1"]["teacher"]
            pttau = info["p_tau"]["teacher"]
            ps = info["p_tau"]["student"]
            expected = (pt1 - info["y"]) + cfg.beta * cfg.tau * (pttau - ps)
            np.testing.assert_array_equal(info["teacher_grad"], expected)
            checked.append(i)

        train_multi(cfg, train, test, mode_hook=hook, inspect=inspect)
        assert checked

    def test_1t2s_teacher_updates_when_any_pair_learns(self):
        train, test = blob_pair()
        seen = []
        train_multi(
            self.multi_cfg("1t2s"),
            train,
            test,
            mode_hook=lambda i, p, s: LEARNING if p == "teacher_student2" else EXPERT,
            inspect=lambda i, info: seen.append(params_bytes(info["networks"]["teacher"])),
        )
        assert len(set(seen)) == len(seen)  # changed every iteration

    def test_2t1s_student_gradient_reduces_to_ce_when_teachers_match(self):
        train, test = blob_pair()
        cfg = self.multi_cfg("2t1s")
        net = init_params(mlp(train.dims, (8,), train.num_classes), 31)
        initial = {
            "student": net.copy(),
            "teacher": net.copy(),
            "teacher2": net.copy(),
        }
        captured = []

        def inspect(i, info):
            if i == 0:
                np.testing.assert_allclose(
                    info["logit_grads"]["student"],
                    info["p_1"]["student"] - info["y"],
                    atol=1e-15,
                )
                captured.append(i)

        train_multi(cfg, train, test, initial=initial, inspect=inspect)
        assert captured

    def test_2t1s_expert_teacher_fully_frozen_including_peer_term(self):
        train, test = blob_pair()
        seen = []
        train_multi(
            self.multi_cfg("2t1s"),
            train,
            test,
            mode_hook=lambda i, p, s: EXPERT if p == "teacher_student" else LEARNING,
            inspect=lambda i, info: seen.append(
                (params_bytes(info["networks"]["teacher"]), params_bytes(info["networks"]["teacher2"]))
            ),
        )
        assert len(set(t for t, _ in seen)) == 1  # expert teacher frozen
        assert len(set(t2 for _, t2 in seen)) == len(seen)  # peer keeps training

    def test_per_pair_timelines_logged(self):
        train, test = blob_pair()
        result = train_multi(self.multi_cfg("1t2s"), train, test)
        assert set(result.iteration_log) == {"teacher_student", "teacher_student2"}
        n = len(result.iteration_log["teacher_student"])
        assert n == len(result.iteration_log["teacher_student2"]) > 0

    def test_topology_requires_third_network(self):
        with pytest.raises(ConfigError, match="third"):
            TrainConfig(strategy="switch", topology="1t2s", third=None)

    def test_baselines_rejected_for_triples(self):
        with pytest.raises(ConfigError, match="pairwise"):
            TrainConfig(strategy="dml", topology="1t2s", third=NetworkDef())


class TestEvaluate:
    def test_perfect_classifier(self):
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]] * 5), np.array([0, 1] * 5), 2)
        net = NetworkParams((Dense(2, 2),), [np.eye(2)], [np.zeros(2)])
        assert evaluate(net, ds) == 1.0

    def test_constant_output_on_balanced_data(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(20, 2)), np.array([0, 1] * 10), 2)
        net = NetworkParams((Dense(2, 2),), [np.zeros((2, 2))], [np.zeros(2)])
        assert evaluate(net, ds) == 0.5

    def test_hand_counted_argmax_agreement(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        ds = Dataset(feats, labels, 3)
        net = init_params(mlp(3, (5,), 3), 8)
        logits = feats @ net.weights[0] + net.biases[0]
        hidden = np.maximum(logits, 0)
        out = hidden @ net.weights[1] + net.biases[1]
        hits = sum(1 for i in range(20) if int(np.argmax(out[i])) == labels[i])
        assert evaluate(net, ds) == pytest.approx(hits / 20)

    @pytest.mark.parametrize("layers", [mlp(48, (12,), 3), conv_mlp((3, 4, 4), (5,), (6,), 3, stride=1)])
    def test_accuracy_does_not_depend_on_chunk(self, layers):
        rng = np.random.default_rng(11)
        net = init_params(layers, 2)
        feats = rng.uniform(size=(150, 48))
        ds = Dataset(feats, rng.integers(0, 3, size=150), 3)
        whole = float(np.mean(np.argmax(forward(net, feats), axis=1) == ds.labels))
        assert 0.0 < whole < 1.0
        for chunk in (1, 7, 64, len(ds)):
            assert evaluate(net, ds, chunk=chunk) == whole, chunk

    def test_conv_peak_memory_does_not_grow_with_the_test_set(self):
        net = init_params(conv_mlp((3, 16, 16), (8,), (16,), 4), 3)
        rng = np.random.default_rng(4)
        sets = {n: Dataset(rng.uniform(size=(n, 768)), rng.integers(0, 4, size=n), 4) for n in (64, 512)}
        evaluate(net, sets[64])  # builds the cached patch index outside the measurement
        peaks = {}
        tracemalloc.start()
        try:
            for n, ds in sets.items():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                evaluate(net, ds)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks[512] <= 1.25 * peaks[64], peaks

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        net = NetworkParams((Dense(2, 2),), [np.eye(2)], [np.zeros(2)])
        with pytest.raises(DomainError):
            evaluate(net, ds)


def idx_splits(tmp_path, pixels, labels):
    """{split: uint8-resident IDX Dataset} of the given (n, rows, cols) pixels and labels per split."""
    out = {}
    for split in pixels:
        (tmp_path / split).mkdir()
        out[split] = load_idx(*write_idx_pair(tmp_path / split, pixels[split], labels[split]), split)
    return out


class TestImageSets:
    def test_uint8_rows_train_bit_identically_to_their_float64_features(self, tmp_path):
        rng = np.random.default_rng(21)
        pixels = {"train": rng.integers(0, 256, size=(48, 8, 8), dtype=np.uint8),
                  "test": rng.integers(0, 256, size=(20, 8, 8), dtype=np.uint8)}
        labels = {split: np.arange(len(p), dtype=np.uint8) % 3 for split, p in pixels.items()}
        resident = idx_splits(tmp_path, pixels, labels)
        assert resident["train"].rows.dtype == np.uint8
        floats = {split: Dataset(p.reshape(len(p), -1) / 255.0, labels[split], 3, split) for split, p in pixels.items()}
        cfg = pair_cfg(
            student=NetworkDef(hidden=(8,), conv_channels=(2,), opt=ADAM),
            teacher=NetworkDef(hidden=(16,), conv_channels=(4,), opt=HOT_ADAM),
            image_shape=(1, 8, 8),
            augment=True,
        )
        a = run_training(cfg, resident["train"], resident["test"])
        b = run_training(cfg, floats["train"], floats["test"])
        assert a.iteration_log == b.iteration_log
        assert a.epoch_log == b.epoch_log
        for name in a.networks:
            paths = [str(tmp_path / f"{tag}_{name}.npz") for tag in ("a", "b")]
            save_checkpoint(paths[0], a.networks[name])
            save_checkpoint(paths[1], b.networks[name])
            assert open(paths[0], "rb").read() == open(paths[1], "rb").read(), name

    def test_training_never_builds_the_float64_matrix(self, tmp_path):
        n, shape = 4096, (1, 16, 16)
        matrix_bytes = n * math.prod(shape) * 8  # 8 MiB as float64, 1 MiB as bytes
        pixels = np.random.default_rng(5).integers(0, 256, size=(n, 16, 16), dtype=np.uint8)
        cfg = pair_cfg(epochs=1, batch_size=32, image_shape=shape, augment=True)
        tracemalloc.start()
        try:
            images = idx_splits(tmp_path, {"train": pixels}, {"train": np.arange(n, dtype=np.uint8) % 4})["train"]
            run_training(cfg, images, images)  # it is the test set too, so evaluation reads the whole set
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes, (peak, matrix_bytes)


class TestConfigAndSchedule:
    def test_scheduled_lr_step_decay(self):
        assert scheduled_lr(0.1, 0, (5, 8), 0.1) == pytest.approx(0.1)
        assert scheduled_lr(0.1, 5, (5, 8), 0.1) == pytest.approx(0.01)
        assert scheduled_lr(0.1, 9, (5, 8), 0.1) == pytest.approx(0.001)

    def test_milestones_decay_optimizer_lr_during_training(self):
        train, test = blob_pair()
        cfg = pair_cfg(epochs=4, lr_milestones=(2,), lr_gamma=0.1)
        lrs = {}
        train_pair(
            cfg, train, test,
            inspect=lambda i, info: lrs.setdefault(i, (info["opts"]["student"].lr, info["teacher_opt"].lr)),
        )
        per_epoch = len(lrs) // 4
        assert lrs[0] == (ADAM.lr, ADAM.lr)
        assert lrs[2 * per_epoch] == pytest.approx((ADAM.lr * 0.1, ADAM.lr * 0.1))

    def test_optimizer_states_are_the_live_objects(self):
        train, test = blob_pair()
        held = {}
        result = run_training(
            pair_cfg(epochs=3, lr_milestones=(2,), lr_gamma=0.1), train, test,
            inspect=lambda i, info: held.setdefault(i, info["opts"]["teacher"]),
        )
        assert held[0] is result.opts["teacher"]
        assert held[0].lr == pytest.approx(ADAM.lr * 0.1)
        assert held[0].step_count == len(held)

    @pytest.mark.parametrize("per_class", [1, 2])
    def test_empty_test_set_is_refused_before_any_step(self, per_class):
        train, test = blob_pair(per_class=per_class)
        assert len(test) == 0
        seen = []
        with pytest.raises(DomainError, match="^test data is empty$"):
            run_training(pair_cfg(), train, test, inspect=lambda i, info: seen.append(i))
        assert seen == []

    def test_invalid_fields(self):
        with pytest.raises(ConfigError):
            pair_cfg(strategy="banana")
        with pytest.raises(ConfigError):
            pair_cfg(tau=0.0)
        with pytest.raises(ConfigError):
            pair_cfg(alpha=-0.1)
        with pytest.raises(ConfigError):
            pair_cfg(epochs=0)

    def test_replaced_fields_are_checked_too(self):
        with pytest.raises(ConfigError, match="^epochs: "):
            replace(pair_cfg(), epochs=0)

    def test_run_training_dispatch(self):
        train, test = blob_pair()
        res = run_training(pair_cfg(epochs=1), train, test)
        assert set(res.networks) == {"student", "teacher"}

    def test_augmentation_path_runs_and_changes_training(self):
        rng = np.random.default_rng(0)
        feats = rng.uniform(size=(40, 9))
        labels = rng.integers(0, 2, size=40)
        train = Dataset(feats, labels, 2)
        test = Dataset(feats[:10], labels[:10], 2)
        base = pair_cfg(epochs=2, student=NetworkDef(hidden=(4,), opt=ADAM), teacher=NetworkDef(hidden=(8,), opt=ADAM))
        plain = train_pair(base, train, test)
        augmented = train_pair(
            replace(base, augment=True, image_shape=(1, 3, 3)), train, test
        )
        assert params_bytes(plain.networks["student"]) != params_bytes(augmented.networks["student"])

    def test_augment_requires_image_shape(self):
        with pytest.raises(ConfigError, match="image_shape"):
            pair_cfg(augment=True)

    @pytest.mark.parametrize(
        "fields,key",
        [
            ({"alpha": -0.1}, "alpha"),
            ({"beta": -0.1}, "beta"),
            ({"lr_gamma": 0.0}, "lr.gamma"),
            ({"tau": 0.0}, "tau"),
            ({"augment": True}, "data.augment"),
            ({"teacher": NetworkDef(hidden=(4,), conv_channels=(2,))}, "teacher.conv"),
            ({"teacher": NetworkDef(hidden=(4,), conv_channels=(2, 2)), "image_shape": (1, 4, 4)}, "teacher.conv"),
            ({"lr_milestones": (-1,)}, "lr.milestones"),
            ({"student": NetworkDef(hidden=(8, 0))}, "student.hidden"),
            ({"image_shape": (0, 4, 4)}, "data.channels"),
            ({"strategy": "kd-offline", "alpha": 1.5}, "alpha"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_validate_names_the_config_key(self, fields, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            pair_cfg(**fields)

    def test_image_shape_must_hold_the_data_features(self):
        train, test = blob_pair(dims=6)
        with pytest.raises(ConfigError, match=r"^data\.channels, data\.height, data\.width: .* 12 features, .* has 6$"):
            run_training(pair_cfg(image_shape=(3, 2, 2)), train, test)

    def test_pair_state_view(self):
        train, test = blob_pair()
        res = train_pair(pair_cfg(epochs=1), train, test)
        records = res.iteration_log["teacher_student"]
        states = [GapState.from_record(rec) for rec in records]
        assert [state.iteration for state in states] == list(range(len(records)))


class TestGapTrend:
    def test_switching_keeps_kl_gradient_divergent_from_ce(self, reference_runs):
        # late in training, |G - |p_s - y|_1| must stay larger under the
        # switching strategy than under plain mutual learning (medians over
        # the five reference seeds)
        seeds = reference_runs["seeds"]
        switch_div = np.median([s["switch_div"] for s in seeds])
        dml_div = np.median([s["dml_div"] for s in seeds])
        assert switch_div > dml_div, (switch_div, dml_div)

    def test_teacher_stays_roughly_on_par(self, reference_runs):
        # the switching rule must not wreck the teacher relative to mutual
        # learning on the reference task
        seeds = reference_runs["seeds"]
        switch_t = np.median([s["switch_teacher_acc"] for s in seeds])
        dml_t = np.median([s["dml_teacher_acc"] for s in seeds])
        assert switch_t >= dml_t - 0.02, (switch_t, dml_t)
