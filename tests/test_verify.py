"""The logit-gradient verification harness must pass on honest gradients and
fail loudly on corrupted ones."""

import math

import numpy as np
import pytest

from switchdistill.datasets import generate_blobs
from switchdistill.errors import ConfigError, DomainError
from switchdistill.gap import LEARNING
from switchdistill.network import Dense, NetworkParams
from switchdistill.training import STRATEGIES, TOPOLOGIES, NetworkDef, TrainConfig, build_network, run_training
from switchdistill.verify import full_grad_check, logit_grad_check, param_grad_check


class TestLogitGradCheck:
    @pytest.mark.parametrize("strategy", ["vanilla", "kd-offline", "dml", "kdcl", "switch"])
    def test_default_pass(self, strategy):
        alpha = 0.5 if strategy == "kd-offline" else 1.0
        report = logit_grad_check(strategy, alpha=alpha, trials=30)
        assert report.ok, report.lines()

    def test_high_temperature_bookkeeping(self):
        # tau^2 on the loss, tau on the gradient: easy to get wrong at tau=5
        report = logit_grad_check("switch", tau=5.0, trials=30)
        assert report.ok

    def test_injected_fault_detected(self):
        report = logit_grad_check("dml", trials=10, fault_scale=2.0)
        assert not report.ok
        assert report.max_rel_error > 0.01

    def test_fault_harmless_for_pure_ce(self):
        report = logit_grad_check("vanilla", trials=10, fault_scale=2.0)
        assert report.ok  # vanilla has no KL term to corrupt

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            logit_grad_check("fitnet")

    def test_nan_gradient_is_not_ok(self):
        report = logit_grad_check("dml", trials=5, fault_scale=math.nan)
        student, teacher = report.cases
        assert not student.ok and math.isnan(student.max_rel_error)
        assert not report.ok and math.isnan(report.max_rel_error)

    @pytest.mark.parametrize(
        "kwargs, argument",
        [
            ({"trials": 0}, "trials"),
            ({"trials": -3}, "trials"),
            ({"tolerance": math.inf}, "tolerance"),
            ({"tolerance": math.nan}, "tolerance"),
            ({"tolerance": 0.0}, "tolerance"),
            ({"tolerance": -1e-4}, "tolerance"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_refuses_a_check_that_checks_nothing(self, kwargs, argument):
        with pytest.raises(DomainError, match=f"^{argument} must be"):
            logit_grad_check("switch", **kwargs)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_checks_every_network_the_trainer_steps(self, strategy):
        """Per topology the strategy trains, the checked networks are the ones a learning iteration steps."""
        alpha = 0.5 if strategy == "kd-offline" else 1.0
        checked: dict[str, list] = {}
        for case in logit_grad_check(strategy, alpha=alpha, trials=1).cases:
            *topology, net = case.name.split()[1:-1]
            checked.setdefault(topology[0] if topology else "pair", []).append(net)
        train, test = generate_blobs(3, 5, 4, 0.5, 0)
        stepped = {}
        for topology in TOPOLOGIES:
            try:
                cfg = TrainConfig(
                    strategy=strategy, topology=topology, alpha=alpha, epochs=1, batch_size=len(train), third=NetworkDef()
                )
            except ConfigError:  # a topology the strategy does not train
                continue
            initial = {"teacher": build_network(cfg.teacher, train.dims, 3, 0, 1)} if strategy == "kd-offline" else None
            grads = []
            run_training(
                cfg, train, test, mode_hook=lambda i, p, s: LEARNING,
                inspect=lambda i, payload: grads.append(list(payload["logit_grads"])), initial=initial,
            )
            stepped[topology] = grads[0]
        assert checked == stepped

    def test_full_sweep_covers_all_roles(self):
        report = full_grad_check(trials=5)
        strategies = {tuple(c.name.split()[:2]) for c in report.cases}  # (strategy, role) columns
        assert ("dml", "teacher") in strategies
        assert ("kdcl", "teacher") in strategies
        assert ("switch", "student") in strategies
        assert report.ok


class TestParamGradCheck:
    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1e-4])
    def test_refuses_a_tolerance_that_checks_nothing(self, tolerance):
        # a weight gradient 2.5 times too large: max_rel_error 0.6, "ok" under an infinite tolerance
        net = NetworkParams((Dense(2, 2),), [np.array([[1.2, 0.0], [0.0, 0.7]])], [np.zeros(2)])

        def loss(p):
            return float(np.sum((p.weights[0] - 3.0) ** 2) + np.sum(p.biases[0] ** 2))

        def grad(p):
            return NetworkParams(p.layers, [5.0 * (p.weights[0] - 3.0)], [2.0 * p.biases[0]])

        assert not param_grad_check(net, loss, grad).ok
        with pytest.raises(DomainError, match="^tolerance must be"):
            param_grad_check(net, loss, grad, tolerance=tolerance)
