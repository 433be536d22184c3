"""Finite-difference verification of analytic gradients, on one five-point stencil.

``logit_grad_check`` covers the logit gradient of every network the trainer
steps under each strategy, the switching strategy's triples included: it
folds each gradient from the trainer's ``pair_terms`` and ``stepping_terms``
on random (logits, label) instances and differentiates the same objective
through the temperature softmax, holding partner, peer and ensemble targets
constant as the trainer does. ``param_grad_check`` checks any network's
parameter gradients against a loss closure, one case per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .gap import LEARNING
from .losses import ce_loss, kl_loss, one_hot, soften
from .network import NetworkParams
from .training import (
    STRATEGIES,
    TOPOLOGY_TABLE,
    TrainConfig,
    logit_grad,
    objective_value,
    pair_terms,
    stepping_terms,
)


@dataclass
class GradCheckCase:
    name: str  # what was differentiated: a strategy's role at a temperature, or "layer i"
    max_rel_error: float
    ok: bool


@dataclass
class GradCheckReport:
    cases: list[GradCheckCase]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return float(np.max([c.max_rel_error for c in self.cases]))  # NaN if any case is NaN

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def lines(self) -> list[str]:
        return [f"{'ok' if c.ok else 'FAIL':4s} {c.name} max_rel_err={c.max_rel_error:.3e}" for c in self.cases]


def _check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance that would pass every gradient, or none."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DomainError(f"tolerance must be a finite positive number, got {tolerance}")


def _max_rel_error(analytic: np.ndarray, shifted: Callable[[float], np.ndarray], h: float) -> float:
    """Worst relative error of ``analytic`` against five-point central differences.

    ``shifted(d)`` returns, for each coordinate j, the objective with
    coordinate j alone moved by d.
    """
    up, down, up2, down2 = (shifted(c * h) for c in (1.0, -1.0, 2.0, -2.0))
    numeric = (8.0 * (up - down) - (up2 - down2)) / (12.0 * h)  # five-point stencil, error O(h^4)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def logit_grad_check(
    strategy: str,
    tau: float = 1.0,
    alpha: float = 1.0,
    beta: float = 1.0,
    seed: int = 0,
    trials: int = 100,
    tolerance: float = 1e-4,
    fault_scale: float = 1.0,
    h: float = 1e-4,
) -> GradCheckReport:
    """Check one strategy's gradient for every network it steps, triples included.

    For each topology the strategy trains, each of ``trials`` instances draws
    logits for every network with all pairs learning, and checks every network
    that then steps on the terms the trainer folds, holding their targets
    constant at the base point. ``alpha``, ``beta`` and ``tau`` are refused
    as a run refuses them. ``fault_scale`` multiplies the KL portion of the
    analytic gradient and exists to prove the harness catches wrong gradients.
    """
    try:
        cfg = TrainConfig(strategy=strategy, alpha=alpha, beta=beta, tau=tau)  # a run's own rules for these values
    except ConfigError as exc:
        raise DomainError(str(exc)) from None
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    _check_tolerance(tolerance)
    rng = np.random.default_rng(seed)
    cases = []
    trained = [(name, topo) for name, topo in TOPOLOGY_TABLE.items() if name == "pair" or strategy == "switch"]
    for topology, topo in trained:  # switch is the only strategy that trains triples
        worst: dict[str, float] = {}
        for _ in range(trials):
            k = int(rng.integers(2, 11))
            z = {net: rng.normal(0.0, 2.0, size=k) for net in topo.names}
            y = one_hot(int(rng.integers(k)), k)
            ptau = {net: soften(v, tau) for net, v in z.items()}
            per_pair = [pair_terms(cfg, t, s, ptau) for t, s in topo.pairs]
            for name, (w_ce, terms) in stepping_terms(topo, [LEARNING] * len(topo.pairs), per_pair, ptau).items():
                faulty = [(fault_scale * w, q) for w, q in terms]
                analytic = logit_grad(w_ce, faulty, soften(z[name], 1.0), ptau[name], y, tau)

                def value(zs):  # the objective of each row of logits
                    kls = [(w, kl_loss(np.broadcast_to(q, zs.shape), soften(zs, tau))) for w, q in terms]
                    return objective_value(w_ce, ce_loss(np.broadcast_to(y, zs.shape), soften(zs, 1.0)), kls, tau)

                error = _max_rel_error(analytic, lambda d: value(z[name] + d * np.eye(k)), h)
                worst[name] = float(np.maximum(worst.get(name, 0.0), error))
        for name, error in worst.items():
            role = name if topology == "pair" else f"{topology} {name}"
            cases.append(GradCheckCase(f"{strategy:10s} {role:13s} tau={tau:<4g}", error, error <= tolerance))
    return GradCheckReport(cases=cases, tolerance=tolerance)


def full_grad_check(
    taus=(0.5, 1.0, 2.0, 5.0),
    alpha: float = 1.0,
    beta: float = 1.0,
    seed: int = 0,
    trials: int = 100,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """All strategies at several temperatures; the acceptance-level sweep."""
    cases = []
    for strategy in STRATEGIES:
        for tau in taus:
            a = 0.5 if strategy == "kd-offline" else alpha
            report = logit_grad_check(
                strategy, tau=tau, alpha=a, beta=beta, seed=seed, trials=trials, tolerance=tolerance
            )
            cases.extend(report.cases)
    return GradCheckReport(cases=cases, tolerance=tolerance)


def param_grad_check(
    net: NetworkParams,
    loss_fn: Callable[[NetworkParams], float],
    grad_fn: Callable[[NetworkParams], NetworkParams],
    tolerance: float = 1e-4,
    h: float = 1e-5,
) -> GradCheckReport:
    """Compare ``grad_fn(net)`` against finite differences of ``loss_fn``, one case per layer.

    Each entry is moved in place on one copy of ``net`` and restored, so
    memory stays linear in the parameter count. The stencil reaches 2h, and
    a ReLU pre-activation within that reach makes the loss non-smooth, hence
    a smaller default step than the logit check's. A non-finite loss raises
    NumericError; a non-finite or non-positive ``tolerance`` raises DomainError.
    """
    _check_tolerance(tolerance)

    def loss(params: NetworkParams) -> float:
        value = float(loss_fn(params))
        if not math.isfinite(value):
            raise NumericError(f"loss closure returned non-finite value {value}")
        return value

    def shifted(flat: np.ndarray, d: float) -> np.ndarray:
        values = np.empty(flat.size)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + d
            values[j] = loss(probe)
            flat[j] = orig
        return values

    loss(net)  # fail fast on a broken closure
    analytic = grad_fn(net)
    probe = net.copy()
    cases = []
    for i in range(len(net.layers)):
        worst = 0.0
        for arr, grad in ((probe.weights[i], analytic.weights[i]), (probe.biases[i], analytic.biases[i])):
            flat = arr.reshape(-1)  # a view: the copy's arrays are contiguous
            worst = float(np.maximum(worst, _max_rel_error(np.ravel(grad), lambda d: shifted(flat, d), h)))
        cases.append(GradCheckCase(f"layer {i}", worst, worst <= tolerance))
    return GradCheckReport(cases=cases, tolerance=tolerance)
