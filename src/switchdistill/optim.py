"""Optimizers: SGD with momentum and Adam, as pure update functions.

``step`` never mutates its inputs; it returns fresh parameter and state
objects so a frozen network is frozen by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericError
from .network import Gradients, NetworkParams

SGD = "sgd"
ADAM = "adam"
OPTIMIZERS = (SGD, ADAM)


@dataclass
class OptimizerState:
    """Hyperparameters plus per-parameter accumulators for one network.

    ``momentum`` is the velocity coefficient for SGD and beta1 for Adam.
    Weight decay is coupled (added to the gradient before the update).
    """

    kind: str
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    slots: dict[str, Gradients] | None = None

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZERS:
            raise DomainError(f"unknown optimizer kind {self.kind!r}")
        if self.lr < 0:
            raise DomainError("learning rate must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise DomainError("weight decay must be non-negative")

    def with_lr(self, lr: float) -> "OptimizerState":
        return replace(self, lr=lr)


def init_optimizer(
    net: NetworkParams,
    kind: str = SGD,
    lr: float = 0.01,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> OptimizerState:
    """Fresh optimizer state with zeroed accumulators shaped like ``net``."""
    state = OptimizerState(kind=kind, lr=lr, momentum=momentum, weight_decay=weight_decay)
    if kind == SGD:
        state.slots = {"velocity": Gradients.zeros_like(net)}
    else:
        state.slots = {"m": Gradients.zeros_like(net), "v": Gradients.zeros_like(net)}
    return state


def _check_finite(grads: Gradients) -> None:
    for i, (dw, db) in enumerate(zip(grads.weights, grads.biases)):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise NumericError(f"non-finite gradient in layer {i}")


def step(
    net: NetworkParams, grads: Gradients, opt: OptimizerState
) -> tuple[NetworkParams, OptimizerState]:
    """One optimizer update; returns new params and advanced state."""
    _check_finite(grads)
    assert opt.slots is not None, "optimizer state missing accumulators; use init_optimizer"
    new_w: list[np.ndarray] = []
    new_b: list[np.ndarray] = []

    if opt.kind == SGD:
        vel = opt.slots["velocity"]
        nvel = Gradients([], [])
        for params, gs, vs, out, vout in (
            (net.weights, grads.weights, vel.weights, new_w, nvel.weights),
            (net.biases, grads.biases, vel.biases, new_b, nvel.biases),
        ):
            for p, g, v in zip(params, gs, vs):
                g_eff = g + opt.weight_decay * p if opt.weight_decay else g
                v_new = opt.momentum * v + g_eff
                out.append(p - opt.lr * v_new)
                vout.append(v_new)
        new_slots = {"velocity": nvel}
    else:
        t = opt.step_count + 1
        beta1 = opt.momentum
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - opt.beta2**t
        m, v = opt.slots["m"], opt.slots["v"]
        nm, nv = Gradients([], []), Gradients([], [])
        for params, gs, ms, vs, out, mout, vout in (
            (net.weights, grads.weights, m.weights, v.weights, new_w, nm.weights, nv.weights),
            (net.biases, grads.biases, m.biases, v.biases, new_b, nm.biases, nv.biases),
        ):
            for p, g, m_i, v_i in zip(params, gs, ms, vs):
                g_eff = g + opt.weight_decay * p if opt.weight_decay else g
                m_new = beta1 * m_i + (1.0 - beta1) * g_eff
                v_new = opt.beta2 * v_i + (1.0 - opt.beta2) * g_eff * g_eff
                update = (m_new / bc1) / (np.sqrt(v_new / bc2) + opt.eps)
                out.append(p - opt.lr * update)
                mout.append(m_new)
                vout.append(v_new)
        new_slots = {"m": nm, "v": nv}

    new_net = NetworkParams(net.layers, new_w, new_b)
    new_opt = replace(opt, step_count=opt.step_count + 1, slots=new_slots)
    return new_net, new_opt
