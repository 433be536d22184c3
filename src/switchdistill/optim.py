"""Optimizers: SGD with momentum and Adam, as pure update functions.

``step`` never mutates its inputs; it returns fresh parameter and state
objects so a frozen network is frozen by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericError
from .network import NetworkParams

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
    slots: dict[str, NetworkParams] | None = None

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZERS:
            raise DomainError(f"unknown optimizer kind {self.kind!r}")
        if self.lr < 0:
            raise DomainError("learning rate must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise DomainError("weight decay must be non-negative")


def init_optimizer(
    net: NetworkParams,
    kind: str = SGD,
    lr: float = 0.01,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> OptimizerState:
    """Fresh optimizer state with zeroed accumulators shaped like ``net``."""
    state = OptimizerState(kind=kind, lr=lr, momentum=momentum, weight_decay=weight_decay)
    state.slots = {name: net.zeros_like() for name in (("velocity",) if kind == SGD else ("m", "v"))}
    return state


def _check_finite(grads: NetworkParams) -> None:
    for i, (dw, db) in enumerate(zip(grads.weights, grads.biases)):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise NumericError(f"non-finite gradient in layer {i}")


def _update(opt: OptimizerState, bc: tuple[float, float], p: np.ndarray, g: np.ndarray, *slots: np.ndarray):
    """One array's update: (p, g, *slots) -> (new p, *new slots); ``bc`` is Adam's bias corrections."""
    g_eff = g + opt.weight_decay * p if opt.weight_decay else g
    if opt.kind == SGD:
        (v,) = slots
        v_new = opt.momentum * v + g_eff
        return p - opt.lr * v_new, v_new
    m, v = slots
    m_new = opt.momentum * m + (1.0 - opt.momentum) * g_eff
    v_new = opt.beta2 * v + (1.0 - opt.beta2) * g_eff * g_eff
    update = (m_new / bc[0]) / (np.sqrt(v_new / bc[1]) + opt.eps)
    return p - opt.lr * update, m_new, v_new


def step(
    net: NetworkParams, grads: NetworkParams, opt: OptimizerState
) -> tuple[NetworkParams, OptimizerState]:
    """One optimizer update; returns new params and advanced state."""
    _check_finite(grads)
    assert opt.slots is not None, "optimizer state missing accumulators; use init_optimizer"
    t = opt.step_count + 1
    bc = (1.0 - opt.momentum**t, 1.0 - opt.beta2**t)
    columns = [(*p.weights, *p.biases) for p in (net, grads, *opt.slots.values())]
    outs = [_update(opt, bc, *arrays) for arrays in zip(*columns)]
    n = len(net.layers)
    new_net, *new_slots = (NetworkParams(net.layers, list(col[:n]), list(col[n:])) for col in zip(*outs))
    return new_net, replace(opt, step_count=t, slots=dict(zip(opt.slots, new_slots)))
