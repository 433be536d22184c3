"""Optimizers: SGD with momentum and Adam, updating parameters and accumulators in place.

``step`` only reads the gradient and keeps its intermediates in two scratch vectors made by
``init_optimizer``. A frozen network is frozen because the trainer never calls ``step`` on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    ``scratch`` holds two flat vectors the size of the largest array.
    """

    kind: str
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    slots: dict[str, NetworkParams] | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

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
    size = max(a.size for a in (*net.weights, *net.biases))
    state.scratch = (np.empty(size), np.empty(size))
    return state


def _check_finite(grads: NetworkParams) -> None:
    """Refuse a NaN or infinite gradient: a reduction's min and max show one, with no per-element temporary."""
    for i, arrays in enumerate(zip(grads.weights, grads.biases)):
        if not all(math.isfinite(a.min()) and math.isfinite(a.max()) for a in arrays):
            raise NumericError(f"non-finite gradient in layer {i}")


def _update(opt: OptimizerState, bc: tuple[float, float], p: np.ndarray, g: np.ndarray, *slots: np.ndarray) -> None:
    """One array's update, written into ``p`` and ``slots``; ``bc`` is Adam's bias corrections.

    Operand order is that of ``g + wd*p``, ``mu*m + (1-mu)*g``, ``b2*v + ((1-b2)*g)*g`` and
    ``p - lr*((m/bc0) / (sqrt(v/bc1) + eps))``: bit for bit the plain NumPy expressions.
    """
    a, b = (s[: p.size].reshape(p.shape) for s in opt.scratch)
    g_eff = np.add(g, np.multiply(opt.weight_decay, p, out=a), out=a) if opt.weight_decay else g
    if opt.kind == SGD:
        (v,) = slots
        np.add(np.multiply(opt.momentum, v, out=v), g_eff, out=v)
        np.subtract(p, np.multiply(opt.lr, v, out=b), out=p)
        return
    m, v = slots
    np.add(np.multiply(opt.momentum, m, out=m), np.multiply(1.0 - opt.momentum, g_eff, out=b), out=m)
    np.multiply(np.multiply(1.0 - opt.beta2, g_eff, out=b), g_eff, out=b)
    np.add(np.multiply(opt.beta2, v, out=v), b, out=v)
    np.add(np.sqrt(np.divide(v, bc[1], out=b), out=b), opt.eps, out=b)
    np.divide(np.divide(m, bc[0], out=a), b, out=a)
    np.subtract(p, np.multiply(opt.lr, a, out=a), out=p)


def step(
    net: NetworkParams, grads: NetworkParams, opt: OptimizerState
) -> tuple[NetworkParams, OptimizerState]:
    """One optimizer update of ``net`` and ``opt`` in place; returns them, with ``step_count`` advanced."""
    _check_finite(grads)
    if opt.slots is None or opt.scratch is None:
        raise DomainError("optimizer state has no accumulators or scratch; build it with init_optimizer")
    t = opt.step_count + 1
    bc = (1.0 - opt.momentum**t, 1.0 - opt.beta2**t)
    columns = [(*p.weights, *p.biases) for p in (net, grads, *opt.slots.values())]
    for arrays in zip(*columns):
        _update(opt, bc, *arrays)
    opt.step_count = t
    return net, opt
