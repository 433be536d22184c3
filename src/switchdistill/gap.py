"""Distillation-gap quantification and the adaptive mode-switching rule.

The gap G between two softened predictions is their plain l1 distance
(sum over classes, so G is in [0, 2]). The switching threshold is

    delta = |p_s - y|_1 - exp(-r) * |p_t - y|_1,
    r = |p_t - y|_1 / (|p_s - y|_1 + |p_t - y|_1),

which always lands in the corridor [|p_s-y|_1 - |p_t-y|_1, |p_s-y|_1).
Training runs in learning mode while G <= delta and in expert mode
otherwise. The decision is scale-invariant: multiplying every l1 norm by
the same positive constant leaves r, and hence the sign of G - delta,
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .losses import _pair, _reduce

LEARNING = "learning"
EXPERT = "expert"
MODES = (LEARNING, EXPERT)


@dataclass(frozen=True)
class GapState:
    """Per-iteration record of the gap, threshold terms, chosen mode and the l1 errors' batch means."""

    iteration: int
    G: float
    r: float
    epsilon: float
    delta: float
    mode: str
    student_err: float = 0.0
    teacher_err: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.iteration, bool) or not isinstance(self.iteration, int):
            raise DomainError(f"iteration must be an integer, got {self.iteration!r}")
        for name in ("G", "r", "epsilon", "delta", "student_err", "teacher_err"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
        if self.iteration < 0:
            raise DomainError("iteration must be non-negative")
        if not 0.0 <= self.G <= 2.0 + 1e-9:
            raise DomainError(f"G out of range [0, 2]: {self.G}")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon out of range (0, 1]: {self.epsilon}")
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    def to_record(self, mode: str, losses: dict) -> dict:
        """One iteration's log record: the state with the ``mode`` applied, the pair's ``losses``, the l1 errors."""
        if mode not in MODES:
            raise DomainError(f"unknown mode {mode!r}")
        return {
            "iteration": self.iteration,
            "G": self.G,
            "r": self.r,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "mode": mode,
            **losses,
            "student_err_l1": self.student_err,
            "teacher_err_l1": self.teacher_err,
        }

    @classmethod
    def from_record(cls, rec: dict) -> GapState:
        """The state an iteration record holds; a missing field is a KeyError naming it, the l1 errors are optional."""
        fields = {key: rec[key] for key in ("iteration", "G", "r", "epsilon", "delta", "mode")}
        return cls(**fields, student_err=rec.get("student_err_l1", 0.0), teacher_err=rec.get("teacher_err_l1", 0.0))


def mode_stats(modes) -> dict:
    """Iteration count, switch count and per-mode fractions of a sequence of modes.

    A switch is an iteration whose mode differs from the one before it.
    """
    modes = list(modes)
    n = len(modes)
    return {
        "iterations": n,
        "switch_count": sum(a != b for a, b in zip(modes, modes[1:])),
        **{f"{mode}_fraction": modes.count(mode) / max(n, 1) for mode in MODES},
    }


def threshold_from_errors(student_err, teacher_err):
    """Vectorized (delta, epsilon, r) from precomputed l1 errors.

    Degenerate entries (both errors zero) fall back to delta=0, epsilon=1,
    r=0: with both gradients vanishing, the iteration is a no-op and the
    resulting G=0 <= delta=0 keeps it in learning mode.
    """
    es = np.asarray(student_err, dtype=np.float64)
    et = np.asarray(teacher_err, dtype=np.float64)
    total = es + et
    degenerate = total == 0
    safe_total = np.where(degenerate, 1.0, total)
    r = np.where(degenerate, 0.0, et / safe_total)
    eps = np.exp(-r)
    delta = es - eps * et
    return _reduce(delta), _reduce(eps), _reduce(r)


def decide_mode(g: float, delta: float) -> str:
    """Learning mode iff G <= delta; ties go to learning."""
    return LEARNING if g <= delta else EXPERT


def batch_gap_state(p_s_tau, p_t_tau, y, iteration: int) -> GapState:
    """Batch-mean gap and threshold, then one mode decision for the iteration.

    Inputs are (batch, classes) arrays; per-sample G and delta are averaged
    before the comparison, so each iteration yields exactly one mode.
    """
    ps, pt = _pair(p_s_tau, p_t_tau)
    yv = np.asarray(y, dtype=np.float64)
    if ps.ndim != 2:
        raise ShapeError(f"expected (batch, classes) arrays, got shape {ps.shape}")
    if yv.shape != ps.shape:
        raise ShapeError(f"label shape {yv.shape} != distribution shape {ps.shape}")
    if ps.shape[0] == 0:
        raise DomainError("empty batch")
    g = np.abs(ps - pt).sum(axis=-1)
    student_err = np.abs(ps - yv).sum(axis=-1)
    teacher_err = np.abs(pt - yv).sum(axis=-1)
    delta, eps, r = threshold_from_errors(student_err, teacher_err)
    g_mean = float(np.mean(g))
    delta_mean = float(np.mean(delta))
    return GapState(
        iteration=iteration,
        G=g_mean,
        r=float(np.mean(r)),
        epsilon=float(np.mean(eps)),
        delta=delta_mean,
        mode=decide_mode(g_mean, delta_mean),
        student_err=float(np.mean(student_err)),
        teacher_err=float(np.mean(teacher_err)),
    )
