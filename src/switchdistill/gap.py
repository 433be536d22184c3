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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGapError, DomainError, ShapeError
from .losses import _pair, _probs, _reduce

LEARNING = "learning"
EXPERT = "expert"
MODES = (LEARNING, EXPERT)


@dataclass(frozen=True)
class GapState:
    """Per-iteration record of the gap, threshold terms, and chosen mode."""

    iteration: int
    G: float
    r: float
    epsilon: float
    delta: float
    mode: str

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise DomainError("iteration must be non-negative")
        if not 0.0 <= self.G <= 2.0 + 1e-9:
            raise DomainError(f"G out of range [0, 2]: {self.G}")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon out of range (0, 1]: {self.epsilon}")
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    def to_record(self) -> dict:
        return {
            "iteration": self.iteration,
            "G": self.G,
            "r": self.r,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "mode": self.mode,
        }


class ThresholdInfo(NamedTuple):
    delta: float
    epsilon: float
    r: float


def gap(p_s_tau, p_t_tau) -> float | np.ndarray:
    """l1 distance between softened predictions, per sample."""
    ps, pt = _pair(p_s_tau, p_t_tau)
    return _reduce(np.abs(ps - pt).sum(axis=-1))


def _check_errors(teacher_err: float, student_err: float) -> None:
    if teacher_err < 0 or student_err < 0:
        raise DomainError("l1 errors must be non-negative")
    if teacher_err + student_err == 0:
        raise DegenerateGapError("both networks match the label exactly; ratio undefined")


def epsilon_factor(teacher_err: float, student_err: float) -> float:
    """exp(-r) with r the teacher's share of the combined l1 error."""
    _check_errors(teacher_err, student_err)
    return threshold_from_errors(student_err, teacher_err)[1]


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


def threshold(p_s_tau, p_t_tau, y) -> ThresholdInfo:
    """Adaptive switching threshold for one sample."""
    ps, pt = _pair(p_s_tau, p_t_tau)
    yv = _probs(y)
    if yv.shape != ps.shape:
        raise ShapeError(f"label shape {yv.shape} != distribution shape {ps.shape}")
    student_err = float(np.abs(ps - yv).sum(axis=-1))
    teacher_err = float(np.abs(pt - yv).sum(axis=-1))
    _check_errors(teacher_err, student_err)
    return ThresholdInfo(*threshold_from_errors(student_err, teacher_err))


def decide_mode(g: float, delta: float) -> str:
    """Learning mode iff G <= delta; ties go to learning."""
    return LEARNING if g <= delta else EXPERT


def batch_gap_state(p_s_tau, p_t_tau, y, iteration: int) -> GapState:
    """Batch-mean gap and threshold, then one mode decision for the iteration.

    Inputs are (batch, classes) arrays; per-sample G and delta are averaged
    before the comparison, so each iteration yields exactly one mode.
    """
    ps, pt = _pair(p_s_tau, p_t_tau)
    yv = _probs(y)
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
    )
