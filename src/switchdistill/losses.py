"""Probability-space math for distillation: temperature softmax, cross-entropy,
KL divergence, and the closed-form logit gradients of the pair strategies'
losses (the trainer folds its own; these are the references it is tested against).

All functions work on the last axis, so a (K,) vector and a (batch, K) matrix
go through the same code path. Scalar results are returned as floats for 1-D
inputs and as per-sample arrays for batches. Losses use the plain per-class
sum (no 1/K prefactor), so KL = CE - entropy holds exactly, and the softened
KL term carries a tau^2 factor so its logit gradient is coeff * tau * (p - q).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

LOG_CLAMP = 1e-12


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    pa, pb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if pa.shape != pb.shape:
        raise ShapeError(f"distribution shapes differ: {pa.shape} vs {pb.shape}")
    return pa, pb


def _reduce(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def soften(logits: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-tau softmax along the last axis, overflow-safe."""
    if tau <= 0:
        raise DomainError(f"temperature must be positive, got {tau}")
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels to one-hot rows."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise DomainError("label outside [0, num_classes)")
    return np.eye(num_classes)[labels]


def ce_loss(target, pred) -> float | np.ndarray:
    """Cross-entropy -sum(target * log pred), log-clamped at 1e-12."""
    t, p = _pair(target, pred)
    return _reduce(-(t * np.log(np.maximum(p, LOG_CLAMP))).sum(axis=-1))


def kl_loss(reference, pred) -> float | np.ndarray:
    """KL(reference || pred) = sum(reference * log(reference / pred))."""
    r, p = _pair(reference, pred)
    logr = np.log(np.maximum(r, LOG_CLAMP))
    logp = np.log(np.maximum(p, LOG_CLAMP))
    return _reduce((r * (logr - logp)).sum(axis=-1))


def student_logit_grad(teacher_tau_dist, p_s_1, p_s_tau, y, alpha: float, tau: float) -> np.ndarray:
    """Gradient of CE(y, p_s^1) + alpha*tau^2*KL(p_t^tau, p_s^tau) w.r.t. student logits.

    The same form serves both training modes; only the provenance of the
    teacher distribution (trainable vs frozen) differs.
    """
    pt, ps_tau = _pair(teacher_tau_dist, p_s_tau)
    ps1, yv = _pair(p_s_1, y)
    if ps1.shape != ps_tau.shape:
        raise ShapeError("distribution shapes differ between temperatures")
    return (ps1 - yv) + alpha * tau * (ps_tau - pt)


def teacher_logit_grad(p_t_1, p_t_tau, p_s_tau, y, beta: float, tau: float) -> np.ndarray:
    """Gradient of CE(y, p_t^1) + beta*tau^2*KL(p_s^tau, p_t^tau) w.r.t. teacher logits."""
    ps, pt_tau = _pair(p_s_tau, p_t_tau)
    pt1, yv = _pair(p_t_1, y)
    if pt1.shape != pt_tau.shape:
        raise ShapeError("distribution shapes differ between temperatures")
    return (pt1 - yv) + beta * tau * (pt_tau - ps)


def kd_logit_grad(p_s_1, p_s_tau, p_t_tau, y, alpha: float, tau: float) -> np.ndarray:
    """Gradient of alpha*CE(y, p_s^1) + (1-alpha)*tau^2*KL(p_t^tau, p_s^tau) (classic distillation)."""
    ps1, yv = _pair(p_s_1, y)
    ps_tau, pt_tau = _pair(p_s_tau, p_t_tau)
    return alpha * (ps1 - yv) + (1.0 - alpha) * tau * (ps_tau - pt_tau)


def kdcl_logit_grad(p_1, p_tau, p_m, y, tau: float) -> np.ndarray:
    """Gradient of CE(y, p^1) + tau^2*KL(p_m, p^tau) with the ensemble target held constant."""
    p1, yv = _pair(p_1, y)
    ptau, pm = _pair(p_tau, p_m)
    return (p1 - yv) + tau * (ptau - pm)


def ensemble_target(p_s_tau, p_t_tau) -> np.ndarray:
    """Arithmetic mean of two softened distributions; stays on the simplex."""
    ps, pt = _pair(p_s_tau, p_t_tau)
    mean = 0.5 * (ps + pt)
    if np.any(np.abs(mean.sum(axis=-1) - 1.0) > 1e-9):
        raise DomainError("ensemble target drifted off the simplex")
    return mean


def degeneration_curve(p_s_tau, y, lambdas) -> list[tuple[float, float]]:
    """(KL(p_t, p_s), CE(y, p_s)) pairs for teachers p_t = (1-lam)*y + lam*uniform.

    As lam -> 0 the teacher collapses onto the one-hot label and the KL value
    approaches the plain cross-entropy.
    """
    ps = np.asarray(p_s_tau, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if ps.ndim != 1 or yv.shape != ps.shape:
        raise ShapeError("expects single-sample distributions of equal length")
    if not (np.all((yv == 0) | (yv == 1)) and yv.sum() == 1):
        raise DomainError("y must be one-hot")
    k = ps.shape[0]
    uniform = np.full(k, 1.0 / k)
    curve = []
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise DomainError(f"lambda must be in (0, 1], got {lam}")
        p_t = (1.0 - lam) * yv + lam * uniform
        curve.append((float(kl_loss(p_t, ps)), float(ce_loss(yv, ps))))
    return curve
