"""Finite-difference verification of the logit gradients the trainer applies.

For every strategy and every role it trains (the switching strategy's
three-network roles included) this builds random (logits, label) instances,
folds the gradient from the trainer's own objective table, and compares it
against central finite differences of the same objective evaluated through
the temperature softmax. Partner, peer and ensemble targets are held
constant, exactly as the trainer's gradients assume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gap import LEARNING
from .losses import ce_loss, kl_loss, one_hot, soften
from .training import (
    STRATEGIES,
    STUDENT,
    TEACHER,
    TOPOLOGY_TABLE,
    logit_grad,
    objective_value,
    objectives,
    pair_targets,
    stepping_terms,
)


@dataclass
class GradCheckCase:
    strategy: str
    role: str
    tau: float
    max_rel_error: float
    ok: bool


@dataclass
class GradCheckReport:
    cases: list[GradCheckCase]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(c.max_rel_error for c in self.cases)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def lines(self) -> list[str]:
        return [
            f"{'ok' if c.ok else 'FAIL':4s} {c.strategy:10s} {c.role:12s} tau={c.tau:<4g} max_rel_err={c.max_rel_error:.3e}"
            for c in self.cases
        ]


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
    """Check one strategy's gradient for every role it trains, triples included.

    Each trial draws logits for every network of the topology with all pairs
    learning, builds the role's objective terms from the training table, and
    holds their targets constant at the base point. ``fault_scale``
    multiplies the KL portion of the analytic gradient and exists to prove
    the harness catches wrong gradients.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    table = objectives(strategy, alpha, beta)
    roles = [("pair", role) for role in (STUDENT, TEACHER) if table[role] is not None]
    if strategy == "switch":  # the only strategy that trains triples
        roles += [(topo, role) for topo in ("1t2s", "2t1s") for role in (STUDENT, TEACHER)]
    cases = []
    for topology, name in roles:
        topo = TOPOLOGY_TABLE[topology]
        worst = 0.0
        for _ in range(trials):
            k = int(rng.integers(2, 11))
            z = {net: rng.normal(0.0, 2.0, size=k) for net in topo.names}
            y = one_hot(int(rng.integers(k)), k)
            ptau = {net: soften(v, tau) for net, v in z.items()}
            targets = [pair_targets(table, t, s, ptau) for t, s in topo.pairs]
            modes = [LEARNING] * len(topo.pairs)
            w_ce, terms = stepping_terms(table, topo, modes, targets, ptau)[name]
            faulty = [(fault_scale * w, q) for w, q in terms]
            analytic = logit_grad(w_ce, faulty, soften(z[name], 1.0), ptau[name], y, tau)

            def value(zs):  # the objective of each row of logits
                kls = [(w, kl_loss(np.broadcast_to(q, zs.shape), soften(zs, tau))) for w, q in terms]
                return objective_value(w_ce, ce_loss(np.broadcast_to(y, zs.shape), soften(zs, 1.0)), kls, tau)

            offsets = np.concatenate([c * h * np.eye(k) for c in (1.0, -1.0, 2.0, -2.0)])
            up, down, up2, down2 = value(z[name] + offsets).reshape(4, k)
            numeric = (8.0 * (up - down) - (up2 - down2)) / (12.0 * h)  # five-point stencil, error O(h^4)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        role = name if topology == "pair" else f"{topology} {name}"
        cases.append(
            GradCheckCase(strategy=strategy, role=role, tau=tau, max_rel_error=worst, ok=worst <= tolerance)
        )
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
