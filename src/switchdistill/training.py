"""Training loops: the adaptive-switching strategy, the logit-matching
baselines (vanilla, classic offline distillation, mutual learning, ensemble
distillation), and the two three-network topologies.

Every strategy shares one iteration skeleton: forward both networks, compute
the batch gap state, build per-sample logit gradients, backpropagate, and
step the optimizers. The mutual-learning update is a single function used by
both the baseline and the switching strategy's learning mode, so pinning the
mode decision to "learning" reproduces the baseline bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .checkpoint import load_checkpoint
from .datasets import Dataset, augment_flip_crop, batches
from .errors import ConfigError, DomainError, NumericError
from .gap import EXPERT, LEARNING, GapState, batch_gap_state
from .losses import (
    ce_loss,
    ensemble_target,
    kd_logit_grad,
    kdcl_logit_grad,
    kl_loss,
    one_hot,
    soften,
    student_logit_grad,
    teacher_logit_grad,
)
from .network import NetworkParams, backward_from_cache, conv_mlp, forward, forward_with_cache, init_params, mlp
from .optim import OptimizerState, init_optimizer, step

STRATEGIES = ("vanilla", "kd-offline", "dml", "kdcl", "switch")
TOPOLOGIES = ("pair", "1t2s", "2t1s")

PEER_KL_COEFF = 1.0  # weight of the two-way KL between peer networks in triples

ModeHook = Callable[[int, str, GapState], str]
InspectHook = Callable[[int, dict], None]


@dataclass(frozen=True)
class OptimizerSettings:
    kind: str = "adam"
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4


@dataclass(frozen=True)
class NetworkDef:
    """Architecture and optimizer knobs for one network."""

    hidden: tuple[int, ...] = (32,)
    conv_channels: tuple[int, ...] = ()
    opt: OptimizerSettings = OptimizerSettings()


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = "switch"
    topology: str = "pair"
    alpha: float = 1.0
    beta: float = 1.0
    tau: float = 1.0
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    student: NetworkDef = NetworkDef(hidden=(16,))
    teacher: NetworkDef = NetworkDef(hidden=(64, 64))
    third: NetworkDef | None = None  # second student (1t2s) or second teacher (2t1s)
    lr_milestones: tuple[int, ...] = ()
    lr_gamma: float = 0.1
    teacher_checkpoint: str | None = None
    image_shape: tuple[int, int, int] | None = None
    augment: bool = False

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy: unknown value {self.strategy!r}, expected one of {STRATEGIES}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"topology: unknown value {self.topology!r}, expected one of {TOPOLOGIES}")
        if self.topology != "pair" and self.strategy != "switch":
            raise ConfigError("topology: triples require strategy=switch; baselines run pairwise")
        if self.topology != "pair" and self.third is None:
            raise ConfigError("topology: triples need a third network definition")
        if self.strategy == "kd-offline" and not self.teacher_checkpoint:
            raise ConfigError("teacher_checkpoint: required for strategy=kd-offline")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha/beta: must be non-negative")
        if self.tau <= 0:
            raise ConfigError("tau: must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs: must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size: must be >= 1")
        if self.augment and self.image_shape is None:
            raise ConfigError("augment: requires image_shape")
        if self.lr_gamma <= 0:
            raise ConfigError("lr_gamma: must be positive")

    def network_names(self) -> tuple[str, ...]:
        if self.topology == "pair":
            return ("student", "teacher")
        if self.topology == "1t2s":
            return ("student", "teacher", "student2")
        return ("student", "teacher", "teacher2")

    def pair_names(self) -> tuple[str, ...]:
        if self.topology == "pair":
            return ("teacher_student",)
        if self.topology == "1t2s":
            return ("teacher_student", "teacher_student2")
        return ("teacher_student", "teacher2_student")


@dataclass
class ModeTimeline:
    """Ordered per-iteration gap states plus switch statistics."""

    states: list[GapState] = field(default_factory=list)

    def append(self, state: GapState) -> None:
        if self.states and state.iteration <= self.states[-1].iteration:
            raise DomainError("timeline iterations must be strictly increasing")
        self.states.append(state)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def switch_count(self) -> int:
        return sum(
            1 for a, b in zip(self.states, self.states[1:]) if a.mode != b.mode
        )

    def counts(self) -> dict[str, int]:
        out = {LEARNING: 0, EXPERT: 0}
        for s in self.states:
            out[s.mode] += 1
        return out

    def fractions(self) -> dict[str, float]:
        n = max(len(self.states), 1)
        return {mode: c / n for mode, c in self.counts().items()}

    def summary(self) -> dict:
        return {
            "iterations": len(self.states),
            "switch_count": self.switch_count,
            "counts": self.counts(),
            "fractions": self.fractions(),
        }


@dataclass
class PairState:
    student: NetworkParams
    student_opt: OptimizerState
    teacher: NetworkParams
    teacher_opt: OptimizerState
    mode: str
    timeline: ModeTimeline


@dataclass
class TrainResult:
    config: TrainConfig
    networks: dict[str, NetworkParams]
    opts: dict[str, OptimizerState]
    timelines: dict[str, ModeTimeline]
    iteration_log: dict[str, list[dict]]
    epoch_log: list[dict]

    def final_accuracy(self, name: str) -> float:
        return self.epoch_log[-1][f"{name}_acc"]

    def best_accuracy(self, name: str) -> float:
        return max(row[f"{name}_acc"] for row in self.epoch_log)

    def pair_state(self) -> PairState:
        if self.config.topology != "pair":
            raise DomainError("pair_state is defined for the pair topology only")
        timeline = self.timelines[self.config.pair_names()[0]]
        return PairState(
            student=self.networks["student"],
            student_opt=self.opts["student"],
            teacher=self.networks["teacher"],
            teacher_opt=self.opts["teacher"],
            mode=timeline.states[-1].mode if timeline.states else LEARNING,
            timeline=timeline,
        )


def scheduled_lr(base_lr: float, epoch: int, milestones: tuple[int, ...], gamma: float) -> float:
    """Step decay: multiply by gamma at each milestone epoch."""
    passed = sum(1 for m in milestones if epoch >= m)
    return base_lr * (gamma**passed)


def evaluate(net: NetworkParams, ds: Dataset, chunk: int = 2048) -> float:
    """Top-1 accuracy under the argmax of the unit-temperature softmax."""
    if len(ds) == 0:
        raise DomainError("cannot evaluate on an empty dataset")
    hits = 0
    for start in range(0, len(ds), chunk):
        logits = forward(net, ds.features[start : start + chunk])
        hits += int(np.sum(np.argmax(logits, axis=1) == ds.labels[start : start + chunk]))
    return hits / len(ds)


def build_network(defn: NetworkDef, in_dim: int, num_classes: int, seed: int, role: int, image_shape=None) -> NetworkParams:
    """Instantiate one network; the init stream is keyed by (seed, role)."""
    if defn.conv_channels:
        if image_shape is None:
            raise ConfigError("conv_channels: conv layers require image-shaped data")
        layers = conv_mlp(image_shape, defn.conv_channels, defn.hidden, num_classes)
    else:
        layers = mlp(in_dim, defn.hidden, num_classes)
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, role]))
    return init_params(layers, rng)


def _make_opt(net: NetworkParams, settings: OptimizerSettings) -> OptimizerState:
    return init_optimizer(
        net,
        kind=settings.kind,
        lr=settings.lr,
        momentum=settings.momentum,
        weight_decay=settings.weight_decay,
    )


def _softened(z: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    return soften(z, 1.0), soften(z, tau)


def _mutual_grads(ps1, pstau, pt1, pttau, y1h, alpha, beta, tau):
    """Reciprocal-update logit gradients for both networks."""
    gs = student_logit_grad(pttau, ps1, pstau, y1h, alpha, tau)
    gt = teacher_logit_grad(pt1, pttau, pstau, y1h, beta, tau)
    return gs, gt


def _check_finite_loss(iteration: int, *values: float) -> None:
    for v in values:
        if not np.isfinite(v):
            raise NumericError(f"non-finite loss at iteration {iteration}")


def _pair_record(state: GapState, pstau, pttau, y1h, components: dict) -> dict:
    rec = state.to_record()
    rec.update(components)
    rec["student_err_l1"] = float(np.mean(np.abs(pstau - y1h).sum(axis=-1)))
    rec["teacher_err_l1"] = float(np.mean(np.abs(pttau - y1h).sum(axis=-1)))
    return rec


def _mutual_components(student_ce: float, teacher_ce: float, pstau, pttau) -> dict:
    """Pair-local CE and two-way KL values (the reciprocal objective's pieces)."""
    return {
        "student_ce": student_ce,
        "student_kl": float(np.mean(kl_loss(pttau, pstau))),
        "teacher_ce": teacher_ce,
        "teacher_kl": float(np.mean(kl_loss(pstau, pttau))),
    }


def train_pair(
    cfg: TrainConfig,
    train_ds: Dataset,
    test_ds: Dataset,
    mode_hook: ModeHook | None = None,
    inspect: InspectHook | None = None,
    initial: dict[str, NetworkParams] | None = None,
) -> TrainResult:
    """Train a teacher/student pair under any strategy.

    ``mode_hook`` (iteration, pair_name, computed_state) -> mode lets tests
    pin or force the switching decision; ``initial`` injects pre-built
    networks in place of the seeded initialization.
    """
    cfg.validate()
    if cfg.topology != "pair":
        raise ConfigError("train_pair handles topology=pair only")
    if len(train_ds) == 0:
        raise DomainError("training data is empty")
    k = train_ds.num_classes
    in_dim = train_ds.dims

    initial = initial or {}
    student = initial.get("student") or build_network(cfg.student, in_dim, k, cfg.seed, 0, cfg.image_shape)
    if cfg.strategy == "kd-offline":
        teacher = initial.get("teacher") or load_checkpoint(cfg.teacher_checkpoint)
    else:
        teacher = initial.get("teacher") or build_network(cfg.teacher, in_dim, k, cfg.seed, 1, cfg.image_shape)
    sopt = _make_opt(student, cfg.student.opt)
    topt = _make_opt(teacher, cfg.teacher.opt)

    pair_name = cfg.pair_names()[0]
    timeline = ModeTimeline()
    iter_log: list[dict] = []
    epoch_log: list[dict] = []
    aug_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, 0xA06]))
    iteration = 0

    for epoch in range(cfg.epochs):
        sopt = sopt.with_lr(scheduled_lr(cfg.student.opt.lr, epoch, cfg.lr_milestones, cfg.lr_gamma))
        topt = topt.with_lr(scheduled_lr(cfg.teacher.opt.lr, epoch, cfg.lr_milestones, cfg.lr_gamma))
        for x, labels in batches(train_ds, cfg.batch_size, cfg.seed, epoch):
            if cfg.augment:
                x = augment_flip_crop(x, cfg.image_shape, aug_rng)
            y1h = one_hot(labels, k)
            zs, cache_s = forward_with_cache(student, x)
            zt, cache_t = forward_with_cache(teacher, x)
            ps1, pstau = _softened(zs, cfg.tau)
            pt1, pttau = _softened(zt, cfg.tau)
            totals = _strategy_totals(cfg, y1h, ps1, pstau, pt1, pttau)
            _check_finite_loss(iteration, totals["student_loss"], totals["teacher_loss"])
            state = batch_gap_state(pstau, pttau, y1h, iteration)

            teacher_grad = None
            if cfg.strategy == "switch":
                mode = state.mode
                if mode_hook is not None:
                    mode = mode_hook(iteration, pair_name, state)
                if mode == LEARNING:
                    gs, gt = _mutual_grads(ps1, pstau, pt1, pttau, y1h, cfg.alpha, cfg.beta, cfg.tau)
                else:
                    gs = student_logit_grad(pttau, ps1, pstau, y1h, cfg.alpha, cfg.tau)
                    gt = None
            elif cfg.strategy == "dml":
                mode = LEARNING
                gs, gt = _mutual_grads(ps1, pstau, pt1, pttau, y1h, cfg.alpha, cfg.beta, cfg.tau)
            elif cfg.strategy == "vanilla":
                mode = LEARNING
                gs = ps1 - y1h
                gt = pt1 - y1h
            elif cfg.strategy == "kd-offline":
                mode = LEARNING
                gs = kd_logit_grad(ps1, pstau, pttau, y1h, cfg.alpha, cfg.tau)
                gt = None
            else:  # kdcl
                mode = LEARNING
                pm = ensemble_target(pstau, pttau)
                gs = kdcl_logit_grad(ps1, pstau, pm, y1h, cfg.tau)
                gt = kdcl_logit_grad(pt1, pttau, pm, y1h, cfg.tau)

            grads_s = backward_from_cache(student, cache_s, gs)
            student, sopt = step(student, grads_s, sopt)
            if gt is not None:
                teacher_grad = gt
                grads_t = backward_from_cache(teacher, cache_t, gt)
                teacher, topt = step(teacher, grads_t, topt)
            del cache_s, cache_t  # patch matrices are not needed past backward, nor during evaluation

            logged = replace(state, mode=mode)
            timeline.append(logged)
            iter_log.append(_pair_record(logged, pstau, pttau, y1h, totals))
            if inspect is not None:
                inspect(
                    iteration,
                    {
                        "mode": mode,
                        "state": state,
                        "student": student,
                        "teacher": teacher,
                        "student_opt": sopt,
                        "teacher_opt": topt,
                        "student_grad": gs,
                        "teacher_grad": teacher_grad,
                        "p_s_1": ps1,
                        "p_s_tau": pstau,
                        "p_t_1": pt1,
                        "p_t_tau": pttau,
                        "y": y1h,
                    },
                )
            iteration += 1
        epoch_log.append(
            {
                "epoch": epoch,
                "student_acc": evaluate(student, test_ds),
                "teacher_acc": evaluate(teacher, test_ds),
            }
        )

    return TrainResult(
        config=cfg,
        networks={"student": student, "teacher": teacher},
        opts={"student": sopt, "teacher": topt},
        timelines={pair_name: timeline},
        iteration_log={pair_name: iter_log},
        epoch_log=epoch_log,
    )


def _strategy_totals(cfg: TrainConfig, y1h, ps1, pstau, pt1, pttau) -> dict:
    """CE/KL components and totals exactly as each strategy's objective defines them."""
    tau2 = cfg.tau * cfg.tau
    s_ce = float(np.mean(ce_loss(y1h, ps1)))
    t_ce = float(np.mean(ce_loss(y1h, pt1)))
    out = {"student_ce": s_ce, "teacher_ce": t_ce}
    if cfg.strategy == "vanilla":
        out.update(student_kl=0.0, teacher_kl=0.0, student_loss=s_ce, teacher_loss=t_ce)
    elif cfg.strategy == "kd-offline":
        s_kl = float(np.mean(kl_loss(pttau, pstau)))
        out.update(
            student_kl=s_kl,
            teacher_kl=0.0,
            student_loss=cfg.alpha * s_ce + (1.0 - cfg.alpha) * tau2 * s_kl,
            teacher_loss=t_ce,
        )
    elif cfg.strategy == "kdcl":
        pm = ensemble_target(pstau, pttau)
        s_kl = float(np.mean(kl_loss(pm, pstau)))
        t_kl = float(np.mean(kl_loss(pm, pttau)))
        out.update(
            student_kl=s_kl,
            teacher_kl=t_kl,
            student_loss=s_ce + tau2 * s_kl,
            teacher_loss=t_ce + tau2 * t_kl,
        )
    else:  # dml and switch share the reciprocal objective
        s_kl = float(np.mean(kl_loss(pttau, pstau)))
        t_kl = float(np.mean(kl_loss(pstau, pttau)))
        out.update(
            student_kl=s_kl,
            teacher_kl=t_kl,
            student_loss=s_ce + cfg.alpha * tau2 * s_kl,
            teacher_loss=t_ce + cfg.beta * tau2 * t_kl,
        )
    return out


def train_multi(
    cfg: TrainConfig,
    train_ds: Dataset,
    test_ds: Dataset,
    mode_hook: ModeHook | None = None,
    inspect: InspectHook | None = None,
    initial: dict[str, NetworkParams] | None = None,
) -> TrainResult:
    """Three-network training: one teacher with two students, or two teachers
    with one student.

    Each teacher-student pair runs the switching rule independently; peer
    networks (the two students, or the two teachers) exchange a conventional
    two-way KL term every iteration. In the one-teacher topology the teacher
    steps only while at least one pair is in learning mode, and its gradient
    carries KL terms from learning-mode pairs only. In the two-teacher
    topology a teacher whose pair is in expert mode is fully frozen for the
    iteration, peer term included.
    """
    cfg.validate()
    if cfg.topology not in ("1t2s", "2t1s"):
        raise ConfigError("train_multi handles topologies 1t2s and 2t1s")
    if len(train_ds) == 0:
        raise DomainError("training data is empty")
    k = train_ds.num_classes
    in_dim = train_ds.dims
    names = cfg.network_names()
    pair_names = cfg.pair_names()
    defs = {
        "student": cfg.student,
        "teacher": cfg.teacher,
        ("student2" if cfg.topology == "1t2s" else "teacher2"): cfg.third,
    }
    initial = initial or {}
    nets = {
        name: initial.get(name) or build_network(defs[name], in_dim, k, cfg.seed, role, cfg.image_shape)
        for role, name in enumerate(names)
    }
    opts = {name: _make_opt(nets[name], defs[name].opt) for name in names}

    timelines = {p: ModeTimeline() for p in pair_names}
    iter_log: dict[str, list[dict]] = {p: [] for p in pair_names}
    epoch_log: list[dict] = []
    aug_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, 0xA06]))
    iteration = 0
    tau = cfg.tau

    for epoch in range(cfg.epochs):
        for name in names:
            opts[name] = opts[name].with_lr(
                scheduled_lr(defs[name].opt.lr, epoch, cfg.lr_milestones, cfg.lr_gamma)
            )
        for x, labels in batches(train_ds, cfg.batch_size, cfg.seed, epoch):
            if cfg.augment:
                x = augment_flip_crop(x, cfg.image_shape, aug_rng)
            y1h = one_hot(labels, k)
            caches: dict[str, list] = {}
            p1: dict[str, np.ndarray] = {}
            ptau: dict[str, np.ndarray] = {}
            ce: dict[str, float] = {}
            for name in names:
                z, caches[name] = forward_with_cache(nets[name], x)
                p1[name], ptau[name] = _softened(z, tau)
                ce[name] = float(np.mean(ce_loss(y1h, p1[name])))
                _check_finite_loss(iteration, ce[name])

            if cfg.topology == "1t2s":
                pairs = {"teacher_student": "student", "teacher_student2": "student2"}
                states = {
                    p: batch_gap_state(ptau[s], ptau["teacher"], y1h, iteration)
                    for p, s in pairs.items()
                }
                modes = {
                    p: (mode_hook(iteration, p, st) if mode_hook else st.mode)
                    for p, st in states.items()
                }
                # students: distillation from the teacher plus a two-way peer term
                grads_logit = {}
                for p, s in pairs.items():
                    peer = "student2" if s == "student" else "student"
                    grads_logit[s] = (
                        student_logit_grad(ptau["teacher"], p1[s], ptau[s], y1h, cfg.alpha, tau)
                        + PEER_KL_COEFF * tau * (ptau[s] - ptau[peer])
                    )
                learning_students = [pairs[p] for p in pair_names if modes[p] == LEARNING]
                teacher_grad = None
                if learning_students:
                    teacher_grad = p1["teacher"] - y1h
                    for s in learning_students:
                        teacher_grad = teacher_grad + cfg.beta * tau * (ptau["teacher"] - ptau[s])
                    grads_logit["teacher"] = teacher_grad
            else:  # 2t1s
                pairs = {"teacher_student": "teacher", "teacher2_student": "teacher2"}
                states = {
                    p: batch_gap_state(ptau["student"], ptau[t], y1h, iteration)
                    for p, t in pairs.items()
                }
                modes = {
                    p: (mode_hook(iteration, p, st) if mode_hook else st.mode)
                    for p, st in states.items()
                }
                gs = p1["student"] - y1h
                for t in ("teacher", "teacher2"):
                    gs = gs + cfg.alpha * tau * (ptau["student"] - ptau[t])
                grads_logit = {"student": gs}
                teacher_grad = None
                for p, t in pairs.items():
                    if modes[p] == LEARNING:
                        peer = "teacher2" if t == "teacher" else "teacher"
                        g = (
                            teacher_logit_grad(p1[t], ptau[t], ptau["student"], y1h, cfg.beta, tau)
                            + PEER_KL_COEFF * tau * (ptau[t] - ptau[peer])
                        )
                        grads_logit[t] = g
                        if t == "teacher":
                            teacher_grad = g

            pair_records = {}
            for p in pair_names:
                other = pairs[p]
                if cfg.topology == "1t2s":
                    s_name, t_name = other, "teacher"
                else:
                    s_name, t_name = "student", other
                logged = replace(states[p], mode=modes[p])
                components = _mutual_components(ce[s_name], ce[t_name], ptau[s_name], ptau[t_name])
                pair_records[p] = (logged, _pair_record(logged, ptau[s_name], ptau[t_name], y1h, components))

            for name in names:
                if name in grads_logit:
                    grads = backward_from_cache(nets[name], caches[name], grads_logit[name])
                    nets[name], opts[name] = step(nets[name], grads, opts[name])
            del caches  # patch matrices are not needed past backward, nor during evaluation

            for p in pair_names:
                logged, rec = pair_records[p]
                timelines[p].append(logged)
                iter_log[p].append(rec)

            if inspect is not None:
                inspect(
                    iteration,
                    {
                        "modes": dict(modes),
                        "states": dict(states),
                        "networks": dict(nets),
                        "opts": dict(opts),
                        "logit_grads": dict(grads_logit),
                        "teacher_grad": teacher_grad,
                        "p_1": dict(p1),
                        "p_tau": dict(ptau),
                        "y": y1h,
                    },
                )
            iteration += 1
        row = {"epoch": epoch}
        for name in names:
            row[f"{name}_acc"] = evaluate(nets[name], test_ds)
        epoch_log.append(row)

    return TrainResult(
        config=cfg,
        networks=nets,
        opts=opts,
        timelines=timelines,
        iteration_log=iter_log,
        epoch_log=epoch_log,
    )


def run_training(
    cfg: TrainConfig,
    train_ds: Dataset,
    test_ds: Dataset,
    mode_hook: ModeHook | None = None,
    inspect: InspectHook | None = None,
    initial: dict[str, NetworkParams] | None = None,
) -> TrainResult:
    """Dispatch on topology."""
    cfg.validate()
    if cfg.topology == "pair":
        return train_pair(cfg, train_ds, test_ds, mode_hook, inspect, initial)
    return train_multi(cfg, train_ds, test_ds, mode_hook, inspect, initial)
