"""Training: one iteration engine for every strategy and topology.

A topology is a set of networks, the (teacher, student) pairs that each run
the switching rule, and peer edges; a pair is the one-pair case. A strategy
is one objective per role. Each iteration forwards every network, computes
each pair's gap state, folds every stepping network's logit gradient from
its objective terms, backpropagates, and steps. Students always step; a
teacher steps iff at least one of its pairs is learning, and only those
pairs' KL terms enter its gradient. Pinning the switching rule to "learning"
therefore reproduces mutual learning bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .checkpoint import load_checkpoint
from .datasets import Dataset, augment_flip_crop, batches
from .errors import ConfigError, DomainError, NumericError
from .gap import EXPERT, LEARNING, GapState, batch_gap_state
from .losses import (  # the closed-form gradients stay importable here: perfbench/tracer.py wraps them
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
from .optim import OPTIMIZERS, OptimizerState, init_optimizer, step

STRATEGIES = ("vanilla", "kd-offline", "dml", "kdcl", "switch")
STUDENT, TEACHER = "student", "teacher"
PARTNER, ENSEMBLE = "partner", "ensemble"  # KL targets: the pair partner's p^tau, or the pair's mean

PEER_KL_COEFF = 1.0  # weight of the two-way KL between peer networks in triples


class Topology(NamedTuple):
    names: tuple[str, ...]  # in the role order that keys each network's seeded init
    pairs: tuple[tuple[str, str], ...]  # (teacher, student), in pair order
    peers: tuple[tuple[str, str], ...]  # networks exchanging a two-way KL term every iteration


TOPOLOGY_TABLE = {
    "pair": Topology(("student", "teacher"), (("teacher", "student"),), ()),
    "1t2s": Topology(
        ("student", "teacher", "student2"),
        (("teacher", "student"), ("teacher", "student2")),
        (("student", "student2"),),
    ),
    "2t1s": Topology(
        ("student", "teacher", "teacher2"),
        (("teacher", "student"), ("teacher2", "student")),
        (("teacher", "teacher2"),),
    ),
}
TOPOLOGIES = tuple(TOPOLOGY_TABLE)


class Objective(NamedTuple):
    ce: float  # weight of CE(y, p^1)
    kl: float | None  # weight of tau^2 * KL(target || p^tau); None: no KL term
    target: str | None  # PARTNER or ENSEMBLE


def objectives(strategy: str, alpha: float, beta: float) -> dict[str, Objective | None]:
    """Each role's objective in one pair; None marks the pre-trained kd-offline teacher, which never steps."""
    reciprocal = {STUDENT: Objective(1.0, alpha, PARTNER), TEACHER: Objective(1.0, beta, PARTNER)}
    return {
        "vanilla": {STUDENT: Objective(1.0, None, None), TEACHER: Objective(1.0, None, None)},
        "kd-offline": {STUDENT: Objective(alpha, 1.0 - alpha, PARTNER), TEACHER: None},
        "dml": reciprocal,
        "switch": reciprocal,
        "kdcl": {STUDENT: Objective(1.0, 1.0, ENSEMBLE), TEACHER: Objective(1.0, 1.0, ENSEMBLE)},
    }[strategy]


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
        nets = {"student": self.student, "teacher": self.teacher, "third": self.third}
        opts = {name: defn.opt for name, defn in nets.items() if defn is not None}
        numbers = {"alpha": self.alpha, "beta": self.beta, "tau": self.tau, "lr.gamma": self.lr_gamma}
        for name, opt in opts.items():
            numbers.update({f"{name}.{key}": getattr(opt, key) for key in ("lr", "momentum", "weight_decay")})
        for key, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
            if key.endswith((".lr", ".weight_decay")) and value < 0:
                raise ConfigError(f"{key}: must be non-negative, got {value}")
        for name, opt in opts.items():
            if opt.kind not in OPTIMIZERS:
                raise ConfigError(f"{name}.optimizer: unknown value {opt.kind!r}, expected one of {OPTIMIZERS}")
            if not 0.0 <= opt.momentum < 1.0:
                raise ConfigError(f"{name}.momentum: must be in [0, 1), got {opt.momentum}")
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
        return TOPOLOGY_TABLE[self.topology].names

    def pair_names(self) -> tuple[str, ...]:
        return tuple(f"{t}_{s}" for t, s in TOPOLOGY_TABLE[self.topology].pairs)


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


def scheduled_lr(base_lr: float, epoch: int, milestones: tuple[int, ...], gamma: float) -> float:
    """Step decay: multiply by gamma at each milestone epoch."""
    passed = sum(1 for m in milestones if epoch >= m)
    return base_lr * (gamma**passed)


def evaluate(net: NetworkParams, ds: Dataset, chunk: int = 64) -> float:
    """Top-1 accuracy under the argmax of the unit-temperature softmax.

    Rows go through the network ``chunk`` at a time, so the conv layers'
    patch matrices and pre-activations are sized by the chunk, not the set.
    """
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


def _load_teacher(path: str, in_dim: int, num_classes: int) -> NetworkParams:
    """The kd-offline teacher checkpoint, refused unless it maps the data's features to its classes."""
    net = load_checkpoint(path)
    if (net.layers[0].in_features, net.out_features) != (in_dim, num_classes):
        raise ConfigError(
            f"kd.teacher_checkpoint: {path} maps {net.layers[0].in_features} input features to "
            f"{net.out_features} classes, but the data has {in_dim} features and {num_classes} classes"
        )
    return net


def pair_targets(table: dict, teacher: str, student: str, ptau: dict) -> dict[str, np.ndarray]:
    """role -> the distribution its KL term in this pair pulls toward; roles without one are absent."""
    out = {}
    for role, other in ((STUDENT, teacher), (TEACHER, student)):
        obj = table[role]
        if obj is not None and obj.kl is not None:
            out[role] = ensemble_target(ptau[student], ptau[teacher]) if obj.target == ENSEMBLE else ptau[other]
    return out


def stepping_terms(table: dict, topo: Topology, modes, targets, ptau: dict) -> dict[str, tuple[float, list]]:
    """Networks that step this iteration -> (CE weight, [(KL weight, target)]).

    Pair terms come in pair order, then peer terms. A teacher's pair term
    counts only while that pair is learning.
    """
    out: dict[str, tuple[float, list]] = {}
    for (t, s), mode, tg in zip(topo.pairs, modes, targets):
        for role, net in ((STUDENT, s), (TEACHER, t)):
            obj = table[role]
            if obj is None or (role == TEACHER and mode != LEARNING):
                continue
            terms = out.setdefault(net, (obj.ce, []))[1]
            if role in tg:
                terms.append((obj.kl, tg[role]))
    for a, b in topo.peers:
        for net, other in ((a, b), (b, a)):
            if net in out:
                out[net][1].append((PEER_KL_COEFF, ptau[other]))
    return out


def logit_grad(w_ce: float, terms, p1, ptau, y, tau: float) -> np.ndarray:
    """w_ce * (p^1 - y), plus w * tau * (p^tau - q) for each (w, q) term in order."""
    g = w_ce * (p1 - y)
    for w, q in terms:
        g = g + w * tau * (ptau - q)
    return g


def objective_value(w_ce: float, ce: float, kls, tau: float) -> float:
    """w_ce * CE + w * tau^2 * KL for each (w, KL value) term in order."""
    total = w_ce * ce
    for w, kl in kls:
        total = total + w * (tau * tau) * kl
    return total


def _pair_components(table: dict, pair: tuple[str, str], tg: dict, ce: dict, ptau: dict, tau: float) -> dict:
    """(role, quantity) -> the pair's CE, KL and objective value per role."""
    out = {}
    for role, net in zip((TEACHER, STUDENT), pair):
        w_ce, w_kl, _ = table[role] or Objective(1.0, None, None)
        kl = float(np.mean(kl_loss(tg[role], ptau[net]))) if role in tg else 0.0
        out[role, "ce"], out[role, "kl"] = ce[net], kl
        out[role, "loss"] = objective_value(w_ce, ce[net], [(w_kl, kl)] if role in tg else [], tau)
    return out


def run_training(
    cfg: TrainConfig,
    train_ds: Dataset,
    test_ds: Dataset,
    mode_hook: ModeHook | None = None,
    inspect: InspectHook | None = None,
    initial: dict[str, NetworkParams] | None = None,
) -> TrainResult:
    """Train every network of the configured topology under its strategy.

    ``mode_hook`` (iteration, pair_name, computed_state) -> mode lets tests
    pin or force the switching decision; ``inspect`` (iteration, payload)
    sees each iteration after the steps; ``initial`` injects pre-built
    networks in place of the seeded initialization.
    """
    cfg.validate()
    if len(train_ds) == 0:
        raise DomainError("training data is empty")
    k = train_ds.num_classes
    topo = TOPOLOGY_TABLE[cfg.topology]
    names, pair_names = topo.names, cfg.pair_names()
    table = objectives(cfg.strategy, cfg.alpha, cfg.beta)
    defs = dict(zip(names, (cfg.student, cfg.teacher, cfg.third)))
    initial = initial or {}
    nets = {
        name: initial.get(name)
        or (
            _load_teacher(cfg.teacher_checkpoint, train_ds.dims, k)
            if name == TEACHER and cfg.strategy == "kd-offline"
            else build_network(defs[name], train_ds.dims, k, cfg.seed, role, cfg.image_shape)
        )
        for role, name in enumerate(names)
    }
    opts = {name: init_optimizer(nets[name], **asdict(defs[name].opt)) for name in names}

    timelines = {p: ModeTimeline() for p in pair_names}
    iter_log: dict[str, list[dict]] = {p: [] for p in pair_names}
    epoch_log: list[dict] = []
    accuracy: dict[str, float] = {}
    # each file keeps its record layout (pair files also log each role's objective
    # value); the key strings are built once so that every record shares them
    log_keys = (
        [(f"{r}_{q}", r, q) for q in ("ce", "kl", "loss") for r in (STUDENT, TEACHER)]
        if cfg.topology == "pair"
        else [(f"{r}_{q}", r, q) for r in (STUDENT, TEACHER) for q in ("ce", "kl")]
    )
    aug_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, 0xA06]))
    iteration = 0
    tau = cfg.tau

    for epoch in range(cfg.epochs):
        for name in names:
            opts[name] = replace(opts[name], lr=scheduled_lr(defs[name].opt.lr, epoch, cfg.lr_milestones, cfg.lr_gamma))
        stepped: set[str] = set()
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
                p1[name], ptau[name] = soften(z, 1.0), soften(z, tau)
                ce[name] = float(np.mean(ce_loss(y1h, p1[name])))
            targets = [pair_targets(table, t, s, ptau) for t, s in topo.pairs]
            components = [_pair_components(table, pr, tg, ce, ptau, tau) for pr, tg in zip(topo.pairs, targets)]
            totals = [c[r, "loss"] for c in components for r in (STUDENT, TEACHER)]
            if not all(map(math.isfinite, [*ce.values(), *totals])):
                raise NumericError(f"non-finite loss at iteration {iteration}")

            states = [batch_gap_state(ptau[s], ptau[t], y1h, iteration) for t, s in topo.pairs]
            modes = [
                (mode_hook(iteration, p, st) if mode_hook else st.mode) if cfg.strategy == "switch" else LEARNING
                for p, st in zip(pair_names, states)
            ]

            grads_logit = {
                name: logit_grad(w_ce, terms, p1[name], ptau[name], y1h, tau)
                for name, (w_ce, terms) in stepping_terms(table, topo, modes, targets, ptau).items()
            }
            for name in names:
                if name in grads_logit:
                    grads = backward_from_cache(nets[name], caches[name], grads_logit[name])
                    nets[name], opts[name] = step(nets[name], grads, opts[name])
                    stepped.add(name)
            del caches  # patch matrices are not needed past backward, nor during evaluation

            for p, (t, s), state, mode, comp in zip(pair_names, topo.pairs, states, modes, components):
                logged = replace(state, mode=mode)
                timelines[p].append(logged)
                rec = logged.to_record()
                rec.update({key: comp[r, q] for key, r, q in log_keys})
                rec["student_err_l1"] = float(np.mean(np.abs(ptau[s] - y1h).sum(axis=-1)))
                rec["teacher_err_l1"] = float(np.mean(np.abs(ptau[t] - y1h).sum(axis=-1)))
                iter_log[p].append(rec)

            if inspect is not None:
                inspect(
                    iteration,
                    {
                        "mode": modes[0],
                        "modes": dict(zip(pair_names, modes)),
                        "states": dict(zip(pair_names, states)),
                        "teacher": nets[TEACHER],
                        "teacher_opt": opts[TEACHER],
                        "networks": dict(nets),
                        "opts": dict(opts),
                        "logit_grads": grads_logit,
                        "teacher_grad": grads_logit.get(TEACHER),
                        "p_1": p1,
                        "p_tau": ptau,
                        "y": y1h,
                    },
                )
            iteration += 1
        for name in names:  # a network that did not step is unchanged since its last evaluation
            if name in stepped or name not in accuracy:
                accuracy[name] = evaluate(nets[name], test_ds)
        epoch_log.append({"epoch": epoch, **{f"{name}_acc": accuracy[name] for name in names}})

    return TrainResult(
        config=cfg,
        networks=nets,
        opts=opts,
        timelines=timelines,
        iteration_log=iter_log,
        epoch_log=epoch_log,
    )


train_pair = train_multi = run_training
