"""Training: one iteration engine for every strategy and topology.

A topology is a set of networks, the (teacher, student) pairs that each run
the switching rule, and peer edges; a pair is the one-pair case. A strategy
is one objective per role of a pair, written once in ``pair_terms``. Each
iteration forwards every network, computes each pair's gap state, folds
every stepping network's logit gradient from its objective terms,
backpropagates, and steps. Students always step; a teacher steps iff at
least one of its pairs is learning, and only those pairs' KL terms enter
its gradient. Pinning the switching rule to "learning" therefore
reproduces mutual learning bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .datasets import Dataset, augment_flip_crop, batches
from .errors import ConfigError, DomainError, NumericError, ShapeError
from .gap import LEARNING, GapState, batch_gap_state
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
from .network import NetworkParams, backward_from_cache, conv_mlp, forward_with_cache, init_params, mlp
from .optim import OptimizerSettings, OptimizerState, init_optimizer, step

STRATEGIES = ("vanilla", "kd-offline", "dml", "kdcl", "switch")
STUDENT, TEACHER = "student", "teacher"

IMAGE_KEYS = ("data.channels", "data.height", "data.width")  # the config keys of image_shape, in its order
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


ModeHook = Callable[[int, str, GapState], str]
InspectHook = Callable[[int, dict], None]


@dataclass(frozen=True)
class NetworkDef:
    """Architecture and optimizer knobs for one network."""

    hidden: tuple[int, ...] = (16,)
    conv_channels: tuple[int, ...] = ()
    opt: OptimizerSettings = OptimizerSettings()


@dataclass(frozen=True)
class TrainConfig:
    """One run's training settings; a bad value is refused on construction, naming its config key."""

    strategy: str = "switch"
    topology: str = "pair"
    alpha: float = 1.0
    beta: float = 1.0
    tau: float = 1.0
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    student: NetworkDef = NetworkDef()
    teacher: NetworkDef = NetworkDef(hidden=(256, 256), opt=OptimizerSettings(lr=0.02))
    third: NetworkDef | None = None  # second student (1t2s) or second teacher (2t1s)
    lr_milestones: tuple[int, ...] = ()
    lr_gamma: float = 0.1
    image_shape: tuple[int, int, int] | None = None
    augment: bool = False

    def __post_init__(self) -> None:
        nets = {"student": self.student, "teacher": self.teacher, "third": self.third}
        nets = {name: defn for name, defn in nets.items() if defn is not None}
        numbers = {"alpha": self.alpha, "beta": self.beta, "tau": self.tau, "lr.gamma": self.lr_gamma}
        for key, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
            if key in ("alpha", "beta") and value < 0:
                raise ConfigError(f"{key}: must be non-negative, got {value}")
            if key in ("tau", "lr.gamma") and value <= 0:
                raise ConfigError(f"{key}: must be positive, got {value}")
        least = {"epochs": (1, self.epochs), "batch_size": (1, self.batch_size), "seed": (0, self.seed),
                 "lr.milestones": (0, self.lr_milestones)}  # key -> (least, value or list)
        least.update({key: (1, size) for key, size in zip(IMAGE_KEYS, self.image_shape or ())})
        for name, defn in nets.items():
            least.update({f"{name}.hidden": (1, defn.hidden), f"{name}.conv": (1, defn.conv_channels)})
        for key, (low, value) in least.items():
            entries = value if isinstance(value, tuple) else (value,)
            if any(entry < low for entry in entries):
                every = " in every entry" if isinstance(value, tuple) else ""
                raise ConfigError(f"{key}: must be >= {low}{every}, got {','.join(map(str, entries))}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy: unknown value {self.strategy!r}, expected one of {STRATEGIES}")
        if self.strategy == "kd-offline" and self.alpha > 1:  # the student's KL weight is 1 - alpha
            raise ConfigError(f"alpha: must be <= 1 for strategy=kd-offline, got {self.alpha}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"topology: unknown value {self.topology!r}, expected one of {TOPOLOGIES}")
        if self.topology != "pair" and self.strategy != "switch":
            raise ConfigError("topology: triples require strategy=switch; baselines run pairwise")
        if self.topology != "pair" and self.third is None:
            raise ConfigError("topology: triples need a third network definition")
        shape_keys = f"image_shape ({', '.join(IMAGE_KEYS)})"
        if self.augment and self.image_shape is None:
            raise ConfigError(f"data.augment: requires {shape_keys}")
        for name, defn in nets.items():
            if defn.conv_channels:
                if self.image_shape is None:
                    raise ConfigError(f"{name}.conv: conv layers require {shape_keys}")
                try:
                    conv_mlp(self.image_shape, defn.conv_channels, (), 2)  # builds only the layer specs
                except ShapeError as exc:
                    shape = "x".join(map(str, self.image_shape))
                    raise ConfigError(f"{name}.conv: {exc} on image shape {shape}") from None

    def network_names(self) -> tuple[str, ...]:
        return TOPOLOGY_TABLE[self.topology].names

    def pair_names(self) -> tuple[str, ...]:
        return tuple(f"{t}_{s}" for t, s in TOPOLOGY_TABLE[self.topology].pairs)


@dataclass
class TrainResult:
    config: TrainConfig
    networks: dict[str, NetworkParams]
    opts: dict[str, OptimizerState]  # no entry for the kd-offline teacher, which never steps
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


def evaluate(net: NetworkParams, ds: Dataset, chunk: int = 64, workspace: dict | None = None) -> float:
    """Top-1 accuracy under the argmax of the unit-temperature softmax.

    Rows are scaled and go through the network ``chunk`` at a time, all
    through one workspace (``workspace``, or a new one), so the features and
    the conv layers' patch matrices and activations are sized by the chunk,
    not the set.
    """
    if len(ds) == 0:
        raise DomainError("cannot evaluate on an empty dataset")
    workspace = {} if workspace is None else workspace
    hits = 0
    for start in range(0, len(ds), chunk):
        logits, _ = forward_with_cache(net, ds.scale(ds.rows[start : start + chunk]), workspace)
        hits += int(np.sum(np.argmax(logits, axis=1) == ds.labels[start : start + chunk]))
    return hits / len(ds)


def build_network(defn: NetworkDef, in_dim: int, num_classes: int, seed: int, role: int, image_shape=None) -> NetworkParams:
    """Instantiate one network; the init stream is keyed by (seed, role)."""
    if defn.conv_channels:
        layers = conv_mlp(image_shape, defn.conv_channels, defn.hidden, num_classes)
    else:
        layers = mlp(in_dim, defn.hidden, num_classes)
    rng = np.random.default_rng(np.random.SeedSequence([seed, role]))
    return init_params(layers, rng)


def check_image_shape(cfg: TrainConfig, dims: int) -> None:
    """Raise ConfigError unless the configured image shape, if any, holds ``dims`` features."""
    if cfg.image_shape is not None and math.prod(cfg.image_shape) != dims:
        c, h, w = cfg.image_shape
        raise ConfigError(
            f"{', '.join(IMAGE_KEYS)}: image shape {c}x{h}x{w} holds {c * h * w} features, "
            f"but the data has {dims}"
        )


def pair_terms(cfg: TrainConfig, teacher: str, student: str, ptau: dict) -> dict[str, tuple[float, list]]:
    """role -> (CE weight, [(KL weight, target)]) for each role of this pair that trains under ``cfg.strategy``.

    This is the one definition of each strategy's objective. The pre-trained
    kd-offline teacher, which never steps, has no entry.
    """
    alpha, beta = cfg.alpha, cfg.beta
    if cfg.strategy == "vanilla":
        return {STUDENT: (1.0, []), TEACHER: (1.0, [])}
    if cfg.strategy == "kd-offline":
        return {STUDENT: (alpha, [(1.0 - alpha, ptau[teacher])])}
    if cfg.strategy == "kdcl":  # both roles learn from the pair's mean, taken once
        mean = ensemble_target(ptau[student], ptau[teacher])
        return {STUDENT: (1.0, [(1.0, mean)]), TEACHER: (1.0, [(1.0, mean)])}
    return {STUDENT: (1.0, [(alpha, ptau[teacher])]), TEACHER: (1.0, [(beta, ptau[student])])}  # dml, switch


def stepping_terms(topo: Topology, modes, per_pair, ptau: dict) -> dict[str, tuple[float, list]]:
    """Networks that step this iteration -> (CE weight, [(KL weight, target)]).

    Pair terms come in pair order, then peer terms. A teacher's pair term
    counts only while that pair is learning.
    """
    out: dict[str, tuple[float, list]] = {}
    for (t, s), mode, terms in zip(topo.pairs, modes, per_pair):
        for role, net in ((STUDENT, s), (TEACHER, t)):
            if role in terms and (role == STUDENT or mode == LEARNING):
                w_ce, kls = terms[role]
                out.setdefault(net, (w_ce, []))[1].extend(kls)
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


def _pair_components(pair: tuple[str, str], terms: dict, ce: dict, ptau: dict, tau: float) -> dict:
    """(role, quantity) -> the pair's CE, KL and objective value per role; a role without terms logs its CE."""
    out = {}
    for role, net in zip((TEACHER, STUDENT), pair):
        w_ce, targets = terms.get(role, (1.0, []))
        kls = [(w, float(np.mean(kl_loss(q, ptau[net])))) for w, q in targets]
        out[role, "ce"], out[role, "kl"] = ce[net], sum((kl for _, kl in kls), 0.0)
        out[role, "loss"] = objective_value(w_ce, ce[net], kls, tau)
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
    sees each iteration after the steps; ``initial`` injects copies of
    pre-built networks in place of the seeded initialization, and is the
    only source of the kd-offline teacher.
    """
    if len(train_ds) == 0:
        raise DomainError("training data is empty")
    if len(test_ds) == 0:
        raise DomainError("test data is empty")
    check_image_shape(cfg, train_ds.dims)
    k = train_ds.num_classes
    topo = TOPOLOGY_TABLE[cfg.topology]
    names, pair_names = topo.names, cfg.pair_names()
    defs = dict(zip(names, (cfg.student, cfg.teacher, cfg.third)))
    initial = {name: net.copy() for name, net in (initial or {}).items()}  # never train the caller's arrays
    offline = cfg.strategy == "kd-offline"  # its teacher is pre-trained and never steps
    if offline and TEACHER not in initial:
        raise ConfigError("kd.teacher_checkpoint: strategy=kd-offline needs its pre-trained teacher in initial")
    nets = {
        name: initial.get(name) or build_network(defs[name], train_ds.dims, k, cfg.seed, role, cfg.image_shape)
        for role, name in enumerate(names)
    }
    opts = {n: init_optimizer(nets[n], **asdict(defs[n].opt)) for n in names if not (offline and n == TEACHER)}
    grad_bufs = {name: nets[name].zeros_like() for name in opts}
    workspaces = {name: {} for name in names}  # each network's forward, backward and evaluate buffers

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
    aug_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA06]))
    iteration = 0
    tau = cfg.tau

    for epoch in range(cfg.epochs):
        for name in opts:
            opts[name].lr = scheduled_lr(defs[name].opt.lr, epoch, cfg.lr_milestones, cfg.lr_gamma)
        stepped: set[str] = set()
        for rows, labels in batches(train_ds, cfg.batch_size, cfg.seed, epoch):
            if cfg.augment:
                rows = augment_flip_crop(rows, cfg.image_shape, aug_rng)
            x = train_ds.scale(rows)
            y1h = one_hot(labels, k)
            caches: dict[str, list] = {}
            p1: dict[str, np.ndarray] = {}
            ptau: dict[str, np.ndarray] = {}
            ce: dict[str, float] = {}
            for name in names:
                z, caches[name] = forward_with_cache(nets[name], x, workspaces[name])
                p1[name], ptau[name] = soften(z, 1.0), soften(z, tau)
                ce[name] = float(np.mean(ce_loss(y1h, p1[name])))
            per_pair = [pair_terms(cfg, t, s, ptau) for t, s in topo.pairs]
            components = [_pair_components(pr, terms, ce, ptau, tau) for pr, terms in zip(topo.pairs, per_pair)]
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
                for name, (w_ce, terms) in stepping_terms(topo, modes, per_pair, ptau).items()
            }
            for name in names:
                if name in grads_logit:
                    grads = backward_from_cache(
                        nets[name], caches[name], grads_logit[name], grad_bufs[name], workspaces[name]
                    )
                    nets[name], opts[name] = step(nets[name], grads, opts[name])
                    stepped.add(name)

            for p, state, mode, comp in zip(pair_names, states, modes, components):
                iter_log[p].append(state.to_record(mode, {key: comp[r, q] for key, r, q in log_keys}))

            if inspect is not None:
                inspect(
                    iteration,
                    {
                        "mode": modes[0],
                        "modes": dict(zip(pair_names, modes)),
                        "states": dict(zip(pair_names, states)),
                        "teacher": nets[TEACHER],
                        "teacher_opt": opts.get(TEACHER),
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
                accuracy[name] = evaluate(nets[name], test_ds, cfg.batch_size, workspaces[name])
        epoch_log.append({"epoch": epoch, **{f"{name}_acc": accuracy[name] for name in names}})

    return TrainResult(
        config=cfg,
        networks=nets,
        opts=opts,
        iteration_log=iter_log,
        epoch_log=epoch_log,
    )


train_pair = train_multi = run_training
