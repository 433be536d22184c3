"""Outside-in layer tracing for one workload command.

`install` replaces, in the switchdistill modules, the names that
`training`, `runio`, `cli` and `config` look up at call time with wrappers
that open a span around each call. Nothing under `src/` changes. Spans nest
on a stack; each span name accumulates its inclusive time, its self time
(inclusive minus the spans it caused) and its call count. Spans are folded
into these per-name totals as they close, so a traced run of thousands of
iterations keeps a few dozen numbers in memory, not a list of spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

LOSS_NAMES = (
    "soften", "ce_loss", "kl_loss", "one_hot", "ensemble_target",
    "student_logit_grad", "teacher_logit_grad", "kd_logit_grad", "kdcl_logit_grad",
)


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.setup_end: float | None = None  # spans opened at top level after this are run time
        self.covered = 0.0  # seconds of run time inside top-level spans
        self.runs: list[dict] = []  # per training run: network names and optimizer steps
        self.iter_ms: dict[str, list[float]] = {"learning": [], "expert": []}
        self._stack: list[list] = []  # [name, start, seconds spent in child spans]
        self._owner: dict[int, tuple[object, str]] = {}  # id(params) -> (params, network name)

    # -- spans --

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        elif self.setup_end is not None and start >= self.setup_end:
            self.covered += duration

    def wrap(self, fn, name):
        """`fn` inside a span; `name` is a string or a function of the call's arguments."""

        def traced(*args, **kwargs):
            self.enter(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # -- network identity: parameters are immutable, so follow them through `step` --

    def net_name(self, params) -> str:
        return self._owner.get(id(params), (None, "unknown"))[1]

    def _own(self, params, name: str) -> None:
        self._owner[id(params)] = (params, name)

    def _teacher_steps(self) -> int:
        return self.runs[-1]["steps"].get("teacher", 0) if self.runs else 0

    # -- wrappers with bookkeeping beyond a span --

    def wrap_run_training(self, fn):
        def run_training(cfg, *args, **kwargs):
            self._owner.clear()
            self.runs.append({"names": cfg.network_names(), "steps": defaultdict(int)})
            self.enter("training")
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                self.exit()

        return run_training

    def wrap_build_network(self, fn):
        def build_network(defn, in_dim, num_classes, seed, role, *args, **kwargs):
            params = fn(defn, in_dim, num_classes, seed, role, *args, **kwargs)
            self._own(params, self.runs[-1]["names"][role])
            return params

        return build_network

    def wrap_step(self, fn):
        def step(params, grads, opt):
            name = self.net_name(params)
            self.enter(f"optim.step.{name}")
            try:
                new_params, new_opt = fn(params, grads, opt)
            finally:
                self.exit()
            self._owner.pop(id(params), None)
            self._own(new_params, name)
            self.runs[-1]["steps"][name] += 1
            return new_params, new_opt

        return step

    def wrap_batches(self, fn):
        """Time each draw from the batcher, and each iteration from one draw to the next.

        An iteration counts as learning when the teacher stepped during it.
        """

        def batches(*args, **kwargs):
            inner = fn(*args, **kwargs)
            done = object()
            while True:
                requested = time.perf_counter()
                steps = self._teacher_steps()
                self.enter("datasets.batches")
                try:
                    item = next(inner, done)
                finally:
                    self.exit()
                if item is done:
                    return
                yield item
                mode = "learning" if self._teacher_steps() > steps else "expert"
                self.iter_ms[mode].append(1000.0 * (time.perf_counter() - requested))

        return batches


def install(tracer: Tracer) -> None:
    """Wrap the names the training loop, the run writer and the CLI call through."""
    from switchdistill import cli, config, runio, training

    for name in LOSS_NAMES:
        setattr(training, name, tracer.wrap(getattr(training, name), "losses"))
    training.forward_with_cache = tracer.wrap(
        training.forward_with_cache, lambda a: f"network.forward.{tracer.net_name(a[0])}"
    )
    training.backward_from_cache = tracer.wrap(
        training.backward_from_cache, lambda a: f"network.backward.{tracer.net_name(a[0])}"
    )
    training.evaluate = tracer.wrap(training.evaluate, "network.evaluate")
    training.batch_gap_state = tracer.wrap(training.batch_gap_state, "gap")
    training.augment_flip_crop = tracer.wrap(training.augment_flip_crop, "datasets.augment")
    training.step = tracer.wrap_step(training.step)
    training.batches = tracer.wrap_batches(training.batches)
    training.build_network = tracer.wrap_build_network(training.build_network)
    runio.run_training = tracer.wrap_run_training(runio.run_training)
    runio.write_jsonl = tracer.wrap(runio.write_jsonl, "runio.write")
    runio.write_csv = tracer.wrap(runio.write_csv, "runio.write")
    cli.write_csv = tracer.wrap(cli.write_csv, "runio.write")
    runio.save_checkpoint = tracer.wrap(runio.save_checkpoint, "checkpoint.save")
    for name in ("load_config", "apply_overrides", "build_setup"):
        setattr(cli, name, tracer.wrap(getattr(cli, name), "config.build"))
    config.DataSettings.build = tracer.wrap(config.DataSettings.build, "datasets.load")


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summary(tracer: Tracer) -> dict:
    """Per-span totals (ms), counts, per-run steps, and iteration-time percentiles."""
    return {
        "total_ms": {k: 1000.0 * v for k, v in tracer.total.items()},
        "self_ms": {k: 1000.0 * v for k, v in tracer.self_time.items()},
        "calls": dict(tracer.calls),
        "covered_s": tracer.covered,
        "steps": [dict(run["steps"]) for run in tracer.runs],
        "iters": {mode: len(v) for mode, v in tracer.iter_ms.items()},
        "iter_ms": {
            f"{mode}.{name}": percentile(v, q)
            for mode, v in tracer.iter_ms.items()
            for name, q in (("p50", 0.5), ("p90", 0.9))
        },
    }
