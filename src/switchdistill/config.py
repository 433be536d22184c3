"""Flat key=value run configuration with dotted keys and CLI overrides.

The format is a plain text file: one ``key = value`` per line, ``#`` starts a
comment line, and list values are comma-separated. ``KEYS`` is the one table
of keys: each row holds the key's type parser and its CLI default;
``ignoring_choice`` is the one rule for which keys a run reads. A rule on a
value lives in the object that holds it, which refuses the value on
construction, naming the key: ``DataSettings`` for ``data.*`` values and
``TrainConfig`` for the rest. ``build_setup`` builds both before any data is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .datasets import Dataset, generate_blobs, load_cifar_binary, load_idx
from .errors import ConfigError, FormatError
from .training import IMAGE_KEYS, NetworkDef, OptimizerSettings, TrainConfig


def _parse_bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part) for part in raw.split(","))


# key -> (parser, CLI default); a None default leaves the key unset. Rows with a
# default are in the order of the resolved snapshot.
KEYS: dict[str, tuple[Callable, str | None]] = {
    "strategy": (str, "switch"),
    "topology": (str, "pair"),
    "seed": (int, "0"),
    "alpha": (float, "1.0"),
    "beta": (float, "1.0"),
    "tau": (float, "1.0"),
    "epochs": (int, "10"),
    "batch_size": (int, "32"),
    "lr.milestones": (_parse_int_list, ""),
    "lr.gamma": (float, "0.1"),
    "data.kind": (str, "blobs"),
    "data.classes": (int, "4"),
    "data.dims": (int, "16"),
    "data.per_class": (int, "100"),
    "data.spread": (float, "0.5"),
    "data.seed": (int, None),  # unset: the run's seed
    "data.train_images": (str, None),
    "data.train_labels": (str, None),
    "data.test_images": (str, None),
    "data.test_labels": (str, None),
    "data.train_path": (str, None),
    "data.test_path": (str, None),
    "data.augment": (_parse_bool, "false"),
    "data.channels": (int, None),
    "data.height": (int, None),
    "data.width": (int, None),
    "kd.teacher_checkpoint": (str, None),
}
for _net, _hidden, _lr in (("student", "16", "0.005"), ("teacher", "256,256", "0.02"), ("third", "16", "0.005")):
    KEYS.update({
        f"{_net}.hidden": (_parse_int_list, _hidden),
        f"{_net}.conv": (_parse_int_list, None),
        f"{_net}.optimizer": (str, "adam"),
        f"{_net}.lr": (float, _lr),
        f"{_net}.momentum": (float, "0.9"),
        f"{_net}.weight_decay": (float, "0.0001"),
    })

# data.kind -> the data.* keys it reads, all required; they become DataSettings.options
DATA_KEYS = {
    "blobs": ("classes", "per_class", "dims", "spread", "seed"),
    "idx": ("train_images", "train_labels", "test_images", "test_labels"),
    "cifar": ("classes", "train_path", "test_path"),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key -> string-value pairs; unknown keys are rejected."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=path)


def save_config(path: str, values: dict[str, str]) -> None:
    """Write ``values`` as sorted ``key = value`` lines, which ``load_config`` reads back."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{key} = {values[key]}\n" for key in sorted(values))


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply ``key=value`` strings on top of file values."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"override: unknown key {key!r}")
        out[key] = value.strip()
    return out


@dataclass
class DataSettings:
    """Where the train/test datasets come from; a value its ``kind`` (a DATA_KEYS key) cannot use is refused."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in DATA_KEYS:
            raise ConfigError(f"data.kind: unknown value {self.kind!r}, expected one of {tuple(DATA_KEYS)}")
        for name in DATA_KEYS[self.kind]:
            if name not in self.options:
                raise ConfigError(f"data.{name}: required for data.kind={self.kind}")
        o = self.options
        if self.kind == "blobs":
            # per_class: the test split takes 20% of each class, which rounds to one sample at 3
            for name, low in (("classes", 2), ("per_class", 3), ("seed", 0)):
                if o[name] < low:
                    raise ConfigError(f"data.{name}: must be >= {low}, got {o[name]}")
            if not (math.isfinite(o["spread"]) and o["spread"] >= 0):
                raise ConfigError(f"data.spread: must be finite and >= 0, got {o['spread']}")
            if o["dims"] < o["classes"]:
                raise ConfigError(f"data.dims: must be >= data.classes ({o['classes']}) for data.kind=blobs, got {o['dims']}")
        if self.kind == "cifar" and o["classes"] not in (10, 100):
            raise ConfigError(f"data.classes: must be 10 or 100 for data.kind=cifar, got {o['classes']}")

    def build(self) -> tuple[Dataset, Dataset]:
        """The (train, test) datasets; an image file with no records is refused, naming it."""
        o = self.options
        if self.kind == "blobs":
            return generate_blobs(num_classes=o["classes"], per_class=o["per_class"], dims=o["dims"],
                                  spread=o["spread"], seed=o["seed"])
        if self.kind == "idx":
            paths = (o["train_images"], o["test_images"])
            train = load_idx(o["train_images"], o["train_labels"], "train")
            test = load_idx(o["test_images"], o["test_labels"], "test")
        else:
            paths = (o["train_path"], o["test_path"])
            train = load_cifar_binary(o["train_path"], o["classes"], "train")
            test = load_cifar_binary(o["test_path"], o["classes"], "test")
        for ds, path in zip((train, test), paths):
            if len(ds) == 0:
                raise FormatError(f"{path}: holds no records; the {ds.split} split needs at least one")
        if test.num_classes > train.num_classes:  # only IDX sets take their class count from the labels
            raise FormatError(
                f"{o['test_labels']}: labels span {test.num_classes} classes, "
                f"but {o['train_labels']} spans only {train.num_classes}"
            )
        return train, test

    def describe(self) -> dict:
        return {"kind": self.kind, **self.options}


@dataclass
class RunSetup:
    train: TrainConfig
    data: DataSettings
    resolved: dict[str, str]


def _network_def(typed: dict, prefix: str) -> NetworkDef:
    return NetworkDef(
        hidden=typed[f"{prefix}.hidden"],
        conv_channels=typed.get(f"{prefix}.conv", ()),
        opt=OptimizerSettings(
            kind=typed[f"{prefix}.optimizer"],
            lr=typed[f"{prefix}.lr"],
            momentum=typed[f"{prefix}.momentum"],
            weight_decay=typed[f"{prefix}.weight_decay"],
        ),
    )


def build_setup(values: dict[str, str]) -> RunSetup:
    """Typed TrainConfig + DataSettings from raw config values; each refuses a bad value as it is built.

    ``resolved``, the snapshot a run records, is ``values`` over the CLI
    defaults, with ``data.seed`` set to ``seed`` when it is not given, less
    every key ``ignoring_choice`` rules out: exactly the keys the run reads.
    """
    resolved = {key: default for key, (_, default) in KEYS.items() if default is not None}
    resolved.update(values)
    seed_inherited = "data.seed" not in resolved
    resolved.setdefault("data.seed", resolved["seed"])
    resolved = {key: raw for key, raw in resolved.items() if not ignoring_choice(resolved, key)}
    typed: dict[str, object] = {}
    for key, raw in resolved.items():
        try:
            typed[key] = KEYS[key][0](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc

    kind = typed["data.kind"]
    options = {name: typed[f"data.{name}"] for name in DATA_KEYS.get(kind, ()) if f"data.{name}" in typed}
    try:
        data = DataSettings(kind, options)
    except ConfigError as exc:
        if seed_inherited and str(exc).startswith("data.seed: "):  # name the key the user set
            raise ConfigError(f"seed: must be >= 0 when data.seed is not set, got {options['seed']}") from None
        raise
    given = [key for key in IMAGE_KEYS if key in typed]
    if given and len(given) < len(IMAGE_KEYS):
        missing = " and ".join(key for key in IMAGE_KEYS if key not in typed)
        raise ConfigError(f"{given[0]}: requires {missing} as well; the image shape takes all three keys or none")

    train = TrainConfig(
        strategy=typed["strategy"],
        topology=typed["topology"],
        alpha=typed["alpha"],
        beta=typed["beta"],
        tau=typed["tau"],
        epochs=typed["epochs"],
        batch_size=typed["batch_size"],
        seed=typed["seed"],
        student=_network_def(typed, "student"),
        teacher=_network_def(typed, "teacher"),
        third=_network_def(typed, "third") if "third.hidden" in typed else None,
        lr_milestones=typed["lr.milestones"],
        lr_gamma=typed["lr.gamma"],
        image_shape=tuple(typed[key] for key in IMAGE_KEYS) if given else None,
        augment=typed["data.augment"],
    )
    if train.strategy == "kd-offline" and not typed.get("kd.teacher_checkpoint"):
        raise ConfigError("kd.teacher_checkpoint: required for strategy=kd-offline")
    return RunSetup(train, data, resolved)


def ignoring_choice(resolved: dict[str, str], key: str) -> str | None:
    """The choice, as ``key=value``, under which a run from ``resolved`` never reads ``key``; None when it reads it.

    A data kind reads only its own ``DATA_KEYS``, a pair reads no ``third.*``
    key, and only kd-offline reads ``kd.*``.
    """
    if key.startswith("data.") and any(key[5:] in names for names in DATA_KEYS.values()):
        kind = resolved["data.kind"]
        return None if key[5:] in DATA_KEYS.get(kind, ()) else f"data.kind={kind}"
    if key.startswith("third.") and resolved["topology"] == "pair":
        return "topology=pair"
    if key.startswith("kd.") and resolved["strategy"] != "kd-offline":
        return f"strategy={resolved['strategy']}"
    return None

