"""Flat key=value run configuration with dotted keys and CLI overrides.

The format is a plain text file: one ``key = value`` per line, ``#`` starts a
comment line, and list values are comma-separated. ``KEYS`` is the one table
of keys: each row holds the key's parser, which also checks its range, and
its CLI default. Every config error is raised by ``build_setup``, before any
data is loaded or any network trained, with a message that names the key;
``ignoring_choice`` is the one rule for which keys a run reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .datasets import Dataset, generate_blobs, load_cifar_binary, load_idx
from .errors import ConfigError, FormatError
from .training import NetworkDef, OptimizerSettings, TrainConfig


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


def _at_least(parse: Callable, low: int) -> Callable:
    """``parse``, then require the value, or every entry of a list, to be finite and >= ``low``.

    A value out of range raises a ConfigError without the key, which ``build_setup`` prefixes.
    """

    def parse_in_range(raw: str):
        value = parse(raw)
        listed = isinstance(value, tuple)
        if not all(math.isfinite(v) and v >= low for v in (value if listed else (value,))):
            rule = f"finite and >= {low}" if isinstance(value, float) else f">= {low}"
            raise ConfigError(f"must be {rule}{' in every entry' if listed else ''}, got {raw}")
        return value

    return parse_in_range


_COUNT = _at_least(int, 1)
_WIDTHS = _at_least(_parse_int_list, 1)

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
    "lr.milestones": (_at_least(_parse_int_list, 0), ""),
    "lr.gamma": (float, "0.1"),
    "data.kind": (str, "blobs"),
    "data.classes": (_at_least(int, 2), "4"),
    "data.dims": (_COUNT, "16"),
    "data.per_class": (_at_least(int, 3), "100"),  # 20% of 3 rounds to one test sample
    "data.spread": (_at_least(float, 0), "0.5"),
    "data.seed": (_at_least(int, 0), None),  # unset: the run's seed
    "data.train_images": (str, None),
    "data.train_labels": (str, None),
    "data.test_images": (str, None),
    "data.test_labels": (str, None),
    "data.train_path": (str, None),
    "data.test_path": (str, None),
    "data.augment": (_parse_bool, "false"),
    "data.channels": (_COUNT, None),
    "data.height": (_COUNT, None),
    "data.width": (_COUNT, None),
    "kd.teacher_checkpoint": (str, None),
}
for _net, _hidden, _lr in (("student", "16", "0.005"), ("teacher", "256,256", "0.02"), ("third", "16", "0.005")):
    KEYS.update({
        f"{_net}.hidden": (_WIDTHS, _hidden),
        f"{_net}.conv": (_WIDTHS, None),
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
IMAGE_KEYS = ("data.channels", "data.height", "data.width")


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
    """Where the train/test datasets come from; ``kind`` is a key of DATA_KEYS."""

    kind: str
    options: dict = field(default_factory=dict)

    def build(self) -> tuple[Dataset, Dataset]:
        """The (train, test) datasets; an image file with no records is refused, naming it."""
        o = self.options
        if self.kind == "blobs":
            return generate_blobs(
                num_classes=o["classes"],
                per_class=o["per_class"],
                dims=o["dims"],
                spread=o["spread"],
                seed=o["seed"],
            )
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
    """Typed TrainConfig + DataSettings from raw config values, with every config check.

    ``resolved``, the snapshot a run records, is ``values`` over the CLI
    defaults, with ``data.seed`` set to ``seed`` when it is not given, less
    every key ``ignoring_choice`` rules out: exactly the keys the run reads.
    """
    resolved = {key: default for key, (_, default) in KEYS.items() if default is not None}
    resolved.update(values)
    kind = resolved["data.kind"]
    if kind not in DATA_KEYS:
        raise ConfigError(f"data.kind: unknown value {kind!r}, expected one of {tuple(DATA_KEYS)}")
    seed_inherited = "data.seed" not in resolved
    resolved.setdefault("data.seed", resolved["seed"])
    resolved = {key: raw for key, raw in resolved.items() if not ignoring_choice(resolved, key)}
    typed: dict[str, object] = {}
    for key, raw in resolved.items():
        try:
            typed[key] = KEYS[key][0](raw)
        except ConfigError as exc:
            if key == "data.seed" and seed_inherited:  # name the key the user set
                raise ConfigError(f"seed: must be >= 0 when data.seed is not set, got {raw}") from None
            raise ConfigError(f"{key}: {exc}") from None
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc

    for name in DATA_KEYS[kind]:
        if f"data.{name}" not in typed:
            raise ConfigError(f"data.{name}: required for data.kind={kind}")
    options = {name: typed[f"data.{name}"] for name in DATA_KEYS[kind]}
    if kind == "blobs" and options["dims"] < options["classes"]:
        raise ConfigError(
            f"data.dims: must be >= data.classes ({options['classes']}) for data.kind=blobs, got {options['dims']}"
        )
    if kind == "cifar" and options["classes"] not in (10, 100):
        raise ConfigError(f"data.classes: must be 10 or 100 for data.kind=cifar, got {options['classes']}")
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
    return RunSetup(train, DataSettings(kind=kind, options=options), resolved)


def ignoring_choice(resolved: dict[str, str], key: str) -> str | None:
    """The choice, as ``key=value``, under which a run from ``resolved`` never reads ``key``; None when it reads it.

    A data kind reads only its own ``DATA_KEYS``, a pair reads no ``third.*``
    key, and only kd-offline reads ``kd.*``.
    """
    if key.startswith("data.") and any(key[5:] in names for names in DATA_KEYS.values()):
        kind = resolved["data.kind"]
        return None if key[5:] in DATA_KEYS[kind] else f"data.kind={kind}"
    if key.startswith("third.") and resolved["topology"] == "pair":
        return "topology=pair"
    if key.startswith("kd.") and resolved["strategy"] != "kd-offline":
        return f"strategy={resolved['strategy']}"
    return None

