"""Flat key=value run configuration with dotted keys and CLI overrides.

The format is a plain text file: one ``key = value`` per line, ``#`` starts a
comment line, and list values are comma-separated. Every key is typed
against a fixed schema, so typos fail fast with a field-level message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


_SCHEMA: dict[str, type | object] = {
    "strategy": str,
    "topology": str,
    "seed": int,
    "alpha": float,
    "beta": float,
    "tau": float,
    "epochs": int,
    "batch_size": int,
    "lr.milestones": _parse_int_list,
    "lr.gamma": float,
    "data.kind": str,
    "data.classes": int,
    "data.dims": int,
    "data.per_class": int,
    "data.spread": float,
    "data.seed": int,
    "data.train_images": str,
    "data.train_labels": str,
    "data.test_images": str,
    "data.test_labels": str,
    "data.train_path": str,
    "data.test_path": str,
    "data.augment": _parse_bool,
    "data.channels": int,
    "data.height": int,
    "data.width": int,
    "kd.teacher_checkpoint": str,
}
for _net in ("student", "teacher", "third"):
    _SCHEMA[f"{_net}.hidden"] = _parse_int_list
    _SCHEMA[f"{_net}.conv"] = _parse_int_list
    _SCHEMA[f"{_net}.lr"] = float
    _SCHEMA[f"{_net}.optimizer"] = str
    _SCHEMA[f"{_net}.momentum"] = float
    _SCHEMA[f"{_net}.weight_decay"] = float

_DEFAULTS: dict[str, str] = {
    "strategy": "switch",
    "topology": "pair",
    "seed": "0",
    "alpha": "1.0",
    "beta": "1.0",
    "tau": "1.0",
    "epochs": "10",
    "batch_size": "32",
    "lr.milestones": "",
    "lr.gamma": "0.1",
    "data.kind": "blobs",
    "data.classes": "4",
    "data.dims": "16",
    "data.per_class": "100",
    "data.spread": "0.5",
    "data.augment": "false",
    "student.hidden": "16",
    "student.optimizer": "adam",
    "student.lr": "0.005",
    "student.momentum": "0.9",
    "student.weight_decay": "0.0001",
    "teacher.hidden": "256,256",
    "teacher.optimizer": "adam",
    "teacher.lr": "0.02",
    "teacher.momentum": "0.9",
    "teacher.weight_decay": "0.0001",
    "third.hidden": "16",
    "third.optimizer": "adam",
    "third.lr": "0.005",
    "third.momentum": "0.9",
    "third.weight_decay": "0.0001",
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
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=path)


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply ``key=value`` strings on top of file values."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"override: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _typed(values: dict[str, str]) -> dict[str, object]:
    merged = dict(_DEFAULTS)
    merged.update(values)
    typed: dict[str, object] = {}
    for key, raw in merged.items():
        parser = _SCHEMA[key]
        try:
            typed[key] = parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc
    return typed


@dataclass
class DataSettings:
    """Where the train/test datasets come from."""

    kind: str
    options: dict = field(default_factory=dict)

    def build(self) -> tuple[Dataset, Dataset]:
        if self.kind == "blobs":
            return generate_blobs(
                num_classes=self.options["classes"],
                per_class=self.options["per_class"],
                dims=self.options["dims"],
                spread=self.options["spread"],
                seed=self.options["seed"],
            )
        if self.kind == "idx":
            train = load_idx(self.options["train_images"], self.options["train_labels"], "train")
            test = load_idx(self.options["test_images"], self.options["test_labels"], "test")
            if test.num_classes > train.num_classes:
                raise FormatError(
                    f"{self.options['test_labels']}: labels span {test.num_classes} classes, "
                    f"but {self.options['train_labels']} spans only {train.num_classes}"
                )
            return train, test
        if self.kind == "cifar":
            k = self.options["classes"]
            train = load_cifar_binary(self.options["train_path"], k, "train")
            test = load_cifar_binary(self.options["test_path"], k, "test")
            return train, test
        raise ConfigError(f"data.kind: unknown value {self.kind!r}")

    def describe(self) -> dict:
        return {"kind": self.kind, **{k: v for k, v in self.options.items()}}


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
    """Typed TrainConfig + DataSettings from raw config values."""
    typed = _typed(values)
    kind = typed["data.kind"]
    if kind == "blobs":
        options = {
            "classes": typed["data.classes"],
            "per_class": typed["data.per_class"],
            "dims": typed["data.dims"],
            "spread": typed["data.spread"],
            "seed": typed.get("data.seed", typed["seed"]),
        }
    elif kind == "idx":
        for k in ("data.train_images", "data.train_labels", "data.test_images", "data.test_labels"):
            if k not in typed:
                raise ConfigError(f"{k}: required for data.kind=idx")
        options = {
            "train_images": typed["data.train_images"],
            "train_labels": typed["data.train_labels"],
            "test_images": typed["data.test_images"],
            "test_labels": typed["data.test_labels"],
        }
    elif kind == "cifar":
        for k in ("data.train_path", "data.test_path"):
            if k not in typed:
                raise ConfigError(f"{k}: required for data.kind=cifar")
        options = {
            "classes": typed["data.classes"],
            "train_path": typed["data.train_path"],
            "test_path": typed["data.test_path"],
        }
    else:
        raise ConfigError(f"data.kind: unknown value {kind!r}")

    image_shape = None
    if all(f"data.{n}" in typed for n in ("channels", "height", "width")):
        image_shape = (typed["data.channels"], typed["data.height"], typed["data.width"])

    topology = typed["topology"]
    third = _network_def(typed, "third") if topology in ("1t2s", "2t1s") else None
    train = TrainConfig(
        strategy=typed["strategy"],
        topology=topology,
        alpha=typed["alpha"],
        beta=typed["beta"],
        tau=typed["tau"],
        epochs=typed["epochs"],
        batch_size=typed["batch_size"],
        seed=typed["seed"],
        student=_network_def(typed, "student"),
        teacher=_network_def(typed, "teacher"),
        third=third,
        lr_milestones=typed["lr.milestones"],
        lr_gamma=typed["lr.gamma"],
        teacher_checkpoint=typed.get("kd.teacher_checkpoint"),
        image_shape=image_shape,
        augment=typed["data.augment"],
    )
    train.validate()
    data = DataSettings(kind=kind, options=options)

    resolved = dict(_DEFAULTS)
    resolved.update(values)
    if "data.seed" not in resolved:
        resolved["data.seed"] = resolved["seed"]
    return RunSetup(train=train, data=data, resolved=resolved)
