"""Versioned network checkpoints: an architecture header plus exact float64 arrays."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .errors import FormatError, ShapeError
from .network import Conv2d, Dense, NetworkParams

CHECKPOINT_FORMAT = "switchdistill-net"
CHECKPOINT_VERSION = 1


def _spec_to_dict(spec) -> dict:
    d = asdict(spec)
    d["type"] = "dense" if isinstance(spec, Dense) else "conv2d"
    return d


def _spec_from_dict(d: dict):
    kind = d.pop("type")
    if kind == "dense":
        return Dense(**d)
    if kind == "conv2d":
        return Conv2d(**d)
    raise FormatError(f"unknown layer type {kind!r} in checkpoint header")


def save_checkpoint(path: str, net: NetworkParams) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layers": [_spec_to_dict(s) for s in net.layers],
    }
    arrays = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


def load_checkpoint(path: str) -> NetworkParams:
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if "header" not in data:
        raise FormatError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(bytes(data["header"]).decode())
    except ValueError as exc:
        raise FormatError(f"{path}: checkpoint header is not JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {header.get('version')}")
    try:
        layers = tuple(_spec_from_dict(d) for d in header["layers"])
        weights = [data[f"w{i}"] for i in range(len(layers))]
        biases = [data[f"b{i}"] for i in range(len(layers))]
        net = NetworkParams(layers, weights, biases)
        net.validate()
    except (AttributeError, KeyError, TypeError, ShapeError) as exc:
        raise FormatError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    return net
