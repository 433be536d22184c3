"""Minimal feed-forward network engine with explicit forward and backward passes.

Layers are plain descriptors, parameters live in :class:`NetworkParams`, and
the backward pass propagates a per-sample logit gradient down to every weight
and bias. Everything is float64 and free of global state, so independent
networks can train concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError

_ACTIVATIONS = ("none", "relu")


@dataclass(frozen=True)
class Dense:
    """Fully connected layer: out = x @ W + b, optionally rectified."""

    in_dim: int
    out_dim: int
    activation: str = "none"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ShapeError(f"dense layer dims must be positive, got {self.in_dim}x{self.out_dim}")
        if self.activation not in _ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")

    @property
    def in_features(self) -> int:
        return self.in_dim

    @property
    def out_features(self) -> int:
        return self.out_dim

    def weight_shape(self) -> tuple[int, ...]:
        return (self.in_dim, self.out_dim)

    def bias_shape(self) -> tuple[int, ...]:
        return (self.out_dim,)

    def fan_in_out(self) -> tuple[int, int]:
        return self.in_dim, self.out_dim


@dataclass(frozen=True)
class Conv2d:
    """2D convolution over a (channels, height, width) input, no padding.

    The flat feature layout is channel-major: index = (c * H + i) * W + j,
    both on input and output.
    """

    in_channels: int
    out_channels: int
    height: int
    width: int
    kernel: int
    stride: int = 1
    activation: str = "relu"

    def __post_init__(self) -> None:
        if min(self.in_channels, self.out_channels, self.height, self.width, self.kernel) < 1:
            raise ShapeError("conv layer dims must be positive")
        if self.stride < 1:
            raise ShapeError("conv stride must be >= 1")
        if self.kernel > min(self.height, self.width):
            raise ShapeError(
                f"kernel {self.kernel} exceeds input {self.height}x{self.width}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")

    @property
    def out_height(self) -> int:
        return (self.height - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.width - self.kernel) // self.stride + 1

    @property
    def in_features(self) -> int:
        return self.in_channels * self.height * self.width

    @property
    def out_features(self) -> int:
        return self.out_channels * self.out_height * self.out_width

    def weight_shape(self) -> tuple[int, ...]:
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)

    def bias_shape(self) -> tuple[int, ...]:
        return (self.out_channels,)

    def fan_in_out(self) -> tuple[int, int]:
        k2 = self.kernel * self.kernel
        return self.in_channels * k2, self.out_channels * k2


LayerSpec = Dense | Conv2d


@dataclass
class NetworkParams:
    """Weights and biases for a stack of layer descriptors.

    Gradients and optimizer accumulators use this same type and layout.
    """

    layers: tuple[LayerSpec, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def validate(self) -> None:
        if not self.layers:
            raise ShapeError("network has no layers")
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise ShapeError("parameter lists do not match layer count")
        for i, spec in enumerate(self.layers):
            if i + 1 < len(self.layers) and spec.out_features != self.layers[i + 1].in_features:
                raise ShapeError(
                    f"layer {i} emits {spec.out_features} features but layer {i + 1} "
                    f"expects {self.layers[i + 1].in_features}"
                )
            if self.weights[i].shape != spec.weight_shape():
                raise ShapeError(f"layer {i} weight shape {self.weights[i].shape} != {spec.weight_shape()}")
            if self.biases[i].shape != spec.bias_shape():
                raise ShapeError(f"layer {i} bias shape {self.biases[i].shape} != {spec.bias_shape()}")
            if not (np.all(np.isfinite(self.weights[i])) and np.all(np.isfinite(self.biases[i]))):
                raise ShapeError(f"layer {i} has non-finite parameters")

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.layers, [w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def zeros_like(self) -> "NetworkParams":
        """Zeroed arrays in this layout: the start of a gradient or optimizer accumulator."""
        return NetworkParams(self.layers, [np.zeros_like(w) for w in self.weights], [np.zeros_like(b) for b in self.biases])


def mlp(in_dim: int, hidden: tuple[int, ...] | list[int], out_dim: int) -> tuple[LayerSpec, ...]:
    """Dense stack with rectified hidden layers and linear output."""
    dims = [in_dim, *hidden, out_dim]
    layers = []
    for i in range(len(dims) - 1):
        act = "relu" if i < len(dims) - 2 else "none"
        layers.append(Dense(dims[i], dims[i + 1], act))
    return tuple(layers)


def conv_mlp(
    in_shape: tuple[int, int, int],
    conv_channels: tuple[int, ...] | list[int],
    hidden: tuple[int, ...] | list[int],
    out_dim: int,
    kernel: int = 3,
    stride: int = 2,
) -> tuple[LayerSpec, ...]:
    """Small convolution stack followed by a dense head.

    ``in_shape`` is (channels, height, width); each conv layer uses the given
    kernel and stride and is rectified.
    """
    c, h, w = in_shape
    layers: list[LayerSpec] = []
    for out_c in conv_channels:
        spec = Conv2d(c, out_c, h, w, kernel, stride, activation="relu")
        layers.append(spec)
        c, h, w = out_c, spec.out_height, spec.out_width
    layers.extend(mlp(c * h * w, hidden, out_dim))
    return tuple(layers)


def init_params(layers: tuple[LayerSpec, ...], seed: int | np.random.Generator) -> NetworkParams:
    """Uniform init with bound sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights, biases = [], []
    for spec in layers:
        fan_in, fan_out = spec.fan_in_out()
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=spec.weight_shape()))
        biases.append(np.zeros(spec.bias_shape()))
    net = NetworkParams(tuple(layers), weights, biases)
    net.validate()
    return net


@lru_cache(maxsize=64)
def _patch_index(c: int, h: int, w: int, kernel: int, stride: int) -> np.ndarray:
    """(oh * ow, C * k * k) flat indices into one (C, H, W) sample: the patch matrix of its pixel numbers."""
    pixels = np.arange(c * h * w).reshape(c, h, w)
    windows = np.lib.stride_tricks.sliding_window_view(pixels, (kernel, kernel), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (C, oh, ow, k, k)
    oh, ow = windows.shape[1:3]
    idx = windows.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * kernel * kernel)
    idx.flags.writeable = False  # shared by every caller through the cache
    return idx


def _im2col(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """(B, C, H, W) -> (B, oh * ow, C * k * k) patch matrix, one gather through a cached index."""
    b, c, h, w = x.shape
    return np.take(x.reshape(b, c * h * w), _patch_index(c, h, w, kernel, stride), axis=1)


def _col2im(dcols: np.ndarray, shape: tuple[int, int, int, int], kernel: int, stride: int) -> np.ndarray:
    """Scatter-add the inverse of _im2col, one strided slice per kernel offset.

    Offsets run in descending order, so every input pixel sums its
    contributions in ascending output-position order.
    """
    b, c, h, w = shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    patches = dcols.reshape(b, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    dx = np.zeros(shape, dtype=dcols.dtype)
    for ki in range(kernel - 1, -1, -1):
        for kj in range(kernel - 1, -1, -1):
            dx[:, :, ki : ki + stride * (oh - 1) + 1 : stride, kj : kj + stride * (ow - 1) + 1 : stride] += (
                patches[:, :, ki, kj]
            )
    return dx


def _layer_input(spec: LayerSpec, x: np.ndarray) -> np.ndarray:
    """What the layer multiplies by its weights: x itself, or a conv layer's patch matrix."""
    if isinstance(spec, Dense):
        return x
    return _im2col(x.reshape(x.shape[0], spec.in_channels, spec.height, spec.width), spec.kernel, spec.stride)


def _layer_pre(spec: LayerSpec, w: np.ndarray, b: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Pre-activation from the layer's input (dense) or patch matrix (conv)."""
    if isinstance(spec, Dense):
        return inputs @ w + b
    batch, positions, patch = inputs.shape
    pre = inputs.reshape(batch * positions, patch) @ w.reshape(spec.out_channels, patch).T + b
    return pre.reshape(batch, positions, spec.out_channels).transpose(0, 2, 1).reshape(batch, spec.out_features)


def _as_batch(batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D (samples x features), got shape {x.shape}")
    return x


def _check_width(i: int, spec: LayerSpec, x: np.ndarray) -> None:
    if x.shape[1] != spec.in_features:
        raise ShapeError(f"layer {i} expects {spec.in_features} input features, got {x.shape[1]}")


def _activate(spec: LayerSpec, pre: np.ndarray) -> np.ndarray:
    return np.maximum(pre, 0.0) if spec.activation == "relu" else pre


def forward_with_cache(
    net: NetworkParams, batch: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Forward pass keeping (layer input or patch matrix, pre-activation) per layer for backward."""
    x = _as_batch(batch)
    cache = []
    for i, spec in enumerate(net.layers):
        _check_width(i, spec, x)
        inputs = _layer_input(spec, x)
        pre = _layer_pre(spec, net.weights[i], net.biases[i], inputs)
        cache.append((inputs, pre))
        x = _activate(spec, pre)
    return x, cache


def forward(net: NetworkParams, batch: np.ndarray) -> np.ndarray:
    """Logits for a (samples x features) batch; keeps no per-layer cache."""
    x = _as_batch(batch)
    for i, spec in enumerate(net.layers):
        _check_width(i, spec, x)
        x = _activate(spec, _layer_pre(spec, net.weights[i], net.biases[i], _layer_input(spec, x)))
    return x


def backward_from_cache(
    net: NetworkParams, cache: list[tuple[np.ndarray, np.ndarray]], logit_grads: np.ndarray
) -> NetworkParams:
    """Backpropagate per-sample logit gradients; result is batch-averaged, in ``net``'s layout."""
    g = np.asarray(logit_grads, dtype=np.float64)
    batch = cache[0][0].shape[0]
    if g.shape != (batch, net.out_features):
        raise ShapeError(
            f"logit_grads shape {g.shape} does not match output ({batch}, {net.out_features})"
        )
    dws: list[np.ndarray] = []
    dbs: list[np.ndarray] = []
    d = g
    for i in range(len(net.layers) - 1, -1, -1):
        spec = net.layers[i]
        inputs, pre = cache[i]
        if spec.activation == "relu":
            d = d * (pre > 0)
        if isinstance(spec, Dense):
            dws.insert(0, inputs.T @ d / batch)
            dbs.insert(0, d.mean(axis=0))
            if i > 0:
                d = d @ net.weights[i].T
        else:
            dmap = d.reshape(batch, spec.out_channels, -1).transpose(0, 2, 1)  # (B, oh*ow, out_c)
            dw = np.tensordot(dmap, inputs, axes=([0, 1], [0, 1])) / batch
            dws.insert(0, dw.reshape(spec.weight_shape()))
            dbs.insert(0, dmap.sum(axis=1).mean(axis=0))
            if i > 0:
                # Computed as (B, C*k*k, oh*ow) so that _col2im reads each offset's slice contiguously.
                dcols = net.weights[i].reshape(spec.out_channels, -1).T @ d.reshape(batch, spec.out_channels, -1)
                dx = _col2im(
                    dcols.transpose(0, 2, 1),
                    (batch, spec.in_channels, spec.height, spec.width),
                    spec.kernel,
                    spec.stride,
                )
                d = dx.reshape(batch, spec.in_features)
    return NetworkParams(net.layers, dws, dbs)

