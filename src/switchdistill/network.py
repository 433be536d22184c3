"""Minimal feed-forward network engine with explicit forward and backward passes.

Layers are plain descriptors, parameters live in :class:`NetworkParams`, and
the backward pass propagates a per-sample logit gradient down to every weight
and bias. Everything is float64 and free of global state, so independent
networks can train concurrently.
"""

from __future__ import annotations

import math
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
    """(C * k * k, oh * ow) flat indices into one (C, H, W) sample: the patch matrix of its pixel numbers.

    Row e is patch entry (c, di, dj), column p output position (i, j), both row-major, so a conv layer's
    forward pass is one ``W @ cols`` that writes its channel-major activation in place. Conv weights keep
    their ``(out_c, C, k, k)`` shape and checkpoint format.
    """
    pixels = np.arange(c * h * w).reshape(c, h, w)
    windows = np.lib.stride_tricks.sliding_window_view(pixels, (kernel, kernel), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (C, oh, ow, k, k)
    oh, ow = windows.shape[1:3]
    idx = windows.transpose(0, 3, 4, 1, 2).reshape(c * kernel * kernel, oh * ow)
    idx.flags.writeable = False  # shared by every caller through the cache
    return idx


def _buffer(workspace: dict | None, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """``shape``-shaped leading elements of ``workspace[key]``, grown on demand; a new array without a workspace."""
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = workspace.get(key)
    if buf is None or buf.size < size:
        buf = workspace[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _im2col(x: np.ndarray, kernel: int, stride: int, out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) -> (B, C * k * k, oh * ow) patch matrix, one gather through _patch_index's cached index.

    The index is in range, so ``mode="clip"`` changes nothing but lets ``np.take`` fill ``out`` with no temporary.
    """
    b, c, h, w = x.shape
    return np.take(x.reshape(b, c * h * w), _patch_index(c, h, w, kernel, stride), axis=1, out=out, mode="clip")


def _col2im(dcols: np.ndarray, shape: tuple[int, int, int, int], kernel: int, stride: int, out=None) -> np.ndarray:
    """The adjoint of _im2col: (B, C * k * k, oh * ow) -> (B, C, H, W), a scatter-add through the same index.

    Each pixel is summed in the index's order, patch entry then output position. A contiguous ``dcols``
    (backward's ``W.T @ dmap``) is read in place, one row per sample.
    """
    b, c, h, w = shape
    idx = _patch_index(c, h, w, kernel, stride).ravel()
    dx = np.empty((b, c * h * w)) if out is None else out
    for s in range(b):
        dx[s] = np.bincount(idx, weights=dcols[s].ravel(), minlength=c * h * w)
    return dx.reshape(shape)


def forward_with_cache(net: NetworkParams, batch: np.ndarray, workspace: dict | None = None) -> tuple[np.ndarray, list]:
    """Logits, and per layer (layer input or patch matrix, activation) for backward.

    With a ``workspace`` (an initially empty dict kept per network) every array this returns is a
    view into it, overwritten by the next call that uses the same workspace.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D (samples x features), got shape {x.shape}")
    rows = x.shape[0]
    cache = []
    for i, spec in enumerate(net.layers):
        if x.shape[1] != spec.in_features:
            raise ShapeError(f"layer {i} expects {spec.in_features} input features, got {x.shape[1]}")
        act = _buffer(workspace, ("act", i), (rows, spec.out_features))
        if isinstance(spec, Dense):
            inputs = x
            np.add(np.matmul(x, net.weights[i], out=act), net.biases[i], out=act)
        else:
            oc, positions = spec.out_channels, spec.out_height * spec.out_width
            patch = spec.in_channels * spec.kernel * spec.kernel
            image = x.reshape(rows, spec.in_channels, spec.height, spec.width)
            cols = _buffer(workspace, ("cols", i), (rows, patch, positions))
            inputs = _im2col(image, spec.kernel, spec.stride, out=cols)
            fmap = act.reshape(rows, oc, positions)
            np.matmul(net.weights[i].reshape(oc, patch), inputs, out=fmap)
            np.add(fmap, net.biases[i].reshape(oc, 1), out=fmap)
        if spec.activation == "relu":
            np.maximum(act, 0.0, out=act)
        cache.append((inputs, act))
        x = act
    return x, cache


def forward(net: NetworkParams, batch: np.ndarray) -> np.ndarray:
    """Logits for a (samples x features) batch."""
    return forward_with_cache(net, batch)[0]


def backward_from_cache(
    net: NetworkParams, cache: list, logit_grads: np.ndarray,
    out: NetworkParams | None = None, workspace: dict | None = None,
) -> NetworkParams:
    """Backpropagate per-sample logit gradients, batch-averaged, into ``out`` (default ``net.zeros_like()``).

    ``logit_grads`` is only read. The gradient chain below the logits lives in ``workspace`` when given.
    """
    g = np.asarray(logit_grads, dtype=np.float64)
    batch = cache[0][0].shape[0]
    if g.shape != (batch, net.out_features):
        raise ShapeError(f"logit_grads shape {g.shape} does not match output ({batch}, {net.out_features})")
    out = net.zeros_like() if out is None else out
    d = g
    for i in range(len(net.layers) - 1, -1, -1):
        spec = net.layers[i]
        inputs, act = cache[i]
        if spec.activation == "relu":  # act > 0 is pre > 0; a multiply, not where=, keeps d * (pre > 0)'s -0.0
            mask = np.greater(act, 0.0, out=_buffer(workspace, "mask", act.shape, bool))
            # the input gradient of layer i goes to buffer i % 2; the caller's array is never written
            d = np.multiply(d, mask, out=d if d is not g else _buffer(workspace, ("dx", (i + 1) % 2), d.shape))
        if isinstance(spec, Dense):
            np.divide(np.matmul(inputs.T, d, out=out.weights[i]), batch, out=out.weights[i])
            np.mean(d, axis=0, out=out.biases[i])
            if i > 0:
                d = np.matmul(d, net.weights[i].T, out=_buffer(workspace, ("dx", i % 2), (batch, spec.in_features)))
        else:
            oc, patch = spec.out_channels, inputs.shape[1]
            dmap = d.reshape(batch, oc, -1)
            # per-sample dmap @ cols.T, then summed over the batch; dcols below reuses the buffer
            dws = np.matmul(dmap, inputs.transpose(0, 2, 1), out=_buffer(workspace, "gemm", (batch, oc, patch)))
            np.sum(dws.reshape(batch, *spec.weight_shape()), axis=0, out=out.weights[i])
            np.divide(out.weights[i], batch, out=out.weights[i])
            np.mean(dmap.sum(axis=2), axis=0, out=out.biases[i])
            if i > 0:
                dcols = _buffer(workspace, "gemm", inputs.shape)
                np.matmul(net.weights[i].reshape(oc, patch).T, dmap, out=dcols)
                dx = _buffer(workspace, ("dx", i % 2), (batch, spec.in_features))
                shape = (batch, spec.in_channels, spec.height, spec.width)
                d = _col2im(dcols, shape, spec.kernel, spec.stride, out=dx).reshape(dx.shape)
    return out
