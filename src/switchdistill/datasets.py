"""Dataset generation and ingestion.

Provides a deterministic Gaussian-blob generator for fast tests, readers for
the IDX (big-endian, magic 0x00000801/0x00000803) and CIFAR binary layouts,
and a seeded epoch batcher.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
PIXEL_DIVISOR = 255.0  # image bytes 0..255 scale to features in [0, 1]

# Small feature scale keeps random-init logits near zero, so freshly built
# networks start with near-uniform predictions and a small distillation gap.
BLOB_CENTER_SCALE = 1.0


@dataclass
class Dataset:
    """Stored feature rows plus integer class labels.

    Rows are float64 features, or, with a ``divisor`` other than 1, the
    uint8 pixels an image file holds, kept at one byte per pixel. ``scale``
    turns a batch or chunk of rows into float64 features.
    """

    rows: np.ndarray  # (n, dims): float64 features, or uint8 pixels
    labels: np.ndarray  # (n,) int64
    num_classes: int
    split: str = "train"
    divisor: float = 1.0  # features = rows / divisor

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64 if self.divisor == 1.0 else None)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.rows.ndim != 2:
            raise DomainError("features must be a 2-D matrix")
        if self.rows.shape[0] != self.labels.shape[0]:
            raise DomainError(
                f"{self.rows.shape[0]} feature rows but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DomainError("label outside [0, num_classes)")

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def dims(self) -> int:
        return self.rows.shape[1]

    def scale(self, rows: np.ndarray) -> np.ndarray:
        """Float64 features of stored ``rows``: ``rows / divisor``, or ``rows`` itself for a divisor of 1."""
        return rows if self.divisor == 1.0 else np.divide(rows, self.divisor)

    @property
    def features(self) -> np.ndarray:
        """The whole (n, dims) float64 feature matrix; a new copy for an image set."""
        return self.scale(self.rows)

    def describe(self) -> dict:
        return {
            "samples": len(self),
            "dims": self.dims,
            "classes": self.num_classes,
            "split": self.split,
        }


def generate_blobs(
    num_classes: int,
    per_class: int,
    dims: int,
    spread: float,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Isotropic Gaussian clusters around fixed simplex-vertex centers.

    Centers sit at BLOB_CENTER_SCALE * e_k (the scaled standard basis), so the
    class geometry is identical across seeds; the seed only draws the noise.
    Returns an 80/20 train/test pair, split per class.
    """
    if num_classes < 2:
        raise DomainError("need at least 2 classes")
    if per_class < 1:
        raise DomainError("need at least 1 sample per class")
    if dims < num_classes:
        raise DomainError(f"dims must be >= num_classes for the simplex centers, got {dims} < {num_classes}")
    if spread < 0:
        raise DomainError("spread must be non-negative")
    rng = np.random.default_rng(seed)
    n_train = round(0.8 * per_class)
    train_x, train_y, test_x, test_y = [], [], [], []
    for k in range(num_classes):
        center = np.zeros(dims)
        center[k] = BLOB_CENTER_SCALE
        samples = center + spread * rng.standard_normal((per_class, dims))
        train_x.append(samples[:n_train])
        train_y.append(np.full(n_train, k))
        test_x.append(samples[n_train:])
        test_y.append(np.full(per_class - n_train, k))

    def _assemble(xs, ys, split):
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        order = rng.permutation(len(y))
        return Dataset(x[order], y[order], num_classes, split)

    return _assemble(train_x, train_y, "train"), _assemble(test_x, test_y, "test")


def _read_be_u32(data: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(data):
        raise FormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", data, offset)[0]


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def load_idx(images_path: str, labels_path: str, split: str = "train") -> Dataset:
    """Parse an IDX image/label file pair into a Dataset of uint8 pixels scaled to [0, 1]."""
    img_data = _read_bytes(images_path)
    lbl_data = _read_bytes(labels_path)

    magic = _read_be_u32(img_data, 0, images_path)
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"{images_path}: bad magic 0x{magic:08x} at byte 0, expected 0x{IDX_IMAGES_MAGIC:08x}")
    count = _read_be_u32(img_data, 4, images_path)
    rows = _read_be_u32(img_data, 8, images_path)
    cols = _read_be_u32(img_data, 12, images_path)
    if rows * cols == 0:
        raise FormatError(f"{images_path}: images of {rows}x{cols} pixels hold no pixels")
    expected = 16 + count * rows * cols
    if len(img_data) != expected:
        raise FormatError(
            f"{images_path}: expected {expected} bytes for {count} images, got {len(img_data)} (truncated at byte {len(img_data)})"
        )

    magic = _read_be_u32(lbl_data, 0, labels_path)
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(f"{labels_path}: bad magic 0x{magic:08x} at byte 0, expected 0x{IDX_LABELS_MAGIC:08x}")
    lbl_count = _read_be_u32(lbl_data, 4, labels_path)
    if len(lbl_data) != 8 + lbl_count:
        raise FormatError(
            f"{labels_path}: expected {8 + lbl_count} bytes for {lbl_count} labels, got {len(lbl_data)}"
        )
    if lbl_count != count:
        raise FormatError(f"count mismatch: {count} images vs {lbl_count} labels")

    pixels = np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    labels = np.frombuffer(lbl_data, dtype=np.uint8, offset=8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if count else 1
    return Dataset(pixels, labels, max(num_classes, 2), split, PIXEL_DIVISOR)


def load_cifar_binary(path: str, num_classes: int, split: str = "train") -> Dataset:
    """Parse CIFAR binary records: 1 (or 2) label bytes + 3072 channel-planar pixels.

    The 100-class layout carries a coarse byte then a fine byte; the fine
    label is kept. Pixel order is preserved as stored: red plane, green
    plane, blue plane, each row-major 32x32. The pixels stay a view of the
    bytes read.
    """
    if num_classes not in (10, 100):
        raise DomainError("num_classes must be 10 or 100")
    label_bytes = 1 if num_classes == 10 else 2
    record = label_bytes + 3072
    data = _read_bytes(path)
    if len(data) % record != 0:
        raise FormatError(
            f"{path}: length {len(data)} is not a multiple of the {record}-byte record"
        )
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, record)
    labels = raw[:, label_bytes - 1].astype(np.int64)
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise FormatError(f"{path}: record {bad[0] + 1} has label {labels[bad[0]]}, outside [0, {num_classes})")
    return Dataset(raw[:, label_bytes:], labels, num_classes, split, PIXEL_DIVISOR)


def batches(
    ds: Dataset, batch_size: int, seed: int, epoch: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Deterministic shuffled batches of stored rows; the order is a pure function of (seed, epoch).

    The final short batch is kept, so one epoch covers the dataset exactly.
    ``ds.scale`` turns a batch's rows into features.
    """
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
    order = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield ds.rows[idx], ds.labels[idx]


def augment_flip_crop(
    rows: np.ndarray,
    shape: tuple[int, int, int],
    rng: np.random.Generator,
    pad: int = 2,
) -> np.ndarray:
    """Random horizontal flip and shifted crop for image-shaped rows of any dtype.

    Each sample draws its crop offsets, then its flip, and takes that crop of
    the zero-padded image, its columns reversed when flipped.
    """
    c, h, w = shape
    x = rows.reshape(-1, c, h, w)
    padded = np.zeros((x.shape[0], c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, :, pad : pad + h, pad : pad + w] = x
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        di, dj = rng.integers(0, 2 * pad + 1, size=2).tolist()
        crop = padded[i, :, di : di + h, dj : dj + w]
        out[i] = crop[:, :, ::-1] if rng.random() < 0.5 else crop
    return out.reshape(rows.shape)
