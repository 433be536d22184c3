"""Data tests: blob generator determinism, IDX/CIFAR byte fixtures built
in-test, and epoch batching round-trips."""

import struct
import tracemalloc

import numpy as np
import pytest

from switchdistill.datasets import (
    Dataset,
    augment_flip_crop,
    batches,
    generate_blobs,
    load_cifar_binary,
    load_idx,
)
from switchdistill.errors import DomainError, FormatError


def write_idx_pair(tmp_path, images, labels):
    """images: (n, rows, cols) uint8; labels: (n,) uint8."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.tobytes())
    return str(img_path), str(lbl_path)


class TestBlobs:
    def test_zero_spread_is_perfectly_separable(self):
        train, test = generate_blobs(3, 50, 5, spread=0.0, seed=1)
        centers = np.zeros((3, 5))
        for k in range(3):
            centers[k, k] = 1.0
        dists = np.linalg.norm(test.features[:, None, :] - centers[None], axis=2)
        assert np.mean(np.argmin(dists, axis=1) == test.labels) == 1.0

    def test_same_seed_identical(self):
        a_train, a_test = generate_blobs(2, 40, 4, 1.0, seed=9)
        b_train, b_test = generate_blobs(2, 40, 4, 1.0, seed=9)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_class_counts_and_split(self):
        train, test = generate_blobs(3, 100, 4, 1.0, seed=0)
        for k in range(3):
            assert np.sum(train.labels == k) + np.sum(test.labels == k) == 100
        assert len(train) == 240 and len(test) == 60

    def test_centers_fixed_across_seeds(self):
        # different seeds reshuffle noise only; per-class means stay near the fixed centers
        train, _ = generate_blobs(2, 500, 3, 0.1, seed=4)
        mean0 = train.features[train.labels == 0].mean(axis=0)
        np.testing.assert_allclose(mean0, [1.0, 0.0, 0.0], atol=0.05)

    def test_invalid_sizes(self):
        with pytest.raises(DomainError):
            generate_blobs(1, 10, 4, 1.0, 0)
        with pytest.raises(DomainError):
            generate_blobs(3, 0, 4, 1.0, 0)
        with pytest.raises(DomainError):
            generate_blobs(5, 10, 3, 1.0, 0)  # dims < classes


class TestIdxLoader:
    def test_round_trip_exact(self, tmp_path):
        images = np.array(
            [[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8
        )
        labels = np.array([1, 0], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img, lbl)
        assert len(ds) == 2
        np.testing.assert_allclose(
            ds.features[0], np.array([0, 255, 128, 64]) / 255.0, rtol=1e-15
        )
        np.testing.assert_allclose(ds.features[1], np.array([1, 2, 3, 4]) / 255.0, rtol=1e-15)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_wrong_label_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.zeros(1, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        with open(lbl, "r+b") as f:
            f.write(struct.pack(">I", 0x00000903))
        with pytest.raises(FormatError, match="magic"):
            load_idx(img, lbl)

    def test_empty_file_is_truncation(self, tmp_path):
        empty = tmp_path / "empty.idx"
        empty.write_bytes(b"")
        with pytest.raises(FormatError, match="truncated"):
            load_idx(str(empty), str(empty))

    def test_truncated_pixels(self, tmp_path):
        img_path = tmp_path / "img.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            f.write(b"\x00" * 5)  # needs 8
        lbl_path = tmp_path / "lbl.idx"
        with open(lbl_path, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 2))
            f.write(b"\x00\x00")
        with pytest.raises(FormatError, match="byte"):
            load_idx(str(img_path), str(lbl_path))

    @pytest.mark.parametrize("missing", ["images", "labels"])
    def test_missing_file_names_the_path(self, tmp_path, missing):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        gone = str(tmp_path / "nowhere.idx")
        args = (gone, lbl) if missing == "images" else (img, gone)
        with pytest.raises(FormatError, match="nowhere.idx: cannot read"):
            load_idx(*args)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        with open(lbl, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 1))
            f.write(b"\x00")
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(img, lbl)


class TestCifarLoader:
    def test_single_record_10_class(self, tmp_path):
        pixels = np.arange(3072, dtype=np.uint8) % 251
        record = bytes([7]) + pixels.tobytes()
        path = tmp_path / "batch.bin"
        path.write_bytes(record)
        ds = load_cifar_binary(str(path), 10)
        assert len(ds) == 1
        assert ds.labels[0] == 7
        assert ds.features[0, 0] == pytest.approx(pixels[0] / 255.0)
        assert ds.features[0, -1] == pytest.approx(pixels[-1] / 255.0)

    def test_loading_peaks_below_twice_the_file_size(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "batch.bin"
        path.write_bytes(np.hstack([rng.integers(0, 10, size=(200, 1)), rng.integers(0, 256, size=(200, 3072))])
                         .astype(np.uint8).tobytes())
        tracemalloc.start()
        try:
            ds = load_cifar_binary(str(path), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 200
        assert peak < 2 * path.stat().st_size, (peak, path.stat().st_size)

    def test_zero_length_is_valid_empty(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        ds = load_cifar_binary(str(path), 10)
        assert len(ds) == 0

    def test_100_class_uses_fine_label(self, tmp_path):
        record = bytes([3, 42]) + bytes(3072)  # coarse=3, fine=42
        path = tmp_path / "batch100.bin"
        path.write_bytes(record)
        ds = load_cifar_binary(str(path), 100)
        assert ds.labels[0] == 42

    def test_bad_record_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))  # missing label byte
        with pytest.raises(FormatError, match="multiple"):
            load_cifar_binary(str(path), 10)

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(FormatError, match="nowhere.bin: cannot read"):
            load_cifar_binary(str(tmp_path / "nowhere.bin"), 10)

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_cifar_binary(str(tmp_path), 10)

    def test_bad_num_classes(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"")
        with pytest.raises(DomainError):
            load_cifar_binary(str(path), 20)


class TestBatches:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.ds = Dataset(rng.normal(size=(10, 3)), rng.integers(0, 2, size=10), 2)

    def test_one_big_batch(self):
        got = list(batches(self.ds, 64, seed=0, epoch=0))
        assert len(got) == 1
        assert got[0][0].shape == (10, 3)

    def test_same_key_same_order(self):
        a = [lbls.tolist() for _, lbls in batches(self.ds, 4, seed=3, epoch=5)]
        b = [lbls.tolist() for _, lbls in batches(self.ds, 4, seed=3, epoch=5)]
        assert a == b

    def test_different_epoch_reshuffles(self):
        a = np.concatenate([l for _, l in batches(self.ds, 4, seed=3, epoch=0)])
        b = np.concatenate([l for _, l in batches(self.ds, 4, seed=3, epoch=1)])
        assert not np.array_equal(a, b)  # 10! orderings; collision is negligible

    def test_short_final_batch(self):
        sizes = [x.shape[0] for x, _ in batches(self.ds, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_epoch_is_a_multiset_round_trip(self):
        seen = np.concatenate([x for x, _ in batches(self.ds, 3, seed=7, epoch=2)])
        original = np.sort(self.ds.features.reshape(-1))
        np.testing.assert_array_equal(np.sort(seen.reshape(-1)), original)

    @pytest.mark.parametrize("kind", ["idx", "cifar"])
    def test_scaled_image_rows_are_the_pixels_over_255(self, tmp_path, kind):
        pixels = np.random.default_rng(2).integers(0, 256, size=(10, 3072), dtype=np.uint8)
        labels = np.arange(10, dtype=np.uint8)  # one row per class, so a batch's labels index its rows
        if kind == "idx":
            ds = load_idx(*write_idx_pair(tmp_path, pixels.reshape(10, 48, 64), labels))
        else:
            path = tmp_path / "batch.bin"
            path.write_bytes(np.hstack([labels[:, None], pixels]).tobytes())
            ds = load_cifar_binary(str(path), 10)
        assert ds.rows.dtype == np.uint8
        for rows, batch_labels in batches(ds, 4, seed=1, epoch=0):
            assert ds.scale(rows).tobytes() == (pixels[batch_labels] / 255.0).tobytes()
        assert ds.features.tobytes() == (pixels / 255.0).tobytes()

    def test_bad_batch_size(self):
        with pytest.raises(DomainError):
            list(batches(self.ds, 0, 0, 0))


class TestDatasetInvariants:
    def test_row_label_count_must_match(self):
        with pytest.raises(DomainError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)

    def test_labels_must_be_in_range(self):
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)

    def test_loaded_features_in_unit_interval(self, tmp_path):
        images = np.array([[[0, 255], [7, 200]]], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.array([0], dtype=np.uint8))
        ds = load_idx(img, lbl)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


class TestAugmentation:
    def test_preserves_shape_and_range(self):
        rng = np.random.default_rng(0)
        feats = rng.uniform(size=(6, 1 * 4 * 4))
        out = augment_flip_crop(feats, (1, 4, 4), np.random.default_rng(1), pad=1)
        assert out.shape == feats.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_pad_zero_yields_identity_or_mirror(self):
        feats = np.arange(16.0).reshape(1, 16)
        img = feats.reshape(1, 1, 4, 4)
        mirrored = img[:, :, :, ::-1].reshape(1, 16)
        out = augment_flip_crop(feats, (1, 4, 4), np.random.default_rng(3), pad=0)
        assert np.array_equal(out, feats) or np.array_equal(out, mirrored)

    def test_deterministic_for_fixed_generator_state(self):
        feats = np.random.default_rng(0).uniform(size=(4, 9))
        a = augment_flip_crop(feats, (1, 3, 3), np.random.default_rng(11), pad=1)
        b = augment_flip_crop(feats, (1, 3, 3), np.random.default_rng(11), pad=1)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_matches_per_sample_loop_oracle(self, pad, seed):
        shape = (3, 5, 7)
        feats = np.random.default_rng(seed + 1000).uniform(size=(9, 3 * 5 * 7))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = augment_flip_crop(feats, shape, rng, pad=pad)
        expected = per_sample_flip_crop(feats, shape, oracle_rng, pad)
        assert out.tobytes() == expected.tobytes()
        # both consumed the same draws, so the streams stay in step
        assert rng.random() == oracle_rng.random()


def per_sample_flip_crop(features, shape, rng, pad):
    """The original one-sample-at-a-time augmentation, kept as an oracle."""
    c, h, w = shape
    x = features.reshape(-1, c, h, w)
    out = np.empty_like(x)
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    for i in range(x.shape[0]):
        di, dj = rng.integers(0, 2 * pad + 1, size=2)
        img = padded[i, :, di : di + h, dj : dj + w]
        if rng.random() < 0.5:
            img = img[:, :, ::-1]
        out[i] = img
    return out.reshape(features.shape)
