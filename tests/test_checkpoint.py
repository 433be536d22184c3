"""Checkpoint round-trips must be bit-exact, headers versioned."""

import io
import json
import re

import numpy as np
import pytest

from switchdistill.checkpoint import load_checkpoint, save_checkpoint
from switchdistill.errors import FormatError
from switchdistill.network import conv_mlp, init_params, mlp


class TestCheckpointRoundTrip:
    def test_dense_bit_exact(self, tmp_path):
        net = init_params(mlp(6, (9, 5), 3), 17)
        path = str(tmp_path / "net.npz")
        save_checkpoint(path, net)
        loaded = load_checkpoint(path)
        assert loaded.layers == net.layers
        for a, b in zip(loaded.weights, net.weights):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(loaded.biases, net.biases):
            assert a.tobytes() == b.tobytes()

    def test_conv_architecture_header(self, tmp_path):
        net = init_params(conv_mlp((1, 6, 6), (2,), (4,), 3, kernel=3, stride=1), 5)
        path = str(tmp_path / "conv.npz")
        save_checkpoint(path, net)
        loaded = load_checkpoint(path)
        assert loaded.layers == net.layers

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(str(path), data=np.zeros(3))
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(str(path))

    def test_rejects_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(FormatError):
            load_checkpoint(str(path))


def write_archive(path, header: bytes, **arrays):
    np.savez(str(path), header=np.frombuffer(header, dtype=np.uint8), **arrays)


DAMAGES = ["weight-shape", "negative-width", "non-finite"]


def damaged_checkpoint(path, damage):
    """Write at ``path`` a readable archive of a 6-feature, 3-class MLP whose header and arrays disagree."""
    buf = io.BytesIO()
    save_checkpoint(buf, init_params(mlp(6, (4,), 3), 0))
    buf.seek(0)
    with np.load(buf) as data:
        arrays = {k: data[k] for k in data.files if k != "header"}
        header = json.loads(bytes(data["header"]).decode())
    if damage == "weight-shape":
        arrays["w0"] = np.zeros((3, 3))
    elif damage == "negative-width":
        header["layers"][0]["out_dim"] = -4
    else:
        arrays["w0"][0, 0] = np.nan
    write_archive(path, json.dumps(header).encode(), **arrays)


class TestMalformedCheckpoint:
    def test_header_not_json(self, tmp_path):
        path = tmp_path / "bad.npz"
        write_archive(path, b"{not json")
        with pytest.raises(FormatError, match=str(path)):
            load_checkpoint(str(path))

    def test_unknown_layer_field(self, tmp_path):
        path = tmp_path / "bad.npz"
        layer = {"type": "dense", "in_dim": 2, "out_dim": 2, "activation": "none", "color": "red"}
        header = {"format": "switchdistill-net", "version": 1, "layers": [layer]}
        write_archive(path, json.dumps(header).encode(), w0=np.zeros((2, 2)), b0=np.zeros(2))
        with pytest.raises(FormatError, match=str(path)):
            load_checkpoint(str(path))

    def test_missing_weight_array(self, tmp_path):
        net = init_params(mlp(3, (4,), 2), 0)
        good = str(tmp_path / "good.npz")
        save_checkpoint(good, net)
        with np.load(good) as data:
            arrays = {k: data[k] for k in data.files if k != "w0"}
        path = tmp_path / "bad.npz"
        np.savez(str(path), **arrays)
        with pytest.raises(FormatError, match=str(path)):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_header_and_arrays_that_disagree_name_the_file(self, tmp_path, damage):
        path = tmp_path / "bad.npz"
        damaged_checkpoint(path, damage)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: malformed checkpoint \\(ShapeError: "):
            load_checkpoint(str(path))
