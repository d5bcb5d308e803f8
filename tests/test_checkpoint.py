import json
import struct

import numpy as np
import pytest

from shotrope import checkpoint as C
from shotrope.tensor import ConfigError, Tensor


class TestTensorContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        named = {
            "a/w": rng.standard_normal((3, 5)).astype(np.float32),
            "a/b": rng.standard_normal(5).astype(np.float32),
            "scalarish": np.float32(2.5),
        }
        path = tmp_path / "t.ecsh"
        C.save_tensors(path, named)
        loaded = C.load_tensors(path)
        assert list(loaded) == list(named)
        for k in named:
            # scalars are stored as length-1 vectors
            expect = np.atleast_1d(np.asarray(named[k], dtype=np.float32))
            assert np.array_equal(loaded[k], expect)
            assert loaded[k].dtype == np.float32

    def test_order_preserved(self, tmp_path):
        named = {f"t{i}": np.zeros(1, dtype=np.float32) for i in (3, 1, 2)}
        path = tmp_path / "t.ecsh"
        C.save_tensors(path, named)
        assert list(C.load_tensors(path)) == ["t3", "t1", "t2"]

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.ecsh"
        C.save_tensors(path, {"x": np.arange(4, dtype=np.float32).reshape(2, 2)})
        raw = path.read_bytes()
        assert raw[:4] == b"ECSH"
        version, count = struct.unpack("<II", raw[4:12])
        assert version == 1
        assert count == 1
        (nlen,) = struct.unpack("<H", raw[12:14])
        assert raw[14 : 14 + nlen] == b"x"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ecsh"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            C.load_tensors(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.ecsh"
        path.write_bytes(b"ECSH" + struct.pack("<II", 99, 0))
        with pytest.raises(ConfigError):
            C.load_tensors(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "t.ecsh"
        C.save_tensors(path, {"x": np.zeros((4, 4), dtype=np.float32)})
        raw = path.read_bytes()
        (tmp_path / "cut.ecsh").write_bytes(raw[:-8])
        with pytest.raises(ConfigError):
            C.load_tensors(tmp_path / "cut.ecsh")


class TestCheckpoint:
    def test_roundtrip_with_config(self, tmp_path):
        params = {
            "w": Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True),
            "b": np.zeros(2, dtype=np.float32),
        }
        cfg = {"variant": "full", "d_model": 128}
        path = tmp_path / "ckpt.ecsh"
        C.save_checkpoint(path, params, cfg)
        tensors, loaded_cfg = C.load_checkpoint(path)
        assert np.array_equal(tensors["w"], np.ones((2, 2)))
        assert loaded_cfg == cfg

    def test_sidecar_is_json(self, tmp_path):
        path = tmp_path / "ckpt.ecsh"
        C.save_checkpoint(path, {"w": np.zeros(1, dtype=np.float32)}, {"k": 1})
        side = json.loads(open(C.sidecar_path(path)).read())
        assert side == {"k": 1}

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "ckpt.ecsh"
        C.save_tensors(path, {"w": np.ones(2, dtype=np.float32)})
        before = path.read_bytes()
        with pytest.raises(ConfigError):
            C.save_tensors(path, {"w": np.zeros(2, dtype=np.float32), "x" * 70000: np.zeros(1)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.ecsh"]
