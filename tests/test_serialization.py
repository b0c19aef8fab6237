"""Binary formats: byte-exact round-trips and corruption detection."""

import numpy as np
import pytest

from surgflow.errors import InputError
from surgflow.nn import Linear
from surgflow.rng import SessionRng
from surgflow.serialization import (read_checkpoint, read_features,
                                    read_frame_grid, write_checkpoint,
                                    write_features, write_frame_grid)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = SessionRng(0)
        entries = {
            "scalar": np.float32(3.5),
            "vec": rng.normal(1.0, (7,)),
            "mat": rng.normal(1.0, (3, 4)),
            "cube": rng.normal(1.0, (2, 3, 4)),
        }
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, entries)
        out = read_checkpoint(path)
        assert set(out) == set(entries)
        for name in entries:
            np.testing.assert_array_equal(out[name],
                                          np.asarray(entries[name], np.float32))

    def test_write_is_deterministic(self, tmp_path):
        entries = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
        write_checkpoint(tmp_path / "x.wlcp", entries)
        write_checkpoint(tmp_path / "y.wlcp", entries)
        assert (tmp_path / "x.wlcp").read_bytes() == (tmp_path / "y.wlcp").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wlcp"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(InputError):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, {"a": np.zeros(2, np.float32)})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(InputError):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.wlcp"
        write_checkpoint(path, {"a": np.zeros(2, np.float32)})
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError):
            read_checkpoint(path)


class TestLoadStateDict:
    def layer(self):
        return Linear(3, 2, SessionRng(1))

    def test_round_trip(self):
        src = self.layer()
        dst = Linear(3, 2, SessionRng(2))
        dst.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(dst.weight.data, src.weight.data)

    def test_missing_key_rejected(self):
        state = self.layer().state_dict()
        del state["bias"]
        with pytest.raises(KeyError, match=r"missing.*'bias'"):
            self.layer().load_state_dict(state)

    def test_unexpected_key_rejected(self):
        state = self.layer().state_dict()
        state["extra"] = np.zeros(2, np.float32)
        with pytest.raises(KeyError, match=r"unexpected.*'extra'"):
            self.layer().load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        state = self.layer().state_dict()
        state["weight"] = np.zeros((2, 3), np.float32)
        with pytest.raises(ValueError, match="weight"):
            self.layer().load_state_dict(state)


class TestFeatures:
    def test_round_trip(self, tmp_path):
        feats = SessionRng(1).normal(1.0, (11, 5))
        path = tmp_path / "f.wlft"
        write_features(path, feats)
        np.testing.assert_array_equal(read_features(path), feats)

    def test_rank_enforced(self, tmp_path):
        with pytest.raises(InputError):
            write_features(tmp_path / "f.wlft", np.zeros((2, 2, 2), np.float32))

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "f.wlft"
        write_features(path, np.zeros((4, 3), np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(InputError):
            read_features(path)


class TestFrameGrid:
    def test_round_trip(self, tmp_path):
        frames = SessionRng(2).uniform(0, 1, (5, 4, 6, 3))
        path = tmp_path / "v.wlfg"
        write_frame_grid(path, frames)
        np.testing.assert_array_equal(read_frame_grid(path), frames)

    def test_rank_enforced(self, tmp_path):
        with pytest.raises(InputError):
            write_frame_grid(tmp_path / "v.wlfg", np.zeros((2, 2, 2), np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.wlfg"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(InputError):
            read_frame_grid(path)
