"""Every artifact file surgflow writes: the binary formats (WLCP checkpoints,
WLFT feature files, WLFG frame grids) and the text ones (JSON, JSONL, CSV, SVG,
vocabularies).

All integers are little-endian. WLCP layout:
  magic "WLCP", u32 version, u32 entry count, then per entry
  {u32 name length, utf-8 name bytes, u8 rank, u64 dims..., f32 payload}.

Every writer goes through `write_atomic`, so an interrupted write leaves the
previous file (or none), never a truncated one.  This is the only module that
opens a file for writing.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
import struct
from pathlib import Path
from typing import Dict, Iterable, Sequence

import numpy as np

from .errors import InputError

CHECKPOINT_MAGIC = b"WLCP"
FEATURE_MAGIC = b"WLFT"
FRAMEGRID_MAGIC = b"WLFG"
FORMAT_VERSION = 1


def write_atomic(path, *chunks: bytes) -> None:
    """Write `chunks` to a temporary file beside `path`, then rename it onto
    `path` with os.replace; on failure the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """CSV rows with the csv module's default CRLF line endings."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    write_text(path, buf.getvalue())


def write_checkpoint(path, entries: Dict[str, np.ndarray]) -> None:
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<II", FORMAT_VERSION, len(entries))
    for name, arr in entries.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        nb = name.encode("utf-8")
        buf += struct.pack("<I", len(nb))
        buf += nb
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        buf += arr.tobytes()
    write_atomic(path, buf)


def read_checkpoint(path) -> Dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: bad checkpoint magic")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    off = 12
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", raw, off)
        off += 4
        name = raw[off:off + nlen].decode("utf-8")
        off += nlen
        (rank,) = struct.unpack_from("<B", raw, off)
        off += 1
        dims = struct.unpack_from(f"<{rank}Q", raw, off)
        off += 8 * rank
        n = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(dims)
        off += 4 * n
        out[name] = arr.copy()
    if off != len(raw):
        raise InputError(f"{path}: trailing bytes in checkpoint")
    return out


def write_features(path, features: np.ndarray) -> None:
    """One video's [L, D] float32 feature matrix."""
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise InputError("features must be [L, D]")
    write_atomic(path, FEATURE_MAGIC,
                 struct.pack("<IQQ", FORMAT_VERSION, *features.shape),
                 features.tobytes())


def read_features(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != FEATURE_MAGIC:
        raise InputError(f"{path}: bad feature-file magic")
    version, length, dim = struct.unpack_from("<IQQ", raw, 4)
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported feature version {version}")
    expect = 24 + 4 * length * dim
    if len(raw) != expect:
        raise InputError(f"{path}: feature payload length mismatch")
    return np.frombuffer(raw, dtype="<f4", offset=24).reshape(length, dim).copy()


def write_frame_grid(path, frames: np.ndarray) -> None:
    """Raw [T, H, W, C] frame grid of unit-interval float32 intensities."""
    frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 4:
        raise InputError("frame grid must be [T, H, W, C]")
    write_atomic(path, FRAMEGRID_MAGIC, struct.pack("<QQQQ", *frames.shape),
                 frames.tobytes())


def read_frame_grid(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != FRAMEGRID_MAGIC:
        raise InputError(f"{path}: bad frame-grid magic")
    t, h, w, c = struct.unpack_from("<QQQQ", raw, 4)
    expect = 36 + 4 * t * h * w * c
    if len(raw) != expect:
        raise InputError(f"{path}: frame-grid payload length mismatch")
    return np.frombuffer(raw, dtype="<f4", offset=36).reshape(t, h, w, c).copy()
