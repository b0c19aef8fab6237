"""Every artifact file surgflow writes: the binary formats (WLCP checkpoints,
WLFT feature files, WLFG frame grids) and the text ones (JSON, JSONL, CSV, SVG,
vocabularies).

All integers are little-endian, and every payload is f32. Layouts:
  WLCP: magic "WLCP", u32 version, u32 entry count, then per entry
        {u32 name length, utf-8 name bytes, u8 rank, u64 dims..., payload}.
  WLFT: magic "WLFT", u32 version, u64 length, u64 dim, payload [length, dim].
  WLFG: magic "WLFG", u64 frames, u64 height, u64 width, u64 channels, then
        the payload [frames, height, width, channels]; it has no version.

Every writer goes through `write_atomic`, so an interrupted write leaves the
previous file (or none), never a truncated one.  This is the only module that
opens a file for writing.
"""

from __future__ import annotations

import csv
import io
import json
import math
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
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


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


def _need(path, raw: bytes, end: int) -> None:
    """Raise InputError naming `path` when `raw` ends before byte `end`."""
    if end > len(raw):
        raise InputError(f"{path}: truncated file ({len(raw)} bytes, "
                         f"needs at least {end})")


def _unpack(path, fmt: str, raw: bytes, off: int) -> tuple:
    """struct.unpack_from(fmt, raw, off) for a file that may be truncated."""
    _need(path, raw, off + struct.calcsize(fmt))
    return struct.unpack_from(fmt, raw, off)


def read_checkpoint(path) -> Dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: bad checkpoint magic")
    version, count = _unpack(path, "<II", raw, 4)
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    off = 12
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = _unpack(path, "<I", raw, off)
        off += 4
        _need(path, raw, off + nlen)
        try:
            name = raw[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise InputError(f"{path}: entry name at byte {off} is not UTF-8")
        off += nlen
        (rank,) = _unpack(path, "<B", raw, off)
        off += 1
        dims = _unpack(path, f"<{rank}Q", raw, off)
        off += 8 * rank
        n = math.prod(dims)  # exact: a corrupt dim cannot wrap around
        _need(path, raw, off + 4 * n)
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
    version, length, dim = _unpack(path, "<IQQ", raw, 4)
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
    t, h, w, c = _unpack(path, "<QQQQ", raw, 4)
    expect = 36 + 4 * t * h * w * c
    if len(raw) != expect:
        raise InputError(f"{path}: frame-grid payload length mismatch")
    return np.frombuffer(raw, dtype="<f4", offset=36).reshape(t, h, w, c).copy()
