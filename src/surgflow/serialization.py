"""Every artifact file surgflow writes: the one binary format, WLCP, and the
text ones (JSON, JSONL, CSV, SVG, vocabularies).

A WLCP file is a list of named arrays, each float32 or uint8.  All integers
are little-endian:
  magic "WLCP", u32 version (2), u32 entry count, then per entry
  {u32 name length, utf-8 name bytes, u8 dtype code (0 float32, 1 uint8),
   u8 rank, u64 dims..., payload}.
Version-1 files have no dtype byte and hold float32 only; they still read.
A checkpoint (.wlcp) holds one entry per parameter tensor, a feature table
exactly one rank-2 float32 entry "features" [clips, dim], and a frame
grid (.wlfg) exactly two entries: a rank-4 uint8 "frames" [frames, height,
width, channels] of 8-bit levels, which `unit_frames` turns into intensities,
and a 0-d float32 "fps", the frame rate the video is timed at.

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

MAGIC = b"WLCP"
FORMAT_VERSION = 2
DTYPES = (np.dtype("<f4"), np.dtype("u1"))  # indexed by the entry's dtype code


def write_atomic(path, *chunks) -> None:
    """Write `chunks` (bytes-like: bytes, or a C-contiguous array, written
    without a copy) to a temporary file beside `path`, then rename it onto
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


def write_svg(path, width: int, height: int, elements: Iterable[str]) -> None:
    """An SVG document of the given pixel size, one element per line."""
    write_text(path, "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">', *elements, "</svg>"]))


def _write_wlcp(path, entries: Dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(entries))]
    for name, arr in entries.items():
        arr = np.asarray(arr)
        code = int(arr.dtype == np.uint8)
        arr = np.asarray(arr, dtype=DTYPES[code], order="C")
        nb = name.encode("utf-8")
        chunks += [struct.pack(f"<I{len(nb)}sBB{arr.ndim}Q", len(nb), nb,
                               code, arr.ndim, *arr.shape), arr]
    write_atomic(path, *chunks)


def _need(path, raw: bytes, end: int) -> None:
    """Raise InputError naming `path` when `raw` ends before byte `end`."""
    if end > len(raw):
        raise InputError(f"{path}: truncated file ({len(raw)} bytes, "
                         f"needs at least {end})")


def _unpack(path, fmt: str, raw: bytes, off: int) -> tuple:
    """struct.unpack_from(fmt, raw, off) for a file that may be truncated."""
    _need(path, raw, off + struct.calcsize(fmt))
    return struct.unpack_from(fmt, raw, off)


def _read_wlcp(path) -> Dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise InputError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, count = _unpack(path, "<II", raw, 4)
    if version not in (1, FORMAT_VERSION):
        raise InputError(f"{path}: unsupported format version {version}")
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
        code = 0
        if version > 1:
            (code,) = _unpack(path, "<B", raw, off)
            off += 1
            if code >= len(DTYPES):
                raise InputError(f"{path}: entry {name!r} has unknown dtype "
                                 f"code {code}")
        dtype = DTYPES[code]
        (rank,) = _unpack(path, "<B", raw, off)
        off += 1
        dims = _unpack(path, f"<{rank}Q", raw, off)
        off += 8 * rank
        n = math.prod(dims)  # exact: a corrupt dim cannot wrap around
        _need(path, raw, off + dtype.itemsize * n)
        arr = np.frombuffer(raw, dtype=dtype, count=n, offset=off).reshape(dims)
        off += dtype.itemsize * n
        out[name] = arr.copy()
    if off != len(raw):
        raise InputError(f"{path}: trailing bytes")
    return out


def _exact_entries(path, entries: dict, ranks: dict) -> dict:
    """`entries`, read from `path`, when they are exactly the names of
    `ranks`, each of its rank."""
    if {k: v.ndim for k, v in entries.items()} != ranks:
        found = [f"{k!r} of rank {v.ndim}" for k, v in entries.items()]
        want = " and ".join(f"one rank-{r} entry {k!r}" for k, r in ranks.items())
        raise InputError(f"{path}: expected {want}, found "
                         f"{len(found)}: {', '.join(found[:3])}"
                         f"{', ...' if len(found) > 3 else ''}")
    return entries


def write_checkpoint(path, entries: Dict[str, np.ndarray]) -> None:
    _write_wlcp(path, entries)


def read_checkpoint(path) -> Dict[str, np.ndarray]:
    return _read_wlcp(path)


def write_features(path, features: np.ndarray) -> None:
    """One video's [L, D] float32 feature matrix."""
    if np.ndim(features) != 2:
        raise InputError("features must be [L, D]")
    _write_wlcp(path, {"features": features})


def read_features(path) -> np.ndarray:
    return _exact_entries(path, _read_wlcp(path), {"features": 2})["features"]


def unit_frames(frames: np.ndarray) -> np.ndarray:
    """Float32 intensities of a frame array.  8-bit levels k map to
    k / 255 computed in float32, the one rule by which a frame grid's levels
    become model input; any other dtype is cast to float32 as it is."""
    if frames.dtype == np.uint8:
        return np.divide(frames, np.float32(255), dtype=np.float32)
    return frames.astype(np.float32)


def write_frame_grid(path, frames: np.ndarray, fps: float) -> None:
    """Raw [T, H, W, C] frame grid of uint8 levels, timed at `fps` frames
    per second.  Any other dtype, or a rate that is not finite and positive
    or that float32 does not hold exactly, is refused."""
    frames = np.asarray(frames)
    if frames.ndim != 4:
        raise InputError("frame grid must be [T, H, W, C]")
    if frames.dtype != np.uint8:
        raise InputError(f"frame grid must hold uint8 levels, got {frames.dtype}")
    if not (math.isfinite(fps) and fps > 0 and float(np.float32(fps)) == fps):
        raise InputError(f"frame grid fps must be a finite positive number "
                         f"that float32 holds exactly, not {fps!r}")
    _write_wlcp(path, {"frames": frames, "fps": np.float32(fps)})


def read_video(path) -> tuple:
    """The uint8 [T, H, W, C] levels and the frame rate of the grid at `path`,
    refusing a grid from an older build, an empty one or a bad fps."""
    entries = _read_wlcp(path)
    frames = entries.get("frames", np.empty(0))
    if frames.ndim == 4 and frames.dtype != np.uint8:
        raise InputError(f"{path}: frame grid holds {frames.dtype}, expected "
                         f"uint8 levels; regenerate the corpus")
    if frames.ndim == 4 and "fps" not in entries:
        raise InputError(f"{path}: frame grid holds no fps; regenerate the corpus")
    fps = float(_exact_entries(path, entries, {"frames": 4, "fps": 0})["fps"])
    if len(frames) == 0:
        raise InputError(f"{path}: frame grid holds no frames")
    if not (math.isfinite(fps) and fps > 0):
        raise InputError(f"{path}: frame grid fps must be a finite positive "
                         f"number, not {fps!r}")
    return frames, fps


def read_frame_grid(path) -> np.ndarray:
    """The frames of `read_video(path)`."""
    return read_video(path)[0]
