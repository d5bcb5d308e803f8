"""Bit-exact binary tensor container.

Layout: magic `ECSH`, u32 version, u32 tensor count, then per tensor:
u16 name length, UTF-8 name, u8 rank, u32 per-dim extents, raw
little-endian float32 data.  A JSON sidecar carries the config.  Both
files are written to a temporary name and renamed into place, so a crash
never leaves a partial file under the final name.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import OrderedDict

import numpy as np

from .tensor import ConfigError

MAGIC = b"ECSH"
VERSION = 1


def _write_atomic(path, mode, write):
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj, **dump_kwargs):
    """Write obj as JSON atomically."""
    _write_atomic(path, "w", lambda fh: json.dump(obj, fh, **dump_kwargs))


def save_tensors(path, named):
    _write_atomic(path, "wb", lambda fh: _write_tensors(fh, named))


def _write_tensors(fh, named):
    fh.write(MAGIC)
    fh.write(struct.pack("<II", VERSION, len(named)))
    for name, arr in named.items():
        data = np.ascontiguousarray(np.asarray(arr, dtype="<f4"))
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ConfigError(f"tensor name too long: {name!r}")
        if data.ndim > 0xFF:
            raise ConfigError("tensor rank exceeds format limit")
        fh.write(struct.pack("<H", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<B", data.ndim))
        for dim in data.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(data.tobytes())


def open_input(path, what, mode="r"):
    """path, a file named what, opened to read; a path that is missing or that
    cannot be opened (a directory, say) raises ConfigError."""
    try:
        return open(path, mode)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc


def _read(fh, n, path):
    """The next n bytes; a file with fewer left is truncated, however large n is."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ConfigError(f"{path}: truncated tensor file")
    return fh.read(n)


def load_tensors(path):
    """Read a tensor file; a missing, unreadable or malformed file raises ConfigError."""
    out = OrderedDict()
    with open_input(path, "tensor file", "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ConfigError(f"{path}: not an ECSH tensor file")
        version, count = struct.unpack("<II", _read(fh, 8, path))
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        for i in range(count):
            (nlen,) = struct.unpack("<H", _read(fh, 2, path))
            try:
                name = _read(fh, nlen, path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: tensor {i} has an invalid name") from exc
            (rank,) = struct.unpack("<B", _read(fh, 1, path))
            dims = struct.unpack(f"<{rank}I", _read(fh, 4 * rank, path))
            raw = _read(fh, 4 * math.prod(dims), path)
            out[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        if fh.read(1):
            raise ConfigError(f"{path}: trailing bytes after {count} tensors")
    return out


def sidecar_path(path):
    return str(path) + ".json"


def save_checkpoint(path, params, config):
    named = OrderedDict(
        (name, p.data if hasattr(p, "data") else p) for name, p in params.items()
    )
    save_tensors(path, named)
    write_json(sidecar_path(path), config, indent=2, sort_keys=True)


def load_checkpoint(path):
    """Tensors and sidecar config; a missing or malformed file raises ConfigError."""
    tensors = load_tensors(path)
    sidecar = sidecar_path(path)
    try:
        with open_input(sidecar, "checkpoint sidecar") as fh:
            config = json.load(fh)
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ConfigError(f"checkpoint sidecar {sidecar} is not valid JSON: {exc}") from exc
    return tensors, config
