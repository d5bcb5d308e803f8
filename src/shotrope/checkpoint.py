"""Bit-exact binary tensor container.

Layout: magic `ECSH`, u32 version, u32 tensor count, then per tensor:
u16 name length, UTF-8 name, u8 rank, u32 per-dim extents, raw
little-endian float32 data.  A JSON sidecar carries the config.  Both
files are written to a temporary name and renamed into place, so a crash
never leaves a partial file under the final name.
"""

from __future__ import annotations

import json
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


def load_tensors(path):
    out = OrderedDict()
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ConfigError(f"{path}: not an ECSH tensor file")
        version, count = struct.unpack("<II", fh.read(8))
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        for _ in range(count):
            (nlen,) = struct.unpack("<H", fh.read(2))
            name = fh.read(nlen).decode("utf-8")
            (rank,) = struct.unpack("<B", fh.read(1))
            dims = struct.unpack(f"<{rank}I", fh.read(4 * rank)) if rank else ()
            n = int(np.prod(dims)) if dims else 1
            raw = fh.read(4 * n)
            if len(raw) != 4 * n:
                raise ConfigError(f"{path}: truncated tensor data for {name!r}")
            out[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
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
    tensors = load_tensors(path)
    with open(sidecar_path(path)) as fh:
        config = json.load(fh)
    return tensors, config
