"""Byte-deterministic parameter checkpoints.

A zip-free container (JSON header + raw little-endian tensor bytes) so
identical training runs produce identical files, with no timestamps.
"""
from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, Params
from .errors import ConfigError, DataError

_MAGIC = b"FLOWIG-CKPT-1\n"


def save_checkpoint(path, config: EncoderConfig, params: Params) -> None:
    names = sorted(params)
    header = {
        "config": dataclasses.asdict(config),
        "tensors": [
            {"name": n, "shape": list(params[n].shape)} for n in names
        ],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        for n in names:
            f.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[EncoderConfig, Params]:
    """Read a checkpoint; a truncated or corrupt file raises DataError."""
    data = Path(path).read_bytes()
    if not data.startswith(_MAGIC):
        raise DataError(f"{path}: not a flowig checkpoint")
    off = len(_MAGIC)
    if len(data) < off + 8:
        raise DataError(f"{path}: checkpoint truncated in the header length")
    (hlen,) = struct.unpack_from("<Q", data, off)
    off += 8
    if len(data) < off + hlen:
        raise DataError(f"{path}: checkpoint truncated in the header")
    try:
        header = json.loads(data[off : off + hlen].decode("utf-8"))
        config = EncoderConfig(**header["config"])
        specs = [(str(t["name"]), tuple(int(d) for d in t["shape"])) for t in header["tensors"]]
    except (ValueError, TypeError, KeyError, ConfigError) as e:
        raise DataError(f"{path}: corrupt checkpoint header: {e}") from None
    off += hlen
    params: Params = {}
    for name, shape in specs:
        if min(shape, default=0) < 0:
            raise DataError(f"{path}: tensor {name} has a negative dimension")
        size = math.prod(shape)
        if len(data) < off + size * 8:
            raise DataError(f"{path}: checkpoint truncated in tensor {name}")
        arr = np.frombuffer(data, dtype="<f8", count=size, offset=off).reshape(shape)
        params[name] = arr.astype(np.float64)
        off += size * 8
    if off != len(data):
        raise DataError(f"{path}: trailing bytes in checkpoint")
    return config, params
