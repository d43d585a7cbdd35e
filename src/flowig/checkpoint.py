"""Byte-deterministic parameter checkpoints, and the atomic artifact write.

A zip-free container (JSON header + raw little-endian tensor bytes) so
identical training runs produce identical files, with no timestamps.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, Params, param_shapes
from .errors import ConfigError, DataError

_MAGIC = b"FLOWIG-CKPT-1\n"


def write_artifact(path, data: bytes | str) -> None:
    """Write `data` (str as UTF-8) to a temp sibling, then rename it over `path`,
    so a crash or a failed write never leaves a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as e:
        if e.filename is None:  # ENOSPC, EDQUOT, EIO name no file
            e.filename = path
        raise
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, config: EncoderConfig, params: Params, tokens) -> None:
    names = sorted(params)
    header = {
        "config": dataclasses.asdict(config),
        "tensors": [
            {"name": n, "shape": list(params[n].shape)} for n in names
        ],
        "tokens": list(tokens),  # the vocabulary in id order, which tok_emb's rows embed
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = [np.ascontiguousarray(params[n], dtype="<f8").tobytes() for n in names]
    write_artifact(path, b"".join([_MAGIC, struct.pack("<Q", len(head)), head, *tensors]))


def load_checkpoint(path, tokens=None) -> tuple[EncoderConfig, Params]:
    """Read a checkpoint; a truncated, corrupt or mismatched file raises DataError.

    The header's tensor list must be the config's parameter layout and the
    file exactly as long as that layout needs before any tensor is read; its
    token list must be `config.vocab_size` long, and equal to `tokens` if given.
    """
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
    # every layer adds tensors, so this bounds the layout by the file, not the header
    if config.layers > len(specs):
        raise DataError(f"{path}: header claims {config.layers} layers"
                        f" but lists {len(specs)} tensors")
    layout = sorted(param_shapes(config).items())
    if specs != layout:
        expected, found = dict(layout), dict(specs)
        bad = sorted(n for n in expected.keys() | found.keys() if expected.get(n) != found.get(n))
        raise DataError(f"{path}: tensors do not match the checkpoint's config: "
                        f"{', '.join(bad) or 'listed out of order or twice'}")
    counts = [math.prod(shape) for _, shape in layout]
    size = off + 8 * sum(counts)
    if len(data) != size:
        what = "truncated" if len(data) < size else "has trailing bytes"
        raise DataError(f"{path}: checkpoint {what} ({len(data)} bytes, expected {size})")
    saved = header.get("tokens")
    if not isinstance(saved, list) or len(saved) != config.vocab_size:
        raise DataError(f"{path}: header has no list of its {config.vocab_size}"
                        " vocabulary tokens; retrain it")
    if tokens is not None and list(tokens) != saved:
        pairs = enumerate(itertools.zip_longest(saved, tokens))
        i, (was, now) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        raise DataError(f"{path}: trained on another vocabulary: token {i} is {was!r},"
                        f" this run's is {now!r}")
    values = np.split(np.frombuffer(data, dtype="<f8", offset=off), np.cumsum(counts)[:-1])
    params = {name: v.reshape(shape).astype(np.float64) for (name, shape), v in zip(layout, values)}
    return config, params
