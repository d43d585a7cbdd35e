import json
import struct

import numpy as np
import pytest

from flowig.checkpoint import _MAGIC, load_checkpoint, save_checkpoint
from flowig.encoder import DISENTANGLED, init_params
from flowig.errors import DataError

from conftest import randomize_params, small_config


@pytest.fixture()
def model():
    cfg = small_config(20, DISENTANGLED)
    params = randomize_params(init_params(cfg), np.random.default_rng(0))
    return cfg, params


def test_roundtrip(tmp_path, model):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params)
    cfg2, params2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert sorted(params2) == sorted(params)
    for k in params:
        np.testing.assert_array_equal(params[k], params2[k])


def test_byte_deterministic(tmp_path, model):
    cfg, params = model
    save_checkpoint(tmp_path / "a.ckpt", cfg, params)
    save_checkpoint(tmp_path / "b.ckpt", cfg, dict(reversed(list(params.items()))))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError, match="not a flowig checkpoint"):
        load_checkpoint(path)


def test_trailing_bytes(tmp_path, model):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path)


def _section_cuts(data: bytes) -> list[int]:
    """Byte counts that end a truncated copy at and inside every section."""
    magic = len(_MAGIC)
    (hlen,) = struct.unpack_from("<Q", data, magic)
    head_end = magic + 8 + hlen
    return [
        0,
        magic // 2,
        magic,                  # nothing after the magic
        magic + 4,              # inside the length field
        magic + 8,              # nothing after the length field
        magic + 8 + hlen // 2,  # inside the header
        head_end,               # nothing after the header
        head_end + 4,           # inside the first tensor
        head_end + 8,           # after one value
        len(data) - 1,          # inside the last tensor
    ]


def test_truncated_at_every_section_raises_data_error(tmp_path, model):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params)
    data = path.read_bytes()
    for cut in _section_cuts(data):
        bad = tmp_path / f"cut{cut}.ckpt"
        bad.write_bytes(data[:cut])
        with pytest.raises(DataError):
            load_checkpoint(bad)


def _rewrite_header(path, header) -> None:
    """Replace the JSON header; a str is written as is, anything else as JSON."""
    data = path.read_bytes()
    magic = len(_MAGIC)
    (hlen,) = struct.unpack_from("<Q", data, magic)
    tensors = data[magic + 8 + hlen :]
    text = header if isinstance(header, str) else json.dumps(header)
    head = text.encode("utf-8")
    path.write_bytes(_MAGIC + struct.pack("<Q", len(head)) + head + tensors)


def _header(path) -> dict:
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data, len(_MAGIC))
    return json.loads(data[len(_MAGIC) + 8 : len(_MAGIC) + 8 + hlen])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda h: "{not json",
        lambda h: [1, 2],
        lambda h: {**h, "config": {**h["config"], "botnet": 1}},
        lambda h: {**h, "config": {**h["config"], "heads": 3}},
        lambda h: {"config": h["config"]},
        lambda h: {**h, "tensors": [{"name": "x", "shape": [-2, -4]}]},
    ],
    ids=["not-json", "not-object", "unknown-key", "bad-value", "no-tensors", "negative-shape"],
)
def test_corrupt_header_raises_data_error(tmp_path, model, corrupt):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params)
    _rewrite_header(path, corrupt(_header(path)))
    with pytest.raises(DataError):
        load_checkpoint(path)
