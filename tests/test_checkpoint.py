import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowig.checkpoint import _MAGIC, load_checkpoint, save_checkpoint, write_artifact
from flowig.encoder import DISENTANGLED, init_params
from flowig.errors import DataError

from conftest import randomize_params, small_config


# the vocabulary a checkpoint records, one token per tok_emb row
TOKENS = tuple(f"t{i}" for i in range(20))


@pytest.fixture()
def model():
    cfg = small_config(len(TOKENS), DISENTANGLED)
    params = randomize_params(init_params(cfg), np.random.default_rng(0))
    return cfg, params


def test_roundtrip(tmp_path, model):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
    cfg2, params2 = load_checkpoint(path)
    assert load_checkpoint(path, TOKENS)[0] == cfg2 == cfg
    assert _header(path)["tokens"] == list(TOKENS)
    assert sorted(params2) == sorted(params)
    for k in params:
        np.testing.assert_array_equal(params[k], params2[k])


def test_byte_deterministic(tmp_path, model):
    cfg, params = model
    save_checkpoint(tmp_path / "a.ckpt", cfg, params, TOKENS)
    save_checkpoint(tmp_path / "b.ckpt", cfg, dict(reversed(list(params.items()))), TOKENS)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError, match="not a flowig checkpoint"):
        load_checkpoint(path)


def test_trailing_bytes(tmp_path, model):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
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
    save_checkpoint(path, cfg, params, TOKENS)
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
        lambda h: {**h, "config": {**h["config"], "heads": 0}},
        lambda h: {"config": h["config"]},
        lambda h: {**h, "tensors": [{"name": "x", "shape": [-2, -4]}]},
        lambda h: {**h, "tensors": h["tensors"][::-1]},
        # JSON numbers that are not the integers the config needs
        *(lambda h, k=key: {**h, "config": {**h["config"], k: float(h["config"][k])}}
          for key in ("layers", "d_model", "max_seq_len", "vocab_size", "heads")),
        lambda h: {**h, "config": {**h["config"], "rel_window": 1.5}},
        lambda h: {**h, "config": {**h["config"], "layers": True}},
        lambda h: {**h, "config": {**h["config"], "dropout_rate": False}},
        lambda h: {**h, "config": {**h["config"], "use_final_norm": "no"}},
    ],
    ids=["not-json", "not-object", "unknown-key", "bad-value", "zero-heads", "no-tensors",
         "negative-shape", "reordered", "float-layers", "float-d-model", "float-max-seq-len",
         "float-vocab-size", "float-heads", "fractional-rel-window", "bool-layers",
         "bool-dropout-rate", "str-final-norm"],
)
def test_corrupt_header_raises_data_error(tmp_path, model, corrupt):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
    _rewrite_header(path, corrupt(_header(path)))
    with pytest.raises(DataError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {k: v for k, v in h.items() if k != "tokens"},
        lambda h: {**h, "tokens": h["tokens"][:-1]},
        lambda h: {**h, "tokens": "".join(h["tokens"])},
    ],
    ids=["absent", "short", "not-a-list"],
)
def test_token_list_must_cover_the_vocabulary(tmp_path, model, edit):
    # a checkpoint written before headers listed their tokens has none
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
    _rewrite_header(path, edit(_header(path)))
    with pytest.raises(DataError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: header has no list of its 20 vocabulary tokens; retrain it"


@pytest.mark.parametrize(
    "tokens, difference",
    [
        (TOKENS[:3] + ("x",) + TOKENS[4:], "token 3 is 't3', this run's is 'x'"),
        (TOKENS[::-1], "token 0 is 't0', this run's is 't19'"),
        (TOKENS + ("t20",), "token 20 is None, this run's is 't20'"),
        (TOKENS[:-1], "token 19 is 't19', this run's is None"),
    ],
    ids=["one-renamed", "reversed", "one-more", "one-fewer"],
)
def test_another_vocabulary_refused(tmp_path, model, tokens, difference):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
    with pytest.raises(DataError) as info:
        load_checkpoint(path, tokens)
    assert str(info.value) == f"{path}: trained on another vocabulary: {difference}"


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: {k: v for k, v in p.items() if k != "head.w"},
        lambda p: {**p, "layers.9.attn.wq": p["layers.0.attn.wq"]},
        lambda p: {**p, "head.w": p["head.w"][:-1]},
    ],
    ids=["missing", "extra", "misshapen"],
)
def test_tensors_must_match_config(tmp_path, model, edit):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, edit(params), TOKENS)
    with pytest.raises(DataError, match="do not match"):
        load_checkpoint(path)


def test_oversized_header_config_refused_before_allocating(tmp_path, model):
    # the header claims a huge vocabulary over a small model's tensors; the
    # layout check must refuse it without building that vocabulary's table
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
    header = _header(path)
    _rewrite_header(path, {**header, "config": {**header["config"], "vocab_size": 800000}})
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="tok_emb"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_layer_count_beyond_the_tensor_list_refused_before_building_the_layout(tmp_path, model):
    # every layer adds tensors, so a header cannot claim more layers than it
    # lists tensors; the layout is never built for the claimed count
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
    header = _header(path)
    _rewrite_header(path, {**header, "config": {**header["config"], "layers": 20000}})
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="claims 20000 layers but lists"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _write_half_then_fail(self, data):
    with open(self, "wb") as f:
        f.write(data[: len(data) // 2])
    raise OSError("disk full")


def _fail_replace(src, dst):
    raise OSError("crashed before the rename")


@pytest.mark.parametrize(
    "target, name, fail",
    [(Path, "write_bytes", _write_half_then_fail), (os, "replace", _fail_replace)],
    ids=["write", "rename"],
)
def test_failed_write_keeps_the_old_file(tmp_path, model, monkeypatch, target, name, fail):
    cfg, params = model
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, TOKENS)
    report = tmp_path / "report.md"
    write_artifact(report, "old report\n")
    before = path.read_bytes()
    newer = randomize_params(params, np.random.default_rng(1))
    monkeypatch.setattr(target, name, fail)
    with pytest.raises(OSError):
        save_checkpoint(path, cfg, newer, TOKENS)
    with pytest.raises(OSError):
        write_artifact(report, "new report\n")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert report.read_text() == "old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "report.md"]
