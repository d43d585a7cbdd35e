"""The benchmark's tracer must find and measure what it wraps in flowig.

`bench/tracing.py` looks each `(module, name)` of its `TRACED` table up with
`getattr` when a traced pass starts, and its probes read the arguments and
results of the wrapped calls, so a renamed function or a changed shape would
only surface in a benchmark run; these tests surface it in the package's own
suite.
"""
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from flowig import attribution, encoder, textualize, tokenizer, training
from flowig.flow_data import FlowRecord

from conftest import randomize_params, small_config

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_names() -> list[tuple[str, str]]:
    return [(module, entry[0]) for module, entries in _tracing().TRACED.items()
            for entry in entries]


@pytest.mark.parametrize("module, name", _traced_names(), ids=lambda v: v)
def test_traced_name_resolves(module, name):
    fn = getattr(importlib.import_module(f"flowig.{module}"), name, None)
    assert callable(fn), f"bench/tracing.py wraps flowig.{module}.{name}, which does not exist"


def test_probes_read_a_mixed_length_pass(vocab, schema, monkeypatch):
    # tokenize_rows -> evaluate_examples, then tokenize_rows ->
    # integrated_gradients for two of the flows, as `evaluate` and `explain`
    # run them, under the tracer, on flows whose values render to different
    # token lengths; the last one is long enough that its IG path takes more
    # than one encoder call after the one for F(x) and F(x')
    tracing = _tracing()
    cfg = small_config(vocab.size, max_seq_len=128, d_model=16, d_ff=24)
    # 512 positions per encoder call, as the default budget gives at d_model 64
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 512 * cfg.d_model)
    monkeypatch.setattr(encoder, "_WORKERS", 1)  # and one call at a time
    params = randomize_params(encoder.init_params(cfg), np.random.default_rng(4))
    rng = np.random.default_rng(6)
    records = [FlowRecord(tuple(float(rng.integers(1, 10 ** int(rng.integers(1, 5))))
                                for _ in range(schema.d)), "BENIGN") for _ in range(6)]
    records.append(FlowRecord((123456789.123,) * schema.d, "BENIGN"))
    steps = 7
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        flows = [textualize.serialize(rec, schema) for rec in records]
        batch = tokenizer.tokenize_rows(flows, vocab, 128,
                                        [i % 3 for i in range(len(flows))])
        training.evaluate_examples(params, cfg, batch)
        chosen = tokenizer.tokenize_rows([flows[0], flows[-1]], vocab, 128,
                                         [0, (len(flows) - 1) % 3])
        examples = [chosen.example(i) for i in range(len(chosen))]
        for e in examples:
            attribution.integrated_gradients(params, cfg, e, e.label,
                                             attribution.IGConfig(steps=steps))
    metrics = tracing.layer_metrics(tracer.spans)

    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["tokenizer.pad_share"] == 0
    assert len(set(batch.lengths.tolist())) > 1
    # evaluate_examples chunks the rows in stable length order
    order = np.argsort(batch.lengths, kind="stable")
    parts = encoder.row_chunks(batch.lengths[order], cfg.d_model)
    masks = [training._rows(batch, order[part])[1] for part in parts]
    masked = sum(m.size - m.sum() for m in masks)
    ig_lengths = [len(e.ids) for e in examples]
    positions = sum(m.size for m in masks) + sum((steps + 2) * n for n in ig_lengths)
    assert masked > 0
    assert metrics["encoder.pad_share"] == pytest.approx(masked / positions, rel=1e-12)
    calls = [1 + math.ceil(steps / max(1, 512 // n)) for n in ig_lengths]
    assert calls[0] == 2 and calls[1] > 2
    assert metrics["attribution.forward_calls_per_example"] == sum(calls) / 2
    assert metrics["attribution.forward_rows_per_example"] == steps + 2


def test_tokenize_probe_reads_a_row(vocab, schema):
    # no stage calls `tokenize`, so only this test sees its probe read the
    # row it returns: every position counted, none of them padding
    tracing = _tracing()
    tracer = tracing.Tracer()
    flow = textualize.serialize(FlowRecord(tuple(float(10 ** i) for i in range(schema.d)),
                                           "BENIGN"), schema)
    with tracing.installed(tracer):
        ex = tokenizer.tokenize(flow, vocab, 128, 1)
    [span] = [s for s in tracer.spans if s.name == "tokenizer.tokenize"]
    assert span.attrs == {"positions": len(ex.ids), "masked": 0}
    assert tracing.layer_metrics(tracer.spans)["tokenizer.pad_share"] == 0
