"""Tests of the benchmark itself: `python3 -m pytest bench`."""
from __future__ import annotations

import importlib

import pytest

import cicids
import run
import tracing
import workloads
from flowig import encoder
from tracing import Span


def _config(variant):
    return encoder.EncoderConfig(
        vocab_size=10, max_seq_len=3, layers=1, heads=2, d_model=4, d_ff=8,
        attention_variant=variant, rel_window=1,
    )


def test_forward_flop_matches_hand_count():
    # B=2, L=3, D=4, H=2 (dh=2), F=8, R=3, 3 classes; 2 FLOPs per multiply-add
    q_k_v_o = 4 * (2 * (2 * 3) * 4 * 4)       # (B*L x D) @ (D x D), four times
    scores_and_av = 2 * (2 * 2 * 2 * 3 * 2 * 3)  # B*H of (L x dh) @ (dh x L), twice
    ffn = 2 * (2 * (2 * 3) * 4 * 8)           # (B*L x D) @ (D x F) and back
    head = 2 * 2 * 4 * 3                      # (B x D) @ (D x 3)
    absolute = q_k_v_o + scores_and_av + ffn + head
    assert absolute == 1872
    rel_projections = 2 * (2 * 3 * 4 * 4)     # (R x D) @ (D x D) for kr and qr
    c2p_p2c = 2 * (2 * 2 * 2 * 3 * 2 * 3)     # B*H of (L x dh) @ (dh x R), twice
    assert tracing.forward_flop(_config("absolute"), 2, 3) == absolute
    assert tracing.forward_flop(_config("disentangled"), 2, 3) == absolute + rel_projections + c2p_p2c
    assert tracing.backward_flop(_config("absolute"), 2, 3) == 2 * absolute


def test_self_time_of_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.x", 5.0, 7.0, 3, 0),
        Span("b.y", 6.0, 8.0, 3, 0),      # overlaps b.x: the union is counted once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def _bindings():
    out = {}
    for mod_name, entries in tracing.TRACED.items():
        module = importlib.import_module(f"flowig.{mod_name}")
        for entry in entries:
            out[(mod_name, entry[0])] = getattr(module, entry[0])
    return out


def test_wrappers_restore_original_functions():
    before = _bindings()
    from flowig import flow_data, textualize

    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            # includes flow_data's own binding of serialize
            assert all(_bindings()[k] is not v for k, v in before.items())
            raise RuntimeError("restore on error too")
    assert _bindings() == before
    assert flow_data.serialize is textualize.serialize


SMALL = [
    workloads.TrainDisentangled(rows=60, epochs=1),
    workloads.ExplainAbsolute(rows=60, epochs=1, examples=3, steps=32),
    workloads.IngestScore(plan=cicids.Plan(300, 9, 3, 2), train_plan=cicids.Plan(60, 0, 0, 0),
                          epochs=1),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_pass_leaves_artifacts_byte_identical(workload, tmp_path):
    config = workload.setup(tmp_path, seed=3)
    untraced = run.run_pass(workload, tmp_path, config)
    digest = run._digest(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run.run_pass(workload, tmp_path, config, tracer)
    assert [(r.command, r.exit_code, r.problems) for r in untraced + traced if r.failed] == []
    assert run._digest(tmp_path) == digest

    m = tracing.layer_metrics(tracer.spans)
    if workload.name == "explain-absolute":
        assert m["attribution.forward_calls_per_example"] == 3
        assert m["attribution.forward_rows_per_example"] == 32 + 2
    if workload.name == "ingest-score":
        assert m["textualize.serialize.calls_per_row"] == 3
    else:
        assert m["encoder.pad_share"] == m["tokenizer.pad_share"] == 15 / 64


def test_generator_is_seeded_and_bounded():
    plan = cicids.Plan(400, 12, 4, 3)
    a, b = cicids.generate(5, plan), cicids.generate(5, plan)
    assert a.csv_bytes == b.csv_bytes
    assert a.rows == 400 + 12 + 4 + 3
    assert max(a.length_histogram) <= cicids.max_seq_len()
    assert all(n > 0 for n in a.class_counts)
