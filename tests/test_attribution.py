import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig import attribution, encoder
from flowig.attribution import (
    COMPLETENESS_TOLERANCE,
    AttributionResult,
    ClassAttributionMatrix,
    IGConfig,
    aggregate_to_features,
    baseline_embeddings,
    class_attribution_matrix,
    export_heatmap,
    export_heatmap_csv,
    export_heatmap_svg,
    integrated_gradients,
)
from flowig.encoder import ABSOLUTE, DISENTANGLED, init_params
from flowig.errors import ConfigError, DataError
from flowig.flow_data import BENIGN, DDOS, WEB_ATTACK, FeatureSchema, FlowRecord
from flowig.textualize import ValueFormatPolicy, serialize
from flowig.tokenizer import build_vocab, tokenize_rows

from conftest import (
    make_batch, make_example, randomize_params, row_form, small_config, spans_of, take,
)
from test_textualize_oracle import reference_serialize, reference_tokenize
from test_tokenizer import reference_row


@pytest.fixture(scope="module")
def trained_like(vocab):
    """Random nonzero weights standing in for a trained model."""
    cfg = small_config(vocab.size, max_seq_len=64, d_model=16, d_ff=24)
    rng = np.random.default_rng(11)
    return cfg, randomize_params(init_params(cfg), rng)


class TestBaseline:
    def test_all_pad_keeps_positions(self, vocab):
        # one rule for both variants
        for variant in (ABSOLUTE, DISENTANGLED):
            cfg = small_config(vocab.size, variant, max_seq_len=64, d_model=16, d_ff=24)
            p = init_params(cfg)
            base = baseline_embeddings(p, cfg, vocab.pad_id)
            want = p["tok_emb"][vocab.pad_id][None] + p["pos_emb"][:64]
            np.testing.assert_allclose(base, want)


class TestIntegratedGradients:
    def test_linear_model_exact_at_any_steps(self, vocab, schema):
        # zero-layer model without final norm is linear in the embeddings, so
        # midpoint IG is exact at every step count
        cfg = small_config(
            vocab.size, max_seq_len=64, d_model=16, d_ff=24,
            layers=0, use_final_norm=False,
        )
        rng = np.random.default_rng(0)
        p = randomize_params(init_params(cfg), rng)
        ex = make_example(vocab, schema, [float(100 + 7 * i) for i in range(schema.d)])
        for steps in (1, 4, 64):
            res = integrated_gradients(
                p, cfg, ex, DDOS, IGConfig(steps=steps)
            )
            assert abs(res.completeness_gap) <= 1e-10
            assert res.relative_gap <= COMPLETENESS_TOLERANCE

    def test_identical_input_and_baseline(self, vocab, schema, trained_like):
        cfg, p = trained_like
        ex = make_example(vocab, schema, [100.0] * schema.d)
        emb = encoder.embed(p, cfg, ex)
        base = baseline_embeddings(p, cfg, vocab.pad_id)[: len(ex.ids)]
        delta = emb - base
        # force input == baseline by zeroing the token table difference
        p2 = dict(p)
        p2["tok_emb"] = np.tile(p["tok_emb"][0], (cfg.vocab_size, 1))
        res = integrated_gradients(p2, cfg, ex, BENIGN, IGConfig(steps=4))
        assert res.output_delta == 0.0
        np.testing.assert_allclose(res.token_attr, 0.0, atol=1e-12)
        assert res.relative_gap == 0.0
        assert delta.any()  # the original model does move

    def test_partition_identity(self, vocab, schema, trained_like):
        cfg, p = trained_like
        ex = make_example(vocab, schema, [float(100 + i) for i in range(schema.d)])
        res = integrated_gradients(p, cfg, ex, WEB_ATTACK, IGConfig(steps=16))
        lhs = res.feature_attr.sum() + res.structural_residue
        assert abs(lhs - res.token_attr.sum()) <= 1e-10

    def test_gap_shrinks_with_steps(self, vocab, schema, trained_like):
        cfg, p = trained_like
        ex = make_example(vocab, schema, [float(100 + i) for i in range(schema.d)])
        gaps = []
        for steps in (4, 16, 64):
            res = integrated_gradients(p, cfg, ex, DDOS, IGConfig(steps=steps))
            gaps.append(abs(res.completeness_gap))
        assert gaps[2] <= gaps[0]

    def test_target_independence(self, vocab, schema, trained_like):
        # zeroing the head columns of the other classes must not change the
        # attribution toward the target class
        cfg, p = trained_like
        ex = make_example(vocab, schema, [float(100 + i) for i in range(schema.d)])
        p2 = {k: v.copy() for k, v in p.items()}
        p2["head.w"][:, 1:] = 0.0
        p2["head.b"][1:] = 0.0
        a = integrated_gradients(p, cfg, ex, BENIGN, IGConfig(steps=8))
        b = integrated_gradients(p2, cfg, ex, BENIGN, IGConfig(steps=8))
        np.testing.assert_allclose(a.token_attr, b.token_attr, atol=1e-12)

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_both_variants_run(self, vocab, schema, variant):
        cfg = small_config(vocab.size, variant, max_seq_len=64, d_model=16, d_ff=24)
        p = randomize_params(init_params(cfg), np.random.default_rng(3))
        ex = make_example(vocab, schema, [float(100 + i) for i in range(schema.d)])
        res = integrated_gradients(p, cfg, ex, DDOS, IGConfig(steps=32))
        assert res.relative_gap < 0.05


def _reference_ig(params, cfg, ex, target, ig_cfg, pad_id):
    """IG without the fast path: the path batch with the example padded to
    full max_seq_len and a full backward, and F(x), F(x') as two separate
    batch-of-one forwards."""
    n = len(ex.ids)
    ids = np.full((1, cfg.max_seq_len), pad_id, dtype=np.int64)
    ids[0, :n] = ex.ids
    emb = encoder.embed_ids(params, cfg, ids)[0]
    base = baseline_embeddings(params, cfg, pad_id)
    mask = (np.arange(cfg.max_seq_len) < n).astype(np.float64)
    delta = emb - base
    alphas = (np.arange(ig_cfg.steps) + 0.5) / ig_cfg.steps
    points = base[None] + alphas[:, None, None] * delta[None]
    logits, trace = encoder.forward_from_embeddings(
        params, cfg, points, np.tile(mask, (ig_cfg.steps, 1))
    )
    dlogits = np.zeros_like(logits)
    dlogits[:, target] = 1.0
    _, demb = encoder.backward(params, trace, dlogits)
    token_attr = (delta * demb.mean(axis=0)).sum(axis=-1)
    f_x, _ = encoder.forward_from_embeddings(params, cfg, emb[None], mask[None])
    f_b, _ = encoder.forward_from_embeddings(params, cfg, base[None], mask[None])
    output_delta = float(f_x[0, target] - f_b[0, target])
    feature_attr, _ = reference_aggregate(token_attr, row_form(ex)[1])
    return {
        "token_attr": token_attr,
        "feature_attr": feature_attr,
        "output_delta": output_delta,
        "completeness_gap": float(token_attr.sum() - output_delta),
    }


class TestFastPathMatchesReference:
    @pytest.mark.parametrize("padded", [True, False], ids=["padded", "unpadded"])
    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_matches_reference(self, vocab, schema, variant, padded):
        values = [float(100 + 37 * i) for i in range(schema.d)]
        active = len(make_example(vocab, schema, values).ids)
        max_len = 64 if padded else active
        assert (active < max_len) == padded
        cfg = small_config(
            vocab.size, variant, max_seq_len=max_len, layers=2, d_model=16, d_ff=24
        )
        p = randomize_params(init_params(cfg), np.random.default_rng(21))
        ex = make_example(vocab, schema, values, max_seq_len=max_len)
        ig_cfg = IGConfig(steps=16)
        pad_id = vocab.pad_id

        res = integrated_gradients(p, cfg, ex, DDOS, ig_cfg, pad_id)
        ref = _reference_ig(p, cfg, ex, DDOS, ig_cfg, pad_id)
        # relative 1e-12, with a floor at the scale of the attributions so
        # entries that cancel to near zero are held to the same absolute error
        floor = 1e-12 * max(1.0, np.abs(ref["token_attr"]).max(), abs(ref["output_delta"]))
        # the padded reference gives the padding nothing; the fast path
        # returns the example's own positions only
        assert np.all(ref["token_attr"][active:] == 0.0)
        ref["token_attr"] = ref["token_attr"][:active]
        for name in ("token_attr", "feature_attr", "output_delta", "completeness_gap"):
            np.testing.assert_allclose(
                getattr(res, name), ref[name], rtol=1e-12, atol=floor, err_msg=name
            )
        assert res.token_attr.shape == (active,)


def _one_call_ig(params, cfg, ex, target, steps):
    """The whole path (the steps, then the input and the baseline) in one
    encoder call: the reference the chunked path must match."""
    n = len(ex.ids)
    emb = encoder.embed(params, cfg, ex)
    base = baseline_embeddings(params, cfg)[:n]
    delta = emb - base
    alphas = (np.arange(steps) + 0.5) / steps
    points = np.concatenate([base[None] + alphas[:, None, None] * delta[None],
                             emb[None], base[None]])
    logits, trace = encoder.forward_from_embeddings(params, cfg, points, np.ones((steps + 2, n)))
    dlogits = np.zeros_like(logits)
    dlogits[:steps, target] = 1.0
    _, demb = encoder.backward(params, trace, dlogits, param_grads=False)
    token_attr = (delta * demb[:steps].mean(axis=0)).sum(axis=-1)
    return token_attr, float(logits[steps, target] - logits[steps + 1, target])


_WIDE = FeatureSchema(tuple(f"Feature {i}" for i in range(48)))


class TestChunkedPath:
    """IG's path runs in chunks of `_CHUNK_FLOATS // (n * d_model)` rows
    after one forward-only call for F(x) and F(x') (one per row once two rows
    do not fit); the result must not depend on the chunking."""

    @pytest.fixture(autouse=True)
    def _one_worker(self, monkeypatch):
        # the call counts below are those of the whole budget in one call
        monkeypatch.setattr(encoder, "_WORKERS", 1)

    @pytest.mark.parametrize("case", ["divides", "remainder", "one-chunk", "row-per-call"])
    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_matches_one_call(self, monkeypatch, vocab, schema, variant, case):
        if case == "row-per-call":
            schema = _WIDE
            vocab = build_vocab(schema)
            values = [123456789.125] * schema.d
        else:
            values = [float(100 + 37 * i) for i in range(schema.d)]
        ex = make_example(vocab, schema, values, max_seq_len=1024)
        n = len(ex.ids)
        cfg = small_config(vocab.size, variant, max_seq_len=n, layers=2, d_model=8, d_ff=12)
        # 512 positions per call, as the default budget gives at d_model 64
        budget = 512 * cfg.d_model
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", budget)
        rows = max(1, budget // (n * cfg.d_model))
        steps = {"divides": 2 * rows, "remainder": 2 * rows + 1,
                 "one-chunk": rows - 3, "row-per-call": 3}[case]
        assert steps >= 1
        assert {"divides": steps % rows == 0, "remainder": steps % rows != 0,
                "one-chunk": steps < rows, "row-per-call": n * cfg.d_model > budget}[case]
        p = randomize_params(init_params(cfg), np.random.default_rng(31))

        calls, backward_rows = [], []
        forward, backward = encoder.forward_from_embeddings, encoder.backward

        def counting(params, config, embeddings, *args, **kwargs):
            calls.append(embeddings.shape[:2])
            return forward(params, config, embeddings, *args, **kwargs)

        def counting_backward(params, trace, dlogits, *args, **kwargs):
            backward_rows.append(len(dlogits))
            return backward(params, trace, dlogits, *args, **kwargs)

        monkeypatch.setattr(encoder, "forward_from_embeddings", counting)
        monkeypatch.setattr(encoder, "backward", counting_backward)
        res = integrated_gradients(p, cfg, ex, WEB_ATTACK, IGConfig(steps=steps))
        monkeypatch.undo()

        assert sum(b for b, _ in calls) == steps + 2
        assert sum(backward_rows) == steps
        assert all(b * length * cfg.d_model <= max(budget, n * cfg.d_model) for b, length in calls)
        endpoint_calls = 1 if rows >= 2 else 2
        assert len(calls) == endpoint_calls + -(-steps // rows)
        token_attr, output_delta = _one_call_ig(p, cfg, ex, WEB_ATTACK, steps)
        floor = 1e-12 * max(1.0, np.abs(token_attr).max())
        np.testing.assert_allclose(res.token_attr, token_attr, rtol=1e-12, atol=floor)
        assert res.output_delta == pytest.approx(output_delta, rel=1e-12, abs=1e-12)


class TestRelativeGap:
    def _result(self, gap, output_delta):
        return AttributionResult(np.zeros(4), np.zeros(1), 0.0, DDOS,
                                 completeness_gap=gap, output_delta=output_delta)

    def test_gap_at_equal_outputs_is_infinite(self):
        res = self._result(1e-3, 0.0)
        assert res.relative_gap == math.inf
        assert res.relative_gap > COMPLETENESS_TOLERANCE
        line = json.dumps({"relative_gap": res.relative_gap}, sort_keys=True)
        assert json.loads(line)["relative_gap"] == math.inf

    def test_no_gap_at_equal_outputs_is_zero(self):
        assert self._result(0.0, 0.0).relative_gap == 0.0

    def test_ratio(self):
        assert self._result(-0.5, 2.0).relative_gap == 0.25


def reference_aggregate(token_attr, spans):
    """The span walk: each (feature, start, end) span's sum, and the sum of
    the positions no span covers."""
    d = max(fi for fi, _, _ in spans) + 1
    feature_attr = np.zeros(d)
    covered = np.zeros(len(token_attr), dtype=bool)
    for fi, start, end in spans:
        covered[start:end] = True
        feature_attr[fi] = token_attr[start:end].sum()
    residue = float(token_attr[~covered].sum())
    return feature_attr, residue


# values that render to 1 to 17 digits, with a sign, a point or an exponent
span_values = st.one_of(
    st.integers(0, 9).map(float),
    st.integers(-10**16 + 1, 10**16 - 1).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestAggregate:
    def test_one_hot_spans(self):
        # CLS, [F0 IS 9], SEP, [F1 IS], SEP
        token_attr = np.array([0.5, 1.0, 2.0, 3.0, -1.0, 0.25, 0.5, 0.125])
        feat, residue = aggregate_to_features(token_attr, np.array([1, 0]))
        np.testing.assert_allclose(feat, [6.0, 0.75])
        assert residue == pytest.approx(-0.375)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_span_walk(self, data):
        # rows of mixed lengths in one batch; the attributions cover each
        # row's own length, or run on past it as a padded row's do
        d = data.draw(st.integers(1, 24))
        schema = FeatureSchema(tuple(f"F{i}" for i in range(d)))
        policy = ValueFormatPolicy(data.draw(st.integers(1, 17)))
        rows = data.draw(st.lists(st.lists(span_values, min_size=d, max_size=d), min_size=1,
                                  max_size=4))
        flows = [serialize(FlowRecord(tuple(r), "x"), schema, policy) for r in rows]
        vocab = build_vocab(schema)
        batch = tokenize_rows(flows, vocab, 10_000)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for i, flow in enumerate(flows):
            ex = batch.example(i)
            token_attr = rng.normal(size=len(ex.ids) + data.draw(st.sampled_from([0, 5])))
            feat, residue = aggregate_to_features(token_attr, ex.value_lengths)
            want_feat, want_residue = reference_aggregate(token_attr,
                                                          reference_row(flow, vocab)[1])
            assert np.array_equal(feat, want_feat)
            assert residue == want_residue

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_feature_spans_match_the_reference_walks(self, data):
        d = data.draw(st.integers(1, 12))
        schema = FeatureSchema(tuple(f"F{i}" for i in range(d)))
        vocab = build_vocab(schema)
        record = FlowRecord(tuple(data.draw(st.lists(span_values, min_size=d, max_size=d))), "x")
        flow = serialize(record, schema)
        spans = spans_of(np.array([len(v) for v in flow.values]))
        assert spans == reference_row(flow, vocab)[1]
        assert spans == reference_tokenize(*reference_serialize(record, schema), vocab, 10_000)[1]


@pytest.fixture(scope="module")
def examples(vocab, schema):
    """Two rows of each class, as one batch."""
    rng = np.random.default_rng(5)
    labels = [BENIGN, DDOS, WEB_ATTACK] * 2
    rows = [[float(rng.integers(100, 1000)) for _ in range(schema.d)] for _ in labels]
    return make_batch(vocab, schema, rows, labels=labels)


class TestClassMatrix:
    def test_shape_and_order(self, vocab, schema, trained_like, examples):
        cfg, p = trained_like
        m, results = class_attribution_matrix(
            p, cfg, examples, schema, IGConfig(steps=8), top_k=5
        )
        assert m.values.shape == (3, 5)
        assert len(m.feature_names) == 5
        assert set(m.feature_names) <= set(schema.names)
        assert len(results) == len(examples)
        assert (m.values >= 0).all()

    def test_top_k_full_width(self, vocab, schema, trained_like, examples):
        cfg, p = trained_like
        m, _ = class_attribution_matrix(
            p, cfg, examples, schema, IGConfig(steps=4), top_k=schema.d + 10
        )
        assert len(m.feature_names) == schema.d
        assert sorted(m.feature_names) == sorted(schema.names)

    def test_missing_class_rejected(self, vocab, schema, trained_like, examples):
        cfg, p = trained_like
        only_benign = take(examples, examples.labels == BENIGN)
        with pytest.raises(DataError, match="DDOS"):
            class_attribution_matrix(p, cfg, only_benign, schema, IGConfig(steps=2))

    def test_duplicate_example_mean_invariance(self, vocab, schema, trained_like, examples):
        cfg, p = trained_like
        m1, _ = class_attribution_matrix(
            p, cfg, examples, schema, IGConfig(steps=4), top_k=4
        )
        m2, _ = class_attribution_matrix(
            p, cfg, take(examples, np.r_[:6, :6]), schema, IGConfig(steps=4), top_k=4
        )
        assert m1.feature_names == m2.feature_names
        np.testing.assert_allclose(m1.values, m2.values, atol=1e-12)


@pytest.fixture(scope="module")
def matrix():
    return ClassAttributionMatrix(
        feature_names=("Flow Duration", "Flow IAT Min"),
        values=np.array([[1.5, 0.25], [0.75, 2.0], [0.0, 1.0]]),
    )


class TestExport:
    def test_csv_layout(self, matrix):
        data = export_heatmap_csv(matrix)
        lines = data.decode("utf-8").strip().split("\r\n")
        assert len(lines) == 4
        assert lines[0] == "class,Flow Duration,Flow IAT Min"
        assert lines[1] == "BENIGN,1.5,0.25"
        assert lines[3].startswith("WEB_ATTACK,")

    def test_svg_deterministic(self, matrix):
        a = export_heatmap_svg(matrix)
        assert a == export_heatmap_svg(matrix)
        assert a.startswith(b"<svg ")
        assert b"Flow Duration" in a
        assert b"BENIGN" in a and b"DDOS" in a and b"WEB_ATTACK" in a

    def test_dispatch(self, matrix):
        assert export_heatmap(matrix, "csv") == export_heatmap_csv(matrix)
        assert export_heatmap(matrix, "svg") == export_heatmap_svg(matrix)
        with pytest.raises(ConfigError, match="png"):
            export_heatmap(matrix, "png")
