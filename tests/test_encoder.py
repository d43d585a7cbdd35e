import collections
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig import encoder
from flowig.encoder import (
    ABSOLUTE,
    DISENTANGLED,
    EncoderConfig,
    _key_mask_bias,
    _masked_softmax,
    _rel_index,
    accumulate_embedding_grads,
    attention_scores_disentangled,
    backward,
    dropout_masks,
    embed_ids,
    forward,
    forward_batch,
    forward_from_embeddings,
    init_params,
    param_shapes,
    zero_grads_like,
)
from flowig.errors import ConfigError

from conftest import finite_diff_check, make_example, randomize_params, small_config, stack


def _window_cases(unclipped):
    """(variant, rel_window) cases: both variants at the default window, and
    the disentangled one at window 0 and at `unclipped` (L - 1 for the test's
    length L)."""
    return [(ABSOLUTE, 4), (DISENTANGLED, 4), (DISENTANGLED, 0), (DISENTANGLED, unclipped)]


_WINDOW_IDS = ["absolute", "disentangled", "disentangled-window0", "disentangled-unclipped"]


class TestConfig:
    def test_divisibility_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            EncoderConfig(vocab_size=10, max_seq_len=8, heads=3, d_model=8)

    def test_head_dim(self):
        cfg = EncoderConfig(vocab_size=10, max_seq_len=8, heads=4, d_model=64)
        assert cfg.d_head == 16
        assert cfg.rel_size == 2 * cfg.rel_window + 1
        assert cfg.n_classes == 3

    def test_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            EncoderConfig(vocab_size=10, max_seq_len=8, attention_variant="rope")


def _init_oracle(config):
    """init_params as first written, one explicit draw per tensor."""
    rng = np.random.default_rng(config.seed)
    D, F = config.d_model, config.d_ff

    def mat(fan_in, shape):
        return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)

    p = {"tok_emb": mat(D, (config.vocab_size, D)), "pos_emb": mat(D, (config.max_seq_len, D))}
    if config.attention_variant == DISENTANGLED:
        p["rel_emb"] = mat(D, (config.rel_size, D))
    for i in range(config.layers):
        pre = f"layers.{i}."
        p[pre + "ln1.g"] = np.ones(D)
        p[pre + "ln1.b"] = np.zeros(D)
        for name in ("wq", "wk", "wv", "wo"):
            p[pre + "attn." + name] = mat(D, (D, D))
        # the absolute variant has no key bias: the softmax cancels it
        for n in ("qkvo" if config.attention_variant == DISENTANGLED else "qvo"):
            p[pre + "attn.b" + n] = np.zeros(D)
        p[pre + "ln2.g"] = np.ones(D)
        p[pre + "ln2.b"] = np.zeros(D)
        p[pre + "ffn.w1"] = mat(D, (D, F))
        p[pre + "ffn.b1"] = np.zeros(F)
        p[pre + "ffn.w2"] = mat(F, (F, D))
        p[pre + "ffn.b2"] = np.zeros(D)
    p["ln_f.g"] = np.ones(D)
    p["ln_f.b"] = np.zeros(D)
    p["head.w"] = np.zeros((D, config.n_classes))
    p["head.b"] = np.zeros(config.n_classes)
    return p


class TestInit:
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_layout_table_matches_oracle(self, variant, layers):
        # d_ff != d_model so a wrong fan-in or a swapped FFN shape shows
        cfg = small_config(20, variant, layers=layers, d_ff=12, seed=5)
        want = _init_oracle(cfg)
        got = init_params(cfg)
        assert list(got) == list(want) == list(param_shapes(cfg))
        for k in want:
            assert param_shapes(cfg)[k] == want[k].shape, k
            assert np.array_equal(got[k], want[k]), k

    def test_deterministic(self):
        cfg = small_config(20)
        a, b = init_params(cfg), init_params(cfg)
        assert sorted(a) == sorted(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_variant_tables(self):
        # both variants embed positions; only the disentangled one has a relative table
        pa = init_params(small_config(20, ABSOLUTE))
        pd = init_params(small_config(20, DISENTANGLED))
        assert pa["pos_emb"].shape == pd["pos_emb"].shape == (16, 8)
        assert "rel_emb" not in pa
        assert pd["rel_emb"].shape == (9, 8)
        assert set(pd) == set(pa) | {"rel_emb", "layers.0.attn.bk"}

    def test_head_zeroed(self):
        p = init_params(small_config(20))
        assert not p["head.w"].any()
        assert not p["head.b"].any()

    def test_float64(self):
        for v in init_params(small_config(20)).values():
            assert v.dtype == np.float64


class TestEmbed:
    def test_positions_added_for_both_variants(self):
        ids = np.array([[1, 5, 0], [2, 0, 0]])
        for variant in (ABSOLUTE, DISENTANGLED):
            cfg = small_config(20, variant, max_seq_len=4)
            p = init_params(cfg)
            # a batch shorter than max_seq_len takes the table's first rows
            np.testing.assert_array_equal(embed_ids(p, cfg, ids),
                                          p["tok_emb"][ids] + p["pos_emb"][None, :3])

    def test_out_of_range_id(self):
        cfg = small_config(20, max_seq_len=4)
        with pytest.raises(ConfigError, match="vocabulary"):
            embed_ids(init_params(cfg), cfg, np.array([[0, 1, 2, 20]]))


class TestForward:
    def test_attention_rows_normalized(self):
        rng = np.random.default_rng(0)
        cfg = small_config(20, layers=2)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(3, 16, 8))
        mask = np.ones((3, 16))
        mask[1, 10:] = 0
        _, trace = forward_from_embeddings(p, cfg, emb, mask)
        for cache in trace.layer_caches:
            rows = cache["attn"].sum(axis=-1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)
            # masked keys receive exactly zero attention
            assert not cache["attn"][1, :, :, 10:].any()

    def test_pad_embedding_invariance(self):
        rng = np.random.default_rng(1)
        cfg = small_config(20)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(1, 16, 8))
        mask = np.ones((1, 16))
        mask[:, 9:] = 0
        base, _ = forward_from_embeddings(p, cfg, emb, mask)
        emb2 = emb.copy()
        emb2[:, 9:] = rng.normal(size=(7, 8)) * 10
        alt, _ = forward_from_embeddings(p, cfg, emb2, mask)
        np.testing.assert_allclose(base, alt, atol=1e-12)

    def test_untrained_softmax_uniform(self, schema, vocab):
        cfg = small_config(vocab.size, max_seq_len=64, d_model=16, d_ff=24)
        p = init_params(cfg)
        ex = make_example(vocab, schema, [100.0 + i for i in range(schema.d)])
        logits, _ = forward(p, cfg, ex)
        assert logits.shape == (1, 3)
        probs = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)

    def test_zero_layer_hand_check(self):
        # layers=0, no final norm: logits == head(emb[0]) exactly
        cfg = small_config(20, layers=0, use_final_norm=False)
        rng = np.random.default_rng(2)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(1, 16, 8))
        logits, _ = forward_from_embeddings(p, cfg, emb, np.ones((1, 16)))
        np.testing.assert_allclose(logits, emb[:, 0] @ p["head.w"] + p["head.b"])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        for variant in (ABSOLUTE, DISENTANGLED):
            cfg = small_config(20, variant)
            p = randomize_params(init_params(cfg), rng)
            emb = rng.normal(size=(4, 16, 8))
            mask = (rng.random((4, 16)) > 0.2).astype(float)
            mask[:, 0] = 1
            batched, _ = forward_from_embeddings(p, cfg, emb, mask)
            for b in range(4):
                single, _ = forward_from_embeddings(p, cfg, emb[b : b + 1], mask[b : b + 1])
                assert single.shape == (1, 3)
                np.testing.assert_allclose(single[0], batched[b], atol=1e-12)

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_trimmed_length_matches_padded(self, variant):
        # dropping trailing positions that every row masks out changes the
        # logits and the kept embedding gradients only by rounding
        rng = np.random.default_rng(8)
        cfg = small_config(20, variant, layers=2)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(3, 16, 8))
        mask = np.ones((3, 16))
        mask[0, 7:] = 0
        mask[1, 10:] = 0
        mask[2, 9:] = 0
        dlog = rng.normal(size=(3, 3))
        full, t_full = forward_from_embeddings(p, cfg, emb, mask)
        trim, t_trim = forward_from_embeddings(p, cfg, emb[:, :10], mask[:, :10])
        np.testing.assert_allclose(trim, full, rtol=1e-12, atol=1e-12)
        _, d_full = backward(p, t_full, dlog, param_grads=False)
        _, d_trim = backward(p, t_trim, dlog, param_grads=False)
        np.testing.assert_allclose(d_trim, d_full[:, :10], rtol=1e-12, atol=1e-12)

    def test_longer_than_max_seq_len_rejected(self):
        cfg = small_config(20)
        p = init_params(cfg)
        with pytest.raises(ConfigError, match="shape"):
            forward_from_embeddings(p, cfg, np.zeros((1, 17, 8)), np.ones((1, 17)))

    @pytest.mark.parametrize(
        "emb_shape, mask_shape",
        [((16, 8), (16,)), ((1, 16, 8), (16,)), ((2, 16, 8), (1, 16)), ((1, 16, 4), (1, 16))],
        ids=["unbatched", "unbatched-mask", "mask-rows", "d_model"],
    )
    def test_only_batched_shapes_accepted(self, emb_shape, mask_shape):
        cfg = small_config(20)
        with pytest.raises(ConfigError, match="shape"):
            forward_from_embeddings(init_params(cfg), cfg, np.zeros(emb_shape), np.ones(mask_shape))


def _softmax_oracle(scores, mask):
    """The masked softmax as first written: -inf fill, then an isfinite pass."""
    neg = np.where(mask[:, None, None, :] > 0, 0.0, -np.inf)
    s = scores + neg
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    e = np.where(np.isfinite(s), e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


class TestMaskedSoftmax:
    def test_bit_identical_to_oracle(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(scale=20.0, size=(5, 3, 11, 11))
        mask = (rng.random((5, 11)) > 0.4).astype(float)
        mask[:, 0] = 1  # CLS is always attended
        mask[4] = 1
        before = scores.copy()
        got = _masked_softmax(scores, _key_mask_bias(mask))
        assert np.array_equal(got, _softmax_oracle(scores, mask))
        assert np.array_equal(scores, before)  # the input is not overwritten

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_all_attended_skips_the_bias(self, monkeypatch, variant):
        # with every key attended there is no bias, and the attention is that
        # of an all-zero bias, bit for bit
        rng = np.random.default_rng(13)
        scores = rng.normal(scale=20.0, size=(4, 2, 9, 9))
        mask = np.ones((4, 9))
        assert _key_mask_bias(mask) is None
        before = scores.copy()
        got = _masked_softmax(scores, None)
        assert np.array_equal(got, _masked_softmax(scores, np.zeros((4, 1, 1, 9))))
        assert np.array_equal(got, _softmax_oracle(scores, mask))
        assert np.array_equal(scores, before)

        cfg = small_config(20, variant, layers=3)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(3, 16, 8))
        logits, trace = forward_from_embeddings(p, cfg, emb, np.ones((3, 16)))
        monkeypatch.setattr(encoder, "_key_mask_bias",
                            lambda m: np.zeros((len(m), 1, 1, m.shape[1])))
        want_logits, want = forward_from_embeddings(p, cfg, emb, np.ones((3, 16)))
        assert np.array_equal(logits, want_logits)
        for got_cache, want_cache in zip(trace.layer_caches, want.layer_caches, strict=True):
            assert np.array_equal(got_cache["attn"], want_cache["attn"])


class TestRelativePositions:
    def test_index_values(self):
        idx = _rel_index(5, 2)
        assert idx[0, 0] == 2
        assert idx[4, 0] == 4
        assert idx[0, 4] == 0
        assert idx[3, 1] == 4

    def test_clipping_saturates(self):
        idx = _rel_index(64, 16)
        assert idx[57, 40] == idx[33, 16] == 32  # 17 and 24 apart clip alike
        assert idx[40, 0] == 32
        assert idx[0, 40] == 0

    def test_zero_table_ablation(self):
        # with a zeroed relative table, disentangled scores are the absolute
        # content scores shrunk by exactly sqrt(3)
        rng = np.random.default_rng(4)
        cfg_a = small_config(20, ABSOLUTE)
        cfg_d = small_config(20, DISENTANGLED)
        shared = randomize_params(init_params(cfg_a), rng)
        pd = dict(shared)
        pd["rel_emb"] = np.zeros((cfg_d.rel_size, cfg_d.d_model))
        emb = rng.normal(size=(1, 16, 8))
        mask = np.ones((1, 16))
        _, ta = forward_from_embeddings(shared, cfg_a, emb, mask)
        _, td = forward_from_embeddings(pd, cfg_d, emb, mask)
        ca, cd = ta.layer_caches[0], td.layer_caches[0]
        sa = ca["q"] @ ca["k"].swapaxes(-1, -2) / np.sqrt(cfg_a.d_head)
        sd = attention_scores_disentangled(
            cd["q"], cd["k"], cd["qr"], cd["kr"], _rel_index(16, cfg_d.rel_window)
        )
        np.testing.assert_allclose(sd * np.sqrt(3.0), sa, atol=1e-12)

    def test_index_at_each_length_is_a_slice(self):
        # the index depends only on i - j, so a batch of length L reads the
        # [:L, :L] slice of the index at any longer length
        for n, k in ((16, 4), (40, 16), (9, 0)):
            full = _rel_index(n, k)
            for L in range(1, n + 1):
                assert np.array_equal(_rel_index(L, k), full[:L, :L])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        cfg = small_config(20, DISENTANGLED)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(1, 16, 8))
        _, trace = forward_from_embeddings(p, cfg, emb, np.ones((1, 16)))
        grads, demb = backward(p, trace, np.zeros((1, 3)))
        assert not demb.any()
        for k, g in grads.items():
            assert not g.any(), k

    # rel_window 0 puts every distance in one bin; at 15 = L - 1 none is clipped
    @pytest.mark.parametrize("variant, rel_window", _window_cases(15), ids=_WINDOW_IDS)
    def test_finite_difference(self, variant, rel_window):
        rng = np.random.default_rng(6)
        cfg = small_config(20, variant, rel_window=rel_window)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(1, 16, 8))
        mask = np.ones((1, 16))
        mask[:, 12:] = 0
        worst = finite_diff_check(p, cfg, emb, mask, rng, coords_per_tensor=4)
        assert worst < 1e-4

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_param_grads_off_same_embedding_grad(self, variant):
        rng = np.random.default_rng(9)
        cfg = small_config(20, variant, layers=2, dropout_rate=0.2)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(3, 16, 8))
        mask = np.ones((3, 16))
        mask[1, 11:] = 0
        dlog = rng.normal(size=(3, 3))
        dropout = dropout_masks(np.random.default_rng(1), cfg, 3, 16)
        # backward spends its trace, so each call gets its own forward
        grads, demb = backward(p, forward_from_embeddings(p, cfg, emb, mask, dropout)[1], dlog)
        no_grads, demb_only = backward(p, forward_from_embeddings(p, cfg, emb, mask, dropout)[1],
                                       dlog, param_grads=False)
        assert no_grads is None
        assert np.array_equal(demb_only, demb)

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    @pytest.mark.parametrize("layers", [0, 2])
    def test_spent_trace_refused(self, variant, layers):
        # backward drops each cached array once read, so a second call on
        # the same trace has nothing to read and must refuse, not guess
        rng = np.random.default_rng(12)
        cfg = small_config(20, variant, layers=layers)
        p = randomize_params(init_params(cfg), rng)
        _, trace = forward_from_embeddings(p, cfg, rng.normal(size=(2, 9, 8)), np.ones((2, 9)))
        dlog = rng.normal(size=(2, 3))
        backward(p, trace, dlog, param_grads=False)
        assert trace.layer_caches == []
        for param_grads in (True, False):
            with pytest.raises(ConfigError, match=r"^forward trace already backpropagated;"
                                                  r" run the forward pass again$"):
                backward(p, trace, dlog, param_grads)

    @pytest.mark.parametrize("param_grads", [True, False])
    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_peak_memory_over_the_trace(self, variant, param_grads):
        # one row at L = 300, where each (B, H, L, L) float64 array is 2.9 MB.
        # backward frees each layer's cache as it goes and scales the score
        # gradient in place, so beyond the trace it holds at most about two
        # such arrays at once; holding dattn, the scaled copy and the whole
        # trace to the end took 3.7 (absolute) to 6.6 (disentangled)
        rng = np.random.default_rng(3)
        cfg = small_config(40, variant, max_seq_len=320, layers=2, heads=4, d_model=64, d_ff=64,
                           rel_window=16)
        p = randomize_params(init_params(cfg), rng)
        L = 300
        tracemalloc.start()
        try:
            _, trace = forward_from_embeddings(p, cfg, rng.normal(size=(1, L, 64)), np.ones((1, L)))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(p, trace, rng.normal(size=(1, 3)), param_grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scores = cfg.heads * L * L * 8
        assert peak - held < 3 * scores, (peak - held) / scores

    def test_batched_grad_is_sum_of_singles(self):
        rng = np.random.default_rng(7)
        cfg = small_config(20, DISENTANGLED)
        p = randomize_params(init_params(cfg), rng)
        emb = rng.normal(size=(3, 16, 8))
        mask = np.ones((3, 16))
        dlog = rng.normal(size=(3, 3))
        _, trace = forward_from_embeddings(p, cfg, emb, mask)
        gb, _ = backward(p, trace, dlog)
        acc = zero_grads_like(p)
        for b in range(3):
            _, t1 = forward_from_embeddings(p, cfg, emb[b : b + 1], mask[b : b + 1])
            g1, _ = backward(p, t1, dlog[b : b + 1])
            for k in acc:
                acc[k] += g1[k]
        for k in acc:
            np.testing.assert_allclose(gb[k], acc[k], atol=1e-10, err_msg=k)


def _scores_oracle(q, k_content, qr, kr, rel_idx):
    """The disentangled scores as first written: 4-D fancy-index gathers."""
    dh = q.shape[-1]
    c2c = q @ k_content.swapaxes(-1, -2)
    qkr = q @ kr.swapaxes(-1, -2)
    kqr = k_content @ qr.swapaxes(-1, -2)
    L = q.shape[2]
    ii = np.arange(L)[:, None]
    jj = np.arange(L)[None, :]
    c2p = qkr[:, :, ii, rel_idx]
    p2c = kqr[:, :, jj, rel_idx.T]
    return (c2c + c2p + p2c) / math.sqrt(3.0 * dh)


class TestDisentangledScores:
    @staticmethod
    def _first_layer(L):
        # the first of two layers computes every query row
        rng = np.random.default_rng(14)
        cfg = small_config(20, DISENTANGLED, layers=2)
        p = randomize_params(init_params(cfg), rng)
        mask = np.ones((3, L))
        mask[0, 6:] = 0
        mask[2, 9:] = 0
        _, trace = forward_from_embeddings(p, cfg, rng.normal(size=(3, L, 8)), mask)
        return trace.layer_caches[0], _rel_index(16, cfg.rel_window)[:L, :L]

    @pytest.mark.parametrize("L", [16, 11])
    def test_bit_identical_to_oracle(self, L):
        c, rel_idx = self._first_layer(L)
        assert c["q"].shape[2] == L
        got = attention_scores_disentangled(c["q"], c["k"], c["qr"], c["kr"], rel_idx)
        want = _scores_oracle(c["q"], c["k"], c["qr"], c["kr"], rel_idx)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("L", [16, 11])
    def test_cls_row_matches_oracle_row_0(self, L):
        # Lq = 1 query row, as in the last layer: c2p reads row 0 of the
        # gather index and p2c row 0 of its transpose
        c, rel_idx = self._first_layer(L)
        got = attention_scores_disentangled(c["q"][:, :, :1], c["k"], c["qr"], c["kr"], rel_idx)
        want = _scores_oracle(c["q"], c["k"], c["qr"], c["kr"], rel_idx)[:, :, :1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


_OPS = ("_linear", "_linear_backward", "_ln_forward", "_ln_backward", "_gelu_forward",
        "_gelu_backward", "_masked_softmax", "_softmax_backward", "attention_scores_disentangled",
        "_disentangled_scores_backward", "_sum_outer")


class TestOpBoundary:
    """Every encoder op is a module-level function looked up by name at each
    call, so rebinding it (as a per-op tracer would) sees every call."""

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_rebound_ops_see_every_call(self, variant, monkeypatch):
        layers = 2
        rng = np.random.default_rng(19)
        cfg = small_config(20, variant, layers=layers, dropout_rate=0.2)
        p = randomize_params(init_params(cfg), rng)
        ids = rng.integers(1, 20, size=(3, 10))
        mask = np.ones((3, 10))
        mask[1, 6:] = 0
        dlog = rng.normal(size=(3, 3))
        path = rng.normal(size=(6, 10, 8))  # an IG path: one example at 6 steps
        dlog_ig = np.zeros((6, 3))
        dlog_ig[:, 1] = 1.0

        def train_step():
            logits, trace = forward_batch(
                p, cfg, ids, mask, dropout_masks(np.random.default_rng(3), cfg, *ids.shape)
            )
            return (logits, *backward(p, trace, dlog))

        def ig_step():
            logits, trace = forward_from_embeddings(p, cfg, path, np.ones((6, 10)))
            return (logits, *backward(p, trace, dlog_ig, param_grads=False))

        want = [train_step(), ig_step()]
        calls = collections.Counter()
        for name in _OPS:
            def counted(*args, _fn=getattr(encoder, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(encoder, name, counted)

        scores = layers if variant == DISENTANGLED else 0
        each_pass = {
            "_linear": 6 * layers + 1, "_linear_backward": 6 * layers + 1,
            "_ln_forward": 2 * layers + 1, "_ln_backward": 2 * layers + 1,
            "_gelu_forward": layers, "_gelu_backward": layers,
            "_masked_softmax": layers, "_softmax_backward": layers,
            "attention_scores_disentangled": scores, "_disentangled_scores_backward": scores,
        }
        for step, expected in ((train_step, {"_sum_outer": 6 * layers + 1}),
                               (ig_step, {"_sum_outer": 0})):
            calls.clear()
            got = step()
            assert {name: calls[name] for name in _OPS} == {**each_pass, **expected}
            logits, grads, demb = want.pop(0)
            assert np.array_equal(got[0], logits) and np.array_equal(got[2], demb)
            if grads is None:
                assert got[1] is None
            else:
                assert got[1].keys() == grads.keys()
                assert all(np.array_equal(got[1][k], grads[k]) for k in grads)


class TestTrimmedTrainingStep:
    """A training step on a batch of unpadded examples, stacked to its
    longest one, against the same step padded to max_seq_len."""

    @staticmethod
    def _batch(rng):
        """Examples of lengths 7, 10 and 9 padded as a batch pads them (to
        10), and padded on to max_seq_len (16)."""
        ids, mask = stack([rng.integers(1, 20, size=n) for n in (7, 10, 9)])
        assert ids.shape == (3, 10)
        pad = ((0, 0), (0, 6))
        return ids, mask, np.pad(ids, pad), np.pad(mask, pad)

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_matches_padded_step(self, variant):
        rng = np.random.default_rng(15)
        cfg = small_config(20, variant, layers=2, dropout_rate=0.2)
        p = randomize_params(init_params(cfg), rng)
        ids_trim, mask_trim, ids, mask = self._batch(rng)
        n = ids_trim.shape[1]
        dlog = rng.normal(size=(3, 3))
        # the padded step keeps the trimmed masks, padded along L; the last
        # layer's masks hold the CLS row only
        drop_trim = dropout_masks(np.random.default_rng(3), cfg, *ids_trim.shape)
        drop_pad = [pair if li == cfg.layers - 1
                    else tuple(np.pad(m, ((0, 0), (0, ids.shape[1] - n), (0, 0))) for m in pair)
                    for li, pair in enumerate(drop_trim)]

        def step(ids, mask, dropout):
            logits, trace = forward_batch(p, cfg, ids, mask, dropout)
            grads, demb = backward(p, trace, dlog)
            accumulate_embedding_grads(grads, ids, demb)
            return logits, grads, demb

        logits_pad, g_pad, d_pad = step(ids, mask, drop_pad)
        logits_trim, g_trim, d_trim = step(ids_trim, mask_trim, drop_trim)
        np.testing.assert_allclose(logits_trim, logits_pad, rtol=1e-12, atol=0)
        scale = max(np.abs(g).max() for g in g_pad.values())
        for k in g_pad:
            np.testing.assert_allclose(
                g_trim[k], g_pad[k], rtol=1e-12, atol=1e-12 * scale, err_msg=k
            )
        np.testing.assert_allclose(
            d_trim, d_pad[:, :n], rtol=1e-12, atol=1e-12 * np.abs(d_pad).max()
        )
        assert not d_pad[:, n:].any()

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_dropout_stream_unchanged(self, variant):
        # each mask is the next (B, Lq, D) draw in layer order, attention then
        # FFN, with Lq = L, or 1 in the last layer, which computes the CLS row
        # only; the forward pass caches the masks it was given
        rng = np.random.default_rng(16)
        cfg = small_config(20, variant, layers=2, dropout_rate=0.3)
        p = randomize_params(init_params(cfg), rng)
        ids_trim, mask_trim, ids, mask = self._batch(rng)
        for ids, mask in ((ids_trim, mask_trim), (ids, mask)):
            B, L = ids.shape
            _, trace = forward_batch(
                p, cfg, ids, mask, dropout_masks(np.random.default_rng(4), cfg, B, L)
            )
            replay = np.random.default_rng(4)
            for li, cache in enumerate(trace.layer_caches):
                Lq = 1 if li == cfg.layers - 1 else L
                for name in ("attn_drop", "ffn_drop"):
                    want = replay.random((B, Lq, 8)) >= cfg.dropout_rate
                    assert np.array_equal(cache[name], want)


# ---------------------------------------------------------------------------
# The encoder as it was before the last layer went CLS-only: every layer,
# the last included, computes its queries, attention rows, FFN and the final
# norm at all L positions, and the backward pass starts from a zero-filled
# (B, L, D) gradient with the CLS row set.

def _full_length_forward(p, cfg, emb, mask, dropout=None):
    """`dropout` holds each layer's (attention, FFN) keep-masks at (B, L, D)."""
    x = np.asarray(emb, dtype=np.float64)
    L = x.shape[1]
    H, dh = cfg.heads, cfg.d_head
    bias = _key_mask_bias(mask)
    rel_idx = _rel_index(cfg.max_seq_len, cfg.rel_window)[:L, :L]
    keeps = iter([m for pair in dropout for m in pair] if dropout else [])

    def drop(y):
        if dropout is None:
            return y, None
        dm = next(keeps) / (1.0 - cfg.dropout_rate)
        return y * dm, dm

    caches = []
    for li in range(cfg.layers):
        pre = f"layers.{li}."
        c = {"pre": pre}
        c["h1"], c["ln1"] = encoder._ln_forward(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        proj = {n: c["h1"] @ p[pre + f"attn.w{n}"] + p.get(pre + f"attn.b{n}", 0.0)
                for n in "qkv"}
        q, k, v = (encoder._split_heads(proj[n], H) for n in "qkv")
        c["q"], c["k"], c["v"] = q, k, v
        if cfg.attention_variant == DISENTANGLED:
            rel = p["rel_emb"]
            c["kr"] = (rel @ p[pre + "attn.wk"]).reshape(cfg.rel_size, H, dh).transpose(1, 0, 2)
            c["qr"] = (rel @ p[pre + "attn.wq"]).reshape(cfg.rel_size, H, dh).transpose(1, 0, 2)
            scores = _scores_oracle(q, k, c["qr"], c["kr"], rel_idx)
        else:
            scores = q @ k.swapaxes(-1, -2) / math.sqrt(dh)
        c["attn"] = _masked_softmax(scores, bias)
        c["o"] = encoder._merge_heads(c["attn"] @ v)
        out, c["attn_drop"] = drop(c["o"] @ p[pre + "attn.wo"] + p[pre + "attn.bo"])
        x = x + out
        c["h2"], c["ln2"] = encoder._ln_forward(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        c["a"] = c["h2"] @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]
        c["g"], c["phi"] = encoder._gelu_forward(c["a"])
        y, c["ffn_drop"] = drop(c["g"] @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"])
        x = x + y
        caches.append(c)
    final = None
    if cfg.use_final_norm:
        x, final = encoder._ln_forward(x, p["ln_f.g"], p["ln_f.b"])
    cls = x[:, 0]
    return cls @ p["head.w"] + p["head.b"], (caches, final, cls, L)


def _full_length_backward(p, cfg, state, dlogits):
    caches, final, cls, L = state
    H, dh = cfg.heads, cfg.d_head
    grads = zero_grads_like(p)
    grads["head.w"] += cls.T @ dlogits
    grads["head.b"] += dlogits.sum(axis=0)
    dx = np.zeros((len(dlogits), L, cfg.d_model))
    dx[:, 0] = dlogits @ p["head.w"].T
    if final is not None:
        dx = encoder._ln_backward(dx, final, grads, "ln_f.")
    for c in reversed(caches):
        pre = c["pre"]
        dy = dx if c["ffn_drop"] is None else dx * c["ffn_drop"]
        grads[pre + "ffn.w2"] += encoder._sum_outer(c["g"], dy)
        grads[pre + "ffn.b2"] += dy.sum(axis=(0, 1))
        da = encoder._gelu_backward(dy @ p[pre + "ffn.w2"].T, c["a"], c["phi"])
        grads[pre + "ffn.w1"] += encoder._sum_outer(c["h2"], da)
        grads[pre + "ffn.b1"] += da.sum(axis=(0, 1))
        dh2 = da @ p[pre + "ffn.w1"].T
        dx = dx + encoder._ln_backward(dh2, c["ln2"], grads, pre + "ln2.")

        dout = dx if c["attn_drop"] is None else dx * c["attn_drop"]
        grads[pre + "attn.wo"] += encoder._sum_outer(c["o"], dout)
        grads[pre + "attn.bo"] += dout.sum(axis=(0, 1))
        do_h = encoder._split_heads(dout @ p[pre + "attn.wo"].T, H)
        attn, q, k, v = c["attn"], c["q"], c["k"], c["v"]
        dattn = do_h @ v.swapaxes(-1, -2)
        dv = attn.swapaxes(-1, -2) @ do_h
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        if cfg.attention_variant == DISENTANGLED:
            ds = dscores / math.sqrt(3.0 * dh)
            rel_idx = _rel_index(cfg.max_seq_len, cfg.rel_window)[:L, :L]
            # c2p adds q[i] . kr[rel(i, j)]; p2c adds k[j] . qr[rel(j, i)]
            dqkr = np.zeros((*ds.shape[:3], cfg.rel_size))
            dkqr = np.zeros((*ds.shape[:3], cfg.rel_size))
            for i in range(L):
                for j in range(L):
                    dqkr[:, :, i, rel_idx[i, j]] += ds[:, :, i, j]
                    dkqr[:, :, j, rel_idx[j, i]] += ds[:, :, i, j]
            dq = ds @ k + dqkr @ c["kr"]
            dk = ds.swapaxes(-1, -2) @ q + dkqr @ c["qr"]
            dkr = np.einsum("bhlr,bhld->rhd", dqkr, q).reshape(cfg.rel_size, -1)
            dqr = np.einsum("bhlr,bhld->rhd", dkqr, k).reshape(cfg.rel_size, -1)
            grads[pre + "attn.wk"] += p["rel_emb"].T @ dkr
            grads[pre + "attn.wq"] += p["rel_emb"].T @ dqr
            grads["rel_emb"] += dkr @ p[pre + "attn.wk"].T + dqr @ p[pre + "attn.wq"].T
        else:
            ds = dscores / math.sqrt(dh)
            dq, dk = ds @ k, ds.swapaxes(-1, -2) @ q
        dh1 = 0.0
        for n, d in zip("qkv", (dq, dk, dv)):
            d = encoder._merge_heads(d)
            grads[pre + f"attn.w{n}"] += encoder._sum_outer(c["h1"], d)
            if pre + f"attn.b{n}" in grads:
                grads[pre + f"attn.b{n}"] += d.sum(axis=(0, 1))
            dh1 = dh1 + d @ p[pre + f"attn.w{n}"].T
        dx = dx + encoder._ln_backward(dh1, c["ln1"], grads, pre + "ln1.")
    return grads, dx


def _randomize_with_key_bias_draws(params, rng, scale=0.3):
    """randomize_params, plus a discarded draw after each attn.bq of a layout without attn.bk.

    Both variants then draw every tensor as if each layer had a key bias. The
    comparison below was first set, at atol 0, on those draws: the two paths
    sum the same terms in different orders, and on the draws without the
    discarded ones one absolute entry of layers.1.ffn.w2 cancels to 1.9e-6 in
    a tensor of scale 0.2 and differs by 3.4e-12 relative, as it does with a
    zero key bias too.
    """
    out = {}
    for k, v in params.items():
        out[k] = rng.normal(0.0, scale, size=v.shape)
        if k.endswith("attn.bq") and k[:-1] + "k" not in params:
            rng.normal(0.0, scale, size=v.shape)
    return out


class TestClsOnlyLastLayer:
    """The CLS-only last layer against the full-length reference above."""

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("variant, rel_window", _window_cases(11), ids=_WINDOW_IDS)
    def test_matches_full_length_reference(self, variant, rel_window, layers, training):
        rng = np.random.default_rng(17 + layers)
        cfg = small_config(20, variant, layers=layers, rel_window=rel_window,
                           dropout_rate=0.2 if training else 0.0)
        p = _randomize_with_key_bias_draws(init_params(cfg), rng)
        emb = rng.normal(size=(3, 12, 8))
        mask = np.ones((3, 12))
        mask[0, 7:] = 0
        mask[2, 10:] = 0
        dlog = rng.normal(size=(3, 3))

        # full-length masks for the reference; the CLS-only last layer keeps
        # its first row of them
        drop_rng = np.random.default_rng(5)
        full = [tuple(drop_rng.random((3, 12, 8)) >= cfg.dropout_rate for _ in range(2))
                for _ in range(layers)] if training else None
        dropout = [pair if li < layers - 1 else tuple(m[:, :1] for m in pair)
                   for li, pair in enumerate(full)] if training else None

        want, state = _full_length_forward(p, cfg, emb, mask, full)
        want_grads, want_demb = _full_length_backward(p, cfg, state, dlog)
        got, trace = forward_from_embeddings(p, cfg, emb, mask, dropout)
        grads, demb = backward(p, trace, dlog)
        _, demb_only = backward(p, forward_from_embeddings(p, cfg, emb, mask, dropout)[1], dlog,
                                param_grads=False)

        # an entry that nearly cancels can differ by a few 1e-12 of itself, a
        # few 1e-15 of its tensor's largest entry, so 1e-14 of that entry is
        # allowed too
        def close(a, b, **kwargs):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14 * np.abs(b).max(), **kwargs)

        close(got, want)
        assert demb.shape == emb.shape
        close(demb, want_demb)
        assert np.array_equal(demb_only, demb)
        assert grads.keys() == want_grads.keys()
        for k in want_grads:
            if rel_window == 0 and k.endswith("attn.bk"):
                # in one bin, p2c adds bk . qr[0] to every score and c2c adds
                # q_i . bk to all of row i, which the softmax cancels: the key
                # bias's gradient is zero, and both paths read rounding there
                assert np.abs(grads[k]).max() < 1e-16 and np.abs(want_grads[k]).max() < 1e-16
                continue
            close(grads[k], want_grads[k], err_msg=k)

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_last_layer_keeps_cls_row_only(self, variant):
        rng = np.random.default_rng(18)
        cfg = small_config(20, variant, layers=2)
        p = randomize_params(init_params(cfg), rng)
        _, trace = forward_from_embeddings(p, cfg, rng.normal(size=(3, 12, 8)), np.ones((3, 12)))
        first, last = trace.layer_caches
        assert first["q"].shape == (3, cfg.heads, 12, cfg.d_head)
        assert last["q"].shape == (3, cfg.heads, 1, cfg.d_head)
        assert last["k"].shape == last["v"].shape == first["k"].shape
        assert last["attn"].shape == (3, cfg.heads, 1, 12)
        assert last["a"].shape == (3, 1, cfg.d_ff)
        assert trace.final["ln_f"][0].shape == (3, 1, cfg.d_model)


class TestLeanTrace:
    """The trace keeps only what the backward reads. The layer norms' outputs
    h1 and h2 and the GELU output g feed only the parameter gradients, so the
    backward rebuilds them from the layer-norm cache and from a and phi."""

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_caches_hold_no_rebuilt_activation(self, variant):
        rng = np.random.default_rng(19)
        cfg = small_config(20, variant, layers=3, dropout_rate=0.2)
        p = randomize_params(init_params(cfg), rng)
        _, trace = forward_from_embeddings(p, cfg, rng.normal(size=(2, 9, 8)), np.ones((2, 9)),
                                           dropout_masks(rng, cfg, 2, 9))
        assert len(trace.layer_caches) == 3
        for cache in trace.layer_caches:
            assert not {"h1", "h2", "g"} & cache.keys(), sorted(cache)

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_forward_peak_over_its_trace(self, variant):
        # a 16-row training call at the acceptance shape (2 layers, d_model
        # 64, d_ff 128, L 49). Beyond what it leaves allocated, its trace, the
        # forward holds at most three (B, L, d_ff) float64 arrays at once;
        # caching h1, h2 and g and keeping each layer's temporaries alive into
        # the next layer read 3.5 (absolute) and 4.5 (disentangled)
        B, L = 16, 49
        rng = np.random.default_rng(20)
        cfg = small_config(40, variant, max_seq_len=64, layers=2, heads=4, d_model=64, d_ff=128,
                           rel_window=16, dropout_rate=0.1)
        p = randomize_params(init_params(cfg), rng)
        ids, mask = rng.integers(1, 40, size=(B, L)), np.ones((B, L))
        dropout = dropout_masks(rng, cfg, B, L)
        forward_batch(p, cfg, ids, mask, dropout)  # warm-up
        tracemalloc.start()
        try:
            _, trace = forward_batch(p, cfg, ids, mask, dropout)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ffn = B * L * cfg.d_ff * 8
        assert peak - held <= 3 * ffn, (peak - held) / ffn


# ---------------------------------------------------------------------------
# Layer norm, GELU, the linear map and the softmax backward as written before
# layer norm took its row means as BLAS products and the ops reused their
# temporaries. Only the means' and the softmax backward's row sums changed
# their order of summation; the rest is the same arithmetic in the same order.

def _ln_forward_oracle(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + encoder._LN_EPS)
    xhat = xc * ivar
    return g * xhat + b, (xhat, ivar, g)


def _ln_backward_oracle(dy, cache, grads=None, prefix=""):
    xhat, ivar, g = cache
    if grads is not None:
        axes = tuple(range(dy.ndim - 1))
        grads[prefix + "g"] += (dy * xhat).sum(axis=axes)
        grads[prefix + "b"] += dy.sum(axis=axes)
    dxhat = dy * g
    return ivar * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def _linear_oracle(params, pre, n, x):
    y = x @ params[f"{pre}w{n}"]
    b = params.get(f"{pre}b{n}")
    return y if b is None else y + b


def _gelu_forward_oracle(a):
    phi = np.array([0.5 * (1.0 + math.erf(v * encoder._INV_SQRT2)) for v in a.ravel().tolist()])
    phi = phi.reshape(a.shape)
    return a * phi, phi


def _gelu_backward_oracle(da_out, a, phi):
    return da_out * (phi + a * np.exp(-0.5 * a * a) * encoder._INV_SQRT2PI)


def _softmax_backward_oracle(attn, dattn):
    dattn -= (dattn * attn).sum(axis=-1, keepdims=True)
    dattn *= attn
    return dattn


_ORACLE_OPS = {"_ln_forward": _ln_forward_oracle, "_ln_backward": _ln_backward_oracle,
               "_linear": _linear_oracle, "_gelu_forward": _gelu_forward_oracle,
               "_gelu_backward": _gelu_backward_oracle,
               "_softmax_backward": _softmax_backward_oracle}


def _close(got, want):
    """Equal to rounding: rtol 1e-12, and an atol of 1e-14 times the largest
    entry for entries that cancel to near zero."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


class TestOpsMatchOracle:
    @pytest.mark.parametrize("Lq", [9, 1])
    def test_each_op(self, Lq):
        rng = np.random.default_rng(41)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, Lq, 16))
        g, b = rng.normal(size=16), rng.normal(size=16)
        dy = rng.normal(size=x.shape)
        a, da = rng.normal(scale=3.0, size=(2, 4, Lq, 24))
        attn = _masked_softmax(rng.normal(scale=4.0, size=(4, 2, Lq, 9)), None)
        dattn = rng.normal(size=attn.shape)
        inputs = [x, g, b, dy, a, da, attn]
        before = [v.copy() for v in inputs]

        y, cache = encoder._ln_forward(x, g, b)
        want_y, want_cache = _ln_forward_oracle(x, g, b)
        for got, want in zip((y, *cache), (want_y, *want_cache), strict=True):
            _close(got, want)
        grads = {"ln.g": np.zeros(16), "ln.b": np.zeros(16)}
        want_grads = {k: v.copy() for k, v in grads.items()}
        _close(encoder._ln_backward(dy, want_cache, grads, "ln."),
               _ln_backward_oracle(dy, want_cache, want_grads, "ln."))
        assert all(np.array_equal(grads[k], want_grads[k]) for k in grads)

        p = {"l.w1": rng.normal(size=(16, 24)), "l.b1": rng.normal(size=24)}
        assert np.array_equal(encoder._linear(p, "l.", "1", x), _linear_oracle(p, "l.", "1", x))
        got_g, got_phi = encoder._gelu_forward(a)
        want_phi = _gelu_forward_oracle(a)[1]
        assert np.abs(got_phi - want_phi).max() <= 2.0 ** -52
        assert np.array_equal(got_g, a * got_phi)
        assert np.array_equal(encoder._gelu_backward(da, a, want_phi),
                              _gelu_backward_oracle(da, a, want_phi))

        _close(encoder._softmax_backward(attn, dattn.copy()),
               _softmax_backward_oracle(attn, dattn.copy()))
        # only the softmax backward writes over an input, its dattn
        assert all(np.array_equal(v, w) for v, w in zip(inputs, before, strict=True))

    def test_normal_cdf_on_a_dense_grid(self):
        # within 2^-52 of the math.erf formula over [-40, 40], on both sides of
        # Cephes' branch points x = a/√2 = ±1 and ±8, at ±0 and the smallest
        # subnormal; it saturates at ±40 and ±1e300, and never warns
        edges = [math.nextafter(e, side) for b in (math.sqrt(2.0), 8.0 * math.sqrt(2.0))
                 for e in (b, -b) for side in (-math.inf, e, math.inf)]
        a = np.concatenate([np.linspace(-40.0, 40.0, 100_001), edges,
                            [0.0, -0.0, 5e-324, -5e-324, -1e300, 1e300]])
        with np.errstate(all="raise"):
            phi = encoder._normal_cdf(a)
        assert np.abs(phi - _gelu_forward_oracle(a)[1]).max() <= 2.0 ** -52
        assert phi[[0, 100_000, -2, -1]].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert phi[-6:-2].tolist() == [0.5] * 4

    @pytest.mark.parametrize("variant", [ABSOLUTE, DISENTANGLED])
    def test_encoder_matches_oracle_ops(self, monkeypatch, variant):
        # a training step with dropout and a padded row, and an IG path call
        rng = np.random.default_rng(43)
        cfg = small_config(20, variant, layers=2, dropout_rate=0.2)
        p = randomize_params(init_params(cfg), rng)
        ids = rng.integers(1, 20, size=(3, 10))
        mask = np.ones((3, 10))
        mask[1, 7:] = 0
        dlog = rng.normal(size=(3, 3))
        drop = dropout_masks(np.random.default_rng(3), cfg, *ids.shape)
        path = rng.normal(size=(6, 10, 8))
        dlog_ig = np.zeros((6, 3))
        dlog_ig[:, 1] = 1.0

        def run():
            logits, trace = forward_batch(p, cfg, ids, mask, drop)
            grads, demb = backward(p, trace, dlog)
            path_logits, trace = forward_from_embeddings(p, cfg, path, np.ones((6, 10)))
            return logits, grads, demb, path_logits, backward(p, trace, dlog_ig, False)[1]

        got = run()
        for name, op in _ORACLE_OPS.items():
            monkeypatch.setattr(encoder, name, op)
        want = run()
        for i in (0, 2, 3, 4):
            _close(got[i], want[i])
        assert got[1].keys() == want[1].keys()
        for k in want[1]:
            _close(got[1][k], want[1][k])


def test_softmax_backward_holds_no_score_sized_temporary():
    # one row at L = 300 and 4 heads, where each (B, H, Lq, L) array is 2.9
    # MB: the row sums are row dots, so beyond its inputs the call holds
    # less than one such array (the product dattn * attn was one)
    rng = np.random.default_rng(5)
    attn = _masked_softmax(rng.normal(size=(1, 4, 300, 300)), None)
    dattn = rng.normal(size=attn.shape)
    tracemalloc.start()
    try:
        encoder._softmax_backward(attn, dattn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < attn.nbytes, peak / attn.nbytes


# ---------------------------------------------------------------------------
# The row cut that IG, training and evaluation share

_LENGTHS = st.one_of(
    st.lists(st.integers(1, 200), max_size=70).map(sorted),
    st.tuples(st.integers(1, 200), st.integers(0, 200)).map(lambda t: [t[0]] * t[1]),
)


@settings(max_examples=300, deadline=None)
@given(lengths=_LENGTHS, d_model=st.sampled_from([1, 8, 16, 64]),
       budget=st.integers(1, 60000))
def test_row_chunks_contract(lengths, d_model, budget):
    cuts = []
    for workers in (1, 2, 3):
        with mock.patch.object(encoder, "_CHUNK_FLOATS", budget), \
                mock.patch.object(encoder, "_WORKERS", workers):
            cuts.append(list(encoder.row_chunks(lengths, d_model)))
    parts = cuts[0]
    assert cuts[1] == parts and cuts[2] == parts  # the worker count plays no part
    # every row once, in order, and no chunk empty
    assert [i for part in parts for i in range(len(lengths))[part]] == list(range(len(lengths)))
    sizes = [part.stop - part.start for part in parts]
    assert all(size >= 1 for size in sizes)
    for part, size in zip(parts, sizes):
        if size > 1:
            assert size * lengths[part.stop - 1] * d_model <= budget, (part, lengths)
    if lengths and lengths[0] == lengths[-1]:
        cap = max(1, budget // (lengths[0] * d_model))
        assert len(parts) == math.ceil(len(lengths) / cap)
        assert max(sizes) - min(sizes) <= 1, sizes
