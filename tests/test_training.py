import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig import attribution, encoder, training
from flowig.cli import main
from flowig.errors import DataError, NumericError
from flowig.evaluation import confusion, metrics
from flowig.flow_data import BENIGN, DDOS, WEB_ATTACK
from flowig.tokenizer import tokenize_rows
from flowig.training import TrainConfig, _loss_rows, class_weights, train

from conftest import batch_of, make_batch, make_example, randomize_params, small_config, stack, take


class TestClassWeights:
    def test_hand_check(self):
        # counts (4, 1, 1): inverse sqrts (1/2, 1, 1), mean 5/6
        np.testing.assert_allclose(class_weights((4, 1, 1)), (0.6, 1.2, 1.2), atol=1e-15)

    def test_equal_counts(self):
        np.testing.assert_allclose(class_weights((7, 7, 7)), 1.0, atol=1e-15)

    def test_corpus_ratio(self):
        # ratio of rarest to most common weight equals sqrt(n_max / n_min)
        w = class_weights((243211, 121606, 2053), clip=(0.0, math.inf))
        got = w[2] / w[0]
        assert abs(got - math.sqrt(243211 / 2053)) < 1e-9

    def test_clipping(self):
        w = class_weights((1000000, 100, 100), clip=(0.25, 1.2))
        assert w[1] == w[2] == 1.2
        assert w[0] == 0.25
        unclipped = class_weights((1000000, 100, 100), clip=(0.0, math.inf))
        assert unclipped[1] > 1.2
        assert unclipped[0] < 0.25

    def test_missing_class(self):
        with pytest.raises(DataError, match="WEB_ATTACK"):
            class_weights((10, 10, 0))

    @given(st.tuples(*[st.integers(1, 10**7)] * 3))
    @settings(max_examples=50)
    def test_unclipped_mean_one(self, counts):
        unclipped = class_weights(counts, clip=(0.0, math.inf))
        assert abs(sum(unclipped) / 3 - 1.0) < 1e-12
        order = np.argsort(counts)
        w = np.asarray(unclipped)[order]
        assert all(w[i] >= w[i + 1] - 1e-15 for i in range(2))


def _batch_loss(logits, labels, w):
    """The mean loss of a whole batch and its dlogits."""
    rows, grad = _loss_rows(logits, labels, w, len(logits))
    return float(rows.mean()), grad


class TestWeightedCrossEntropy:
    """The loss `_loss_rows`: mean class-weighted cross-entropy, by rows."""

    def test_uniform_logits(self):
        w = np.asarray(class_weights((5, 5, 5)))
        loss, _ = _batch_loss(np.zeros((1, 3)), np.array([0]), w)
        assert abs(loss - math.log(3)) < 1e-12

    def test_weight_doubles_loss(self):
        z = np.array([[0.3, -1.2, 0.9]])
        label = np.array([BENIGN])
        l1, g1 = _batch_loss(z, label, np.array([1.0, 1.0, 1.0]))
        l2, g2 = _batch_loss(z, label, np.array([2.0, 1.0, 1.0]))
        assert abs(l2 - 2 * l1) < 1e-12
        np.testing.assert_allclose(g2, 2 * g1, atol=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(0)
        w = np.asarray(class_weights((4, 1, 1)))
        z = rng.normal(size=(2, 3))
        labels = np.array([DDOS, BENIGN])
        _, grad = _batch_loss(z, labels, w)
        eps = 1e-6
        for idx in np.ndindex(z.shape):
            zp, zm = z.copy(), z.copy()
            zp[idx] += eps
            zm[idx] -= eps
            fd = (_batch_loss(zp, labels, w)[0] - _batch_loss(zm, labels, w)[0]) / (2 * eps)
            assert abs(fd - grad[idx]) < 1e-8

    def test_grad_sums_to_zero(self):
        w = np.asarray(class_weights((3, 3, 3)))
        z = np.array([[5.0, -2.0, 0.1], [0.0, 1.0, -1.0]])
        labels = np.array([WEB_ATTACK, DDOS])
        _, grad = _batch_loss(z, labels, w)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def tiny_corpus(vocab, schema, n_per_class=8):
    """Separable toy set: first feature high for DDoS, low otherwise."""
    rng = np.random.default_rng(0)
    rows, labels = [], []
    for label in (BENIGN, DDOS, WEB_ATTACK):
        for _ in range(n_per_class):
            values = [float(rng.integers(100, 200)) for _ in range(schema.d)]
            if label == DDOS:
                values[0] = float(rng.integers(900, 1000))
            elif label == WEB_ATTACK:
                values[1] = float(rng.integers(900, 1000))
            rows.append(values)
            labels.append(label)
    return make_batch(vocab, schema, rows, labels=labels)


@pytest.fixture(scope="module")
def corpus(vocab, schema):
    batch = tiny_corpus(vocab, schema)
    return batch, take(batch, slice(None, None, 3))


class TestTrain:
    def run_train(self, vocab, corpus, **kw):
        train_ex, val_ex = corpus
        cfg = small_config(vocab.size, max_seq_len=64, d_model=16, d_ff=24, dropout_rate=0.1)
        tc = TrainConfig(epochs=kw.pop("epochs", 3), batch_size=8, seed=kw.pop("seed", 0), **kw)
        params = encoder.init_params(cfg)
        best, log = train(params, cfg, train_ex, val_ex, class_weights((8, 8, 8)), tc)
        return best, log

    def test_loss_decreases(self, vocab, corpus):
        _, log = self.run_train(vocab, corpus)
        losses = [r.train_loss for r in log.epochs]
        assert losses[-1] < losses[0]

    def test_same_seed_identical(self, vocab, corpus):
        a, loga = self.run_train(vocab, corpus)
        b, logb = self.run_train(vocab, corpus)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
        assert [r.train_loss for r in loga.epochs] == [r.train_loss for r in logb.epochs]

    def test_early_stopping(self, vocab, corpus):
        # perfect validation from epoch 1 on this toy set cannot improve, so
        # patience=1 must stop after the second epoch
        _, log = self.run_train(vocab, corpus, epochs=10, patience=1)
        if log.epochs[0].val_macro_f1 == 1.0:
            assert len(log.epochs) == 2
        else:
            assert len(log.epochs) <= 10

    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_split_refused(self, vocab, corpus, empty):
        batches = dict(zip(("training", "validation"), corpus))
        batches[empty] = tokenize_rows([], vocab, 64, [])
        cfg = small_config(vocab.size, max_seq_len=64)
        with pytest.raises(DataError, match=f"^{empty} split is empty$"):
            train(encoder.init_params(cfg), cfg, *batches.values(), (1.0, 1.0, 1.0))

    def test_best_params_kept(self, vocab, corpus):
        best, log = self.run_train(vocab, corpus)
        assert log.best_epoch >= 1
        assert log.best_val_macro_f1 == max(r.val_macro_f1 for r in log.epochs)
        train_ex, val_ex = corpus
        cfg = small_config(vocab.size, max_seq_len=64, d_model=16, d_ff=24, dropout_rate=0.1)
        _, preds = training.evaluate_examples(best, cfg, val_ex)
        cm = confusion(preds, val_ex.labels)
        assert abs(metrics(cm).macro_f1 - log.best_val_macro_f1) < 1e-12


def _padded(rows, max_seq_len):
    """ids and mask with every row of token ids padded to max_seq_len (PAD id 0)."""
    ids = np.zeros((len(rows), max_seq_len), dtype=np.int64)
    mask = np.zeros((len(rows), max_seq_len))
    for row, r in enumerate(rows):
        ids[row, : len(r)] = r
        mask[row, : len(r)] = 1
    return ids, mask


def _active_length(mask):
    """Last position attended in any row of a (B, L) mask, plus 1: where a
    batch of examples padded to max_seq_len used to be cut."""
    attended = (np.asarray(mask) > 0).any(axis=0)
    return len(attended) - int(np.argmax(attended[::-1]))


class TestStack:
    """A batch's rows as `training._rows` cuts them for one encoder call."""

    LENGTHS = pytest.mark.parametrize(
        "lengths", [(3, 5, 1), (3,), (7, 10, 9), (4, 4), (16, 2)],
        ids=["mixed", "single", "mixed-longest-inside", "equal", "full-width"],
    )

    def check(self, lengths, rows):
        rng = np.random.default_rng(len(lengths))
        examples = [rng.integers(1, 20, size=n) for n in lengths]
        batch = batch_of(examples, [i % 3 for i in range(len(lengths))])
        ids, mask = training._rows(batch, rows)
        want_ids, want_mask = _padded([examples[i] for i in rows], 16)
        n = _active_length(want_mask)
        assert n == max(lengths[i] for i in rows)
        assert ids.dtype == want_ids.dtype and mask.dtype == want_mask.dtype
        assert np.array_equal(ids, want_ids[:, :n])
        assert np.array_equal(mask, want_mask[:, :n])

    @LENGTHS
    def test_matches_padded_then_cut(self, lengths):
        self.check(lengths, np.arange(len(lengths)))

    @LENGTHS
    def test_some_rows_reordered_cut_to_their_longest(self, lengths):
        # all rows but the first, in reverse order
        self.check(lengths, np.arange(len(lengths))[:0:-1] if len(lengths) > 1 else np.arange(1))


class TestEvaluateExamples:
    @pytest.mark.parametrize("variant", [encoder.ABSOLUTE, encoder.DISENTANGLED])
    def test_trimmed_chunks_match_untrimmed(self, vocab, schema, variant, monkeypatch):
        rng = np.random.default_rng(1)
        rows = [[float(rng.integers(1, 10 ** int(rng.integers(1, 5)))) for _ in range(schema.d)]
                for _ in range(10)]
        batch = make_batch(vocab, schema, rows, labels=[BENIGN] * 10)
        examples = [make_example(vocab, schema, values).ids for values in rows]
        lengths = {len(e) for e in examples}
        assert len(lengths) > 1 and max(lengths) < 64
        cfg = small_config(vocab.size, variant, max_seq_len=64, d_model=16, d_ff=24)
        params = randomize_params(encoder.init_params(cfg), rng)
        ids, mask = _padded(examples, 64)
        want, _ = encoder.forward_batch(params, cfg, ids, mask)
        # at most 3 rows per call, so the 10 examples take 4 calls or more
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 3 * min(lengths) * cfg.d_model)
        logits, preds = training.evaluate_examples(params, cfg, batch)
        np.testing.assert_allclose(logits, want, rtol=1e-12, atol=0)
        assert np.array_equal(preds, want.argmax(axis=1))

    @pytest.mark.parametrize("variant", [encoder.ABSOLUTE, encoder.DISENTANGLED])
    def test_length_sorted_chunks_keep_input_order(self, vocab, schema, variant, monkeypatch):
        rng = np.random.default_rng(2)
        digits = [1, 8, 2, 7, 1, 6, 3, 8, 2]
        rows = [[float(rng.integers(10 ** (k - 1), 10 ** k)) for _ in range(schema.d)]
                for k in digits]
        batch = make_batch(vocab, schema, rows, max_seq_len=128,
                           labels=[i % 3 for i in range(len(rows))])
        examples = [make_example(vocab, schema, values, max_seq_len=128) for values in rows]
        lengths = np.array([len(e.ids) for e in examples])
        order = np.argsort(lengths, kind="stable")
        cfg = small_config(vocab.size, variant, max_seq_len=128, d_model=16, d_ff=24)
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 3 * lengths.max() * cfg.d_model)
        parts = list(encoder.row_chunks(lengths[order], cfg.d_model))
        in_order = {frozenset(range(len(examples))[part]) for part in parts}
        by_length = {frozenset(order[part].tolist()) for part in parts}
        assert len(parts) > 1 and in_order != by_length
        params = randomize_params(encoder.init_params(cfg), rng)
        logits, preds = training.evaluate_examples(params, cfg, batch)
        want = np.concatenate([
            encoder.forward_batch(params, cfg, np.array([e.ids]), np.ones((1, len(e.ids))))[0]
            for e in examples
        ])
        assert not np.allclose(want, want[order])  # so a lost order would show
        np.testing.assert_allclose(logits, want, rtol=1e-12, atol=0)
        assert np.array_equal(preds, want.argmax(axis=1))

    @pytest.mark.parametrize("variant", [encoder.ABSOLUTE, encoder.DISENTANGLED])
    def test_unlabeled_examples(self, vocab, schema, variant):
        # examples tokenized without a label give the logits of labeled copies
        rng = np.random.default_rng(4)
        values = [[float(rng.integers(1, 10 ** int(rng.integers(1, 5)))) for _ in range(schema.d)]
                  for _ in range(6)]
        labeled = make_batch(vocab, schema, values, labels=[i % 3 for i in range(6)])
        unlabeled = make_batch(vocab, schema, values)
        assert unlabeled.labels is None
        cfg = small_config(vocab.size, variant, max_seq_len=64, layers=2, d_model=16, d_ff=24)
        params = randomize_params(encoder.init_params(cfg), rng)
        logits, preds = training.evaluate_examples(params, cfg, unlabeled)
        want, want_preds = training.evaluate_examples(params, cfg, labeled)
        assert np.array_equal(logits, want)
        assert np.array_equal(preds, want_preds)

    def test_untrained_model_predicts_index_0(self, vocab, schema):
        # init_params zeroes the head, so every logit ties and the tie goes
        # to the lowest class index
        rng = np.random.default_rng(3)
        batch = make_batch(vocab, schema,
                           [[float(v) for v in rng.integers(0, 100, schema.d)] for _ in range(5)],
                           labels=[i % 3 for i in range(5)])
        cfg = small_config(vocab.size, max_seq_len=64)
        logits, preds = training.evaluate_examples(encoder.init_params(cfg), cfg, batch)
        assert (logits == 0).all()
        assert preds.dtype == np.int64
        assert preds.tolist() == [0] * 5


def _whole_batch_step(params, cfg, ids, mask, labels, w, dropout):
    """A training step's loss and gradients from one encoder call over the
    whole batch: the reference the chunked step must match."""
    logits, trace = encoder.forward_batch(params, cfg, ids, mask, dropout)
    rows, dlogits = _loss_rows(logits, labels, w, len(ids))
    grads, demb = encoder.backward(params, trace, dlogits)
    encoder.accumulate_embedding_grads(grads, ids, demb)
    return float(rows.mean()), grads


class TestChunkedStep:
    """A training batch runs through the encoder in row chunks, each with its
    rows of the batch's dropout masks and dlogits; Adam steps once per batch."""

    @pytest.fixture(autouse=True)
    def _one_worker(self, monkeypatch):
        # the chunk counts below are those of the whole budget in one call
        monkeypatch.setattr(encoder, "_WORKERS", 1)

    @pytest.mark.parametrize("variant", [encoder.ABSOLUTE, encoder.DISENTANGLED])
    def test_matches_whole_batch(self, variant, monkeypatch):
        rng = np.random.default_rng(23)
        cfg = small_config(20, variant, layers=2, dropout_rate=0.2)
        p = randomize_params(encoder.init_params(cfg), rng)
        ids, mask = stack([rng.integers(1, 20, size=n) for n in (7, 10, 9, 12, 5, 11, 8)])
        labels = np.arange(7) % 3
        w = np.array([0.7, 1.1, 1.4])
        dropout = encoder.dropout_masks(np.random.default_rng(4), cfg, *ids.shape)
        want_loss, want = _whole_batch_step(p, cfg, ids, mask, labels, w, dropout)

        calls = []
        forward = encoder.forward_from_embeddings

        def recording(params, config, embeddings, *args, **kwargs):
            calls.append(len(embeddings))
            return forward(params, config, embeddings, *args, **kwargs)

        monkeypatch.setattr(encoder, "forward_from_embeddings", recording)
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 2 * ids.shape[1] * cfg.d_model)
        loss, grads = training._batch_grads(p, cfg, ids, mask, labels, w, dropout)

        assert calls == [2, 2, 2, 1]
        # BLAS blocks the matmuls by row count, so the loss may round apart
        np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0)
        assert grads.keys() == want.keys()
        scale = max(np.abs(g).max() for g in want.values())
        for k in want:
            np.testing.assert_allclose(grads[k], want[k], rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=k)

    def test_non_finite_loss_stops_before_any_step(self, vocab, corpus, monkeypatch):
        train_ex, val_ex = corpus
        cfg = small_config(vocab.size, max_seq_len=64, d_model=16, d_ff=24, dropout_rate=0.1)
        params = encoder.init_params(cfg)
        seen = []
        forward_batch = encoder.forward_batch

        def recording(p, *args, **kwargs):
            seen.append(p)
            return forward_batch(p, *args, **kwargs)

        monkeypatch.setattr(encoder, "forward_batch", recording)
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 3 * 64 * cfg.d_model)
        # WEB_ATTACK rows get an infinite loss; the first batch holds one
        with pytest.raises(NumericError, match=r"^non-finite loss at epoch 1, batch 0$"):
            with np.errstate(invalid="ignore"):
                train(params, cfg, train_ex, val_ex, (1.0, 1.0, math.inf),
                      TrainConfig(epochs=1, batch_size=8))
        assert len(seen) == 3  # every chunk of the batch ran
        assert all(p is seen[0] for p in seen)  # train's own copy of the parameters
        for k in params:
            np.testing.assert_array_equal(seen[0][k], params[k], err_msg=k)


@pytest.mark.parametrize("budget", [32768, 1500, 100])
def test_every_encoder_call_fits_the_budget(vocab, corpus, monkeypatch, budget):
    # train (with its validation passes), evaluate_examples and IG; at 100
    # float64 no row fits, so each call takes one row
    train_ex, val_ex = corpus
    cfg = small_config(vocab.size, max_seq_len=64, d_model=16, d_ff=24, dropout_rate=0.1)
    calls = []
    forward = encoder.forward_from_embeddings

    def recording(params, config, embeddings, *args, **kwargs):
        calls.append(embeddings.shape)
        return forward(params, config, embeddings, *args, **kwargs)

    monkeypatch.setattr(encoder, "forward_from_embeddings", recording)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", budget)
    monkeypatch.setattr(encoder, "_WORKERS", 1)
    params, _ = train(encoder.init_params(cfg), cfg, train_ex, val_ex, class_weights((8, 8, 8)),
                      TrainConfig(epochs=1, batch_size=8))
    training.evaluate_examples(params, cfg, train_ex)
    for e in map(val_ex.example, range(2)):
        attribution.integrated_gradients(params, cfg, e, e.label, attribution.IGConfig(steps=6))
    assert calls
    assert all(rows * L * D <= max(budget, L * D) for rows, L, D in calls), calls


def test_evaluate_peak_memory_does_not_grow_with_rows(vocab, schema, monkeypatch):
    # same length and config; only the row count differs. Chunks run in turn:
    # on the pool the peak depends on how the chunks overlap in time, which
    # `test_workers.py::test_peak_memory_stays_at_one_budget` bounds
    monkeypatch.setattr(encoder, "_WORKERS", 1)
    cfg = small_config(vocab.size, max_seq_len=64, layers=2, d_model=16, d_ff=24)
    params = randomize_params(encoder.init_params(cfg), np.random.default_rng(5))
    values = [float(100 + 37 * i) for i in range(schema.d)]
    one = make_example(vocab, schema, values, label=BENIGN)
    assert 512 * len(one.ids) * cfg.d_model > 8 * encoder._CHUNK_FLOATS

    def peak(n):
        batch = make_batch(vocab, schema, [values] * n, labels=[BENIGN] * n)
        tracemalloc.start()
        try:
            training.evaluate_examples(params, cfg, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # warm-up
    assert peak(512) <= 1.25 * peak(64)


@pytest.mark.parametrize("call", ["evaluate_examples", "_batch_grads"])
def test_disentangled_peak_memory_below_one_distance_table(monkeypatch, call):
    # the relative term reads and writes its scores through an (L, L) index:
    # neither a forward nor a backward call holds anything the size of an
    # (L, L, 2k+1) float64 table, 23.8 MB at L = 300 and k = 16. Chunks run
    # in turn, as in the test above
    monkeypatch.setattr(encoder, "_WORKERS", 1)
    cfg = small_config(40, encoder.DISENTANGLED, max_seq_len=320, layers=2, d_model=64,
                       d_ff=64, rel_window=16)
    params = randomize_params(encoder.init_params(cfg), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    L = 300
    rows = batch_of([rng.integers(1, 40, n) for n in range(L - 10, L)])
    ids = rng.integers(1, 40, size=(4, L))
    dropout = encoder.dropout_masks(rng, cfg, 4, L)

    tracemalloc.start()
    try:
        if call == "evaluate_examples":
            training.evaluate_examples(params, cfg, rows)
        else:
            training._batch_grads(params, cfg, ids, np.ones((4, L)), np.array([0, 1, 2, 0]),
                                  np.ones(3), dropout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < L * L * cfg.rel_size * 8, peak


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_disentangled_variant_learns_the_fixture(tmp_path, seed):
    # with the position table at its input the disentangled encoder separates
    # the synthetic classes; without it, it stayed near the one-class floor
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "work_dir": str(tmp_path / "work"), "input_csv": str(tmp_path / "flows.csv"),
        "seed": seed, "variant": encoder.DISENTANGLED,
        "encoder": {"layers": 2, "heads": 4, "d_model": 64, "d_ff": 128, "max_seq_len": 64},
        "train": {"epochs": 4},
    }), encoding="utf-8")
    for args in (("synthetic", "--out", tmp_path / "flows.csv", "--n", 600, "--seed", seed),
                 ("prepare", "--config", cfg), ("train", "--config", cfg)):
        r = CliRunner().invoke(main, [str(a) for a in args])
        assert r.exit_code == 0, r.output
    log = (tmp_path / "work" / "train_log_disentangled.jsonl").read_text(encoding="utf-8")
    f1 = [json.loads(line)["val_macro_f1"] for line in log.splitlines()]
    assert max(f1) >= 0.95, f1
