import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig import encoder, training
from flowig.errors import DataError
from flowig.evaluation import confusion, metrics
from flowig.flow_data import CoarseLabel
from flowig.tokenizer import TokenizedExample
from flowig.training import TrainConfig, _batch_loss, class_weights, train

from conftest import make_example, randomize_params, small_config


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


class TestWeightedCrossEntropy:
    """The batched loss `_batch_loss`: mean class-weighted cross-entropy."""

    def test_uniform_logits(self):
        w = np.asarray(class_weights((5, 5, 5)))
        loss, _ = _batch_loss(np.zeros((1, 3)), np.array([0]), w)
        assert abs(loss - math.log(3)) < 1e-12

    def test_weight_doubles_loss(self):
        z = np.array([[0.3, -1.2, 0.9]])
        label = np.array([CoarseLabel.BENIGN.value])
        l1, g1 = _batch_loss(z, label, np.array([1.0, 1.0, 1.0]))
        l2, g2 = _batch_loss(z, label, np.array([2.0, 1.0, 1.0]))
        assert abs(l2 - 2 * l1) < 1e-12
        np.testing.assert_allclose(g2, 2 * g1, atol=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(0)
        w = np.asarray(class_weights((4, 1, 1)))
        z = rng.normal(size=(2, 3))
        labels = np.array([CoarseLabel.DDOS.value, CoarseLabel.BENIGN.value])
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
        labels = np.array([CoarseLabel.WEB_ATTACK.value, CoarseLabel.DDOS.value])
        _, grad = _batch_loss(z, labels, w)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def tiny_corpus(vocab, schema, n_per_class=8):
    """Separable toy set: first feature high for DDoS, low otherwise."""
    rng = np.random.default_rng(0)
    examples = []
    for label in (CoarseLabel.BENIGN, CoarseLabel.DDOS, CoarseLabel.WEB_ATTACK):
        for _ in range(n_per_class):
            values = [float(rng.integers(100, 200)) for _ in range(schema.d)]
            if label is CoarseLabel.DDOS:
                values[0] = float(rng.integers(900, 1000))
            elif label is CoarseLabel.WEB_ATTACK:
                values[1] = float(rng.integers(900, 1000))
            examples.append(make_example(vocab, schema, values, label=label))
    return examples


@pytest.fixture(scope="module")
def corpus(vocab, schema):
    ex = tiny_corpus(vocab, schema)
    return ex, ex[::3]


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

    def test_best_params_kept(self, vocab, corpus):
        best, log = self.run_train(vocab, corpus)
        assert log.best_epoch >= 1
        assert log.best_val_macro_f1 == max(r.val_macro_f1 for r in log.epochs)
        train_ex, val_ex = corpus
        cfg = small_config(vocab.size, max_seq_len=64, d_model=16, d_ff=24, dropout_rate=0.1)
        _, preds = training.evaluate_examples(best, cfg, val_ex)
        cm = confusion(preds, [e.label.value for e in val_ex])
        assert abs(metrics(cm).macro_f1 - log.best_val_macro_f1) < 1e-12


def _padded(examples, max_seq_len):
    """ids and mask with every example padded to max_seq_len (PAD id 0)."""
    ids = np.zeros((len(examples), max_seq_len), dtype=np.int64)
    mask = np.zeros((len(examples), max_seq_len))
    for row, e in enumerate(examples):
        ids[row, : len(e.ids)] = e.ids
        mask[row, : len(e.ids)] = e.attention_mask
    return ids, mask


def _active_length(mask):
    """Last position attended in any row of a (B, L) mask, plus 1: where a
    batch of examples padded to max_seq_len used to be cut."""
    attended = (np.asarray(mask) > 0).any(axis=0)
    return len(attended) - int(np.argmax(attended[::-1]))


class TestStack:
    @pytest.mark.parametrize(
        "lengths", [(3, 5, 1), (3,), (7, 10, 9), (4, 4), (16, 2)],
        ids=["mixed", "single", "mixed-longest-inside", "equal", "full-width"],
    )
    def test_matches_padded_then_cut(self, lengths):
        rng = np.random.default_rng(len(lengths))
        examples = [
            TokenizedExample(tuple(rng.integers(1, 20, size=n)), (1,) * n, (), CoarseLabel(i % 3))
            for i, n in enumerate(lengths)
        ]
        ids, mask, labels = training._stack(examples)
        want_ids, want_mask = _padded(examples, 16)
        n = _active_length(want_mask)
        assert n == max(lengths)
        assert ids.dtype == want_ids.dtype and mask.dtype == want_mask.dtype
        assert np.array_equal(ids, want_ids[:, :n])
        assert np.array_equal(mask, want_mask[:, :n])
        assert labels.tolist() == [i % 3 for i in range(len(lengths))]


class TestEvaluateExamples:
    @pytest.mark.parametrize("variant", [encoder.ABSOLUTE, encoder.DISENTANGLED])
    def test_trimmed_chunks_match_untrimmed(self, vocab, schema, variant):
        rng = np.random.default_rng(1)
        examples = [
            make_example(
                vocab,
                schema,
                [float(rng.integers(1, 10 ** int(rng.integers(1, 5)))) for _ in range(schema.d)],
                label=CoarseLabel.BENIGN,
            )
            for _ in range(10)
        ]
        lengths = {len(e.ids) for e in examples}
        assert len(lengths) > 1 and max(lengths) < 64
        cfg = small_config(vocab.size, variant, max_seq_len=64, d_model=16, d_ff=24)
        params = randomize_params(encoder.init_params(cfg), rng)
        logits, preds = training.evaluate_examples(params, cfg, examples, chunk=4)
        ids, mask = _padded(examples, 64)
        want, _ = encoder.forward_batch(params, cfg, ids, mask)
        np.testing.assert_allclose(logits, want, rtol=1e-12, atol=0)
        assert np.array_equal(preds, want.argmax(axis=1))

    @pytest.mark.parametrize("variant", [encoder.ABSOLUTE, encoder.DISENTANGLED])
    def test_length_sorted_chunks_keep_input_order(self, vocab, schema, variant):
        rng = np.random.default_rng(2)
        digits = [1, 8, 2, 7, 1, 6, 3, 8, 2]
        examples = [
            make_example(vocab, schema,
                         [float(rng.integers(10 ** (k - 1), 10 ** k)) for _ in range(schema.d)],
                         max_seq_len=128, label=CoarseLabel(i % 3))
            for i, k in enumerate(digits)
        ]
        chunk = 3
        lengths = [len(e.ids) for e in examples]
        order = np.argsort(lengths, kind="stable")
        in_order = {frozenset(range(s, s + chunk)) for s in range(0, len(examples), chunk)}
        by_length = {frozenset(order[s : s + chunk].tolist())
                     for s in range(0, len(examples), chunk)}
        assert in_order != by_length
        cfg = small_config(vocab.size, variant, max_seq_len=128, d_model=16, d_ff=24)
        params = randomize_params(encoder.init_params(cfg), rng)
        logits, preds = training.evaluate_examples(params, cfg, examples, chunk=chunk)
        want = np.concatenate([
            encoder.forward_batch(params, cfg, np.array([e.ids]), np.ones((1, len(e.ids))))[0]
            for e in examples
        ])
        assert not np.allclose(want, want[order])  # so a lost order would show
        np.testing.assert_allclose(logits, want, rtol=1e-12, atol=0)
        assert np.array_equal(preds, want.argmax(axis=1))

    def test_untrained_model_predicts_index_0(self, vocab, schema):
        # init_params zeroes the head, so every logit ties and the tie goes
        # to the lowest class index
        rng = np.random.default_rng(3)
        examples = [make_example(vocab, schema, [float(v) for v in rng.integers(0, 100, schema.d)],
                                 label=CoarseLabel(i % 3)) for i in range(5)]
        cfg = small_config(vocab.size, max_seq_len=64)
        logits, preds = training.evaluate_examples(encoder.init_params(cfg), cfg, examples)
        assert (logits == 0).all()
        assert preds.dtype == np.int64
        assert preds.tolist() == [0] * 5
