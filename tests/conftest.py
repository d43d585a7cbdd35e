import numpy as np
import pytest

# one line per acceptance criterion, printed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from flowig import encoder, textualize, tokenizer
from flowig.flow_data import FeatureSchema, FlowRecord
from flowig.synthetic import SYNTHETIC_SCHEMA


@pytest.fixture(scope="session")
def schema():
    return SYNTHETIC_SCHEMA


@pytest.fixture(scope="session")
def vocab(schema):
    return tokenizer.build_vocab(schema)


@pytest.fixture(scope="session")
def policy():
    return textualize.ValueFormatPolicy()


def make_example(vocab, schema, values, max_seq_len=64, label=None):
    flow = textualize.serialize(FlowRecord(tuple(values), "BENIGN"), schema)
    return tokenizer.tokenize(flow, vocab, max_seq_len, label)


def spans_of(value_lengths):
    """`feature_spans` of one row as (feature, start, end) triples, end exclusive."""
    starts, ends = tokenizer.feature_spans(value_lengths)
    return tuple((fi, s, e) for fi, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())))


def row_form(example):
    """An example as plain values that compare with `==`: its ids, its
    `spans_of` its value lengths, and its label."""
    return tuple(example.ids.tolist()), spans_of(example.value_lengths), example.label


def make_batch(vocab, schema, rows, max_seq_len=64, labels=None):
    """Rows of feature values, serialized and tokenized as one batch."""
    flows = [textualize.serialize(FlowRecord(tuple(values), "BENIGN"), schema)
             for values in rows]
    return tokenizer.tokenize_rows(flows, vocab, max_seq_len, labels)


def take(batch, rows):
    """The batch's `rows`, cut to the longest of them."""
    lengths = batch.lengths[rows]
    labels = None if batch.labels is None else batch.labels[rows]
    return tokenizer.TokenBatch(batch.ids[rows, :lengths.max()], lengths,
                                batch.value_lengths[rows], labels)


def stack(rows):
    """Rows of token ids padded to the longest with the PAD id (0), and their
    mask, 0 past each end: built row by row, the layout of a TokenBatch's
    ids that the batched paths must match."""
    lengths = np.array([len(r) for r in rows])
    mask = (np.arange(lengths.max()) < lengths[:, None]).astype(np.float64)
    ids = np.zeros(mask.shape, dtype=np.int64)
    ids[mask > 0] = np.concatenate(rows)
    return ids, mask


def batch_of(rows, labels=None):
    """Hand-built rows of token ids, value lengths left out, as a TokenBatch;
    `labels` are class indices, or None."""
    ids, _ = stack(rows)
    labels = None if labels is None else np.array(labels, np.int64)
    return tokenizer.TokenBatch(ids, np.array([len(r) for r in rows]),
                                np.zeros((len(rows), 0), np.int64), labels)


def small_config(vocab_size, variant=encoder.ABSOLUTE, **kw):
    defaults = dict(
        vocab_size=vocab_size,
        max_seq_len=16,
        layers=1,
        heads=2,
        d_model=8,
        d_ff=12,
        attention_variant=variant,
        rel_window=4,
        dropout_rate=0.0,
    )
    defaults.update(kw)
    return encoder.EncoderConfig(**defaults)


def randomize_params(params, rng, scale=0.3):
    """Random nonzero weights everywhere, including the zero-initialized head."""
    return {k: rng.normal(0.0, scale, size=v.shape) for k, v in params.items()}


def finite_diff_check(params, cfg, emb, mask, rng, eps=1e-4, coords_per_tensor=8):
    """Max relative error between analytical and central-difference gradients.

    emb is (B, L, D) and mask (B, L); the objective weights each row's logits.
    """
    w = rng.normal(size=(len(emb), 3))

    def objective():
        logits, _ = encoder.forward_from_embeddings(params, cfg, emb, mask)
        return float((w * logits).sum())

    _, trace = encoder.forward_from_embeddings(params, cfg, emb, mask)
    grads, demb = encoder.backward(params, trace, w)
    worst = 0.0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        gflat = grads[key].reshape(-1)
        n = min(coords_per_tensor, flat.size)
        for i in rng.choice(flat.size, size=n, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            fp = objective()
            flat[i] = orig - eps
            fm = objective()
            flat[i] = orig
            fd = (fp - fm) / (2 * eps)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
    eflat = emb.reshape(-1)
    gflat = demb.reshape(-1)
    for i in rng.choice(eflat.size, size=min(16, eflat.size), replace=False):
        orig = eflat[i]
        eflat[i] = orig + eps
        fp = objective()
        eflat[i] = orig - eps
        fm = objective()
        eflat[i] = orig
        fd = (fp - fm) / (2 * eps)
        worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
    return worst
