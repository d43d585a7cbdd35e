import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig import tokenizer, textualize
from flowig.errors import ConfigError, DataError, TruncationError
from flowig.flow_data import DDOS, FeatureSchema, FlowRecord
from flowig.textualize import TextFlow
from flowig.tokenizer import (
    CLS, IS, PAD, SEP, build_vocab, feature_spans, reconstruct_values, tokenize, tokenize_rows,
)

from conftest import make_example, row_form, spans_of, stack


class TestBuildVocab:
    def test_size(self, schema, vocab):
        # 4 specials + one token per feature + 14 number tokens
        assert vocab.size == 4 + schema.d + 14

    def test_specials_first(self, vocab):
        assert vocab.id_of[PAD] == 0
        assert vocab.id_of[CLS] == 1
        assert vocab.id_of[SEP] == 2
        assert vocab.id_of[IS] == 3

    def test_deterministic(self, schema):
        assert build_vocab(schema).id_of == build_vocab(schema).id_of

    def test_empty_schema_rejected(self):
        # refused by the schema itself, before a vocabulary is built
        with pytest.raises(ConfigError, match="at least one feature"):
            FeatureSchema(())

    def test_reserved_name_collision(self):
        with pytest.raises(ConfigError, match="reserved token: '\\[CLS\\]'"):
            build_vocab(FeatureSchema(("[CLS]",)))

    @pytest.mark.parametrize("name", tokenizer.NUMBER_TOKENS)
    def test_number_token_name_collision(self, name):
        # such a name would share its id with the value character
        with pytest.raises(ConfigError, match=f"reserved token: {re.escape(repr(name))}"):
            build_vocab(FeatureSchema(("x", name)))

    def test_ids_follow_token_order(self, vocab):
        # a checkpoint header lists `tuple(vocab.id_of)` as the tokens in id order
        assert list(vocab.id_of.values()) == list(range(vocab.size))
        assert next(iter(vocab.id_of)) == PAD


class TestTokenize:
    def test_layout_single_digit(self):
        schema = FeatureSchema(("A",))
        v = build_vocab(schema)
        flow = textualize.serialize(FlowRecord((0.0,), "x"), schema)
        ex = tokenize(flow, v, max_seq_len=8)
        # unpadded: batches pad to their longest example
        assert ex.ids.tolist() == [v.id_of[CLS], v.id_of["A"], v.id_of[IS], v.id_of["0"],
                                   v.id_of[SEP]]
        assert ex.attention_mask == (1, 1, 1, 1, 1)

    def test_span_covers_feat_is_value(self):
        schema = FeatureSchema(("Flow Duration",))
        v = build_vocab(schema)
        flow = textualize.serialize(FlowRecord((120.0,), "x"), schema)
        ex = tokenize(flow, v, max_seq_len=16)
        assert spans_of(ex.value_lengths) == ((0, 1, 6),)
        assert ex.ids[1] == v.id_of["Flow Duration"]
        assert list(ex.ids[3:6]) == [v.id_of[c] for c in "120"]

    def test_alignment_complete(self, schema, vocab):
        # every non-special position inside the mask is covered by exactly one span
        ex = make_example(vocab, schema, [float(100 + i) for i in range(schema.d)])
        n = sum(ex.attention_mask)
        covered = [0] * n
        for s, e in zip(*feature_spans(ex.value_lengths)):
            for p in range(s, e):
                covered[p] += 1
        specials = {vocab.id_of[CLS], vocab.id_of[SEP]}
        for p in range(n):
            expected = 0 if ex.ids[p] in specials else 1
            assert covered[p] == expected

    def test_label_carried(self, schema, vocab):
        ex = make_example(vocab, schema, [1.0] * schema.d, label=DDOS)
        assert ex.label == DDOS and type(ex.label) is int

    def test_truncation_names_feature(self, schema, vocab):
        # the message gives the whole flow's length, not where it was cut
        n = len(make_example(vocab, schema, [1.0] * schema.d, max_seq_len=1000).ids)
        assert n > 16
        msg = f"sequence of {n} tokens exceeds max_seq_len=16 (first past it: feature 'Flow IAT Max')"
        with pytest.raises(TruncationError, match=re.escape(msg)):
            make_example(vocab, schema, [1.0] * schema.d, max_seq_len=16)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_value_roundtrip(self, values):
        schema = FeatureSchema(tuple(f"F{i}" for i in range(len(values))))
        v = build_vocab(schema)
        flow = textualize.serialize(FlowRecord(tuple(values), "x"), schema)
        ex = tokenize(flow, v, max_seq_len=128)
        got = reconstruct_values(ex, v)
        for i, (name, rendered) in enumerate(got):
            assert name == f"F{i}"
            assert rendered == textualize.format_value(values[i])

    def test_deterministic(self, schema, vocab):
        a = make_example(vocab, schema, [123.0] * schema.d)
        b = make_example(vocab, schema, [123.0] * schema.d)
        assert row_form(a) == row_form(b)


def reference_row(flow, vocab, label=None):
    """One flow walked value by value and character by character: its ids,
    its (feature, start, end) spans and its label, as `row_form` gives them."""
    id_of = vocab.id_of
    ids, spans = [id_of[CLS]], []
    for fi, (name, value) in enumerate(zip(vocab.feature_names, flow.values)):
        start = len(ids)
        ids += (id_of[name], id_of[IS])
        ids += map(id_of.__getitem__, value)
        spans.append((fi, start, len(ids)))
        ids.append(id_of[SEP])
    return tuple(ids), tuple(spans), label


# integers of any sign, fractions that render with an exponent, and values
# of 1e16 or more, which render with one even when integral
values = st.one_of(
    st.integers(-10**9, 10**9).map(float),
    st.floats(-1e-3, 1e-3, allow_nan=False),
    st.floats(1e16, 1e300).flatmap(lambda x: st.sampled_from([x, -x, float(int(x))])),
    st.floats(allow_nan=False, allow_infinity=False),
)


OFF_SCHEMA = "flow {} does not hold one value for each of the schema's 2 features"


def ab(*values, names=("A", "B")):
    return TextFlow(names, values)


class TestTokenizeRows:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_character_reference(self, data):
        d = data.draw(st.sampled_from([1, 3, 11]))
        schema = FeatureSchema(tuple(f"F{i}" for i in range(d)))
        vocab = build_vocab(schema)
        rows = data.draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=1,
                                  max_size=8))
        labels = [i % 3 for i in range(len(rows))]
        flows = [textualize.serialize(FlowRecord(tuple(r), "x"), schema) for r in rows]
        batch = tokenize_rows(flows, vocab, 10_000, labels)
        want = [reference_row(flow, vocab, label) for flow, label in zip(flows, labels)]
        assert batch.ids.dtype == np.int64 and batch.ids.shape[1] == max(len(w[0]) for w in want)
        for i, w in enumerate(want):
            n = len(w[0])
            assert batch.lengths[i] == n
            assert tuple(batch.ids[i, :n].tolist()) == w[0]
            assert not batch.ids[i, n:].any()  # PAD after the row's end
            assert row_form(batch.example(i)) == w
        assert batch.labels.tolist() == labels
        # the matrix the batched paths read: the examples stacked row by row
        ids, mask = stack([w[0] for w in want])
        assert np.array_equal(batch.ids, ids)
        assert np.array_equal(mask, np.arange(ids.shape[1]) < batch.lengths[:, None])

    def test_mixed_lengths_match_stacked_rows(self, schema, vocab):
        rng = np.random.default_rng(0)
        rows = [[float(rng.integers(1, 10 ** k)) for _ in range(schema.d)] for k in (1, 9, 4, 1)]
        flows = [textualize.serialize(FlowRecord(tuple(r), "x"), schema) for r in rows]
        batch = tokenize_rows(flows, vocab, 1000)
        assert len(set(batch.lengths.tolist())) == 3
        ids, _ = stack([reference_row(flow, vocab)[0] for flow in flows])
        assert np.array_equal(batch.ids, ids)
        assert batch.labels is None

    def test_zero_rows(self, vocab):
        batch = tokenize_rows([], vocab, 64, [])
        assert len(batch) == 0
        assert batch.ids.shape == (0, 0) and batch.lengths.shape == (0,)
        assert batch.labels.shape == (0,)

    @pytest.mark.parametrize(
        "rows, message",
        [([ab("1", "2"), ab("1", "2", names=("A", "C"))], OFF_SCHEMA.format(1)),
         ([ab("1", "2"), ab("12", "1x5")], "value character 'x' not in vocabulary"),
         ([ab("1", "2"), ab("1", "\u00e9")], "value character '\u00e9' not in vocabulary"),
         # a block refuses a bad flow before a too-long one; blocks go in input order
         ([ab("1", "123456"), ab("1", "2", names=("A", "C"))],
          {"one-block": OFF_SCHEMA.format(1),
           "row-blocks": "sequence of 14 tokens exceeds max_seq_len=12 (first past it: feature 'B')"}),
         ([ab("1", "2", names=("A", "C")), ab("1", "123456")], OFF_SCHEMA.format(0)),
         ([ab("123456789", "2"), ab("x", "2")],
          {"one-block": "value character 'x' not in vocabulary",
           "row-blocks": "sequence of 17 tokens exceeds max_seq_len=12 (first past it: feature 'A')"}),
         # of several too-long rows, the first is named
         ([ab("1", "2"), ab("123456789", "2"), ab("1", "1234567")],
          "sequence of 17 tokens exceeds max_seq_len=12 (first past it: feature 'A')"),
         ([ab("123456789", "1x")], "value character 'x' not in vocabulary"),
         ([ab("1x", "2", names=("A", "C"))], OFF_SCHEMA.format(0)),
         ([ab("1", "2", "3")], OFF_SCHEMA.format(0)),
         # a short flow and a long one whose value counts add up to two rows'
         ([ab("1"), ab("2", "3", "4")], OFF_SCHEMA.format(0)),
         ([ab("1", "2")] * 3 + [ab("1")], OFF_SCHEMA.format(3))],
        ids=["feature-name", "value-character", "non-ascii-character", "long-then-bad",
             "bad-then-long", "long-then-bad-character", "first-long-row", "bad-inside-long-row",
             "name-before-value", "clause-count", "clause-counts-compensate", "clause-count-late"],
    )
    # a block of one row puts each row of a case in a block of its own
    @pytest.mark.parametrize("block_rows", [tokenizer._BLOCK_ROWS, 1], ids=["one-block", "row-blocks"])
    def test_first_bad_row_named(self, rows, message, block_rows, monkeypatch):
        monkeypatch.setattr(tokenizer, "_BLOCK_ROWS", block_rows)
        if isinstance(message, dict):
            message = message["row-blocks" if block_rows == 1 else "one-block"]
        vocab = build_vocab(FeatureSchema(("A", "B")))
        with pytest.raises(DataError) as info:
            tokenize_rows(rows, vocab, 12)
        assert str(info.value) == message

    def test_blocks_of_rows_make_one_batch(self, schema, vocab, monkeypatch):
        rng = np.random.default_rng(3)
        rows = [[float(rng.integers(1, 10 ** k)) for _ in range(schema.d)] for k in (2, 9, 1, 5, 3)]
        flows = [textualize.serialize(FlowRecord(tuple(r), "x"), schema) for r in rows]
        labels = [i % 3 for i in range(len(rows))]
        whole = tokenize_rows(flows, vocab, 1000, labels)
        monkeypatch.setattr(tokenizer, "_BLOCK_ROWS", 2)
        blocks = tokenize_rows(iter(flows), vocab, 1000, iter(labels))  # read in one pass
        for field in ("ids", "lengths", "value_lengths", "labels"):
            assert np.array_equal(getattr(blocks, field), getattr(whole, field)), field

    def test_ids_past_the_surrogate_range(self):
        # ids are never carried as code points, so a vocabulary past 0xD800 works
        d = 0xD800
        schema = FeatureSchema(tuple(f"F{i}" for i in range(d)))
        vocab = build_vocab(schema)
        assert vocab.id_of["F0"] < 0xD800 < vocab.id_of[f"F{d - 1}"]
        flow = textualize.serialize(FlowRecord((7.0,) * d, "x"), schema)
        batch = tokenize_rows([flow], vocab, 4 * d + 1)
        assert batch.ids[0, -5:].tolist() == [
            vocab.id_of[SEP], vocab.id_of[f"F{d - 1}"], vocab.id_of[IS], vocab.id_of["7"],
            vocab.id_of[SEP]]
        assert batch.lengths[0] == 1 + 4 * d
