import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig import tokenizer, textualize
from flowig.errors import ConfigError, TruncationError
from flowig.flow_data import CoarseLabel, FeatureSchema, FlowRecord
from flowig.tokenizer import CLS, IS, PAD, SEP, build_vocab, reconstruct_values, tokenize

from conftest import make_example


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
        assert ex.ids == (v.id_of[CLS], v.id_of["A"], v.id_of[IS], v.id_of["0"], v.id_of[SEP])
        assert ex.attention_mask == (1, 1, 1, 1, 1)

    def test_span_covers_feat_is_value(self):
        schema = FeatureSchema(("Flow Duration",))
        v = build_vocab(schema)
        flow = textualize.serialize(FlowRecord((120.0,), "x"), schema)
        ex = tokenize(flow, v, max_seq_len=16)
        assert ex.feature_token_spans == ((0, 1, 6),)
        assert ex.ids[1] == v.id_of["Flow Duration"]
        assert list(ex.ids[3:6]) == [v.id_of[c] for c in "120"]

    def test_alignment_complete(self, schema, vocab):
        # every non-special position inside the mask is covered by exactly one span
        ex = make_example(vocab, schema, [float(100 + i) for i in range(schema.d)])
        n = sum(ex.attention_mask)
        covered = [0] * n
        for _, s, e in ex.feature_token_spans:
            for p in range(s, e):
                covered[p] += 1
        specials = {vocab.id_of[CLS], vocab.id_of[SEP]}
        for p in range(n):
            expected = 0 if ex.ids[p] in specials else 1
            assert covered[p] == expected

    def test_label_carried(self, schema, vocab):
        ex = make_example(vocab, schema, [1.0] * schema.d, label=CoarseLabel.DDOS)
        assert ex.label is CoarseLabel.DDOS

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
        assert a == b
