"""`format_value`, `serialize` and `tokenize` against their earlier bodies.

The bodies below are the per-value renderings the data path used before it
moved to value tuples and C-level calls. They are kept as references: the
fast path must give the same values, text hash and token ids for every
input, and the same error for every refused value.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig.errors import DataError, NumericError, TruncationError
from flowig.flow_data import DDOS, FeatureSchema, FlowRecord
from flowig.textualize import (
    CLAUSE_SEPARATOR, ValueFormatPolicy, format_value, serialize, text_hash,
)
from flowig.tokenizer import CLS, IS, SEP, build_vocab, tokenize

from conftest import row_form


def reference_format_value(x: float, policy: ValueFormatPolicy = ValueFormatPolicy()) -> str:
    if not math.isfinite(x):
        raise NumericError(f"cannot format non-finite value {x!r}")
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    s = f"{x:.{policy.significant_digits}g}"
    if "e" in s:
        mant, exp = s.split("e")
        sign = "-" if exp.startswith("-") else ""
        digits = exp.lstrip("+-").lstrip("0") or "0"
        s = f"{mant}e{sign}{digits}"
    return s


def reference_join(clauses):
    """(text, spans): the clauses joined, and each one's (feature_index,
    char_start, char_end) in the text, end exclusive."""
    spans, pos = [], 0
    for i, clause in enumerate(clauses):
        if i > 0:
            pos += len(CLAUSE_SEPARATOR)
        spans.append((i, pos, pos + len(clause)))
        pos += len(clause)
    return CLAUSE_SEPARATOR.join(clauses), tuple(spans)


def reference_serialize(record, schema, policy=ValueFormatPolicy()):
    """(text, spans) as they were built clause by clause."""
    return reference_join([f"{name} is {reference_format_value(value, policy)}"
                           for name, value in zip(schema.names, record.features)])


def assert_matches_reference(flow, schema, reference):
    """`flow`'s values as the reference's spans cut them from its text, each
    past its "name is " prefix, and its hash, the SHA1 of that text."""
    text, spans = reference
    assert flow == tuple(text[s + len(f"{name} is ") : e]
                         for name, (_, s, e) in zip(schema.names, spans))
    assert text_hash(schema.names, flow) == hashlib.sha1(text.encode("utf-8")).hexdigest()


def reference_tokenize(text, spans, vocab, max_seq_len, label=None):
    """Tokenize by slicing each clause out of the text through its span: the
    ids, (feature, start, end) token spans and label, as `row_form` gives them."""
    ids = [vocab.id_of[CLS]]
    token_spans = []
    for fi, start, end in spans:
        name = vocab.feature_names[fi]
        clause = text[start:end]
        prefix = f"{name} is "
        if not clause.startswith(prefix):
            raise DataError(f"span {fi} does not match schema feature {name!r}")
        tok_start = len(ids)
        ids.append(vocab.id_of[name])
        ids.append(vocab.id_of[IS])
        for ch in clause[len(prefix):]:
            if ch not in vocab.id_of:
                raise DataError(f"value character {ch!r} not in vocabulary")
            ids.append(vocab.id_of[ch])
        token_spans.append((fi, tok_start, len(ids)))
        ids.append(vocab.id_of[SEP])
    if len(ids) > max_seq_len:
        fi = next(fi for fi, _, end in token_spans if end >= max_seq_len)
        raise TruncationError(f"sequence of {len(ids)} tokens exceeds max_seq_len={max_seq_len}"
                              f" (first past it: feature {vocab.feature_names[fi]!r})")
    return tuple(ids), tuple(token_spans), label


SPECIAL_VALUES = [
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1 + 0.2,
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
    -1e16, math.nextafter(-1e16, 0.0), math.nextafter(-1e16, -math.inf),
    2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 2.0**63, -(2.0**63), 2.0**64,
    5e-324, -5e-324, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0),
    1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-5, 1e-4, 9.999995e-5, 99999.95, 999999.5, 1234567.891, 123456.5, 1.25e-7,
]
finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(SPECIAL_VALUES))
policies = st.integers(1, 17).map(lambda n: ValueFormatPolicy(significant_digits=n))


class TestFormatValue:
    @pytest.mark.parametrize("x", SPECIAL_VALUES, ids=repr)
    @pytest.mark.parametrize("digits", [1, 6, 17])
    def test_special_values(self, x, digits):
        policy = ValueFormatPolicy(significant_digits=digits)
        assert format_value(x, policy) == reference_format_value(x, policy)

    @given(finite_floats, policies)
    @settings(max_examples=2000)
    def test_matches_reference(self, x, policy):
        assert format_value(x, policy) == reference_format_value(x, policy)

    @pytest.mark.parametrize("x", [math.nan, -math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_refused(self, x):
        with pytest.raises(NumericError) as fast:
            format_value(x)
        with pytest.raises(NumericError) as reference:
            reference_format_value(x)
        assert str(fast.value) == str(reference.value)


WIDE = FeatureSchema(tuple(f"Feature {i}" for i in range(78)))


def _record(values):
    return FlowRecord(tuple(values), "BENIGN")


class TestSerialize:
    @pytest.mark.parametrize("schema", [FeatureSchema(("Flow Duration",)), WIDE],
                             ids=["one-feature", "78-features"])
    def test_special_values(self, schema):
        for start in range(0, len(SPECIAL_VALUES), schema.d):
            values = (SPECIAL_VALUES * 3)[start : start + schema.d]
            flow = serialize(_record(values), schema)
            assert_matches_reference(flow, schema, reference_serialize(_record(values), schema))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, data):
        d = data.draw(st.sampled_from([1, 2, 11, 78]))
        schema = WIDE if d == 78 else FeatureSchema(tuple(f"F{i}" for i in range(d)))
        record = _record(data.draw(st.lists(finite_floats, min_size=d, max_size=d)))
        policy = data.draw(policies)
        flow = serialize(record, schema, policy)
        assert_matches_reference(flow, schema, reference_serialize(record, schema, policy))

    def test_non_finite_refused(self):
        with pytest.raises(NumericError, match="cannot format non-finite value nan"):
            serialize(_record((1.0, math.nan)), FeatureSchema(("A", "B")))


class TestTokenize:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, data):
        d = data.draw(st.sampled_from([1, 3, 78]))
        schema = WIDE if d == 78 else FeatureSchema(tuple(f"F{i}" for i in range(d)))
        vocab = build_vocab(schema)
        record = _record(data.draw(st.lists(finite_floats, min_size=d, max_size=d)))
        max_seq_len = data.draw(st.integers(4, 2000))
        label = data.draw(st.sampled_from([None, DDOS]))
        flow = serialize(record, schema)
        text, spans = reference_serialize(record, schema)
        try:
            expected = reference_tokenize(text, spans, vocab, max_seq_len, label)
        except TruncationError as e:
            with pytest.raises(TruncationError) as fast:
                tokenize(flow, vocab, max_seq_len, label)
            assert str(fast.value) == str(e)
        else:
            assert row_form(tokenize(flow, vocab, max_seq_len, label)) == expected

    @pytest.mark.parametrize(
        "values, message",
        [(("12", "1x5"), "value character 'x' not in vocabulary"),
         (("1", " 2"), "value character ' ' not in vocabulary")],
        ids=["value-character", "value-space"],
    )
    def test_data_errors_unchanged(self, values, message):
        vocab = build_vocab(FeatureSchema(("A", "B")))
        clauses = [f"{name} is {value}" for name, value in zip(vocab.feature_names, values)]
        with pytest.raises(DataError) as reference:
            reference_tokenize(*reference_join(clauses), vocab, 64)
        assert str(reference.value) == message
        with pytest.raises(DataError) as fast:
            tokenize(values, vocab, 64)
        assert str(fast.value) == message

    @pytest.mark.parametrize("values", [("1",), ("1", "2", "3")], ids=["short", "long"])
    def test_value_count_refused(self, values):
        # the reference walks what clauses a text holds; a flow is refused
        # whole unless it holds one value per feature
        with pytest.raises(DataError) as fast:
            tokenize(values, build_vocab(FeatureSchema(("A", "B"))), 64)
        assert str(fast.value) == "flow 0 does not hold one value for each of the schema's 2 features"


BOUNDARY_VALUES = [
    1e16, -1e16, math.nextafter(1e16, 0.0), math.nextafter(-1e16, 0.0),
    math.nextafter(1e16, math.inf), math.nextafter(-1e16, -math.inf),
    9999999999999998.0, -9999999999999998.0, 1e16 + 2, -(1e16 + 2), 1e17, -1e17,
]
WIDE_77 = FeatureSchema(tuple(f"Feature {i}" for i in range(77)))


class TestFormatValueEdges:
    @pytest.mark.parametrize("x", BOUNDARY_VALUES, ids=repr)
    @pytest.mark.parametrize("digits", [1, 6, 17])
    def test_integral_limit_both_signs(self, x, digits):
        policy = ValueFormatPolicy(significant_digits=digits)
        assert format_value(x, policy) == reference_format_value(x, policy)

    def test_integral_limit_renders_below_it_as_integer(self):
        assert format_value(9999999999999998.0) == "9999999999999998"
        assert format_value(-9999999999999998.0) == "-9999999999999998"
        assert format_value(1e16) == "1e16"
        assert format_value(-1e16) == "-1e16"

    def test_negative_zero_is_zero(self):
        assert format_value(-0.0) == format_value(0.0) == "0"
        flow = serialize(_record((-0.0, 0.0, -0.0)), FeatureSchema(("A", "B", "C")))
        assert flow == ("0", "0", "0")

    @pytest.mark.parametrize("x, expected", [
        (1234567.891, "1.23457e6"), (-1234567.891, "-1.23457e6"), (1e-5, "1e-5"),
        (1.5e-10, "1.5e-10"), (-2.5e-100, "-2.5e-100"), (1.25e100, "1.25e100"),
        (1e300, "1e300"), (123456789012345678.0, "1.23457e17"), (5e-324, "4.94066e-324"),
        (99999.95, "99999.9"), (999999.5, "1e6"), (0.0001, "0.0001"), (0.00001, "1e-5"),
    ], ids=repr)
    def test_exponent_forms(self, x, expected):
        assert format_value(x) == reference_format_value(x) == expected

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("position", [0, 5, 76])
    def test_non_finite_in_a_row_refused_as_the_reference_refuses(self, x, position):
        values = [float(i) + 0.5 * (i % 2) for i in range(77)]
        values[position] = x
        values[-1 if position != 76 else 0] = math.nan   # a later or earlier second one
        with pytest.raises(NumericError) as fast:
            serialize(_record(values), WIDE_77)
        with pytest.raises(NumericError) as reference:
            reference_serialize(_record(values), WIDE_77)
        assert str(fast.value) == str(reference.value)


def test_77_feature_rows_whose_integrality_varies():
    # each row draws its zeros, integers and fractions anew, so almost every
    # row has its own pattern of integral cells; every tenth row reaches 1e17
    rng = np.random.default_rng(77)
    for row in range(300):
        kind = rng.integers(0, 4, size=77)
        magnitude = 10.0 ** rng.uniform(-6, 17 if row % 10 == 0 else 14.5, size=77)
        values = np.where(kind == 0, 0.0, np.where(kind == 1, np.round(magnitude), magnitude))
        values[rng.random(77) < 0.1] *= -1
        record = _record(values.tolist())
        assert_matches_reference(serialize(record, WIDE_77), WIDE_77,
                                 reference_serialize(record, WIDE_77))
