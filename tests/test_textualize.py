import decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig.errors import NumericError
from flowig.flow_data import FeatureSchema, FlowRecord
from flowig.textualize import (
    ValueFormatPolicy,
    format_value,
    serialize,
    text_hash,
)


def sigfig_oracle(x: float, digits: int) -> str:
    """Independent rendering via arbitrary-precision decimal rounding."""
    d = decimal.Decimal(x)
    if d == d.to_integral_value() and abs(d) < decimal.Decimal("1e16"):
        return str(int(d))
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        rounded = +d
    return f"{float(rounded):.{digits}g}".replace("e+0", "e").replace("e-0", "e-").replace("e+", "e")


class TestFormatValue:
    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_integer_passthrough(self):
        assert format_value(80.0) == "80"

    def test_float_artifact_rounds_away(self):
        assert format_value(0.1 + 0.2) == "0.3"

    def test_large_value_golden(self):
        # frozen from the decimal oracle: 1234567.891 at 6 significant digits
        assert sigfig_oracle(1234567.891, 6) == "1.23457e6"
        assert format_value(1234567.891) == "1.23457e6"

    def test_small_exponent(self):
        assert format_value(1.25e-7) == "1.25e-7"

    def test_negative(self):
        assert format_value(-42.0) == "-42"

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            format_value(float("inf"))
        with pytest.raises(NumericError):
            format_value(float("nan"))

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_deterministic_and_matches_oracle(self, x):
        once = format_value(x)
        assert once == format_value(x)
        assert once == sigfig_oracle(x, 6)


class TestSerialize:
    def test_single_feature(self):
        schema = FeatureSchema(("Flow Duration",))
        flow = serialize(FlowRecord((120.0,), "BENIGN"), schema)
        assert flow.text == "Flow Duration is 120"
        assert (flow.names, flow.values) == (("Flow Duration",), ("120",))

    def test_two_features_separator(self):
        schema = FeatureSchema(("A", "B"))
        flow = serialize(FlowRecord((1.5, 0.0), "BENIGN"), schema)
        assert flow.text == "A is 1.5 ; B is 0"

    def test_names_with_format_characters(self):
        # the text is built from a per-schema %-template; a name is kept verbatim
        schema = FeatureSchema(("100% a", "b %s", "{c}"))
        flow = serialize(FlowRecord((1.0, 2.0, 3.0), "x"), schema)
        assert flow.text == "100% a is 1 ; b %s is 2 ; {c} is 3"

    def test_clause_fidelity(self):
        schema = FeatureSchema(("A", "B", "C"))
        flow = serialize(FlowRecord((1.0, 22.5, -3.0), "x"), schema)
        assert flow.names == schema.names
        assert flow.values == ("1", "22.5", "-3")
        for fi, clause in enumerate(flow.text.split(" ; ")):
            name, value = clause.split(" is ")
            assert name == schema.names[fi]
            assert value == format_value((1.0, 22.5, -3.0)[fi])

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50)
    def test_clauses_partition_text(self, values):
        schema = FeatureSchema(tuple(f"F{i}" for i in range(len(values))))
        flow = serialize(FlowRecord(tuple(values), "x"), schema)
        assert flow.values == tuple(format_value(v) for v in values)
        assert flow.text.split(" ; ") == [f"F{i} is {format_value(v)}" for i, v in enumerate(values)]

    def test_hash_stability(self):
        schema = FeatureSchema(("A",))
        t = serialize(FlowRecord((3.25,), "x"), schema).text
        assert text_hash(t) == text_hash(t)
        assert text_hash(t) != text_hash(t + " ")
