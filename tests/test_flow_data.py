import csv
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowig import synthetic
from flowig.errors import ConfigError, DataError, FlowigError, SchemaError, UnknownLabelError
from flowig.flow_data import (
    BENIGN,
    CLASS_NAMES,
    DDOS,
    SPLITS,
    WEB_ATTACK,
    FeatureSchema,
    FlowRecord,
    LabeledDataset,
    audit_overlap,
    check_split_ratios,
    deduplicate,
    largest_remainder_sizes,
    merge_labels,
    parse_flow_csv,
    record_hash,
    stratified_split,
)

SCHEMA = FeatureSchema(("A", "B"))


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    """A function that writes CSV bytes to one file and returns its path."""
    path = tmp_path_factory.mktemp("csv") / "flows.csv"

    def write(data: bytes):
        path.write_bytes(data)
        return path

    return write


def make_dataset(rows):
    return LabeledDataset(
        SCHEMA,
        [(FlowRecord(tuple(vals), raw), merge_labels(raw)) for vals, raw in rows],
    )


def with_repeats():
    """90 rows over the three coarse labels, 30 of them repeats of an earlier row's values."""
    labels = ("BENIGN", "DDoS", "Web Attack – XSS")
    return make_dataset(
        [((v % 20.0, float(k)), raw) for v in range(30) for k, raw in enumerate(labels)]
    )


class TestMergeLabels:
    def test_web_attack_variants(self):
        assert merge_labels("Web Attack – Brute Force") == WEB_ATTACK
        assert merge_labels("Web Attack - XSS") == WEB_ATTACK
        assert merge_labels("web attack – sql injection") == WEB_ATTACK
        # a cp1252 en dash decoded as UTF-8, as in the public CICIDS2017 CSVs
        assert merge_labels("Web Attack \ufffd Brute Force") == WEB_ATTACK

    def test_benign_identity(self):
        assert merge_labels("BENIGN") == BENIGN
        assert merge_labels("  BENIGN ") == BENIGN

    def test_ddos(self):
        assert merge_labels("DDoS") == DDOS and type(merge_labels("DDoS")) is int

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError, match="PortScan"):
            merge_labels("PortScan")


class TestParseFlowCsv:
    def test_nonfinite_rows_dropped(self, csv_file):
        csv_bytes = b"A,B,Label\r\n1,2,BENIGN\r\n3,Infinity,DDoS\r\n5,6,DDoS\r\n"
        ds, report = parse_flow_csv(csv_file(csv_bytes), SCHEMA)
        assert len(ds) == 2
        assert report.rows_dropped == 1
        assert report.rows_dropped_nonfinite == 1

    def test_header_only(self, csv_file):
        ds, report = parse_flow_csv(csv_file(b"A,B,Label\r\n"), SCHEMA)
        assert len(ds) == 0
        assert report.rows_dropped == 0

    def test_missing_column(self, csv_file):
        with pytest.raises(SchemaError, match="'B'"):
            parse_flow_csv(csv_file(b"A,Label\r\n1,BENIGN\r\n"), SCHEMA)

    def test_unparseable_cell_tallied(self, csv_file):
        csv_bytes = b"A,B,Label\r\n1,2,BENIGN\r\nx,2,BENIGN\r\n"
        ds, report = parse_flow_csv(csv_file(csv_bytes), SCHEMA)
        assert len(ds) == 1
        assert report.rows_dropped_unparseable == 1

    def test_column_order_follows_schema(self, csv_file):
        csv_bytes = b"B,Label,A\r\n2,BENIGN,1\r\n"
        ds, _ = parse_flow_csv(csv_file(csv_bytes), SCHEMA)
        assert ds.records[0][0].features == (1.0, 2.0)

    # cells that stress the CSV reader: NUL, stray and doubled quotes, line
    # breaks inside a cell, a cell past the reader's field size limit, and
    # numbers and labels that do or do not parse
    _CELL = st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        st.sampled_from(["\x00", '"', '""', '"1"', '1"2', "\n", "\r", "\r\n", ",", "1",
                         "-0.5", "1e309", "nan", "inf", "BENIGN", "DDoS", "Web Attack - XSS",
                         "9" * 200_000]),
    )

    @given(st.lists(st.lists(_CELL, min_size=1, max_size=4), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_any_cell_text_parses_or_raises_flowig_error(self, csv_file, rows):
        body = "".join(",".join(cells) + "\r\n" for cells in rows)
        csv_bytes = ("A,B,Label\r\n" + body).encode("utf-8")
        try:
            ds, report = parse_flow_csv(csv_file(csv_bytes), SCHEMA)
        except FlowigError:
            return
        assert report.rows_total == len(ds) + report.rows_dropped


class TestDeduplicate:
    def test_first_occurrence_wins(self):
        ds = make_dataset([((1.0, 2.0), "BENIGN"), ((1.0, 2.0), "DDoS")])
        deduped, report, _ = deduplicate(ds)
        assert len(deduped) == 1
        assert deduped.records[0][1] == BENIGN
        assert report.removed == 1
        assert report.label_conflicts == 1

    def test_returns_the_hash_of_each_kept_record(self):
        conflict = make_dataset(
            [((1.0, 2.0), "BENIGN"), ((1.0, 2.0), "DDoS"), ((3.0, 4.0), "DDoS")]
        )
        for ds, after in ((conflict, 2), (with_repeats(), 60)):
            deduped, report, hashes = deduplicate(ds)
            assert len(hashes) == len(deduped) == report.after == after
            for i, (rec, _) in enumerate(deduped.records):
                assert hashes[i] == record_hash(rec, SCHEMA)

    def test_empty(self):
        deduped, report, hashes = deduplicate(LabeledDataset(SCHEMA, []))
        assert (report.before, report.after, report.removed) == (0, 0, 0)
        assert len(deduped) == 0
        assert hashes == []

    def test_idempotent(self):
        ds = make_dataset(
            [((1.0, 2.0), "BENIGN"), ((1.0, 2.0), "BENIGN"), ((3.0, 4.0), "DDoS")]
        )
        once, _, _ = deduplicate(ds)
        twice, report, _ = deduplicate(once)
        assert [r for r in twice.records] == [r for r in once.records]
        assert report.removed == 0

    def test_formatting_equivalence_class(self):
        # values equal after 6-sig-digit formatting hash identically
        ds = make_dataset([((0.1 + 0.2, 1.0), "BENIGN"), ((0.3, 1.0), "BENIGN")])
        deduped, report, _ = deduplicate(ds)
        assert report.after == 1


class TestLargestRemainder:
    def test_exact_ratios(self):
        assert largest_remainder_sizes(10, (0.7, 0.1, 0.2)) == (7, 1, 2)

    def test_sums_to_n(self):
        for n in range(0, 50):
            assert sum(largest_remainder_sizes(n, (0.7, 0.1, 0.2))) == n

    def test_paper_scale_totals(self):
        # independent integer-partition oracle with exact rational arithmetic
        def oracle(n, ratios):
            exact = [Fraction(r).limit_denominator(10) * n for r in ratios]
            base = [int(e) for e in exact]
            rem = n - sum(base)
            order = sorted(range(3), key=lambda i: (-(exact[i] - base[i]), i))
            for i in order[:rem]:
                base[i] += 1
            return tuple(base)

        ratios = (0.7, 0.1, 0.2)
        class_counts = (243211, 121606, 2053)  # deduplicated corpus of record
        totals = [0, 0, 0]
        for n in class_counts:
            expected = oracle(n, ratios)
            assert largest_remainder_sizes(n, ratios) == expected
            for s in range(3):
                totals[s] += expected[s]
        assert tuple(totals) == (256809, 36687, 73374)
        assert sum(totals) == 366870


def synthetic_imbalanced(n_b=40, n_d=20, n_w=10):
    rows = []
    v = 0.0
    for n, raw in ((n_b, "BENIGN"), (n_d, "DDoS"), (n_w, "Web Attack – XSS")):
        for _ in range(n):
            rows.append(((v, v + 0.5), raw))
            v += 1.0
    return make_dataset(rows)


class TestStratifiedSplit:
    def test_sizes(self):
        train, validation, test = stratified_split(synthetic_imbalanced(), seed=7)
        assert (len(train), len(validation), len(test)) == (49, 7, 14)

    def test_determinism(self):
        ds = synthetic_imbalanced()
        assert stratified_split(ds, seed=3) == stratified_split(ds, seed=3)

    def test_partition_is_exact(self):
        for ds in (synthetic_imbalanced(), deduplicate(with_repeats())[0]):
            parts = stratified_split(ds, seed=1)
            assert len(parts) == len(SPLITS)
            assert sorted(i for part in parts for i in part) == list(range(len(ds)))

    def test_small_class_rejected(self):
        ds = make_dataset(
            [((1.0, 1.0), "BENIGN"), ((2.0, 2.0), "BENIGN"), ((3.0, 3.0), "BENIGN"),
             ((4.0, 4.0), "DDoS"), ((5.0, 5.0), "DDoS")]
        )
        with pytest.raises(DataError, match="DDOS"):
            stratified_split(ds, seed=0)

    @pytest.mark.parametrize(
        "ratios",
        [(0.5, 0.5), (0.7, 0.1, 0.1, 0.1), (1.2, -0.1, -0.1), (0.5, float("nan"), 0.5),
         ("0.7", "0.1", "0.2"), (0.7, 0.1, 0.1)],
        ids=["two", "four", "negative", "nan", "strings", "bad-sum"],
    )
    def test_bad_ratios_rejected(self, ratios):
        # checked where the run config is loaded, not by each split
        with pytest.raises(ConfigError, match="three numbers >= 0 summing to 1"):
            check_split_ratios(ratios)

    @given(
        n_b=st.integers(3, 60), n_d=st.integers(3, 40), n_w=st.integers(3, 20),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_stratification_bound(self, n_b, n_d, n_w, seed):
        ds = synthetic_imbalanced(n_b, n_d, n_w)
        total = len(ds)
        global_counts = ds.class_counts()
        for idx in stratified_split(ds, seed=seed):
            part = LabeledDataset(ds.schema, [ds.records[i] for i in idx])
            if len(part) == 0:
                continue
            counts = part.class_counts()
            for c in range(len(CLASS_NAMES)):
                lhs = abs(counts[c] / len(part) - global_counts[c] / total)
                assert lhs <= 1 / len(part) + 1 / total + 1e-12


def split_hashes(ds, parts):
    return {
        name: [record_hash(ds.records[i][0], ds.schema) for i in part]
        for name, part in zip(SPLITS, parts)
    }


class TestAuditOverlap:
    def test_clean_split(self):
        ds = synthetic_imbalanced()
        assert set(audit_overlap(split_hashes(ds, stratified_split(ds, seed=2))).values()) == {0}

    def test_injected_fault(self):
        ds = synthetic_imbalanced()
        train, validation, test = stratified_split(ds, seed=2)
        overlap = audit_overlap(split_hashes(ds, (train, validation, test + train[:1])))
        assert overlap[("train", "test")] == 1
        assert overlap[("train", "validation")] == 0

    def test_empty(self):
        overlap = audit_overlap({name: [] for name in SPLITS})
        assert list(overlap.items()) == [
            (("train", "validation"), 0), (("train", "test"), 0), (("validation", "test"), 0)]


DURATION = FeatureSchema(("Flow Duration",))


def csv_round_trip(csv_file, ds):
    """The dataset written as a split CSV and parsed back, as later stages read it."""
    parsed, report = parse_flow_csv(csv_file(synthetic.dataset_to_csv_bytes(ds)), ds.schema)
    assert report.rows_dropped == 0
    return parsed


class TestSplitCsvRoundTrip:
    def test_distinct_flows_stay_distinct(self, csv_file):
        # 6 significant digits would write all four as 1.23457e+06
        ds = LabeledDataset(DURATION, [
            (FlowRecord((float(v),), "BENIGN"), BENIGN)
            for v in range(1234567, 1234571)
        ])
        assert deduplicate(ds)[1].after == 4
        parsed = csv_round_trip(csv_file, ds)
        assert parsed.records == ds.records
        assert deduplicate(parsed)[1].after == 4

    def test_integers_written_as_integers(self):
        ds = make_dataset([((150.0, -1.0), "BENIGN"), ((1e6, 0.25), "DDoS")])
        lines = synthetic.dataset_to_csv_bytes(ds).decode("utf-8").splitlines()
        assert lines == ["A,B,Label", "150,-1,BENIGN", "1000000,0.25,DDoS"]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_row_round_trips(self, csv_file, values):
        ds = make_dataset([(values, "BENIGN")])
        (rec, _), = csv_round_trip(csv_file, ds).records
        assert rec.features == tuple(values)
        assert record_hash(rec, SCHEMA) == record_hash(ds.records[0][0], SCHEMA)


def reference_csv_value(v: float) -> str:
    """The per-cell rendering the split CSVs used before a row's value cells
    were rendered with one `%` call: integral values as integers, every
    other value as its shortest round-trip repr."""
    return str(int(v)) if v.is_integer() else repr(v)


def reference_csv_bytes(dataset: LabeledDataset, label_column: str = "Label") -> bytes:
    """Every cell, the label's too, written by `csv.writer`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([*dataset.schema.names, label_column])
    writer.writerows([*map(reference_csv_value, rec.features), rec.raw_label]
                     for rec, _ in dataset.records)
    return buf.getvalue().encode("utf-8")


CSV_VALUES = [
    0.0, -0.0, 1.0, -1.0, 0.5, 999999.0, 1e6, 1000001.0, -999999.0, -1e6, 1234567.0,
    999999.5, 1e6 + 0.5, 2.0**53, 2.0**53 + 2, math.nextafter(1e16, 0.0), 1e16,
    math.nextafter(1e16, math.inf), -1e16, math.nextafter(-1e16, 0.0), 1e17, -1e17,
    2.0**64, 1e300, -1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308,
    math.nextafter(2.2250738585072014e-308, 0.0), 1e-5, 0.1 + 0.2,
    math.inf, -math.inf, math.nan,
]
CSV_LABELS = ["BENIGN", "", "a,b", 'say "hi"', "cr\rlf\n", "line\nbreak", " edge spaces ",
              "Web Attack \u2013 Brute Force", '",\r\n"', " "]


def csv_dataset(names, rows) -> LabeledDataset:
    return LabeledDataset(FeatureSchema(tuple(names)), [
        (FlowRecord(tuple(values), label), BENIGN) for values, label in rows])


class TestSplitCsvWriter:
    """`dataset_to_csv_bytes` against `csv.writer` over `reference_csv_value`."""

    @pytest.mark.parametrize("x", CSV_VALUES, ids=repr)
    def test_special_values(self, x):
        ds = csv_dataset(["A", "B"], [((x, 1.0), "BENIGN"), ((-2.5, x), "DDoS")])
        assert synthetic.dataset_to_csv_bytes(ds) == reference_csv_bytes(ds)

    @pytest.mark.parametrize("label", CSV_LABELS, ids=repr)
    def test_labels_quoted_as_csv_writer_quotes_them(self, label):
        ds = csv_dataset(["Flow Duration"], [((80.0,), label), ((0.25,), "BENIGN"), ((1.0,), label)])
        assert synthetic.dataset_to_csv_bytes(ds) == reference_csv_bytes(ds)

    def test_header_quoted(self):
        ds = csv_dataset(["a,b", 'q"', " s "], [((1.0, 2.5, -0.0), "BENIGN")])
        assert synthetic.dataset_to_csv_bytes(ds, label_column="L,abel") == \
            reference_csv_bytes(ds, label_column="L,abel")

    def test_no_rows(self):
        ds = csv_dataset(["A", "B"], [])
        assert synthetic.dataset_to_csv_bytes(ds) == reference_csv_bytes(ds) == b"A,B,Label\r\n"

    def test_every_integrality_pattern_twice(self):
        # 2**11 integrality patterns, more than the template cache holds, so
        # the second pass meets each pattern after its template was evicted
        rows = [(tuple(float(i) if (p >> i) & 1 else i + 0.5 for i in range(11)), "BENIGN")
                for p in itertools.chain(range(2**11), range(2**11))]
        ds = csv_dataset([f"F{i}" for i in range(11)], rows)
        assert synthetic.dataset_to_csv_bytes(ds) == reference_csv_bytes(ds)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, data):
        d = data.draw(st.sampled_from([1, 2, 11, 77]))
        values = st.one_of(st.floats(), st.sampled_from(CSV_VALUES),
                           st.integers(-10**7, 10**7).map(float))
        labels = st.one_of(st.sampled_from(CSV_LABELS),
                           st.text(st.sampled_from(list('ab ,"\r\n\t\u2013')), max_size=6))
        rows = data.draw(st.lists(st.tuples(st.lists(values, min_size=d, max_size=d), labels),
                                  max_size=6))
        ds = csv_dataset([f"F{i}" for i in range(d)], rows)
        assert synthetic.dataset_to_csv_bytes(ds) == reference_csv_bytes(ds)


class TestClassCounts:
    def test_counts_each_class_in_label_order(self):
        labels = [DDOS, BENIGN, DDOS, DDOS]
        ds = LabeledDataset(SCHEMA, [(FlowRecord((float(i), 0.0), "x"), c)
                                     for i, c in enumerate(labels)])
        counts = ds.class_counts()
        assert len(counts) == len(CLASS_NAMES) and all(type(n) is int for n in counts)
        assert counts == tuple(Counter(labels)[c] for c in range(len(CLASS_NAMES))) == (1, 3, 0)

    def test_empty(self):
        assert LabeledDataset(SCHEMA, []).class_counts() == (0,) * len(CLASS_NAMES)
