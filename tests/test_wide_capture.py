"""`prepare` on a capture as wide as CICIDS2017's (see `wide_capture`)."""
import json
from collections import Counter

import pytest
from click.testing import CliRunner

from flowig.cli import main
from flowig.flow_data import FeatureSchema, parse_flow_csv

import wide_capture

PLAN = wide_capture.Plan()


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wide")
    capture = wide_capture.generate(seed=5, plan=PLAN)
    (tmp / "flows.csv").write_bytes(capture.csv_bytes)
    config = tmp / "config.json"
    config.write_text(json.dumps({"work_dir": str(tmp / "work"),
                                  "input_csv": str(tmp / "flows.csv"),
                                  "schema": list(wide_capture.SCHEMA)}))
    r = CliRunner().invoke(main, ["prepare", "--config", str(config)])
    assert r.exit_code == 0, r.output
    return capture, tmp / "work", r.output


def test_capture_is_cicids_wide():
    header = wide_capture.generate(seed=5, plan=PLAN).csv_bytes.split(b"\r\n")[0]
    assert len(header.split(b",")) == wide_capture.WIDTH == 78


def test_parse_and_dedup_counts_are_the_planted_ones(prepared):
    _, work, output = prepared
    duplicates = PLAN.exact_duplicates + PLAN.conflicting_duplicates
    before = PLAN.base_rows + duplicates
    assert output.splitlines()[0] == f"{before} -> {PLAN.base_rows}"
    assert (work / "dedup_report.txt").read_text() == (
        f"deduplication: {before} -> {PLAN.base_rows}\n"
        f"removed: {duplicates}\n"
        f"conflicting-label duplicates: {PLAN.conflicting_duplicates}\n"
        f"rows dropped in parsing: {PLAN.nonfinite_rows + PLAN.unparseable_rows}"
        f" (non-finite {PLAN.nonfinite_rows}, unparseable {PLAN.unparseable_rows})\n"
    )


def test_split_csvs_reparse_to_the_planted_values(prepared):
    capture, work, _ = prepared
    schema = FeatureSchema(wide_capture.SCHEMA)
    rows = Counter()
    for name in ("train", "validation", "test"):
        ds, report = parse_flow_csv(work / f"split_{name}.csv", schema)
        assert report.rows_dropped == 0
        rows.update((rec.features, rec.raw_label) for rec, _ in ds.records)
    # float64 equality, value for value: every kept row is its first occurrence
    assert rows == Counter(capture.base)
