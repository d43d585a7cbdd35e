import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from flowig import cli
from flowig.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from flowig.errors import AuditError, ConfigError, DataError, NumericError

SMALL_CONFIG = {
    "schema": "synthetic",
    "seed": 0,
    "encoder": {
        "layers": 1,
        "heads": 2,
        "d_model": 16,
        "d_ff": 24,
        "max_seq_len": 64,
        "dropout_rate": 0.1,
    },
    "train": {"epochs": 2, "batch_size": 16},
    "ig": {"steps": 8},
    "ig_max_examples": 9,
    "top_k": 5,
}


def write_config(tmp: Path, **overrides) -> Path:
    data = dict(SMALL_CONFIG, work_dir=str(tmp / "work"), **overrides)
    data.setdefault("input_csv", str(tmp / "flows.csv"))
    path = tmp / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full prepare/train/evaluate/explain/report run on a tiny corpus."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp)
    r = run("synthetic", "--out", tmp / "flows.csv", "--n", 120, "--seed", 0)
    assert r.exit_code == 0, r.output
    for cmd in ("prepare", "train", "evaluate", "explain", "report"):
        r = run(cmd, "--config", cfg)
        assert r.exit_code == 0, f"{cmd}: {r.output}"
    return tmp, cfg


class TestPipeline:
    def test_prepare_artifacts(self, pipeline):
        tmp, _ = pipeline
        work = tmp / "work"
        for name in (
            "split_train.csv",
            "split_validation.csv",
            "split_test.csv",
            "manifest.tsv",
            "dedup_report.txt",
            "overlap_audit.txt",
        ):
            assert (work / name).exists(), name
        assert "-> " in (work / "dedup_report.txt").read_text()
        audit = (work / "overlap_audit.txt").read_text()
        assert audit.count("0") >= 3

    def test_manifest_covers_all_rows(self, pipeline):
        tmp, _ = pipeline
        lines = (tmp / "work" / "manifest.tsv").read_text().strip().split("\n")
        assert len(lines) == 120
        hashes = [ln.split("\t")[0] for ln in lines]
        assert len(set(hashes)) == 120

    def test_train_artifacts(self, pipeline):
        tmp, _ = pipeline
        work = tmp / "work"
        assert (work / "vocab.tsv").exists()
        assert (work / "model_absolute.ckpt").exists()
        log = (work / "train_log_absolute.jsonl").read_text().strip().split("\n")
        assert len(log) == 2
        assert "train_loss" in log[0]

    def test_evaluate_artifacts(self, pipeline):
        tmp, _ = pipeline
        text = (tmp / "work" / "metrics_absolute.txt").read_text()
        assert "macro_f1" in text
        assert "BENIGN" in text

    def test_explain_artifacts(self, pipeline):
        tmp, _ = pipeline
        work = tmp / "work"
        csv_lines = (work / "heatmap_absolute.csv").read_bytes().split(b"\r\n")
        assert csv_lines[0].startswith(b"class,")
        assert len(csv_lines[0].split(b",")) == 6  # class + top_k columns
        assert (work / "heatmap_absolute.svg").read_bytes().startswith(b"<svg ")
        attrs = (work / "attributions_absolute.jsonl").read_text().strip().split("\n")
        assert len(attrs) == 9
        rec = json.loads(attrs[0])
        assert set(rec) >= {"hash", "class", "feature_attr", "relative_gap"}

    def test_report(self, pipeline):
        tmp, _ = pipeline
        report = (tmp / "work" / "report.md").read_text()
        assert "## Deduplication" in report
        assert "## Overlap audit" in report
        assert "macro_f1" in report

    def test_prepare_rerun_byte_identical(self, pipeline):
        tmp, cfg = pipeline
        work = tmp / "work"
        before = {
            p.name: p.read_bytes()
            for p in work.iterdir()
            if p.name.startswith(("split_", "manifest", "dedup", "overlap"))
        }
        r = run("prepare", "--config", cfg)
        assert r.exit_code == 0, r.output
        for name, data in before.items():
            assert (work / name).read_bytes() == data, name


class TestFailureModes:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"work_dir": str(tmp_path), "botnet": True}))
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert "botnet" in r.output

    def test_missing_input_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_DATA

    def test_no_input_configured(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"work_dir": str(tmp_path / "w")}))
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG

    def test_train_before_prepare(self, tmp_path):
        cfg = write_config(tmp_path)
        r = run("train", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert "flowig prepare" in r.output

    def test_report_before_train(self, tmp_path):
        cfg = write_config(tmp_path)
        (tmp_path / "flows.csv").write_bytes(b"")
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == 0, r.output
        r = run("report", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert "flowig train" in r.output

    def test_lock_contention(self, tmp_path):
        cfg = write_config(tmp_path)
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        work = tmp_path / "work"
        work.mkdir()
        (work / ".lock").touch()
        r = run("prepare", "--config", cfg)
        assert r.exit_code != 0
        assert "locked" in r.output
        (work / ".lock").unlink()

    def test_lock_released_after_run(self, pipeline):
        tmp, _ = pipeline
        assert not (tmp / "work" / ".lock").exists()

    def test_truncated_checkpoint(self, pipeline, tmp_path):
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        ckpt = work / "model_absolute.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-5])
        r = run("evaluate", "--config", cfg, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert "truncated" in r.output
        assert "Traceback" not in r.output

    def test_unknown_variant_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        r = run("train", "--config", cfg, "--variant", "rotary")
        assert r.exit_code == EXIT_CONFIG or r.exit_code == 2

    def test_exit_code_mapping(self):
        for exc, code in (
            (ConfigError("x"), EXIT_CONFIG),
            (DataError("x"), EXIT_DATA),
            (NumericError("x"), EXIT_NUMERIC),
            (AuditError("x"), EXIT_AUDIT),
        ):
            with pytest.raises(SystemExit) as info:
                cli._fail(exc)
            assert info.value.code == code


class TestSynthetic:
    def test_deterministic(self, tmp_path):
        run("synthetic", "--out", tmp_path / "a.csv", "--n", 50, "--seed", 3)
        run("synthetic", "--out", tmp_path / "b.csv", "--n", 50, "--seed", 3)
        run("synthetic", "--out", tmp_path / "c.csv", "--n", 50, "--seed", 4)
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a != (tmp_path / "c.csv").read_bytes()

    def test_has_all_labels(self, tmp_path):
        run("synthetic", "--out", tmp_path / "a.csv", "--n", 30)
        text = (tmp_path / "a.csv").read_text(encoding="utf-8")
        assert "BENIGN" in text and "DDoS" in text and "Web Attack" in text
