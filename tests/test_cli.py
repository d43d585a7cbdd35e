import dataclasses
import errno
import fcntl
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np
import pytest
from click.testing import CliRunner

from flowig import checkpoint, cli, encoder, errors, flow_data, textualize, tokenizer
from flowig.attribution import IGConfig
from flowig.checkpoint import load_checkpoint, save_checkpoint
from flowig.cli import main
from flowig.errors import (
    AuditError,
    ConfigError,
    DataError,
    FlowigError,
    NumericError,
    SchemaError,
    TruncationError,
)
from flowig.flow_data import CLASS_NAMES
from flowig.synthetic import SYNTHETIC_SCHEMA
from flowig.training import TrainConfig

# the documented exit codes
EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_AUDIT = 2, 3, 4, 5

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
    data = {**SMALL_CONFIG, "work_dir": str(tmp / "work"), **overrides}
    data.setdefault("input_csv", str(tmp / "flows.csv"))
    path = tmp / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# bad values, most of which only one stage reads; every stage refuses them at load
LOAD_REFUSALS = [
    ({"ig": {"steps": 0}}, "ig steps must be >= 1, got 0"),
    ({"train": {"epochs": 0}}, "train epochs must be >= 1, got 0"),
    ({"encoder": {"heads": 0}}, "encoder heads must be >= 1, got 0"),
    ({"ig_max_examples": 2}, "ig_max_examples must be >= 3, got 2"),
    ({"variant": "bogus"}, "unknown attention variant 'bogus'"),
    ({"schema": []}, "schema must have at least one feature"),
    ({"schema": ["a", "a"]}, "schema feature names must be unique"),
    ({"schema": ["[PAD]"]}, "feature name collides with a reserved token: '[PAD]'"),
    # a name equal to a value character would share that character's token id
    ({"schema": ["0", "x"]}, "feature name collides with a reserved token: '0'"),
    ({"schema": ["a", ["b"]]}, 'schema must be "synthetic" or an explicit list of feature names'),
    ({"schema": ["a", 5]}, 'schema must be "synthetic" or an explicit list of feature names'),
    # parsing would read every row's label cell as a number and drop the row
    ({"schema": ["Flow Duration", "Label"]}, "schema lists the label column 'Label'"),
    ({"ratios": [0.5, 0.6, 0.1]},
     "split ratios must be three numbers >= 0 summing to 1, got (0.5, 0.6, 0.1)"),
    # json.dumps writes these as the raw JSON text NaN and Infinity, which json.loads reads
    ({"train": {"learning_rate": math.nan}}, "train learning_rate must be finite and > 0, got nan"),
    ({"train": {"learning_rate": math.inf}}, "train learning_rate must be finite and > 0, got inf"),
]
LOAD_REFUSAL_IDS = ["ig-steps-zero", "train-epochs-zero", "encoder-heads-zero",
                    "ig-max-examples-two", "variant-bogus", "schema-empty", "schema-repeated-name",
                    "schema-reserved-name", "schema-number-token-name", "schema-nested-list",
                    "schema-number-entry", "schema-label-column", "ratios-bad-sum",
                    "learning-rate-nan", "learning-rate-infinity"]


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


# the tokens, in id order, of the vocabulary that the "synthetic" schema builds
SYNTHETIC_TOKENS = tuple(tokenizer.build_vocab(SYNTHETIC_SCHEMA).id_of)


def edit_checkpoint_header(ckpt: Path, edit) -> None:
    """Replace a checkpoint's JSON header with `edit(header)`, keeping its tensors."""
    data = ckpt.read_bytes()
    magic = len(checkpoint._MAGIC)
    (hlen,) = struct.unpack_from("<Q", data, magic)
    head = json.dumps(edit(json.loads(data[magic + 8 : magic + 8 + hlen]))).encode("utf-8")
    ckpt.write_bytes(data[:magic] + struct.pack("<Q", len(head)) + head
                     + data[magic + 8 + hlen :])


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
        assert not (work / "vocab.tsv").exists()  # the checkpoint header holds the tokens
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"train": {"bogus": 1}}, "unknown train config keys: bogus"),
            ({"encoder": {"bogus": 1}}, "unknown encoder config keys: bogus"),
            ({"train": {"seed": 3}}, "unknown train config keys: seed"),
            ({"encoder": {"vocab_size": 9}}, "unknown encoder config keys: vocab_size"),
            ({"ig": {"bogus": 1}}, "unknown ig config keys: bogus"),
            ({"ig": [8]}, "ig config must be a JSON object"),
            ({"ratios": 5}, "ratios must be tuple[float, float, float], got 5"),
            ({"train": {"epochs": "2"}}, "train epochs must be int, got '2'"),
            ({"encoder": {"layers": 1.5}}, "encoder layers must be int, got 1.5"),
            ({"encoder": {"layers": True}}, "encoder layers must be int, got True"),
            ({"encoder": {"dropout_rate": False}},
             "encoder dropout_rate must be float, got False"),
            ({"train": {"epochs": True}}, "train epochs must be int, got True"),
            ({"ig": {"steps": True}}, "ig steps must be int, got True"),
            ({"top_k": True}, "top_k must be int, got True"),
            # keys that were removed because they only ever took one value
            ({"significant_digits": 6}, "unknown config keys: significant_digits"),
            ({"heatmap_formats": ["csv"]}, "unknown config keys: heatmap_formats"),
            ({"train": {"weight_decay": 0.0}}, "unknown train config keys: weight_decay"),
            ({"train": {"beta1": 0.9}}, "unknown train config keys: beta1"),
            ({"train": {"beta2": 0.999}}, "unknown train config keys: beta2"),
            ({"train": {"adam_eps": 1e-8}}, "unknown train config keys: adam_eps"),
            ({"ig": {"completeness_tolerance": 0.05}},
             "unknown ig config keys: completeness_tolerance"),
            ({"ig": {"baseline_kind": "zero_embeddings"}},
             "unknown ig config keys: baseline_kind"),
            ({"encoder": {"n_classes": 3}}, "unknown encoder config keys: n_classes"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"top_k": 0}, "top_k must be >= 1, got 0"),
            ({"top_k": -1}, "top_k must be >= 1, got -1"),
            ({"ratios": [True, False, False]},
             "split ratios must be three numbers >= 0 summing to 1, got (True, False, False)"),
            *LOAD_REFUSALS,
        ],
        ids=["train-key", "encoder-key", "train-seed", "encoder-vocab", "ig-key", "ig-list",
             "ratios-number", "train-type", "encoder-type", "encoder-bool-layers",
             "encoder-bool-dropout-rate", "train-bool-epochs", "ig-bool-steps", "top-k-bool",
             "removed-significant-digits", "removed-heatmap-formats", "removed-weight-decay", "removed-beta1",
             "removed-beta2", "removed-adam-eps", "removed-completeness-tolerance",
             "removed-baseline-kind", "removed-n-classes", "negative-seed", "top-k-zero", "top-k-negative",
             "ratios-bool", *LOAD_REFUSAL_IDS],
    )
    def test_bad_config_value(self, tmp_path, overrides, message):
        # refused by prepare with one line, before the work dir is created
        cfg = write_config(tmp_path, **overrides)
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("stage", ["prepare", "train", "evaluate", "explain", "report"])
    @pytest.mark.parametrize("overrides, message", LOAD_REFUSALS, ids=LOAD_REFUSAL_IDS)
    def test_every_stage_refuses_at_load(self, tmp_path, stage, overrides, message):
        # a value only one stage reads is refused by every stage, before it
        # creates the work dir or takes the lock
        cfg = write_config(tmp_path, **overrides)
        r = run(stage, "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("stage", ["prepare", "train"])
    def test_negative_seed_flag(self, tmp_path, stage):
        cfg = write_config(tmp_path)
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        r = run(stage, "--config", cfg, "--seed", -1)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == ["error: seed must be >= 0, got -1"]
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "field, value, low",
        [("heads", 0, 1), ("heads", -4, 1), ("d_model", 0, 1), ("d_ff", 0, 1),
         ("rel_window", -2, 0)],
        ids=["heads-zero", "heads-negative", "d-model-zero", "d-ff-zero", "rel-window-negative"],
    )
    def test_bad_encoder_dimension(self, pipeline, tmp_path, field, value, low):
        tmp, _ = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        cfg = write_config(tmp_path, encoder={**SMALL_CONFIG["encoder"], field: value})
        r = run("train", "--config", cfg, "--variant", "disentangled")
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [f"error: encoder {field} must be >= {low}, got {value}"]
        assert not (work / "model_disentangled.ckpt").exists()
        assert not (work / ".lock").exists()

    def test_explain_top_k_zero_writes_nothing(self, pipeline, tmp_path):
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        for fmt in cli.HEATMAP_FORMATS:
            (work / f"heatmap_absolute.{fmt}").unlink()
        r = run("explain", "--config", cfg, "--work-dir", work, "--top-k", 0)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == ["error: top_k must be >= 1, got 0"]
        assert not list(work.glob("heatmap_*"))
        assert not (work / ".lock").exists()

    def test_explain_steps_flag_overrides_config(self, pipeline, tmp_path):
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        r = run("explain", "--config", cfg, "--work-dir", work, "--steps", 0)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == ["error: ig steps must be >= 1, got 0"]
        assert not (work / ".lock").exists()
        r = run("explain", "--config", cfg, "--work-dir", work, "--steps", 3)
        assert r.exit_code == 0, r.output
        assert "ig_steps: 3\n" in (work / "completeness_absolute.txt").read_text()

    def test_every_config_field_has_a_json_type(self):
        for kind in (cli.RunConfig, encoder.EncoderConfig, TrainConfig, IGConfig,
                     textualize.ValueFormatPolicy):
            for f in dataclasses.fields(kind):
                assert f.type in errors.JSON_TYPES, (kind.__name__, f.name, f.type)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TrainConfig(epochs=2.0), "train epochs must be int, got 2.0"),
            (lambda: TrainConfig(batch_size=True), "train batch_size must be int, got True"),
            (lambda: IGConfig(steps=True), "ig steps must be int, got True"),
            (lambda: textualize.ValueFormatPolicy(significant_digits=6.0),
             "significant_digits must be int, got 6.0"),
        ],
        ids=["train-float-epochs", "train-bool-batch-size", "ig-bool-steps",
             "float-significant-digits"],
    )
    def test_config_dataclass_refuses_wrong_type(self, build, message):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message

    def test_one_message_from_config_and_checkpoint_header(self, pipeline, tmp_path):
        # the same field check refuses a run config and a checkpoint header
        cfg = write_config(tmp_path, encoder={**SMALL_CONFIG["encoder"], "layers": 1.5})
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == ["error: encoder layers must be int, got 1.5"]

        tmp, good = pipeline
        work = tmp_path / "copy"
        work.mkdir()
        ckpt = work / "model_absolute.ckpt"
        shutil.copyfile(tmp / "work" / ckpt.name, ckpt)
        edit_checkpoint_header(ckpt, lambda h: {**h, "config": {**h["config"], "layers": 1.5}})
        r = run("evaluate", "--config", good, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: {ckpt}: corrupt checkpoint header: encoder layers must be int, got 1.5"
        ]

    def test_config_not_utf8(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff" + json.dumps(SMALL_CONFIG).encode("utf-8"))
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [
            f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte"
        ]

    def test_config_not_an_object(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps([SMALL_CONFIG]))
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == ["error: config must be a JSON object"]

    @pytest.mark.parametrize(
        "ratios", [[0.5, 0.5], [1.2, -0.1, -0.1], [0.7, 0.1, 0.1, 0.1], ["0.7", "0.1", "0.2"]],
        ids=["two", "negative", "four", "strings"],
    )
    def test_bad_split_ratios(self, tmp_path, ratios):
        cfg = write_config(tmp_path, ratios=ratios)
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [
            f"error: split ratios must be three numbers >= 0 summing to 1, got {tuple(ratios)}"
        ]
        assert not (tmp_path / "work").exists()

    def test_missing_input_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: cannot read {tmp_path / 'flows.csv'}: No such file or directory"
        ]

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
        assert not (tmp_path / "work" / ".lock").exists()

    @pytest.mark.parametrize("stage", ["evaluate", "explain"])
    def test_class_absent_from_test_split(self, pipeline, tmp_path, stage):
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        split = work / "split_test.csv"
        lines = split.read_text(encoding="utf-8").splitlines(keepends=True)
        split.write_text("".join(ln for ln in lines if "Web Attack" not in ln), encoding="utf-8")
        r = run(stage, "--config", cfg, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert "class absent from test split: WEB_ATTACK" in r.output
        assert not (work / ".lock").exists()

    @pytest.mark.parametrize("drop", ["head.w", "pos_emb"])
    def test_checkpoint_tensors_not_matching_config(self, pipeline, tmp_path, drop):
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        ckpt = work / "model_absolute.ckpt"
        enc_cfg, params = load_checkpoint(ckpt)
        del params[drop]
        save_checkpoint(ckpt, enc_cfg, params, SYNTHETIC_TOKENS)
        r = run("evaluate", "--config", cfg, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert drop in r.output
        assert "Traceback" not in r.output

    def test_checkpoint_in_the_old_layout(self, pipeline, tmp_path):
        # the layout before `n_classes` left the config and the absolute
        # variant lost its key biases: both are in the header and the tensors
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        ckpt = work / "model_absolute.ckpt"
        enc_cfg, params = load_checkpoint(ckpt)
        params.update({f"layers.{i}.attn.bk": np.zeros(enc_cfg.d_model)
                       for i in range(enc_cfg.layers)})
        names = sorted(params)
        header = {"config": {**dataclasses.asdict(enc_cfg), "n_classes": 3},
                  "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names]}
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ckpt.write_bytes(b"".join([checkpoint._MAGIC, struct.pack("<Q", len(head)), head,
                                   *(params[n].astype("<f8").tobytes() for n in names)]))
        r = run("evaluate", "--config", cfg, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: {ckpt}: corrupt checkpoint header: EncoderConfig.__init__()"
            " got an unexpected keyword argument 'n_classes'"
        ]

    @pytest.mark.parametrize("stage", ["evaluate", "explain"])
    def test_checkpoint_from_another_schema_order(self, pipeline, tmp_path, stage):
        # the split CSVs pick their columns by name, so only the checkpoint's
        # token list can tell that its token ids embed other features
        tmp, _ = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        outputs = [*work.glob("metrics_*"), *work.glob("heatmap_*"),
                   *work.glob("attributions_*"), *work.glob("completeness_*")]
        for p in outputs:
            p.unlink()
        names = list(SYNTHETIC_SCHEMA.names)
        cfg = write_config(tmp_path, schema=names[::-1])
        r = run(stage, "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: {work / 'model_absolute.ckpt'}: trained on another vocabulary:"
            f" token {len(tokenizer.SPECIALS)} is {names[0]!r}, this run's is {names[-1]!r}"
        ]
        assert not any(p.exists() for p in outputs)
        assert not (work / ".lock").exists()

    def test_disentangled_checkpoint_without_positions(self, pipeline, tmp_path):
        # the layout before both variants embedded positions: no pos_emb
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        enc_cfg, _ = load_checkpoint(work / "model_absolute.ckpt")
        enc_cfg = dataclasses.replace(enc_cfg, attention_variant=encoder.DISENTANGLED)
        params = encoder.init_params(enc_cfg)
        del params["pos_emb"]
        ckpt = work / "model_disentangled.ckpt"
        save_checkpoint(ckpt, enc_cfg, params, SYNTHETIC_TOKENS)
        r = run("evaluate", "--config", cfg, "--work-dir", work, "--variant", "disentangled")
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: {ckpt}: tensors do not match the checkpoint's config: pos_emb"
        ]
        assert not (work / "metrics_disentangled.txt").exists()
        assert not (work / ".lock").exists()

    @pytest.mark.parametrize("variant", ["absolute", "disentangled"])
    def test_out_of_memory(self, pipeline, tmp_path, variant):
        # a position table past any address space: the allocation fails at
        # once, so this uses no memory
        tmp, _ = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        cfg = write_config(tmp_path, encoder={**SMALL_CONFIG["encoder"], "max_seq_len": 10**15})
        r = run("train", "--config", cfg, "--variant", variant)
        assert r.exit_code == 1
        lines = r.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), r.output
        assert not list(work.glob("*.tmp"))
        assert not (work / ".lock").exists()

    @pytest.mark.parametrize("table, message", [
        ({"max_seq_len": 10**18}, "pos_emb of shape (1000000000000000000, 16)"),
        ({"d_model": 4 * 10**18, "heads": 1}, "tok_emb of shape (26, 4000000000000000000)"),
        ({"d_ff": 4 * 10**18}, "layers.0.ffn.w1 of shape (16, 4000000000000000000)"),
    ], ids=["max-seq-len", "d-model", "d-ff"])
    def test_table_past_numpy_sizes(self, pipeline, tmp_path, table, message):
        # numpy refuses such a table with a ValueError before it allocates
        tmp, _ = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        cfg = write_config(tmp_path, encoder={**SMALL_CONFIG["encoder"], **table})
        r = run("train", "--config", cfg)
        assert r.exit_code == 1
        assert r.output.splitlines() == [
            f"error: out of memory: {message} is too big for numpy to represent"]
        assert not list(work.glob("*.tmp"))
        assert not (work / ".lock").exists()

    def test_checkpoint_without_a_token_list(self, pipeline, tmp_path):
        # written before checkpoint headers listed the vocabulary's tokens
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        ckpt = work / "model_absolute.ckpt"
        edit_checkpoint_header(ckpt, lambda h: {k: v for k, v in h.items() if k != "tokens"})
        (work / "metrics_absolute.txt").unlink()
        r = run("evaluate", "--config", cfg, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: {ckpt}: header has no list of its {len(SYNTHETIC_TOKENS)} vocabulary tokens;"
            " retrain it"
        ]
        assert not (work / "metrics_absolute.txt").exists()
        assert not (work / ".lock").exists()

    def test_non_utf8_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        flows = tmp_path / "flows.csv"
        run("synthetic", "--out", flows, "--n", 30)
        flows.write_bytes(flows.read_text(encoding="utf-8").encode("cp1252"))
        assert b"Web Attack \x96 Brute Force" in flows.read_bytes()
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert "flows.csv is not UTF-8 text" in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "work" / ".lock").exists()

    def test_oversized_csv_cell(self, tmp_path):
        cfg = write_config(tmp_path)
        flows = tmp_path / "flows.csv"
        run("synthetic", "--out", flows, "--n", 30)
        lines = flows.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "1" * 200_000 + lines[2]
        flows.write_text("".join(lines), encoding="utf-8")
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: {flows} line 3: field larger than field limit (131072)"
        ]
        assert not (tmp_path / "work" / ".lock").exists()

    def test_empty_validation_split(self, tmp_path):
        cfg = write_config(tmp_path, ratios=[0.9, 0.0, 0.1])
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 60)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == 0, r.output
        r = run("train", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == ["error: validation split is empty"]
        assert not (tmp_path / "work" / ".lock").exists()

    def test_flow_longer_than_max_seq_len(self, tmp_path):
        # the one tokenizer error that a parsed split can reach: 8 features of
        # 3 digits make 49 tokens
        cfg = write_config(tmp_path, encoder={**SMALL_CONFIG["encoder"], "max_seq_len": 30})
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 60)
        assert run("prepare", "--config", cfg).exit_code == 0
        work = tmp_path / "work"
        r = run("train", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            "error: sequence of 49 tokens exceeds max_seq_len=30"
            " (first past it: feature 'Flow Packets/s')"
        ]
        assert not list(work.glob("*.ckpt")) and not list(work.glob("*.tmp"))
        assert not (work / ".lock").exists()

    def test_work_dir_not_creatable(self, tmp_path):
        (tmp_path / "file").write_text("")
        work = tmp_path / "file" / "work"
        cfg = write_config(tmp_path, work_dir=str(work))
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [f"error: cannot create work dir {work}: Not a directory"]
        assert not (tmp_path / "file" / ".lock").exists()

    @pytest.mark.parametrize("stage, name", [
        ("prepare", "dedup_report.txt"),
        ("evaluate", "model_absolute.ckpt"),
        ("evaluate", "metrics_absolute.txt"),
    ], ids=["prepare-writes-report", "evaluate-reads-checkpoint", "evaluate-writes-metrics"])
    def test_io_failure_in_a_stage(self, pipeline, tmp_path, stage, name):
        # a directory where a stage reads or writes a file: one line, exit 3
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        (work / name).unlink()
        (work / name).mkdir()
        before = {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()}
        r = run(stage, "--config", cfg, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [f"error: cannot access {work / name}: Is a directory"]
        assert not (work / ".lock").exists()
        assert {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("stage", ["prepare", "evaluate"])
    def test_broken_stdout(self, pipeline, tmp_path, monkeypatch, stage):
        # `flowig <stage> | true`: the failed write to standard output names
        # no file, so the line gives the system's reason alone
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        echo = click.echo

        def broken_stdout(message=None, file=None, nl=True, err=False, color=None):
            if not err:
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
            echo(message, file, nl, err, color)

        monkeypatch.setattr(click, "echo", broken_stdout)
        r = run(stage, "--config", cfg, "--work-dir", work)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == ["error: Broken pipe"]
        assert not (work / ".lock").exists()

    def test_failed_write_names_its_artifact(self, tmp_path, monkeypatch):
        # a full disk names no file: the line names the artifact being written
        prepare, work = self._prepare(tmp_path)
        write_bytes = Path.write_bytes

        def disk_full(path, data):
            if path.name == "split_train.csv.tmp":
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        r = prepare()
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: cannot access {work / 'split_train.csv'}: No space left on device"
        ]
        assert os.listdir(work) == []

    def test_failed_prepare_leaves_no_split_that_trains(self, tmp_path, monkeypatch):
        # a seed-1 `prepare` whose validation write fails must not leave seed
        # 0's validation and test splits beside its own training split, whose
        # rows they share: `train` refuses the work dir instead of reading both
        cfg = write_config(tmp_path)
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 300)
        assert run("prepare", "--config", cfg).exit_code == 0
        work = tmp_path / "work"
        seed_0_train = (work / "split_train.csv").read_bytes()
        write_bytes = Path.write_bytes

        def disk_full(path, data):
            if path.name == "split_validation.csv.tmp":
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        r = run("prepare", "--config", write_config(tmp_path, seed=1))
        monkeypatch.undo()
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: cannot access {work / 'split_validation.csv'}: No space left on device"
        ]
        assert (work / "split_train.csv").read_bytes() != seed_0_train
        assert not (work / "split_test.csv").exists() and not (work / "manifest.tsv").exists()
        r = run("train", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: missing artifact {work / 'split_validation.csv'}; run `flowig prepare` first"
        ]
        assert not list(work.glob("*.ckpt"))

    def test_audit_failure_writes_no_split(self, tmp_path, monkeypatch):
        # the audit refuses the splits before any of them is written
        prepare, work = self._prepare(tmp_path)
        audit = flow_data.audit_overlap
        monkeypatch.setattr(flow_data, "audit_overlap",
                            lambda splits: {**audit(splits), ("train", "test"): 1})
        r = prepare()
        assert r.exit_code == EXIT_AUDIT
        assert r.output.splitlines()[-1].startswith("error: split overlap detected: ")
        assert not list(work.glob("split_*")) and not (work / "manifest.tsv").exists()
        r = run("train", "--config", tmp_path / "config.json")
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [
            f"error: missing artifact {work / 'split_train.csv'}; run `flowig prepare` first"
        ]

    def test_input_that_keeps_no_row(self, tmp_path):
        # a word in every row's first feature cell makes every row unparseable:
        # `prepare` refuses before it writes a split or removes an earlier one
        flows, bad_flows = tmp_path / "flows.csv", tmp_path / "bad.csv"
        run("synthetic", "--out", flows, "--n", 60)
        header, *rows = flows.read_text(encoding="utf-8").splitlines()
        bad_rows = ["idle" + row[row.index(","):] for row in rows]
        bad_flows.write_text("\n".join([header, *bad_rows]) + "\n", encoding="utf-8")
        bad = write_config(tmp_path, input_csv=str(bad_flows))
        work = tmp_path / "work"
        message = [f"error: {bad_flows} keeps no row; rows dropped in parsing: 60"
                   " (non-finite 0, unparseable 60)"]
        r = run("prepare", "--config", bad)
        assert (r.exit_code, r.output.splitlines()) == (EXIT_DATA, message)
        assert not list(work.glob("split_*")) and not (work / "manifest.tsv").exists()
        assert run("prepare", "--config", write_config(tmp_path)).exit_code == 0
        earlier = {p.name: p.read_bytes() for p in work.iterdir()}
        r = run("prepare", "--config", write_config(tmp_path, input_csv=str(bad_flows)))
        assert (r.exit_code, r.output.splitlines()) == (EXIT_DATA, message)
        assert {p.name: p.read_bytes() for p in work.iterdir()} == earlier

    def test_input_csv_is_a_directory(self, tmp_path):
        cfg = write_config(tmp_path, input_csv=str(tmp_path))
        r = run("prepare", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [f"error: cannot read {tmp_path}: Is a directory"]
        assert not (tmp_path / "work" / ".lock").exists()

    def test_report_before_train(self, tmp_path):
        cfg = write_config(tmp_path)
        (tmp_path / "flows.csv").write_bytes(b"")
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == 0, r.output
        r = run("report", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert "flowig train" in r.output

    @staticmethod
    def _prepare(tmp_path):
        """A 30-flow corpus and its config; returns `prepare` and the work dir, made."""
        cfg = write_config(tmp_path)
        run("synthetic", "--out", tmp_path / "flows.csv", "--n", 30)
        work = tmp_path / "work"
        work.mkdir()
        return (lambda: run("prepare", "--config", cfg)), work

    def test_lock_contention(self, tmp_path):
        # another run holds the lock: one line, exit 1, nothing written
        prepare, work = self._prepare(tmp_path)
        with open(work / ".lock", "wb") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            r = prepare()
            assert os.listdir(work) == [".lock"]
        assert r.exit_code == 1
        assert r.output.splitlines() == [f"error: work dir {work} is locked by another run"]

    def test_lock_of_a_killed_holder_is_taken(self, tmp_path):
        prepare, work = self._prepare(tmp_path)
        code = ("import sys, time; from pathlib import Path; from flowig import cli\n"
                "with cli._work_dir_lock(Path(sys.argv[1])):\n"
                "    print('ready', flush=True)\n"
                "    time.sleep(120)\n")
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-c", code, str(work)], text=True,
                                 stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
        try:
            assert child.stdout.readline() == "ready\n"
        finally:
            child.kill()
            child.wait(timeout=60)
            child.stdout.close()
        assert (work / ".lock").exists()
        r = prepare()
        assert r.exit_code == 0, r.output
        assert not (work / ".lock").exists()

    @pytest.mark.parametrize("content", ["", "12345\n"], ids=["empty", "pid"])
    def test_unheld_lock_file_is_taken(self, tmp_path, content):
        # as a killed run, or an earlier flowig that wrote its PID, left it
        prepare, work = self._prepare(tmp_path)
        (work / ".lock").write_text(content, encoding="ascii")
        r = prepare()
        assert r.exit_code == 0, r.output
        assert not (work / ".lock").exists()

    @pytest.mark.parametrize("recreate", [False, True], ids=["unlinked", "replaced"])
    def test_lock_released_while_taking_it(self, tmp_path, monkeypatch, recreate):
        # the holder releases, and unlinks .lock, between our open and our
        # flock: the file we lock is no longer the lock, so the stage refuses
        prepare, work = self._prepare(tmp_path)
        flock = fcntl.flock

        def release_first(fd, op):
            (work / ".lock").unlink()
            if recreate:  # and the next run has made a new one
                (work / ".lock").touch()
            return flock(fd, op)

        monkeypatch.setattr(cli.fcntl, "flock", release_first)
        r = prepare()
        assert r.exit_code == 1
        assert r.output.splitlines() == [f"error: work dir {work} is locked by another run"]
        assert os.listdir(work) == ([".lock"] if recreate else [])

    def test_lock_is_held_while_the_block_runs(self, tmp_path):
        work = tmp_path / "work"
        with cli._work_dir_lock(work):
            other = open(work / ".lock", "wb")
            with pytest.raises(BlockingIOError):
                fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert not (work / ".lock").exists()
        with other:  # the same open file gets the lock once the block has ended
            fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)

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

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("metrics_absolute.txt", b"accuracy\t0.9\nweighted_f1\t0.9\n", "has no macro_f1 line"),
            ("metrics_absolute.txt", b"macro_f1\t0.9\n", "has no weighted_f1 line"),
            ("metrics_absolute.txt", b"macro_f1\t0.9\xff\n",
             "is not UTF-8 text: invalid start byte"),
            ("dedup_report.txt", b"deduplication: 3 \x96 2\n",
             "is not UTF-8 text: invalid start byte"),
            ("train_log_absolute.jsonl", b"\xff\n", "is not UTF-8 text: invalid start byte"),
        ],
        ids=["metrics-no-macro-f1", "metrics-no-weighted-f1", "metrics-not-utf8",
             "dedup-report-not-utf8", "train-log-not-utf8"],
    )
    def test_report_refuses_bad_artifact(self, tmp_path, name, data, message):
        # report only checks that a checkpoint exists, so an empty one will do
        cfg = write_config(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        files = {"model_absolute.ckpt": b"", "dedup_report.txt": b"deduplication: 3 -> 2\n",
                 "overlap_audit.txt": b"train x test\t0\n",
                 "metrics_absolute.txt": b"macro_f1\t0.9\nweighted_f1\t0.9\n", name: data}
        for file, content in files.items():
            (work / file).write_bytes(content)
        r = run("report", "--config", cfg)
        assert r.exit_code == EXIT_DATA
        assert r.output.splitlines() == [f"error: {work / name} {message}"]
        assert not (work / ".lock").exists()
        assert not (work / "report.md").exists()

    def test_unknown_variant_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        r = run("train", "--config", cfg, "--variant", "rotary")
        assert r.exit_code == EXIT_CONFIG or r.exit_code == 2

    def test_exit_code_mapping(self):
        for exc, code in (
            (ConfigError("x"), EXIT_CONFIG),
            (DataError("x"), EXIT_DATA),
            (SchemaError("x"), EXIT_DATA),
            (TruncationError("x"), EXIT_DATA),
            (NumericError("x"), EXIT_NUMERIC),
            (AuditError("x"), EXIT_AUDIT),
            (FlowigError("x"), 1),
        ):
            with pytest.raises(SystemExit) as info:
                cli._fail(exc)
            assert info.value.code == code


def _count_serializations(monkeypatch, module) -> list:
    """Patch `module.serialize` to record each record it serializes."""
    seen, original = [], module.serialize

    def counting(record, *args, **kwargs):
        seen.append(record)
        return original(record, *args, **kwargs)

    monkeypatch.setattr(module, "serialize", counting)
    return seen


class TestSerializationCount:
    """A row's identity is its serialization hash; each stage computes it as
    few times as it can."""

    def test_prepare_serializes_each_parsed_row_once(self, tmp_path, monkeypatch):
        flows = tmp_path / "flows.csv"
        run("synthetic", "--out", flows, "--n", 60)
        lines = flows.read_bytes().splitlines(keepends=True)
        flows.write_bytes(b"".join(lines + lines[-1:]))   # one duplicate row
        cfg = write_config(tmp_path)
        hashed = _count_serializations(monkeypatch, flow_data)
        tokenized = _count_serializations(monkeypatch, textualize)
        r = run("prepare", "--config", cfg)
        assert r.exit_code == 0, r.output
        assert r.output.splitlines()[0] == "61 -> 60"
        assert len(hashed) == 61
        assert len({id(rec) for rec in hashed}) == 61
        assert tokenized == []

    def test_explain_hashes_only_the_rows_it_attributes(self, pipeline, tmp_path, monkeypatch):
        tmp, cfg = pipeline
        work = tmp_path / "work"
        shutil.copytree(tmp / "work", work)
        hashed = _count_serializations(monkeypatch, flow_data)
        tokenized = _count_serializations(monkeypatch, textualize)
        r = run("explain", "--config", cfg, "--work-dir", work)
        assert r.exit_code == 0, r.output
        test_rows = [ln.split("\t") for ln in (work / "manifest.tsv").read_text().splitlines()
                     if ln.split("\t")[1] == "test"]
        # one serialization per attributed row serves both tokenizing and hashing
        assert hashed == []
        assert len(tokenized) == SMALL_CONFIG["ig_max_examples"] < len(test_rows)
        assert len({id(rec) for rec in tokenized}) == len(tokenized)
        # each attributed row's hash is the one prepare gave it
        attributed = [json.loads(ln) for ln in
                      (work / "attributions_absolute.jsonl").read_text().splitlines()]
        manifest = {h: label for h, _, label in test_rows}
        assert [manifest.get(a["hash"]) for a in attributed] == [a["class"] for a in attributed]
        assert (work / "attributions_absolute.jsonl").read_bytes() == (
            tmp / "work" / "attributions_absolute.jsonl").read_bytes()


# Every command with its summary and options, in help order; the stage
# runner registers the stages and must keep all of them as they are.
CLI_HELP = {
    "evaluate": ("Compute the metrics report on the test split.",
                 ["--seed", "--work-dir", "--config", "--variant"]),
    "explain": ("Build the class x feature attribution heatmap and per-example dump.",
                ["--seed", "--work-dir", "--config", "--variant", "--steps", "--top-k"]),
    "prepare": ("Parse, dedup, and split the input CSV; write manifests and audit reports.",
                ["--seed", "--work-dir", "--config", "--input-csv"]),
    "report": ("Aggregate all stage artifacts into one run report.",
               ["--seed", "--work-dir", "--config"]),
    "synthetic": ("Write the bundled synthetic 3-class fixture as a flow CSV.",
                  ["--out", "--n", "--seed"]),
    "train": ("Train the selected attention variant on the prepared splits.",
              ["--seed", "--work-dir", "--config", "--variant"]),
}


class TestHelp:
    def test_commands(self):
        r = run("--help")
        assert r.exit_code == 0
        listed = re.findall(r"^  (\w+) ", r.output.split("Commands:\n")[1], re.M)
        assert listed == sorted(CLI_HELP)

    @pytest.mark.parametrize("command", sorted(CLI_HELP))
    def test_command_options(self, command):
        summary, options = CLI_HELP[command]
        r = run(command, "--help")
        assert r.exit_code == 0
        assert summary in " ".join(r.output.split())
        assert re.findall(r"^  (--[\w-]+)", r.output, re.M) == [*options, "--help"]

    def test_variant_choices(self):
        for command in ("train", "evaluate", "explain"):
            assert "[absolute|disentangled]" in run(command, "--help").output


def _round_robin(pairs, limit):
    """The original round-robin loop, kept as the oracle for _select_examples."""
    if limit is None or limit >= len(pairs):
        return pairs
    by_class = {c: [] for c in range(len(CLASS_NAMES))}
    for pair in pairs:
        by_class[pair[1].label].append(pair)
    out = []
    i = 0
    while len(out) < limit:
        added = False
        for c in range(len(CLASS_NAMES)):
            if i < len(by_class[c]) and len(out) < limit:
                out.append(by_class[c][i])
                added = True
        if not added:
            break
        i += 1
    return out


def test_select_examples_matches_round_robin():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(0, 25))
        weights = rng.dirichlet(np.ones(3))
        labels = rng.choice(3, size=n, p=weights)
        pairs = [(f"h{i}", SimpleNamespace(label=int(c))) for i, c in enumerate(labels)]
        for limit in (None, -1, 0, 1, 2, 3, n, n + 1, int(rng.integers(0, n + 1))):
            chosen = cli._select_examples([ex.label for _, ex in pairs], limit)
            assert [pairs[i] for i in chosen] == _round_robin(pairs, limit), (trial, limit)


class TestSynthetic:
    def test_deterministic(self, tmp_path):
        run("synthetic", "--out", tmp_path / "a.csv", "--n", 50, "--seed", 3)
        run("synthetic", "--out", tmp_path / "b.csv", "--n", 50, "--seed", 3)
        run("synthetic", "--out", tmp_path / "c.csv", "--n", 50, "--seed", 4)
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a != (tmp_path / "c.csv").read_bytes()

    def test_missing_output_directory(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        r = run("synthetic", "--out", out, "--n", 30)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [f"error: cannot write {out}: No such file or directory"]
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", -1, "seed must be >= 0, got -1"), ("--n", -5, "n must be >= 1, got -5"),
         ("--n", 0, "n must be >= 1, got 0")],
        ids=["seed-negative", "n-negative", "n-zero"],
    )
    def test_bad_value_writes_nothing(self, tmp_path, flag, value, message):
        out = tmp_path / "x.csv"
        r = run("synthetic", "--out", out, flag, value)
        assert r.exit_code == EXIT_CONFIG
        assert r.output.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_has_all_labels(self, tmp_path):
        run("synthetic", "--out", tmp_path / "a.csv", "--n", 30)
        text = (tmp_path / "a.csv").read_text(encoding="utf-8")
        assert "BENIGN" in text and "DDoS" in text and "Web Attack" in text


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_builds(tmp_path):
    # README's config.json block is the documented starting point: a removed
    # or renamed key must not leave it stale
    block = re.search(r"cat > config\.json <<'EOF'\n(.*?\n)EOF\n",
                      README.read_text(encoding="utf-8"), re.S)
    assert block, "README has no config.json block"
    path = tmp_path / "config.json"
    path.write_text(block.group(1), encoding="utf-8")
    cfg = cli.RunConfig.from_file(str(path))
    assert cfg.encoder_cfg.vocab_size == tokenizer.build_vocab(cfg.feature_schema()).size
    assert (cfg.encoder_cfg.d_model, cfg.encoder_cfg.max_seq_len) == (64, 64)
    assert cfg.train_cfg.epochs == 10
    assert cfg.ig_cfg.steps == 64
    for variant in cli.VARIANTS:
        built = cli.RunConfig.from_file(str(path), variant=variant).encoder_cfg
        assert built.attention_variant == variant


def test_allocator_setting_skips_a_libc_without_mallopt(monkeypatch, tmp_path):
    # every command runs through `main`, which must not fail on a platform
    # whose C library has no mallopt (not glibc)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    r = run("synthetic", "--out", tmp_path / "flows.csv", "--n", 3)
    assert r.exit_code == 0, r.output
    assert (tmp_path / "flows.csv").exists()

    # with glibc's, every thread shares one arena (M_ARENA_MAX = -8)
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    r = run("synthetic", "--out", tmp_path / "more.csv", "--n", 3)
    assert r.exit_code == 0, r.output
    assert calls == [(-3, 8 << 20), (-1, 32 << 20), (-8, 1)]


def test_blas_setting_caps_the_bundled_openblas(monkeypatch, tmp_path):
    # every command caps numpy's OpenBLAS at one thread, so that its threads
    # do not compete with the chunk workers; a library without the setter
    # (another BLAS) is left as it is
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=lambda p, v: 1))
    r = run("synthetic", "--out", tmp_path / "flows.csv", "--n", 3)
    assert r.exit_code == 0, r.output

    opened, threads = [], []

    def set_threads(n):
        threads.append(n)

    def library(name):
        opened.append(name)
        return SimpleNamespace(mallopt=lambda p, v: 1, scipy_openblas_set_num_threads64_=set_threads)

    monkeypatch.setattr(cli.ctypes, "CDLL", library)
    r = run("synthetic", "--out", tmp_path / "more.csv", "--n", 3)
    assert r.exit_code == 0, r.output
    assert threads == [1]
    assert "_multiarray_umath" in opened[-1]


def test_runs_without_scipy():
    # with every scipy import refused, the CLI loads and the encoder runs a
    # forward and backward pass: numpy's OpenBLAS is the one BLAS flowig loads
    code = ("import importlib.abc, sys\n"
            "class NoScipy(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.startswith('scipy'):\n"
            "            raise ModuleNotFoundError(f'no module named {name!r}', name=name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import numpy as np\n"
            "from flowig import cli, encoder\n"
            "from conftest import small_config\n"
            "try:\n"
            "    cli.main(['--help'])\n"
            "except SystemExit as e:\n"
            "    assert e.code == 0, e.code\n"
            "cfg = small_config(20)\n"
            "ids = np.random.default_rng(0).integers(1, 20, size=(2, 6))\n"
            "params = encoder.init_params(cfg)\n"
            "logits, trace = encoder.forward_batch(params, cfg, ids, np.ones(ids.shape))\n"
            "encoder.backward(params, trace, np.ones(logits.shape))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    assert "Explainable flow-level intrusion detection pipeline." in r.stdout
    assert r.stdout.splitlines()[-1] == "[]"


def test_numeric_error_in_a_chunk_worker(monkeypatch, tmp_path):
    # a 2-layer encoder trains its batches on the pool; a chunk's NumericError
    # ends the stage with exit 4 and one line, after the batch's other chunks
    # have stopped
    cfg = write_config(tmp_path, encoder={**SMALL_CONFIG["encoder"], "layers": 2})
    assert run("synthetic", "--out", tmp_path / "flows.csv", "--n", 90).exit_code == 0
    assert run("prepare", "--config", cfg).exit_code == 0
    monkeypatch.setattr(encoder, "_WORKERS", 2)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 4 * 64 * 16)  # 4 rows per call
    lock = threading.Lock()
    calls, running = [], [0]
    forward = encoder.forward_from_embeddings

    def failing(*args, **kwargs):
        with lock:
            calls.append(threading.current_thread())
            n = len(calls)
            running[0] += 1
        try:
            if n == 2:
                raise NumericError("non-finite values produced in encoder layer 1")
            time.sleep(0.05)
            return forward(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(encoder, "forward_from_embeddings", failing)
    r = run("train", "--config", cfg)
    assert r.exit_code == EXIT_NUMERIC
    assert r.output.splitlines() == ["error: non-finite values produced in encoder layer 1"]
    assert running[0] == 0
    assert threading.main_thread() not in calls
    n = len(calls)
    time.sleep(0.1)
    assert len(calls) == n  # no chunk was left queued
    assert not (tmp_path / "work" / ".lock").exists()
    assert not (tmp_path / "work" / "model_absolute.ckpt").exists()


def test_non_finite_ig_gradient_through_explain(monkeypatch, tmp_path):
    # a 2-layer encoder explains on the pool, 3 path rows a call; a NaN in
    # row 1 of each path job's gradient ends explain with exit 4 and one
    # line naming step 1 of the first example, and writes no attribution
    cfg = write_config(tmp_path, encoder={**SMALL_CONFIG["encoder"], "layers": 2},
                       train={"epochs": 1, "batch_size": 16})
    assert run("synthetic", "--out", tmp_path / "flows.csv", "--n", 60).exit_code == 0
    for stage in ("prepare", "train"):
        assert run(stage, "--config", cfg).exit_code == 0
    monkeypatch.setattr(encoder, "_WORKERS", 2)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 3 * 64 * 16)
    backward = encoder.backward

    def injecting(*args, **kwargs):
        grads, demb = backward(*args, **kwargs)
        if len(demb) > 1:
            demb[1, 0, 0] = np.nan
        return grads, demb

    monkeypatch.setattr(encoder, "backward", injecting)
    r = run("explain", "--config", cfg)
    assert r.exit_code == EXIT_NUMERIC
    assert r.output.splitlines() == ["error: non-finite gradient at integration step 1"]
    work = tmp_path / "work"
    assert not (work / ".lock").exists()
    assert not list(work.glob("attributions_*")) and not list(work.glob("heatmap_*"))
