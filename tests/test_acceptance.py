"""Acceptance suite: one criterion per test, one summary line per criterion.

Criteria 1-3 and 5-6 are self-contained numerics; 7 runs the full CLI
pipeline on the bundled synthetic fixture for both attention variants; 2
reuses that trained model; 4 needs the real flow CSV (skipped with notice
when CICIDS2017_CSV is unset); 8 reruns the pipeline and byte-compares.
"""
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from flowig import attribution, checkpoint, encoder, flow_data, textualize, tokenizer
from flowig.attribution import IGConfig, integrated_gradients
from flowig.cli import main
from flowig.encoder import ABSOLUTE, DISENTANGLED, init_params
from flowig.evaluation import metrics
from flowig.flow_data import FeatureSchema
from flowig.synthetic import PLANTED_FEATURE, SYNTHETIC_SCHEMA
from flowig.training import class_weights

from conftest import ACCEPTANCE_LINES, finite_diff_check, randomize_params, small_config

ACCEPT_CONFIG = {
    "schema": "synthetic",
    "seed": 0,
    "encoder": {
        "layers": 2,
        "heads": 4,
        "d_model": 64,
        "d_ff": 128,
        "max_seq_len": 64,
        "dropout_rate": 0.1,
    },
    "train": {"epochs": 10, "batch_size": 32, "learning_rate": 1e-3, "patience": 3},
    "ig": {"steps": 128},
    "ig_max_examples": 60,
    "top_k": 8,
}

VARIANTS = (ABSOLUTE, DISENTANGLED)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def run_cli(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, f"{args}: {result.output}"
    return result


def run_pipeline(tmp: Path) -> float:
    """Synthetic fixture -> prepare -> train/evaluate/explain both variants."""
    cfg_path = tmp / "config.json"
    cfg_path.write_text(
        json.dumps(dict(ACCEPT_CONFIG, work_dir=str(tmp / "work"),
                        input_csv=str(tmp / "flows.csv"))),
        encoding="utf-8",
    )
    t0 = time.monotonic()
    run_cli("synthetic", "--out", tmp / "flows.csv", "--n", 3000, "--seed", 0)
    run_cli("prepare", "--config", cfg_path)
    for variant in VARIANTS:
        run_cli("train", "--config", cfg_path, "--variant", variant)
        run_cli("evaluate", "--config", cfg_path, "--variant", variant)
        run_cli("explain", "--config", cfg_path, "--variant", variant)
    run_cli("report", "--config", cfg_path)
    return time.monotonic() - t0


@pytest.fixture(scope="session")
def pipeline_a(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept_a")
    elapsed = run_pipeline(tmp)
    return tmp / "work", elapsed


def read_macro_f1(work: Path, variant: str) -> float:
    for line in (work / f"metrics_{variant}.txt").read_text().splitlines():
        if line.startswith("macro_f1"):
            return float(line.split("\t")[1])
    raise AssertionError(f"no macro_f1 in metrics_{variant}.txt")


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    pairs = 0
    for variant in VARIANTS:
        for trial in range(10):
            layers = int(rng.integers(1, 3))
            d_model = int(rng.choice([8, 16]))
            cfg = small_config(
                24, variant, layers=layers, d_model=d_model,
                d_ff=d_model + 8, heads=2,
            )
            params = randomize_params(init_params(cfg), rng)
            emb = rng.normal(size=(1, 16, d_model))
            mask = np.ones((1, 16))
            mask[:, int(rng.integers(10, 17)):] = 0
            worst = max(worst, finite_diff_check(params, cfg, emb, mask, rng,
                                                 coords_per_tensor=4))
            pairs += 1
    elapsed = time.monotonic() - t0
    check(
        1, "gradient correctness",
        pairs >= 20 and worst < 1e-4 and elapsed < 120,
        f"{pairs} pairs, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_ig_completeness(pipeline_a):
    work, _ = pipeline_a
    t0 = time.monotonic()
    enc_cfg, params = checkpoint.load_checkpoint(work / "model_absolute.ckpt")
    test_ds, _ = flow_data.parse_flow_csv(work / "split_test.csv", SYNTHETIC_SCHEMA)
    vocab = tokenizer.build_vocab(SYNTHETIC_SCHEMA)
    examples = []
    for rec, label in test_ds.records[::3][:200]:
        flow = textualize.serialize(rec, SYNTHETIC_SCHEMA)
        examples.append(tokenizer.tokenize(flow, vocab, enc_cfg.max_seq_len, label))
    assert len(examples) == 200

    medians = {}
    rel_gaps_128 = []
    for steps in (32, 64, 128):
        gaps = []
        for ex in examples:
            res = integrated_gradients(
                params, enc_cfg, ex, ex.label, IGConfig(steps=steps),
                pad_id=vocab.pad_id,
            )
            gaps.append(abs(res.completeness_gap))
            if steps == 128:
                rel_gaps_128.append(res.relative_gap)
        medians[steps] = float(np.median(gaps))
    frac_ok = float(np.mean(np.array(rel_gaps_128) < 0.01))
    monotone = medians[32] >= medians[64] >= medians[128]
    elapsed = time.monotonic() - t0
    check(
        2, "IG completeness",
        frac_ok >= 0.99 and monotone and elapsed < 300,
        f"frac<1%: {frac_ok:.3f}, medians {medians[32]:.2e}/"
        f"{medians[64]:.2e}/{medians[128]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_ig_linear_exactness(vocab, schema):
    t0 = time.monotonic()
    cfg = small_config(
        vocab.size, max_seq_len=64, d_model=16, d_ff=24,
        layers=0, use_final_norm=False,
    )
    rng = np.random.default_rng(7)
    params = randomize_params(init_params(cfg), rng)
    from conftest import make_example

    ex = make_example(vocab, schema, [float(100 + 13 * i) for i in range(schema.d)])
    emb = encoder.embed(params, cfg, ex)
    base = attribution.baseline_embeddings(params, cfg)
    worst = 0.0
    for steps in (1, 4, 64):
        for c in range(3):
            res = integrated_gradients(
                params, cfg, ex, c, IGConfig(steps=steps),
                pad_id=vocab.pad_id,
            )
            # linear model: only the CLS row reaches the logit, with weight w_c
            expected = np.zeros(len(ex.ids))
            expected[0] = (emb[0] - base[0]) @ params["head.w"][:, c]
            worst = max(worst, float(np.abs(res.token_attr - expected).max()))
            worst = max(worst, abs(res.completeness_gap))
    elapsed = time.monotonic() - t0
    check(
        3, "IG linear exactness",
        worst <= 1e-10 and elapsed < 60,
        f"max abs dev {worst:.2e}, {elapsed:.1f}s",
    )


def _prepare_real_corpus(csv_path: Path):
    with open(csv_path, "rb") as f:
        header = f.readline().decode("utf-8-sig").strip().split(",")
    names = tuple(h.strip() for h in header if h.strip() != "Label")
    schema = FeatureSchema(names)
    ds, _ = flow_data.parse_flow_csv(csv_path, schema)
    deduped, report, hashes = flow_data.deduplicate(ds)
    parts = flow_data.stratified_split(deduped, seed=0)
    split_hashes = {name: [hashes[i] for i in part] for name, part in zip(flow_data.SPLITS, parts)}
    return report, deduped.class_counts(), flow_data.audit_overlap(split_hashes), split_hashes


def test_criterion_4_helper_matches_prepare(tmp_path):
    # criterion 4 skips without the real capture, so its helper runs here on
    # a small synthetic one with three repeated rows, against `flowig prepare`
    flows = tmp_path / "flows.csv"
    run_cli("synthetic", "--out", flows, "--n", 300, "--seed", 3)
    lines = flows.read_bytes().splitlines(keepends=True)
    flows.write_bytes(b"".join(lines + lines[1:4]))
    report, counts, overlap, split_hashes = _prepare_real_corpus(flows)
    assert (report.before, report.after) == (303, 300)
    assert set(overlap.values()) == {0}

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"work_dir": str(tmp_path / "work"),
                                    "input_csv": str(flows)}), encoding="utf-8")
    out = run_cli("prepare", "--config", cfg_path).output.splitlines()
    assert out[1] == "class counts: " + ", ".join(
        f"{name}={n}" for name, n in zip(flow_data.CLASS_NAMES, counts))
    manifest = [line.split("\t") for line in
                (tmp_path / "work" / "manifest.tsv").read_text().splitlines()]
    assert split_hashes == {name: [h for h, split, _ in manifest if split == name]
                            for name in flow_data.SPLITS}


def test_criterion_4_protocol_numbers():
    csv_path = os.environ.get("CICIDS2017_CSV")
    if not csv_path:
        ACCEPTANCE_LINES.append(
            "criterion 4 (protocol numbers): SKIPPED  "
            "[set CICIDS2017_CSV to the merged flow CSV to enable]"
        )
        pytest.skip("CICIDS2017_CSV not set; protocol numbers not verifiable")
    t0 = time.monotonic()
    report, got, overlap, _ = _prepare_real_corpus(Path(csv_path))
    elapsed = time.monotonic() - t0
    check(
        4, "protocol numbers",
        report.before == 1188333
        and report.after == 366870
        and got == (243211, 121606, 2053)
        and set(overlap.values()) == {0}
        and elapsed < 600,
        f"dedup {report.before} -> {report.after}, counts {got}, {elapsed:.1f}s",
    )


def test_criterion_5_class_weight_formula():
    unclipped = class_weights((243211, 121606, 2053), clip=(0.0, math.inf))
    ratio = unclipped[2] / unclipped[0]
    expected = math.sqrt(243211 / 2053)
    ok = abs(ratio - expected) < 1e-9
    check(5, "class-weight formula", ok, f"ratio {ratio:.12f} vs {expected:.12f}")


def test_criterion_6_metrics_oracle():
    def brute(arr):
        p = np.zeros(3)
        r = np.zeros(3)
        f = np.zeros(3)
        for c in range(3):
            tp = arr[c, c]
            col, row = arr[:, c].sum(), arr[c, :].sum()
            p[c] = tp / col if col else 0.0
            r[c] = tp / row if row else 0.0
            f[c] = 2 * p[c] * r[c] / (p[c] + r[c]) if p[c] + r[c] else 0.0
        support = arr.sum(axis=1)
        return (
            p, r, f,
            arr.trace() / arr.sum(),
            f.mean(),
            (f * support).sum() / support.sum() if support.sum() else 0.0,
        )

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        arr = rng.integers(0, 1000, size=(3, 3))
        if arr.sum() == 0:
            arr[0, 0] = 1
        m = metrics(tuple(tuple(int(v) for v in row) for row in arr))
        bp, br, bf, bacc, bmac, bwf = brute(arr.astype(float))
        worst = max(
            worst,
            float(np.abs(np.array(m.precision) - bp).max()),
            float(np.abs(np.array(m.recall) - br).max()),
            float(np.abs(np.array(m.f1) - bf).max()),
            abs(m.accuracy - bacc),
            abs(m.macro_f1 - bmac),
            abs(m.weighted_f1 - bwf),
        )

    # reference per-class F1 row under the derived test-split supports
    f1 = np.array([0.9995, 0.9994, 0.9717])
    support = np.array([48642, 24321, 411])
    macro = f1.mean()
    weighted = (f1 * support).sum() / support.sum()
    row_ok = abs(macro - 0.9902) <= 0.0001 and abs(weighted - 0.9993) <= 0.0001
    check(
        6, "metrics oracle",
        worst < 1e-12 and row_ok,
        f"max dev {worst:.2e}, macro {macro:.5f}, weighted {weighted:.5f}",
    )


def test_criterion_7_end_to_end_synthetic(pipeline_a):
    work, elapsed = pipeline_a
    details = []
    ok = elapsed < 600
    details.append(f"pipeline {elapsed:.1f}s")
    for variant in VARIANTS:
        macro = read_macro_f1(work, variant)
        epochs = len(
            (work / f"train_log_{variant}.jsonl").read_text().strip().splitlines()
        )
        ok = ok and macro >= 0.95 and epochs <= 10
        details.append(f"{variant}: macro_f1 {macro:.4f} in {epochs} epochs")

        lines = (work / f"heatmap_{variant}.csv").read_text().strip().split("\r\n")
        columns = lines[0].split(",")[1:]
        for row in lines[1:]:
            cells = row.split(",")
            label = cells[0]
            values = [float(v) for v in cells[1:]]
            order = sorted(range(len(values)), key=lambda i: -values[i])
            top3 = {columns[i] for i in order[:3]}
            planted = PLANTED_FEATURE[flow_data.CLASS_NAMES.index(label)]
            ok = ok and planted in top3
            if planted not in top3:
                details.append(f"{variant}/{label}: {planted} not in top3 {top3}")
    check(7, "end-to-end synthetic", ok, "; ".join(details))


def test_criterion_8_determinism(pipeline_a, tmp_path_factory):
    work_a, _ = pipeline_a
    tmp_b = tmp_path_factory.mktemp("accept_b")
    run_pipeline(tmp_b)
    work_b = tmp_b / "work"
    compared = []
    ok = True
    names = ["manifest.tsv", "split_train.csv", "split_validation.csv",
             "split_test.csv"]
    for v in VARIANTS:
        names += [f"model_{v}.ckpt", f"metrics_{v}.txt", f"heatmap_{v}.csv",
                  f"train_log_{v}.jsonl", f"attributions_{v}.jsonl"]
    for name in names:
        same = (work_a / name).read_bytes() == (work_b / name).read_bytes()
        ok = ok and same
        if not same:
            compared.append(name)
    detail = f"{len(names)} artifacts byte-compared"
    if compared:
        detail += "; mismatch: " + ", ".join(compared)
    if os.environ.get("CICIDS2017_CSV"):
        detail += "; includes synthetic path only (real-corpus rerun covered by 4)"
    check(8, "determinism", ok, detail)
