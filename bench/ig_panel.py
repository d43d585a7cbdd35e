#!/usr/bin/env python3
"""IG-error panel: completeness gap against IG step count.

    python3 bench/ig_panel.py --seed <n> [--examples 12]

Sets up the explain-absolute workload (fixture, prepare, checkpoint) and runs
integrated gradients on a class-balanced sample of its test split at each
step count, reporting the median, p95 and max of the absolute and relative
completeness gaps. The schema comes from the workload's own config. This is
evidence for quadrature work (Gauss-Legendre, adaptive steps); it is
informational and not part of the repeated benchmark runs.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

STEPS = (8, 16, 32, 64, 128)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--examples", type=int, default=12)
    args = ap.parse_args(argv)
    threads = run.bootstrap()
    if threads is None:
        return 2

    import numpy as np

    import workloads
    from flowig import checkpoint, cli, flow_data, textualize, tokenizer
    from flowig.attribution import IGConfig, integrated_gradients

    workload = workloads.ExplainAbsolute()
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"ig-panel-{args.seed}-", dir=run.WORK_ROOT))
    try:
        cfg = cli.RunConfig.from_file(workload.setup(work, args.seed))
        schema, policy = cfg.feature_schema(), cfg.format_policy()
        enc_cfg, params = checkpoint.load_checkpoint(work / "model_absolute.ckpt")
        vocab = tokenizer.build_vocab(schema)
        test, _ = flow_data.parse_flow_csv(work / "split_test.csv", schema, cfg.label_column)
        per_class = -(-args.examples // 3)
        taken: dict = {}
        examples = []
        for rec, label in test.records:
            if taken.get(label, 0) < per_class and len(examples) < args.examples:
                taken[label] = taken.get(label, 0) + 1
                flow = textualize.serialize(rec, schema, policy)
                examples.append(tokenizer.tokenize(flow, vocab, enc_cfg.max_seq_len, label))

        print(f"IG-error panel: explain-absolute seed={args.seed}, {len(examples)} examples, "
              f"{len(schema.names)}-feature schema")
        print("env: " + json.dumps(run.env_record(threads), sort_keys=True))
        print("steps  gap_p50      gap_p95      gap_max      rel_p50      rel_p95      rel_max")
        panel = {}
        for steps in STEPS:
            results = [integrated_gradients(params, enc_cfg, ex, ex.label, IGConfig(steps=steps),
                                            pad_id=vocab.pad_id) for ex in examples]
            gaps = np.abs([r.completeness_gap for r in results])
            rels = np.array([r.relative_gap for r in results])
            row = {
                "gap_p50": float(np.median(gaps)), "gap_p95": float(np.percentile(gaps, 95)),
                "gap_max": float(gaps.max()), "rel_p50": float(np.median(rels)),
                "rel_p95": float(np.percentile(rels, 95)), "rel_max": float(rels.max()),
            }
            panel[steps] = row
            print(f"{steps:<6} " + " ".join(f"{v:<12.4e}" for v in row.values()))
        print(json.dumps({"examples": len(examples), "panel": panel}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
