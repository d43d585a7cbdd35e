#!/usr/bin/env python3
"""End-to-end variant comparison on the synthetic fixture.

Generates the fixture, runs prepare/train/evaluate/explain for both
attention variants and then report into one work dir, and prints each
stage's output (the metrics tables among it) and the path of `report.md`.
"""
import argparse
import json
import sys
from pathlib import Path

from flowig.cli import main as flowig


def cli(*args):
    flowig.main([str(a) for a in args], standalone_mode=False)


def run(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    work = out / "work"
    flows = out / "flows.csv"
    config = out / "config.json"
    config.write_text(json.dumps({
        "work_dir": str(work),
        "input_csv": str(flows),
        "schema": "synthetic",
        "seed": args.seed,
        "encoder": {
            "layers": 2, "heads": 4, "d_model": 64, "d_ff": 128,
            "max_seq_len": 64, "dropout_rate": 0.1,
        },
        "train": {"epochs": args.epochs, "batch_size": 32,
                  "learning_rate": 1e-3, "patience": 3},
        "ig": {"steps": args.ig_steps},
        "ig_max_examples": 60,
        "top_k": 8,
    }, indent=2), encoding="utf-8")

    cli("synthetic", "--out", flows, "--n", args.n, "--seed", args.seed)
    cli("prepare", "--config", config)
    for variant in ("absolute", "disentangled"):
        print(f"\n=== {variant} ===")
        cli("train", "--config", config, "--variant", variant)
        cli("evaluate", "--config", config, "--variant", variant)
        cli("explain", "--config", config, "--variant", variant)
    cli("report", "--config", config)
    print(f"\nreport: {work / 'report.md'}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/synthetic")
    ap.add_argument("--n", type=int, default=3000, help="synthetic flow count")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--ig-steps", type=int, default=64)
    return ap.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
