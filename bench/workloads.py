"""The three benchmark workloads, each driving flowig's CLI stages in-process.

A workload has a set-up (fixture generation, prepare, checkpoint training)
and a pass: the CLI stages that are timed, run back to back by one client
(a closed loop). Every stage is checked after it runs; a stage that exits
non-zero or fails its check counts as a failed operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import cicids
from flowig import cli, synthetic

ACCEPTANCE_ENCODER = {
    "layers": 2, "heads": 4, "d_model": 64, "d_ff": 128,
    "max_seq_len": 64, "dropout_rate": 0.1,
}


@dataclass
class StageRun:
    command: str
    seconds: float
    exit_code: int
    output: str
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def run_stage(config: Path, args: list[str], tracer=None) -> StageRun:
    """One `flowig <args> --config <config>` call, timed, output captured."""
    buf = io.StringIO()
    span = tracer.span(f"cli.{args[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), span:
        try:
            cli.main([*args, "--config", str(config)], standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crashing stage is a failed operation, not a crashed benchmark
            traceback.print_exc()
            code = 1
    return StageRun(args[0], time.perf_counter() - t0, code, buf.getvalue())


def _write_config(work: Path, **fields) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps({"work_dir": str(work), **fields}, sort_keys=True))
    return path


def _synthetic_csv(path: Path, n: int, seed: int) -> None:
    ds = synthetic.generate_synthetic_dataset(n=n, seed=seed)
    path.write_bytes(synthetic.dataset_to_csv_bytes(ds))


def _setup_stage(config: Path, args: list[str]) -> None:
    r = run_stage(config, args)
    if r.exit_code != 0:
        raise RuntimeError(f"set-up stage {args} exited {r.exit_code}: {r.output.strip()}")


def _read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _csv_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


def _macro_f1(metrics_file: Path) -> float:
    for line in metrics_file.read_text(encoding="utf-8").splitlines():
        if line.startswith("macro_f1\t"):
            return float(line.split("\t")[1])
    raise ValueError(f"no macro_f1 in {metrics_file}")


class Workload:
    name: str
    why: str
    stages: tuple[tuple[str, ...], ...]
    rate_name: str          # the key of `rates` reported as items_per_s

    def setup(self, work: Path, seed: int) -> Path:
        """Build inputs and earlier-stage artifacts in `work`; return the config."""
        raise NotImplementedError

    def check(self, work: Path, stage: StageRun) -> list[str]:
        return []

    def rates(self, work: Path, runs: list[StageRun]) -> dict[str, float]:
        """Items per second through the stages of one pass, by name."""
        raise NotImplementedError

    def quality(self, work: Path) -> dict[str, float]:
        return {}

    def describe_inputs(self) -> str:
        return ""


class TrainDisentangled(Workload):
    name = "train-disentangled"
    why = ("encoder forward and backward with parameter gradients, the c2p/p2c "
           "gather and Adam; no IG")
    stages = (("train", "--variant", "disentangled"),)
    rate_name = "train_examples_per_s"

    def __init__(self, rows: int = 300, epochs: int = 1):
        self.rows, self.epochs = rows, epochs

    def setup(self, work, seed):
        _synthetic_csv(work / "flows.csv", self.rows, seed)
        config = _write_config(
            work, input_csv=str(work / "flows.csv"), schema="synthetic", seed=seed,
            encoder=ACCEPTANCE_ENCODER,
            # patience >= epochs: early stopping never shortens a pass
            train={"epochs": self.epochs, "batch_size": 32, "patience": self.epochs},
        )
        _setup_stage(config, ["prepare"])
        return config

    def _log(self, work):
        lines = (work / "train_log_disentangled.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    def check(self, work, stage):
        log = self._log(work)
        problems = []
        if len(log) != self.epochs:
            problems.append(f"{len(log)} epochs logged, expected {self.epochs}")
        problems += [f"epoch {r['epoch']} loss {r['train_loss']}" for r in log
                     if not math.isfinite(r["train_loss"])]
        return problems

    def rates(self, work, runs):
        return {self.rate_name: _csv_rows(work / "split_train.csv") * self.epochs / runs[0].seconds}

    def quality(self, work):
        return {"val_macro_f1": self._log(work)[-1]["val_macro_f1"]}


class ExplainAbsolute(Workload):
    name = "explain-absolute"
    why = ("integrated gradients at 128 steps: batched forwards and backwards at "
           "B=128 plus two single-row forwards per example; no Adam, no dropout")
    stages = (("explain", "--variant", "absolute"),)
    rate_name = "explain_examples_per_s"

    def __init__(self, rows: int = 300, epochs: int = 2, examples: int = 3, steps: int = 128):
        self.rows, self.epochs, self.examples, self.steps = rows, epochs, examples, steps

    def setup(self, work, seed):
        _synthetic_csv(work / "flows.csv", self.rows, seed)
        config = _write_config(
            work, input_csv=str(work / "flows.csv"), schema="synthetic", seed=seed,
            encoder=ACCEPTANCE_ENCODER,
            train={"epochs": self.epochs, "batch_size": 32, "patience": self.epochs,
                   "learning_rate": 3e-3},
            ig={"steps": self.steps}, ig_max_examples=self.examples, top_k=8,
        )
        _setup_stage(config, ["prepare"])
        _setup_stage(config, ["train", "--variant", "absolute"])
        return config

    def _gaps(self, work):
        lines = (work / "attributions_absolute.jsonl").read_text().splitlines()
        return [json.loads(line)["relative_gap"] for line in lines]

    def check(self, work, stage):
        problems = []
        n = len(self._gaps(work))
        if n != self.examples:
            problems.append(f"{n} attribution lines, expected {self.examples}")
        exceeding = float(_read_kv(work / "completeness_absolute.txt")["fraction_exceeding_tolerance"])
        if exceeding > 0.01:
            problems.append(f"{exceeding:.2%} of examples exceed the completeness tolerance")
        return problems

    def rates(self, work, runs):
        return {self.rate_name: self.examples / runs[0].seconds}

    def quality(self, work):
        return {"ig_rel_gap_p50": statistics.median(self._gaps(work))}


class IngestScore(Workload):
    name = "ingest-score"
    why = ("parse, dedup, split, audit, serialize and tokenize a CICIDS-shaped "
           "capture, then score it forward-only at B=256")
    stages = (("prepare",), ("evaluate", "--variant", "absolute"))
    rate_name = "score_flows_per_s"
    # a small encoder and a 10% test split keep the data path the larger
    # share of the pass
    ENCODER = {"layers": 1, "heads": 1, "d_model": 16, "d_ff": 32, "dropout_rate": 0.1}
    RATIOS = (0.8, 0.1, 0.1)

    def __init__(self, plan: cicids.Plan = cicids.Plan(),
                 train_plan: cicids.Plan = cicids.Plan(600, 0, 0, 0), epochs: int = 3):
        self.plan, self.train_plan, self.epochs = plan, train_plan, epochs
        self.generated: cicids.Generated | None = None

    def _config(self, work, seed):
        return _write_config(
            work, input_csv=str(work / "flows.csv"), schema=list(cicids.SCHEMA), seed=seed,
            ratios=self.RATIOS, encoder={**self.ENCODER, "max_seq_len": cicids.max_seq_len()},
            train={"epochs": self.epochs, "batch_size": 32, "patience": self.epochs,
                   "learning_rate": 1e-2},
        )

    def setup(self, work, seed):
        self.generated = cicids.generate(seed, self.plan)
        (work / "flows.csv").write_bytes(self.generated.csv_bytes)
        config = self._config(work, seed)
        # the checkpoint is trained briefly on a separate, smaller capture
        ckpt_work = work / "checkpoint-training"
        ckpt_work.mkdir()
        (ckpt_work / "flows.csv").write_bytes(cicids.generate(seed + 1, self.train_plan).csv_bytes)
        ckpt_config = self._config(ckpt_work, seed)
        _setup_stage(ckpt_config, ["prepare"])
        _setup_stage(ckpt_config, ["train", "--variant", "absolute"])
        shutil.copyfile(ckpt_work / "model_absolute.ckpt", work / "model_absolute.ckpt")
        shutil.rmtree(ckpt_work)
        return config

    def check(self, work, stage):
        plan = self.plan
        problems = []
        if stage.command == "prepare":
            report = _read_kv(work / "dedup_report.txt")
            planted = plan.exact_duplicates + plan.conflicting_duplicates
            if int(report["removed"]) != planted:
                problems.append(f"dedup removed {report['removed']}, planted {planted}")
            if int(report["conflicting-label duplicates"]) != plan.conflicting_duplicates:
                problems.append(f"{report['conflicting-label duplicates']} conflicts reported,"
                                f" planted {plan.conflicting_duplicates}")
            nonfinite = report["rows dropped in parsing"].split("non-finite ")[1].split(",")[0]
            if int(nonfinite) != plan.nonfinite_rows:
                problems.append(f"{nonfinite} non-finite rows dropped, planted {plan.nonfinite_rows}")
            for line in (work / "overlap_audit.txt").read_text().splitlines():
                if int(line.split("\t")[1]) != 0:
                    problems.append(f"split overlap: {line}")
        else:
            text = (work / "metrics_absolute.txt").read_text().split("confusion_matrix\n")[1]
            total = sum(int(v) for line in text.splitlines() for v in line.split("\t"))
            expected = _csv_rows(work / "split_test.csv")
            if total != expected:
                problems.append(f"confusion total {total}, test split {expected}")
        return problems

    def rates(self, work, runs):
        return {
            self.rate_name: _csv_rows(work / "split_test.csv") / runs[1].seconds,
            "prepare_rows_per_s": self.generated.rows / runs[0].seconds,
        }

    def quality(self, work):
        return {"test_macro_f1": _macro_f1(work / "metrics_absolute.txt")}

    def describe_inputs(self):
        return "generator: " + self.generated.describe()


WORKLOADS = {w.name: w for w in (TrainDisentangled, ExplainAbsolute, IngestScore)}
