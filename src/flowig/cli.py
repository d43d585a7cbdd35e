"""Operator-facing pipeline: prepare -> train -> evaluate -> explain -> report.

Each command writes its artifacts to the work dir and never mutates a
previous stage's outputs, so the dedup counts and overlap audits can be
inspected independently. All outputs are byte-deterministic given the
same inputs and seeds.
"""
from __future__ import annotations

import ctypes
import dataclasses
import fcntl
import itertools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import attribution, checkpoint, encoder, evaluation, flow_data, synthetic, textualize, tokenizer, training
from .checkpoint import write_artifact
from .errors import AuditError, ConfigError, DataError, FlowigError, check_fields
from .flow_data import CLASS_NAMES, FeatureSchema, LabeledDataset

VARIANTS = (encoder.ABSOLUTE, encoder.DISENTANGLED)
HEATMAP_FORMATS = ("csv", "svg")


def _check_keys(where: str, data, kind, set_by_run=()) -> None:
    """Refuse a non-object, and keys that `kind` lacks or that the run sets."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(data) - ({f.name for f in dataclasses.fields(kind)} - set(set_by_run))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


@dataclass
class RunConfig:
    """The run's settings, checked whole when they are loaded.

    Construction refuses every out-of-range value and builds, once, the
    feature schema, vocabulary and encoder, train and IG configs that the
    stages read, so a bad value fails every stage before it takes the
    work-dir lock.
    """
    work_dir: str = "work"
    input_csv: str | None = None
    schema: object = "synthetic"          # "synthetic" or explicit feature-name list
    label_column: str = "Label"
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0
    variant: str = encoder.ABSOLUTE
    encoder: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    ig: dict = field(default_factory=dict)
    ig_max_examples: int | None = None
    top_k: int = 15

    def __post_init__(self):
        # under one example per class, ig_max_examples's round-robin pick leaves a class out
        check_fields(self, "", {"seed": 0, "top_k": 1, "ig_max_examples": len(CLASS_NAMES)})
        self.ratios = flow_data.check_split_ratios(self.ratios)
        if self.schema == "synthetic":
            self._schema = synthetic.SYNTHETIC_SCHEMA
        elif isinstance(self.schema, (list, tuple)) and all(isinstance(n, str) for n in self.schema):
            self._schema = FeatureSchema(names=tuple(self.schema))
        else:
            raise ConfigError('schema must be "synthetic" or an explicit list of feature names')
        self.vocab = tokenizer.build_vocab(self._schema)
        self.encoder_cfg = encoder.EncoderConfig(
            vocab_size=self.vocab.size, attention_variant=self.variant, seed=self.seed,
            **self.encoder,
        )
        self.train_cfg = training.TrainConfig(seed=self.seed, **self.train)
        self.ig_cfg = attribution.IGConfig(**self.ig)

    @classmethod
    def from_file(cls, path: str | None, steps: int | None = None, **overrides) -> "RunConfig":
        """The config at `path` (the defaults if None) with every override
        that is not None applied over it; `steps` overrides `ig.steps`."""
        data = {}
        if path is not None:
            try:
                data = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:  # ValueError: not UTF-8, or not JSON
                raise ConfigError(f"cannot read config {path}: {e}")
            _check_keys("config", data, cls)
            # the run itself sets the vocabulary size, the variant and the seed
            _check_keys("encoder config", data.get("encoder", {}), encoder.EncoderConfig,
                        ("vocab_size", "attention_variant", "seed"))
            _check_keys("train config", data.get("train", {}), training.TrainConfig, ("seed",))
            _check_keys("ig config", data.get("ig", {}), attribution.IGConfig)
        data.update((key, value) for key, value in overrides.items() if value is not None)
        if steps is not None:
            data["ig"] = dict(data.get("ig", {}), steps=steps)
        return cls(**data)

    def feature_schema(self) -> FeatureSchema:
        return self._schema

    def format_policy(self) -> textualize.ValueFormatPolicy:
        return textualize.ValueFormatPolicy()


@contextmanager
def _work_dir_lock(work_dir: Path):
    """Hold an exclusive `flock` on `<work_dir>/.lock` while the block runs.
    The kernel drops it when this process exits, however it exits, so a
    `.lock` that no run holds is simply taken; the holder unlinks it on release."""
    try:
        work_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create work dir {work_dir}: {e.strerror}") from None
    lock = work_dir / ".lock"
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder that released in between has unlinked the file we locked
            held = os.path.samestat(os.stat(lock), os.fstat(fd))
        except (BlockingIOError, FileNotFoundError):
            held = False
        if not held:
            raise FlowigError(f"work dir {work_dir} is locked by another run")
        try:
            yield
        finally:
            lock.unlink(missing_ok=True)
    finally:
        os.close(fd)


def _fail(exc: FlowigError) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(exc.exit_code)


def _load_split(work: Path, name: str, cfg: RunConfig) -> LabeledDataset:
    path = work / f"split_{name}.csv"
    if not path.exists():
        raise DataError(f"missing artifact {path}; run `flowig prepare` first")
    ds, _ = flow_data.parse_flow_csv(path, cfg.feature_schema(), cfg.label_column)
    return ds


def _tokenized(records, cfg: RunConfig, max_seq_len: int) -> tokenizer.TokenBatch:
    """The (record, label) rows serialized and tokenized as one batch; no
    row's text is built, and its values live only while its block is read."""
    schema = cfg.feature_schema()
    flows = (textualize.serialize(rec, schema) for rec, _ in records)
    return tokenizer.tokenize_rows(flows, cfg.vocab, max_seq_len, [label for _, label in records])


def _ckpt_path(work: Path, variant: str) -> Path:
    return work / f"model_{variant}.ckpt"


def _load_model_and_test(cfg: RunConfig, work: Path):
    """The variant's checkpoint and the parsed test split.

    Metrics and heatmaps need every class, so a test split that lacks one
    is a data error.
    """
    ckpt = _ckpt_path(work, cfg.variant)
    if not ckpt.exists():
        raise DataError(f"missing checkpoint {ckpt}; run `flowig train` first")
    enc_cfg, params = checkpoint.load_checkpoint(ckpt, tuple(cfg.vocab.id_of))
    test_ds = _load_split(work, "test", cfg)
    missing = [name for name, n in zip(CLASS_NAMES, test_ds.class_counts()) if n == 0]
    if missing:
        raise DataError(f"class absent from test split: {', '.join(missing)}")
    return enc_cfg, params, test_ds


def _select_examples(labels, limit) -> list[int]:
    """Indices of the examples to attribute, given their labels.

    Under a cap, examples are taken round-robin across classes (the first
    of each class, then the second of each, ...) so a cap never starves
    the minority class.
    """
    if limit is None or limit >= len(labels):
        return list(range(len(labels)))
    ranks = [itertools.count() for _ in CLASS_NAMES]
    keys = [(next(ranks[label]), label) for label in labels]
    return sorted(range(len(labels)), key=keys.__getitem__)[: max(limit, 0)]


# ---------------------------------------------------------------------------


def _run_prepare(cfg: RunConfig, work: Path) -> None:
    """Parse, dedup, and split the input CSV; write manifests and audit reports."""
    if cfg.input_csv is None:
        raise ConfigError("no input_csv configured")
    schema = cfg.feature_schema()
    dataset, parse_report = flow_data.parse_flow_csv(
        cfg.input_csv, schema, cfg.label_column
    )
    deduped, dedup_report, hashes = flow_data.deduplicate(dataset)
    parts = dict(zip(flow_data.SPLITS, flow_data.stratified_split(deduped, cfg.ratios, cfg.seed)))
    overlap = flow_data.audit_overlap(
        {name: [hashes[i] for i in part] for name, part in parts.items()})
    if any(overlap.values()):
        raise AuditError(f"split overlap detected: {overlap}")
    # an earlier run's splits go first, so that a failed write cannot mix two runs
    for name in [*(f"split_{name}.csv" for name in parts), "manifest.tsv"]:
        (work / name).unlink(missing_ok=True)

    manifest_lines = []
    for name, part in parts.items():
        records = [deduped.records[i] for i in part]
        data = synthetic.dataset_to_csv_bytes(LabeledDataset(schema, records), cfg.label_column)
        write_artifact(work / f"split_{name}.csv", data)
        manifest_lines += [f"{hashes[i]}\t{name}\t{CLASS_NAMES[label]}\n"
                           for i, (_, label) in zip(part, records)]
    write_artifact(work / "manifest.tsv", "".join(manifest_lines))

    report_text = (
        dedup_report.format()
        + f"rows dropped in parsing: {parse_report.rows_dropped}"
        f" (non-finite {parse_report.rows_dropped_nonfinite},"
        f" unparseable {parse_report.rows_dropped_unparseable})\n"
    )
    write_artifact(work / "dedup_report.txt", report_text)
    audit_text = "".join(
        f"{a} x {b}\t{n}\n" for (a, b), n in overlap.items()
    )
    write_artifact(work / "overlap_audit.txt", audit_text)

    click.echo(f"{dedup_report.before} -> {dedup_report.after}")
    click.echo("class counts: " + ", ".join(
        f"{name}={n}" for name, n in zip(CLASS_NAMES, deduped.class_counts())))
    click.echo("overlap audit: " + audit_text.replace("\n", "; ").rstrip("; "))


def _run_train(cfg: RunConfig, work: Path) -> None:
    """Train the selected attention variant on the prepared splits."""
    enc_cfg = cfg.encoder_cfg
    train_ds = _load_split(work, "train", cfg)
    val_ds = _load_split(work, "validation", cfg)
    train_rows = _tokenized(train_ds.records, cfg, enc_cfg.max_seq_len)
    val_rows = _tokenized(val_ds.records, cfg, enc_cfg.max_seq_len)

    weights = training.class_weights(train_ds.class_counts())
    params = encoder.init_params(enc_cfg)
    best, log = training.train(params, enc_cfg, train_rows, val_rows, weights, cfg.train_cfg)
    checkpoint.save_checkpoint(_ckpt_path(work, cfg.variant), enc_cfg, best,
                               tuple(cfg.vocab.id_of))
    log_lines = [
        json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n" for rec in log.epochs
    ]
    write_artifact(work / f"train_log_{cfg.variant}.jsonl", "".join(log_lines))
    click.echo(
        f"trained {cfg.variant}: best epoch {log.best_epoch},"
        f" val macro-F1 {log.best_val_macro_f1:.4f}"
    )


def _run_evaluate(cfg: RunConfig, work: Path) -> None:
    """Compute the metrics report on the test split."""
    enc_cfg, params, test_ds = _load_model_and_test(cfg, work)
    test_rows = _tokenized(test_ds.records, cfg, enc_cfg.max_seq_len)
    _, preds = training.evaluate_examples(params, enc_cfg, test_rows)
    counts = evaluation.confusion(preds, test_rows.labels)
    text = evaluation.metrics(counts).format()
    write_artifact(work / f"metrics_{cfg.variant}.txt", text)
    click.echo(text.rstrip("\n"))


def _run_explain(cfg: RunConfig, work: Path) -> None:
    """Build the class x feature attribution heatmap and per-example dump."""
    enc_cfg, params, test_ds = _load_model_and_test(cfg, work)
    chosen = _select_examples([label for _, label in test_ds.records], cfg.ig_max_examples)
    # only the attributed rows are serialized, once each: IG reads their values,
    # and their text is the hash that ties each line to its manifest row
    schema = cfg.feature_schema()
    rows = [test_ds.records[i] for i in chosen]
    flows = [textualize.serialize(rec, schema) for rec, _ in rows]
    batch = tokenizer.tokenize_rows(flows, cfg.vocab, enc_cfg.max_seq_len,
                                    [label for _, label in rows])
    matrix, results = attribution.class_attribution_matrix(
        params, enc_cfg, batch, schema, cfg.ig_cfg, cfg.top_k, pad_id=cfg.vocab.pad_id,
    )
    for fmt in HEATMAP_FORMATS:
        data = attribution.export_heatmap(matrix, fmt)
        write_artifact(work / f"heatmap_{cfg.variant}.{fmt}", data)

    hashes = [textualize.text_hash(flow.text) for flow in flows]
    dump = "".join(
        json.dumps(
            {
                "hash": h,
                "class": CLASS_NAMES[res.target_class],
                "feature_attr": [float(v) for v in res.feature_attr],
                "completeness_gap": res.completeness_gap,
                "relative_gap": res.relative_gap,
            },
            sort_keys=True,
        )
        + "\n"
        for h, res in zip(hashes, results)
    )
    write_artifact(work / f"attributions_{cfg.variant}.jsonl", dump)
    tolerance = attribution.COMPLETENESS_TOLERANCE
    frac = sum(r.relative_gap > tolerance for r in results) / len(results)
    summary = (
        f"examples: {len(results)}\n"
        f"ig_steps: {cfg.ig_cfg.steps}\n"
        f"completeness_tolerance: {tolerance}\n"
        f"fraction_exceeding_tolerance: {frac:.6f}\n"
    )
    write_artifact(work / f"completeness_{cfg.variant}.txt", summary)
    click.echo(f"fraction of examples exceeding completeness tolerance: {frac:.4f}")


def _read_text(path: Path) -> str:
    """An artifact's text; bytes that are not UTF-8 are a data error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e.reason}") from None


def _run_report(cfg: RunConfig, work: Path) -> None:
    """Aggregate all stage artifacts into one run report."""
    required = {
        "dedup_report.txt": "flowig prepare",
        "overlap_audit.txt": "flowig prepare",
    }
    trained = [v for v in VARIANTS if _ckpt_path(work, v).exists()]
    if not trained:
        raise DataError("no checkpoints found; run `flowig train` first")
    missing = [f"{name} (run `{cmd}`)" for name, cmd in required.items()
               if not (work / name).exists()]
    if missing:
        raise DataError("missing artifacts: " + "; ".join(missing))

    sections = ["# Run report\n"]
    sections.append("## Deduplication\n\n```\n" + _read_text(work / "dedup_report.txt") + "```\n")
    sections.append("## Overlap audit\n\n```\n" + _read_text(work / "overlap_audit.txt") + "```\n")

    sections.append("## Training\n")
    for v in trained:
        log = work / f"train_log_{v}.jsonl"
        if log.exists():
            sections.append(f"### {v}\n\n```\n" + _read_text(log) + "```\n")

    metrics_rows = []
    for v in trained:
        mfile = work / f"metrics_{v}.txt"
        if not mfile.exists():
            raise DataError(f"missing metrics for {v}; run `flowig evaluate --variant {v}`")
        text = _read_text(mfile)
        values = dict(line.split("\t", 1) for line in text.splitlines() if "\t" in line)
        try:
            metrics_rows.append((v, values["macro_f1"], values["weighted_f1"]))
        except KeyError as e:
            raise DataError(f"{mfile} has no {e.args[0]} line") from None
        sections.append(f"## Metrics ({v})\n\n```\n" + text + "```\n")
    if len(metrics_rows) > 1:
        table = ["| variant | macro F1 | weighted F1 |", "|---|---|---|"]
        table += [f"| {v} | {m} | {w} |" for v, m, w in metrics_rows]
        sections.append("## Variant comparison\n\n" + "\n".join(table) + "\n")

    sections.append("## Heatmaps\n")
    for v in trained:
        for fmt in HEATMAP_FORMATS:
            p = work / f"heatmap_{v}.{fmt}"
            if p.exists():
                sections.append(f"- `{p.name}`")
        c = work / f"completeness_{v}.txt"
        if c.exists():
            sections.append(f"- `{c.name}`")
    sections.append("")

    write_artifact(work / "report.md", "\n".join(sections))
    click.echo(f"wrote {work / 'report.md'}")


_COMMON = (
    click.Option(["--seed"], type=int, default=None, help="override seed"),
    click.Option(["--work-dir"], default=None, help="override work dir"),
    click.Option(["--config", "config_path"], type=click.Path(), default=None),
)
_VARIANT = click.Option(["--variant"], type=click.Choice(VARIANTS), default=None)


@click.group()
def main():
    """Explainable flow-level intrusion detection pipeline."""
    _reuse_freed_memory()
    _one_blas_thread()


def _reuse_freed_memory() -> None:
    """Have glibc's malloc serve blocks under 8 MiB from its heap, keep up
    to 32 MiB free at the heap's top and use one arena for every thread. The
    encoder works in row chunks of a few MB (see `encoder._CHUNK_FLOATS`);
    under glibc's default thresholds each chunk's freed arrays go back to the
    system and the next chunk faults them in again, and each chunk worker's
    own arena (see `encoder.map_chunks`) would keep its own freed pages. A
    no-op where malloc is not glibc's."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 8 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)         # M_ARENA_MAX


def _one_blas_thread() -> None:
    """Cap numpy's bundled OpenBLAS at one thread. The chunk workers (see
    `encoder.map_chunks`) already keep every usable CPU busy, and OpenBLAS's
    own threads, one per CPU by default, would compete with them for those
    CPUs. The library is reached through numpy's core extension, which links
    it. A no-op where numpy does not bundle scipy-openblas."""
    try:
        from numpy._core import _multiarray_umath
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, ImportError, OSError, TypeError):
        return
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(1)


def _stage(run, *options) -> None:
    """Register `_run_<name>` as the `flowig <name>` command.

    The command loads the config with the flag overrides, holds the
    work-dir lock while `run` works, and turns every FlowigError into its
    one-line message and exit code; a failed read or write is a data error.
    """

    def command(config_path, **overrides):
        try:
            cfg = RunConfig.from_file(config_path, **overrides)
            work = Path(cfg.work_dir)
            with _work_dir_lock(work):
                run(cfg, work)
        except FlowigError as e:
            _fail(e)
        except MemoryError as e:
            _fail(FlowigError(f"out of memory: {e}"))
        except OSError as e:
            # a write fails at its rename, whose target is filename2; a
            # failed write to standard output names no file
            path = e.filename2 or e.filename
            _fail(DataError(f"cannot access {path}: {e.strerror}" if path else e.strerror))

    name = run.__name__.removeprefix("_run_")
    params = [*_COMMON, *options]
    main.add_command(click.Command(name, callback=command, params=params, help=run.__doc__))


_stage(
    _run_prepare,
    click.Option(["--input-csv"], default=None, help="override input CSV path"),
)
_stage(_run_train, _VARIANT)
_stage(_run_evaluate, _VARIANT)
_stage(
    _run_explain,
    _VARIANT,
    click.Option(["--steps"], type=int, default=None, help="override IG steps"),
    click.Option(["--top-k"], type=int, default=None, help="override heatmap top-K"),
)
_stage(_run_report)


@main.command("synthetic")
@click.option("--out", type=click.Path(), required=True)
@click.option("--n", type=int, default=3000)
@click.option("--seed", type=int, default=0)
def cmd_synthetic(out, n, seed):
    """Write the bundled synthetic 3-class fixture as a flow CSV."""
    if n < 1:
        _fail(ConfigError(f"n must be >= 1, got {n}"))
    if seed < 0:
        _fail(ConfigError(f"seed must be >= 0, got {seed}"))
    ds = synthetic.generate_synthetic_dataset(n=n, seed=seed)
    try:
        write_artifact(Path(out), synthetic.dataset_to_csv_bytes(ds))
    except OSError as e:
        _fail(ConfigError(f"cannot write {out}: {e.strerror}"))
    click.echo(f"wrote {n} synthetic flows to {out}")


if __name__ == "__main__":
    main()
