"""Span tracing of flowig's layers, measured from outside the package.

`installed(tracer)` replaces the public module-level functions listed in
`TRACED` with wrappers that record one span per call and restores the
originals on exit. Nothing under `src/` is changed. Per-value and per-row
helpers (`format_value`, `merge_labels`) and the ops inside the encoder
(`attention_scores_disentangled`, `zero_grads_like`) are left unwrapped:
a span per cell would dominate the trace, and per-op encoder spans belong
inside the encoder.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, end, parent, run, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent      # index into Tracer.spans, or -1
        self.run = run
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans stay in memory until the benchmark ends; `run` tags each one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()


# ---------------------------------------------------------------------------
# probes: counts taken at the same boundary as the span, from arguments and
# results, after the span has closed


def forward_flop(config, batch: int, length: int) -> int:
    """Matmul FLOPs of one encoder forward (2 per multiply-add).

    Layer norm, softmax, GELU and the relative-position gather are not
    counted. Per layer: Q/K/V/output projections, the content scores and
    attention-weighted values, the two FFN matmuls; the disentangled variant
    adds the two relative-table projections and the c2p/p2c score terms.
    """
    D, F = config.d_model, config.d_ff
    BL = batch * length
    per_layer = 4 * 2 * BL * D * D + 2 * 2 * BL * length * D + 2 * 2 * BL * D * F
    if config.attention_variant == "disentangled":
        R = config.rel_size
        per_layer += 2 * 2 * R * D * D + 2 * 2 * BL * R * D
    return config.layers * per_layer + 2 * batch * D * config.n_classes


def backward_flop(config, batch: int, length: int) -> int:
    """Convention: each forward matmul costs two in backward (input and
    weight gradient), so backward is twice the forward count."""
    return 2 * forward_flop(config, batch, length)


def _probe_forward(args, kwargs, result):
    _, trace = result
    B, L = trace.mask.shape
    return {
        "rows": B,
        "positions": B * L,
        "masked": int(B * L - trace.mask.sum()),
        "flop": forward_flop(trace.config, B, L),
    }


def _probe_backward(args, kwargs, result):
    trace = args[1]
    B, L = trace.mask.shape
    return {"rows": B, "flop": backward_flop(trace.config, B, L)}


def _probe_tokenize(args, kwargs, result):
    return {"positions": len(result.attention_mask),
            "masked": len(result.attention_mask) - sum(result.attention_mask)}


def _probe_parse(args, kwargs, result):
    return {"rows": result[1].rows_total}


def _probe_serialize(args, kwargs, result):
    return {"record": id(args[0])}


# module -> (function name, probe); names bound by `from ... import` in
# another module are listed under that module with the defining module's
# span name, so both bindings record the same span
TRACED = {
    "flow_data": (
        ("parse_flow_csv", _probe_parse),
        ("record_hash", None),
        ("deduplicate", None),
        ("largest_remainder_sizes", None),
        ("stratified_split", None),
        ("audit_overlap", None),
        ("serialize", _probe_serialize, "textualize.serialize"),
        ("text_hash", None, "textualize.text_hash"),
    ),
    "textualize": (
        ("serialize", _probe_serialize),
        ("text_hash", None),
    ),
    "tokenizer": (
        ("build_vocab", None),
        ("tokenize", _probe_tokenize),
        ("reconstruct_values", None),
    ),
    "encoder": (
        ("init_params", None),
        ("embed", None),
        ("embed_ids", None),
        ("forward", None),
        ("forward_batch", None),
        ("forward_from_embeddings", _probe_forward),
        ("backward", _probe_backward),
        ("accumulate_embedding_grads", None),
    ),
    "training": (
        ("class_weights", None),
        ("evaluate_examples", None),
        ("train", None),
    ),
    "attribution": (
        ("baseline_embeddings", None),
        ("integrated_gradients", None),
        ("aggregate_to_features", None),
        ("class_attribution_matrix", None),
        ("export_heatmap", None),
        ("export_heatmap_csv", None),
        ("export_heatmap_svg", None),
    ),
    "checkpoint": (
        ("save_checkpoint", None),
        ("load_checkpoint", None),
    ),
}


def _wrap(tracer: Tracer, name: str, fn, probe):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        s = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(s)
        if probe is not None:
            s.attrs = probe(args, kwargs, result)
        return result

    return wrapped


@contextmanager
def installed(tracer: Tracer):
    """Replace every function in TRACED with a span-recording wrapper."""
    saved = []
    try:
        for mod_name, entries in TRACED.items():
            module = importlib.import_module(f"flowig.{mod_name}")
            for entry in entries:
                fn_name, probe = entry[0], entry[1]
                span_name = entry[2] if len(entry) > 2 else f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                saved.append((module, fn_name, original))
                setattr(module, fn_name, _wrap(tracer, span_name, original, probe))
        yield tracer
    finally:
        for module, fn_name, original in reversed(saved):
            setattr(module, fn_name, original)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def _has_ancestor(spans, s: Span, name: str) -> bool:
    while s.parent >= 0:
        s = spans[s.parent]
        if s.name == name:
            return True
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all spans share one run id)."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_sum(prefix):
        return sum(t for s, t in zip(spans, selfs) if s.name.startswith(prefix))

    def attr_sum(items, key):
        return sum(s.attrs[key] for s in items)

    def ratio(a, b):
        return a / b if b else 0.0

    fwd = named("encoder.forward_from_embeddings")
    bwd = named("encoder.backward")
    tok = named("tokenizer.tokenize")
    ig = named("attribution.integrated_gradients")
    ig_fwd = [s for s in fwd if _has_ancestor(spans, s, "attribution.integrated_gradients")]
    fwd_s, bwd_s = total("encoder.forward_from_embeddings"), total("encoder.backward")
    fwd_gflop = attr_sum(fwd, "flop") / 1e9
    train_idx = {i for i, s in enumerate(spans) if s.name == "training.train"}

    # serialize calls per row prepare serializes (median over rows)
    per_record: dict[int, int] = {}
    for s in named("textualize.serialize"):
        if _has_ancestor(spans, s, "cli.prepare"):
            per_record[s.attrs["record"]] = per_record.get(s.attrs["record"], 0) + 1

    m = {
        "encoder.forward.s": fwd_s,
        "encoder.forward.calls": len(fwd),
        "encoder.forward.rows": attr_sum(fwd, "rows"),
        "encoder.forward.gflop": fwd_gflop,
        "encoder.forward.gflops": ratio(fwd_gflop, fwd_s),
        "encoder.backward.s": bwd_s,
        "encoder.backward.rows": attr_sum(bwd, "rows"),
        "encoder.backward.gflops": ratio(attr_sum(bwd, "flop") / 1e9, bwd_s),
        "encoder.pad_share": ratio(attr_sum(fwd, "masked"), attr_sum(fwd, "positions")),
        "tokenizer.pad_share": ratio(attr_sum(tok, "masked"), attr_sum(tok, "positions")),
        "encoder.accumulate_embedding_grads.s": total("encoder.accumulate_embedding_grads"),
        "training.train.self_s": sum(
            t for s, t in zip(spans, selfs) if s.name == "training.train"
        ),
        "training.evaluate_examples.s": total("training.evaluate_examples"),
        "training.steps": sum(1 for s in bwd if s.parent in train_idx),
        "attribution.integrated_gradients.s": total("attribution.integrated_gradients"),
        "attribution.self_s": self_sum("attribution."),
        "attribution.forward_calls_per_example": ratio(len(ig_fwd), len(ig)),
        "attribution.forward_rows_per_example": ratio(attr_sum(ig_fwd, "rows"), len(ig)),
        "attribution.export_heatmap.s": total("attribution.export_heatmap"),
        "flow_data.parse_flow_csv.s": total("flow_data.parse_flow_csv"),
        "flow_data.parse_flow_csv.rows": attr_sum(named("flow_data.parse_flow_csv"), "rows"),
        "flow_data.deduplicate.s": total("flow_data.deduplicate"),
        "flow_data.stratified_split.s": total("flow_data.stratified_split"),
        "flow_data.audit_overlap.s": total("flow_data.audit_overlap"),
        "flow_data.record_hash.calls": len(named("flow_data.record_hash")),
        "textualize.serialize.s": total("textualize.serialize"),
        "textualize.serialize.calls_per_row": (
            statistics.median(per_record.values()) if per_record else 0
        ),
        "tokenizer.tokenize.s": total("tokenizer.tokenize"),
        "checkpoint.load_checkpoint.s": total("checkpoint.load_checkpoint"),
        "checkpoint.save_checkpoint.s": total("checkpoint.save_checkpoint"),
    }
    for stage in ("prepare", "train", "evaluate", "explain"):
        m[f"cli.{stage}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.name == f"cli.{stage}"
        )
    return m
