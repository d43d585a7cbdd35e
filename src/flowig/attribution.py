"""Integrated Gradients over input embeddings, feature aggregation, heatmaps.

Attributions target the pre-softmax logit of the requested class. The path
integral uses midpoint Riemann quadrature and is verified against the
completeness identity: attributions must sum to F(input) - F(baseline).
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import encoder
from .encoder import EncoderConfig, Params
from .errors import ConfigError, DataError, NumericError, check_fields
from .flow_data import CLASS_NAMES, FeatureSchema
from .textualize import format_value
from .tokenizer import TokenBatch, TokenizedExample, feature_spans

# an example whose relative completeness gap exceeds this is flagged
COMPLETENESS_TOLERANCE = 0.01

@dataclass(frozen=True)
class IGConfig:
    steps: int = 64

    def __post_init__(self):
        check_fields(self, "ig ", {"steps": 1})


@dataclass(frozen=True)
class AttributionResult:
    token_attr: np.ndarray         # (n,) at the example's length, signed
    feature_attr: np.ndarray       # (d,), signed, span sums
    structural_residue: float      # attribution on CLS/SEP/PAD positions
    target_class: int              # the class index
    completeness_gap: float        # sum(token_attr) - (F(x) - F(x'))
    output_delta: float            # F(x) - F(x')

    @property
    def relative_gap(self) -> float:
        """|gap| / |F(x) - F(x')|; inf when only the gap is nonzero, so a
        failure at F(x) = F(x') still counts as one."""
        gap, denom = abs(self.completeness_gap), abs(self.output_delta)
        if denom == 0:
            return math.inf if gap > 0 else 0.0
        return gap / denom


@dataclass(frozen=True)
class ClassAttributionMatrix:
    feature_names: tuple[str, ...]          # top-K, global rank order
    values: np.ndarray                      # (3, K) mean |feature_attr| per class


def baseline_embeddings(params: Params, config: EncoderConfig, pad_id: int = 0) -> np.ndarray:
    """The IG baseline: every token replaced by PAD, position embeddings kept."""
    pad_ids = np.full((1, config.max_seq_len), pad_id, dtype=np.int64)
    return encoder.embed_ids(params, config, pad_ids)[0]


def integrated_gradients(
    params: Params,
    config: EncoderConfig,
    example: TokenizedExample,
    target_class: int,
    cfg: IGConfig = IGConfig(),
    pad_id: int = 0,
) -> AttributionResult:
    """Midpoint-rule IG toward one class logit, in chunks of path rows.

    F(x) and F(x') (the input and the baseline) come from a forward-only
    call; only the `steps` path points go through the backward pass. Both
    run at the example's own length, since examples carry no padding, and so
    does `token_attr`. Each encoder call takes as many rows as the
    encoder's budget allows (see `encoder.row_chunks`). The F(x), F(x') job
    and the path's chunks run as one stream of jobs (see
    `encoder.map_chunks`); each path job checks its rows' gradients and
    returns their sum, which are added in job order, so memory does not grow
    with `steps`. With `param_grads=False` every op works row by row, so the
    chunking moves the embedding gradients and logits by rounding at most.
    """
    emb = encoder.embed(params, config, example)
    n = len(example.ids)
    base = baseline_embeddings(params, config, pad_id)[:n]
    steps = cfg.steps
    delta = emb - base
    alphas = (np.arange(steps) + 0.5) / steps

    def forward(chunk):
        return encoder.forward_from_embeddings(params, config, chunk, np.ones(chunk.shape[:2]))

    def job(part):
        if part is None:  # F(x) and F(x'): one call, or one per row when two rows do not fit
            ends = np.stack([emb, base])
            return np.concatenate([forward(ends[rows])[0][:, target_class]
                                   for rows in encoder.row_chunks([n, n], config.d_model)])
        points = base[None] + alphas[part, None, None] * delta[None]
        _, trace = forward(points)
        dlogits = np.zeros((len(points), config.n_classes))
        dlogits[:, target_class] = 1.0
        grads = encoder.backward(params, trace, dlogits, param_grads=False)[1]
        finite = np.isfinite(grads).all(axis=(1, 2))
        if not finite.all():
            bad = part.start + int(np.argmin(finite))
            raise NumericError(f"non-finite gradient at integration step {bad}")
        return grads.sum(axis=0)

    parts = itertools.chain([None], encoder.row_chunks([n] * steps, config.d_model))
    results = (result for _, result in encoder.map_chunks(job, parts, config))
    f = next(results)
    output_delta = float(f[0] - f[1])
    grad_sum = functools.reduce(np.add, results)
    token_attr = (delta * (grad_sum / steps)).sum(axis=-1)

    feature_attr, residue = aggregate_to_features(token_attr, example.value_lengths)
    return AttributionResult(
        token_attr=token_attr,
        feature_attr=feature_attr,
        structural_residue=residue,
        target_class=target_class,
        completeness_gap=float(token_attr.sum() - output_delta),
        output_delta=output_delta,
    )


def aggregate_to_features(token_attr: np.ndarray,
                          value_lengths: np.ndarray) -> tuple[np.ndarray, float]:
    """Sum token attribution over each feature's span (see
    `tokenizer.feature_spans`); the rest, CLS, each SEP and any position past
    the last SEP, is the structural residue."""
    starts, ends = feature_spans(np.asarray(value_lengths))
    feature_attr = np.array([token_attr[s:e].sum() for s, e in zip(starts.tolist(), ends.tolist())])
    residue = float(token_attr[np.r_[0, ends, ends[-1] + 1 : len(token_attr)]].sum())
    return feature_attr, residue


def class_attribution_matrix(
    params: Params,
    config: EncoderConfig,
    batch: TokenBatch,
    schema: FeatureSchema,
    cfg: IGConfig = IGConfig(),
    top_k: int = 15,
    pad_id: int = 0,
) -> tuple[ClassAttributionMatrix, list[AttributionResult]]:
    """Per-class mean |attribution| over the top-K globally ranked features.

    Each row of `batch` is attributed toward its true label.
    """
    empty = [name for c, name in enumerate(CLASS_NAMES) if c not in batch.labels]
    if empty:
        raise DataError(f"no examples for class: {', '.join(empty)}")

    results = [integrated_gradients(params, config, e, e.label, cfg, pad_id)
               for e in map(batch.example, range(len(batch)))]

    abs_attr = np.abs(np.stack([r.feature_attr for r in results]))  # (N, d)
    global_score = abs_attr.mean(axis=0)
    top_k = min(top_k, schema.d)
    # stable sort keeps schema order among ties
    order = np.argsort(-global_score, kind="stable")[:top_k]

    matrix = ClassAttributionMatrix(
        feature_names=tuple(schema.names[i] for i in order),
        values=np.stack([abs_attr[batch.labels == c][:, order].mean(axis=0)
                         for c in range(len(CLASS_NAMES))]),
    )
    return matrix, results


# ---------------------------------------------------------------------------
# exports

def export_heatmap_csv(matrix: ClassAttributionMatrix) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["class", *matrix.feature_names])
    for name, row in zip(CLASS_NAMES, matrix.values):
        writer.writerow([name, *(format_value(float(v)) for v in row)])
    return buf.getvalue().encode("utf-8")


# compact sequential colormap: dark blue -> teal -> yellow (viridis-like anchors)
_RAMP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


def _color(v: float) -> str:
    x = min(max(v, 0.0), 1.0) * (len(_RAMP) - 1)
    i = min(int(x), len(_RAMP) - 2)
    t = x - i
    rgb = [round(_RAMP[i][c] + t * (_RAMP[i + 1][c] - _RAMP[i][c])) for c in range(3)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def export_heatmap_svg(matrix: ClassAttributionMatrix) -> bytes:
    k = len(matrix.feature_names)
    cell_w, cell_h = 90, 40
    left, top = 110, 130
    bar_h = 16
    width = left + k * cell_w + 20
    height = top + 3 * cell_h + bar_h + 60
    vmax = float(matrix.values.max()) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, name in enumerate(matrix.feature_names):
        x = left + j * cell_w + cell_w // 2
        parts.append(
            f'<text x="{x}" y="{top - 8}" text-anchor="start" '
            f'transform="rotate(-60 {x} {top - 8})">{_escape(name)}</text>'
        )
    for c, name in enumerate(CLASS_NAMES):
        y = top + c * cell_h
        parts.append(
            f'<text x="{left - 8}" y="{y + cell_h // 2 + 4}" text-anchor="end">{name}</text>'
        )
        for j in range(k):
            v = float(matrix.values[c, j])
            x = left + j * cell_w
            fill = _color(v / vmax)
            txt = "#000000" if v / vmax > 0.6 else "#ffffff"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" fill="{fill}"/>'
            )
            parts.append(
                f'<text x="{x + cell_w // 2}" y="{y + cell_h // 2 + 4}" '
                f'text-anchor="middle" fill="{txt}">{format_value(v)}</text>'
            )
    # color bar
    bar_y = top + 3 * cell_h + 24
    bar_w = k * cell_w
    for s in range(100):
        x = left + s * bar_w / 100
        parts.append(
            f'<rect x="{x:.2f}" y="{bar_y}" width="{bar_w / 100 + 0.5:.2f}" '
            f'height="{bar_h}" fill="{_color(s / 99)}"/>'
        )
    parts.append(f'<text x="{left}" y="{bar_y + bar_h + 14}">0</text>')
    parts.append(
        f'<text x="{left + bar_w}" y="{bar_y + bar_h + 14}" '
        f'text-anchor="end">{format_value(vmax)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def export_heatmap(matrix: ClassAttributionMatrix, fmt: str) -> bytes:
    if fmt == "csv":
        return export_heatmap_csv(matrix)
    if fmt == "svg":
        return export_heatmap_svg(matrix)
    raise ConfigError(f"unknown heatmap format {fmt!r}")
