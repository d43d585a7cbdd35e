"""Confusion-matrix metrics: per-class P/R/F1, accuracy, macro and weighted F1."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .flow_data import COARSE_LABELS, CoarseLabel


@dataclass(frozen=True)
class ConfusionMatrix:
    # rows = true class, columns = predicted class, coarse label order
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        arr = np.array(self.counts)
        if arr.shape != (3, 3) or (arr < 0).any():
            raise DataError("confusion matrix must be 3x3 with non-negative counts")


@dataclass(frozen=True)
class MetricsReport:
    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    f1: tuple[float, float, float]
    support: tuple[int, int, int]
    accuracy: float
    macro_f1: float
    weighted_f1: float
    # classes where a 0/0 precision or recall was reported as 0
    zero_division_classes: tuple[str, ...] = field(default=())

    def format(self) -> str:
        lines = ["class\tprecision\trecall\tf1\tsupport"]
        for i, c in enumerate(COARSE_LABELS):
            lines.append(
                f"{c.name}\t{self.precision[i]:.6f}\t{self.recall[i]:.6f}"
                f"\t{self.f1[i]:.6f}\t{self.support[i]}"
            )
        lines.append(f"accuracy\t{self.accuracy:.6f}")
        lines.append(f"macro_f1\t{self.macro_f1:.6f}")
        lines.append(f"weighted_f1\t{self.weighted_f1:.6f}")
        if self.zero_division_classes:
            lines.append("zero_division\t" + ",".join(self.zero_division_classes))
        return "\n".join(lines) + "\n"


def confusion(
    predictions: list[CoarseLabel], labels: list[CoarseLabel]
) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise DataError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    cm = np.zeros((3, 3), dtype=np.int64)
    for pred, true in zip(predictions, labels):
        cm[true.value, pred.value] += 1
    return ConfusionMatrix(tuple(tuple(int(v) for v in row) for row in cm))


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    arr = np.array(cm.counts, dtype=np.int64)
    total = arr.sum()
    if total == 0:
        raise DataError("cannot compute metrics on an all-zero confusion matrix")
    tp = np.diag(arr).astype(np.float64)
    pred_totals = arr.sum(axis=0).astype(np.float64)
    true_totals = arr.sum(axis=1).astype(np.float64)

    zero_div: list[str] = []
    precision = np.zeros(3)
    recall = np.zeros(3)
    for c in range(3):
        if pred_totals[c] > 0:
            precision[c] = tp[c] / pred_totals[c]
        else:
            zero_div.append(COARSE_LABELS[c].name)
        if true_totals[c] > 0:
            recall[c] = tp[c] / true_totals[c]
        elif COARSE_LABELS[c].name not in zero_div:
            zero_div.append(COARSE_LABELS[c].name)
    denom = precision + recall
    f1 = np.where(denom > 0, 2 * precision * recall / np.where(denom > 0, denom, 1), 0.0)
    support = true_totals
    return MetricsReport(
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        support=tuple(int(s) for s in support),
        accuracy=float(tp.sum() / total),
        macro_f1=float(f1.mean()),
        weighted_f1=float((f1 * support).sum() / support.sum()) if support.sum() else 0.0,
        zero_division_classes=tuple(zero_div),
    )


def predict_labels(logits: np.ndarray) -> list[CoarseLabel]:
    """Argmax over class logits; ties resolve to the lower class index."""
    return [COARSE_LABELS[int(i)] for i in np.argmax(logits, axis=-1)]
