"""Confusion-matrix metrics: per-class P/R/F1, accuracy, macro and weighted F1."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .flow_data import CLASS_NAMES


@dataclass(frozen=True)
class MetricsReport:
    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    f1: tuple[float, float, float]
    support: tuple[int, int, int]
    accuracy: float
    macro_f1: float
    weighted_f1: float
    # the confusion matrix: rows = true class, columns = predicted class
    counts: tuple[tuple[int, ...], ...]
    # classes where a 0/0 precision or recall was reported as 0
    zero_division_classes: tuple[str, ...] = field(default=())

    def format(self) -> str:
        lines = ["class\tprecision\trecall\tf1\tsupport"]
        for i, name in enumerate(CLASS_NAMES):
            lines.append(
                f"{name}\t{self.precision[i]:.6f}\t{self.recall[i]:.6f}"
                f"\t{self.f1[i]:.6f}\t{self.support[i]}"
            )
        lines.append(f"accuracy\t{self.accuracy:.6f}")
        lines.append(f"macro_f1\t{self.macro_f1:.6f}")
        lines.append(f"weighted_f1\t{self.weighted_f1:.6f}")
        if self.zero_division_classes:
            lines.append("zero_division\t" + ",".join(self.zero_division_classes))
        lines.append("confusion_matrix")
        lines += ["\t".join(str(v) for v in row) for row in self.counts]
        return "\n".join(lines) + "\n"


def confusion(predictions, labels) -> np.ndarray:
    """The (3, 3) count matrix of class indices: rows = true, columns = predicted."""
    if len(predictions) != len(labels):
        raise DataError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    true = np.asarray(labels, dtype=np.int64)
    pred = np.asarray(predictions, dtype=np.int64)
    return np.bincount(3 * true + pred, minlength=9).reshape(3, 3)


def metrics(counts) -> MetricsReport:
    arr = np.asarray(counts, dtype=np.int64)
    if arr.shape != (3, 3) or (arr < 0).any():
        raise DataError("confusion matrix must be 3x3 with non-negative counts")
    total = arr.sum()
    if total == 0:
        raise DataError("cannot compute metrics on an all-zero confusion matrix")
    tp = np.diag(arr).astype(np.float64)
    pred_totals = arr.sum(axis=0)
    support = arr.sum(axis=1)
    precision = np.divide(tp, pred_totals, out=np.zeros(3), where=pred_totals > 0)
    recall = np.divide(tp, support, out=np.zeros(3), where=support > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(3), where=denom > 0)
    return MetricsReport(
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        support=tuple(int(s) for s in support),
        accuracy=float(tp.sum() / total),
        macro_f1=float(f1.mean()),
        weighted_f1=float((f1 * support).sum() / total),
        counts=tuple(map(tuple, arr.tolist())),
        zero_division_classes=tuple(
            name for name, p, s in zip(CLASS_NAMES, pred_totals, support) if p == 0 or s == 0
        ),
    )
