"""Seeded CICIDS2017-shaped flow CSV generator for the ingest-score workload.

Columns carry real CICIDS2017 feature names (with the leading spaces of the
public MachineLearningCVE headers) plus a few columns the schema does not
read. Values are heavy-tailed; rates and means are non-integral, so the
`.6g` and exponent renderings of `format_value` both run and value token
lengths vary. The generator plants a known number of exact duplicates,
conflicting-label duplicates and `Infinity`/`NaN` rows, so the dedup and
parse reports of `flowig prepare` can be checked against it.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

BENIGN, DDOS, WEB = 0, 1, 2
CLASS_SHARES = (0.6, 0.3, 0.1)
RAW_LABELS = {
    BENIGN: ("BENIGN",),
    DDOS: ("DDoS",),
    WEB: ("Web Attack – Brute Force", "Web Attack – XSS", "Web Attack - Sql Injection"),
}


@dataclass(frozen=True)
class Column:
    name: str
    integral: bool
    lo: float          # magnitudes are drawn log-uniformly in [lo, hi]
    hi: float
    negative: float = 0.0   # probability of the CICIDS "-1" sentinel


# Schema columns, in schema order. Per-class (lo, hi) overrides below make
# the classes separable; the column bounds hold for every class.
SCHEMA_COLUMNS = (
    Column("Destination Port", True, 1, 65535),
    Column("Flow Duration", True, 1, 119999999),
    Column("Total Fwd Packets", True, 1, 200000),
    Column("Total Length of Fwd Packets", True, 0, 12900000),
    Column("Fwd Packet Length Max", True, 0, 24820),
    Column("Flow Bytes/s", False, 1e-6, 2.07e9),
    Column("Flow Packets/s", False, 1e-2, 3e6),
    Column("Flow IAT Mean", False, 1e-1, 1.2e8),
    Column("Flow IAT Min", True, 0, 1.2e8, negative=0.02),
    Column("Init_Win_bytes_forward", True, 0, 65535, negative=0.3),
    Column("Average Packet Size", False, 1e-2, 3893),
)
SCHEMA = tuple(c.name for c in SCHEMA_COLUMNS)

# read by the CSV parser only to skip them
EXTRA_COLUMNS = (
    Column("Bwd Packet Length Max", True, 0, 19530),
    Column("Fwd IAT Total", True, 0, 1.2e8),
    Column("PSH Flag Count", True, 0, 1),
    Column("Down/Up Ratio", True, 0, 10),
    Column("Idle Mean", False, 1e-1, 1.2e8),
)

CLASS_RANGES = {
    BENIGN: {
        "Destination Port": (81, 65535),
    },
    DDOS: {
        "Destination Port": (80, 80),
        "Flow Duration": (1, 2e5),
        "Total Fwd Packets": (1, 8),
        "Flow Packets/s": (1e4, 3e6),
        "Init_Win_bytes_forward": (200, 300),
    },
    WEB: {
        "Destination Port": (80, 80),
        "Flow Duration": (5e6, 1.1e8),
        "Total Fwd Packets": (3, 300),
        "Flow Packets/s": (1e-1, 1e2),
        "Init_Win_bytes_forward": (29200, 29200),
    },
}


def render_key(x: float) -> str:
    """The identity `format_value` gives a finite value: integral values pass
    through as integers, others keep 6 significant digits."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return _canonical(f"{x:.6g}")


def _canonical(s: str) -> str:
    # 1.23457e+06 -> 1.23457e6, as format_value renders it
    if "e" not in s:
        return s
    mant, exp = s.split("e")
    sign = "-" if exp.startswith("-") else ""
    return f"{mant}e{sign}{exp.lstrip('+-').lstrip('0') or '0'}"


def max_render_len(col: Column) -> int:
    """Longest rendering any value of this column can take."""
    if col.integral:
        longest = max(len(str(int(col.lo))), len(str(int(col.hi))))
    else:
        lo_dec = math.floor(math.log10(col.lo))
        hi_dec = math.floor(math.log10(col.hi))
        # six non-zero significant digits give the longest rendering per decade
        longest = max(
            len(_canonical(f"{1.23457 * 10.0 ** d:.6g}")) for d in range(lo_dec, hi_dec + 2)
        )
    return max(longest, 2) if col.negative else longest


def max_seq_len() -> int:
    """[CLS] + per feature [FEAT][IS] value chars [SEP], at the longest values."""
    return 1 + sum(3 + max_render_len(c) for c in SCHEMA_COLUMNS)


@dataclass(frozen=True)
class Plan:
    base_rows: int = 6000
    exact_duplicates: int = 180
    conflicting_duplicates: int = 60
    nonfinite_rows: int = 24


@dataclass
class Generated:
    csv_bytes: bytes
    rows: int
    class_counts: tuple[int, int, int]   # after dedup, i.e. of the base rows
    length_histogram: dict[int, int]     # token length -> base rows

    def describe(self) -> str:
        lengths = sorted(n for n, k in self.length_histogram.items() for _ in range(k))
        p = [lengths[int(q * (len(lengths) - 1))] for q in (0, 0.1, 0.5, 0.9, 1)]
        return (f"{self.rows} CSV rows; classes (BENIGN, DDoS, Web Attack) {self.class_counts}; "
                f"token length min/p10/p50/p90/max {'/'.join(map(str, p))} "
                f"of max_seq_len {max_seq_len()}")


def _draw(rng, col: Column, classes: np.ndarray) -> np.ndarray:
    """One column's values for rows of the given classes."""
    lo = np.full(len(classes), float(col.lo))
    hi = np.full(len(classes), float(col.hi))
    for cls, ranges in CLASS_RANGES.items():
        if col.name in ranges:
            lo[classes == cls], hi[classes == cls] = ranges[col.name]
    # log-uniform magnitude: heavy-tailed over several decades
    log_lo = np.log(np.maximum(lo, 0.5) if col.integral else lo)
    x = np.exp(log_lo + rng.random(len(classes)) * (np.log(hi) - log_lo))
    if col.integral:
        x = np.clip(np.round(x), lo, hi)
    if col.negative:
        x[rng.random(len(classes)) < col.negative] = -1.0
    return x


def _cell(rng, x: float, integral: bool) -> str:
    """CICIDS CSVs mix integer, fixed and exponent renderings; all parse to x."""
    if integral:
        return str(int(x)) if rng.random() < 0.8 else f"{x:.1f}"
    return repr(x) if rng.random() < 0.8 else f"{x:.17e}"


def token_length(values) -> int:
    return 1 + sum(3 + len(render_key(v)) for v in values)


def generate(seed: int, plan: Plan = Plan()) -> Generated:
    rng = np.random.default_rng(seed)
    cols = SCHEMA_COLUMNS + EXTRA_COLUMNS
    n_schema = len(SCHEMA_COLUMNS)

    def draw_rows(classes):
        return np.stack([_draw(rng, c, classes) for c in cols], axis=1).tolist()

    classes = rng.choice(3, size=plan.base_rows, p=CLASS_SHARES)
    classes[:3] = (BENIGN, DDOS, WEB)
    values = draw_rows(classes)
    # distinct base rows must stay distinct after rendering, or dedup would
    # remove more rows than were planted
    seen: set[tuple[str, ...]] = set()
    for i, cls in enumerate(classes):
        key = tuple(render_key(v) for v in values[i][:n_schema])
        while key in seen:
            values[i] = draw_rows(classes[i : i + 1])[0]
            key = tuple(render_key(v) for v in values[i][:n_schema])
        seen.add(key)
    labels = [_raw_label(rng, int(c)) for c in classes]

    # (position, values, label): a duplicate sorts after its source row
    rows = [(float(i), values[i], labels[i]) for i in range(plan.base_rows)]
    n_dups = plan.exact_duplicates + plan.conflicting_duplicates
    for k, src in enumerate(rng.choice(plan.base_rows, size=n_dups).tolist()):
        label = labels[src]
        if k >= plan.exact_duplicates:
            label = _raw_label(rng, (int(classes[src]) + 1 + int(rng.integers(2))) % 3)
        rows.append((rng.uniform(src + 0.5, plan.base_rows), values[src], label))
    bad_classes = rng.choice(3, size=plan.nonfinite_rows, p=CLASS_SHARES)
    rate_columns = (SCHEMA.index("Flow Bytes/s"), SCHEMA.index("Flow Packets/s"))
    for cls, row in zip(bad_classes.tolist(), draw_rows(bad_classes)):
        # CICIDS leaves Infinity and NaN in the rate columns
        row[rate_columns[int(rng.integers(2))]] = math.inf if rng.random() < 0.5 else math.nan
        rows.append((rng.uniform(0, plan.base_rows), row, _raw_label(rng, cls)))
    rows.sort(key=lambda r: r[0])

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([" " + c.name for c in cols] + [" Label"])
    for _, row, label in rows:
        cells = [
            _cell(rng, v, c.integral) if math.isfinite(v) else ("NaN" if math.isnan(v) else "Infinity")
            for v, c in zip(row, cols)
        ]
        writer.writerow(cells + [label])

    histogram: dict[int, int] = {}
    for row in values:
        n = token_length(row[:n_schema])
        histogram[n] = histogram.get(n, 0) + 1
    return Generated(
        csv_bytes=buf.getvalue().encode("utf-8"),
        rows=len(rows),
        class_counts=tuple(int((classes == c).sum()) for c in (BENIGN, DDOS, WEB)),
        length_histogram=dict(sorted(histogram.items())),
    )


def _raw_label(rng, cls: int) -> str:
    names = RAW_LABELS[cls]
    return names[int(rng.integers(len(names)))]
