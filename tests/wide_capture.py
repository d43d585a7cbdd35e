"""A seeded flow CSV as wide as a CICIDS2017 MachineLearningCVE file.

78 columns: `SCHEMA_WIDTH` schema columns, scattered among extra columns the
parser only skips, and the label last. Headers carry CICIDS's leading space.
Values mix integers, `-1` sentinels, zeros and non-integral rates from
1e-6 to 1e18, written as integers, fixed, `repr` and 17-digit exponent
cells that all parse back to the drawn float64. Beside the base rows the
generator plants a known number of each row kind that `parse_flow_csv` and
`deduplicate` treat specially:
- exact duplicates, their cells written afresh (`80` may come back as
  `80.0`) and their extra columns drawn again;
- conflicting-label duplicates;
- rows with `Infinity`, `-Infinity` or `NaN` in a schema column;
- rows with an unparseable or missing schema cell;
- blank rows, which are not counted at all.
Extra columns hold `NaN`, `Infinity`, blanks and text in kept rows too.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

WIDTH = 78                      # columns, the label included
SCHEMA_WIDTH = 24
LABELS = ("BENIGN", "DDoS", "Web Attack – Brute Force", "Web Attack - XSS",
          " Web Attack \ufffd Sql Injection ")
CLASS_OF_LABEL = (0, 1, 2, 2, 2)

# every third column is a schema column; the schema reads them in another order
_FEATURE_COLUMNS = tuple(f"Feature {i:02d}" for i in range(WIDTH - 1))
_SCHEMA_POSITIONS = tuple(range(1, WIDTH - 1, 3))[:SCHEMA_WIDTH]
SCHEMA = tuple(_FEATURE_COLUMNS[p] for p in sorted(_SCHEMA_POSITIONS, key=lambda p: (p % 7, p)))
_ID_POSITION = _SCHEMA_POSITIONS[0]   # a distinct integer per base row
# a value kind per run of three feature columns: integral counts, -1 sentinels,
# non-integral rates
_KINDS = ("count", "sentinel", "rate")


@dataclass(frozen=True)
class Plan:
    base_rows: int = 150
    exact_duplicates: int = 12
    conflicting_duplicates: int = 5
    nonfinite_rows: int = 6
    unparseable_rows: int = 7
    blank_rows: int = 4


@dataclass
class Capture:
    csv_bytes: bytes
    # each base row's schema values in schema order and its stripped raw label
    base: list[tuple[tuple[float, ...], str]]


def _draw(rng, kind: str) -> float:
    if rng.random() < 0.35:
        return 0.0
    if kind == "sentinel" and rng.random() < 0.3:
        return -1.0
    if kind == "rate":
        return float(10.0 ** rng.uniform(-6, 18))
    return float(np.round(10.0 ** rng.uniform(0, 9)))


def _cell(rng, v: float) -> str:
    """One of the renderings a capture may use for v; each parses back to v."""
    r = rng.random()
    if v.is_integer() and r < 0.6:
        return str(int(v))
    if v.is_integer() and r < 0.75 and abs(v) < 1e15:
        return f"{v:.1f}"
    if r < 0.9:
        return repr(v)
    return f"{v:.17e}" if r < 0.95 else f"{v:.17E}"


def _values(rng, row_id: int) -> list[float]:
    values = [_draw(rng, _KINDS[p // 3 % 3]) for p in range(WIDTH - 1)]
    values[_ID_POSITION] = float(row_id)
    return values


def _row(rng, values, label: str) -> list[str]:
    cells = [_cell(rng, v) for v in values]
    for p in range(WIDTH - 1):
        if p not in _SCHEMA_POSITIONS and rng.random() < 0.05:
            cells[p] = str(rng.choice(["NaN", "Infinity", "", "n/a"]))
    return cells + [label]


def generate(seed: int, plan: Plan = Plan()) -> Capture:
    rng = np.random.default_rng(seed)
    schema_order = [_FEATURE_COLUMNS.index(name) for name in SCHEMA]
    rows = []                   # (position, cells): a duplicate sorts after its source
    base = []
    for i in range(plan.base_rows):
        values = _values(rng, 1000 + 7 * i)
        k = i % len(LABELS)
        rows.append((float(i), _row(rng, values, LABELS[k])))
        base.append((values, k))
    for n in range(plan.exact_duplicates + plan.conflicting_duplicates):
        src = int(rng.integers(plan.base_rows))
        values, k = base[src]
        if n >= plan.exact_duplicates:   # a label of another class
            k = next(j for j in range(len(LABELS)) if CLASS_OF_LABEL[j] != CLASS_OF_LABEL[k])
        # extra columns are drawn again: only the schema columns make a duplicate
        dup = [v if p in _SCHEMA_POSITIONS else fresh
               for p, (v, fresh) in enumerate(zip(values, _values(rng, 0)))]
        rows.append((rng.uniform(src + 0.5, plan.base_rows), _row(rng, dup, LABELS[k])))
    bad_ids = iter(range(10**6, 10**6 + plan.nonfinite_rows + plan.unparseable_rows))
    for n in range(plan.nonfinite_rows):
        cells = _row(rng, _values(rng, next(bad_ids)), LABELS[n % len(LABELS)])
        cells[_SCHEMA_POSITIONS[n % SCHEMA_WIDTH]] = ("Infinity", "-Infinity", "NaN")[n % 3]
        rows.append((rng.uniform(0, plan.base_rows), cells))
    for n in range(plan.unparseable_rows):
        cells = _row(rng, _values(rng, next(bad_ids)), LABELS[n % len(LABELS)])
        if n % 4 == 3:          # cut short before the last schema column
            cells = cells[: _SCHEMA_POSITIONS[-1]]
        else:
            cells[_SCHEMA_POSITIONS[n % SCHEMA_WIDTH]] = ("abc", "", "1.2.3")[n % 4]
        rows.append((rng.uniform(0, plan.base_rows), cells))
    for n in range(plan.blank_rows):
        rows.append((rng.uniform(0, plan.base_rows), [] if n % 2 else [" "] * WIDTH))
    rows.sort(key=lambda r: r[0])

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([" " + name for name in _FEATURE_COLUMNS] + [" Label"])
    writer.writerows(cells for _, cells in rows)
    return Capture(
        csv_bytes=buf.getvalue().encode("utf-8"),
        base=[(tuple(values[p] for p in schema_order), LABELS[k].strip()) for values, k in base],
    )
