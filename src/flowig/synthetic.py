"""Synthetic 3-class flow fixture for tests and end-to-end smoke runs.

Clearly synthetic, never mixed with real captures. Each class gets one
strongly discriminative feature: its value is drawn from a high band
(900-999) for flows of that class and a low band (100-199) otherwise, so a
trained model should attribute that class mostly to its planted feature.
All values are 3-digit integers, which keeps every serialized flow the
same token length.
"""
from __future__ import annotations

import csv
import functools
import io

import numpy as np

from .flow_data import FeatureSchema, FlowRecord, LabeledDataset

SYNTHETIC_SCHEMA = FeatureSchema(
    names=(
        "Destination Port",
        "Flow Duration",
        "Flow IAT Min",
        "Flow IAT Max",
        "Flow Packets/s",
        "Fwd Packet Length Max",
        "Total Length of Fwd Packets",
        "Flow IAT Mean",
    )
)

# planted discriminative feature in class order (behavioral sketch: benign flows
# are long-lived, DDoS is high-rate, web attacks have extreme inter-arrival gaps)
PLANTED_FEATURE = ("Flow Duration", "Flow Packets/s", "Flow IAT Min")

_RAW_LABEL = ("BENIGN", "DDoS", "Web Attack – Brute Force")  # in class order


def generate_synthetic_dataset(n: int = 3000, seed: int = 0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    planted_idx = [SYNTHETIC_SCHEMA.names.index(name) for name in PLANTED_FEATURE]
    records = []
    for i in range(n):
        label = i % 3
        values = rng.integers(100, 200, size=SYNTHETIC_SCHEMA.d).astype(np.float64)
        values[planted_idx[label]] = float(rng.integers(900, 1000))
        records.append((FlowRecord(tuple(values.tolist()), _RAW_LABEL[label]), label))
    return LabeledDataset(SYNTHETIC_SCHEMA, records)


_CELL_CODES = bytes.maketrans(b"\0\1", b"rd")


@functools.lru_cache(maxsize=1024)
def _row_template(pattern: bytes) -> str:
    """The value cells of a row whose cells `pattern` marks integral (1) or
    not (0) as one `%` template: `%d` writes an integral float with all its
    digits, `%r` any other (`inf` and `nan` too) as its shortest round-trip
    repr."""
    return "%" + ",%".join(pattern.translate(_CELL_CODES).decode())


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()


def dataset_to_csv_bytes(dataset: LabeledDataset, label_column: str = "Label") -> bytes:
    """The dataset as a flow CSV that `parse_flow_csv` reads back losslessly:
    integral values as integers, every other value as its shortest
    round-trip repr. No value cell needs quoting, so a row's value cells are
    one `%` call, and only the header and each distinct label's cell (with
    its comma and the line end) go through `csv.writer`."""
    ends = {label: _csv_line(("", label)) for label in {rec.raw_label for rec, _ in dataset.records}}
    rows = [_row_template(bytes(map(float.is_integer, rec.features))) % rec.features
            + ends[rec.raw_label] for rec, _ in dataset.records]
    return "".join([_csv_line([*dataset.schema.names, label_column]), *rows]).encode("utf-8")
