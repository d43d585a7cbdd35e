"""Flow CSV ingestion, coarse label merging, dedup, and leak-safe stratified splits."""
from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SchemaError, UnknownLabelError, DataError
from .textualize import serialize, text_hash


# a class is its index into CLASS_NAMES; the name is read only to write text
CLASS_NAMES = ("BENIGN", "DDOS", "WEB_ATTACK")
BENIGN, DDOS, WEB_ATTACK = range(len(CLASS_NAMES))
SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class FeatureSchema:
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ConfigError("schema must have at least one feature")
        if len(set(self.names)) != len(self.names):
            raise ConfigError("schema feature names must be unique")

    @property
    def d(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class FlowRecord:
    features: tuple[float, ...]
    raw_label: str


@dataclass
class LabeledDataset:
    schema: FeatureSchema
    records: list[tuple[FlowRecord, int]]

    def __len__(self) -> int:
        return len(self.records)

    def class_counts(self) -> tuple[int, ...]:
        """Each class's record count, in class order."""
        labels = [label for _, label in self.records]
        return tuple(map(labels.count, range(len(CLASS_NAMES))))


@dataclass
class ParseReport:
    rows_total: int = 0
    rows_dropped_nonfinite: int = 0
    rows_dropped_unparseable: int = 0

    @property
    def rows_dropped(self) -> int:
        return self.rows_dropped_nonfinite + self.rows_dropped_unparseable


@dataclass
class DedupReport:
    before: int
    after: int
    label_conflicts: int = 0

    @property
    def removed(self) -> int:
        return self.before - self.after

    def format(self) -> str:
        return (
            f"deduplication: {self.before} -> {self.after}\n"
            f"removed: {self.removed}\n"
            f"conflicting-label duplicates: {self.label_conflicts}\n"
        )


# Raw label -> coarse mapping, keys normalized by _normalize_label.
_LABEL_MAP = {
    "benign": BENIGN,
    "ddos": DDOS,
    "web attack - brute force": WEB_ATTACK,
    "web attack - xss": WEB_ATTACK,
    "web attack - sql injection": WEB_ATTACK,
}

_DASHES = re.compile(r"[‐‑‒–—―\ufffd]")
_WS = re.compile(r"\s+")


def _normalize_label(raw: str) -> str:
    # CICIDS2017 distributions vary in dash character and spacing; some carry
    # U+FFFD where a cp1252 en dash (0x96) was decoded as UTF-8
    s = _DASHES.sub("-", raw).strip().lower()
    return _WS.sub(" ", s)


@functools.lru_cache(maxsize=1024)   # a capture holds a handful of distinct raw labels
def merge_labels(raw_label: str) -> int:
    key = _normalize_label(raw_label)
    if key not in _LABEL_MAP:
        raise UnknownLabelError(f"unknown raw label: {raw_label!r}")
    return _LABEL_MAP[key]


def parse_flow_csv(
    path,
    schema: FeatureSchema,
    label_column: str = "Label",
) -> tuple[LabeledDataset, ParseReport]:
    """Parse a header-bearing CSV file into records in schema column order.

    Rows with non-finite or unparseable numeric cells are dropped and
    tallied; an unreadable file, non-UTF-8 bytes or malformed CSV raise
    DataError.
    """
    try:
        stream = open(path, encoding="utf-8-sig", newline="")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("CSV has no header row")
        header = [h.strip() for h in header]
        for name in (*schema.names, label_column):
            if name not in header:
                raise SchemaError(f"missing required column: {name!r}")
        # the label cell last, so a one-column schema still picks a tuple
        pick = operator.itemgetter(*(header.index(n) for n in schema.names),
                                   header.index(label_column))

        report = ParseReport()
        records: list[tuple[FlowRecord, int]] = []
        for row in reader:
            if not any(map(str.strip, row)):
                continue
            report.rows_total += 1
            try:
                *cells, raw_label = pick(row)
                values = tuple(map(float, cells))
            except (ValueError, IndexError):
                report.rows_dropped_unparseable += 1
                continue
            if not all(map(math.isfinite, values)):
                report.rows_dropped_nonfinite += 1
                continue
            raw_label = raw_label.strip()
            records.append((FlowRecord(values, raw_label), merge_labels(raw_label)))
        return LabeledDataset(schema, records), report
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e.reason}") from None
    except csv.Error as e:
        raise DataError(f"{path} line {reader.line_num}: {e}") from None
    finally:
        stream.close()


def record_hash(record: FlowRecord, schema: FeatureSchema) -> str:
    return text_hash(schema.names, serialize(record, schema))


def deduplicate(dataset: LabeledDataset) -> tuple[LabeledDataset, DedupReport, list[str]]:
    """Keep the first occurrence of each serialization hash, in input order.

    Also returns `hashes`, where `hashes[i]` is the hash of kept record i: its
    identity in the audit and the manifest, so no later step serializes it again.
    """
    seen: dict[str, int] = {}
    hashes: list[str] = []
    kept: list[tuple[FlowRecord, int]] = []
    conflicts = 0
    for rec, label in dataset.records:
        h = record_hash(rec, dataset.schema)
        if h in seen:
            if seen[h] != label:
                conflicts += 1
            continue
        seen[h] = label
        hashes.append(h)
        kept.append((rec, label))
    report = DedupReport(
        before=len(dataset.records),
        after=len(kept),
        label_conflicts=conflicts,
    )
    return LabeledDataset(dataset.schema, kept), report, hashes


def largest_remainder_sizes(n: int, ratios: tuple[float, ...]) -> tuple[int, ...]:
    """Partition n into len(ratios) integer parts minimizing proportional distortion."""
    exact = [n * r for r in ratios]
    base = [int(math.floor(e)) for e in exact]
    remainder = n - sum(base)
    # ties broken toward earlier splits (train before val before test)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return tuple(base)


def check_split_ratios(ratios) -> tuple[float, float, float]:
    """`ratios` as a tuple, refused unless three numbers >= 0 summing to 1."""
    ratios = tuple(ratios)
    # bool is an int subclass, so JSON true would pass as 1
    if (len(ratios) != 3
            or not all(isinstance(r, (int, float)) and not isinstance(r, bool) and r >= 0
                       for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ConfigError(f"split ratios must be three numbers >= 0 summing to 1, got {ratios}")
    return ratios


def stratified_split(
    dataset: LabeledDataset,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> list[list[int]]:
    """Seeded per-class shuffle then largest-remainder partition: the train,
    validation and test lists of indices into `dataset.records`."""
    by_class: list[list[int]] = [[] for _ in CLASS_NAMES]
    for i, (_, label) in enumerate(dataset.records):
        by_class[label].append(i)
    for name, idxs in zip(CLASS_NAMES, by_class):
        if 0 < len(idxs) < 3:
            raise DataError(f"class {name} has {len(idxs)} records; need >= 3 to split")
    rng = np.random.default_rng(seed)
    parts: list[list[int]] = [[], [], []]
    for idxs in by_class:
        idxs = np.array(idxs, dtype=np.int64)
        if len(idxs) == 0:
            continue
        perm = idxs[rng.permutation(len(idxs))]
        sizes = largest_remainder_sizes(len(perm), ratios)
        offset = 0
        for s, size in enumerate(sizes):
            parts[s] += perm[offset : offset + size].tolist()
            offset += size
    return parts


def audit_overlap(split_hashes: dict[str, list[str]]) -> dict[tuple[str, str], int]:
    """Sizes of pairwise intersections of the splits' hash sets; all 0 on a valid split."""
    sets = {name: set(hashes) for name, hashes in split_hashes.items()}
    return {(a, b): len(sets[a] & sets[b]) for a, b in itertools.combinations(SPLITS, 2)}
