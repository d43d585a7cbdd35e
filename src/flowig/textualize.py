"""Deterministic rendering of flow records into "name is value" text.

The rendered string is both the model input and the dedup key, so every
choice here (separator, digit policy) must be byte-stable across runs and
platforms.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import NumericError, check_fields

CLAUSE_SEPARATOR = " ; "


@dataclass(frozen=True)
class ValueFormatPolicy:
    significant_digits: int = 6

    def __post_init__(self):
        check_fields(self, "", {"significant_digits": 1})


@dataclass(frozen=True)
class TextFlow:
    text: str
    # (feature_index, char_start, char_end) per "name is value" clause, end exclusive
    spans: tuple[tuple[int, int, int], ...]


# Values whose integral rendering is exact in float64.
_INT_PASSTHROUGH_LIMIT = 1e16


def format_value(x: float, policy: ValueFormatPolicy = ValueFormatPolicy()) -> str:
    """Locale-independent fixed rendering of one feature value."""
    if not math.isfinite(x):
        raise NumericError(f"cannot format non-finite value {x!r}")
    if x == int(x) and abs(x) < _INT_PASSTHROUGH_LIMIT:
        return str(int(x))
    s = f"{x:.{policy.significant_digits}g}"
    # canonicalize exponent: 1.23457e+06 -> 1.23457e6, 1e-05 -> 1e-5
    if "e" in s:
        mant, exp = s.split("e")
        sign = "-" if exp.startswith("-") else ""
        digits = exp.lstrip("+-").lstrip("0") or "0"
        s = f"{mant}e{sign}{digits}"
    return s


def serialize(record, schema, policy: ValueFormatPolicy = ValueFormatPolicy()) -> TextFlow:
    """Render a record as clause_1 ; clause_2 ; ... in schema feature order."""
    if len(record.features) != schema.d:
        raise ValueError(
            f"record has {len(record.features)} features, schema expects {schema.d}"
        )
    parts = []
    spans = []
    pos = 0
    for i, (name, value) in enumerate(zip(schema.names, record.features)):
        clause = f"{name} is {format_value(value, policy)}"
        if i > 0:
            pos += len(CLAUSE_SEPARATOR)
        spans.append((i, pos, pos + len(clause)))
        pos += len(clause)
        parts.append(clause)
    return TextFlow(text=CLAUSE_SEPARATOR.join(parts), spans=tuple(spans))


def text_hash(text: str) -> str:
    """SHA1 of the serialized text; the dedup and audit identity of a record."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()
