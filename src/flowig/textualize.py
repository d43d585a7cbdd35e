"""Deterministic rendering of flow records into "name is value" text.

The rendered string is both the model input and the dedup key, so every
choice here (separator, digit policy) must be byte-stable across runs and
platforms.
"""
from __future__ import annotations

import functools
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

    @functools.cached_property
    def spec(self) -> str:   # of a non-integral value
        return f".{self.significant_digits}g"


@dataclass(frozen=True)
class TextFlow:
    """A flow's "name is value" clauses in schema order. `text` is derived
    on each access, so no row's text outlives its one use."""
    clauses: tuple[str, ...]

    @property
    def text(self) -> str:
        return CLAUSE_SEPARATOR.join(self.clauses)


# Values whose integral rendering is exact in float64.
_INT_PASSTHROUGH_LIMIT = 1e16


def format_value(x: float, policy: ValueFormatPolicy = ValueFormatPolicy()) -> str:
    """Locale-independent fixed rendering of one feature value."""
    if x.is_integer():
        if -_INT_PASSTHROUGH_LIMIT < x < _INT_PASSTHROUGH_LIMIT:
            return str(int(x))
    elif not math.isfinite(x):
        raise NumericError(f"cannot format non-finite value {x!r}")
    s = format(x, policy.spec)
    if "e" in s:
        # canonicalize the exponent, which `g` writes with a sign and at least
        # two digits: 1.23457e+06 -> 1.23457e6, 1e-05 -> 1e-5, 1e+100 -> 1e100
        s = s.replace("e+0", "e").replace("e-0", "e-").replace("e+", "e")
    return s


@functools.lru_cache(maxsize=64)
def clause_prefixes(names: tuple[str, ...]) -> tuple[str, ...]:
    """Each feature's "name is " clause prefix, built once per schema."""
    return tuple(f"{name} is " for name in names)


def serialize(record, schema, policy: ValueFormatPolicy = ValueFormatPolicy()) -> TextFlow:
    """Render a record as clause_1 ; clause_2 ; ... in schema feature order."""
    if len(record.features) != schema.d:
        raise ValueError(
            f"record has {len(record.features)} features, schema expects {schema.d}"
        )
    return TextFlow(tuple([prefix + format_value(value, policy) for prefix, value
                           in zip(clause_prefixes(schema.names), record.features)]))


def text_hash(text: str) -> str:
    """SHA1 of the serialized text; the dedup and audit identity of a record."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()
