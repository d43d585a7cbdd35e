"""Deterministic rendering of flow records into "name is value" text.

A flow's rendered values are the model input, and its text, their clauses
joined, is the dedup key, so every choice here (separator, digit policy)
must be byte-stable across runs and platforms.
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


@functools.lru_cache(maxsize=64)
def _clause_template(names: tuple[str, ...]) -> str:
    """The text with a `%s` for each value, built once per schema."""
    return CLAUSE_SEPARATOR.join(f"{name.replace('%', '%%')} is %s" for name in names)


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


def serialize(record, schema, policy: ValueFormatPolicy = ValueFormatPolicy()) -> tuple[str, ...]:
    """A record's values rendered by `format_value`, in schema feature order."""
    if len(record.features) != schema.d:
        raise ValueError(
            f"record has {len(record.features)} features, schema expects {schema.d}"
        )
    return tuple([format_value(value, policy) for value in record.features])


def text_hash(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    """SHA1 of the flow's "name is value" text; the dedup and audit identity
    of a record. The text is built here and nowhere else."""
    return hashlib.sha1((_clause_template(names) % values).encode("utf-8")).hexdigest()
