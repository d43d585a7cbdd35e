"""Shared exception types, each carrying the CLI exit code of its failure
class, and the one check of a config dataclass's field values."""
import dataclasses


class FlowigError(Exception):
    exit_code = 1


class ConfigError(FlowigError):
    """Bad configuration: invalid shapes, unknown keys, impossible hyperparameters."""
    exit_code = 2


class DataError(FlowigError):
    """Bad or missing input data."""
    exit_code = 3


class SchemaError(DataError):
    """CSV does not provide the columns the schema requires."""


class UnknownLabelError(DataError):
    """A raw label string is not in the known label set."""


class TruncationError(DataError):
    """Tokenized sequence does not fit max_seq_len; silent truncation is forbidden."""


class NumericError(FlowigError):
    """Non-finite value produced where a finite one is required."""
    exit_code = 4


class AuditError(FlowigError):
    """A leak-safety audit failed (split overlap detected)."""
    exit_code = 5


# the values a config field of each annotation accepts; a JSON array stands for a tuple
JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict,
              "object": object, "int | None": (int, type(None)), "str | None": (str, type(None)),
              "tuple[float, float, float]": (list, tuple)}


def check_fields(config, where: str, lows: dict) -> None:
    """Refuse a field of the dataclass `config` whose value is not of its
    annotated type, or is below its bound in `lows` (None has no bound)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        # bool is an int subclass, so JSON true would pass as 1
        if not isinstance(value, JSON_TYPES[f.type]) or isinstance(value, bool) and f.type != "bool":
            raise ConfigError(f"{where}{f.name} must be {f.type}, got {value!r}")
        if f.name in lows and value is not None and value < lows[f.name]:
            raise ConfigError(f"{where}{f.name} must be >= {lows[f.name]}, got {value}")
