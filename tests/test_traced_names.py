"""Every function the benchmark's tracer wraps must exist in flowig.

`bench/tracing.py` looks each `(module, name)` of its `TRACED` table up with
`getattr` when a traced pass starts, so a renamed or deleted function would
only surface there; this test surfaces it in the package's own suite.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, entry[0]) for module, entries in tracing.TRACED.items() for entry in entries]


@pytest.mark.parametrize("module, name", _traced_names(), ids=lambda v: v)
def test_traced_name_resolves(module, name):
    fn = getattr(importlib.import_module(f"flowig.{module}"), name, None)
    assert callable(fn), f"bench/tracing.py wraps flowig.{module}.{name}, which does not exist"
