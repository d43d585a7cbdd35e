"""The benchmark's pass/fail contract, checked in the package's own suite.

`bench/run.py` counts a workload's CLI stage as a failed operation when it
exits non-zero or the workload's check flags what it wrote, and it reports
whether every pass left the work dir byte-identical. These tests run each
workload's set-up and two passes at the small sizes of `bench/test_bench.py`,
so a change that makes a benchmark run fail shows here too. They assert
nothing about the per-layer metrics, which `python -m pytest bench` pins.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(names: list[str]) -> dict:
    """`bench/<name>.py` for each name, in order, each importable by its name
    while the later ones load, as they import each other."""
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
    return modules


BENCH_MODULES = _load(["cicids", "tracing", "workloads", "run", "test_bench"])


@pytest.mark.parametrize("workload", BENCH_MODULES["test_bench"].SMALL, ids=lambda w: w.name)
def test_two_passes_succeed_and_agree(workload, tmp_path, monkeypatch):
    run = BENCH_MODULES["run"]
    monkeypatch.setitem(sys.modules, "workloads", BENCH_MODULES["workloads"])  # run_pass imports it
    config = workload.setup(tmp_path, seed=3)
    failed, digests = [], []
    for _ in range(2):
        runs = run.run_pass(workload, tmp_path, config)
        failed += [(r.command, r.exit_code, r.problems, r.output) for r in runs if r.failed]
        digests.append(run._digest(tmp_path))
    assert failed == []
    assert digests[0] == digests[1]
