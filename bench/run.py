#!/usr/bin/env python3
"""flowig benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The workload's set-up runs at least SETUPS
times and for at least SETUP_SECONDS (the median is `setup_s`); then its
timed CLI stages run back to back for `--seconds` seconds, at least
MIN_PASSES times, and `wall_s` and `items_per_s` are medians over those
passes. With `--trace 1` one more pass runs with every traced layer
wrapped, and the per-layer metrics of that pass are reported instead. The
last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
BLAS_THREADS = 1
SETUPS = 3
SETUP_SECONDS = 2.0
MIN_PASSES = 3



def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def bootstrap() -> int | None:
    """Pin the BLAS thread count and put the checkout's sources on the path.

    Returns the thread count, or None (with a message) when the sources are
    missing. Must run before numpy is imported, which loads OpenBLAS.
    """
    if not (SRC / "flowig" / "__init__.py").is_file():
        print(f"error: flowig sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return None
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    return threads


def env_record(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_set": threads,
        "blas_threads_reported": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS itself reports, if its library is loaded."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        # plain OpenBLAS, and the renamed 64-bit build in numpy's wheels
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _digest(work: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(work)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pass(workload, work: Path, config: Path, tracer=None):
    from workloads import run_stage

    runs = []
    for args in workload.stages:
        r = run_stage(config, list(args), tracer)
        if r.exit_code == 0:
            r.problems = workload.check(work, r)
        runs.append(r)
    return runs


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    import tracing

    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK_ROOT))
    try:
        setup_times = []
        work = None
        while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
            if work is not None:
                shutil.rmtree(work)
            work = scratch / f"setup{len(setup_times)}"
            work.mkdir()
            t0 = time.perf_counter()
            config = workload.setup(work, seed)
            setup_times.append(time.perf_counter() - t0)

        passes, digests = [], []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(run_pass(workload, work, config))
            digests.append(_digest(work))
        result = {
            "setup_times": setup_times,
            "passes": passes,
            "digests": digests,
            "rates": [workload.rates(work, runs) for runs in passes],
            "quality": workload.quality(work),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if trace:
            tracer = tracing.Tracer()
            tracer.run = len(passes)
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                runs = run_pass(workload, work, config, tracer)
                traced_wall = time.perf_counter() - t0
            result["traced"] = runs
            result["digests"].append(_digest(work))
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["traced_wall"] = traced_wall
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _spread(values):
    return (f"n={len(values)} min={min(values):.6g} median={statistics.median(values):.6g}"
            f" max={max(values):.6g}")


def report(workload, args, env, r) -> dict:
    units = declared_units()
    walls = [sum(s.seconds for s in runs) for runs in r["passes"]]
    rates = {name: statistics.median(p[name] for p in r["rates"]) for name in r["rates"][0]}
    all_runs = [s for runs in r["passes"] for s in runs] + r.get("traced", [])
    failed = sum(s.failed for s in all_runs)
    identical = len(set(r["digests"])) == 1
    e2e = {
        "setup_s": statistics.median(r["setup_times"]),
        "wall_s": statistics.median(walls),
        "items_per_s": rates[workload.rate_name],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    print(f"flowig benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env, sort_keys=True))
    if workload.describe_inputs():
        print(workload.describe_inputs())
    print(f"closed loop, 1 client: {len(r['passes'])} passes of {' + '.join(s[0] for s in workload.stages)}")
    print(f"setup_s runs: {_spread(r['setup_times'])}")
    print(f"wall_s runs: {_spread(walls)}")
    for i, stage in enumerate(workload.stages):
        print(f"  {stage[0]} s: {_spread([runs[i].seconds for runs in r['passes']])}")
    named = {
        "setup_s": (e2e["setup_s"], "s", "lower"),
        "wall_s": (e2e["wall_s"], "s", "lower"),
    }
    for name, value in rates.items():
        named[name] = (value, "1/s", "higher")
    for name, value in r["quality"].items():
        named[name] = (value, "ratio", "lower" if "gap" in name else "higher")
    named["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB", "lower")
    named["failed_share"] = (failed / len(all_runs), "ratio", "lower")
    print("end-to-end (medians over set-ups and passes):")
    for name, (value, unit, better) in named.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {better} is better")
    for s in all_runs:
        if s.failed:
            print(f"FAILED {s.command} exit={s.exit_code} {'; '.join(s.problems)}")
            print("  " + s.output.strip().replace("\n", "\n  "))
    if not identical:
        print("FAILED: artifacts differ between passes")

    metrics = e2e
    if args.trace:
        layers = dict(r["layers"])
        layers["trace.overhead_s"] = r["traced_wall"] - statistics.median(walls)
        print(f"per-layer (one traced pass, wall {r['traced_wall']:.6g} s):")
        for name, value in layers.items():
            print(f"  {name:<42} {value:>14.6g} {units[name]}")
        metrics = layers
    return {
        "correct": failed == 0 and identical,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    threads = bootstrap()
    if threads is None:
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = env_record(threads)
    result = report(workload, args, env, measure(workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
