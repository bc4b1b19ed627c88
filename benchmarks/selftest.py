#!/usr/bin/env python3
"""Self-test of the benchmark on the cutoff-12 variant of each workload.

    python3 benchmarks/selftest.py

It makes no assertion on timings.  For every workload it checks that
each declared metric is printed with its declared unit, that the work
counters of two traced runs (different seeds, same band) are identical,
that the per-layer self times add up to the traced ``cli.main`` time,
and that a deliberately corrupted output is counted as failed.
Exits non-zero with a message on the first violation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

LAYER_TOTALS = (
    "rootrep.self_s", "branching.self_s", "spectrum.self_s", "dga.self_s",
    "nkcheck.self_s", "cli.main.self_s",
)


def fail(message: str) -> None:
    raise SystemExit(f"selftest: {message}")


def bench(name: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        fail(f"{name} trace={trace} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")
    declared = run.declared_metrics(bool(trace))
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail(f"{name} trace={trace}: printed metrics differ from BENCHMARK.json")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: {key} = {value!r}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def corrupted_failed_frac(name: str) -> float:
    """Per-layer run in-process with one digit of every output flipped."""
    spawn = run.spawn

    def corrupting_spawn(argv):
        child = spawn(argv)
        if argv[:2] == ["-m", "nkspectra.cli"]:
            child.stdout = child.stdout.replace(b"1", b"7", 1)
        return child

    run.spawn = corrupting_spawn
    try:
        declared = run.declared_metrics(True)
        with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED lines
            tally, metrics = run.per_layer(name, 1, 0, True, declared)
    finally:
        run.spawn = spawn
    if tally.failed == 0:
        fail(f"{name}: corrupted output was not counted as failed")
    return metrics["failed_frac"]


def main() -> int:
    for name in workloads.WORKLOADS:
        e2e = bench(name, 1, 0)
        first, second = bench(name, 1, 1), bench(name, 2, 1)
        units = run.declared_metrics(True)
        for key, unit in units.items():
            if unit == "count" and first[key] != second[key]:
                fail(f"{name}: {key} {first[key]} then {second[key]}")
        total = sum(first[k] for k in LAYER_TOTALS)
        if not math.isclose(total, first["trace.main_s"], rel_tol=1e-6):
            fail(f"{name}: self times add up to {total}, cli.main took "
                 f"{first['trace.main_s']}")
        frac = corrupted_failed_frac(name)
        if not frac > 0:
            fail(f"{name}: failed_frac {frac} after corruption")
        print(f"ok {name}: run_norm={e2e['run_norm']:.3f} "
              f"enumerate_spectrum.calls={first['spectrum.enumerate_spectrum.calls']} "
              f"corrupted failed_frac={frac:.2f}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
