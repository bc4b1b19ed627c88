#!/usr/bin/env python3
"""Cold-process benchmark of the ``nkspectra`` command line.

    python3 benchmarks/run.py --workload spectrum-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The load is a closed loop: this process starts one ``nkspectra`` process
at a time, waits for it, checks its output and starts the next.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones declared in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics.  Set-up is the median of
several fresh interpreters that import ``nkspectra.cli``; then rounds of
the workload's invocations run until ``--seconds`` have passed, and each
timing is the median over rounds.  Every timing is also divided by a
fixed stdlib-only ``Fraction`` loop timed right before and after each
invocation (the ``*_norm`` metrics), which cancels most host drift.

``--trace 1`` reports the per-layer metrics.  It alternates an untraced
round with a round in which every invocation runs under ``traced.py``,
which wraps the public functions of each module in spans.  Traced stdout
must be byte-identical to untraced stdout, and work counters must repeat
exactly from round to round.

``--tiny`` moves every cutoff into the cutoff-12 band (used by
``selftest.py``).  The benchmark refuses to run when NK_SPECTRA_THREADS
is set, because its load is one single-threaded process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD_TIMEOUT = 150
MODULES = ("rootrep", "branching", "spectrum", "dga", "nkcheck", "cli")


# --------------------------------------------------------------------------
# host calibration

def _fraction_loop() -> float:
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 20000):
        acc += Fraction(1, i % 97 + 1)
    return perf_counter() - start


def calibrate() -> float:
    """Mean of four runs of a fixed loop with no nkspectra code."""
    return statistics.fmean(_fraction_loop() for _ in range(4))


# --------------------------------------------------------------------------
# cold processes

@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    maxrss_mb: float


def spawn(argv: Sequence[str]) -> Child:
    """Run one process to completion; wall time and peak RSS are its own
    (the RSS comes from the rusage that ``os.wait4`` returns for it).
    A process still running after CHILD_TIMEOUT is killed and ends the
    benchmark, which must finish within three minutes."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    err: List[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if wall >= CHILD_TIMEOUT:
        raise SystemExit(f"run.py: {' '.join(argv)} ran for more than {CHILD_TIMEOUT} s")
    return Child(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


# --------------------------------------------------------------------------
# measurement

class Tally:
    """Invocations attempted and failed, with the reasons on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAILED {what}: {p}", file=sys.stderr)


def child_problems(child: Child) -> List[str]:
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    if child.stderr:
        problems.append("stderr: " + child.stderr.decode(errors="replace")[:200])
    return problems


@dataclass
class Round:
    wall: Dict[str, float]  # by invocation kind
    norm: Dict[str, float]
    setup: List[float]  # fresh interpreters importing nkspectra.cli
    setup_norm: List[float]
    cal: float
    maxrss_mb: float
    stdout: List[bytes]


SETUP_ARGV = ["-c", "import nkspectra.cli"]
SETUP_PER_ROUND = 2


def run_round(invocations, reference, tally: Tally) -> Round:
    """Each invocation once, cold, then SETUP_PER_ROUND set-up samples,
    with a calibration point between any two processes.  A process's wall time
    is normalised by the mean of the calibration points on either side."""
    cals = [calibrate()]
    walls, outs, rss = [], [], 0.0
    for inv in invocations:
        child = spawn(["-m", "nkspectra.cli", *inv.argv])
        cals.append(calibrate())
        walls.append(child.wall)
        outs.append(child.stdout)
        rss = max(rss, child.maxrss_mb)
        problems = child_problems(child) or workloads.check_output(
            reference, inv, child.stdout
        )
        tally.record(" ".join(inv.argv), problems)
    setups = []
    for _ in range(SETUP_PER_ROUND):
        child = spawn(SETUP_ARGV)
        cals.append(calibrate())
        setups.append(child.wall)
        tally.record("import nkspectra.cli", child_problems(child))
    norms = [
        w / ((cals[i] + cals[i + 1]) / 2) for i, w in enumerate(walls + setups)
    ]
    n = len(walls)
    kinds = [inv.kind for inv in invocations]
    return Round(
        wall=dict(zip(kinds, walls)), norm=dict(zip(kinds, norms[:n])),
        setup=setups, setup_norm=norms[n:],
        cal=statistics.median(cals), maxrss_mb=rss, stdout=outs,
    )


def rounds(name, seed, tiny, seconds, play):
    """Play rounds in the seeded invocation order until the next one
    would end after ``seconds``; there is always at least one."""
    base = workloads.build(name, seed, tiny)
    rng = random.Random(f"order:{name}:{seed}")
    spawn(SETUP_ARGV)  # fills the bytecode cache
    start = perf_counter()
    out = []
    while True:
        order = list(base)
        rng.shuffle(order)
        out.append(play(order))
        elapsed = perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def typical_run(played: Sequence[Round], field: str) -> float:
    """One run of the workload: the median over rounds of each invocation,
    summed over the invocations (more robust to a slow burst than the
    median of round totals)."""
    kinds = getattr(played[0], field)
    return sum(
        statistics.median(getattr(r, field)[kind] for r in played) for kind in kinds
    )


def end_to_end(name, seed, seconds, tiny):
    tally = Tally()
    reference = workloads.load_reference()
    played = rounds(
        name, seed, tiny, seconds, lambda order: run_round(order, reference, tally)
    )
    metrics = {
        "run_norm": typical_run(played, "norm"),
        "setup_s": statistics.median(s for r in played for s in r.setup),
        "setup_norm": statistics.median(s for r in played for s in r.setup_norm),
        "peak_rss_mb": max(r.maxrss_mb for r in played),
    }
    return tally, metrics


# --------------------------------------------------------------------------
# traced run

def sloc() -> Dict[str, float]:
    """Non-blank lines that are not comments, per module of src/nkspectra."""
    out = {}
    for mod in MODULES:
        text = (SRC / "nkspectra" / f"{mod}.py").read_text(encoding="utf-8")
        out[f"sloc.{mod}"] = sum(
            1 for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
    out["sloc.total"] = sum(out.values())
    return out


def traced_round(order, untraced: Round, tally: Tally) -> Dict:
    """Every invocation under traced.py; sums its reports over the round."""
    times, counts, imports = Counter(), Counter(), []
    wall = main_s = 0.0
    output_bytes = 0
    for inv, expected in zip(order, untraced.stdout):
        child = spawn([str(HERE / "traced.py"), *inv.argv])
        wall += child.wall
        output_bytes += len(child.stdout)
        try:
            report = json.loads(child.stderr)
        except ValueError:
            tally.record("traced " + " ".join(inv.argv), ["no trace report"])
            continue
        problems = []
        if report["exit_code"] != 0 or report["stderr"]:
            problems.append(f"exit {report['exit_code']} {report['stderr'][:200]}")
        if child.stdout != expected:
            problems.append("traced stdout differs from untraced stdout")
        tally.record("traced " + " ".join(inv.argv), problems)
        imports.append(report["imports"])
        main_s += report["main_s"]
        times.update(report["self_s"])
        counts.update(report["counts"])
    return {
        "wall": wall, "main_s": main_s, "times": times, "counts": counts,
        "imports": imports, "output_bytes": output_bytes,
    }


def per_layer(name, seed, seconds, tiny, declared: Dict[str, str]):
    tally = Tally()
    reference = workloads.load_reference()

    def play(order):
        untraced = run_round(order, reference, tally)
        return untraced, traced_round(order, untraced, tally)

    pairs = rounds(name, seed, tiny, seconds, play)

    first = pairs[0][1]["counts"]
    for _, traced in pairs[1:]:
        if traced["counts"] != first:
            tally.failed += 1
            print("FAILED: work counters differ between traced rounds", file=sys.stderr)

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics: Dict[str, float] = {}
    span_names = {k for _, t in pairs for k in t["times"]}
    for span in span_names:
        metrics[span + ".self_s"] = med([t["times"].get(span, 0.0) for _, t in pairs])
    metrics["trace.main_s"] = med([t["main_s"] for _, t in pairs])
    for mod in MODULES[:-1]:
        metrics[mod + ".self_s"] = sum(
            v for k, v in metrics.items()
            if k.startswith(mod + ".") and k.endswith(".self_s")
        )
    main_s = metrics["trace.main_s"]
    for key in list(metrics):
        if key.endswith(".self_s"):
            metrics[key[: -len("_s")] + "_frac"] = metrics[key] / main_s if main_s else 0.0

    metrics.update(first)

    def ratio(part: str, whole: str) -> float:
        return first.get(part, 0) / first[whole] if first.get(whole) else 0.0

    metrics["branching.weights_read_ratio"] = ratio(
        "branching.weights_read", "rootrep.weights_built"
    )
    metrics["branching.hom_nonzero_ratio"] = ratio(
        "branching.hom_nonzero", "branching.hom_dimension.calls"
    )
    for key in ("import.nkspectra_s", "import.dga_s", "import.cli_s"):
        metrics[key] = med([i[key] for _, t in pairs for i in t["imports"]])
    metrics["cli.output_bytes"] = pairs[0][1]["output_bytes"]
    metrics["trace.overhead_frac"] = med(
        [t["wall"] / sum(u.wall.values()) - 1 for u, t in pairs]
    )
    metrics["host.cal_s"] = med([u.cal for u, _ in pairs])
    metrics.update(sloc())
    metrics["failed_frac"] = tally.failed / tally.attempted
    metrics["run_s"] = typical_run([u for u, _ in pairs], "wall")
    # a layer the workload never enters has zero counts and zero time
    for key, unit in declared.items():
        if unit == "count" or key.endswith((".self_s", ".self_frac")):
            metrics.setdefault(key, 0)
    return tally, metrics


# --------------------------------------------------------------------------
# entry point

def declared_metrics(trace: bool) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def result(tally: Tally, metrics: Dict[str, float], units: Dict[str, str]) -> Dict:
    missing = [name for name in units if name not in metrics]
    if missing:
        raise SystemExit(f"run.py: metrics not measured: {missing}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="cutoff-12 variant")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if "NK_SPECTRA_THREADS" in os.environ:
        print("run.py: unset NK_SPECTRA_THREADS; the load is single-threaded",
              file=sys.stderr)
        return 2
    if not (SRC / "nkspectra" / "cli.py").is_file():
        print(f"run.py: no nkspectra sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    if args.trace:
        tally, metrics = per_layer(args.workload, args.seed, args.seconds, args.tiny, units)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds, args.tiny)
    print(json.dumps(result(tally, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
