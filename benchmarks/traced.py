#!/usr/bin/env python3
"""Run one ``nkspectra`` command with spans around its public functions.

    PYTHONPATH=src python3 benchmarks/traced.py spectrum --space cp3 --cutoff 12

The program's stdout passes through unchanged.  Its stderr is captured,
and at exit one JSON object goes to stderr instead: import times, the
self time and call count of every wrapped function, and work counters.

Wrapping happens from outside: each listed function is replaced, in every
``nkspectra`` module that holds the same function object (``from``
imports such as ``nkcheck.d`` or ``spectrum.hom_dimension`` included),
by a wrapper that records a span (name, start, end, parent) in memory.
A span's self time is its duration minus that of its child spans, so the
self times of all spans add up to the ``cli.main`` span.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from collections import Counter
from time import perf_counter

_t0 = perf_counter()
import nkspectra  # noqa: E402  rootrep, branching, spectrum

_t1 = perf_counter()
import nkspectra.dga  # noqa: E402  structure constants are built at import

_t2 = perf_counter()
import nkspectra.cli  # noqa: E402  nkcheck and the command line

_t3 = perf_counter()

IMPORTS = {
    "import.nkspectra_s": _t1 - _t0,
    "import.dga_s": _t2 - _t1,
    "import.cli_s": _t3 - _t2,
}

# module -> public functions that get a span
TRACED = {
    "rootrep": (
        "weight_multiplicities", "iter_labels", "laplace_eigenvalue",
        "root_system", "dimension",
    ),
    "branching": ("hom_dimension", "restrict_so5_to_u2", "isotropy_module"),
    "spectrum": ("enumerate_spectrum",),
    "dga": (
        "d", "wedge", "hodge_star", "codifferential", "laplacian", "inner",
        "apply_j", "type_decompose", "contract_frame", "contract_vector",
        "alpha", "vertical_lie_derivative", "basic_check", "killing_data",
        "killing_values",
    ),
    "nkcheck": (
        "verify_pointwise_identities", "verify_killing_suite",
        "verify_eigenfunction_suite", "verify_moduli_generators",
        "verify_injectivity_argument",
    ),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = [-1]
        self.counts = Counter()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, counter):
        """Time the creation and every resumption of the returned
        generator, so the work done while iterating lands in the span."""
        create = self.wrap(name, fn)

        def resume(gen):
            while True:
                index = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resume(create(*args, **kwargs))

        return wrapper

    def self_times(self):
        out = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out


def install(tracer: Tracer) -> None:
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "nkspectra"]
    counts = tracer.counts
    rootrep = sys.modules["nkspectra.rootrep"]

    def built(table):
        counts["rootrep.weights_built"] += len(table.entries)

    def hom(value):
        counts["branching.hom_nonzero"] += value > 0

    def entries(result):
        counts["spectrum.entries"] += len(result)

    def terms(form):
        counts["dga.d.terms_out"] += len(form.terms)

    def checks(report):
        counts["nkcheck.checks"] += len(report.checks)
        counts["nkcheck.checks_passed"] += sum(c.passed for c in report.checks)

    def reads_whole_table(fn):
        # the so5 -> u2 restriction walks every entry of the table it builds
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            before = counts["rootrep.weights_built"]
            result = fn(*args, **kwargs)
            counts["branching.weights_read"] += counts["rootrep.weights_built"] - before
            return result

        return inner

    hooks = {
        "rootrep.weight_multiplicities": built,
        "branching.hom_dimension": hom,
        "spectrum.enumerate_spectrum": entries,
        "dga.d": terms,
    }
    for modname, names in TRACED.items():
        mod = sys.modules["nkspectra." + modname]
        for fname in names:
            name = f"{modname}.{fname}"
            original = getattr(mod, fname)
            if name == "rootrep.iter_labels":
                wrapped = tracer.wrap_generator(name, original, "rootrep.labels_walked")
            elif name == "branching.restrict_so5_to_u2":
                wrapped = tracer.wrap(name, reads_whole_table(original))
            else:
                after = checks if modname == "nkcheck" else hooks.get(name)
                wrapped = tracer.wrap(name, original, after)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    lookup = rootrep.WeightTable.multiplicity

    @functools.wraps(lookup)
    def multiplicity(self, weight):
        counts["branching.weights_read"] += 1
        return lookup(self, weight)

    rootrep.WeightTable.multiplicity = multiplicity


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        try:
            code = nkspectra.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    roots = [s for s in tracer.spans if s[3] == -1]
    report = {
        "exit_code": code,
        "stderr": captured.getvalue(),
        "imports": IMPORTS,
        "main_s": sum(end - start for _, start, end, _ in roots),
        "self_s": tracer.self_times(),
        "counts": tracer.counts,
    }
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
