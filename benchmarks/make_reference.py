#!/usr/bin/env python3
"""Regenerate ``reference.json`` from the ``nkspectra`` in ``src/``.

    python3 benchmarks/make_reference.py

Each workload kind is run once at the top of its cutoff band; the
benchmark truncates these outputs to the cutoff it draws.  The committed
file was made from the seed commit and pins its exact output, so only
regenerate it when the output is meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import REFERENCE_PATH, WORKLOADS, argv_for  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _run(argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("NK_SPECTRA_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-m", "nkspectra.cli", *argv],
        env=env, cwd=ROOT, capture_output=True, check=True,
    )
    return json.loads(out.stdout)


def main() -> None:
    reference = {"spectrum": {}}
    for workload in WORKLOADS.values():
        top = workload.band[1]
        for kind in workload.kinds:
            payload = _run(argv_for(kind, top))
            if kind == "all":
                reference["all"] = payload
            else:
                reference["spectrum"][kind] = payload
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
