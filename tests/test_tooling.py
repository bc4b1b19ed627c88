"""The test configuration and the names the benchmark's tracer wraps."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = '''\
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # with warnings as errors, hypothesis' failure report used to raise a
    # DeprecationWarning inside a pytest hook: INTERNALERROR, and the
    # tests after it never ran
    (tmp_path / "test_probe.py").write_text(_PROBE, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_probe.py"),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def _traced_names():
    tree = ast.parse((ROOT / "benchmarks" / "traced.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/traced.py defines no TRACED literal")


def test_every_traced_name_resolves():
    traced = _traced_names()
    assert traced
    for modname, names in traced.items():
        mod = importlib.import_module(f"nkspectra.{modname}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{modname}.{name}"
    rootrep = importlib.import_module("nkspectra.rootrep")
    assert callable(rootrep.WeightTable.multiplicity)
