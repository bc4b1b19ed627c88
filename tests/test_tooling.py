"""The test configuration and the names the benchmark's tracer wraps."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


_MATRIX_CALLS = """\
import sys
calls = []
def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_name in ("sparse_mul", "_sparse_inner"):
        calls.append(frame.f_code.co_name)
sys.setprofile(hook)
import nkspectra.dga as dga
during_import = len(calls)
dga.killing_values(dga.BASIS_UNITS[0], dga.IDENTITY)
sys.setprofile(None)
print(during_import, len(calls) - during_import)
"""


def test_importing_dga_does_no_matrix_arithmetic(run_python):
    # the brackets are a literal table; the matrices serve killing_values
    # alone, which the hook does see
    proc = run_python(["-c", _MATRIX_CALLS])
    assert proc.returncode == 0, proc.stderr
    during_import, after = map(int, proc.stdout.split())
    assert during_import == 0
    assert after > 0


# every subcommand, on every space and bundle it takes, under a hook that
# counts calls of the weight-table oracles and of the Fraction weights they
# read, installed before the package is imported; then each name once, so
# the hook is seen to work
_ORACLE_NAMES = (
    "weight_multiplicities", "restrict_so5_to_u2", "canonical_weight", "weight_inner",
    "highest_weight",
)
_ORACLE_CALLS = f"""\
import contextlib, io, sys
from collections import Counter
calls = Counter()
def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_name in {_ORACLE_NAMES!r}:
        calls[frame.f_code.co_name] += 1
sys.setprofile(hook)
from nkspectra import branching, cli, rootrep
runs = 0
for command, (_, options, *_) in cli._COMMANDS.items():
    flags = {{flag for flag, *_ in options}}
    spaces = [s.value for s in branching.Space] if "--space" in flags else [None]
    bundles = [b.value for b in branching.Bundle] if "--bundle" in flags else [None]
    for space in spaces:
        for bundle in bundles:
            argv = [command, "--format", "json"]
            argv += ["--space", space] * bool(space) + ["--bundle", bundle] * bool(bundle)
            argv += ["--cutoff", "60"] if "--cutoff" in flags else []
            with contextlib.redirect_stdout(io.StringIO()):
                runs += cli.main(argv) == 0
print(runs)
print(sorted(calls.items()))
calls.clear()
branching.restrict_so5_to_u2(rootrep.so5_label(1, 1))
rootrep.weight_inner(rootrep.Group.SU3, (1, 0, -1), rootrep.su3_label(1, 1).highest_weight())
sys.setprofile(None)
print(sorted(calls))
"""


def test_no_command_reaches_the_weight_table_oracles(run_python):
    # the tables of weight_multiplicities and restrict_so5_to_u2 are test
    # oracles, and so are the Fraction weights of canonical_weight,
    # weight_inner and highest_weight, so no report, and no import, may
    # rest on them
    proc = run_python(["-c", _ORACLE_CALLS])
    assert proc.returncode == 0, proc.stderr
    runs, during_commands, after = proc.stdout.decode().splitlines()
    assert runs == "15"
    assert during_commands == "[]"
    assert after == repr(sorted(_ORACLE_NAMES))


def _imported_roots(path: Path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_stay_within_the_declared_dependencies():
    # pyproject.toml declares no runtime dependency and the test extra
    # pytest and hypothesis
    stdlib = set(sys.stdlib_module_names)
    for path in sorted((ROOT / "src" / "nkspectra").glob("*.py")):
        assert set(_imported_roots(path)) <= stdlib, path.name
    allowed = stdlib | {"pytest", "hypothesis", "nkspectra"}
    for path in sorted((ROOT / "tests").glob("*.py")):
        assert set(_imported_roots(path)) <= allowed, path.name


def _unused_imports(path: Path):
    """Names bound by an import in one source file and never loaded there;
    __future__ imports bind nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_every_imported_name_is_used():
    # the package's __init__ imports in order to re-export
    for path in sorted((ROOT / "src" / "nkspectra").glob("*.py")):
        if path.stem != "__init__":
            assert _unused_imports(path) == [], path.name


def test_every_private_name_is_read():
    # a module-level _name (a helper, a table, a loop variable) that no
    # source file reads is dead code; __dunder__ names and _ are exempt
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "nkspectra").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                names = [
                    node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                ]
            for name in names:
                if name.startswith("_") and not name.startswith("__") and name != "_":
                    defined.setdefault(name, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 50
    assert {name: defined[name] for name in sorted(set(defined) - read)} == {}


def test_only_dga_reads_the_stored_terms():
    # the (mask, slot) key format is dga's own; every other module reads a
    # form through slot_values, constant_part or format_form
    for path in sorted((ROOT / "src" / "nkspectra").glob("*.py")):
        if path.stem == "dga":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "terms"
        ]
        assert reads == [], path.name


def test_only_dga_eliminates():
    # dga.kernel is the one elimination in src/: no other module imports,
    # names or calls gcd or lcm
    for path in sorted((ROOT / "src" / "nkspectra").glob("*.py")):
        if path.stem == "dga":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = [
            node.lineno for node in ast.walk(tree)
            if {"gcd", "lcm"} & {
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
            }
        ]
        assert uses == [], path.name


def _int_literal(node) -> int:
    """The value of an int literal (a bool is not one), else -1."""
    is_int = isinstance(node, ast.Constant) and type(node.value) is int
    return node.value if is_int else -1


def _frame_shape_literals(path: Path):
    """Line numbers where a file restates the flag frame's shape: a range()
    with a literal bound above 3, the literal 63, 511 or 512, or a shift by
    the literal 6."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range":
            found = any(_int_literal(arg) > 3 for arg in node.args)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)):
            found = _int_literal(node.right) == 6
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.LShift, ast.RShift)):
            found = _int_literal(node.value) == 6
        else:
            found = _int_literal(node) in (63, 511, 512)
        if found:
            yield node.lineno


@pytest.mark.parametrize("module", ["dga", "nkcheck"])
def test_the_frame_shape_is_read_off_the_frame_data(module):
    # the frame's indices are stated once, as branching's _HORIZONTAL,
    # _VERTICAL and _FRAME; a bound such as range(1, 10), 512 masks or
    # mask >> 6 would state the flag's 6 + 3 indices a second time
    path = ROOT / "src" / "nkspectra" / f"{module}.py"
    assert list(_frame_shape_literals(path)) == []


def test_readme_names_of_the_package_resolve():
    # every backticked `module.NAME` in README.md that starts with a
    # nkspectra module (with or without the package prefix) names an
    # attribute, so a deleted or renamed name cannot linger in the docs
    modules = {path.stem for path in (ROOT / "src" / "nkspectra").glob("*.py")}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    checked = 0
    for dotted in re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", text):
        parts = dotted.split(".")
        if parts[0] == "nkspectra":
            parts = parts[1:]
        if parts[0] not in modules:
            continue
        obj = importlib.import_module(f"nkspectra.{parts[0]}")
        for part in parts[1:]:
            assert hasattr(obj, part), dotted
            obj = getattr(obj, part)
        checked += 1
    assert checked >= 7


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--space", "cp3", "--cutoff", "12", "--format", "json"),
        ("identities", "--format", "json"),
    ],
)
def test_traced_run_reports_every_command(argv, run_python):
    # traced.py reads sys.modules["nkspectra.nkcheck"] right after it
    # imports nkspectra.cli, so cli must put the module there even for a
    # command that never loads it
    traced = run_python([str(ROOT / "benchmarks" / "traced.py"), *argv])
    assert traced.returncode == 0, traced.stderr
    report = json.loads(traced.stderr.splitlines()[-1])
    assert report["exit_code"] == 0 and report["stderr"] == ""
    assert traced.stdout == run_python(["-m", "nkspectra.cli", *argv]).stdout
    ran = {name for name in report["self_s"] if name.startswith("nkcheck.")}
    if argv[0] == "identities":
        assert ran == {"nkcheck.verify_pointwise_identities"}
        assert report["counts"]["nkcheck.checks"] > 0
        assert report["counts"]["nkcheck.checks_passed"] == report["counts"]["nkcheck.checks"]
    else:
        assert ran == set()


def _benchmark_workloads(monkeypatch):
    # imported from benchmarks/ without writing a __pycache__ there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_output_gate_passes_in_process(seed, monkeypatch, capsys):
    # the benchmark's own check on every invocation of every workload:
    # byte-identity with the seed reference, then the closed forms, so a
    # changed byte fails here as well as in benchmarks/run.py
    from nkspectra import cli, spectrum

    workloads = _benchmark_workloads(monkeypatch)
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        for inv in workloads.build(name, seed):
            monkeypatch.setattr(spectrum, "_TABLES", {})
            code = cli.main(list(inv.argv))
            stdout = capsys.readouterr().out.encode("utf-8")
            assert code == 0, inv.argv
            assert workloads.check_output(reference, inv, stdout) == [], inv.argv
