"""Command line surface: golden outputs, byte stability across runs,
exit codes and the file-output path."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import nkspectra
from nkspectra import spectrum
from nkspectra.cli import main
from nkspectra.rootrep import MAX_LABEL_BOX

CP3_TABLE = """\
spectrum  space=cp3  bundle=lambda11  cutoff=12
eigenvalue  irrep   hom_dim  dim  contribution
----------  ------  -------  ---  ------------
0           V(0,0)  1        1    1
8           V(1,0)  1        5    5
12          V(1,1)  2        10   20
entries: 3
"""

CP3_CSV = """\
eigenvalue,irrep,hom_dim,dim,contribution
0,"V(0,0)",1,1,1
8,"V(1,0)",1,5,5
12,"V(1,1)",2,10,20
"""

FLAG_MODULI_TABLE = """\
moduli-bound  space=flag
  eigenspace 12, primitive (1,1)  32
  isometry algebra dim            8
  eigenspace 12, functions        16
  nk moduli upper bound           8
  reported bound                  8
  einstein extras (eig 2, eig 6)  0, 0
  isotropy casimir                -1/3
  scal (unit -B metric)           5/2
"""


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_spectrum_table_golden(capsys):
    code, out = _run(capsys, "spectrum", "--space", "cp3", "--cutoff", "12")
    assert code == 0
    assert out == CP3_TABLE


def test_spectrum_csv_golden(capsys):
    code, out = _run(
        capsys, "spectrum", "--space", "cp3", "--cutoff", "12", "--format", "csv"
    )
    assert code == 0
    assert out == CP3_CSV


def test_moduli_table_golden(capsys):
    code, out = _run(capsys, "moduli-bound", "--space", "flag")
    assert code == 0
    assert out == FLAG_MODULI_TABLE


def test_output_is_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out = _run(capsys, "all", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# SHA-256 of `spectrum --format json --cutoff 1000` per (space, bundle),
# pinned from the root-data implementation of the eigenvalues, dimensions
# and the label walk
CUTOFF_1000_JSON_SHA256 = {
    ("s3xs3", "lambda11"): "fb6510a763d6b60cddaa2af97b5727f77c7d5f170650893f319f1c6180f082ce",
    ("s3xs3", "functions"): "fc98283c9bd09b223e1ef100d1452318033dc173d795710e559406e6954118d8",
    ("cp3", "lambda11"): "1cb4b1348c263666ed63ba6d45bfc4381b02a8aa77107a09027a370535969ff2",
    ("cp3", "functions"): "d0a3430f65cbf028c0def2bb339a3648f152e25459e757f818a4dd7def4b87f1",
    ("flag", "lambda11"): "63a02fe812439845913dec55e1031bd20a01cc3685a519bb4fd60b7417bc89a7",
    ("flag", "functions"): "e88fdcdbd249b3c7712a637a594550349c25514619a8bec1aaf5ed53ebcf4786",
}


@pytest.mark.parametrize("space,bundle", sorted(CUTOFF_1000_JSON_SHA256))
def test_spectrum_json_at_1000_is_pinned(monkeypatch, capsys, space, bundle):
    monkeypatch.setattr(spectrum, "_TABLES", {})
    code, out = _run(
        capsys, "spectrum", "--space", space, "--bundle", bundle,
        "--cutoff", "1000", "--format", "json",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CUTOFF_1000_JSON_SHA256[(space, bundle)]


def test_json_round_trip(capsys):
    code, out = _run(
        capsys, "spectrum", "--space", "s3xs3", "--cutoff", "12", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "spectrum"
    assert doc["space"] == "s3xs3"
    assert doc["bundle"] == "lambda11"
    assert doc["cutoff"] == "12"
    total = {}
    for entry in doc["entries"]:
        total[entry["eigenvalue"]] = total.get(entry["eigenvalue"], 0) + entry["contribution"]
    assert total == {"9": 12, "12": 9}


def test_moduli_json_fields(capsys):
    for space, bound in (("s3xs3", 0), ("cp3", 0), ("flag", 8)):
        code, out = _run(capsys, "moduli-bound", "--space", space, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["reported_bound"] == bound
        assert doc["einstein_extra"] == [0, 0]
        assert doc["isotropy_casimir"] == "-1/3"
        assert doc["scal"] == "5/2"
    flag = json.loads(_run(capsys, "moduli-bound", "--space", "flag", "--format", "json")[1])
    assert flag["dim_eigenspace_12_primitive_11"] == 32
    assert flag["dim_isometry"] == 8
    assert flag["dim_eigenspace_12_functions"] == 16


def test_einstein_check(capsys):
    code, out = _run(capsys, "einstein-check", "--space", "cp3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicity_at_2"] == 0
    assert doc["multiplicity_at_6"] == 0
    assert doc["einstein_deformations_excluded"] is True


def test_verify_flag_exits_zero(capsys):
    code, out = _run(capsys, "verify-flag", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(suite["passed"] for suite in doc["suites"])


def test_verify_flag_table_output(capsys):
    code, out = _run(capsys, "verify-flag")
    assert code == 0
    assert "suite pointwise_identities: PASS" in out
    assert "FAIL" not in out


def test_identities_subcommand(capsys):
    code, out = _run(capsys, "identities", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "identities"
    assert [s["suite"] for s in doc["suites"]] == ["pointwise_identities"]
    assert doc["passed"] is True


def test_all_subcommand_structure(capsys):
    code, out = _run(capsys, "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["spectrum"]) == 6
    assert len(doc["moduli"]) == 3
    assert len(doc["einstein"]) == 3
    assert doc["verification"]["passed"] is True
    assert {m["space"]: m["reported_bound"] for m in doc["moduli"]} == {
        "s3xs3": 0,
        "cp3": 0,
        "flag": 8,
    }


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--space", "cp3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--space", "nowhere", "--cutoff", "12"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--space", "cp3", "--cutoff", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--space", "cp3", "--cutoff", "a/b"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["all", "--format", "csv"])
    assert exc.value.code == 2


def test_rational_cutoff_accepted(capsys):
    code, out = _run(
        capsys,
        "spectrum", "--space", "flag", "--cutoff", "16/3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cutoff"] == "16/3"
    # V(1,0) and V(0,1) live at 16/3 but have no primitive (1,1) content
    assert [e["eigenvalue"] for e in doc["entries"]] == ["0"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main([
        "moduli-bound", "--space", "flag", "--format", "json",
        "--output", str(target),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["nk_upper_bound"] == 8


def test_all_csv_refused_before_any_computation(monkeypatch):
    from nkspectra import cli

    def computed(cutoff):
        raise RuntimeError("the report was built before the usage check")

    monkeypatch.setattr(cli, "_all_payload", computed)
    with pytest.raises(SystemExit) as exc:
        main(["all", "--format", "csv"])
    assert exc.value.code == 2


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["moduli-bound", "--space", "flag", "--output", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"nkspectra: cannot write {target}: No such file or directory\n"
    )


def _cli(*argv, optimize=False):
    src = os.path.dirname(os.path.dirname(nkspectra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "nkspectra.cli", *argv],
        capture_output=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "space,cutoff", [("s3xs3", "1e8"), ("flag", "1e9"), ("cp3", "1e400")]
)
def test_huge_cutoff_is_refused_up_front(space, cutoff):
    start = time.perf_counter()
    proc = _cli("spectrum", "--space", space, "--cutoff", cutoff)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("nkspectra: ") and err.count("\n") == 1
    assert str(MAX_LABEL_BOX) in err
    # the line names the family, not the cutoff, however long that is
    assert len(err) < 100
    # a guard against an unbounded walk: the refusal itself takes
    # milliseconds, the rest is interpreter start-up
    assert elapsed < 10


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--space", "cp3", "--cutoff", "1e10000000"),
        ("all", "--cutoff", "1e-10000000"),
    ],
    ids=["spectrum", "all"],
)
def test_exponent_cutoff_is_a_fast_usage_error(argv):
    start = time.perf_counter()
    proc = _cli(*argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"decimal exponent beyond 4300 in magnitude" in proc.stderr
    # converting the literal would build a ten-million-digit power of ten
    assert elapsed < 10


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--space", "cp3", "--cutoff", "1e-4300"),
        ("all", "--cutoff", "1e-4300"),
    ],
    ids=["spectrum", "all"],
)
def test_long_cutoff_denominator_is_a_usage_error(argv):
    # 1/10**4300 has a 4301-digit denominator, which str() cannot print
    proc = _cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "argument --cutoff: cutoff denominator beyond 4300 digits"
    )


def test_cutoff_denominator_bound_is_4300_digits():
    from nkspectra.cli import _fraction_arg

    # both reduce to 4300-digit denominators
    assert _fraction_arg("2.5E-4300") == Fraction(1, 4 * 10**4299)
    assert _fraction_arg("1.5e-4299") == Fraction(3, 2 * 10**4299)
    for text in ("1e-4300", "1.3e-4300", "0.1E-4_299"):
        with pytest.raises(argparse.ArgumentTypeError, match="denominator"):
            _fraction_arg(text)
    proc = _cli("spectrum", "--space", "cp3", "--cutoff", "2.5E-4300", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cutoff"] == "1/4" + "0" * 4299


def test_exponent_cutoff_bound_is_4300():
    from nkspectra.cli import _fraction_arg

    assert _fraction_arg("1e4300") == 10**4300
    assert _fraction_arg("2.5E-4_300") == Fraction(5, 2 * 10**4300)
    assert _fraction_arg("1e0_0001") == 10
    for text in ("1e4301", "-1e-4301", "1e00000000000000004301", "1e43_010"):
        with pytest.raises(argparse.ArgumentTypeError, match="exponent"):
            _fraction_arg(text)


@pytest.mark.parametrize("case", ["flag", "cp3", "s3xs3", "verify-flag", "identities"])
def test_cli_under_dash_O_is_byte_identical(case):
    if case in ("flag", "cp3", "s3xs3"):
        argv = ("spectrum", "--space", case, "--cutoff", "12", "--format", "json")
    else:
        argv = (case, "--format", "json")
    plain = _cli(*argv)
    optimized = _cli(*argv, optimize=True)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert plain.stdout
