"""Command line surface: golden outputs, byte stability across runs,
exit codes and the file-output path."""

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from nkspectra import cli, nkcheck, spectrum
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


# SHA-256 of stdout for every subcommand in every format it accepts, on
# each space, pinned before the subcommands shared one dispatch table
REPORT_SHA256 = {
    "spectrum": {
        "--space s3xs3 --cutoff 12 --format table": "1a3eec64ba2e65071ba9686a67f9cf7e3e735c948d7e779bc66f4595fa037503",
        "--space s3xs3 --cutoff 12 --format json": "e0c5058cbee3550051092a211cf177f363019ebad42610a0456523221071fa8e",
        "--space s3xs3 --cutoff 12 --format csv": "83cdb7cc28082d7eb6ef438b943cadbdf193b6ec82f0437a8168d4a11edd2755",
        "--space cp3 --cutoff 12 --format table": "c615ee1ef67ae92a7d695a79b0467c03ee964537d5f66aab5691c6877a4e513f",
        "--space cp3 --cutoff 12 --format json": "20900126102221a245c6cf23fde9bc1937cb85b00a6d6b420a2c5e4a7212ef8b",
        "--space cp3 --cutoff 12 --format csv": "26d62caeaae01bd68e89a381d5aad2cd6ff52630ec58c3a385b16ceafa17694f",
        "--space flag --cutoff 12 --format table": "8700a141e554abe99fc24418de83e3f1726391b7f0e19f2b71b3ba18af03f4e2",
        "--space flag --cutoff 12 --format json": "a9592a644293987a2c0ed06232ac14c561d9dfc1fc6b46de7467adcc1942b219",
        "--space flag --cutoff 12 --format csv": "80a1404089b431c4409b8e6aa51ce7588c373902feebe143a1cfd5363757025c",
    },
    "moduli-bound": {
        "--space s3xs3 --format table": "e4805310c5ca0c3a5458cfca39969d46732645c19547a9508ecba49c93714ca2",
        "--space s3xs3 --format json": "b1ca907c3c6a679fcac520f0673e27492bcb67a8461fdf54ab71662593f197ca",
        "--space s3xs3 --format csv": "01fcc90214c94ebfd6ce452a3bdd6cb98788eb3d622e3dee94998145bac5b1f2",
        "--space cp3 --format table": "5140d05870d4f2a214531fbc536f3b6ee497dd2804b107213da83b9d1d657b25",
        "--space cp3 --format json": "e559c523b6cf6aa24463265797a75dad3aed2bcb393813ba97672906a24c0f03",
        "--space cp3 --format csv": "ff47735789aa024bc4a4498046ea3a321877697ddc00e0f2958708d22dc7ca98",
        "--space flag --format table": "1f606a6eeb8ac9afd4eb5de2688f2d1617d805077ba8e044ad575ede9b44e621",
        "--space flag --format json": "b589247adc835294a154e4bd404ebe819381edbadb3fa9ab0e249cbffdc89f68",
        "--space flag --format csv": "5f1b07a69492c941293fdeb2d33b0562750308a567026d08b0914f07e1167cad",
    },
    "einstein-check": {
        "--space s3xs3 --format table": "d067de2e3c0701679047112e358151fadabb29455bcde1dd12776a06b2d46247",
        "--space s3xs3 --format json": "e08d0fbe7a7ba03ce3483f53b92cc8065976a905d5989a4d537ca3b3ced92d1e",
        "--space s3xs3 --format csv": "d5745117f063396bcf2e9f989080858d1131cc08ef3e338b09db5f45f81b0884",
        "--space cp3 --format table": "65846b208ec8f699b32a91946e73616fe8019a266c45b994f9326c7b492a68fe",
        "--space cp3 --format json": "84dde8b5875f5e2cae233480c4f65f6dfcb816ecc37f95f4c7d7ce1630e6f2f5",
        "--space cp3 --format csv": "d5745117f063396bcf2e9f989080858d1131cc08ef3e338b09db5f45f81b0884",
        "--space flag --format table": "8eb1fe5f0637399c66a12b894b891be1e13bc4b8a43cff335561016d0fa833eb",
        "--space flag --format json": "53067dc918d6af06aa485f4fa989ae4eae50a85be67818f156138b7aa2cf1604",
        "--space flag --format csv": "d5745117f063396bcf2e9f989080858d1131cc08ef3e338b09db5f45f81b0884",
    },
    "identities": {
        "--format table": "8c5daf7ff415c0a641623bb53d65aed270237aa7469f738f65736585e28e460d",
        "--format json": "8ec88058af25191d928608276b7f5646a603c059abd4d233e512347d86136aae",
        "--format csv": "3eeac4c584c8b0603a9ee4fcc105ed335092b56c72e1671bfc7c5939f266da32",
    },
    "verify-flag": {
        "--format table": "3cb6ec6244fb8c0c6e25875c11443c47f4e4e02f1db2193fbf5349b375a73624",
        "--format json": "a88cb5961924f236ba3b6d8b6b48d330ec333680d5bfac648cb1db3ceb866759",
        "--format csv": "ec821371f57afef057ec034319918e382c8e541dd3fc9b247b6254f28abf4b14",
    },
    "all": {
        "--cutoff 12 --format table": "308663f2785182e82af645734948cfd3a97665aea309c1de6f0dd7f7e391d740",
        "--cutoff 12 --format json": "c46d70b1b9199c916e2508a66e9f75d0e39aaca58c2b8d37e0c3efedb9c969da",
    },
}


def _subcommands():
    return sorted(cli._COMMANDS)


@pytest.mark.parametrize("subcommand", _subcommands())
def test_every_report_is_pinned(subcommand, capsys):
    # a subcommand the parser accepts must have pinned reports, and
    # each must run and print them unchanged
    pins = REPORT_SHA256.get(subcommand)
    assert pins, f"no pinned report for {subcommand}"
    for args, digest in pins.items():
        code, out = _run(capsys, subcommand, *args.split())
        assert code == 0, args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


# SHA-256 of `spectrum --format json` per (space, bundle, cutoff), pinned
# from the root-data implementation of the eigenvalues, dimensions and the
# label walk at cutoff 1000, and from the whole Kostant tables at the last
# cutoffs the Kostant work bound accepted (2119 on cp3, 3245 on the flag)
SPECTRUM_JSON_SHA256 = {
    ("s3xs3", "lambda11", "1000"): "fb6510a763d6b60cddaa2af97b5727f77c7d5f170650893f319f1c6180f082ce",
    ("s3xs3", "functions", "1000"): "fc98283c9bd09b223e1ef100d1452318033dc173d795710e559406e6954118d8",
    ("cp3", "lambda11", "1000"): "1cb4b1348c263666ed63ba6d45bfc4381b02a8aa77107a09027a370535969ff2",
    ("cp3", "functions", "1000"): "d0a3430f65cbf028c0def2bb339a3648f152e25459e757f818a4dd7def4b87f1",
    ("flag", "lambda11", "1000"): "63a02fe812439845913dec55e1031bd20a01cc3685a519bb4fd60b7417bc89a7",
    ("flag", "functions", "1000"): "e88fdcdbd249b3c7712a637a594550349c25514619a8bec1aaf5ed53ebcf4786",
    ("cp3", "lambda11", "2119"): "f3edb081f226e73fc5bcfd58367c5d26bee1ec0d120008e153acca6cf7a7dc67",
    ("cp3", "functions", "2119"): "81ab8bd6787c88ba177cbd7301a357c6290903db733522bcc554fad5395eda8f",
    ("flag", "lambda11", "3245"): "63ba2303f1ad48a7e88580ac106e9bb543e06065fd2afd566b2cba25afb6327e",
    ("flag", "functions", "3245"): "38348fc79a1afbf4d1e9c4f3316e468fa0ba8049d6b6096c5fd153d2eb9d36d3",
}


def _pinned_json(monkeypatch, capsys, space, bundle, cutoff):
    monkeypatch.setattr(spectrum, "_TABLES", {})
    code, out = _run(
        capsys, "spectrum", "--space", space, "--bundle", bundle,
        "--cutoff", cutoff, "--format", "json",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SPECTRUM_JSON_SHA256[(space, bundle, cutoff)]


@pytest.mark.parametrize(
    "space,bundle", sorted(key[:2] for key in SPECTRUM_JSON_SHA256 if key[2] == "1000")
)
def test_spectrum_json_at_1000_is_pinned(monkeypatch, capsys, space, bundle):
    _pinned_json(monkeypatch, capsys, space, bundle, "1000")


@pytest.mark.parametrize(
    "space,bundle,cutoff", sorted(key for key in SPECTRUM_JSON_SHA256 if key[2] != "1000")
)
def test_spectrum_json_at_the_old_kostant_bound_is_pinned(
    monkeypatch, capsys, space, bundle, cutoff
):
    _pinned_json(monkeypatch, capsys, space, bundle, cutoff)


@pytest.mark.parametrize("bundle", ["functions", "lambda11"])
@pytest.mark.parametrize("space", ["s3xs3", "cp3", "flag"])
def test_spectrum_json_is_what_json_dumps_prints(monkeypatch, capsys, tmp_path, space, bundle):
    # cli._json against json.dumps of the same payload, on stdout and
    # through --output; s3xs3 lambda11 at 0 has no entries
    for cutoff in ("0", "16/3", "12", "300"):
        monkeypatch.setattr(spectrum, "_TABLES", {})
        payload = cli._spectrum_payload(
            cli.Space(space), cli.Bundle(bundle), Fraction(cutoff)
        )
        expected = json.dumps(payload, indent=2) + "\n"
        argv = ("spectrum", "--space", space, "--bundle", bundle, "--cutoff", cutoff,
                "--format", "json")
        assert _run(capsys, *argv) == (0, expected), cutoff
        path = tmp_path / f"{cutoff.replace('/', '_')}.json"
        assert _run(capsys, *argv, "--output", str(path)) == (0, "")
        assert path.read_text(encoding="utf-8") == expected, cutoff
        if (space, bundle, cutoff) == ("s3xs3", "lambda11", "0"):
            assert payload["entries"] == []


_PLANTED = nkcheck.VerificationReport(
    "pointwise_identities", (nkcheck.CheckResult("planted_check", False, "2 e_12"),)
)


# every payload kind but spectrum's, which the test above covers; the
# planted cases carry a failing suite
@pytest.mark.parametrize(
    "argv,planted",
    [
        *(((command, "--space", space), False)
          for command in ("moduli-bound", "einstein-check")
          for space in ("s3xs3", "cp3", "flag")),
        (("verify-flag",), False),
        (("identities",), False),
        (("all", "--cutoff", "12"), False),
        (("all", "--cutoff", "60"), False),
        (("verify-flag",), True),
        (("all",), True),
    ],
    ids=lambda value: " ".join(value) if type(value) is tuple else f"planted={value}",
)
def test_every_report_json_is_what_json_dumps_prints(argv, planted, monkeypatch, capsys):
    if planted:
        monkeypatch.setattr(nkcheck, "verify_pointwise_identities", lambda: _PLANTED)
    command, options = cli._parse(argv)
    payload = cli._COMMANDS[command][2](options)
    assert _run(capsys, *argv, "--format", "json") == (
        int(planted), json.dumps(payload, indent=2) + "\n"
    )


@pytest.mark.parametrize(
    "value",
    ['say "x"', "back\\slash", "bell\x01", "caf\u00e9", Fraction(1, 2)],
    ids=["quote", "backslash", "control", "non-ascii", "fraction"],
)
def test_json_refuses_what_json_dumps_would_escape_or_refuse(value):
    # as a value, nested, and as a key where it could be one
    cases = [value, [value], {"key": value}] + ([{value: 1}] if type(value) is str else [])
    for case in cases:
        with pytest.raises(AssertionError, match="no JSON form without escapes"):
            cli._json(case)


def test_a_refused_payload_exits_one_and_prints_nothing(monkeypatch, capsys):
    refused = {"command": "einstein-check", "space": "caf\u00e9"}
    monkeypatch.setattr(cli, "_einstein_payload", lambda space: refused)
    assert main(["einstein-check", "--space", "flag", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "nkspectra: internal assertion failed: no JSON form without escapes: 'caf\\xe9'\n"
    )


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


def test_both_einstein_reports_read_one_function(capsys, monkeypatch):
    # both commands read the pair from the one function, none keeps a copy
    monkeypatch.setattr(cli, "einstein_deformation_check", lambda space: (1, 2))
    shown = {
        (command, fmt): _run(capsys, command, "--space", "flag", "--format", fmt)
        for command in ("moduli-bound", "einstein-check")
        for fmt in ("table", "json", "csv")
    }
    assert {code for code, _ in shown.values()} == {0}
    assert "  einstein extras (eig 2, eig 6)  1, 2\n" in shown["moduli-bound", "table"][1]
    assert json.loads(shown["moduli-bound", "json"][1])["einstein_extra"] == [1, 2]
    assert "einstein_extra_2,1\neinstein_extra_6,2\n" in shown["moduli-bound", "csv"][1]
    table = shown["einstein-check", "table"][1]
    assert "eigenvalue 2   1\n" in table and "eigenvalue 6   2\n" in table
    doc = json.loads(shown["einstein-check", "json"][1])
    assert (doc["multiplicity_at_2"], doc["multiplicity_at_6"]) == (1, 2)
    assert "multiplicity_at_2,1\nmultiplicity_at_6,2\n" in shown["einstein-check", "csv"][1]


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


@pytest.mark.parametrize(
    "argv",
    [
        *((command, "--format", fmt)
          for command in ("identities", "verify-flag")
          for fmt in ("table", "json", "csv")),
        ("all", "--format", "table"),
        ("all", "--format", "json"),
        ("spectrum", "--space", "flag", "--cutoff", "12"),
    ],
    ids=" ".join,
)
def test_a_failing_check_exits_one(argv, monkeypatch, capsys):
    monkeypatch.setattr(nkcheck, "verify_pointwise_identities", lambda: _PLANTED)
    code, out = _run(capsys, *argv)
    if argv[0] == "spectrum":  # no suite runs, so nothing fails
        assert code == 0
        return
    assert code == 1
    fmt = argv[-1]
    if fmt == "json":
        doc = json.loads(out)
        assert doc.get("verification", doc)["passed"] is False
    elif fmt == "csv":
        assert "pointwise_identities,planted_check,fail,2 e_12\n" in out
    else:
        assert "suite pointwise_identities: FAIL\n" in out
        assert "  [FAIL] planted_check  residual = 2 e_12\n" in out
        assert out.endswith("SUITE FAILURES PRESENT\n")


def test_usage_errors_exit_two(capsys):
    for argv in (
        [],
        ["bogus"],
        ["spectrum", "--space", "cp3"],
        ["spectrum", "--space", "nowhere", "--cutoff", "12"],
        ["spectrum", "--space", "cp3", "--cutoff", "-3"],
        ["spectrum", "--space", "cp3", "--cutoff", "a/b"],
        ["spectrum", "--space", "cp3", "--cutoff", "12", "--format", "xml"],
        ["all", "--format", "csv"],
        ["spectrum", "--space", "cp3", "--cutoff", "12", "--colour", "red"],
        ["verify-flag", "--space", "cp3"],
        ["spectrum", "--space", "cp3", "--cutoff"],
        ["spectrum", "--space=nowhere", "--cutoff", "12"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("nkspectra: "), captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: subcommand"),
        (["spectrum", "--space", "cp3"], "the following arguments are required: --cutoff"),
        *(
            (
                ["spectrum", *space, "--cutoff", "12"],
                "argument --space: invalid choice: 'nowhere' (choose from 's3xs3', 'cp3', 'flag')",
            )
            for space in (["--space", "nowhere"], ["--space=nowhere"])
        ),
        (["spectrum", "--space", "cp3", "--cutoff", "-3"], "argument --cutoff: cutoff must be nonnegative"),
        (["spectrum", "--space", "cp3", "--cutoff"], "argument --cutoff: expected one argument"),
        (["verify-flag", "--space", "cp3"], "unrecognized arguments: --space cp3"),
        (["all", "--format", "csv"], "csv format is not available for `all`"),
        (
            ["spectrum", "--=x"],
            "ambiguous option: --=x could match --help, --space, --bundle, --cutoff, --format, --output",
        ),
        (["-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_usage_errors_keep_their_wording(argv, message, capsys):
    # the wording of argparse, which the README quotes
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"nkspectra: {message}\n")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("spectrum", "--space=cp3", "--cutoff", "12"), CP3_TABLE),
        (("spectrum", "--space", "cp3", "--cut", "12"), CP3_TABLE),
        (("spectrum", "--sp=cp3", "--cutoff=12", "--format", "csv", "--format", "table"), CP3_TABLE),
        (("spectrum", "--format", "table", "--space", "cp3", "--cutoff", "12", "--form", "csv"), CP3_CSV),
        (("spectrum", "--space", "flag", "--space", "cp3", "--cutoff", "0", "--cutoff", "12"), CP3_TABLE),
    ],
    ids=["equals", "prefix", "repeated-format-table", "repeated-format-csv", "repeated-space-cutoff"],
)
def test_every_option_form_prints_the_pinned_report(argv, expected, capsys):
    # --opt=value, a unique prefix of a flag, and the last of a repeated
    # option, all as argparse read them
    assert _run(capsys, *argv) == (0, expected)


@pytest.mark.parametrize(
    "argv", [("-h",), ("--help",), ("spectrum", "-h"), ("all", "--he"), ("verify-flag", "-h", "--bogus")]
)
def test_help_prints_usage_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    # the usage line, then every subcommand or every flag of the subcommand
    if argv[0] in cli._COMMANDS:
        assert out.startswith(f"usage: nkspectra {argv[0]} [-h] ")
        listed = [flag for flag, *_ in cli._COMMANDS[argv[0]][1]]
    else:
        assert out.startswith("usage: nkspectra [-h] ")
        listed = list(cli._COMMANDS)
    assert all(f"\n  {name} " in out for name in listed), out


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


CLI = ("-m", "nkspectra.cli")


def test_empty_output_path_is_a_usage_error(capsys):
    # an empty path is unwritable, not a request for stdout
    with pytest.raises(SystemExit) as exc:
        main(["moduli-bound", "--space", "flag", "--output", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nkspectra: cannot write '': No such file or directory\n"


class _ClosedPipe(io.StringIO):
    def __init__(self, method):
        super().__init__()
        self.failing = method

    def _fail(self, method):
        if method == self.failing:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def write(self, text):
        self._fail("write")
        return super().write(text)

    def flush(self):
        self._fail("flush")


@pytest.mark.parametrize("method", ["write", "flush"])
def test_a_closed_stdout_pipe_is_a_usage_error(method, monkeypatch, capsys):
    # a block-buffered stdout may take the report and fail only at the flush
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(method))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--space", "s3xs3", "--cutoff", "300", "--format", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "nkspectra: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [("spectrum", "--space", "cp3", "--cutoff", "300"), ("-h",)])
def test_a_full_stdout_is_a_usage_error(argv):
    # every write to /dev/full fails with ENOSPC; the error is one line,
    # with nothing left in stdout's buffer (unbuffered mode off) for the
    # interpreter to flush and report at exit
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *CLI, *argv], stdout=full, stderr=subprocess.PIPE,
            env=dict(env, PYTHONPATH=src), timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == b"nkspectra: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize(
    "space,cutoff", [("s3xs3", "1e8"), ("flag", "1e9"), ("cp3", "1e400")]
)
def test_huge_cutoff_is_refused_up_front(space, cutoff, run_python):
    start = time.perf_counter()
    proc = run_python([*CLI, "spectrum", "--space", space, "--cutoff", cutoff])
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


@pytest.mark.parametrize("space,cutoff", [("flag", "20000"), ("cp3", "5000")])
def test_cutoffs_past_the_old_kostant_bound_run(space, cutoff, run_python):
    # both fit the label box, and the deleted Kostant work bound refused them
    start = time.perf_counter()
    proc = run_python([*CLI, "spectrum", "--space", space, "--cutoff", cutoff, "--format", "json"])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert proc.stderr == b""
    doc = json.loads(proc.stdout)
    assert doc["cutoff"] == cutoff
    doc["cutoff"] = "1000"
    doc["entries"] = [en for en in doc["entries"] if Fraction(en["eigenvalue"]) <= 1000]
    digest = hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest()
    assert digest == SPECTRUM_JSON_SHA256[(space, "lambda11", "1000")]
    assert elapsed < 10


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--space", "cp3", "--cutoff", "1e10000000"),
        ("all", "--cutoff", "1e-10000000"),
    ],
    ids=["spectrum", "all"],
)
def test_exponent_cutoff_is_a_fast_usage_error(argv, run_python):
    start = time.perf_counter()
    proc = run_python([*CLI, *argv])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"decimal exponent beyond 4300 in magnitude" in proc.stderr
    # converting the literal would build a ten-million-digit power of ten
    assert elapsed < 10


_LIMIT_640 = ("-X", "int_max_str_digits=640")


@pytest.mark.parametrize(
    "flags,argv,message",
    [
        ((), ("spectrum", "--space", "cp3", "--cutoff", "1e-4300"), "cutoff denominator beyond 4300"),
        ((), ("all", "--cutoff", "1e-4300"), "cutoff denominator beyond 4300"),
        # valid rationals with a number longer than int() reads
        (
            (),
            ("spectrum", "--space", "cp3", "--cutoff", "1" + "0" * 5000),
            "cutoff literal has a number beyond 4300",
        ),
        ((), ("all", "--cutoff", "1/" + "7" * 4301), "cutoff literal has a number beyond 4300"),
        # the bounds follow the interpreter's digit limit
        (
            _LIMIT_640,
            ("spectrum", "--space", "cp3", "--cutoff", "1e-700"),
            "cutoff denominator beyond 640",
        ),
        (
            _LIMIT_640,
            ("spectrum", "--space", "cp3", "--cutoff", "1/" + "7" * 700),
            "cutoff literal has a number beyond 640",
        ),
    ],
    ids=[
        "spectrum", "all", "long-numerator", "long-denominator",
        "limit-640-denominator", "limit-640-long-denominator",
    ],
)
def test_long_cutoff_denominator_is_a_usage_error(flags, argv, message, run_python):
    # 1/10**4300 has a 4301-digit denominator, which str() cannot print
    proc = run_python([*CLI, *argv], *flags)
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert "Traceback" not in err
    # one line that names the bound and echoes none of the literal
    assert err.count("\n") == 1 and len(proc.stderr) < 100
    assert err.endswith(f"argument --cutoff: {message} digits\n")


def test_refused_cutoff_is_echoed_as_a_short_prefix():
    with pytest.raises(cli.CutoffError) as exc:
        cli._fraction_arg("x" * 5000)
    assert str(exc.value) == "not a rational: '" + "x" * 32 + "...'"
    with pytest.raises(cli.CutoffError) as exc:
        cli._fraction_arg("a/b")
    assert str(exc.value) == "not a rational: 'a/b'"


def test_cutoff_denominator_bound_is_4300_digits(run_python):
    from nkspectra.cli import _fraction_arg

    # both reduce to 4300-digit denominators
    assert _fraction_arg("2.5E-4300") == Fraction(1, 4 * 10**4299)
    assert _fraction_arg("1.5e-4299") == Fraction(3, 2 * 10**4299)
    for text in ("1e-4300", "1.3e-4300", "0.1E-4_299"):
        with pytest.raises(cli.CutoffError, match="denominator"):
            _fraction_arg(text)
    proc = run_python([*CLI, "spectrum", "--space", "cp3", "--cutoff", "2.5E-4300", "--format", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cutoff"] == "1/4" + "0" * 4299


def test_exponent_cutoff_bound_is_4300():
    from nkspectra.cli import _fraction_arg

    assert _fraction_arg("1e4300") == 10**4300
    assert _fraction_arg("2.5E-4_300") == Fraction(5, 2 * 10**4300)
    assert _fraction_arg("1e0_0001") == 10
    for text in ("1e4301", "-1e-4301", "1e00000000000000004301", "1e43_010"):
        with pytest.raises(cli.CutoffError, match="exponent"):
            _fraction_arg(text)


_DASH_O_CASES = {
    **{
        space: ("spectrum", "--space", space, "--cutoff", "12", "--format", "json")
        for space in ("flag", "cp3", "s3xs3")
    },
    "verify-flag": ("verify-flag", "--format", "json"),
    "identities": ("identities", "--format", "json"),
    **{
        f"{command}-{fmt}": (command, *space, "--format", fmt)
        for command, space in (
            ("moduli-bound", ("--space", "flag")),
            ("einstein-check", ("--space", "flag")),
            ("identities", ()),
        )
        for fmt in ("table", "csv")
    },
    "all-table": ("all",),
}


@pytest.mark.parametrize("case", list(_DASH_O_CASES))
def test_cli_under_dash_O_is_byte_identical(case, run_python):
    argv = _DASH_O_CASES[case]
    plain = run_python([*CLI, *argv])
    optimized = run_python([*CLI, *argv], "-O")
    assert plain.returncode == 0 and optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert plain.stdout


# Each command in a fresh interpreter: its exit code, whether dga was
# imported, and whether nkcheck's body ran (read past the lazy module's
# attribute hook, which would itself load the body).
_LOADED = """
import contextlib, io, sys
from nkspectra import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
body = object.__getattribute__(sys.modules["nkspectra.nkcheck"], "__dict__")
print(code, "nkspectra.dga" in sys.modules, "run_all_suites" in body)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize(
    "argv,loads",
    [
        (("spectrum", "--space", "flag", "--cutoff", "12"), False),
        (("moduli-bound", "--space", "flag"), False),
        (("einstein-check", "--space", "cp3"), False),
        (("verify-flag",), True),
        (("identities",), True),
        (("all",), True),
    ],
)
def test_only_the_suite_commands_load_the_exterior_calculus(argv, loads, flags, run_python):
    proc = run_python(["-c", _LOADED, *argv], *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"0", str(loads).encode(), str(loads).encode()]


# Each command in a fresh interpreter: its exit code, then the names of
# dataclasses, inspect, argparse, gettext and locale if importing cli and
# running the command loaded them (together about 13 ms of a cold start)
_STDLIB_LOADED = """
import contextlib, io, sys
before = set(sys.modules)
from nkspectra import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # help
        code = exc.code
loaded = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
print(code, *sorted(loaded & set(sys.modules) - before))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--space", "flag", "--cutoff", "12"),
        ("moduli-bound", "--space", "flag"),
        ("einstein-check", "--space", "cp3"),
        ("verify-flag",),
        ("identities",),
        ("all",),
        ("-h",),
        ("spectrum", "-h"),
    ],
)
def test_no_command_loads_dataclasses_or_inspect(argv, flags, run_python):
    proc = run_python(["-c", _STDLIB_LOADED, *argv], *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"0"]


# `import nkspectra.cli` and a spectrum command in a fresh interpreter:
# the exit code, then whether the json module got loaded
_JSON_LOADED = """
import contextlib, io, sys
from nkspectra import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_spectrum_never_loads_json(fmt, flags, run_python):
    argv = ("spectrum", "--space", "s3xs3", "--cutoff", "12", "--format", fmt)
    proc = run_python(["-c", _JSON_LOADED, *argv], *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"0", b"False"]


# the same in every format the command accepts (`all` refuses csv): the
# format, the exit code and whether json is loaded after that run
_JSON_LOADED_IN_EVERY_FORMAT = """
import contextlib, io, sys
from nkspectra import cli
for fmt in ("json", "table", "csv")[: 2 if sys.argv[1] == "all" else 3]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*sys.argv[1:], "--format", fmt])
    print(fmt, code, "json" in sys.modules)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize(
    "argv",
    [
        ("moduli-bound", "--space", "flag"),
        ("einstein-check", "--space", "cp3"),
        ("verify-flag",),
        ("identities",),
        ("all",),
    ],
    ids=" ".join,
)
def test_no_report_command_loads_json(argv, flags, run_python):
    proc = run_python(["-c", _JSON_LOADED_IN_EVERY_FORMAT, *argv], *flags)
    assert proc.returncode == 0, proc.stderr
    formats = ("json", "table") if argv[0] == "all" else ("json", "table", "csv")
    assert proc.stdout.decode().splitlines() == [f"{fmt} 0 False" for fmt in formats]


# nkcheck imported before or after cli: one module object, and a patch made
# on it before cli is imported is the function cli calls
_ONE_NKCHECK = """
import sys
import pytest
if sys.argv[1] == "nkcheck-first":
    import nkspectra.nkcheck
import nkspectra.cli
import nkspectra.nkcheck
import nkspectra
one = sys.modules["nkspectra.nkcheck"]
print(nkspectra.cli.nkcheck is one, nkspectra.nkcheck is one)
"""

_PATCHED_BEFORE_CLI = """
import pytest
from nkspectra import nkcheck

def patched():
    raise LookupError("the patched suite ran")

with pytest.MonkeyPatch.context() as mp:
    mp.setattr(nkcheck, "verify_pointwise_identities", patched)
    from nkspectra import cli
    try:
        cli.main(["identities"])
    except LookupError as exc:
        print(exc)
"""


@pytest.mark.parametrize("order", ["nkcheck-first", "cli-first"])
def test_one_nkcheck_module_whichever_is_imported_first(order, run_python):
    proc = run_python(["-c", _ONE_NKCHECK, order])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True", b"True"]


def test_a_patch_made_before_cli_is_imported_reaches_cli(run_python):
    proc = run_python(["-c", _PATCHED_BEFORE_CLI])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"the patched suite ran\n"
