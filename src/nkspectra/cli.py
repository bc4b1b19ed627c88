"""Command-line interface: reproducible reports over the spectrum
tables, moduli bounds and verification suites.

Each subcommand is registered once, in ``_COMMANDS``: the builder of its
JSON payload from the parsed arguments, its table renderer and its CSV
renderer (none for ``all``, which refuses CSV).  Every payload names its
subcommand under ``command``, which picks the renderer; ``all`` renders
its embedded reports through their own tables.

Output is byte-stable for identical arguments: every ordering is
explicit and all rationals render as exact "p/q" strings (plain "p"
when integral).  Exit status is 0 on success, 1 when an assertion or a
verification suite fails, 2 on usage errors, an unwritable --output path,
a cutoff literal whose decimal exponent exceeds MAX_CUTOFF_EXPONENT, any
of whose numbers or whose reduced denominator has more digits than the
interpreter's int_max_str_digits limit (4300 by default), and a cutoff
whose label box exceeds rootrep.MAX_LABEL_BOX included.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .branching import Bundle, Space
from .rootrep import LabelBoxTooLarge
from .spectrum import (
    einstein_deformation_check,
    enumerate_spectrum,
    moduli_upper_bound,
    scal_normalization_check,
)


def _lazy_module(name: str):
    # the module `name`, whose body first runs when an attribute of it is
    # read (the importlib.util.LazyLoader recipe); a module that is already
    # loaded is reused, and the package gets the attribute an import sets
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


# the exterior calculus (nkcheck, and dga under it) loads when
# verify-flag, identities or all first reads it, not with every command
nkcheck = _lazy_module(__package__ + ".nkcheck")

_SPACES = (Space.S3XS3, Space.CP3, Space.FLAG)
_BUNDLES = (Bundle.FUNCTIONS, Bundle.LAMBDA11)


def _rat(q: Fraction) -> str:
    return str(Fraction(q))


# --------------------------------------------------------------------------
# payload builders (shared by every output format and by `all`)

def _spectrum_payload(space: Space, bundle: Bundle, cutoff: Fraction) -> Dict:
    entries = enumerate_spectrum(space, bundle, cutoff)
    return {
        "command": "spectrum",
        "space": space.value,
        "bundle": bundle.value,
        "cutoff": _rat(cutoff),
        "entries": [
            {
                "irrep": str(en.irrep),
                "labels": list(en.irrep.labels),
                "eigenvalue": str(en.eigenvalue),  # a Fraction, so _rat's form already
                "hom_dim": en.hom_dim,
                "irrep_dim": (dim := en.irrep_dim),
                "contribution": en.hom_dim * dim,
            }
            for en in entries
        ],
    }


def _moduli_payload(space: Space) -> Dict:
    report = moduli_upper_bound(space)
    cas, scal = scal_normalization_check(space)
    return {
        "command": "moduli-bound",
        "space": space.value,
        "dim_eigenspace_12_primitive_11": report.dim_omega11_12,
        "dim_isometry": report.dim_isometry,
        "dim_eigenspace_12_functions": report.dim_omega0_12,
        "nk_upper_bound": report.nk_upper_bound,
        "reported_bound": report.reported_bound(),
        "einstein_extra": list(report.einstein_extra),
        "isotropy_casimir": _rat(cas),
        "scal": _rat(scal),
    }


def _einstein_payload(space: Space) -> Dict:
    at2, at6 = einstein_deformation_check(space)
    return {
        "command": "einstein-check",
        "space": space.value,
        "multiplicity_at_2": at2,
        "multiplicity_at_6": at6,
        "einstein_deformations_excluded": at2 == 0 and at6 == 0,
    }


def _suites_payload(command: str, reports) -> Dict:
    return {
        "passed": all(r.passed for r in reports),
        "suites": [r.to_json_dict() for r in reports],
        "command": command,
    }


def _verify_payload() -> Dict:
    return _suites_payload("verify-flag", nkcheck.run_all_suites())


def _all_payload(cutoff: Fraction) -> Dict:
    return {
        "command": "all",
        "spectrum": [
            _spectrum_payload(space, bundle, cutoff)
            for space in _SPACES
            for bundle in _BUNDLES
        ],
        "moduli": [_moduli_payload(space) for space in _SPACES],
        "einstein": [_einstein_payload(space) for space in _SPACES],
        "verification": _verify_payload(),
    }


# --------------------------------------------------------------------------
# renderers

# `spectrum --format json` without the json module, whose encoder is pure
# Python once `indent` is set: json.dumps(payload, indent=2) + "\n",
# byte for byte.  Every string in a spectrum payload is made here from
# enum values, ints and Fractions (names, "V(...)" and "p/q"), so none
# needs escaping; any other payload goes through json.dumps.
_SPECTRUM_JSON = """\
{{
  "command": "spectrum",
  "space": "{}",
  "bundle": "{}",
  "cutoff": "{}",
  "entries": [{}]
}}
"""
_ENTRY_JSON = """\
    {{
      "irrep": "{}",
      "labels": [
        {}
      ],
      "eigenvalue": "{}",
      "hom_dim": {},
      "irrep_dim": {},
      "contribution": {}
    }}"""


def _spectrum_json(payload: Dict) -> str:
    entries = ",\n".join(
        _ENTRY_JSON.format(
            en["irrep"],
            ",\n        ".join(map(str, en["labels"])),
            en["eigenvalue"],
            en["hom_dim"],
            en["irrep_dim"],
            en["contribution"],
        )
        for en in payload["entries"]
    )
    return _SPECTRUM_JSON.format(
        payload["space"],
        payload["bundle"],
        payload["cutoff"],
        f"\n{entries}\n  " if entries else "",
    )


def _pad_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    lines = [fmt.format(*headers).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt.format(*row).rstrip() for row in rows)
    return lines


def _spectrum_csv(payload: Dict) -> List[List[str]]:
    headers = ["eigenvalue", "irrep", "hom_dim", "dim", "contribution"]
    rows = [
        [
            en["eigenvalue"],
            en["irrep"],
            str(en["hom_dim"]),
            str(en["irrep_dim"]),
            str(en["contribution"]),
        ]
        for en in payload["entries"]
    ]
    return [headers, *rows]


def _spectrum_table(payload: Dict) -> List[str]:
    lines = [
        f"spectrum  space={payload['space']}  bundle={payload['bundle']}"
        f"  cutoff={payload['cutoff']}"
    ]
    headers, *rows = _spectrum_csv(payload)
    lines.extend(_pad_table(headers, rows))
    lines.append(f"entries: {len(rows)}")
    return lines


_MODULI_FIELDS = (
    ("dim_eigenspace_12_primitive_11", "eigenspace 12, primitive (1,1)"),
    ("dim_isometry", "isometry algebra dim"),
    ("dim_eigenspace_12_functions", "eigenspace 12, functions"),
    ("nk_upper_bound", "nk moduli upper bound"),
    ("reported_bound", "reported bound"),
)


def _moduli_table(payload: Dict) -> List[str]:
    lines = [f"moduli-bound  space={payload['space']}"]
    for key, label in _MODULI_FIELDS:
        lines.append(f"  {label:<32}{payload[key]}")
    extra = payload["einstein_extra"]
    lines.append(f"  {'einstein extras (eig 2, eig 6)':<32}{extra[0]}, {extra[1]}")
    lines.append(f"  {'isotropy casimir':<32}{payload['isotropy_casimir']}")
    lines.append(f"  {'scal (unit -B metric)':<32}{payload['scal']}")
    return lines


def _moduli_csv(payload: Dict) -> List[list]:
    return [
        ["key", "value"],
        *([key, payload[key]] for key, _ in _MODULI_FIELDS),
        ["einstein_extra_2", payload["einstein_extra"][0]],
        ["einstein_extra_6", payload["einstein_extra"][1]],
        ["isotropy_casimir", payload["isotropy_casimir"]],
        ["scal", payload["scal"]],
    ]


def _einstein_table(payload: Dict) -> List[str]:
    verdict = "excluded" if payload["einstein_deformations_excluded"] else "PRESENT"
    return [
        f"einstein-check  space={payload['space']}",
        f"  multiplicity at eigenvalue 2   {payload['multiplicity_at_2']}",
        f"  multiplicity at eigenvalue 6   {payload['multiplicity_at_6']}",
        f"  infinitesimal einstein deformations: {verdict}",
    ]


def _einstein_csv(payload: Dict) -> List[list]:
    return [
        ["key", "value"],
        ["multiplicity_at_2", payload["multiplicity_at_2"]],
        ["multiplicity_at_6", payload["multiplicity_at_6"]],
    ]


def _suites_table(payload: Dict) -> List[str]:
    lines = []
    for suite in payload["suites"]:
        lines.append(f"suite {suite['suite']}: {'PASS' if suite['passed'] else 'FAIL'}")
        for check in suite["checks"]:
            if check["status"] == "pass":
                lines.append(f"  [pass] {check['name']}")
            else:
                lines.append(f"  [FAIL] {check['name']}  residual = {check['residual']}")
    lines.append("all suites passed" if payload["passed"] else "SUITE FAILURES PRESENT")
    return lines


def _suites_csv(payload: Dict) -> List[List[str]]:
    return [["suite", "check", "status", "residual"]] + [
        [suite["suite"], check["name"], check["status"], check["residual"]]
        for suite in payload["suites"]
        for check in suite["checks"]
    ]


def _all_table(payload: Dict) -> List[str]:
    lines = []
    for sub in payload["spectrum"] + payload["moduli"] + payload["einstein"]:
        lines += _COMMANDS[sub["command"]][1](sub) + [""]
    return lines + _suites_table(payload["verification"])


# subcommand -> (its payload from the parsed arguments, its table lines,
# its CSV rows or None where CSV is refused)
_COMMANDS = {
    "spectrum": (
        lambda a: _spectrum_payload(Space(a.space), Bundle(a.bundle), a.cutoff),
        _spectrum_table,
        _spectrum_csv,
    ),
    "moduli-bound": (
        lambda a: _moduli_payload(Space(a.space)), _moduli_table, _moduli_csv
    ),
    "verify-flag": (lambda a: _verify_payload(), _suites_table, _suites_csv),
    "identities": (
        lambda a: _suites_payload(
            "identities", (nkcheck.verify_pointwise_identities(),)
        ),
        _suites_table,
        _suites_csv,
    ),
    "einstein-check": (
        lambda a: _einstein_payload(Space(a.space)), _einstein_table, _einstein_csv
    ),
    "all": (lambda a: _all_payload(a.cutoff), _all_table, None),
}


def _emit(payload: Dict, fmt: str, output: Optional[str]) -> None:
    _, table, csv_rows = _COMMANDS[payload["command"]]
    if fmt == "json" and payload["command"] == "spectrum":
        text = _spectrum_json(payload)
    elif fmt == "json":
        import json

        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows(payload))
        text = buf.getvalue()
    else:
        text = "\n".join(table(payload)) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"nkspectra: cannot write {output}: {exc.strerror}\n")
            sys.exit(2)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# argument parsing

# Fraction("1e<n>") builds 10**n, which takes unbounded time for a large
# n before the label box can refuse the cutoff, so a decimal literal with
# a larger exponent is refused before it is converted.
MAX_CUTOFF_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(
    r"\s*[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
    r"[eE][-+]?(\d+(?:_\d+)*)\s*"
)


def _fraction_arg(text: str) -> Fraction:
    # int() and str() refuse numbers with more digits than the interpreter's
    # limit (-X int_max_str_digits, 4300 by default); 4300 also holds where
    # the limit is lifted (0) or missing (Python before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    literal = _DECIMAL_EXPONENT.fullmatch(text)
    if literal:
        digits = literal.group(1).replace("_", "").lstrip("0")
        # the length first: int() refuses a number beyond the limit
        if (
            len(digits) > len(str(MAX_CUTOFF_EXPONENT))
            or int(digits or 0) > MAX_CUTOFF_EXPONENT
        ):
            raise argparse.ArgumentTypeError(
                f"decimal exponent beyond {MAX_CUTOFF_EXPONENT} in magnitude"
            )
    # Fraction() would call a valid literal with a longer number "not a
    # rational"
    runs = re.findall(r"\d+", text.replace("_", ""))
    if max(map(len, runs), default=0) > limit:
        raise argparse.ArgumentTypeError(f"cutoff literal has a number beyond {limit} digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        shown = text if len(text) <= 32 else text[:32] + "..."
        raise argparse.ArgumentTypeError(f"not a rational: {shown!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("cutoff must be nonnegative")
    # the reports print the cutoff, which str() refuses beyond the limit; a
    # numerator that long is refused by the label box instead
    if value.denominator >= 10**limit:
        raise argparse.ArgumentTypeError(f"cutoff denominator beyond {limit} digits")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line, like every other refusal; subparsers
    inherit the class."""

    def error(self, message):
        self.exit(2, f"nkspectra: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nkspectra",
        description="Exact spectra, moduli bounds and identity verification "
        "for the homogeneous nearly Kahler 6-manifolds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )
        p.add_argument("--output", help="write the report to this path")

    def add_space(p):
        p.add_argument("--space", required=True, choices=[s.value for s in _SPACES])

    p_spec = sub.add_parser("spectrum", help="eigenvalue table up to a cutoff")
    add_space(p_spec)
    p_spec.add_argument(
        "--bundle",
        choices=[b.value for b in _BUNDLES],
        default=Bundle.LAMBDA11.value,
        help="functions or the primitive (1,1) bundle (default)",
    )
    p_spec.add_argument("--cutoff", type=_fraction_arg, required=True)
    add_common(p_spec)

    p_mod = sub.add_parser("moduli-bound", help="deformation space upper bound")
    add_space(p_mod)
    add_common(p_mod)

    p_ver = sub.add_parser("verify-flag", help="run all verification suites")
    add_common(p_ver)

    p_id = sub.add_parser("identities", help="pointwise model identities")
    add_common(p_id)

    p_ein = sub.add_parser(
        "einstein-check", help="eigenvalue 2 and 6 multiplicities"
    )
    add_space(p_ein)
    add_common(p_ein)

    p_all = sub.add_parser("all", help="every report in one run")
    p_all.add_argument(
        "--cutoff",
        type=_fraction_arg,
        default=Fraction(12),
        help="spectrum cutoff (default 12)",
    )
    add_common(p_all)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    build, _, csv_rows = _COMMANDS[args.subcommand]
    if args.format == "csv" and csv_rows is None:
        parser.error(f"csv format is not available for `{args.subcommand}`")
    try:
        payload = build(args)
        _emit(payload, args.format, args.output)
    except AssertionError as exc:
        print(f"nkspectra: internal assertion failed: {exc}", file=sys.stderr)
        return 1
    except LabelBoxTooLarge as exc:
        print(f"nkspectra: {exc}", file=sys.stderr)
        return 2
    # the suite reports carry a verdict, and `all` carries its suites' one
    return 0 if payload.get("verification", payload).get("passed", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
