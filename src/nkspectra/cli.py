"""Command-line interface: reproducible reports over the spectrum
tables, moduli bounds and verification suites.

Output is byte-stable for identical arguments: every ordering is
explicit and all rationals render as exact "p/q" strings (plain "p"
when integral).  Exit status is 0 on success, 1 when an assertion or a
verification suite fails, 2 on usage errors, an unwritable --output path,
a cutoff literal whose decimal exponent (or reduced denominator, in
digits) exceeds MAX_CUTOFF_EXPONENT and a cutoff whose label box exceeds
rootrep.MAX_LABEL_BOX included.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import nkcheck
from .branching import Bundle, Space
from .rootrep import LabelBoxTooLarge
from .spectrum import (
    einstein_deformation_check,
    enumerate_spectrum,
    moduli_upper_bound,
    scal_normalization_check,
)

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
                "eigenvalue": _rat(en.eigenvalue),
                "hom_dim": en.hom_dim,
                "irrep_dim": en.irrep_dim,
                "contribution": en.contribution,
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


def _suites_payload(reports) -> Dict:
    return {
        "passed": all(r.passed for r in reports),
        "suites": [r.to_json_dict() for r in reports],
    }


def _verify_payload() -> Dict:
    payload = _suites_payload(nkcheck.run_all_suites())
    payload["command"] = "verify-flag"
    return payload


def _identities_payload() -> Dict:
    payload = _suites_payload((nkcheck.verify_pointwise_identities(),))
    payload["command"] = "identities"
    return payload


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


def _spectrum_rows(payload: Dict) -> Tuple[List[str], List[List[str]]]:
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
    return headers, rows


def _spectrum_table(payload: Dict) -> List[str]:
    lines = [
        f"spectrum  space={payload['space']}  bundle={payload['bundle']}"
        f"  cutoff={payload['cutoff']}"
    ]
    headers, rows = _spectrum_rows(payload)
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


def _einstein_table(payload: Dict) -> List[str]:
    verdict = "excluded" if payload["einstein_deformations_excluded"] else "PRESENT"
    return [
        f"einstein-check  space={payload['space']}",
        f"  multiplicity at eigenvalue 2   {payload['multiplicity_at_2']}",
        f"  multiplicity at eigenvalue 6   {payload['multiplicity_at_6']}",
        f"  infinitesimal einstein deformations: {verdict}",
    ]


def _suites_table(payload: Dict) -> List[str]:
    lines = []
    for suite in payload["suites"]:
        lines.append(
            f"suite {suite['suite']}: " + ("PASS" if suite["passed"] else "FAIL")
        )
        for check in suite["checks"]:
            mark = "pass" if check["status"] == "pass" else "FAIL"
            line = f"  [{mark}] {check['name']}"
            if check["status"] != "pass":
                line += f"  residual = {check['residual']}"
            lines.append(line)
    lines.append(
        "all suites passed" if payload["passed"] else "SUITE FAILURES PRESENT"
    )
    return lines


def _to_table(payload: Dict) -> str:
    cmd = payload["command"]
    if cmd == "spectrum":
        lines = _spectrum_table(payload)
    elif cmd == "moduli-bound":
        lines = _moduli_table(payload)
    elif cmd == "einstein-check":
        lines = _einstein_table(payload)
    elif cmd in ("verify-flag", "identities"):
        lines = _suites_table(payload)
    elif cmd == "all":
        lines = []
        for sub in payload["spectrum"]:
            lines.extend(_spectrum_table(sub))
            lines.append("")
        for sub in payload["moduli"]:
            lines.extend(_moduli_table(sub))
            lines.append("")
        for sub in payload["einstein"]:
            lines.extend(_einstein_table(sub))
            lines.append("")
        lines.extend(_suites_table(payload["verification"]))
    else:  # pragma: no cover - commands are a closed set
        raise ValueError(cmd)
    return "\n".join(lines) + "\n"


def _to_csv(payload: Dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cmd = payload["command"]
    if cmd == "spectrum":
        headers, rows = _spectrum_rows(payload)
        writer.writerow(headers)
        writer.writerows(rows)
    elif cmd == "moduli-bound":
        writer.writerow(["key", "value"])
        for key, _ in _MODULI_FIELDS:
            writer.writerow([key, payload[key]])
        writer.writerow(["einstein_extra_2", payload["einstein_extra"][0]])
        writer.writerow(["einstein_extra_6", payload["einstein_extra"][1]])
        writer.writerow(["isotropy_casimir", payload["isotropy_casimir"]])
        writer.writerow(["scal", payload["scal"]])
    elif cmd == "einstein-check":
        writer.writerow(["key", "value"])
        writer.writerow(["multiplicity_at_2", payload["multiplicity_at_2"]])
        writer.writerow(["multiplicity_at_6", payload["multiplicity_at_6"]])
    elif cmd in ("verify-flag", "identities"):
        writer.writerow(["suite", "check", "status", "residual"])
        for suite in payload["suites"]:
            for check in suite["checks"]:
                writer.writerow(
                    [suite["suite"], check["name"], check["status"], check["residual"]]
                )
    else:  # pragma: no cover - `all` is refused before any computation
        raise ValueError(cmd)
    return buf.getvalue()


def _emit(payload: Dict, fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = _to_table(payload)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"nkspectra: cannot write {output}: {exc.strerror}\n")
            sys.exit(2)
    else:
        sys.stdout.write(text)


def _payload_failed(payload: Dict) -> bool:
    if payload["command"] in ("verify-flag", "identities"):
        return not payload["passed"]
    if payload["command"] == "all":
        return not payload["verification"]["passed"]
    return False


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
    literal = _DECIMAL_EXPONENT.fullmatch(text)
    if literal:
        digits = literal.group(1).replace("_", "").lstrip("0")
        # the length first: int() refuses more than 4300 digits
        if (
            len(digits) > len(str(MAX_CUTOFF_EXPONENT))
            or int(digits or 0) > MAX_CUTOFF_EXPONENT
        ):
            raise argparse.ArgumentTypeError(
                f"decimal exponent beyond {MAX_CUTOFF_EXPONENT} in magnitude"
            )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("cutoff must be nonnegative")
    # the reports print the cutoff, and str() refuses more than 4300 digits;
    # a numerator that long is refused by the label box instead
    if value.denominator >= 10**MAX_CUTOFF_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"cutoff denominator beyond {MAX_CUTOFF_EXPONENT} digits"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    if args.format == "csv" and args.subcommand == "all":
        parser.error("csv format is not available for `all`")
    try:
        if args.subcommand == "spectrum":
            payload = _spectrum_payload(
                Space(args.space), Bundle(args.bundle), args.cutoff
            )
        elif args.subcommand == "moduli-bound":
            payload = _moduli_payload(Space(args.space))
        elif args.subcommand == "verify-flag":
            payload = _verify_payload()
        elif args.subcommand == "identities":
            payload = _identities_payload()
        elif args.subcommand == "einstein-check":
            payload = _einstein_payload(Space(args.space))
        else:
            payload = _all_payload(args.cutoff)
        _emit(payload, args.format, args.output)
    except AssertionError as exc:
        print(f"nkspectra: internal assertion failed: {exc}", file=sys.stderr)
        return 1
    except LabelBoxTooLarge as exc:
        print(f"nkspectra: {exc}", file=sys.stderr)
        return 2
    return 1 if _payload_failed(payload) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
