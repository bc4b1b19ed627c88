"""Command-line interface: reproducible reports over the spectrum
tables, moduli bounds and verification suites.

Each subcommand is one row of ``_COMMANDS``: its help line, its options,
the builder of its JSON payload from the parsed arguments, its table
renderer and its CSV renderer (none for ``all``, which refuses CSV).  The
command line is read from the options as argparse read it, and -h prints
them.  argparse itself is not used, since importing it, with the gettext
and locale it loads, costs about 5 ms of every cold start.  The payload
builders state every report's layout, and ``_json`` writes any payload
as json.dumps(payload, indent=2) does, without the json module.  Every
payload names its subcommand under ``command``, which picks the
renderer; ``all`` renders its embedded reports through their own tables.

Output is byte-stable for identical arguments: every ordering is
explicit and all rationals render as exact "p/q" strings (plain "p"
when integral).  Exit status is 0 on success, 1 when an assertion or a
verification suite fails, 2 on usage errors, a failed write to stdout or
to the --output path (an empty path included), a cutoff literal whose
decimal exponent exceeds MAX_CUTOFF_EXPONENT, any of whose numbers or
whose reduced denominator has more digits than the interpreter's
int_max_str_digits limit (4300 by default), and a cutoff whose label box
exceeds rootrep.MAX_LABEL_BOX included.
"""

from __future__ import annotations

import importlib.util
import io
import re
import sys
from contextlib import suppress
from fractions import Fraction
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

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

# --------------------------------------------------------------------------
# payload builders (shared by every output format and by `all`)

def _spectrum_payload(space: Space, bundle: Bundle, cutoff: Fraction) -> Dict:
    entries = enumerate_spectrum(space, bundle, cutoff)
    return {
        "command": "spectrum",
        "space": space.value,
        "bundle": bundle.value,
        "cutoff": str(cutoff),
        "entries": [
            {
                "irrep": str(en.irrep),
                "labels": list(en.irrep.labels),
                "eigenvalue": str(en.eigenvalue),
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
        "einstein_extra": list(einstein_deformation_check(space)),
        "isotropy_casimir": str(cas),
        "scal": str(scal),
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
    suites = [
        {"suite": r.suite, "passed": r.passed, "checks": [
            {"name": c.name, "status": "pass" if c.passed else "fail", "residual": c.residual}
            for c in r.checks
        ]}
        for r in reports
    ]
    return {"passed": all(s["passed"] for s in suites), "suites": suites, "command": command}


def _verify_payload() -> Dict:
    return _suites_payload("verify-flag", nkcheck.run_all_suites())


def _all_payload(cutoff: Fraction) -> Dict:
    return {
        "command": "all",
        "spectrum": [
            _spectrum_payload(space, bundle, cutoff)
            for space in Space
            for bundle in Bundle
        ],
        "moduli": [_moduli_payload(space) for space in Space],
        "einstein": [_einstein_payload(space) for space in Space],
        "verification": _verify_payload(),
    }


# --------------------------------------------------------------------------
# renderers

def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, on the dicts, lists,
    strs, ints and bools of a payload; a str that json would escape, a key
    that is not a str and any other type raise AssertionError."""
    kind = type(value)
    # json escapes a quote, a backslash, a control and a non-ASCII character
    if kind is str and value.isascii() and value.isprintable():
        if '"' not in value and "\\" not in value:
            return f'"{value}"'
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    inner = indent + "  "
    if kind is list:
        items, ends = [_json(item, inner) for item in value], "[]"
    elif kind is dict and all(type(key) is str for key in value):
        items = [f"{_json(key)}: {_json(item, inner)}" for key, item in value.items()]
        ends = "{}"
    else:
        raise AssertionError(f"no JSON form without escapes: {value!a:.60}")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


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
        lines += _COMMANDS[sub["command"]][3](sub) + [""]
    return lines + _suites_table(payload["verification"])


# --------------------------------------------------------------------------
# subcommands and their options

# Fraction("1e<n>") builds 10**n, which takes unbounded time for a large
# n before the label box can refuse the cutoff, so a decimal literal with
# a larger exponent is refused before it is converted.
MAX_CUTOFF_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(
    r"\s*[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
    r"[eE][-+]?(\d+(?:_\d+)*)\s*"
)


class CutoffError(ValueError):
    """A cutoff literal that _fraction_arg refuses; the message says why."""


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
            raise CutoffError(f"decimal exponent beyond {MAX_CUTOFF_EXPONENT} in magnitude")
    # Fraction() would call a valid literal with a longer number "not a
    # rational"
    runs = re.findall(r"\d+", text.replace("_", ""))
    if max(map(len, runs), default=0) > limit:
        raise CutoffError(f"cutoff literal has a number beyond {limit} digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        shown = text if len(text) <= 32 else text[:32] + "..."
        raise CutoffError(f"not a rational: {shown!r}") from exc
    if value < 0:
        raise CutoffError("cutoff must be nonnegative")
    # the reports print the cutoff, which str() refuses beyond the limit; a
    # numerator that long is refused by the label box instead
    if value.denominator >= 10**limit:
        raise CutoffError(f"cutoff denominator beyond {limit} digits")
    return value


# An option is (its flag, its choices or the function that reads its
# value, its default or _REQUIRED, its help line).  The parsed options are
# keyed by the flag without its dashes.
_REQUIRED = object()
_SPACE = ("--space", tuple(s.value for s in Space), _REQUIRED, "the homogeneous space")
_COMMON = (
    ("--format", ("table", "json", "csv"), "table", "output format (default: table)"),
    ("--output", str, None, "write the report to this path"),
)

# subcommand -> (its help line, its options in the order help lists them,
# its payload from the parsed options, its table lines, its CSV rows or
# None where CSV is refused)
_COMMANDS = {
    "spectrum": (
        "eigenvalue table up to a cutoff",
        (
            _SPACE,
            ("--bundle", tuple(b.value for b in Bundle), Bundle.LAMBDA11.value,
             "functions or the primitive (1,1) bundle (default)"),
            ("--cutoff", _fraction_arg, _REQUIRED, "largest eigenvalue, a nonnegative rational"),
            *_COMMON,
        ),
        lambda o: _spectrum_payload(Space(o["space"]), Bundle(o["bundle"]), o["cutoff"]),
        _spectrum_table, _spectrum_csv,
    ),
    "moduli-bound": (
        "deformation space upper bound", (_SPACE, *_COMMON),
        lambda o: _moduli_payload(Space(o["space"])), _moduli_table, _moduli_csv,
    ),
    "verify-flag": (
        "run all verification suites", _COMMON,
        lambda o: _verify_payload(), _suites_table, _suites_csv,
    ),
    "identities": (
        "pointwise model identities", _COMMON,
        lambda o: _suites_payload("identities", (nkcheck.verify_pointwise_identities(),)),
        _suites_table, _suites_csv,
    ),
    "einstein-check": (
        "eigenvalue 2 and 6 multiplicities", (_SPACE, *_COMMON),
        lambda o: _einstein_payload(Space(o["space"])), _einstein_table, _einstein_csv,
    ),
    "all": (
        "every report in one run",
        (("--cutoff", _fraction_arg, Fraction(12), "spectrum cutoff (default 12)"), *_COMMON),
        lambda o: _all_payload(o["cutoff"]), _all_table, None,
    ),
}


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"nkspectra: {message}\n")
    sys.exit(2)


def _write(text: str, output: Optional[str]) -> None:
    """Write text to the --output path, or to stdout when there is none;
    a write that fails, to an empty path too, is one line and exit 2."""
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # so a full disk or a closed pipe fails here, not at exit
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if output is None:
            with suppress(OSError):  # closed, it is not flushed again at exit
                sys.stdout.close()
        shown = "stdout" if output is None else output or "''"
        _usage_error(f"cannot write {shown}: {exc.strerror}")


def _emit(payload: Dict, fmt: str, output: Optional[str]) -> None:
    *_, table, csv_rows = _COMMANDS[payload["command"]]
    if fmt == "json":
        text = _json(payload) + "\n"
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows(payload))
        text = buf.getvalue()
    else:
        text = "\n".join(table(payload)) + "\n"
    _write(text, output)


# --------------------------------------------------------------------------
# command-line parsing, read as argparse read it, from _COMMANDS

_HELP = ("-h", "--help")
_DESCRIPTION = (
    "Exact spectra, moduli bounds and identity verification for the "
    "homogeneous nearly Kahler 6-manifolds."
)


def _option(token: str, flags: Sequence[str]) -> Optional[Tuple[Optional[str], Optional[str]]]:
    """Read a token against the flags in force: None for a value, else
    (the flag it names, None for an unknown option; the value joined to
    it by "=", or after "-h", or None)."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in flags:
        return token, None
    name, eq, joined = token.partition("=")
    if eq and name in flags:
        return name, joined
    if token[1] == "-":  # a unique prefix of a long flag stands for it
        matches = [(flag, joined if eq else None) for flag in flags if flag.startswith(name)]
    else:  # one dash: only -h, with a value joined to it
        matches = [("-h", token[2:])] if token[:2] == "-h" else []
    if len(matches) > 1:
        found = ", ".join(flag for flag, _ in matches)
        _usage_error(f"ambiguous option: {token} could match {found}")
    if matches:
        return matches[0]
    # a negative number or a token with a space is a value, as for argparse
    if " " in token or re.match(r"-\d+$|-\d*\.\d+$", token):
        return None
    return None, None


def _help(command: Optional[str], flag: str, joined: Optional[str]) -> NoReturn:
    """Print the usage of nkspectra, or of one subcommand, and exit 0."""
    if flag == "-h" and joined:  # argparse reads "-hh" as -h twice
        joined = joined.lstrip("h") or None
    if joined is not None:
        _usage_error(f"argument -h/--help: ignored explicit argument {joined!r}")
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        usage = "nkspectra [-h] {%s} ..." % ",".join(_COMMANDS)
        about = _DESCRIPTION
        rows += [(name, row[0]) for name, row in _COMMANDS.items()]
    else:
        usage = f"nkspectra {command} [-h]"
        about, options = _COMMANDS[command][:2]
        for name, accepts, default, line in options:
            if type(accepts) is tuple:
                shown = "%s {%s}" % (name, ",".join(accepts))
            else:
                shown = f"{name} {name[2:].upper()}"
            usage += f" {shown}" if default is _REQUIRED else f" [{shown}]"
            rows.append((shown, line))
    width = 2 + max(len(shown) for shown, _ in rows)
    listed = "".join(f"  {shown:<{width}}{line}\n" for shown, line in rows)
    _write(f"usage: {usage}\n\n{about}\n\n{listed}", None)
    sys.exit(0)


def _read_value(flag: str, accepts, text: str):
    if type(accepts) is tuple:
        if text not in accepts:
            choices = ", ".join(map(repr, accepts))
            _usage_error(f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return accepts(text)
    except CutoffError as exc:
        _usage_error(f"argument {flag}: {exc}")


def _parse(tokens: Sequence[str]) -> Tuple[str, Dict]:
    """The subcommand and its options, read as argparse read them: a flag's
    value follows it or is joined to it by "=", a unique prefix of a flag
    stands for it, and the last of a repeated option wins; a "--" and every
    token after it are unrecognized, since no subcommand has a positional.
    -h or --help prints usage and exits 0, at the top level or after the
    subcommand; every usage error exits 2 with one line on stderr."""
    extras = []
    for at, command in enumerate(tokens):
        read = _option(command, _HELP)
        if read is None:
            break
        if read[0] is None:
            extras.append(command)
        else:
            _help(None, *read)
    else:
        _usage_error("the following arguments are required: subcommand")
    options = _COMMANDS[_read_value("subcommand", tuple(_COMMANDS), command)][1]
    accepted = {flag: accepts for flag, accepts, _, _ in options}
    flags = (*_HELP, *accepted)
    # no token from the first "--" on is an option or an option's value;
    # the others are classified before any is read, as argparse does
    rest = tokens[at + 1 :]
    end = rest.index("--") if "--" in rest else len(rest)
    kinds = [_option(token, flags) for token in rest[:end]]
    values = {flag[2:]: default for flag, _, default, _ in options}
    i = 0
    while i < end:
        kind = kinds[i]
        i += 1
        if kind is None or kind[0] is None:
            extras.append(rest[i - 1])
            continue
        flag, text = kind
        if flag in _HELP:
            _help(command, flag, text)
        if text is None:
            if i == end or kinds[i] is not None:
                _usage_error(f"argument {flag}: expected one argument")
            text = rest[i]
            i += 1
        values[flag[2:]] = _read_value(flag, accepted[flag], text)
    extras += rest[end:]
    missing = [flag for flag, _, _, _ in options if values[flag[2:]] is _REQUIRED]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return command, values


def main(argv: Optional[Sequence[str]] = None) -> int:
    command, options = _parse(sys.argv[1:] if argv is None else argv)
    _, _, build, _, csv_rows = _COMMANDS[command]
    if options["format"] == "csv" and csv_rows is None:
        _usage_error(f"csv format is not available for `{command}`")
    try:
        payload = build(options)
        _emit(payload, options["format"], options["output"])
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
