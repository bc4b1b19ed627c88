"""Workloads of the nkspectra benchmark and the checks on their outputs.

A workload is a list of cold ``nkspectra`` invocations.  The seed draws
each rational cutoff from a narrow band and fixes the order of the
invocations; the program only ever sees the generated arguments.

The bands are chosen so that every cutoff in them selects the same label
set (56 so5 labels, 124 su3 labels and 1289 su2^3 labels in [300, 301);
the cutoff-12 label sets in [12, 13)), so the seed changes the arguments
but not the amount of work.

Every output is checked twice, once against the reference outputs of the
seed commit (``reference.json``, truncated to the drawn cutoff) and once
against closed forms that do not come from the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# (low, high) of each cutoff band; the references are made at `high`
DEEP_BAND = (Fraction(300), Fraction(301))
SMALL_BAND = (Fraction(12), Fraction(13))


@dataclass(frozen=True)
class Invocation:
    """One cold ``nkspectra`` process: its arguments and what to expect."""

    kind: str  # "<space>/<bundle>" for spectrum, "all" for the full report
    cutoff: Fraction
    argv: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: Tuple[str, ...]
    band: Tuple[Fraction, Fraction]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("spectrum-deep", ("cp3/lambda11", "flag/lambda11"), DEEP_BAND),
        Workload(
            "spectrum-wide", ("s3xs3/lambda11", "s3xs3/functions"), DEEP_BAND
        ),
        Workload("report-all", ("all",), SMALL_BAND),
    )
}


def draw_cutoff(rng: random.Random, band: Tuple[Fraction, Fraction]) -> Fraction:
    """A rational in [low, high): low + p/q with a random denominator."""
    low, high = band
    q = rng.randint(2, 97)
    return low + (high - low) * Fraction(rng.randrange(q), q)


def argv_for(kind: str, cutoff: Fraction) -> Tuple[str, ...]:
    if kind == "all":
        return ("all", "--cutoff", str(cutoff), "--format", "json")
    space, bundle = kind.split("/")
    return (
        "spectrum", "--space", space, "--bundle", bundle,
        "--cutoff", str(cutoff), "--format", "json",
    )


def build(name: str, seed: int, tiny: bool = False) -> List[Invocation]:
    """The invocations of one workload round, in the seeded order.

    ``tiny`` moves every cutoff into the cutoff-12 band; the self-test
    uses it to exercise the whole benchmark in seconds.
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    band = SMALL_BAND if tiny else workload.band
    invocations = []
    for kind in workload.kinds:
        cutoff = draw_cutoff(rng, band)
        invocations.append(Invocation(kind, cutoff, argv_for(kind, cutoff)))
    rng.shuffle(invocations)
    return invocations


# --------------------------------------------------------------------------
# closed forms, written from the textbook formulas and not from nkspectra

_GROUP_OF_SPACE = {"s3xs3": "su2^3", "cp3": "so5", "flag": "su3"}


def closed_eigenvalue(group: str, labels: Sequence[int]) -> Fraction:
    """12 times minus the Casimir of the irrep for -B."""
    if group == "su2^3":
        return Fraction(3, 2) * sum(k * (k + 2) for k in labels)
    if group == "so5":
        a, b = labels
        return Fraction(2 * (a * (a + 3) + b * (b + 1)))
    k, l = labels
    return Fraction(4, 3) * (k * k + k * l + l * l) + 4 * (k + l)


def closed_dimension(group: str, labels: Sequence[int]) -> int:
    """Weyl dimension formula, expanded per group."""
    if group == "su2^3":
        a, b, c = labels
        return (a + 1) * (b + 1) * (c + 1)
    if group == "so5":
        a, b = labels
        return (2 * a + 3) * (2 * b + 1) * (a + b + 2) * (a - b + 1) // 6
    k, l = labels
    return (k + 1) * (l + 1) * (k + l + 2) // 2


def _cg(a: int, b: int) -> range:
    return range(abs(a - b), a + b + 1, 2)


def s3xs3_hom(bundle: str, labels: Sequence[int]) -> int:
    """Multiplicity of the diagonal-SU2 fiber in V_a x V_b x V_c.

    Functions: the trivial summand occurs once exactly when a + b + c is
    even and (a, b, c) satisfies the triangle inequality.  Primitive
    (1,1)-forms: the fiber is V_4 + V_2, counted by Clebsch-Gordan.
    """
    a, b, c = labels
    if bundle == "functions":
        even = (a + b + c) % 2 == 0
        return int(even and abs(a - b) <= c <= a + b)
    return sum(1 for j in _cg(a, b) for k in _cg(j, c) if k in (2, 4))


def _check_spectrum_payload(payload: Dict, cutoff: Fraction) -> List[str]:
    problems = []
    group = _GROUP_OF_SPACE[payload["space"]]
    seen = set()
    previous = None
    for en in payload["entries"]:
        labels = tuple(en["labels"])
        eig = Fraction(en["eigenvalue"])
        key = (eig, labels)
        if previous is not None and key <= previous:
            problems.append(f"entries out of order at {en['irrep']}")
        previous = key
        seen.add(labels)
        if en["irrep"] != "V(" + ",".join(map(str, labels)) + ")":
            problems.append(f"irrep name {en['irrep']} does not match labels")
        if eig > cutoff or eig != closed_eigenvalue(group, labels):
            problems.append(f"{en['irrep']}: eigenvalue {eig} is wrong")
        if en["irrep_dim"] != closed_dimension(group, labels):
            problems.append(f"{en['irrep']}: dimension {en['irrep_dim']} is wrong")
        if en["hom_dim"] <= 0 or en["contribution"] != en["hom_dim"] * en["irrep_dim"]:
            problems.append(f"{en['irrep']}: hom/contribution inconsistent")
    if group == "su2^3":
        bundle = payload["bundle"]
        for en in payload["entries"]:
            if en["hom_dim"] != s3xs3_hom(bundle, en["labels"]):
                problems.append(f"{en['irrep']}: hom_dim differs from closed form")
        expected = _s3xs3_labels(bundle, cutoff)
        if seen != expected:
            problems.append(
                f"s3xs3 label set differs from closed form by {len(seen ^ expected)}"
            )
    return problems


def _s3xs3_labels(bundle: str, cutoff: Fraction) -> set:
    """Every su2^3 label with eigenvalue <= cutoff and nonzero Hom."""
    top = 0  # (3/2) k (k+2) <= cutoff bounds each label on its own
    while closed_eigenvalue("su2^3", (top + 1, 0, 0)) <= cutoff:
        top += 1
    box = range(top + 1)
    return {
        (a, b, c)
        for a in box for b in box for c in box
        if closed_eigenvalue("su2^3", (a, b, c)) <= cutoff
        and s3xs3_hom(bundle, (a, b, c)) > 0
    }


_MODULI_AT_12 = {  # space: (primitive (1,1) at 12, functions at 12, bound)
    "s3xs3": (9, 0, 0),
    "cp3": (20, 10, 0),
    "flag": (32, 16, 8),
}


def _check_all_payload(payload: Dict, cutoff: Fraction) -> List[str]:
    problems = []
    for sub in payload["spectrum"]:
        problems.extend(_check_spectrum_payload(sub, cutoff))
    for mod in payload["moduli"]:
        want = _MODULI_AT_12[mod["space"]]
        got = (
            mod["dim_eigenspace_12_primitive_11"],
            mod["dim_eigenspace_12_functions"],
            mod["reported_bound"],
        )
        if got != want or mod["einstein_extra"] != [0, 0]:
            problems.append(f"moduli {mod['space']}: {got} instead of {want}")
    for ein in payload["einstein"]:
        if (ein["multiplicity_at_2"], ein["multiplicity_at_6"]) != (0, 0):
            problems.append(f"einstein {ein['space']}: nonzero multiplicity")
    verification = payload["verification"]
    statuses = [c["status"] for s in verification["suites"] for c in s["checks"]]
    if verification["passed"] is not True or set(statuses) != {"pass"}:
        problems.append("verification suites did not all pass")
    return problems


# --------------------------------------------------------------------------
# reference outputs of the seed commit

def load_reference() -> Dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _truncate(payload: Dict, cutoff: Fraction) -> Dict:
    out = dict(payload)
    out["cutoff"] = str(cutoff)
    out["entries"] = [
        en for en in payload["entries"] if Fraction(en["eigenvalue"]) <= cutoff
    ]
    return out


def expected_output(reference: Dict, inv: Invocation) -> bytes:
    """The exact stdout the seed commit prints for this invocation."""
    if inv.kind == "all":
        payload = dict(reference["all"])
        payload["spectrum"] = [_truncate(s, inv.cutoff) for s in payload["spectrum"]]
    else:
        payload = _truncate(reference["spectrum"][inv.kind], inv.cutoff)
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def check_output(reference: Dict, inv: Invocation, stdout: bytes) -> List[str]:
    """Problems with one invocation's stdout; empty when it is correct."""
    if stdout != expected_output(reference, inv):
        return ["stdout differs from the reference output"]
    payload = json.loads(stdout)
    if inv.kind == "all":
        return _check_all_payload(payload, inv.cutoff)
    return _check_spectrum_payload(payload, inv.cutoff)
