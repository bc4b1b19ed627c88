"""Verification suites: every check must close to a syntactic zero, the
reports must serialize stably, and a few headline identities are
replayed directly against the calculus."""

import json
import os
import subprocess
import sys
from fractions import Fraction

from nkspectra import dga, nkcheck
from nkspectra.cli import _suites_table
from nkspectra.dga import (
    OMEGA,
    PSI_MINUS,
    PSI_PLUS,
    apply_j,
    codifferential,
    contract_frame,
    contract_vector,
    d,
    e,
    hodge_star,
    inner,
    killing_data,
    symbol_form,
    type_decompose,
    wedge,
)
from nkspectra.nkcheck import (
    CheckResult,
    VerificationReport,
    a_norm_squared,
    a_two_form,
    moduli_generator_rank,
    run_all_suites,
    verify_eigenfunction_suite,
    verify_injectivity_argument,
    verify_killing_suite,
    verify_moduli_generators,
    verify_pointwise_identities,
)

EXPECTED_SUITES = (
    "pointwise_identities",
    "killing_suite",
    "eigenfunction_suite",
    "moduli_generators",
    "injectivity_argument",
)


def test_every_suite_passes():
    reports = run_all_suites()
    for report in reports:
        assert report.passed, str(report)
        for check in report.checks:
            assert check.passed, f"{report.suite}: {check.name} -> {check.residual}"
            assert check.residual == "0"


def test_suite_names_and_check_name_uniqueness():
    reports = run_all_suites()
    assert tuple(r.suite for r in reports) == EXPECTED_SUITES
    for report in reports:
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        assert len(names) >= 5


def test_reports_serialize_deterministically():
    first = [r.to_json_dict() for r in run_all_suites()]
    second = [r.to_json_dict() for r in run_all_suites()]
    assert first == second
    # and the structure is plain JSON
    blob = json.dumps(first)
    assert json.loads(blob) == first


def test_json_layout():
    report = verify_moduli_generators()
    doc = report.to_json_dict()
    assert set(doc) == {"suite", "passed", "checks"}
    assert doc["passed"] is True
    for check in doc["checks"]:
        assert set(check) == {"name", "status", "residual"}
        assert check["status"] == "pass"


def test_report_string_rendering():
    # reports render through the command line's suite table
    def render(report):
        return _suites_table({"suites": [report.to_json_dict()], "passed": report.passed})

    good = verify_injectivity_argument()
    lines = render(good)
    assert lines[0] == "suite injectivity_argument: PASS"
    assert all(line.startswith("  [pass]") for line in lines[1:-1])
    assert lines[-1] == "all suites passed"

    bad = VerificationReport(
        suite="demo",
        checks=(CheckResult("broken", False, "e_12"),),
    )
    assert not bad.passed
    assert render(bad) == [
        "suite demo: FAIL",
        "  [FAIL] broken  residual = e_12",
        "SUITE FAILURES PRESENT",
    ]
    assert bad.to_json_dict()["checks"][0]["status"] == "fail"


def test_model_structure_norms():
    for i in range(6):
        x = [Fraction(0)] * 6
        x[i] = Fraction(1)
        assert a_norm_squared(x) == 2
    # |A_X|^2 = 2|X|^2 off the axes too
    x = [Fraction(1), Fraction(-2), Fraction(0), Fraction(3), Fraction(1, 2), Fraction(0)]
    norm_x = sum(q * q for q in x)
    assert a_norm_squared(x) == 2 * norm_x


def test_model_structure_composition_sum():
    # an oracle for a1_composition_sum that never composes forms: A_{e_i}
    # as a 6x6 matrix whose column k holds -(e_k -| beta_i), squared and
    # summed with plain list arithmetic
    def a_matrix(i):
        beta = contract_vector(apply_j(e(i)), PSI_PLUS)
        cols = [
            [-contract_frame(beta, k).coefficient(r).constant_part() for r in range(1, 7)]
            for k in range(1, 7)
        ]
        return [[cols[c][r] for c in range(6)] for r in range(6)]

    total = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(1, 7):
        a = a_matrix(i)
        for r in range(6):
            for c in range(6):
                total[r][c] += sum(a[r][k] * a[k][c] for k in range(6))
    assert total == [[Fraction(-4 if r == c else 0) for c in range(6)] for r in range(6)]


def test_a_two_form_against_direct_contraction():
    beta = a_two_form([Fraction(1)] + [Fraction(0)] * 5)
    assert (beta - contract_vector(apply_j(e(1)), PSI_PLUS)).is_zero()
    # moving J across the contraction flips the sign:
    # (JX) -| Psi+ = -(X -| Psi-)
    assert (beta + contract_vector(e(1), PSI_MINUS)).is_zero()


def test_primitive_star_identity_example():
    # primitive (1,1) forms are anti-self-dual against omega
    example = e(1, 2) + e(3, 4)
    assert (hodge_star(example) + wedge(example, OMEGA)).is_zero()


def test_primitive_basis_spans_rank_eight():
    rows = []
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for form in nkcheck._PRIMITIVE_11_BASIS:
        rows.append([form.coefficient(i, j).constant_part() for i, j in pairs])
    assert nkcheck._rank(rows) == 8


def test_moduli_generator_rank():
    assert moduli_generator_rank() == 8


def test_moduli_generator_rank_makes_few_dense_products():
    # three products per killing_values call (the unitarity check and
    # Ad(g^-1) xi) over 8 generators and 5 samples, plus 6 that build the
    # samples
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is dga.mat_mul.__code__:
            calls += 1

    sys.setprofile(hook)
    try:
        rank = moduli_generator_rank()
    finally:
        sys.setprofile(None)
    assert rank == 8
    assert 0 < calls <= 126


def test_suites_share_one_killing_data(monkeypatch):
    seen = []

    def recording(xi=None):
        kd = killing_data(xi)
        seen.append(kd)
        return kd

    monkeypatch.setattr(nkcheck, "killing_data", recording)
    reports = (
        verify_killing_suite(),
        verify_eigenfunction_suite(),
        verify_moduli_generators(),
        verify_injectivity_argument(),
    )
    assert all(r.passed for r in reports)
    assert len(seen) == 4
    assert all(kd is seen[0] for kd in seen)
    assert killing_data() is seen[0]


def test_rank_helper():
    assert nkcheck._rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert nkcheck._rank([[Fraction(0), Fraction(0)]]) == 0
    assert nkcheck._rank([
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]) == 3


def test_injectivity_identities_replayed():
    kd = killing_data()
    f = symbol_form("v1")
    df = d(f)
    eta = type_decompose(d(apply_j(df)))[0]
    assert (codifferential(kd.phi_k) - kd.xi_flat * 8).is_zero()
    assert (codifferential(eta) - apply_j(df) * 4).is_zero()
    combined = codifferential(kd.phi_k + eta)
    assert (combined - (kd.xi_flat * 8 + apply_j(df) * 4)).is_zero()


def test_hermitian_laplacian_closes_killing_chain():
    kd = killing_data()
    assert (nkcheck._hermitian_laplacian(kd.phi_k) - kd.phi_k * 12).is_zero()
    f = symbol_form("v1")
    eta = type_decompose(d(apply_j(d(f))))[0]
    assert (nkcheck._hermitian_laplacian(eta) - eta * 12).is_zero()


def test_sample_unitaries_are_unitary():
    from nkspectra.dga import MAT_IDENTITY, mat_dagger, mat_is_zero, mat_mul, mat_sub

    samples = nkcheck._sample_unitaries()
    assert len(samples) >= 4
    for g in samples:
        assert mat_is_zero(mat_sub(mat_mul(g, mat_dagger(g)), MAT_IDENTITY))


def test_suite_sizes():
    assert len(verify_pointwise_identities().checks) == 14
    assert len(verify_killing_suite().checks) == 16
    assert len(verify_eigenfunction_suite().checks) == 13
    assert len(verify_moduli_generators().checks) == 8
    assert len(verify_injectivity_argument().checks) == 7


def test_model_checks_fire_under_dash_O():
    # a doubled A makes its norm and composition checks report FAIL and
    # `identities` exit 1; a non-primitive form in the primitive basis and
    # a basis that does not span raise.  Both kinds work under python -O
    script = (
        "import contextlib, io\n"
        "from nkspectra import cli, nkcheck as n\n"
        "a_two_form, basis = n.a_two_form, n._PRIMITIVE_11_BASIS\n"
        "n.a_two_form = lambda x: a_two_form(x) * 2\n"
        "report = n.verify_pointwise_identities()\n"
        "print(' '.join(c.name for c in report.checks if not c.passed))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as table:\n"
        "    code = cli.main(['identities'])\n"
        "print(code, '[FAIL] a1_composition_sum' in table.getvalue())\n"
        "n.a_two_form = a_two_form\n"
        "fired = 0\n"
        "for primitive in (basis[:-1] + (n.OMEGA,), basis[:1] * 8):\n"
        "    n._PRIMITIVE_11_BASIS = primitive\n"
        "    try:\n"
        "        n.verify_pointwise_identities()\n"
        "    except AssertionError:\n"
        "        fired += 1\n"
        "print(fired)\n"
    )
    src = os.path.dirname(os.path.dirname(nkcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, timeout=60,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    failed, exit_line, fired = proc.stdout.splitlines()
    assert {"a0_norm_polarized", "a1_composition_sum"} <= set(failed.split())
    assert exit_line == "1 True"
    assert fired == "2"
