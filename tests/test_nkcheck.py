"""Verification suites: every check must close to a syntactic zero, the
reports must serialize stably, and a few headline identities are
replayed directly against the calculus."""

import json
import os
import subprocess
import sys
from fractions import Fraction

from nkspectra import dga, nkcheck
from nkspectra.dga import (
    OMEGA,
    PSI_MINUS,
    PSI_PLUS,
    apply_j,
    codifferential,
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
    model_structure,
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
    good = verify_injectivity_argument()
    text = str(good)
    assert text.splitlines()[0] == "suite injectivity_argument: PASS"
    assert all(line.startswith("  [pass]") for line in text.splitlines()[1:])

    bad = VerificationReport(
        suite="demo",
        checks=(CheckResult("broken", False, "e_12"),),
    )
    assert not bad.passed
    assert "FAIL" in str(bad)
    assert "residual = e_12" in str(bad)
    assert bad.to_json_dict()["checks"][0]["status"] == "fail"


def test_model_structure_norms():
    m = model_structure()
    for i in range(6):
        x = [Fraction(0)] * 6
        x[i] = Fraction(1)
        assert m.a_norm_squared(x) == 2
    # |A_X|^2 = 2|X|^2 off the axes too
    x = [Fraction(1), Fraction(-2), Fraction(0), Fraction(3), Fraction(1, 2), Fraction(0)]
    norm_x = sum(q * q for q in x)
    assert m.a_norm_squared(x) == 2 * norm_x


def test_model_structure_composition_sum():
    m = model_structure()
    total = None
    for a in m.a_matrices:
        square = nkcheck._mat6_mul(a, a)
        total = square if total is None else nkcheck._mat6_add(total, square)
    assert total == nkcheck._mat6_scale(nkcheck._MAT6_ID, Fraction(-4))


def test_a_two_form_against_direct_contraction():
    m = model_structure()
    beta = m.a_two_form([Fraction(1)] + [Fraction(0)] * 5)
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
    # A-matrices of twice the length, a non-primitive form in the
    # primitive basis, and a basis that does not span; the checks are
    # explicit raises, so python -O keeps them
    script = (
        "from fractions import Fraction as F\n"
        "from nkspectra import nkcheck as n\n"
        "a_matrix, basis = n._a_matrix_for, n._PRIMITIVE_11_BASIS\n"
        "fired = 0\n"
        "for a_for, primitive, suite in (\n"
        "    (lambda f: n._mat6_scale(a_matrix(f), F(2)), basis, n.model_structure),\n"
        "    (a_matrix, basis[:-1] + (n.OMEGA,), n.verify_pointwise_identities),\n"
        "    (a_matrix, basis[:1] * 8, n.verify_pointwise_identities),\n"
        "):\n"
        "    n._a_matrix_for, n._PRIMITIVE_11_BASIS = a_for, primitive\n"
        "    try:\n"
        "        suite()\n"
        "    except AssertionError:\n"
        "        fired += 1\n"
        "raise SystemExit(fired + 1)\n"
    )
    src = os.path.dirname(os.path.dirname(nkcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert proc.returncode == 4
