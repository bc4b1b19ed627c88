"""Verification suites: every check must close to a syntactic zero, the
reports must serialize stably, and a few headline identities are
replayed directly against the calculus."""

import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkspectra import cli, dga, nkcheck
from nkspectra.branching import Bundle, Space, hom_dimension
from nkspectra.cli import _suites_table
from nkspectra.dga import (
    InvariantForm,
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
    kernel,
    killing_data,
    laplacian,
    symbol_form,
    type_decompose,
    wedge,
)
from nkspectra.rootrep import _LIE_DIMENSION, Group, iter_labels, laplace_eigenvalue, su3_label
from nkspectra.nkcheck import (
    CheckResult,
    VerificationReport,
    a_norm_squared,
    a_two_form,
    moduli_space,
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
    first = cli._suites_payload("verify-flag", run_all_suites())
    second = cli._suites_payload("verify-flag", run_all_suites())
    assert first == second
    # and the structure is plain JSON, written as json.dumps writes it
    text = cli._json(first)
    assert text == json.dumps(first, indent=2)
    assert json.loads(text) == first


def test_json_layout():
    # the key order is part of the byte-stable output
    doc = cli._suites_payload("identities", (verify_moduli_generators(),))
    assert list(doc) == ["passed", "suites", "command"]
    assert doc["passed"] is True
    assert doc["command"] == "identities"
    (suite,) = doc["suites"]
    assert list(suite) == ["suite", "passed", "checks"]
    assert suite["suite"] == "moduli_generators"
    assert suite["passed"] is True
    for check in suite["checks"]:
        assert list(check) == ["name", "status", "residual"]
        assert check["status"] == "pass"
        assert check["residual"] == "0"


def test_report_string_rendering():
    # reports render through the command line's suite payload and table
    def render(report):
        return _suites_table(cli._suites_payload("identities", (report,)))

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
    doc = cli._suites_payload("verify-flag", (good, bad))
    assert doc["passed"] is False
    assert [suite["passed"] for suite in doc["suites"]] == [True, False]
    assert doc["suites"][1]["checks"] == [
        {"name": "broken", "status": "fail", "residual": "e_12"}
    ]


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
            [-contract_frame(beta, k).constant_part(r) for r in range(1, 7)]
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


def test_a_two_form_refuses_other_lengths():
    # a_norm_squared([1, 2, 3]) padded the vector with zeros and returned
    # 28, and a seventh component raised VerticalComponent
    for x in ([1, 2, 3], [1] * 7, []):
        for build in (a_two_form, a_norm_squared):
            with pytest.raises(ValueError, match="6 components"):
                build(x)


def test_primitive_star_identity_example():
    # primitive (1,1) forms are anti-self-dual against omega
    example = e(1, 2) + e(3, 4)
    assert (hodge_star(example) + wedge(example, OMEGA)).is_zero()


def test_primitive_basis_spans_rank_eight():
    # slot n of the projected generic form is the primitive (1,1) part of
    # e^{p_n}: J-invariant, orthogonal to omega, and the eight span
    beta = InvariantForm.make(
        2, {(p, n): 1 for n, p in enumerate(nkcheck._PRIMITIVE_PAIRS, 1)}
    )
    phi = type_decompose(beta)[0]
    assert (apply_j(phi) - phi).is_zero()
    assert inner(phi, OMEGA).is_zero()
    rows = [
        [phi.slot_values(i, j)[n] for i in range(1, 7) for j in range(i + 1, 7)]
        for n in range(1, 9)
    ]
    assert _gauss_jordan_rank(rows) == 8
    projections = nkcheck._projections(nkcheck._PRIMITIVE_PAIRS)
    assert kernel(projections, projections) == ()
    slots = [p * symbol_form(s) for p, s in zip(projections, _SLOT_NAMES)]
    assert (sum(slots, InvariantForm.zero(2)) - phi).is_zero()


# the symbols of the coefficient slots 1..8
_SLOT_NAMES = ("x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2")


def _basic_sections():
    """The basic sections among the 64 P_r c_s, as moduli_space finds them."""
    unknowns = [p * symbol_form(s) for p in nkcheck._projections(nkcheck._PRIMITIVE_PAIRS)
                for s in _SLOT_NAMES]
    return kernel(unknowns, [d(u).vertical_part() for u in unknowns])


def test_moduli_generator_rank():
    # one co-closed section, phi_v, and dim su_3 = 8 per section (Schur)
    sections = moduli_space()
    assert [str(phi) for phi in sections] == ["v_3 e_12 - v_2 e_34 + v_1 e_56"]
    assert _LIE_DIMENSION[Group.SU3] * len(sections) == 8
    assert moduli_space() is sections


def test_moduli_generator_rank_makes_few_dense_products():
    # NK is read on the symbols: no matrix product and no point evaluation
    codes = {dga.sparse_mul.__code__: 0, dga.killing_values.__code__: 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            codes[frame.f_code] += 1

    moduli_space.cache_clear()
    sys.setprofile(hook)
    try:
        sections = moduli_space()
    finally:
        sys.setprofile(None)
    assert len(sections) == 1
    assert list(codes.values()) == [0, 0]


def test_moduli_generator_rank_reduces_each_candidate_once(monkeypatch):
    # two eliminations: the 64 unknowns against the vertical part of their
    # d, then the 4 basic sections against their codifferential
    calls = []

    def counting(sources, images):
        found = kernel(sources, images)
        calls.append((len(sources), len(images), len(found)))
        return found

    monkeypatch.setattr(nkcheck, "kernel", counting)
    moduli_space.cache_clear()
    try:
        assert len(moduli_space()) == 1
    finally:
        moduli_space.cache_clear()
    assert calls == [(64, 64, 4), (4, 4, 1)]


def test_a_dropped_kernel_vector_fails_the_rank_checks(monkeypatch):
    # a kernel that loses its last vector finds 3 basic sections, which the
    # count against hom_dimension refuses; losing only the co-closed one
    # leaves no phi_v, and both rank checks report the missing 8
    def dropping(last_only):
        def fault(sources, images):
            found = kernel(sources, images)
            return found[:-1] if len(found) == 1 or not last_only else found
        return fault

    monkeypatch.setattr(nkcheck, "kernel", dropping(last_only=False))
    moduli_space.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^3 basic primitive .1,1. sections, not 4$"):
            moduli_space()
        monkeypatch.setattr(nkcheck, "kernel", dropping(last_only=True))
        assert moduli_space() == ()
        checks = {c.name: c for c in verify_moduli_generators().checks}
    finally:
        moduli_space.cache_clear()
    for name in ("generator_rank_8", "rank_meets_spectral_bound"):
        assert not checks[name].passed
        assert checks[name].residual == "8"


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "dash-O"])
def test_a_planted_kernel_fault_fails_verify_flag(flags, run_planted):
    # dga.kernel dropping the last vector it finds: moduli_space's explicit
    # count raises under python -O too, and verify-flag exits 1
    script = "import sys\nfrom nkspectra import cli\nsys.exit(cli.main(['verify-flag']))"
    proc = run_planted(dga, "    return tuple(basis)\n", "    return tuple(basis[:-1])\n", script, flags)
    stderr = proc.stderr.decode()
    assert proc.returncode == 1, stderr
    assert stderr.splitlines() == [
        "nkspectra: internal assertion failed: 3 basic primitive (1,1) sections, not 4"
    ]


def test_the_hermitian_laplacian_is_12_on_every_basic_section(monkeypatch):
    # the spectral lemma over the whole basic kernel: V(1,1) is the only
    # su_3 label at eigenvalue 12, and Delta_H is 12 on all four sections;
    # the Hodge Laplacian is not, so the check is not vacuous
    basic = _basic_sections()
    assert len(basic) == 4 == hom_dimension(Space.FLAG, su3_label(1, 1), Bundle.LAMBDA11)
    at_12 = [label for label in iter_labels(Group.SU3, 12) if laplace_eigenvalue(label) == 12]
    assert at_12 == [su3_label(1, 1)]

    def off_12():
        return [phi for phi in basic if not (nkcheck._hermitian_laplacian(phi) - phi * 12).is_zero()]

    assert off_12() == []
    assert all(not (laplacian(phi) - phi * 12).is_zero() for phi in basic)
    # a Delta_H without its (J delta phi) -| Psi+ term fails on each
    monkeypatch.setattr(nkcheck, "_hermitian_laplacian", laplacian)
    assert off_12() == list(basic)


def test_the_hermitian_laplacian_computes_delta_phi_once(monkeypatch):
    # d delta phi + delta d phi - (J delta phi) -| Psi+ makes two
    # codifferentials, delta phi and delta d phi; going through the Hodge
    # Laplacian would compute delta phi a second time.  The difference
    # formula with the Hodge Laplacian stays the oracle for its value
    eta = type_decompose(d(apply_j(d(symbol_form("v1")))))[0]
    forms = [killing_data().phi_k, eta, *_basic_sections()]
    expected = [laplacian(phi) - nkcheck._a_form(codifferential(phi)) for phi in forms]
    calls = []

    def counting(a):
        calls.append(a)
        return codifferential(a)

    monkeypatch.setattr(nkcheck, "codifferential", counting)
    monkeypatch.setattr(dga, "codifferential", counting)
    for phi, oracle in zip(forms, expected):
        calls.clear()
        assert (nkcheck._hermitian_laplacian(phi) - oracle).is_zero()
        assert len(calls) == 2, phi


def _sample_unitaries(mul):
    """Five Gaussian-rational unitaries.  Real rotations alone never
    separate the real-antisymmetric part of su_3 (conjugating by an
    orthogonal matrix keeps it off-diagonal), so two of the samples
    interleave a phase matrix between rotations in different planes."""
    def rot(p, q, c, s):
        # rotation in the (p, q) coordinate plane, fixing the third axis
        r = 3 - p - q
        return {
            (p, p): (c, 0), (p, q): (s, 0), (q, p): (-s, 0), (q, q): (c, 0),
            (r, r): (1, 0),
        }

    r12 = rot(0, 1, Fraction(3, 5), Fraction(4, 5))
    r13 = rot(0, 2, Fraction(5, 13), Fraction(12, 13))
    r23 = rot(1, 2, Fraction(8, 17), Fraction(15, 17))
    d1 = {(0, 0): (0, 1), (1, 1): (1, 0), (2, 2): (0, 1)}
    return (
        {(p, p): (1, 0) for p in range(3)},
        mul(r13, r23),
        mul(d1, mul(r12, r13)),
        mul(r12, mul(d1, r23)),
        mul(r12, r23),
    )


def test_sampled_rank_matches_the_symbolic_rank(naive_mul):
    # an oracle on the numeric path: the generators' (v_1, v_2, v_3)
    # values at five points already have rank 8, the rank moduli_space
    # gives; killing_values refuses a point that is not unitary
    su3 = dga.BASIS_UNITS[:6] + (
        {(0, 0): (0, 1), (1, 1): (0, -1)},  # h_1 - h_2
        {(1, 1): (0, 1), (2, 2): (0, -1)},  # h_2 - h_3
    )
    samples = _sample_unitaries(naive_mul)
    rows = [
        [
            value
            for g in samples
            for name, value in dga.killing_values(xi, g).items()
            if name in ("v1", "v2", "v3")
        ]
        for xi in su3
    ]
    assert _gauss_jordan_rank(rows) == 8 == _LIE_DIMENSION[Group.SU3] * len(moduli_space())


def test_suites_share_one_killing_data(monkeypatch):
    seen = []

    def recording():
        kd = killing_data()
        seen.append(kd)
        return kd

    monkeypatch.setattr(nkcheck, "killing_data", recording)
    # the moduli suite reads moduli_space, not the Killing-field forms
    reports = (
        verify_killing_suite(),
        verify_eigenfunction_suite(),
        verify_moduli_generators(),
        verify_injectivity_argument(),
    )
    assert all(r.passed for r in reports)
    assert len(seen) == 3
    assert all(kd is seen[0] for kd in seen)
    assert killing_data() is seen[0]


def _check_kernel(rows):
    """dga.kernel on rows of rationals, row j the image of e^(j+1): its
    nullity is n - rank, each basis form is a combination of the e^j with
    image zero, scaled to coprime integers, the last positive, and the
    basis is independent."""
    sources = [e(j) for j in range(1, len(rows) + 1)]
    images = [
        InvariantForm.make(1, {((k,), 0): Fraction(x) for k, x in enumerate(row, 1)})
        for row in rows
    ]
    basis = kernel(sources, images)
    assert len(basis) == len(rows) - _gauss_jordan_rank(rows)
    coefficients = []
    for form in basis:
        u = [form.constant_part(j) for j in range(1, len(rows) + 1)]
        assert (sum((f * c for f, c in zip(sources, u)), InvariantForm.zero(1)) - form).is_zero()
        assert sum((f * c for f, c in zip(images, u)), InvariantForm.zero(1)).is_zero()
        nonzero = [c for c in u if c]
        assert all(c.denominator == 1 for c in u) and nonzero[-1] > 0
        assert math.gcd(*(c.numerator for c in u)) == 1
        coefficients.append(u)
    assert _gauss_jordan_rank(coefficients) == len(basis)
    return basis


def test_rank_helper():
    assert _check_kernel([]) == ()
    assert _check_kernel([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]] * 2) == (
        e(3) - e(1), e(4) - e(2),
    )
    assert _check_kernel([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == (
        e(1) * -2 + e(2),
    )
    assert _check_kernel([[Fraction(0), Fraction(0)]]) == (e(1),)
    assert _check_kernel([
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]) == ()
    with pytest.raises(ValueError, match="one image per source"):
        kernel([e(1)], [])


def _gauss_jordan_rank(rows):
    """Rank of a rational matrix by plain Fraction Gauss-Jordan
    elimination: normalize each pivot row, clear its column everywhere."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**12)),
)


@st.composite
def _rational_rows(draw):
    """Rows of one width: free rows, zero rows and rational combinations of
    the rows before them."""
    width = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("free", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
            rows.append([
                sum((c * Fraction(row[j]) for c, row in zip(coeffs, rows)), Fraction(0))
                for j in range(width)
            ])
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=width, max_size=width)))
    return rows


@settings(max_examples=200, deadline=None)
@given(_rational_rows())
def test_fraction_free_elimination_matches_gauss_jordan(rows):
    # the kernel of the rows has the nullity Gauss-Jordan gives, and a
    # basis of combinations with image zero
    _check_kernel(rows)


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


def test_suite_sizes():
    assert len(verify_pointwise_identities().checks) == 14
    assert len(verify_killing_suite().checks) == 16
    assert len(verify_eigenfunction_suite().checks) == 13
    assert len(verify_moduli_generators().checks) == 8
    assert len(verify_injectivity_argument().checks) == 7


def test_model_checks_fire_under_dash_O(run_python):
    # a doubled A, planted in _a_form where every A_X is built, makes its
    # norm and composition checks report FAIL and `identities` exit 1;
    # index pairs whose primitive (1,1) projections do not span raise (e^13
    # and e^24 project to opposite forms).  Both kinds work under python -O
    script = (
        "import contextlib, io\n"
        "from nkspectra import cli, nkcheck as n\n"
        "a_form = n._a_form\n"
        "n._a_form = lambda x: a_form(x) * 2\n"
        "report = n.verify_pointwise_identities()\n"
        "print(' '.join(c.name for c in report.checks if not c.passed))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as table:\n"
        "    code = cli.main(['identities'])\n"
        "print(code, '[FAIL] a1_composition_sum' in table.getvalue())\n"
        "n._a_form = a_form\n"
        "n._PRIMITIVE_PAIRS = tuple((2, 4) if p == (1, 4) else p for p in n._PRIMITIVE_PAIRS)\n"
        "try:\n"
        "    n.verify_pointwise_identities()\n"
        "except AssertionError as err:\n"
        "    print(err)\n"
    )
    proc = run_python(["-c", script], "-O")
    assert proc.returncode == 0, proc.stderr
    failed, exit_line, fired = proc.stdout.decode().splitlines()
    assert {"a0_norm_polarized", "a1_composition_sum"} <= set(failed.split())
    assert exit_line == "1 True"
    assert fired == "the primitive (1,1) projections do not span"


def test_a_fault_at_one_sample_shows_at_its_slot(run_python):
    # slot k of the a0 sample residual is the residual at sample k, so a
    # norm off by 1 at the second sample prints as x_2
    script = (
        "import contextlib, io\n"
        "from fractions import Fraction\n"
        "from nkspectra import cli, nkcheck as n\n"
        "norm = n.a_norm_squared\n"
        "n.a_norm_squared = lambda x: norm(x) + (x[0] == Fraction(1, 2))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as table:\n"
        "    code = cli.main(['identities'])\n"
        "print(code)\n"
        "print(*(l for l in table.getvalue().splitlines() if '[FAIL]' in l))\n"
    )
    for flags in ((), ("-O",)):
        proc = run_python(["-c", script], *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().splitlines() == [
            "1",
            "  [FAIL] a0_norm_rational_samples  residual = x_2",
        ]


def test_pointwise_identities_never_build_killing_data(monkeypatch, capsys):
    # the pointwise suite works at the generic X alone; no Killing-field
    # form is built, in the suite or in the `identities` report
    def refuse():
        raise AssertionError("killing_data called")

    monkeypatch.setattr(dga, "killing_data", refuse)
    monkeypatch.setattr(nkcheck, "killing_data", refuse)
    assert verify_pointwise_identities().passed
    assert cli.main(["identities"]) == 0
    assert "all suites passed" in capsys.readouterr().out


def test_a_fault_at_some_basis_vectors_shows_at_each(run_python):
    # Psi- + e_123 is wrong at e_1, e_2 and e_3 only; the residual at the
    # generic X = sum x_i e^i carries all three at once
    script = (
        "import contextlib, io\n"
        "from nkspectra import cli, nkcheck as n\n"
        "n.PSI_MINUS = n.PSI_MINUS + n.e(1, 2, 3)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as table:\n"
        "    code = cli.main(['identities'])\n"
        "print(code)\n"
        "print(*(l for l in table.getvalue().splitlines() if '[FAIL]' in l))\n"
    )
    for flags in ((), ("-O",)):
        proc = run_python(["-c", script], *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().splitlines() == [
            "1",
            "  [FAIL] a3_psi_minus_contraction  residual = x_3 e_12 - x_2 e_13 + x_1 e_23",
        ]


def test_every_pointwise_check_fires_under_dash_O(run_python):
    # each of the 14 checks reports FAIL under some planted fault, with the
    # interpreter's checks switched off
    script = (
        "from nkspectra import nkcheck as n\n"
        "faults = {\n"
        "    '_a_form': lambda x, f=n._a_form: f(x) * 2,\n"
        "    'PSI_PLUS_CONTRACTED': tuple(p * 2 for p in n.PSI_PLUS_CONTRACTED),\n"
        "    'PSI_MINUS': n.PSI_MINUS + n.e(1, 2, 3),\n"
        # a (2,0) part keeps the primitive basis orthogonal to omega
        "    'OMEGA': n.OMEGA + n.PSI_PLUS_CONTRACTED[0],\n"
        "    'hodge_star': lambda a, f=n.hodge_star: f(a) * 2,\n"
        "    'alpha': lambda a, f=n.alpha: f(a) * 2,\n"
        "    'VOLUME': n.VOLUME * 2,\n"
        "}\n"
        "failed = set()\n"
        "for name, fault in faults.items():\n"
        "    good, n.__dict__[name] = n.__dict__[name], fault\n"
        "    report = n.verify_pointwise_identities()\n"
        "    n.__dict__[name] = good\n"
        "    failed |= {c.name for c in report.checks if not c.passed}\n"
        "print(len(report.checks), len(failed))\n"
    )
    proc = run_python(["-c", script], "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "14 14\n"
