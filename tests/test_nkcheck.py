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
    assert nkcheck._rank(rows) == 8


def test_moduli_generator_rank():
    assert moduli_generator_rank() == 8


def test_moduli_generator_rank_makes_few_dense_products():
    # the rank is read on the symbols: no matrix product and no point
    # evaluation
    codes = {dga.sparse_mul.__code__: 0, dga.killing_values.__code__: 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            codes[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        rank = moduli_generator_rank()
    finally:
        sys.setprofile(None)
    assert rank == 8
    assert list(codes.values()) == [0, 0]


def test_moduli_generator_rank_reduces_each_candidate_once(monkeypatch):
    # v_1, v_2 and the nine derivatives of each of the 8 rows kept: 74
    # candidates, each reduced once against the echelon span
    calls = []
    reduce = nkcheck._reduce

    def counting(span, row):
        calls.append(len(span))
        return reduce(span, row)

    monkeypatch.setattr(nkcheck, "_reduce", counting)
    assert moduli_generator_rank() == 8
    assert len(calls) == 74
    assert max(calls) == 8


def test_broken_frame_derivatives_fail_the_rank_checks(monkeypatch):
    # with every frame derivative zero the span never grows past v_1, v_2,
    # and both rank checks report the missing 6
    monkeypatch.setattr(
        nkcheck, "contract_frame", lambda form, a: InvariantForm.zero(form.degree - 1)
    )
    assert moduli_generator_rank() == 2
    checks = {c.name: c for c in verify_moduli_generators().checks}
    for name in ("generator_rank_8", "rank_meets_spectral_bound"):
        assert not checks[name].passed
        assert checks[name].residual == "6"


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
    # values at five points already have rank 8; killing_values refuses
    # a point that is not unitary
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
    assert nkcheck._rank(rows) == 8 == moduli_generator_rank()


def test_suites_share_one_killing_data(monkeypatch):
    seen = []

    def recording():
        kd = killing_data()
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
    assert nkcheck._rank([]) == 0
    # the kept row (1, 1) is not zero at the later pivot 1, so a candidate
    # is reduced in pivot order
    span = {}
    rows = ([Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]) * 2
    assert [nkcheck._reduce(span, row) for row in rows] == [True, True, False, False]
    assert span == {0: [1, 1], 1: [0, 1]}
    assert nkcheck._rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert nkcheck._rank([[Fraction(0), Fraction(0)]]) == 0
    assert nkcheck._rank([
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]) == 3


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
    # a row joins the span exactly when it raises the rank of the rows so
    # far, and the span keeps primitive integer rows with a positive lead
    span = {}
    joined = [nkcheck._reduce(span, row) for row in rows]
    prefix = [_gauss_jordan_rank(rows[:n]) for n in range(len(rows) + 1)]
    assert joined == [after > before for before, after in zip(prefix, prefix[1:])]
    assert nkcheck._rank(rows) == len(span) == prefix[-1]
    for pivot, kept in span.items():
        assert all(type(x) is int for x in kept)
        assert not any(kept[:pivot]) and kept[pivot] > 0
        assert math.gcd(*kept) == 1


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
