"""Exterior calculus engine on the flag manifold: structure equations,
Hodge/J/type operators, the symbolic Killing-field identities and the
printer grammar."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkspectra import dga
from nkspectra.dga import (
    BASIS_UNITS,
    GQ,
    LIE_BASIS,
    MAT_IDENTITY,
    OMEGA,
    PSI_MINUS,
    PSI_PLUS,
    VOLUME,
    H1,
    H2,
    H3,
    Coefficient,
    InvariantForm,
    NonlinearCoefficient,
    VerticalComponent,
    alpha,
    apply_j,
    basic_check,
    codifferential,
    coframe,
    contract_frame,
    contract_vector,
    d,
    e,
    format_coefficient,
    format_form,
    gq,
    hodge_star,
    inner,
    killing_data,
    killing_values,
    laplacian,
    mat_commutator,
    mat_inner,
    mat_mul,
    matrix,
    scalar_form,
    su3_basis,
    symbol_form,
    type_decompose,
    vertical_lie_derivative,
    wedge,
    wedge_all,
)

X = [Coefficient.symbol(f"x{i}") for i in range(1, 7)]
V1 = Coefficient.symbol("v1")
V2 = Coefficient.symbol("v2")
V3 = Coefficient.symbol("v3")


# ---------------------------------------------------------------------------
# Lie algebra layer

def test_basis_is_orthogonal_with_the_right_norms():
    mats = LIE_BASIS.matrices
    for i in range(9):
        for j in range(9):
            expected = Fraction(0)
            if i == j:
                expected = Fraction(1) if i < 6 else Fraction(1, 2)
            assert mat_inner(mats[i], mats[j]) == expected


def test_jacobi_identity_all_triples():
    mats = LIE_BASIS.matrices
    for a in mats:
        for b in mats:
            for c in mats:
                lhs = mat_commutator(mat_commutator(a, b), c)
                mid = mat_commutator(mat_commutator(b, c), a)
                rhs = mat_commutator(mat_commutator(c, a), b)
                total = [
                    [lhs[p][q] + mid[p][q] + rhs[p][q] for q in range(3)]
                    for p in range(3)
                ]
                assert all(z.is_zero() for row in total for z in row)


def test_bracket_table_reconstructs_commutators():
    mats = LIE_BASIS.matrices
    for a in range(1, 10):
        for b in range(1, 10):
            coords = LIE_BASIS.bracket(a, b)
            rebuilt = None
            for q, m in zip(coords, mats):
                scaled = [[gq(q) * entry for entry in row] for row in m]
                if rebuilt is None:
                    rebuilt = scaled
                else:
                    rebuilt = [
                        [rebuilt[p][r] + scaled[p][r] for r in range(3)]
                        for p in range(3)
                    ]
            want = mat_commutator(mats[a - 1], mats[b - 1])
            assert all(
                (rebuilt[p][r] - want[p][r]).is_zero()
                for p in range(3)
                for r in range(3)
            )


def test_basis_matrices_come_from_the_unit_table():
    for units, m in zip(BASIS_UNITS, LIE_BASIS.matrices):
        for p in range(3):
            for q in range(3):
                assert m[p][q] == gq(*units.get((p, q), (0, 0)))


def _replace_unit(k, units):
    return BASIS_UNITS[:k] + (units,) + BASIS_UNITS[k + 1:]


@pytest.mark.parametrize(
    "units,message",
    [
        # h_1 = 2i E_11 has squared length 2
        (_replace_unit(6, {(0, 0): (0, 2)}), "basis norms"),
        # E_12 + i E_21 is not skew-Hermitian: its square has trace 2i
        (_replace_unit(0, {(0, 1): (1, 0), (1, 0): (0, 1)}), "non-skew-Hermitian"),
        # h_3 = i E_11 repeats h_1: the norms hold but E_33 leaves the span
        (_replace_unit(8, {(0, 0): (0, 1)}), "basis expansion failed"),
    ],
)
def test_bracket_builder_checks_fire(units, message):
    with pytest.raises(AssertionError, match=message):
        dga._build_lie_basis(units)


def _run_script(script, *flags):
    """Run a script in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(dga.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_bracket_builder_checks_fire_under_dash_O():
    # the checks are explicit raises, so python -O keeps them
    script = (
        "from nkspectra import dga\n"
        "units = dga.BASIS_UNITS[:8] + ({(0, 0): (0, 1)},)\n"
        "try:\n"
        "    dga._build_lie_basis(units)\n"
        "except AssertionError:\n"
        "    raise SystemExit(3)\n"
    )
    assert _run_script(script, "-O").returncode == 3


def test_import_makes_no_dense_products():
    # a fresh interpreter, so the import really runs; calls are counted
    # with a profile hook, which sees every Python-level call
    script = (
        "import sys\n"
        "calls = []\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == 'mat_mul':\n"
        "        calls.append(frame.f_code)\n"
        "sys.setprofile(hook)\n"
        "import nkspectra.dga\n"
        "sys.setprofile(None)\n"
        "code = nkspectra.dga.mat_mul.__code__\n"
        "assert all(c is code for c in calls)\n"
        "print(len(calls))\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


_GQ_PARTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)
_GQ_MATRICES = st.lists(
    st.builds(GQ, _GQ_PARTS, _GQ_PARTS), min_size=9, max_size=9
).map(lambda xs: matrix([xs[0:3], xs[3:6], xs[6:9]]))


@settings(max_examples=100, deadline=None)
@given(_GQ_MATRICES, _GQ_MATRICES)
def test_mat_mul_matches_the_naive_triple_sum(a, b):
    naive = [
        [sum((a[r][k] * b[k][c] for k in range(3)), gq()) for c in range(3)]
        for r in range(3)
    ]
    got = mat_mul(a, b)
    assert got == matrix(naive)
    assert all(
        isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
        for row in got
        for z in row
    )


# ---------------------------------------------------------------------------
# The term accumulator

def test_suites_make_few_forms():
    # each operator sums its image terms into one dict and calls make
    # once (1462 calls over every suite); summing forms term by term
    # makes about three times as many.  The pointwise suite builds A once
    # as six 2-forms (883 calls when it was rebuilt for every product)
    script = (
        "import sys\n"
        "from nkspectra import dga, nkcheck\n"
        "code = dga.InvariantForm.make.__code__\n"
        "for suite in (nkcheck.run_all_suites, nkcheck.verify_pointwise_identities):\n"
        "    calls = []\n"
        "    def hook(frame, event, arg):\n"
        "        if event == 'call' and frame.f_code.co_name == 'make':\n"
        "            calls.append(frame.f_code)\n"
        "    sys.setprofile(hook)\n"
        "    suite()\n"
        "    sys.setprofile(None)\n"
        "    assert all(c is code for c in calls)\n"
        "    print(len(calls))\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    every, pointwise = map(int, proc.stdout.split())
    assert 0 < every <= 2100
    assert 0 < pointwise <= 700


def _inversions(indices):
    return sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(1, 9), max_size=9),
        st.lists(st.integers(1, 9), max_size=9, unique=True),
    )
)
def test_normalize_indices_matches_the_inversion_count(indices):
    got = dga._normalize_indices(indices)
    if len(set(indices)) < len(indices):
        assert got == (None, 0)
    else:
        assert got == (tuple(sorted(indices)), (-1) ** _inversions(indices))


_CONSTANT_FORMS = st.integers(0, 4).flatmap(
    lambda p: st.dictionaries(
        st.lists(st.integers(1, 9), min_size=p, max_size=p, unique=True).map(
            lambda idx: tuple(sorted(idx))
        ),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
        max_size=6,
    ).map(
        lambda data: InvariantForm.make(
            p, {idx: Coefficient.constant(q) for idx, q in data.items()}
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(_CONSTANT_FORMS, _CONSTANT_FORMS)
def test_wedge_matches_the_term_by_term_sum(a, b):
    naive = {}
    for ia, ca in a.terms:
        for ib, cb in b.terms:
            if set(ia) & set(ib):
                continue
            key = tuple(sorted(ia + ib))
            sign = (-1) ** _inversions(ia + ib)
            q = sign * ca.constant_part() * cb.constant_part()
            naive[key] = naive.get(key, 0) + q
    got = wedge(a, b)
    assert got.degree == a.degree + b.degree
    assert [idx for idx, _ in got.terms] == sorted(idx for idx, _ in got.terms)
    assert all(c.is_constant() for _, c in got.terms)
    assert {idx: c.constant_part() for idx, c in got.terms} == {
        idx: q for idx, q in naive.items() if q
    }


def test_projector_check_fires(monkeypatch):
    monkeypatch.setattr(dga, "alpha", lambda beta: InvariantForm.zero(1))
    with pytest.raises(AssertionError, match="projector mismatch"):
        type_decompose(e(1, 3))


def test_projector_check_fires_under_dash_O():
    script = (
        "from nkspectra import dga\n"
        "dga.alpha = lambda beta: dga.InvariantForm.zero(1)\n"
        "try:\n"
        "    dga.type_decompose(dga.e(1, 3))\n"
        "except AssertionError:\n"
        "    raise SystemExit(3)\n"
    )
    assert _run_script(script, "-O").returncode == 3


@pytest.mark.parametrize(
    "path", sorted(Path(dga.__file__).parent.glob("*.py")), ids=lambda p: p.stem
)
def test_no_assert_statements(path):
    # python -O strips assert statements; every check in src is a raise
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_su3_basis_is_traceless():
    mats = su3_basis()
    assert len(mats) == 8
    for m in mats:
        assert (m[0][0] + m[1][1] + m[2][2]).is_zero()


# ---------------------------------------------------------------------------
# Structure equations

def test_horizontal_structure_equations():
    assert (d(e(1)) - (wedge(e(2), H1) * -2 + wedge(e(2), H2) * 2 + e(3, 5) + e(4, 6))).is_zero()
    assert (d(e(2)) - (wedge(e(1), H1) * 2 - wedge(e(1), H2) * 2 - e(3, 6) + e(4, 5))).is_zero()
    assert (d(e(3)) - (wedge(e(4), H1) * -2 + wedge(e(4), H3) * 2 - e(1, 5) + e(2, 6))).is_zero()
    assert (d(e(4)) - (wedge(e(3), H1) * 2 - wedge(e(3), H3) * 2 - e(1, 6) - e(2, 5))).is_zero()
    assert (d(e(5)) - (wedge(e(6), H2) * -2 + wedge(e(6), H3) * 2 + e(1, 3) + e(2, 4))).is_zero()
    assert (d(e(6)) - (wedge(e(5), H2) * 2 - wedge(e(5), H3) * 2 + e(1, 4) - e(2, 3))).is_zero()


def test_vertical_structure_equations():
    assert (d(H1) - (-e(1, 2) - e(3, 4))).is_zero()
    assert (d(H2) - (e(1, 2) - e(5, 6))).is_zero()
    assert (d(H3) - (e(3, 4) + e(5, 6))).is_zero()
    assert (d(H1) + d(H2) + d(H3)).is_zero()


def test_plane_two_form_differentials():
    assert (d(e(1, 2)) - PSI_PLUS).is_zero()
    assert (d(e(3, 4)) + PSI_PLUS).is_zero()
    assert (d(e(5, 6)) - PSI_PLUS).is_zero()


def test_model_form_differentials():
    assert (d(OMEGA) - PSI_PLUS * 3).is_zero()
    assert d(PSI_PLUS).is_zero()
    assert (d(PSI_MINUS) + wedge(OMEGA, OMEGA) * 2).is_zero()


def test_model_wedge_relations():
    assert wedge(OMEGA, PSI_PLUS).is_zero()
    assert wedge(OMEGA, PSI_MINUS).is_zero()
    assert (wedge_all(OMEGA, OMEGA, OMEGA) - VOLUME * 6).is_zero()
    assert (wedge(PSI_PLUS, PSI_MINUS) - VOLUME * 4).is_zero()
    assert wedge(PSI_PLUS, PSI_PLUS).is_zero()
    assert wedge(PSI_MINUS, PSI_MINUS).is_zero()


def test_d_squared_vanishes_on_generators():
    for k in range(1, 10):
        assert d(d(coframe(k))).is_zero()
    for name in ("x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2", "v3"):
        assert d(d(symbol_form(name))).is_zero()


def _random_form(rng, degree, symbolic=False):
    data = {}
    for _ in range(rng.randint(1, 4)):
        idx = tuple(sorted(rng.sample(range(1, 10), degree)))
        if symbolic and rng.random() < 0.5:
            c = Coefficient.symbol(rng.choice(["x1", "x3", "x5", "v1", "v2"]))
            c = c.scale(Fraction(rng.randint(-3, 3)))
        else:
            c = Coefficient.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        data[idx] = data.get(idx, Coefficient()) + c
    return InvariantForm.make(degree, data)


def test_d_squared_vanishes_on_random_forms():
    rng = random.Random(20260814)
    for _ in range(120):
        a = _random_form(rng, rng.randint(1, 4), symbolic=True)
        assert d(d(a)).is_zero()


def test_leibniz_rule():
    rng = random.Random(97)
    for _ in range(80):
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        # one factor may be symbolic, the other stays constant so the
        # product of coefficients is linear
        a = _random_form(rng, p, symbolic=True)
        b = _random_form(rng, q, symbolic=False)
        lhs = d(wedge(a, b))
        rhs = wedge(d(a), b) + wedge(a, d(b)) * ((-1) ** p)
        assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# Metric operators

def test_hodge_star_involution():
    rng = random.Random(311)
    for degree in range(7):
        for _ in range(15):
            data = {}
            for _ in range(rng.randint(1, 4)):
                idx = tuple(sorted(rng.sample(range(1, 7), degree)))
                data[idx] = Coefficient.constant(Fraction(rng.randint(-5, 5)))
            a = InvariantForm.make(degree, data)
            assert (hodge_star(hodge_star(a)) - a * ((-1) ** degree)).is_zero()


def test_wedge_with_star_computes_the_norm():
    rng = random.Random(421)
    for degree in range(1, 6):
        for _ in range(10):
            data = {}
            for _ in range(rng.randint(1, 3)):
                idx = tuple(sorted(rng.sample(range(1, 7), degree)))
                data[idx] = Coefficient.constant(Fraction(rng.randint(-5, 5)))
            a = InvariantForm.make(degree, data)
            norm = inner(a, a).constant_part()
            assert (wedge(a, hodge_star(a)) - VOLUME * norm).is_zero()


def test_star_goldens():
    assert (hodge_star(scalar_form(1)) - VOLUME).is_zero()
    assert (hodge_star(e(1)) + e(2, 3, 4, 5, 6)).is_zero()
    assert (hodge_star(OMEGA) - wedge(OMEGA, OMEGA) * Fraction(1, 2)).is_zero()
    assert (hodge_star(PSI_PLUS) - PSI_MINUS).is_zero()
    assert (hodge_star(PSI_MINUS) + PSI_PLUS).is_zero()


def test_inner_product_values():
    assert inner(OMEGA, OMEGA).constant_part() == 3
    assert inner(PSI_PLUS, PSI_PLUS).constant_part() == 4
    assert inner(PSI_MINUS, PSI_MINUS).constant_part() == 4
    assert inner(PSI_PLUS, PSI_MINUS).is_zero()
    assert inner(VOLUME, VOLUME).constant_part() == 1
    assert inner(e(1, 2), e(1, 2)).constant_part() == 1
    assert inner(e(1, 2), e(3, 4)).is_zero()


def test_apply_j_images():
    images = {1: e(2), 2: -e(1), 3: -e(4), 4: e(3), 5: e(6), 6: -e(5)}
    for i, img in images.items():
        assert (apply_j(e(i)) - img).is_zero()
        # J^2 = -1 on 1-forms
        assert (apply_j(apply_j(e(i))) + e(i)).is_zero()
    assert (apply_j(OMEGA) - OMEGA).is_zero()
    assert (apply_j(PSI_PLUS) + PSI_MINUS).is_zero()


def test_apply_j_is_an_isometry_on_two_forms():
    rng = random.Random(733)
    for _ in range(25):
        data = {
            tuple(sorted(rng.sample(range(1, 7), 2))): Coefficient.constant(
                Fraction(rng.randint(-4, 4))
            )
            for _ in range(3)
        }
        a = InvariantForm.make(2, data)
        ja = apply_j(a)
        assert inner(ja, ja).constant_part() == inner(a, a).constant_part()


def test_contract_frame_and_vector():
    assert (contract_frame(e(1, 2), 1) - e(2)).is_zero()
    assert (contract_frame(e(1, 2), 2) + e(1)).is_zero()
    assert contract_frame(e(1, 2), 3).is_zero()
    assert (contract_vector(e(1), OMEGA) - e(2)).is_zero()
    assert (contract_vector(e(3), OMEGA) + e(4)).is_zero()


def test_contraction_is_an_antiderivation():
    rng = random.Random(577)
    for _ in range(30):
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        a = _random_form(rng, p)
        b = _random_form(rng, q)
        k = rng.randint(1, 9)
        lhs = contract_frame(wedge(a, b), k)
        rhs = wedge(contract_frame(a, k), b) + wedge(a, contract_frame(b, k)) * ((-1) ** p)
        assert (lhs - rhs).is_zero()


def test_alpha_inverts_the_contraction_up_to_two():
    for i in range(1, 7):
        beta = contract_vector(e(i), PSI_PLUS)
        assert (alpha(beta) - e(i) * 2).is_zero()
    rng = random.Random(853)
    for _ in range(10):
        x = InvariantForm.make(
            1, {(i,): Coefficient.constant(Fraction(rng.randint(-3, 3))) for i in range(1, 7)}
        )
        assert (alpha(contract_vector(x, PSI_PLUS)) - x * 2).is_zero()


def test_alpha_reads_the_contractions_built_at_import():
    # the six e_i -| Psi+ are constants; every suite together called
    # alpha 14 times, and rebuilding them cost 84 contract_frame calls
    script = (
        "import sys\n"
        "from nkspectra import nkcheck\n"
        "depth = [0]\n"
        "calls = {'alpha': 0, 'contract_frame': 0, 'in alpha': 0}\n"
        "def hook(frame, event, arg):\n"
        "    name = frame.f_code.co_name\n"
        "    if name == 'alpha' and event in ('call', 'return'):\n"
        "        depth[0] += 1 if event == 'call' else -1\n"
        "    if event == 'call' and name in calls:\n"
        "        calls[name] += 1\n"
        "        if name == 'contract_frame' and depth[0]:\n"
        "            calls['in alpha'] += 1\n"
        "sys.setprofile(hook)\n"
        "nkcheck.run_all_suites()\n"
        "sys.setprofile(None)\n"
        "print(calls['alpha'], calls['contract_frame'], calls['in alpha'])\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    alpha_calls, contractions, inside_alpha = map(int, proc.stdout.split())
    assert alpha_calls > 0 and contractions > 0
    assert inside_alpha == 0


def test_type_decomposition_projectors():
    rng = random.Random(1009)
    for _ in range(20):
        data = {
            tuple(sorted(rng.sample(range(1, 7), 2))): Coefficient.constant(
                Fraction(rng.randint(-4, 4))
            )
            for _ in range(4)
        }
        a = InvariantForm.make(2, data)
        prim, anti, trace = type_decompose(a)
        assert (prim + anti + trace - a).is_zero()
        # mutually orthogonal
        assert inner(prim, anti).is_zero()
        assert inner(prim, trace).is_zero()
        assert inner(anti, trace).is_zero()
        # idempotent
        p2, a2, t2 = type_decompose(prim)
        assert (p2 - prim).is_zero() and a2.is_zero() and t2.is_zero()
        p2, a2, t2 = type_decompose(anti)
        assert p2.is_zero() and (a2 - anti).is_zero() and t2.is_zero()
        # trace part is a multiple of omega
        scale = inner(a, OMEGA) * Fraction(1, 3)
        assert (trace - OMEGA * scale).is_zero()


def test_omega_splits_as_pure_trace():
    prim, anti, trace = type_decompose(OMEGA)
    assert prim.is_zero() and anti.is_zero()
    assert (trace - OMEGA).is_zero()


# ---------------------------------------------------------------------------
# Invariance and guards

def test_basic_check_examples():
    assert basic_check(OMEGA)
    assert basic_check(PSI_PLUS)
    assert basic_check(e(1, 2))
    assert basic_check(symbol_form("v1"))
    assert not basic_check(e(1, 3))
    assert not basic_check(symbol_form("x1"))
    assert not basic_check(coframe(7))


def test_vertical_lie_derivative_validation():
    with pytest.raises(ValueError):
        vertical_lie_derivative(OMEGA, 4)
    assert vertical_lie_derivative(OMEGA, 1).is_zero()
    assert not vertical_lie_derivative(e(1, 3), 1).is_zero()


def test_vertical_lie_derivative_on_the_coframe_and_the_symbols():
    # Cartan's formula against the bracket table: L theta^k =
    # -sum_t [h_j, u_t]_k theta^t on the coframe and c_Z -> c_{[h_j, Z]}
    # on the symbols (Z = e_1..e_6, h_1, h_2 in slots 1..8)
    for j in (1, 2, 3):
        h = 6 + j
        for k in range(1, 10):
            want = InvariantForm.make(
                1,
                {
                    (t,): Coefficient.constant(-LIE_BASIS.bracket(h, t)[k - 1])
                    for t in range(1, 10)
                },
            )
            assert vertical_lie_derivative(coframe(k), j) == want, (j, k)
        for slot, name in enumerate(("x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2"), 1):
            want = scalar_form(Coefficient.from_vector(LIE_BASIS.bracket(h, slot)))
            assert vertical_lie_derivative(symbol_form(name), j) == want, (j, name)


_SYMBOLIC_FORMS = st.integers(0, 4).flatmap(
    lambda p: st.dictionaries(
        st.lists(st.integers(1, 9), min_size=p, max_size=p, unique=True).map(
            lambda idx: tuple(sorted(idx))
        ),
        st.tuples(
            st.integers(-3, 3),
            st.sampled_from(("x1", "x2", "x4", "x6", "v1", "v2", "v3")),
            st.integers(-3, 3),
        ).map(lambda t: Coefficient.constant(t[0]) + Coefficient.symbol(t[1]).scale(t[2])),
        max_size=4,
    ).map(lambda data: InvariantForm.make(p, data))
)


@settings(max_examples=100, deadline=None)
@given(_SYMBOLIC_FORMS, _CONSTANT_FORMS, st.integers(1, 3))
def test_vertical_lie_derivative_is_a_derivation(a, b, j):
    # one factor stays constant so every product of coefficients is linear
    lhs = vertical_lie_derivative(wedge(a, b), j)
    rhs = wedge(vertical_lie_derivative(a, j), b) + wedge(a, vertical_lie_derivative(b, j))
    assert lhs == rhs


def test_nonlinear_coefficient_guard():
    with pytest.raises(NonlinearCoefficient):
        wedge(symbol_form("x1"), symbol_form("x2"))
    with pytest.raises(NonlinearCoefficient):
        wedge(coframe(1) * X[0], coframe(2) * X[1])
    # wedge skips overlapping terms before it multiplies their coefficients
    assert wedge(coframe(1) * X[0], coframe(1) * X[1]).is_zero()
    with pytest.raises(NonlinearCoefficient):
        Coefficient.symbol("v1") * Coefficient.symbol("v2")


def test_vertical_component_guards():
    with pytest.raises(VerticalComponent):
        hodge_star(coframe(7))
    with pytest.raises(VerticalComponent):
        apply_j(wedge(e(1), coframe(8)))
    with pytest.raises(VerticalComponent):
        inner(coframe(7), coframe(7))
    # x1 is not basic: its differential has vertical legs, so no Hodge
    # laplacian exists downstairs
    with pytest.raises(VerticalComponent):
        laplacian(symbol_form("x1"))


def test_degree_validation():
    with pytest.raises(ValueError):
        alpha(e(1))
    with pytest.raises(ValueError):
        contract_vector(e(1, 2), OMEGA)
    with pytest.raises(ValueError):
        contract_vector(e(1), scalar_form(1))
    for index in (0, 10, 12):
        with pytest.raises(ValueError):
            contract_frame(PSI_PLUS, index)
    with pytest.raises(ValueError):
        contract_frame(scalar_form(1), 1)
    with pytest.raises(ValueError):
        type_decompose(PSI_PLUS)
    with pytest.raises(ValueError):
        wedge(VOLUME, wedge_all(coframe(7), coframe(8), coframe(9), e(1)))
    assert e(1, 1).is_zero()
    assert wedge(e(1), e(1)).is_zero()


# ---------------------------------------------------------------------------
# Killing-field layer

def test_v_symbol_differentials():
    kd = killing_data()
    a1, a2, a3 = kd.a
    assert (d(symbol_form("v1")) - (a2 - a3)).is_zero()
    assert (d(symbol_form("v2")) - (a3 - a1)).is_zero()
    assert (d(symbol_form("v3")) - (a1 - a2)).is_zero()


def test_rotated_auxiliary_differentials():
    kd = killing_data()
    a1, a2, a3 = kd.a
    ja1, ja2, ja3 = kd.ja
    four = Fraction(4)
    assert (d(ja1) - contract_vector(-a1 + a2 + a3, PSI_PLUS) - e(5, 6) * ((V2 - V3) * four)).is_zero()
    assert (d(ja2) - contract_vector(a1 - a2 + a3, PSI_PLUS) - e(3, 4) * ((V1 - V3) * four)).is_zero()
    assert (d(ja3) - contract_vector(a1 + a2 - a3, PSI_PLUS) - e(1, 2) * ((V1 - V2) * four)).is_zero()


def test_killing_one_form_identities():
    kd = killing_data()
    xi = kd.xi_flat
    jxi = kd.j_xi_flat
    assert (d(jxi) + contract_vector(xi, PSI_PLUS) * 3).is_zero()
    assert codifferential(xi).is_zero()
    assert codifferential(jxi).is_zero()
    assert (laplacian(xi) - xi * 10).is_zero()
    assert (laplacian(jxi) - jxi * 18).is_zero()


def test_eigenfunction_identity():
    f = symbol_form("v1")
    assert (laplacian(f) - f * 12).is_zero()


def test_phi_v_and_phi_k_shapes():
    kd = killing_data()
    prim, anti, trace = type_decompose(kd.phi_v)
    assert (prim - kd.phi_v).is_zero() and anti.is_zero() and trace.is_zero()
    assert basic_check(kd.phi_v)
    assert basic_check(kd.phi_k)
    assert kd.phi_k.coefficient(1, 2) == (V1 - V2) * Fraction(4)


def test_killing_data_validation():
    bad = matrix([[gq(1), gq(), gq()], [gq(), gq(), gq()], [gq(), gq(), gq()]])
    with pytest.raises(ValueError):
        killing_data(bad)
    traced = matrix([[gq(0, 1), gq(), gq()], [gq(), gq(), gq()], [gq(), gq(), gq()]])
    with pytest.raises(ValueError):
        killing_data(traced)


def test_killing_values_numeric():
    h1 = LIE_BASIS.matrices[6]
    h2 = LIE_BASIS.matrices[7]
    xi = [[h1[p][q] - h2[p][q] for q in range(3)] for p in range(3)]
    xi = matrix(xi)
    cyc = matrix([
        [gq(), gq(), gq(1)],
        [gq(1), gq(), gq()],
        [gq(), gq(1), gq()],
    ])
    # conjugation by the cycle 1 -> 2 -> 3 permutes the diagonal of
    # i diag(1,-1,0) to i diag(-1,0,1)
    vals = killing_values(xi, cyc)
    assert vals["v1"] == Fraction(-1, 2)
    assert vals["v2"] == 0
    assert vals["v3"] == Fraction(1, 2)
    assert all(vals[f"x{i}"] == 0 for i in range(1, 7))

    diag = matrix([
        [gq(0, 1), gq(), gq()],
        [gq(), gq(1), gq()],
        [gq(), gq(), gq(0, -1)],
    ])
    e1 = LIE_BASIS.matrices[0]
    vals = killing_values(e1, diag)
    assert vals["x2"] == -1
    assert all(vals[k] == 0 for k in vals if k != "x2")


def test_killing_values_validation():
    e1 = LIE_BASIS.matrices[0]
    not_unitary = matrix([
        [gq(2), gq(), gq()],
        [gq(), gq(1), gq()],
        [gq(), gq(), gq(1)],
    ])
    with pytest.raises(ValueError):
        killing_values(e1, not_unitary)


def test_killing_values_sum_check_fires(monkeypatch):
    # with h_3 replaced by a copy of h_1, v_3 reads v_1 and the su_3 trace
    # relation fails at xi = h_1 - h_2
    monkeypatch.setattr(dga, "BASIS_UNITS", _replace_unit(8, {(0, 0): (0, 1)}))
    h1, h2 = LIE_BASIS.matrices[6], LIE_BASIS.matrices[7]
    xi = matrix([[h1[p][q] - h2[p][q] for q in range(3)] for p in range(3)])
    with pytest.raises(AssertionError, match="v_1 \\+ v_2 \\+ v_3"):
        killing_values(xi, MAT_IDENTITY)


def test_coefficient_evaluate_matches_symbolic_relations():
    vals = {
        "x1": Fraction(2), "x2": Fraction(-1), "x3": Fraction(0),
        "x4": Fraction(1, 2), "x5": Fraction(3), "x6": Fraction(0),
        "v1": Fraction(1, 3), "v2": Fraction(-1),
    }
    assert V3.evaluate(vals) == -vals["v1"] - vals["v2"]
    c = X[0].scale(2) + V1
    assert c.evaluate(vals) == 2 * Fraction(2) + Fraction(1, 3)


# ---------------------------------------------------------------------------
# The su3-only frame agrees with the nine-frame calculus

_SYMBOL_MATRICES = {
    "x1": 0, "x2": 1, "x3": 2, "x4": 3, "x5": 4, "x6": 5, "v1": 6, "v2": 7,
}


def _coefficient_of_matrix(m):
    comps = [mat_inner(m, LIE_BASIS.matrices[i]) for i in range(6)]
    comps += [2 * mat_inner(m, LIE_BASIS.matrices[6 + j]) for j in range(3)]
    return Coefficient.from_vector(comps)


def _restrict_vertical(a):
    # impose k^3 = -k^1 - k^2, the relation cutting the u3 torus down to
    # the traceless one
    out = InvariantForm.zero(a.degree)
    for idx, c in a.terms:
        if idx == (9,):
            out = out + coframe(7) * (-c) + coframe(8) * (-c)
        else:
            out = out + InvariantForm.make(a.degree, {idx: c})
    return out


def test_su3_frame_differential_matches():
    # rebuild d on the coefficient symbols from the 8-dimensional
    # traceless frame: horizontal legs as usual, vertical legs through
    # the inverse Gram matrix of (h1-h2, h2-h3)
    mats = LIE_BASIS.matrices
    b1 = matrix([[mats[6][p][q] - mats[7][p][q] for q in range(3)] for p in range(3)])
    b2 = matrix([[mats[7][p][q] - mats[8][p][q] for q in range(3)] for p in range(3)])
    gram = [
        [mat_inner(b1, b1), mat_inner(b1, b2)],
        [mat_inner(b2, b1), mat_inner(b2, b2)],
    ]
    assert gram == [[1, Fraction(-1, 2)], [Fraction(-1, 2), 1]]
    det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    inverse = [
        [gram[1][1] / det, -gram[0][1] / det],
        [-gram[1][0] / det, gram[0][0] / det],
    ]
    assert inverse == [
        [Fraction(4, 3), Fraction(2, 3)],
        [Fraction(2, 3), Fraction(4, 3)],
    ]

    # metric duals of b1, b2 as vertical 1-forms, with k^3 eliminated
    def flat(b):
        parts = InvariantForm.zero(1)
        for j in range(3):
            parts = parts + _restrict_vertical(coframe(7 + j)) * mat_inner(b, mats[6 + j])
        return parts

    duals = []
    for row in inverse:
        duals.append(flat(b1) * row[0] + flat(b2) * row[1])

    for name, slot in _SYMBOL_MATRICES.items():
        w = mats[slot]
        rebuilt = InvariantForm.zero(1)
        for i in range(6):
            c = _coefficient_of_matrix(mat_commutator(mats[i], w))
            rebuilt = rebuilt + coframe(i + 1) * c
        for b, dual in zip((b1, b2), duals):
            c = _coefficient_of_matrix(mat_commutator(b, w))
            rebuilt = rebuilt + dual * c
        assert (rebuilt - _restrict_vertical(d(symbol_form(name)))).is_zero(), name


# ---------------------------------------------------------------------------
# Printer

def test_format_model_forms():
    assert format_form(OMEGA) == "e_12 - e_34 + e_56"
    assert format_form(PSI_PLUS) == "e_136 - e_145 + e_235 + e_246"
    assert format_form(VOLUME) == "-e_123456"
    assert format_form(InvariantForm.zero(2)) == "0"


def test_format_scalars_and_fractions():
    assert format_form(e(1, 2) * Fraction(1, 2) - e(3, 4) * Fraction(3, 2)) == (
        "1/2 e_12 - 3/2 e_34"
    )
    assert format_coefficient(X[0].scale(Fraction(1, 2))) == "(1/2)x_1"
    assert format_coefficient(X[0].scale(3)) == "3x_1"


def test_format_vertical_atoms():
    assert format_form(d(coframe(1))) == "-2 e_2^h_1 + 2 e_2^h_2 + e_35 + e_46"


def test_format_symbolic_forms():
    kd = killing_data()
    assert format_form(kd.xi_flat) == (
        "x_1 e_1 + x_2 e_2 + x_3 e_3 + x_4 e_4 + x_5 e_5 + x_6 e_6"
    )
    assert format_form(d(symbol_form("v1"))) == "-x_2 e_1 + x_1 e_2 - x_4 e_3 + x_3 e_4"
    assert format_form(kd.phi_v) == "v_3 e_12 - v_2 e_34 + v_1 e_56"
    assert format_form(kd.phi_k) == (
        "(4v_1 - 4v_2) e_12 + (4v_1 - 4v_3) e_34 + (4v_2 - 4v_3) e_56"
    )


def test_format_eta():
    f = symbol_form("v1")
    eta = type_decompose(d(apply_j(d(f))))[0]
    assert format_form(eta) == "4v_2 e_12 - 4v_3 e_34 + 4v_1 e_56"
