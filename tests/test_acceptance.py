"""Acceptance gate: each test is one release criterion with exact
expected values.  Run with -v to get one pass/fail line per criterion.
Everything here is exact rational arithmetic; there are no tolerances."""

import random
from fractions import Fraction

from nkspectra import nkcheck
from nkspectra.branching import Bundle, Space, U2Label, hom_dimension, restrict_so5_to_u2
from nkspectra.dga import (
    OMEGA,
    PSI_MINUS,
    PSI_PLUS,
    H1,
    H2,
    H3,
    InvariantForm,
    apply_j,
    codifferential,
    contract_vector,
    d,
    e,
    hodge_star,
    inner,
    kernel,
    killing_data,
    laplacian,
    symbol_form,
    wedge,
)
from nkspectra.nkcheck import (
    moduli_space,
    verify_killing_suite,
    verify_moduli_generators,
)
from nkspectra.rootrep import (
    _LIE_DIMENSION,
    Group,
    casimir_eigenvalue,
    dimension,
    iter_labels,
    so5_label,
    su2_label,
    su2cubed_label,
    su3_label,
    weight_multiplicities,
)
from nkspectra.spectrum import (
    eigenspace_multiplicity,
    einstein_deformation_check,
    enumerate_spectrum,
    moduli_upper_bound,
    scal_normalization_check,
)


def test_criterion_01_s3xs3_primitive_multiplicity_at_12():
    assert eigenspace_multiplicity(Space.S3XS3, Bundle.LAMBDA11, 12) == 9
    entries = [
        entry
        for entry in enumerate_spectrum(Space.S3XS3, Bundle.LAMBDA11, 12)
        if entry.eigenvalue == 12
    ]
    assert sorted(entry.irrep.labels for entry in entries) == [
        (0, 0, 2),
        (0, 2, 0),
        (2, 0, 0),
    ]
    assert sum(entry.contribution for entry in entries) == 9


def test_criterion_02_cp3_multiplicities_at_12():
    assert eigenspace_multiplicity(Space.CP3, Bundle.LAMBDA11, 12) == 20
    assert eigenspace_multiplicity(Space.CP3, Bundle.FUNCTIONS, 12) == 10


def test_criterion_03_flag_multiplicities_at_12():
    assert eigenspace_multiplicity(Space.FLAG, Bundle.LAMBDA11, 12) == 32
    assert eigenspace_multiplicity(Space.FLAG, Bundle.FUNCTIONS, 12) == 16


def test_criterion_04_moduli_upper_bounds():
    assert moduli_upper_bound(Space.S3XS3).reported_bound() == 0
    assert moduli_upper_bound(Space.CP3).reported_bound() == 0
    assert moduli_upper_bound(Space.FLAG).reported_bound() == 8


def test_criterion_05_no_einstein_deformation_eigenvalues():
    for space in Space:
        assert einstein_deformation_check(space) == (0, 0)


def test_criterion_06_adjoint_restriction_six_summands():
    assert restrict_so5_to_u2(so5_label(1, 1)) == [
        (U2Label(0, -2), 1),
        (U2Label(0, 0), 1),
        (U2Label(0, 2), 1),
        (U2Label(1, -1), 1),
        (U2Label(1, 1), 1),
        (U2Label(2, 0), 1),
    ]


def test_criterion_07_structure_equation_regression(auxiliary_fields):
    # coframe differentials
    assert (d(e(1)) - (wedge(e(2), H1) * -2 + wedge(e(2), H2) * 2 + e(3, 5) + e(4, 6))).is_zero()
    assert (d(e(2)) - (wedge(e(1), H1) * 2 - wedge(e(1), H2) * 2 - e(3, 6) + e(4, 5))).is_zero()
    assert (d(e(3)) - (wedge(e(4), H1) * -2 + wedge(e(4), H3) * 2 - e(1, 5) + e(2, 6))).is_zero()
    assert (d(e(4)) - (wedge(e(3), H1) * 2 - wedge(e(3), H3) * 2 - e(1, 6) - e(2, 5))).is_zero()
    assert (d(e(5)) - (wedge(e(6), H2) * -2 + wedge(e(6), H3) * 2 + e(1, 3) + e(2, 4))).is_zero()
    assert (d(e(6)) - (wedge(e(5), H2) * 2 - wedge(e(5), H3) * 2 + e(1, 4) - e(2, 3))).is_zero()
    assert (d(H1) + e(1, 2) + e(3, 4)).is_zero()
    assert (d(H2) - e(1, 2) + e(5, 6)).is_zero()
    assert (d(H3) - e(3, 4) - e(5, 6)).is_zero()
    # plane products
    assert (d(e(1, 2)) - PSI_PLUS).is_zero()
    assert (d(e(3, 4)) + PSI_PLUS).is_zero()
    assert (d(e(5, 6)) - PSI_PLUS).is_zero()
    # coefficient symbols
    (a1, a2, a3), (ja1, ja2, ja3) = auxiliary_fields
    assert (d(symbol_form("v1")) - (a2 - a3)).is_zero()
    assert (d(symbol_form("v2")) - (a3 - a1)).is_zero()
    assert (d(symbol_form("v3")) - (a1 - a2)).is_zero()
    v1, v2, v3 = (symbol_form(s) for s in ("v1", "v2", "v3"))
    assert (d(ja1) - contract_vector(-a1 + a2 + a3, PSI_PLUS) - e(5, 6) * ((v2 - v3) * Fraction(4))).is_zero()
    assert (d(ja2) - contract_vector(a1 - a2 + a3, PSI_PLUS) - e(3, 4) * ((v1 - v3) * Fraction(4))).is_zero()
    assert (d(ja3) - contract_vector(a1 + a2 - a3, PSI_PLUS) - e(1, 2) * ((v1 - v2) * Fraction(4))).is_zero()
    # model forms
    assert (d(OMEGA) - PSI_PLUS * 3).is_zero()
    assert (d(PSI_MINUS) + wedge(OMEGA, OMEGA) * 2).is_zero()
    # d squared on every generator
    for k in range(1, 10):
        assert d(d(e(k))).is_zero()
    for name in ("x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2", "v3"):
        assert d(d(symbol_form(name))).is_zero()


def test_criterion_08_moduli_generators_realize_the_bound():
    report = verify_moduli_generators()
    assert report.passed, str(report)
    # the 64 sections P_r c_s hold 4 basic ones, as many as Hom counting
    # finds, and one co-closed one: phi_v
    unknowns = [
        p * symbol_form(s)
        for p in nkcheck._projections(nkcheck._PRIMITIVE_PAIRS)
        for s in ("x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2")
    ]
    basic = kernel(unknowns, [d(u).vertical_part() for u in unknowns])
    assert len(unknowns) == 64
    assert len(basic) == 4 == hom_dimension(Space.FLAG, su3_label(1, 1), Bundle.LAMBDA11)
    assert kernel(basic, [codifferential(b) for b in basic]) == moduli_space()
    phi_v, = moduli_space()
    assert str(phi_v) == "v_3 e_12 - v_2 e_34 + v_1 e_56"
    assert codifferential(phi_v).is_zero()
    assert (laplacian(phi_v) - phi_v * 12).is_zero()
    assert inner(phi_v, OMEGA).is_zero()
    assert (apply_j(phi_v) - phi_v).is_zero()
    # xi -> phi_v is injective on the simple su_3 (Schur): rank 8, the
    # spectral bound met as an equality
    rank = _LIE_DIMENSION[Group.SU3] * len(moduli_space())
    assert rank == 8 == moduli_upper_bound(Space.FLAG).nk_upper_bound


def test_criterion_09_killing_identity_suite():
    report = verify_killing_suite()
    assert report.passed, str(report)
    kd = killing_data()
    xi, jxi = kd.xi_flat, kd.j_xi_flat
    assert (laplacian(xi) - xi * 10).is_zero()
    assert (laplacian(jxi) - jxi * 18).is_zero()
    assert codifferential(jxi).is_zero()
    assert (codifferential(kd.phi_k) - xi * 8).is_zero()
    expected = kd.phi_k * 12 + contract_vector(jxi, PSI_PLUS) * 8
    assert (laplacian(kd.phi_k) - expected).is_zero()


def test_criterion_10_scalar_curvature_normalization():
    for space in Space:
        cas, scal = scal_normalization_check(space)
        assert cas == Fraction(-1, 3)
        assert scal == Fraction(5, 2)
        assert -12 * cas == 4


def test_criterion_11_property_sweeps():
    # weight table totals match the closed dimension formula for every
    # label with eigenvalue up to 60
    for group in Group:
        for label in iter_labels(group, Fraction(60)):
            table = weight_multiplicities(label)
            assert sum(m for _, m in table.entries) == dimension(label)
    # adjoint representations all have Casimir -1
    assert casimir_eigenvalue(su2_label(2)) == -1
    assert casimir_eigenvalue(su2cubed_label(2, 0, 0)) == -1
    assert casimir_eigenvalue(so5_label(1, 1)) == -1
    assert casimir_eigenvalue(su3_label(1, 1)) == -1
    # Leibniz rule and the star involution on seed-pinned random input
    rng = random.Random(60169)

    def random_form(degree, top):
        data = {}
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.sample(range(1, top + 1), degree)))
            data[idx, 0] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return InvariantForm.make(degree, data)

    for _ in range(60):
        p = rng.randint(1, 3)
        a = random_form(p, 9)
        b = random_form(rng.randint(1, 3), 9)
        lhs = d(wedge(a, b))
        rhs = wedge(d(a), b) + wedge(a, d(b)) * ((-1) ** p)
        assert (lhs - rhs).is_zero()
    for _ in range(60):
        p = rng.randint(0, 6)
        a = random_form(p, 6) if p else InvariantForm.make(
            0, {((), 0): Fraction(rng.randint(-6, 6))}
        )
        assert (hodge_star(hodge_star(a)) - a * ((-1) ** p)).is_zero()
