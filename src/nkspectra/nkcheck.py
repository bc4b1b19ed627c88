"""Verification suites for the SU3-structure identities and the flag
manifold deformation argument.

Each suite replays a chain of tensor identities inside the exact
invariant calculus of :mod:`nkspectra.dga` and reports the residuals,
which must be syntactic zeros of the coefficient algebra; nothing is
compared numerically against a tolerance.  The suites instantiate
general statements on the homogeneous model, so they are model
verification, not proofs for arbitrary manifolds.

The canonical tensor A_X = -(JX -| Psi+) is held as the six 2-forms
beta_i = (J e_i) -| Psi+, built once per pointwise suite; A_{e_i} acts on
1-forms as theta -> -(theta -| beta_i), so the identities about A, its
square included, run on the same operators as the rest of the calculus.

The eigenfunction used throughout is f = v_1, which satisfies
Delta f = 12 f; statements parametrized by an eigenvalue lambda are
therefore exercised at lambda = 12 only.  On functions the Hermitian
and Hodge Laplacians coincide; on 2-forms the Hermitian one is obtained
from the difference formula

    (Delta - Delta_H) phi = (J (delta phi)) -| Psi+

which only needs operators the engine already has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import dga
from .branching import Space
from .dga import (
    Coefficient,
    InvariantForm,
    Matrix,
    OMEGA,
    PSI_MINUS,
    PSI_PLUS,
    PSI_PLUS_CONTRACTED,
    VOLUME,
    alpha,
    apply_j,
    basic_check,
    codifferential,
    contract_frame,
    contract_vector,
    d,
    e,
    format_form,
    gq,
    hodge_star,
    inner,
    killing_data,
    killing_values,
    laplacian,
    matrix,
    scalar_form,
    su3_basis,
    symbol_form,
    type_decompose,
    wedge,
)
from .spectrum import moduli_upper_bound


# --------------------------------------------------------------------------
# Report plumbing

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: str

    def to_json_dict(self) -> Dict[str, str]:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residual": self.residual,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _form_check(name: str, residual: InvariantForm) -> CheckResult:
    ok = residual.is_zero()
    return CheckResult(name, ok, "0" if ok else format_form(residual))


def _forms_check(
    name: str, residuals: Sequence[Tuple[str, InvariantForm]]
) -> CheckResult:
    for tag, res in residuals:
        if not res.is_zero():
            return CheckResult(name, False, f"{tag}: {format_form(res)}")
    return CheckResult(name, True, "0")


def _basic_check(name: str, form: InvariantForm) -> CheckResult:
    ok = basic_check(form)
    return CheckResult(name, ok, "0" if ok else "vertical dependence")


def _value_check(name: str, residual: Fraction) -> CheckResult:
    ok = residual == 0
    return CheckResult(name, ok, "0" if ok else str(residual))


# --------------------------------------------------------------------------
# The canonical tensor A of the model SU3-structure

def a_two_form(x: Sequence[Fraction]) -> InvariantForm:
    """The 2-form (JX) -| Psi+ whose negative endomorphism is A_X."""
    xf = InvariantForm.make(
        1, {(i + 1,): Coefficient.constant(q) for i, q in enumerate(x)}
    )
    return contract_vector(apply_j(xf), PSI_PLUS)


def a_norm_squared(x: Sequence[Fraction]) -> Fraction:
    """|A_X|^2 in the 2-form norm (half the endomorphism Frobenius
    norm); this is the normalization in which |A_X|^2 = 2|X|^2."""
    beta = a_two_form(x)
    return inner(beta, beta).constant_part()


# basis of the 8-dim primitive (1,1) space used by the star check
_PRIMITIVE_11_BASIS: Tuple[InvariantForm, ...] = (
    e(1, 2) + e(3, 4),
    e(5, 6) + e(3, 4),
    e(1, 3) - e(2, 4),
    e(1, 4) + e(2, 3),
    e(1, 5) + e(2, 6),
    e(1, 6) - e(2, 5),
    e(3, 5) - e(4, 6),
    e(3, 6) + e(4, 5),
)


def _rank(rows: List[List[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


# --------------------------------------------------------------------------
# Suite 1: pointwise linear-algebra identities of the model structure

def verify_pointwise_identities() -> VerificationReport:
    checks: List[CheckResult] = []
    basis = [e(i) for i in range(1, 7)]
    om2 = wedge(OMEGA, OMEGA)
    # beta_i = (J e_i) -| Psi+, so A_{e_i} theta = -(theta -| beta_i)
    beta = [
        a_two_form([Fraction(int(k == i)) for k in range(6)]) for i in range(6)
    ]

    # norm identity polarized over basis pairs:
    # <A_ei 2-form, A_ej 2-form> = 2 delta_ij
    residuals = []
    for i in range(6):
        for j in range(6):
            val = inner(beta[i], beta[j]).constant_part()
            want = Fraction(2 if i == j else 0)
            if val != want:
                residuals.append((f"(e{i+1},e{j+1})", scalar_form(val - want)))
    checks.append(_forms_check("a0_norm_polarized", residuals))

    # the same norm identity on a few dense rational vectors
    samples = (
        (1, 2, 3, 4, 5, 6),
        (Fraction(1, 2), Fraction(-1, 3), 1, 0, Fraction(2, 7), -2),
        (0, 1, -1, Fraction(5, 4), Fraction(-3, 2), Fraction(1, 6)),
    )
    residuals = []
    for s in samples:
        x = [Fraction(q) for q in s]
        got = a_norm_squared(x)
        want = 2 * sum(q * q for q in x)
        if got != want:
            residuals.append((str(s), scalar_form(got - want)))
    checks.append(_forms_check("a0_norm_rational_samples", residuals))

    # sum of the squared endomorphisms is -4 id, on every e^k, where
    # A_{e_i}^2 theta = (theta -| beta_i) -| beta_i
    residuals = [
        (
            f"e{k}",
            sum((contract_vector(contract_vector(x, b), b) for b in beta), x * 4),
        )
        for k, x in enumerate(basis, start=1)
    ]
    checks.append(_forms_check("a1_composition_sum", residuals))

    # sum_i A_X e_i ^ (e_i -| Psi+) = -2 X ^ omega, X over basis
    residuals = [
        (
            f"e{k}",
            sum(
                (
                    wedge(-contract_frame(b, i), PSI_PLUS_CONTRACTED[i - 1])
                    for i in range(1, 7)
                ),
                wedge(x, OMEGA) * 2,
            ),
        )
        for k, (x, b) in enumerate(zip(basis, beta), start=1)
    ]
    checks.append(_forms_check("a10_contraction_sum", residuals))

    # X -| Psi- = -JX -| Psi+
    residuals = [
        (f"e{i}", contract_frame(PSI_MINUS, i) + beta[i - 1])
        for i in range(1, 7)
    ]
    checks.append(_forms_check("a3_psi_minus_contraction", residuals))

    # (X -| Psi+) ^ Psi+ = X ^ omega^2
    residuals = [
        (f"e{i}", wedge(PSI_PLUS_CONTRACTED[i - 1], PSI_PLUS) - wedge(e(i), om2))
        for i in range(1, 7)
    ]
    checks.append(_forms_check("a4_wedge_psi_plus", residuals))

    # (JX -| Psi+) ^ omega = X ^ Psi+
    residuals = [
        (f"e{i}", wedge(beta[i - 1], OMEGA) - wedge(e(i), PSI_PLUS))
        for i in range(1, 7)
    ]
    checks.append(_forms_check("a5_wedge_omega", residuals))

    # *(X ^ Psi+) = JX -| Psi+
    residuals = [
        (f"e{i}", hodge_star(wedge(e(i), PSI_PLUS)) - beta[i - 1])
        for i in range(1, 7)
    ]
    checks.append(_forms_check("a6_star_wedge", residuals))

    # *(phi ^ omega) = -phi over the 8-dim primitive (1,1) basis
    residuals = []
    for n, phi in enumerate(_PRIMITIVE_11_BASIS, start=1):
        if not (apply_j(phi) - phi).is_zero() or not inner(phi, OMEGA).is_zero():
            raise AssertionError(f"phi{n} is not a primitive (1,1) form")
        residuals.append((f"phi{n}", hodge_star(wedge(phi, OMEGA)) + phi))
    rows = [
        [
            phi.coefficient(i, j).constant_part()
            for i in range(1, 7)
            for j in range(i + 1, 7)
        ]
        for phi in _PRIMITIVE_11_BASIS
    ]
    if _rank(rows) != 8:
        raise AssertionError("the primitive (1,1) basis does not span")
    checks.append(_forms_check("a7_primitive_star", residuals))

    # *(JX ^ omega^2) = -2 X
    residuals = [
        (f"e{i}", hodge_star(wedge(apply_j(e(i)), om2)) + e(i) * 2)
        for i in range(1, 7)
    ]
    checks.append(_forms_check("a8_star_omega_squared", residuals))

    # alpha normalization: alpha(X -| Psi+) = 2X
    residuals = [
        (f"e{i}", alpha(PSI_PLUS_CONTRACTED[i - 1]) - e(i) * 2)
        for i in range(1, 7)
    ]
    checks.append(_forms_check("alpha_adjoint_normalization", residuals))

    # compatibilities of the defining forms
    checks.append(_form_check("omega_wedge_psi_plus", wedge(OMEGA, PSI_PLUS)))
    checks.append(
        _form_check(
            "omega_cubed_volume", wedge(om2, OMEGA) - VOLUME * 6
        )
    )
    checks.append(
        _form_check(
            "psi_wedge_normalization", wedge(PSI_PLUS, PSI_MINUS) - VOLUME * 4
        )
    )
    return VerificationReport("pointwise_identities", tuple(checks))


# --------------------------------------------------------------------------
# Suite 2: Killing 1-forms on the flag model

def _hermitian_laplacian(phi: InvariantForm) -> InvariantForm:
    """Delta_H phi = Delta phi - (J delta phi) -| Psi+ on 2-forms."""
    return laplacian(phi) - contract_vector(
        apply_j(codifferential(phi)), PSI_PLUS
    )


def verify_killing_suite() -> VerificationReport:
    kd = killing_data()
    xi, jxi, phi_k = kd.xi_flat, kd.j_xi_flat, kd.phi_k
    dxi = d(xi)
    checks = [
        _form_check("d_j_xi", d(jxi) + contract_vector(xi, PSI_PLUS) * 3),
        _form_check("delta_j_xi", codifferential(jxi)),
        _form_check("delta_xi", codifferential(xi)),
        _form_check("laplace_xi", laplacian(xi) - xi * 10),
        _form_check("laplace_j_xi", laplacian(jxi) - jxi * 18),
        _form_check(
            "d_xi_20_part",
            type_decompose(dxi)[1] + contract_vector(jxi, PSI_PLUS),
        ),
        _form_check(
            "d_xi_primitive", scalar_form(inner(dxi, OMEGA))
        ),
        _form_check("delta_phi_k", codifferential(phi_k) - xi * 8),
        _form_check(
            "laplace_phi_k",
            laplacian(phi_k)
            - phi_k * 12
            - contract_vector(jxi, PSI_PLUS) * 8,
        ),
        _form_check(
            "hermitian_laplace_phi_k", _hermitian_laplacian(phi_k) - phi_k * 12
        ),
        _form_check(
            "killing_preserves_omega",
            d(contract_vector(xi, OMEGA)) + contract_vector(xi, d(OMEGA)),
        ),
        _form_check(
            "killing_preserves_psi_plus",
            d(contract_vector(xi, PSI_PLUS)) + contract_vector(xi, d(PSI_PLUS)),
        ),
        _form_check(
            "killing_preserves_psi_minus",
            d(contract_vector(xi, PSI_MINUS))
            + contract_vector(xi, d(PSI_MINUS)),
        ),
        _form_check("phi_k_type_11", apply_j(phi_k) - phi_k),
        _form_check("phi_k_primitive", scalar_form(inner(phi_k, OMEGA))),
        _basic_check("phi_k_basic", phi_k),
    ]
    return VerificationReport("killing_suite", tuple(checks))


# --------------------------------------------------------------------------
# Suite 3: eigenfunction machinery at lambda = 12 (f = v_1)

def verify_eigenfunction_suite() -> VerificationReport:
    f = symbol_form("v1")
    df = d(f)
    jdf = apply_j(df)
    lam = 12
    # two constructions of eta: the closed formula and the primitive
    # projector applied to dJdf; they must agree
    eta_formula = (
        d(jdf)
        + contract_vector(df, PSI_PLUS) * 2
        + OMEGA * Coefficient.symbol("v1") * Fraction(lam, 3)
    )
    eta_projected = type_decompose(d(jdf))[0]
    kd = killing_data()
    checks = [
        _form_check("eigenfunction", laplacian(f) - f * lam),
        _form_check("eta_constructions_agree", eta_formula - eta_projected),
        _form_check("eta_type_11", apply_j(eta_formula) - eta_formula),
        _form_check(
            "eta_primitive", scalar_form(inner(eta_formula, OMEGA))
        ),
        _form_check(
            "delta_eta",
            codifferential(eta_formula) - jdf * Fraction(2 * lam, 3) + jdf * 4,
        ),
        _form_check(
            "laplace_eta",
            laplacian(eta_formula)
            - eta_formula * lam
            + contract_vector(df, PSI_PLUS) * 4,
        ),
        _form_check(
            "hermitian_laplace_eta",
            _hermitian_laplacian(eta_formula) - eta_formula * lam,
        ),
        _form_check("laplace_j_df", laplacian(jdf) - jdf * (lam + 4)),
        _form_check("delta_j_df", codifferential(jdf)),
        _form_check(
            "laplace_f_omega",
            laplacian(OMEGA * Coefficient.symbol("v1"))
            - OMEGA * Coefficient.symbol("v1") * (lam + 12)
            + contract_vector(df, PSI_PLUS) * 2,
        ),
        _form_check(
            "magic_df", alpha(d(df)) - jdf * 4 - apply_j(alpha(d(jdf)))
        ),
        _form_check(
            "magic_xi",
            alpha(d(kd.xi_flat))
            - kd.j_xi_flat * 4
            - apply_j(alpha(d(kd.j_xi_flat))),
        ),
        _form_check("alpha_d_xi", alpha(d(kd.xi_flat)) + kd.j_xi_flat * 2),
    ]
    return VerificationReport("eigenfunction_suite", tuple(checks))


# --------------------------------------------------------------------------
# Suite 4: the 8-dim space of moduli generators

# Gaussian-rational unitaries used as sample points on the flag manifold.
# Real rotations alone never separate the real-antisymmetric part of su_3
# (conjugating by an orthogonal matrix keeps it off-diagonal), so two of
# the samples interleave a phase matrix between rotations in different
# coordinate planes.
def _sample_unitaries() -> Tuple[Matrix, ...]:
    i1 = gq(1)
    ii = gq(0, 1)
    z = gq()

    def rot12(c, s):
        return matrix([[gq(c), gq(s), z], [gq(-s), gq(c), z], [z, z, i1]])

    def rot13(c, s):
        return matrix([[gq(c), z, gq(s)], [z, i1, z], [gq(-s), z, gq(c)]])

    def rot23(c, s):
        return matrix([[i1, z, z], [z, gq(c), gq(s)], [z, gq(-s), gq(c)]])

    ident = matrix([[i1, z, z], [z, i1, z], [z, z, i1]])
    r12 = rot12(Fraction(3, 5), Fraction(4, 5))
    r13 = rot13(Fraction(5, 13), Fraction(12, 13))
    r23 = rot23(Fraction(8, 17), Fraction(15, 17))
    d1 = matrix([[ii, z, z], [z, i1, z], [z, z, ii]])
    return (
        ident,
        dga.mat_mul(r13, r23),
        dga.mat_mul(d1, dga.mat_mul(r12, r13)),
        dga.mat_mul(r12, dga.mat_mul(d1, r23)),
        dga.mat_mul(r12, r23),
    )


def moduli_generator_rank() -> int:
    """Rank of the map xi -> phi_v: each su_3 generator is sent to its
    (v_1, v_2, v_3) value triple at the sample points; linear
    independence of the 8 resulting functions is a finite rank check."""
    samples = _sample_unitaries()
    rows = []
    for xi in su3_basis():
        row: List[Fraction] = []
        for g in samples:
            vals = killing_values(xi, g)
            row.extend((vals["v1"], vals["v2"], vals["v3"]))
        rows.append(row)
    return _rank(rows)


def verify_moduli_generators() -> VerificationReport:
    kd = killing_data()
    phi = kd.phi_v
    rank = moduli_generator_rank()
    bound = moduli_upper_bound(Space.FLAG).nk_upper_bound
    checks = [
        _form_check("phi_v_type_11", apply_j(phi) - phi),
        _form_check("phi_v_primitive", scalar_form(inner(phi, OMEGA))),
        _form_check("d_phi_v_wedge_omega", wedge(d(phi), OMEGA)),
        _form_check("delta_phi_v", codifferential(phi)),
        _form_check("laplace_phi_v", laplacian(phi) - phi * 12),
        _basic_check("phi_v_basic", phi),
        _value_check("generator_rank_8", Fraction(8 - rank)),
        _value_check(
            "rank_meets_spectral_bound", Fraction(bound - rank)
        ),
    ]
    return VerificationReport("moduli_generators", tuple(checks))


# --------------------------------------------------------------------------
# Suite 5: injectivity of the combined deformation map

def verify_injectivity_argument() -> VerificationReport:
    """Replays the kernel argument for the map (xi, f) -> phi_K + eta.

    The codifferential of the image decomposes as 8 xi + 4 Jdf: the
    first summand is delta phi_K, the second is delta eta, where the
    raw piece d(Jdf) + 2 df -| Psi+ alone contributes 8 Jdf and the
    trace completion -(lambda/3) f omega removes 4 Jdf of it.  Applying
    delta J then kills the xi summand and returns -48 v_1 = -4 (Delta f)
    from the Jdf summand, forcing f = 0 and in turn xi = 0.
    """
    kd = killing_data()
    xi, jxi, phi_k = kd.xi_flat, kd.j_xi_flat, kd.phi_k
    f = symbol_form("v1")
    df = d(f)
    jdf = apply_j(df)
    eta = (
        d(jdf)
        + contract_vector(df, PSI_PLUS) * 2
        + OMEGA * Coefficient.symbol("v1") * 4
    )
    raw = d(jdf) + contract_vector(df, PSI_PLUS) * 2
    checks = [
        _form_check("delta_phi_k", codifferential(phi_k) - xi * 8),
        _form_check("delta_eta", codifferential(eta) - jdf * 4),
        _form_check(
            "delta_sum", codifferential(phi_k + eta) - xi * 8 - jdf * 4
        ),
        _form_check("delta_raw_eta_piece", codifferential(raw) - jdf * 8),
        _form_check(
            "delta_trace_piece",
            codifferential(OMEGA * Coefficient.symbol("v1") * 4) + jdf * 4,
        ),
        _form_check("delta_j_xi", codifferential(jxi)),
        _form_check(
            "forcing_step",
            codifferential(apply_j(xi * 8 + jdf * 4)) + f * 48,
        ),
    ]
    return VerificationReport("injectivity_argument", tuple(checks))


def run_all_suites() -> Tuple[VerificationReport, ...]:
    return (
        verify_pointwise_identities(),
        verify_killing_suite(),
        verify_eigenfunction_suite(),
        verify_moduli_generators(),
        verify_injectivity_argument(),
    )
