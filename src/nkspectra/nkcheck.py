"""Verification suites for the SU3-structure identities and the flag
manifold deformation argument.

Each suite replays a chain of tensor identities inside the exact
invariant calculus of :mod:`nkspectra.dga` and reports the residuals,
which must be syntactic zeros of the coefficient algebra; nothing is
compared numerically against a tolerance.  The suites instantiate
general statements on the homogeneous model, so they are model
verification, not proofs for arbitrary manifolds.

The canonical tensor A_X = -(JX -| Psi+) is held as the 2-form
(JX) -| Psi+ and acts on 1-forms as theta -> -(theta -| (JX) -| Psi+), so
the identities about A, its square included, run on the same operators
as the rest of the calculus.  An identity linear in X is checked once, at
the generic 1-form X = sum x_i e^i: every operator acts slot by slot, so
slot i of the residual is the residual at e_i.  The six basis 2-forms
beta_i = (J e_i) -| Psi+ are kept for the sums over a basis.  The same
reading serves the two checks that are not linear in X: the star identity
runs once on the primitive (1,1) part of a generic 2-form, whose eight
slots span that space, and the norm samples are one 0-form whose slot k
is the residual at sample k (a fault at the second prints x_2).

The eigenfunction used throughout is f = v_1, which satisfies
Delta f = 12 f; statements parametrized by an eigenvalue lambda are
therefore exercised at lambda = 12 only.  On functions the Hermitian
and Hodge Laplacians coincide; on 2-forms the Hermitian one is obtained
from the difference formula

    (Delta - Delta_H) phi = (J (delta phi)) -| Psi+

which needs only the engine's operators, with delta phi computed once.

The flag's NK is computed, not written down (see moduli_space): the
basic primitive (1,1) sections with coefficients in su_3 are solved for,
their count is checked against hom_dimension, and the co-closed ones are
kept.  There is one, phi_v, and xi -> phi_v has rank dim su_3 = 8.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence, Tuple

from .branching import _HORIZONTAL, Bundle, Space, hom_dimension
from .dga import (
    InvariantForm,
    OMEGA,
    PSI_MINUS,
    PSI_PLUS,
    PSI_PLUS_CONTRACTED,
    VOLUME,
    _SYMBOLS,
    _X_FLAT,
    alpha,
    apply_j,
    basic_check,
    codifferential,
    contract_frame,
    contract_vector,
    d,
    e,
    format_form,
    hodge_star,
    inner,
    kernel,
    killing_data,
    laplacian,
    scalar_form,
    symbol_form,
    type_decompose,
    wedge,
)
from .rootrep import _LIE_DIMENSION, Group, su3_label
from .spectrum import moduli_upper_bound


# --------------------------------------------------------------------------
# Report plumbing

class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: str


class VerificationReport(NamedTuple):
    suite: str
    checks: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _form_check(name: str, residual: InvariantForm) -> CheckResult:
    ok = residual.is_zero()
    return CheckResult(name, ok, "0" if ok else format_form(residual))


def _basic_check(name: str, form: InvariantForm) -> CheckResult:
    ok = basic_check(form)
    return CheckResult(name, ok, "0" if ok else "vertical dependence")


# --------------------------------------------------------------------------
# The canonical tensor A of the model SU3-structure

def _a_form(x_flat: InvariantForm) -> InvariantForm:
    """(JX) -| Psi+ for the 1-form X; A_X is its negative endomorphism."""
    return contract_vector(apply_j(x_flat), PSI_PLUS)


def a_two_form(x: Sequence[Fraction]) -> InvariantForm:
    """The 2-form (JX) -| Psi+ whose negative endomorphism is A_X, for
    the components of X, one per horizontal index."""
    if len(x) != len(_HORIZONTAL):
        raise ValueError(f"a vector X has {len(_HORIZONTAL)} components, not {len(x)}")
    return _a_form(InvariantForm.make(1, {((i,), 0): q for i, q in enumerate(x, 1)}))


def a_norm_squared(x: Sequence[Fraction]) -> Fraction:
    """|A_X|^2 in the 2-form norm (half the endomorphism Frobenius
    norm); this is the normalization in which |A_X|^2 = 2|X|^2."""
    beta = a_two_form(x)
    return inner(beta, beta).constant_part()


# index pairs p_1..p_8 whose primitive (1,1) projections P_1..P_8 span
# that 8-dim space
_PRIMITIVE_PAIRS = ((1, 2), (5, 6), (1, 3), (1, 4), (1, 5), (1, 6), (3, 5), (3, 6))


@lru_cache(maxsize=None)
def _projections(pairs: Tuple[Tuple[int, int], ...]) -> Tuple[InvariantForm, ...]:
    """The primitive (1,1) parts of e^p over the index pairs p."""
    return tuple(type_decompose(e(*p))[0] for p in pairs)


# --------------------------------------------------------------------------
# Suite 1: pointwise linear-algebra identities of the model structure

def verify_pointwise_identities() -> VerificationReport:
    x = _X_FLAT  # slot i of a residual linear in X is the residual at e_i
    ax = _a_form(x)  # A_X theta = -(theta -| ax)
    x_psi = contract_vector(x, PSI_PLUS)
    x_wedge_psi = wedge(x, PSI_PLUS)
    om2 = wedge(OMEGA, OMEGA)
    # beta_i = (J e_i) -| Psi+, so A_{e_i} theta = -(theta -| beta_i)
    beta = [_a_form(e(i)) for i in _HORIZONTAL]

    # |A_X|^2 = 2|X|^2 on a few dense rational vectors; slot k of the
    # residual is the one at sample k
    samples = (
        (1, 2, 3, 4, 5, 6),
        (Fraction(1, 2), Fraction(-1, 3), 1, 0, Fraction(2, 7), -2),
        (0, 1, -1, Fraction(5, 4), Fraction(-3, 2), Fraction(1, 6)),
    )
    norm_residual = InvariantForm.make(0, {
        ((), k): a_norm_squared(s) - 2 * sum(c * c for c in s)
        for k, s in enumerate(samples, 1)
    })

    # eight independent forms in the 8-dim space span it
    projections = _projections(_PRIMITIVE_PAIRS)
    if kernel(projections, projections):
        raise AssertionError("the primitive (1,1) projections do not span")
    # slot n of phi is P_n, slots 1..8 holding x_1..x_6, v_1, v_2
    phi = sum((p * symbol_form(s) for p, s in zip(projections, _SYMBOLS[1:])), InvariantForm.zero(2))

    checks = (
        # norm identity polarized: sum_j <A_X, A_{e_j}> e^j = 2X, whose
        # slot i at e^j is <A_{e_i}, A_{e_j}> = 2 delta_ij
        _form_check(
            "a0_norm_polarized",
            sum((e(j) * inner(ax, b) for j, b in enumerate(beta, 1)), x * -2),
        ),
        _form_check("a0_norm_rational_samples", norm_residual),
        # sum of the squared endomorphisms is -4 id, where
        # A_{e_i}^2 theta = (theta -| beta_i) -| beta_i
        _form_check(
            "a1_composition_sum",
            sum((contract_vector(contract_vector(x, b), b) for b in beta), x * 4),
        ),
        # sum_i A_X e_i ^ (e_i -| Psi+) = -2 X ^ omega
        _form_check(
            "a10_contraction_sum",
            sum(
                (
                    wedge(-contract_frame(ax, i), contracted)
                    for i, contracted in zip(_HORIZONTAL, PSI_PLUS_CONTRACTED)
                ),
                wedge(x, OMEGA) * 2,
            ),
        ),
        # X -| Psi- = -JX -| Psi+
        _form_check("a3_psi_minus_contraction", contract_vector(x, PSI_MINUS) + ax),
        # (X -| Psi+) ^ Psi+ = X ^ omega^2
        _form_check("a4_wedge_psi_plus", wedge(x_psi, PSI_PLUS) - wedge(x, om2)),
        # (JX -| Psi+) ^ omega = X ^ Psi+
        _form_check("a5_wedge_omega", wedge(ax, OMEGA) - x_wedge_psi),
        # *(X ^ Psi+) = JX -| Psi+
        _form_check("a6_star_wedge", hodge_star(x_wedge_psi) - ax),
        # *(phi ^ omega) = -phi on the primitive (1,1) forms
        _form_check("a7_primitive_star", hodge_star(wedge(phi, OMEGA)) + phi),
        # *(JX ^ omega^2) = -2 X
        _form_check(
            "a8_star_omega_squared", hodge_star(wedge(apply_j(x), om2)) + x * 2
        ),
        # alpha normalization: alpha(X -| Psi+) = 2X
        _form_check("alpha_adjoint_normalization", alpha(x_psi) - x * 2),
        # compatibilities of the defining forms
        _form_check("omega_wedge_psi_plus", wedge(OMEGA, PSI_PLUS)),
        _form_check("omega_cubed_volume", wedge(om2, OMEGA) - VOLUME * 6),
        _form_check(
            "psi_wedge_normalization", wedge(PSI_PLUS, PSI_MINUS) - VOLUME * 4
        ),
    )
    return VerificationReport("pointwise_identities", checks)


# --------------------------------------------------------------------------
# Suite 2: Killing 1-forms on the flag model

def _hermitian_laplacian(phi: InvariantForm) -> InvariantForm:
    """Delta_H phi = d delta phi + delta d phi - (J delta phi) -| Psi+ on
    2-forms, delta phi computed once."""
    delta_phi = codifferential(phi)
    return d(delta_phi) + codifferential(d(phi)) - _a_form(delta_phi)


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
        _form_check("d_xi_primitive", inner(dxi, OMEGA)),
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
        _form_check("phi_k_primitive", inner(phi_k, OMEGA)),
        _basic_check("phi_k_basic", phi_k),
    ]
    return VerificationReport("killing_suite", tuple(checks))


# --------------------------------------------------------------------------
# Suite 3: eigenfunction machinery at lambda = 12 (f = v_1)

# the eigenvalue of f = v_1: Delta f = lambda f
_LAMBDA = 12


def _eigenfunction_forms() -> Tuple[InvariantForm, ...]:
    """The forms suites 3 and 5 read: f = v_1, df, J df, the raw piece
    d(J df) + 2 df -| Psi^+ and eta, the raw piece plus (lambda/3) f omega."""
    f = symbol_form("v1")
    df = d(f)
    jdf = apply_j(df)
    raw = d(jdf) + contract_vector(df, PSI_PLUS) * 2
    return f, df, jdf, raw, raw + OMEGA * f * Fraction(_LAMBDA, 3)


def verify_eigenfunction_suite() -> VerificationReport:
    f, df, jdf, _, eta_formula = _eigenfunction_forms()
    # two constructions of eta: the closed formula and the primitive
    # projector applied to dJdf; they must agree
    eta_projected = type_decompose(d(jdf))[0]
    kd = killing_data()
    checks = [
        _form_check("eigenfunction", laplacian(f) - f * _LAMBDA),
        _form_check("eta_constructions_agree", eta_formula - eta_projected),
        _form_check("eta_type_11", apply_j(eta_formula) - eta_formula),
        _form_check("eta_primitive", inner(eta_formula, OMEGA)),
        _form_check(
            "delta_eta",
            codifferential(eta_formula) - jdf * Fraction(2 * _LAMBDA, 3) + jdf * 4,
        ),
        _form_check(
            "laplace_eta",
            laplacian(eta_formula)
            - eta_formula * _LAMBDA
            + contract_vector(df, PSI_PLUS) * 4,
        ),
        _form_check(
            "hermitian_laplace_eta",
            _hermitian_laplacian(eta_formula) - eta_formula * _LAMBDA,
        ),
        _form_check("laplace_j_df", laplacian(jdf) - jdf * (_LAMBDA + 4)),
        _form_check("delta_j_df", codifferential(jdf)),
        _form_check(
            "laplace_f_omega",
            laplacian(OMEGA * f)
            - OMEGA * f * (_LAMBDA + 12)
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

@lru_cache(maxsize=None)
def moduli_space() -> Tuple[InvariantForm, ...]:
    """A basis of the flag's NK as G-maps out of su_3: the co-closed basic
    sections among the 64 P_r c_s, c_s in x_1..x_6, v_1, v_2.  Linear in
    the c_s, a section is a G-map xi -> phi out of V(1,1), the only label
    at Laplace eigenvalue 12, so these hold all of NK; the basic ones, whose
    d has no vertical part, number hom_dimension(V(1,1), Lambda^(1,1)_0)."""
    unknowns = [p * symbol_form(s) for p in _projections(_PRIMITIVE_PAIRS) for s in _SYMBOLS[1:]]
    basic = kernel(unknowns, [d(u).vertical_part() for u in unknowns])
    if len(basic) != (want := hom_dimension(Space.FLAG, su3_label(1, 1), Bundle.LAMBDA11)):
        raise AssertionError(f"{len(basic)} basic primitive (1,1) sections, not {want}")
    return kernel(basic, [codifferential(b) for b in basic])


def verify_moduli_generators() -> VerificationReport:
    sections = moduli_space()
    # phi_v, signed as kernel signs a basis form: its last numerator, the
    # v_1 at e_56, is positive
    phi = sections[0] if sections else InvariantForm.zero(2)
    # a nonzero G-map out of the simple su_3 is injective (Schur), so
    # xi -> phi has rank dim su_3 per co-closed section
    rank = _LIE_DIMENSION[Group.SU3] * len(sections)
    bound = moduli_upper_bound(Space.FLAG).nk_upper_bound
    checks = [
        _form_check("phi_v_type_11", apply_j(phi) - phi),
        _form_check("phi_v_primitive", inner(phi, OMEGA)),
        _form_check("d_phi_v_wedge_omega", wedge(d(phi), OMEGA)),
        _form_check("delta_phi_v", codifferential(phi)),
        _form_check("laplace_phi_v", laplacian(phi) - phi * 12),
        _basic_check("phi_v_basic", phi),
        _form_check("generator_rank_8", scalar_form(8 - rank)),
        _form_check("rank_meets_spectral_bound", scalar_form(bound - rank)),
    ]
    return VerificationReport("moduli_generators", tuple(checks))


# --------------------------------------------------------------------------
# Suite 5: injectivity of the combined deformation map

def verify_injectivity_argument() -> VerificationReport:
    """Replays the kernel argument for the map (xi, f) -> phi_K + eta.

    The codifferential of the image decomposes as 8 xi + 4 Jdf: the
    first summand is delta phi_K, the second is delta eta, where the
    raw piece d(Jdf) + 2 df -| Psi+ alone contributes 8 Jdf and the
    trace completion (lambda/3) f omega removes 4 Jdf of it.  Applying
    delta J then kills the xi summand and returns -48 v_1 = -4 (Delta f)
    from the Jdf summand, forcing f = 0 and in turn xi = 0.
    """
    kd = killing_data()
    xi, jxi, phi_k = kd.xi_flat, kd.j_xi_flat, kd.phi_k
    f, _, jdf, raw, eta = _eigenfunction_forms()
    checks = [
        _form_check("delta_phi_k", codifferential(phi_k) - xi * 8),
        _form_check("delta_eta", codifferential(eta) - jdf * 4),
        _form_check(
            "delta_sum", codifferential(phi_k + eta) - xi * 8 - jdf * 4
        ),
        _form_check("delta_raw_eta_piece", codifferential(raw) - jdf * 8),
        _form_check(
            "delta_trace_piece",
            codifferential(eta - raw) + jdf * 4,
        ),
        _form_check("delta_j_xi", codifferential(jxi)),
        _form_check(
            "forcing_step",
            codifferential(apply_j(xi * 8 + jdf * 4)) + f * (4 * _LAMBDA),
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
