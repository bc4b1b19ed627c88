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

which only needs operators the engine already has.

The rank of the moduli generators xi -> phi_v is read on the symbols
too: the span of v_1, v_2 closed under the frame derivatives, with no
group element sampled (see moduli_generator_rank).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .branching import _FRAME, _HORIZONTAL, Space
from .dga import (
    InvariantForm,
    OMEGA,
    PSI_MINUS,
    PSI_PLUS,
    PSI_PLUS_CONTRACTED,
    VOLUME,
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
    killing_data,
    laplacian,
    scalar_form,
    symbol_form,
    type_decompose,
    wedge,
)
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


# index pairs p_1..p_8 of the generic 2-form sum_n s_n e^{p_n}, s_n the
# symbol in slot n; slot n of its primitive (1,1) part is the projection
# of e^{p_n}, and these eight projections span the 8-dim space
_PRIMITIVE_PAIRS = ((1, 2), (5, 6), (1, 3), (1, 4), (1, 5), (1, 6), (3, 5), (3, 6))


def _reduce(span: Dict[int, List[int]], row: Sequence[Fraction]) -> bool:
    """Reduce a row of ints or Fractions, scaled to integers first,
    against an echelon span, {pivot: primitive integer row whose first
    nonzero entry is positive, at the pivot}, by cross-multiplication,
    fraction-free as in Bareiss's elimination; a nonzero remainder joins
    the span and True is returned."""
    den = lcm(*(x.denominator for x in row))
    row = [x.numerator * (den // x.denominator) for x in row]
    for pivot in sorted(span):
        if factor := row[pivot]:
            lead = span[pivot][pivot]
            row = [lead * x - factor * y for x, y in zip(row, span[pivot])]
    lead = next((col for col, x in enumerate(row) if x), None)
    if lead is None:
        return False
    g = gcd(*row)
    span[lead] = [x // (g if row[lead] > 0 else -g) for x in row]
    return True


def _rank(rows: Sequence[Sequence[Fraction]]) -> int:
    span: Dict[int, List[int]] = {}
    return sum(_reduce(span, row) for row in rows)


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

    # slot n of phi is the primitive (1,1) projection of e^{p_n}
    phi = type_decompose(InvariantForm.make(2, {
        (p, n): 1 for n, p in enumerate(_PRIMITIVE_PAIRS, 1)
    }))[0]
    # the rows share phi's denominator, so its numerators have the same rank
    rows = [phi.slot_numerators(i, j)[1:] for i in _HORIZONTAL for j in _HORIZONTAL if i < j]
    if _rank(rows) != 8:
        raise AssertionError("the primitive (1,1) projections do not span")

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

def moduli_generator_rank() -> int:
    """Rank of the map xi -> phi_v from su_3, computed on the symbols.

    phi_v = v_1 e_56 - v_2 e_34 + v_3 e_12 vanishes exactly when v_1 and
    v_2 do, and v_j(g) = <xi, Ad(g) h_j>.  On the connected group these
    all vanish iff xi is orthogonal to the smallest ad-invariant subspace
    holding h_1, h_2, so the rank is that subspace's dimension modulo the
    centre.  A frame vector acts on the symbols by u . c_W = c_{[u, W]},
    so in slots 1..8 (the symbols c_W up to the centre, where v_3 folds
    into v_1, v_2) the subspace is the span of v_1 and v_2 closed under
    the nine frame derivatives u_a -| d.  It is grown until no derivative
    leaves it; the result is exact, where evaluating at sample points
    only bounds it from below.
    """
    span: Dict[int, List[int]] = {}
    pending = [symbol_form("v1"), symbol_form("v2")]
    while pending:
        c = pending.pop()
        # a row times its positive denominator spans the same line
        if _reduce(span, c.slot_numerators()[1:]):
            dc = d(c)
            pending += [contract_frame(dc, a) for a in _FRAME]
    return len(span)


def verify_moduli_generators() -> VerificationReport:
    kd = killing_data()
    phi = kd.phi_v
    rank = moduli_generator_rank()
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
