"""Exact invariant exterior calculus on U3 with Killing-field coefficients.

The engine works in the 9-dimensional coframe algebra of the unitary
group, over a small exact coefficient ring, and implements d, wedge,
Hodge star, codifferential, Laplacian and the SU3-structure type
decomposition.  Everything is fractions.Fraction arithmetic; a zero
residual is a theorem, not a tolerance.

Conventions
-----------
Lie algebra basis (also the frame, indexed 1..9):

    u_1..u_6 = e_1..e_6   with  e_1 = E_12 - E_21,  e_2 = i(E_12 + E_21),
                                e_3 = E_13 - E_31,  e_4 = i(E_13 + E_31),
                                e_5 = E_23 - E_32,  e_6 = i(E_23 + E_32),
    u_7, u_8, u_9 = h_1, h_2, h_3  with  h_j = i E_jj,

where E_pq is the matrix unit.  The metric is <A, B> = -tr(AB)/2, which
on the traceless part is minus one twelfth of the Killing form and makes
{e_i, sqrt(2) h_j} orthonormal (|e_i| = 1, |h_j|^2 = 1/2).

Coframe indices 1..6 are the unit horizontal 1-forms e^1..e^6; indices
7, 8, 9 are the algebraic duals k^1, k^2, k^3 of h_1, h_2, h_3 (so
k^j(h_i) is the Kronecker delta).  Because |h_j|^2 = 1/2 the metric dual
of the vector h_j is the 1-form (1/2) k^j; these are exposed as H1, H2,
H3 and are the "h_j" appearing in the structure equations.  Orientation:
the volume form is -e_123456.

Coefficient functions: fix xi in su_3 and let X be the right-invariant
field it generates.  For W in u_3 the function c_W(g) = <Ad(g^{-1}) xi, W>
is linear in W, with c_{e_i} = x_i and c_{h_j} = v_j in the notation
used throughout; v_1 + v_2 + v_3 = 0 since xi is traceless, and v_3 is
eliminated on input.  A left-invariant frame vector u acts by
u . c_W = c_{[u, W]}, so

    d c_W = sum_i c_{[e_i, W]} e^i + sum_j c_{[h_j, W]} k^j

(the sqrt(2) normalizations of the vertical frame and coframe cancel).
The coefficient ring is the linear span of {1, x_1..x_6, v_1, v_2}:
every identity verified here is linear in these symbols, and products
of two non-constant coefficients raise NonlinearCoefficient instead of
silently leaving the ring.

Printer grammar (stable, for golden tests)
------------------------------------------
    form  := "0" | term { " + " term | " - " term }
    term  := coeff atoms | coeff          (0-forms)
    atoms := atom { "^" atom }
    atom  := "e_" digits                  (ascending horizontal block)
           | "h_" digit                   (vertical factor)
    coeff := "" | "-" | scalar | "(" linear combination ")"

Terms are ordered by index tuple.  A vertical factor prints as h_j, the
metric-dual 1-form; the stored k^j coefficient is multiplied by 2 per
vertical factor to account for k^j = 2 h_j.  Scalars print as integers
or "p/q"; composite coefficients print parenthesized with x_i before
v_j, and the v-part is displayed using whichever representative with
v_3 reintroduced (v_1 + t, v_2 + t, t) minimizes, in order, the number
of nonzero entries, the sum of absolute values, and the tuple itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class NonlinearCoefficient(ValueError):
    """Product of two non-constant coefficient functions: outside the
    verified linear fragment of the coefficient ring."""


class VerticalComponent(ValueError):
    """Operation defined only on the 6-dim horizontal algebra was handed
    a form with vertical (k^j) factors."""


# --------------------------------------------------------------------------
# Gaussian-rational 3x3 matrices (used to generate structure constants and
# to evaluate coefficient functions at group elements)

@dataclass(frozen=True)
class GQ:
    """Gaussian rational re + im*i."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, o: "GQ") -> "GQ":
        return GQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "GQ") -> "GQ":
        return GQ(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)

    def __mul__(self, o: "GQ") -> "GQ":
        return GQ(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    def conj(self) -> "GQ":
        return GQ(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


Matrix = Tuple[Tuple[GQ, ...], ...]


def gq(re=0, im=0) -> GQ:
    return GQ(Fraction(re), Fraction(im))


def matrix(rows: Sequence[Sequence[GQ]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_unit(p: int, q: int, value: GQ) -> Matrix:
    return matrix(
        [[value if (r, c) == (p, q) else gq() for c in range(3)] for r in range(3)]
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return matrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_scale(a: Matrix, s: GQ) -> Matrix:
    return matrix([[s * x for x in row] for row in a])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return matrix(
        [
            [
                sum((a[r][k] * b[k][c] for k in range(3)), gq())
                for c in range(3)
            ]
            for r in range(3)
        ]
    )


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_dagger(a: Matrix) -> Matrix:
    return matrix([[a[c][r].conj() for c in range(3)] for r in range(3)])


def mat_trace(a: Matrix) -> GQ:
    return a[0][0] + a[1][1] + a[2][2]


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


MAT_IDENTITY: Matrix = matrix(
    [[gq(1) if r == c else gq() for c in range(3)] for r in range(3)]
)


def mat_inner(a: Matrix, b: Matrix) -> Fraction:
    """<A, B> = -tr(AB)/2; real on skew-Hermitian arguments."""
    t = mat_trace(mat_mul(a, b))
    assert t.im == 0, "inner product of non-skew-Hermitian matrices"
    return -t.re / 2


def _build_basis() -> Tuple[Matrix, ...]:
    i = gq(0, 1)
    one = gq(1)

    def pair(p, q):
        anti = mat_sub(mat_unit(p, q, one), mat_unit(q, p, one))
        sym = mat_add(mat_unit(p, q, i), mat_unit(q, p, i))
        return anti, sym

    e1, e2 = pair(0, 1)
    e3, e4 = pair(0, 2)
    e5, e6 = pair(1, 2)
    hs = tuple(mat_unit(j, j, i) for j in range(3))
    return (e1, e2, e3, e4, e5, e6) + hs


@dataclass(frozen=True)
class LieBasis:
    """The nine u_3 basis matrices with their structure constants.

    brackets[(a, b)] for 1 <= a < b <= 9 holds the expansion of
    [u_a, u_b] in the basis; norms are the squared lengths <u_k, u_k>.
    """

    names: Tuple[str, ...]
    matrices: Tuple[Matrix, ...]
    brackets: Mapping[Tuple[int, int], Tuple[Fraction, ...]]
    norms: Tuple[Fraction, ...]

    def bracket(self, a: int, b: int) -> Tuple[Fraction, ...]:
        if a == b:
            return (Fraction(0),) * 9
        if a < b:
            return self.brackets[(a, b)]
        return tuple(-c for c in self.brackets[(b, a)])


def _build_lie_basis() -> LieBasis:
    mats = _build_basis()
    norms = tuple(mat_inner(m, m) for m in mats)
    assert norms == (Fraction(1),) * 6 + (Fraction(1, 2),) * 3

    def expand(m: Matrix) -> Tuple[Fraction, ...]:
        coeffs = tuple(mat_inner(m, b) / n for b, n in zip(mats, norms))
        recomposed = matrix([[gq() for _ in range(3)] for _ in range(3)])
        for c, b in zip(coeffs, mats):
            recomposed = mat_add(recomposed, mat_scale(b, gq(c)))
        assert mat_is_zero(mat_sub(recomposed, m)), "basis expansion failed"
        return coeffs

    brackets = {}
    for a in range(1, 10):
        for b in range(a + 1, 10):
            brackets[(a, b)] = expand(mat_commutator(mats[a - 1], mats[b - 1]))

    names = ("e1", "e2", "e3", "e4", "e5", "e6", "h1", "h2", "h3")
    return LieBasis(names=names, matrices=mats, brackets=brackets, norms=norms)


LIE_BASIS = _build_lie_basis()


def su3_basis() -> Tuple[Matrix, ...]:
    """Eight-matrix basis of su_3: the six e_i plus h_1-h_2, h_2-h_3."""
    m = LIE_BASIS.matrices
    return m[:6] + (mat_sub(m[6], m[7]), mat_sub(m[7], m[8]))


# --------------------------------------------------------------------------
# Coefficient ring

_SYMBOLS = ("1", "x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2")
_SYMBOL_INDEX = {s: i for i, s in enumerate(_SYMBOLS)}
_ZERO9 = (Fraction(0),) * 9


@dataclass(frozen=True)
class Coefficient:
    """Element of span{1, x_1..x_6, v_1, v_2}; v_3 = -v_1 - v_2 is
    eliminated at construction so the representation is canonical and
    zero testing is coordinate equality."""

    coords: Tuple[Fraction, ...] = _ZERO9

    def __post_init__(self):
        if len(self.coords) != 9:
            raise ValueError("coefficient needs 9 coordinates")

    @staticmethod
    def constant(q) -> "Coefficient":
        c = [Fraction(0)] * 9
        c[0] = Fraction(q)
        return Coefficient(tuple(c))

    @staticmethod
    def symbol(name: str) -> "Coefficient":
        if name == "v3":
            # v_3 = -v_1 - v_2
            return Coefficient(
                tuple(
                    Fraction(-1) if s in ("v1", "v2") else Fraction(0)
                    for s in _SYMBOLS
                )
            )
        c = [Fraction(0)] * 9
        c[_SYMBOL_INDEX[name]] = Fraction(1)
        return Coefficient(tuple(c))

    @staticmethod
    def from_vector(components: Sequence[Fraction]) -> "Coefficient":
        """Coefficient c_W for W with the given nine u_3 coordinates
        (e_1..e_6, h_1, h_2, h_3); the h_3 part is folded into v_1, v_2."""
        lam = [Fraction(x) for x in components]
        if len(lam) != 9:
            raise ValueError("expected 9 components")
        c = [Fraction(0)] * 9
        c[1:7] = lam[0:6]
        c[7] = lam[6] - lam[8]
        c[8] = lam[7] - lam[8]
        return Coefficient(tuple(c))

    def __add__(self, o: "Coefficient") -> "Coefficient":
        return Coefficient(tuple(a + b for a, b in zip(self.coords, o.coords)))

    def __sub__(self, o: "Coefficient") -> "Coefficient":
        return Coefficient(tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __neg__(self) -> "Coefficient":
        return Coefficient(tuple(-a for a in self.coords))

    def scale(self, q) -> "Coefficient":
        q = Fraction(q)
        return Coefficient(tuple(q * a for a in self.coords))

    def __mul__(self, o) -> "Coefficient":
        if not isinstance(o, Coefficient):
            return self.scale(o)
        if self.is_constant():
            return o.scale(self.coords[0])
        if o.is_constant():
            return self.scale(o.coords[0])
        raise NonlinearCoefficient(
            f"product of non-constant coefficients {self} and {o}"
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_constant(self) -> bool:
        return all(a == 0 for a in self.coords[1:])

    def constant_part(self) -> Fraction:
        return self.coords[0]

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Numeric value given x_i, v_j assignments (v_3 not needed)."""
        total = self.coords[0]
        for s, c in zip(_SYMBOLS[1:], self.coords[1:]):
            if c:
                total += c * Fraction(values[s])
        return total

    def __str__(self):
        return format_coefficient(self)


_ZERO_COEFF = Coefficient()
_ONE_COEFF = Coefficient.constant(1)


# --------------------------------------------------------------------------
# Invariant forms

Indices = Tuple[int, ...]


def _merge_sign(left: Indices, right: Indices) -> Tuple[Optional[Indices], int]:
    """Sorted merge of two ascending index tuples with permutation sign;
    (None, 0) when an index repeats."""
    if set(left) & set(right):
        return None, 0
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            # right[j] jumps over the remaining left entries
            if (len(left) - i) % 2:
                sign = -sign
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


def _normalize_indices(indices: Sequence[int]) -> Tuple[Optional[Indices], int]:
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    idx_list = list(idx)
    for i in range(len(idx_list)):
        for j in range(len(idx_list) - 1 - i):
            if idx_list[j] > idx_list[j + 1]:
                idx_list[j], idx_list[j + 1] = idx_list[j + 1], idx_list[j]
                sign = -sign
    return tuple(idx_list), sign


@dataclass(frozen=True)
class InvariantForm:
    """Homogeneous invariant form: map from ascending coframe index
    tuples (1..6 horizontal, 7..9 vertical) to coefficients."""

    degree: int
    terms: Tuple[Tuple[Indices, Coefficient], ...]

    @staticmethod
    def make(degree: int, data: Mapping[Indices, Coefficient]) -> "InvariantForm":
        clean = {}
        for idx, c in data.items():
            if c.is_zero():
                continue
            if len(idx) != degree:
                raise ValueError("inhomogeneous term")
            if any(i < 1 or i > 9 for i in idx):
                raise ValueError("coframe index out of range")
            clean[idx] = c
        return InvariantForm(degree, tuple(sorted(clean.items())))

    @staticmethod
    def zero(degree: int) -> "InvariantForm":
        return InvariantForm(degree, ())

    def as_dict(self) -> Dict[Indices, Coefficient]:
        return dict(self.terms)

    def coefficient(self, *indices: int) -> Coefficient:
        idx, sign = _normalize_indices(indices)
        if idx is None:
            return _ZERO_COEFF
        c = self.as_dict().get(idx, _ZERO_COEFF)
        return c if sign == 1 else -c

    def is_zero(self) -> bool:
        return not self.terms

    def is_horizontal(self) -> bool:
        return all(all(i <= 6 for i in idx) for idx, _ in self.terms)

    def __add__(self, o: "InvariantForm") -> "InvariantForm":
        if self.degree != o.degree:
            raise ValueError("degree mismatch in sum")
        data = self.as_dict()
        for idx, c in o.terms:
            data[idx] = data.get(idx, _ZERO_COEFF) + c
        return InvariantForm.make(self.degree, data)

    def __sub__(self, o: "InvariantForm") -> "InvariantForm":
        return self + (-o)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm(
            self.degree, tuple((idx, -c) for idx, c in self.terms)
        )

    def __mul__(self, s) -> "InvariantForm":
        c = s if isinstance(s, Coefficient) else Coefficient.constant(s)
        return InvariantForm.make(
            self.degree, {idx: c * cf for idx, cf in self.terms}
        )

    __rmul__ = __mul__

    def __str__(self):
        return format_form(self)


def coframe(index: int) -> InvariantForm:
    """The coframe 1-form with the given index (1..6 = e^i, 7..9 = k^j)."""
    if not 1 <= index <= 9:
        raise ValueError("coframe index out of range")
    return InvariantForm.make(1, {(index,): _ONE_COEFF})


def e(*indices: int) -> InvariantForm:
    """Monomial e_{i_1 ... i_p}; indices need not be sorted."""
    idx, sign = _normalize_indices(indices)
    if idx is None:
        return InvariantForm.zero(len(indices))
    return InvariantForm.make(
        len(indices), {idx: Coefficient.constant(sign)}
    )


def scalar_form(c) -> InvariantForm:
    coeff = c if isinstance(c, Coefficient) else Coefficient.constant(c)
    return InvariantForm.make(0, {(): coeff})


def symbol_form(name: str) -> InvariantForm:
    """0-form wrapping one coefficient symbol (x1..x6, v1, v2, v3)."""
    return scalar_form(Coefficient.symbol(name))


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    if a.degree + b.degree > 9:
        raise ValueError("wedge degree exceeds coframe dimension")
    data: Dict[Indices, Coefficient] = {}
    for ia, ca in a.terms:
        for ib, cb in b.terms:
            merged, sign = _merge_sign(ia, ib)
            if merged is None:
                continue
            contrib = (ca * cb).scale(sign)
            data[merged] = data.get(merged, _ZERO_COEFF) + contrib
    return InvariantForm.make(a.degree + b.degree, data)


def wedge_all(*forms: InvariantForm) -> InvariantForm:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


# --------------------------------------------------------------------------
# Exterior differential

def _coefficient_of_bracket(a: int, b: int) -> Coefficient:
    """c_{[u_a, u_b]} as a coefficient function."""
    return Coefficient.from_vector(LIE_BASIS.bracket(a, b))


@lru_cache(maxsize=None)
def _d_symbol(symbol_index: int) -> InvariantForm:
    """d of the coefficient symbol with the given coordinate slot."""
    if symbol_index == 0:
        return InvariantForm.zero(1)
    # slot 1..6 -> Z = e_i, slot 7..8 -> Z = h_{slot-6}; the frame index
    # of Z coincides with the slot in both cases
    data: Dict[Indices, Coefficient] = {}
    for a in range(1, 10):
        c = _coefficient_of_bracket(a, symbol_index)
        if not c.is_zero():
            data[(a,)] = c
    return InvariantForm.make(1, data)


def _d_coefficient(c: Coefficient) -> InvariantForm:
    out = InvariantForm.zero(1)
    for slot, q in enumerate(c.coords):
        if slot == 0 or q == 0:
            continue
        out = out + _d_symbol(slot) * q
    return out


@lru_cache(maxsize=None)
def _d_monomial(indices: Indices) -> InvariantForm:
    """d of a constant basis monomial via Maurer-Cartan and Leibniz."""
    p = len(indices)
    if p == 0:
        return InvariantForm.zero(1)
    if p == 1:
        k = indices[0]
        data: Dict[Indices, Coefficient] = {}
        for (a, b), coeffs in LIE_BASIS.brackets.items():
            q = coeffs[k - 1]
            if q:
                idx, sign = _normalize_indices((a, b))
                data[idx] = data.get(idx, _ZERO_COEFF) + Coefficient.constant(
                    -q * sign
                )
        return InvariantForm.make(2, data)
    head, tail = indices[:1], indices[1:]
    # d(e^h ^ rest) = d(e^h) ^ rest - e^h ^ d(rest)
    return wedge(_d_monomial(head), e(*tail)) - wedge(
        e(*head), _d_monomial(tail)
    )


def d(a: InvariantForm) -> InvariantForm:
    """Exterior differential (Maurer-Cartan on the coframe, the
    Ad-equivariance rule on coefficients)."""
    out = InvariantForm.zero(a.degree + 1)
    for idx, c in a.terms:
        out = out + wedge(_d_coefficient(c), e(*idx))
        if not c.is_constant() or c.constant_part() != 0:
            out = out + _d_monomial(idx) * c
    return out


# --------------------------------------------------------------------------
# Metric operations (horizontal algebra only)

_HORIZONTAL = (1, 2, 3, 4, 5, 6)


def _require_horizontal(a: InvariantForm, op: str) -> None:
    if not a.is_horizontal():
        raise VerticalComponent(f"{op} is defined on horizontal forms only")


def hodge_star(a: InvariantForm) -> InvariantForm:
    """Hodge star for the orthonormal e-coframe, volume form -e_123456."""
    _require_horizontal(a, "hodge_star")
    if a.degree > 6:
        raise ValueError("horizontal degree exceeds 6")
    data: Dict[Indices, Coefficient] = {}
    for idx, c in a.terms:
        comp = tuple(i for i in _HORIZONTAL if i not in idx)
        _, sign = _normalize_indices(idx + comp)
        data[comp] = data.get(comp, _ZERO_COEFF) + c.scale(-sign)
    return InvariantForm.make(6 - a.degree, data)


def codifferential(a: InvariantForm) -> InvariantForm:
    """delta = -*d* on every degree (dimension 6 is even); zero on
    functions.  Defined for basic forms: the star of a basic form is
    basic, so the inner d never produces vertical terms."""
    if a.degree == 0:
        return InvariantForm.zero(0)
    return -hodge_star(d(hodge_star(a)))


def laplacian(a: InvariantForm) -> InvariantForm:
    """Hodge-de Rham Laplacian d delta + delta d."""
    if a.degree == 0:
        return codifferential(d(a))
    return d(codifferential(a)) + codifferential(d(a))


def inner(a: InvariantForm, b: InvariantForm) -> Coefficient:
    """Pointwise inner product of two horizontal forms of equal degree."""
    _require_horizontal(a, "inner")
    _require_horizontal(b, "inner")
    if a.degree != b.degree:
        raise ValueError("degree mismatch in inner product")
    bd = b.as_dict()
    total = _ZERO_COEFF
    for idx, c in a.terms:
        if idx in bd:
            total = total + c * bd[idx]
    return total


# --------------------------------------------------------------------------
# Almost complex structure and SU3-type decomposition

# J e^1 = e^2, J e^2 = -e^1, J e^3 = -e^4, J e^4 = e^3,
# J e^5 = e^6, J e^6 = -e^5
_J_IMAGES = {1: (2, 1), 2: (1, -1), 3: (4, -1), 4: (3, 1), 5: (6, 1), 6: (5, -1)}


def apply_j(a: InvariantForm) -> InvariantForm:
    """Apply J to every coframe factor (on 1-forms this is the metric
    transport of J; on p-forms the induced action beta(J., .., J.))."""
    _require_horizontal(a, "apply_j")
    data: Dict[Indices, Coefficient] = {}
    for idx, c in a.terms:
        sign = 1
        images = []
        for i in idx:
            im, s = _J_IMAGES[i]
            images.append(im)
            sign *= s
        norm, extra = _normalize_indices(tuple(images))
        assert norm is not None
        data[norm] = data.get(norm, _ZERO_COEFF) + c.scale(sign * extra)
    return InvariantForm.make(a.degree, data)


def contract_frame(a: InvariantForm, frame_index: int) -> InvariantForm:
    """Interior product with the frame vector u_k (algebraic pairing
    u_k -| theta^k = 1)."""
    data: Dict[Indices, Coefficient] = {}
    for idx, c in a.terms:
        if frame_index not in idx:
            continue
        pos = idx.index(frame_index)
        rest = idx[:pos] + idx[pos + 1:]
        data[rest] = data.get(rest, _ZERO_COEFF) + c.scale((-1) ** pos)
    return InvariantForm.make(a.degree - 1, data)


def contract_vector(v: InvariantForm, a: InvariantForm) -> InvariantForm:
    """Interior product a(V, ...) where V is the metric dual of the
    horizontal 1-form v (on the unit e-coframe sharp is index-wise)."""
    if v.degree != 1:
        raise ValueError("contraction direction must be a 1-form")
    _require_horizontal(v, "contract_vector")
    out = InvariantForm.zero(a.degree - 1)
    for (i,), c in v.terms:
        out = out + contract_frame(a, i) * c
    return out


def alpha(beta: InvariantForm) -> InvariantForm:
    """Metric adjoint of X -> X -| Psi^+: a 2-form to 1-form map with
    alpha(X -| Psi^+) = 2 X."""
    if beta.degree != 2:
        raise ValueError("alpha takes 2-forms")
    _require_horizontal(beta, "alpha")
    data: Dict[Indices, Coefficient] = {}
    for i in _HORIZONTAL:
        c = inner(beta, contract_frame(PSI_PLUS, i))
        if not c.is_zero():
            data[(i,)] = c
    return InvariantForm.make(1, data)


def type_decompose(
    a: InvariantForm,
) -> Tuple[InvariantForm, InvariantForm, InvariantForm]:
    """Orthogonal splitting of a horizontal 2-form into primitive (1,1),
    (2,0)+(0,2) and trace parts.  The (2,0)+(0,2) part is also computed
    as (alpha(a)/2) -| Psi^+ and the two expressions are asserted equal."""
    if a.degree != 2:
        raise ValueError("type decomposition takes 2-forms")
    _require_horizontal(a, "type_decompose")
    ja = apply_j(a)
    invariant = (a + ja) * Fraction(1, 2)
    anti = (a - ja) * Fraction(1, 2)
    trace = OMEGA * (inner(a, OMEGA) * Fraction(1, 3))
    primitive = invariant - trace
    via_alpha = contract_vector(alpha(a) * Fraction(1, 2), PSI_PLUS)
    assert (anti - via_alpha).is_zero(), "(2,0)+(0,2) projector mismatch"
    return primitive, anti, trace


# --------------------------------------------------------------------------
# Vertical invariance and basic forms

def vertical_lie_derivative(a: InvariantForm, j: int) -> InvariantForm:
    """Lie derivative along the left-invariant vertical vector h_j
    (j = 1, 2, 3), acting on coefficients by c_Z -> c_{[h_j, Z]} and on
    the coframe by L theta^k = -theta^k([h_j, .])."""
    if j not in (1, 2, 3):
        raise ValueError("vertical index must be 1, 2 or 3")
    h = 6 + j
    out = InvariantForm.zero(a.degree)
    for idx, c in a.terms:
        # coefficient action
        derived = _ZERO_COEFF
        for slot, q in enumerate(c.coords):
            if slot == 0 or q == 0:
                continue
            derived = derived + _coefficient_of_bracket(h, slot).scale(q)
        if not derived.is_zero():
            out = out + InvariantForm.make(a.degree, {idx: derived})
        # coframe action, one factor at a time
        for pos, k in enumerate(idx):
            for target in range(1, 10):
                q = LIE_BASIS.bracket(h, target)[k - 1]
                if not q:
                    continue
                replaced = idx[:pos] + (target,) + idx[pos + 1:]
                norm, sign = _normalize_indices(replaced)
                if norm is None:
                    continue
                out = out + InvariantForm.make(
                    a.degree, {norm: c.scale(-q * sign)}
                )
    return out


def basic_check(a: InvariantForm) -> bool:
    """True iff the form descends to the quotient: purely horizontal and
    annihilated by all three vertical Lie derivatives."""
    if not a.is_horizontal():
        return False
    return all(vertical_lie_derivative(a, j).is_zero() for j in (1, 2, 3))


# --------------------------------------------------------------------------
# Model constants

OMEGA = e(1, 2) - e(3, 4) + e(5, 6)
PSI_PLUS = e(1, 3, 6) + e(2, 4, 6) + e(2, 3, 5) - e(1, 4, 5)
PSI_MINUS = e(2, 3, 6) - e(1, 4, 6) - e(1, 3, 5) - e(2, 4, 5)
VOLUME = -e(1, 2, 3, 4, 5, 6)

H1 = coframe(7) * Fraction(1, 2)
H2 = coframe(8) * Fraction(1, 2)
H3 = coframe(9) * Fraction(1, 2)


@dataclass(frozen=True)
class ModelConstants:
    omega: InvariantForm
    psi_plus: InvariantForm
    psi_minus: InvariantForm
    volume: InvariantForm
    j_images: Mapping[int, Tuple[int, int]]


MODEL = ModelConstants(
    omega=OMEGA,
    psi_plus=PSI_PLUS,
    psi_minus=PSI_MINUS,
    volume=VOLUME,
    j_images=dict(_J_IMAGES),
)

# structural sanity, cheap enough to run at import
assert wedge(OMEGA, PSI_PLUS).is_zero()
assert (wedge_all(OMEGA, OMEGA, OMEGA) - VOLUME * 6).is_zero()
assert (wedge(PSI_PLUS, PSI_MINUS) - VOLUME * 4).is_zero()


# --------------------------------------------------------------------------
# Killing-field data

@dataclass(frozen=True)
class KillingData:
    """Symbolic forms attached to a Killing field of the flag manifold:
    the dual 1-form, its rotation, the auxiliary a_i / Ja_i fields, the
    v-template 2-form phi_v and the primitive (1,1) part phi_k of d(xi)."""

    xi_flat: InvariantForm
    j_xi_flat: InvariantForm
    a: Tuple[InvariantForm, InvariantForm, InvariantForm]
    ja: Tuple[InvariantForm, InvariantForm, InvariantForm]
    phi_v: InvariantForm
    phi_k: InvariantForm


def _validate_su3(xi: Matrix) -> None:
    if not mat_is_zero(mat_add(xi, mat_dagger(xi))):
        raise ValueError("xi must be skew-Hermitian")
    if not mat_trace(xi).is_zero():
        raise ValueError("xi must be traceless")


def killing_data(xi: Optional[Matrix] = None) -> KillingData:
    """The symbolic Killing-field forms; identities proved over the
    symbols hold for every xi in su_3 simultaneously.  A concrete xi, if
    given, is only validated; killing_values evaluates the symbols at it."""
    if xi is not None:
        _validate_su3(xi)
    x = [Coefficient.symbol(f"x{i}") for i in range(1, 7)]
    v1 = Coefficient.symbol("v1")
    v2 = Coefficient.symbol("v2")
    v3 = Coefficient.symbol("v3")

    xi_flat = InvariantForm.make(1, {(i + 1,): x[i] for i in range(6)})
    a1 = coframe(5) * x[5] - coframe(6) * x[4]
    a2 = coframe(4) * x[2] - coframe(3) * x[3]
    a3 = coframe(1) * x[1] - coframe(2) * x[0]
    ja1 = coframe(5) * x[4] + coframe(6) * x[5]
    ja2 = coframe(3) * x[2] + coframe(4) * x[3]
    ja3 = coframe(1) * x[0] + coframe(2) * x[1]
    phi_v = e(5, 6) * v1 - e(3, 4) * v2 + e(1, 2) * v3
    phi_k = type_decompose(d(xi_flat))[0]
    return KillingData(
        xi_flat=xi_flat,
        j_xi_flat=apply_j(xi_flat),
        a=(a1, a2, a3),
        ja=(ja1, ja2, ja3),
        phi_v=phi_v,
        phi_k=phi_k,
    )


def killing_values(xi: Matrix, g: Matrix) -> Dict[str, Fraction]:
    """Numeric values of the coefficient functions at the group element
    g: x_i = <Ad(g^-1) xi, e_i>, v_j likewise with h_j.  g must be a
    Gaussian-rational unitary so the evaluation stays exact."""
    _validate_su3(xi)
    if not mat_is_zero(mat_sub(mat_mul(g, mat_dagger(g)), MAT_IDENTITY)):
        raise ValueError("g must be unitary")
    ad = mat_mul(mat_mul(mat_dagger(g), xi), g)
    vals: Dict[str, Fraction] = {}
    for name, mat in zip(
        ("x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2", "v3"),
        LIE_BASIS.matrices,
    ):
        vals[name] = mat_inner(ad, mat)
    assert vals["v1"] + vals["v2"] + vals["v3"] == 0
    return vals


# --------------------------------------------------------------------------
# Printer

def _format_scalar(q: Fraction) -> str:
    return str(q)


def _v_display(c: Coefficient) -> Tuple[Fraction, Fraction, Fraction]:
    """Choose the (v1, v2, v3) representative of the v-part, scoring by
    fewest nonzeros, then smallest absolute-value sum, then the tuple."""
    g1, g2 = c.coords[7], c.coords[8]
    candidates = {(g1 + t, g2 + t, t) for t in (Fraction(0), -g1, -g2)}

    def score(tup):
        nz = sum(1 for q in tup if q != 0)
        return (nz, sum(abs(q) for q in tup), tup)

    return min(candidates, key=score)


def format_coefficient(c: Coefficient) -> str:
    parts: List[Tuple[Fraction, str]] = []
    if c.coords[0]:
        parts.append((c.coords[0], ""))
    for i in range(1, 7):
        if c.coords[i]:
            parts.append((c.coords[i], f"x_{i}"))
    for q, name in zip(_v_display(c), ("v_1", "v_2", "v_3")):
        if q:
            parts.append((q, name))
    if not parts:
        return "0"
    out = ""
    for pos, (q, sym) in enumerate(parts):
        mag = abs(q)
        if sym and mag == 1:
            body = sym
        elif not sym:
            body = _format_scalar(mag)
        elif mag.denominator == 1:
            body = f"{mag}{sym}"
        else:
            body = f"({mag}){sym}"
        if pos == 0:
            out = ("-" if q < 0 else "") + body
        else:
            out += (" - " if q < 0 else " + ") + body
    return out


def _format_atoms(idx: Indices) -> str:
    horizontal = [i for i in idx if i <= 6]
    vertical = [i - 6 for i in idx if i > 6]
    atoms = []
    if horizontal:
        atoms.append("e_" + "".join(str(i) for i in horizontal))
    atoms.extend(f"h_{j}" for j in vertical)
    return "^".join(atoms)


def format_form(a: InvariantForm) -> str:
    """Render a form in the documented grammar (see module docstring)."""
    if a.is_zero():
        return "0"
    rendered: List[Tuple[str, bool]] = []  # (body, negative)
    for idx, c in a.terms:
        vertical_count = sum(1 for i in idx if i > 6)
        scaled = c.scale(2 ** vertical_count)
        atoms = _format_atoms(idx)
        if not atoms:
            rendered.append((format_coefficient(scaled).lstrip("-"),
                             format_coefficient(scaled).startswith("-")))
            continue
        coeff_str = format_coefficient(scaled)
        negative = False
        if coeff_str == "1":
            body = atoms
        elif coeff_str == "-1":
            body, negative = atoms, True
        else:
            if coeff_str.startswith("-") and " " not in coeff_str:
                coeff_str, negative = coeff_str[1:], True
            if " " in coeff_str:
                body = f"({coeff_str}) {atoms}"
            else:
                body = f"{coeff_str} {atoms}"
        rendered.append((body, negative))
    out = ""
    for pos, (body, negative) in enumerate(rendered):
        if pos == 0:
            out = ("-" if negative else "") + body
        else:
            out += (" - " if negative else " + ") + body
    return out
