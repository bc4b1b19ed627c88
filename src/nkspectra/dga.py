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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class NonlinearCoefficient(ValueError):
    """Product of two non-constant coefficient functions: outside the
    verified linear fragment of the coefficient ring."""


class VerticalComponent(ValueError):
    """Operation defined only on the 6-dim horizontal algebra was handed
    a form with vertical (k^j) factors."""


# --------------------------------------------------------------------------
# Gaussian-rational 3x3 matrices (used to evaluate coefficient functions at
# group elements, and as the dense oracle for the sparse basis table below)

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
        return not (self.re or self.im)


Matrix = Tuple[Tuple[GQ, ...], ...]


def gq(re=0, im=0) -> GQ:
    return GQ(Fraction(re), Fraction(im))


def matrix(rows: Sequence[Sequence[GQ]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return matrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_scale(a: Matrix, s: GQ) -> Matrix:
    return matrix([[s * x for x in row] for row in a])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; zero factors are skipped, so a product of sparse
    matrices costs only the pairs of nonzero entries that meet."""
    rows = []
    for row in a:
        re = [Fraction(0)] * 3
        im = [Fraction(0)] * 3
        for x, brow in zip(row, b):
            if not (x.re or x.im):
                continue
            for c, y in enumerate(brow):
                if y.re or y.im:
                    re[c] += x.re * y.re - x.im * y.im
                    im[c] += x.re * y.im + x.im * y.re
        rows.append(tuple(map(GQ, re, im)))
    return tuple(rows)


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
    if t.im != 0:
        raise AssertionError("inner product of non-skew-Hermitian matrices")
    return -t.re / 2


# --------------------------------------------------------------------------
# The u_3 basis as sparse matrix units

# A sparse matrix maps (p, q) to the nonzero entry at row p, column q, as
# an (re, im) pair; the basis below has Gaussian-integer entries.
Sparse = Dict[Tuple[int, int], Tuple[int, int]]

BASIS_UNITS: Tuple[Sparse, ...] = (
    {(0, 1): (1, 0), (1, 0): (-1, 0)},  # e_1 = E_12 - E_21
    {(0, 1): (0, 1), (1, 0): (0, 1)},   # e_2 = i(E_12 + E_21)
    {(0, 2): (1, 0), (2, 0): (-1, 0)},  # e_3 = E_13 - E_31
    {(0, 2): (0, 1), (2, 0): (0, 1)},   # e_4 = i(E_13 + E_31)
    {(1, 2): (1, 0), (2, 1): (-1, 0)},  # e_5 = E_23 - E_32
    {(1, 2): (0, 1), (2, 1): (0, 1)},   # e_6 = i(E_23 + E_32)
    {(0, 0): (0, 1)},                   # h_1 = i E_11
    {(1, 1): (0, 1)},                   # h_2 = i E_22
    {(2, 2): (0, 1)},                   # h_3 = i E_33
)


def _add_entry(m: Dict, key: Tuple[int, int], re, im) -> None:
    xr, xi = m.get(key, (0, 0))
    m[key] = (xr + re, xi + im)


def _sparse_inner(m: Dict, u: Sparse) -> Fraction:
    """<M, U> = -tr(MU)/2, reading M only where it faces an entry of U."""
    re = im = 0
    for (q, p), (ur, ui) in u.items():
        mr, mi = m.get((p, q), (0, 0))
        re += mr * ur - mi * ui
        im += mr * ui + mi * ur
    if im != 0:
        raise AssertionError("inner product of non-skew-Hermitian matrices")
    return Fraction(-re, 2)


def _sparse_bracket(a: Sparse, b: Sparse) -> Sparse:
    """[A, B] from [E_pq, E_rs] = d_qr E_ps - d_sp E_rq."""
    out: Sparse = {}
    for (p, q), (ar, ai) in a.items():
        for (r, s), (br, bi) in b.items():
            zr, zi = ar * br - ai * bi, ar * bi + ai * br
            if q == r:
                _add_entry(out, (p, s), zr, zi)
            if s == p:
                _add_entry(out, (r, q), -zr, -zi)
    return {key: z for key, z in out.items() if z != (0, 0)}


@dataclass(frozen=True)
class LieBasis:
    """The nine u_3 basis elements with their structure constants.

    matrices are the dense forms of BASIS_UNITS; brackets[(a, b)] for
    1 <= a < b <= 9 holds the expansion of [u_a, u_b] in the basis; norms
    are the squared lengths <u_k, u_k>.
    """

    matrices: Tuple[Matrix, ...]
    brackets: Mapping[Tuple[int, int], Tuple[Fraction, ...]]
    norms: Tuple[Fraction, ...]

    def bracket(self, a: int, b: int) -> Tuple[Fraction, ...]:
        if a == b:
            return (Fraction(0),) * 9
        if a < b:
            return self.brackets[(a, b)]
        return tuple(-c for c in self.brackets[(b, a)])


def _build_lie_basis(units: Sequence[Sparse] = BASIS_UNITS) -> LieBasis:
    """Structure constants from the matrix-unit rule; the basis is
    orthogonal, so each coordinate is one pairing.  The norms and the
    recomposition of every commutator are checked on the sparse entries."""
    norms = tuple(_sparse_inner(u, u) for u in units)
    if norms != (Fraction(1),) * 6 + (Fraction(1, 2),) * 3:
        raise AssertionError(f"basis norms {[str(n) for n in norms]}")

    brackets = {}
    for a in range(1, 10):
        for b in range(a + 1, 10):
            comm = _sparse_bracket(units[a - 1], units[b - 1])
            coeffs = tuple(_sparse_inner(comm, u) / n for u, n in zip(units, norms))
            recomposed: Dict = {}
            for c, u in zip(coeffs, units):
                if c:
                    for key, (ur, ui) in u.items():
                        _add_entry(recomposed, key, c * ur, c * ui)
            if {k: z for k, z in recomposed.items() if z != (0, 0)} != comm:
                raise AssertionError(f"[u_{a}, u_{b}]: basis expansion failed")
            brackets[(a, b)] = coeffs

    mats = tuple(
        matrix([[gq(*u.get((r, c), (0, 0))) for c in range(3)] for r in range(3)])
        for u in units
    )
    return LieBasis(matrices=mats, brackets=brackets, norms=norms)


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
            return -(Coefficient.symbol("v1") + Coefficient.symbol("v2"))
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
        return Coefficient(tuple(q * a if a else a for a in self.coords))

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


def _normalize_indices(indices: Sequence[int]) -> Tuple[Optional[Indices], int]:
    """Ascending order of the indices with the sign of the sorting
    permutation; (None, 0) when an index repeats."""
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


def _collect(
    degree: int, terms: Iterable[Tuple[Sequence[int], Coefficient]]
) -> InvariantForm:
    """Sum image terms into one form.  Each term is a tuple of coframe
    indices in any order with its coefficient; the indices are sorted
    with the permutation sign, and a term with a repeated index is 0."""
    data: Dict[Indices, Coefficient] = {}
    for indices, c in terms:
        idx, sign = _normalize_indices(indices)
        if idx is None:
            continue
        if sign < 0:
            c = -c
        data[idx] = data[idx] + c if idx in data else c
    return InvariantForm.make(degree, data)


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
    return _collect(len(indices), [(indices, _ONE_COEFF)])


def scalar_form(c) -> InvariantForm:
    coeff = c if isinstance(c, Coefficient) else Coefficient.constant(c)
    return InvariantForm.make(0, {(): coeff})


def symbol_form(name: str) -> InvariantForm:
    """0-form wrapping one coefficient symbol (x1..x6, v1, v2, v3)."""
    return scalar_form(Coefficient.symbol(name))


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    if a.degree + b.degree > 9:
        raise ValueError("wedge degree exceeds coframe dimension")
    terms = (
        (ia + ib, ca * cb)
        for ia, ca in a.terms
        for ib, cb in b.terms
        if set(ia).isdisjoint(ib)  # before the coefficients multiply
    )
    return _collect(a.degree + b.degree, terms)


def wedge_all(*forms: InvariantForm) -> InvariantForm:
    return reduce(wedge, forms)


# --------------------------------------------------------------------------
# Exterior differential

@lru_cache(maxsize=None)
def _d_symbol(symbol_index: int) -> InvariantForm:
    """d of the coefficient symbol with the given coordinate slot 1..8."""
    # slot 1..6 -> Z = e_i, slot 7..8 -> Z = h_{slot-6}; the frame index
    # of Z coincides with the slot in both cases, and u_a . c_Z = c_{[u_a, Z]}
    return _collect(
        1,
        (
            ((a,), Coefficient.from_vector(LIE_BASIS.bracket(a, symbol_index)))
            for a in range(1, 10)
        ),
    )


@lru_cache(maxsize=None)
def _d_monomial(indices: Indices) -> InvariantForm:
    """d of a constant basis monomial: Maurer-Cartan d e^k = -sum over
    a < b of c^k_ab e^ab in place of each factor, with the Leibniz sign."""
    terms = (
        (indices[:pos] + ab + indices[pos + 1:], (-1) ** (pos + 1) * coeffs[k - 1])
        for pos, k in enumerate(indices)
        for ab, coeffs in LIE_BASIS.brackets.items()
        if coeffs[k - 1]
    )
    return _collect(len(indices) + 1, ((i, Coefficient.constant(q)) for i, q in terms))


def d(a: InvariantForm) -> InvariantForm:
    """Exterior differential (Maurer-Cartan on the coframe, the
    Ad-equivariance rule on coefficients)."""

    def images():
        # d(c e^I) = dc ^ e^I + c d(e^I)
        for idx, c in a.terms:
            for slot, q in enumerate(c.coords):
                if slot and q:
                    for j, ds in _d_symbol(slot).terms:
                        yield j + idx, ds.scale(q)
            for jdx, m in _d_monomial(idx).terms:
                yield jdx, c * m

    return _collect(a.degree + 1, images())


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

    def images():
        for idx, c in a.terms:
            comp = tuple(i for i in _HORIZONTAL if i not in idx)
            yield comp, c.scale(-_normalize_indices(idx + comp)[1])

    return _collect(6 - a.degree, images())


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
if not set(_J_IMAGES) == {im for im, _ in _J_IMAGES.values()} == set(_HORIZONTAL):
    raise AssertionError("J must permute the horizontal coframe e^1..e^6")


def apply_j(a: InvariantForm) -> InvariantForm:
    """Apply J to every coframe factor (on 1-forms this is the metric
    transport of J; on p-forms the induced action beta(J., .., J.))."""
    _require_horizontal(a, "apply_j")

    def images():
        for idx, c in a.terms:
            sign = 1
            for i in idx:
                sign *= _J_IMAGES[i][1]
            yield tuple(_J_IMAGES[i][0] for i in idx), c.scale(sign)

    return _collect(a.degree, images())


def contract_frame(a: InvariantForm, frame_index: int) -> InvariantForm:
    """Interior product with the frame vector u_k (algebraic pairing
    u_k -| theta^k = 1)."""
    if not 1 <= frame_index <= 9:
        raise ValueError("frame index out of range")
    if a.degree == 0:
        raise ValueError("a 0-form has no interior product")
    terms = (
        (idx[:pos] + idx[pos + 1:], c.scale((-1) ** pos))
        for idx, c in a.terms
        for pos, k in enumerate(idx)
        if k == frame_index
    )
    return _collect(a.degree - 1, terms)


def contract_vector(v: InvariantForm, a: InvariantForm) -> InvariantForm:
    """Interior product a(V, ...) where V is the metric dual of the
    horizontal 1-form v (on the unit e-coframe sharp is index-wise)."""
    if v.degree != 1:
        raise ValueError("contraction direction must be a 1-form")
    _require_horizontal(v, "contract_vector")
    if a.degree == 0:
        raise ValueError("a 0-form has no interior product")
    terms = (
        (idx, cv * c) for (i,), cv in v.terms for idx, c in contract_frame(a, i).terms
    )
    return _collect(a.degree - 1, terms)


def alpha(beta: InvariantForm) -> InvariantForm:
    """Metric adjoint of X -> X -| Psi^+: a 2-form to 1-form map with
    alpha(X -| Psi^+) = 2 X."""
    if beta.degree != 2:
        raise ValueError("alpha takes 2-forms")
    _require_horizontal(beta, "alpha")
    return InvariantForm.make(
        1, {(i,): inner(beta, PSI_PLUS_CONTRACTED[i - 1]) for i in _HORIZONTAL}
    )


def type_decompose(
    a: InvariantForm,
) -> Tuple[InvariantForm, InvariantForm, InvariantForm]:
    """Orthogonal splitting of a horizontal 2-form into primitive (1,1),
    (2,0)+(0,2) and trace parts.  The (2,0)+(0,2) part is also computed
    as (alpha(a)/2) -| Psi^+, and a mismatch raises AssertionError."""
    if a.degree != 2:
        raise ValueError("type decomposition takes 2-forms")
    _require_horizontal(a, "type_decompose")
    ja = apply_j(a)
    invariant = (a + ja) * Fraction(1, 2)
    anti = (a - ja) * Fraction(1, 2)
    trace = OMEGA * (inner(a, OMEGA) * Fraction(1, 3))
    primitive = invariant - trace
    via_alpha = contract_vector(alpha(a) * Fraction(1, 2), PSI_PLUS)
    if not (anti - via_alpha).is_zero():
        raise AssertionError("(2,0)+(0,2) projector mismatch")
    return primitive, anti, trace


# --------------------------------------------------------------------------
# Vertical invariance and basic forms

def vertical_lie_derivative(a: InvariantForm, j: int) -> InvariantForm:
    """Lie derivative along the left-invariant vertical vector h_j
    (j = 1, 2, 3), by Cartan's formula L = (h_j -| d) + d (h_j -|); the
    second term is absent on a 0-form.  On coefficients this is
    c_Z -> c_{[h_j, Z]}, on the coframe L theta^k = -theta^k([h_j, .])."""
    if j not in (1, 2, 3):
        raise ValueError("vertical index must be 1, 2 or 3")
    out = contract_frame(d(a), 6 + j)
    return out if a.degree == 0 else out + d(contract_frame(a, 6 + j))


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
# the six 2-forms e_i -| Psi^+, i = 1..6
PSI_PLUS_CONTRACTED = tuple(contract_frame(PSI_PLUS, i) for i in _HORIZONTAL)
VOLUME = -e(1, 2, 3, 4, 5, 6)

H1 = coframe(7) * Fraction(1, 2)
H2 = coframe(8) * Fraction(1, 2)
H3 = coframe(9) * Fraction(1, 2)


# structural sanity, cheap enough to run at import
for _name, _residual in (
    ("omega ^ psi+ = 0", wedge(OMEGA, PSI_PLUS)),
    ("omega^3 = 6 vol", wedge_all(OMEGA, OMEGA, OMEGA) - VOLUME * 6),
    ("psi+ ^ psi- = 4 vol", wedge(PSI_PLUS, PSI_MINUS) - VOLUME * 4),
):
    if not _residual.is_zero():
        raise AssertionError(f"model identity {_name} fails")


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
    given, is only validated; killing_values evaluates the symbols at it.
    The forms are built once per process and the same frozen object is
    returned on every call."""
    if xi is not None:
        _validate_su3(xi)
    return _symbolic_killing_data()


@lru_cache(maxsize=None)
def _symbolic_killing_data() -> KillingData:
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
    g_dagger = mat_dagger(g)
    if not mat_is_zero(mat_sub(mat_mul(g, g_dagger), MAT_IDENTITY)):
        raise ValueError("g must be unitary")
    ad = mat_mul(mat_mul(g_dagger, xi), g)
    entries = {
        (p, q): (z.re, z.im) for p, row in enumerate(ad) for q, z in enumerate(row)
    }
    vals = {
        name: _sparse_inner(entries, u)
        for name, u in zip(
            ("x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2", "v3"), BASIS_UNITS
        )
    }
    if vals["v1"] + vals["v2"] + vals["v3"] != 0:
        raise AssertionError("v_1 + v_2 + v_3 must vanish on su_3")
    return vals


# --------------------------------------------------------------------------
# Printer

def _v_display(c: Coefficient) -> Tuple[Fraction, Fraction, Fraction]:
    """Choose the (v1, v2, v3) representative of the v-part, scoring by
    fewest nonzeros, then smallest absolute-value sum, then the tuple."""
    g1, g2 = c.coords[7], c.coords[8]
    candidates = {(g1 + t, g2 + t, t) for t in (Fraction(0), -g1, -g2)}

    def score(tup):
        nz = sum(1 for q in tup if q != 0)
        return (nz, sum(abs(q) for q in tup), tup)

    return min(candidates, key=score)


def _join_signed(parts: Sequence[Tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as "a - b + c"; "0" when empty."""
    out = ""
    for negative, body in parts:
        if out:
            out += (" - " if negative else " + ") + body
        else:
            out = ("-" if negative else "") + body
    return out or "0"


def _coefficient_parts(c: Coefficient) -> List[Tuple[bool, str]]:
    """(negative, magnitude) per nonzero entry: the constant, x_1..x_6,
    then the displayed v-part."""
    entries = [(c.coords[0], "")]
    entries += [(q, f"x_{i}") for i, q in enumerate(c.coords[1:7], 1)]
    entries += zip(_v_display(c), ("v_1", "v_2", "v_3"))
    parts = []
    for q, sym in entries:
        if not q:
            continue
        mag = abs(q)
        if not sym:
            body = str(mag)
        elif mag == 1:
            body = sym
        elif mag.denominator == 1:
            body = f"{mag}{sym}"
        else:
            body = f"({mag}){sym}"
        parts.append((q < 0, body))
    return parts


def format_coefficient(c: Coefficient) -> str:
    return _join_signed(_coefficient_parts(c))


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
    if a.degree == 0:
        return format_coefficient(a.coefficient())
    rendered = []
    for idx, c in a.terms:
        parts = _coefficient_parts(c.scale(2 ** sum(i > 6 for i in idx)))
        atoms = _format_atoms(idx)
        if len(parts) > 1:
            rendered.append((False, f"({_join_signed(parts)}) {atoms}"))
        else:
            negative, body = parts[0]
            rendered.append((negative, atoms if body == "1" else f"{body} {atoms}"))
    return _join_signed(rendered)
