"""Exact invariant exterior calculus on U3 with Killing-field coefficients.

The engine works in the 9-dimensional coframe algebra of the unitary
group, over a small exact coefficient ring, and implements d, wedge,
Hodge star, codifferential, Laplacian and the SU3-structure type
decomposition in exact integer arithmetic over one denominator per
form; a zero residual is a theorem, not a tolerance.

Conventions
-----------
Lie algebra basis (the frame, indexed 1..9 as branching's _FRAME states):

    u_1..u_6 = e_1..e_6   with  e_1 = E_12 - E_21,  e_2 = i(E_12 + E_21),
                                e_3 = E_13 - E_31,  e_4 = i(E_13 + E_31),
                                e_5 = E_23 - E_32,  e_6 = i(E_23 + E_32),
    u_7, u_8, u_9 = h_1, h_2, h_3  with  h_j = i E_jj,

where E_pq is the matrix unit.  The metric is <A, B> = -tr(AB)/2, which on
the traceless part is minus one twelfth of the Killing form and makes
{e_i, sqrt(2) h_j} orthonormal (|e_i| = 1, |h_j|^2 = 1/2, named _H_NORM).
A frame is J and h's action on m (`branching`'s _J_IMAGES and _H_ACTION)
and Psi^- (_PSI_MINUS_TERMS): the structure constants [u_a, u_b],
_BRACKETS, are assembled from them at import and omega and psi^+ = J Psi^-
derived, and explicit raises check d(d) = 0 on the coframe and the symbols
(the Jacobi identity) and the nearly Kahler normal form d omega = 3 psi^+,
d psi^- = -2 omega^omega, psi^+ ^ psi^- = 4 vol.  The tests re-derive the
brackets from the matrices, which otherwise serve killing_values only.
They are sparse: {(p, q): (re, im)} holds the nonzero entries, rows and
columns 0..2, so E_pq is {(p - 1, q - 1): (1, 0)}.

Coframe indices 1..6 are the unit horizontal 1-forms e^1..e^6; indices 7,
8, 9 are the algebraic duals k^1, k^2, k^3 of h_1, h_2, h_3 (so k^j(h_i)
is the Kronecker delta).  The metric dual of the vector h_j is the 1-form
|h_j|^2 k^j; these are exposed as H1, H2, H3 and are the "h_j" appearing
in the structure equations.  hodge_star reads the orientation from
VOLUME = -e_123456, and inner, contract_vector and alpha are star formulas.

Coefficient functions: fix xi in su_3 and let X be the right-invariant
field it generates.  For W in u_3 the function c_W(g) = <Ad(g^{-1}) xi, W>
is linear in W, with c_{e_i} = x_i and c_{h_j} = v_j in the notation
used throughout; v_1 + v_2 + v_3 = 0 since xi is traceless, and v_3 is
eliminated on input.  A left-invariant frame vector u acts by
u . c_W = c_{[u, W]}, so

    d c_W = sum_i c_{[e_i, W]} e^i + sum_j c_{[h_j, W]} k^j

(the sqrt(2) normalizations of the vertical frame and coframe cancel).
The coefficient ring is the linear span of {1, x_1..x_6, v_1, v_2}, and a
coefficient is a 0-form.  Every form maps (monomial, slot) to a nonzero
int numerator over one denominator: e^I is the mask with bit k - 1 set for
k in I, one bit per index of _FRAME, every permutation sign comes from one
rule (_merge's prefix-parity table, exact at any width), and slot 0 is the
constant, 1..6 are x_1..x_6 and 7, 8 are v_1, v_2.  Every identity verified
here is linear in these symbols, and a product of two non-constant slots
raises NonlinearCoefficient instead of silently leaving the ring.

Printer grammar (stable, for golden tests)
------------------------------------------
    form  := "0" | term { " + " term | " - " term }
    term  := coeff atoms | coeff          (0-forms)
    atoms := atom { "^" atom }
    atom  := "e_" digits                  (ascending horizontal block)
           | "h_" digit                   (vertical factor)
    coeff := "" | "-" | scalar | "(" linear combination ")"

Terms are ordered by index tuple.  A vertical factor prints as h_j, the
metric-dual 1-form; the stored k^j coefficient is divided by |h_j|^2 per
vertical factor, since k^j = h_j / |h_j|^2.  Scalars print as integers or
"p/q"; composite coefficients print parenthesized with x_i before
v_j, and the v-part is displayed using whichever representative with
v_3 reintroduced (v_1 + t, v_2 + t, t) minimizes, in order, the number
of nonzero entries, the sum of absolute values, and the tuple itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from typing import Dict, Iterable, List, Mapping, NamedTuple, NoReturn, Sequence, Tuple

from .branching import _FRAME, _H_ACTION, _HORIZONTAL, _J_IMAGES, _VERTICAL


class NonlinearCoefficient(ValueError):
    """Product of two non-constant coefficient functions: outside the
    verified linear fragment of the coefficient ring."""


class VerticalComponent(ValueError):
    """Operation defined only on the 6-dim horizontal algebra was handed
    a form with vertical (k^j) factors."""


# --------------------------------------------------------------------------
# Gaussian-rational 3x3 matrices, stored sparse

# A sparse matrix maps (p, q), 0 <= p, q <= 2, to the nonzero entry at row
# p, column q as an (re, im) pair of integers or Fractions.
Sparse = Dict[Tuple[int, int], Tuple[Fraction, Fraction]]

IDENTITY: Sparse = {(0, 0): (1, 0), (1, 1): (1, 0), (2, 2): (1, 0)}


def sparse_mul(a: Sparse, b: Sparse) -> Sparse:
    """Matrix product, one term per pair of entries that meet, zeros dropped."""
    out: Sparse = {}
    for (p, q), (ar, ai) in a.items():
        for (r, s), (br, bi) in b.items():
            if q == r:
                zr, zi = out.get((p, s), (0, 0))
                out[p, s] = (zr + ar * br - ai * bi, zi + ar * bi + ai * br)
    return {key: z for key, z in out.items() if z != (0, 0)}


def sparse_dagger(a: Sparse) -> Sparse:
    """Conjugate transpose."""
    return {(q, p): (re, -im) for (p, q), (re, im) in a.items()}


def _sparse_inner(m: Sparse, u: Sparse) -> Fraction:
    """<M, U> = -tr(MU)/2, reading M only where it faces an entry of U."""
    re = im = 0
    for (q, p), (ur, ui) in u.items():
        mr, mi = m.get((p, q), (0, 0))
        re += mr * ur - mi * ui
        im += mr * ui + mi * ur
    if im != 0:
        raise AssertionError("inner product of non-skew-Hermitian matrices")
    return Fraction(-re, 2)


# --------------------------------------------------------------------------
# The u_3 basis and its structure constants

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

_H_NORM = Fraction(1, 2)  # |h_j|^2 = <h_j, h_j>, the vertical metric scale


# Psi^- = sum of sign e^abc over these (ascending index triple, sign) terms
_PSI_MINUS_TERMS = (((2, 3, 6), 1), ((1, 4, 6), -1), ((1, 3, 5), -1), ((2, 4, 5), -1))

# [u_a, u_b] = sum over c of _BRACKETS[a, b][c] u_c for a < b; pairs that
# commute are left out.  [e_a, h_j] is branching's _H_ACTION[a, 6 + j],
# [e_a, e_b]_m = Psi^-(e_a, e_b, .)^sharp, and the h_j part of [e_a, e_b]
# is <e_a, [e_b, h_j]> / |h_j|^2, an integer
_BRACKETS: Dict[Tuple[int, int], Dict[int, int]] = dict(_H_ACTION)
for (_a, _b, _c), _s in _PSI_MINUS_TERMS:  # no pair of indices is in two terms
    _BRACKETS[_a, _b], _BRACKETS[_a, _c], _BRACKETS[_b, _c] = {_c: _s}, {_b: -_s}, {_a: _s}
for (_b, _k), _image in _H_ACTION.items():
    for _a, _q in _image.items():
        if _a < _b:
            _BRACKETS.setdefault((_a, _b), {})[_k] = int(_q / _H_NORM)


# --------------------------------------------------------------------------
# Invariant forms

# the number of frame indices (branching's _FRAME, horizontal then vertical)
# and the mask of the horizontal factors
_N, _HORIZONTAL_MASK = len(_FRAME), (1 << len(_HORIZONTAL)) - 1


# a coframe monomial e^I of an n-index frame is the n-bit mask with bit k - 1
# set for each k in I; indices[mask] is I as an ascending tuple, and bit
# j - 1 of above[mask] is the parity of the factors of I above j
def _mask_tables(n: int) -> Tuple[List[Tuple[int, ...]], List[int]]:
    indices, above = [()], [0]
    for k in range(1, n + 1):  # the masks with top bit k - 1 extend those below,
        indices += [idx + (k,) for idx in indices]
        above += [parity ^ ((1 << (k - 1)) - 1) for parity in above]  # and k flips the bits below
    return indices, above


_INDICES, _ABOVE = _mask_tables(_N)
# coefficient slots: 0 is the constant, 1..6 are x_1..x_6, 7 and 8 are v_1, v_2
_SYMBOLS = ("1", "x1", "x2", "x3", "x4", "x5", "x6", "v1", "v2")
# _collect sorts a term by _POSITION[mask] | slot: the rank of the mask's
# index tuple, shifted past the slot bits
_POSITION = {m: r << len(_SYMBOLS).bit_length()
             for r, m in enumerate(sorted(range(len(_INDICES)), key=_INDICES.__getitem__))}
# a stored term of a form: ((mask, slot), int numerator)
Term = Tuple[Tuple[int, int], int]


def _merge(a: int, b: int) -> int:
    """The sign in e^a ^ e^b = sign e^(a | b), read off a's prefix parity: 0 when
    the masks share a factor, else -1 to the pairs i in a, j in b with i > j."""
    if a & b:
        return 0
    return -1 if (b & _ABOVE[a]).bit_count() & 1 else 1


def _monomial(indices: Iterable[int]) -> Tuple[int, int]:
    """Mask of e_{i_1} ^ ... ^ e_{i_p} and the sign that sorts it, 0 when
    an index repeats; each index must be an int in 1..n."""
    mask, sign = 0, 1
    for i in indices:
        if type(i) is not int or not 1 <= i <= _N:
            raise ValueError(f"coframe indices must be ints in 1..{_N}")
        sign *= _merge(mask, 1 << (i - 1))
        mask |= 1 << (i - 1)
    return mask, sign


def _times(s: int, t: int) -> int:
    """Slot of the product of two slot symbols; only a constant may meet
    a non-constant symbol, so the ring stays linear."""
    if s and t:
        raise NonlinearCoefficient(
            f"product of non-constant coefficients {_SYMBOLS[s]} and {_SYMBOLS[t]}"
        )
    return s or t


def _collect(degree: int, terms: Iterable[Term], denominator: int = 1) -> InvariantForm:
    """Sum signed ((mask, slot), numerator) terms over one positive
    denominator into a form in (index tuple, slot) order, dropping zero
    sums and dividing out the gcd.  Masks and slots are valid by
    construction (made by _merge or by make); the degree is checked."""
    data: Dict[Tuple[int, int], int] = {}
    for key, q in terms:
        data[key] = data.get(key, 0) + q
    if any(mask.bit_count() != degree for mask, _ in data):
        raise AssertionError(f"a term of another degree in a {degree}-form")
    kept = [term for term in data.items() if term[1]]
    kept.sort(key=lambda term: _POSITION[term[0][0]] | term[0][1])
    if denominator > 1 and (g := gcd(denominator, *(q for _, q in kept))) > 1:
        denominator //= g
        kept = [(key, q // g) for key, q in kept]
    return tuple.__new__(InvariantForm, (degree, tuple(kept), denominator))


_FORM_FIELDS = [("degree", int), ("terms", Tuple[Term, ...]), ("denominator", int)]


class InvariantForm(NamedTuple("InvariantForm", _FORM_FIELDS)):
    """Homogeneous invariant form: ((mask, slot), numerator) pairs in the
    order of (index tuple, slot), with nonzero int numerators over one
    positive denominator that shares no factor with all of them; bit k - 1
    of a mask is the coframe factor k (_HORIZONTAL, then _VERTICAL).
    The constructor, _make and _replace check the fields and normalize the
    terms; the operators build through _collect, which skips the check."""

    __slots__ = ()

    def __new__(cls, degree: int, terms: Tuple[Term, ...], denominator: int = 1):
        if type(degree) is not int or not 0 <= degree <= _N:
            raise ValueError(f"a form's degree is an int in 0..{_N}, not {degree!r}")
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"a form's denominator is a positive int, not {denominator!r}")
        terms = tuple(terms)
        for (mask, slot), q in terms:
            if type(mask) is not int or not 0 <= mask < len(_INDICES) or mask.bit_count() != degree:
                raise ValueError(f"mask {mask!r} is not a {degree}-form monomial")
            if type(slot) is not int or not 0 <= slot < len(_SYMBOLS):
                raise ValueError(f"a coefficient slot is an int in 0..{len(_SYMBOLS) - 1}")
            if type(q) is not int:
                raise ValueError(f"numerator {q!r} is not an int")
        return _collect(degree, terms, denominator)

    # namedtuple's _make, which _replace calls, would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @staticmethod
    def make(degree: int, data: Mapping[Tuple[Tuple[int, ...], int], Fraction]) -> "InvariantForm":
        """The form whose data maps (ascending coframe indices, slot) to an
        int or a Fraction; zero values are dropped."""
        terms = []
        for key, q in data.items():
            if type(key) is not tuple or len(key) != 2 or type(key[0]) is not tuple:
                raise ValueError("a key is an (ascending index tuple, slot) pair")
            idx, slot = key
            if type(q) not in (int, Fraction):
                raise ValueError(f"coefficient {q!r} is not an int or a Fraction")
            mask = _monomial(idx)[0]
            if _INDICES[mask] != idx:
                raise ValueError("coframe indices must ascend")
            terms.append(((mask, slot), q))
        den = lcm(*(q.denominator for _, q in terms))
        terms = [(k, q.numerator * (den // q.denominator)) for k, q in terms]
        return InvariantForm(degree, terms, den)

    @staticmethod
    def zero(degree: int) -> "InvariantForm":
        return InvariantForm.make(degree, {})

    def slot_values(self, *indices: int) -> Tuple[Fraction, ...]:
        """The slot values of the coefficient at e_{indices}, read with
        the sign of their sorting permutation (0 when an index repeats); a
        p-form is read at p ints in 1..n."""
        if len(indices) != self.degree:
            raise ValueError(f"a {self.degree}-form is read at {self.degree} indices")
        mask, sign = _monomial(indices)
        stored = {slot: Fraction(sign * q, self.denominator) for (m, slot), q in self.terms if m == mask}
        return tuple(stored.get(slot, Fraction(0)) for slot in range(len(_SYMBOLS)))

    def constant_part(self, *indices: int) -> Fraction:
        """The constant slot of slot_values (no indices: a 0-form's value)."""
        return self.slot_values(*indices)[0]

    def is_zero(self) -> bool:
        return not self.terms

    def is_horizontal(self) -> bool:
        return all(mask <= _HORIZONTAL_MASK for (mask, _), _ in self.terms)

    def vertical_part(self) -> "InvariantForm":
        """The terms with a vertical factor: zero iff the form is horizontal."""
        return _collect(self.degree, (t for t in self.terms if t[0][0] > _HORIZONTAL_MASK), self.denominator)

    def __add__(self, o: "InvariantForm") -> "InvariantForm":
        if not isinstance(o, InvariantForm):
            return NotImplemented  # so Python raises its own TypeError
        if self.degree != o.degree:
            raise ValueError("degree mismatch in sum")
        den = lcm(self.denominator, o.denominator)
        if self.denominator == o.denominator:  # the common case, nothing to rescale
            return _collect(self.degree, self.terms + o.terms, den)
        terms = ((key, den // f.denominator * q) for f in (self, o) for key, q in f.terms)
        return _collect(self.degree, terms, den)

    def __radd__(self, o) -> NoReturn:
        # reached only when o is not a form; returning NotImplemented
        # would let tuple concatenation take over, as for (1, 2) + form
        name = type(o).__name__
        raise TypeError(f"unsupported operand type(s) for +: '{name}' and 'InvariantForm'")

    def __sub__(self, o: "InvariantForm") -> "InvariantForm":
        # o is checked before it is negated, so Python's TypeError names -
        return self + (-o) if isinstance(o, InvariantForm) else NotImplemented

    def __neg__(self) -> "InvariantForm":
        terms = tuple((k, -q) for k, q in self.terms)
        return tuple.__new__(InvariantForm, (self.degree, terms, self.denominator))

    def __mul__(self, s) -> "InvariantForm":
        """Product with a rational, which scales the numerators and the
        denominator, or with a 0-form, which is the wedge with it."""
        if isinstance(s, InvariantForm):
            if s.degree:
                raise TypeError("a form is scaled by a rational or a 0-form only")
            return wedge(self, s)
        if type(s) not in (int, Fraction):
            raise ValueError(f"coefficient {s!r} is not an int or a Fraction")
        p = s.numerator
        terms = ((key, q * p) for key, q in self.terms)
        return _collect(self.degree, terms, self.denominator * s.denominator)

    __rmul__ = __mul__

    def __str__(self):
        return format_form(self)


def e(*indices: int) -> InvariantForm:
    """Monomial e_{i_1 ... i_p}; indices need not be sorted."""
    mask, sign = _monomial(indices)
    return _collect(len(indices), [((mask, 0), sign)] if sign else [])


def scalar_form(q) -> InvariantForm:
    """The constant 0-form q."""
    return InvariantForm.make(0, {((), 0): q})


def symbol_form(name: str) -> InvariantForm:
    """0-form of one coefficient symbol (x1..x6, v1, v2, v3 = -v1 - v2)."""
    if name == "v3":
        return InvariantForm.make(0, {((), 7): -1, ((), 8): -1})
    if name not in _SYMBOLS[1:]:
        raise ValueError(f"coefficient symbols are x1..x6, v1, v2 and v3, not {name!r}")
    return InvariantForm.make(0, {((), _SYMBOLS.index(name)): 1})


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    if not (isinstance(a, InvariantForm) and isinstance(b, InvariantForm)):
        other = b if isinstance(a, InvariantForm) else a
        raise TypeError(f"a wedge factor is an InvariantForm, not {type(other).__name__}")
    if a.degree + b.degree > _N:
        raise ValueError("wedge degree exceeds coframe dimension")
    terms = (
        ((ma | mb, _times(sa, sb)), _merge(ma, mb) * qa * qb)
        for (ma, sa), qa in a.terms
        for (mb, sb), qb in b.terms
        if not ma & mb  # before the slots multiply
    )
    return _collect(a.degree + b.degree, terms, a.denominator * b.denominator)


def wedge_all(*forms: InvariantForm) -> InvariantForm:
    if not forms:
        raise ValueError("wedge_all needs at least one form")
    # from the constant 1, so that wedge sees a lone form too
    return reduce(wedge, forms, e())


# --------------------------------------------------------------------------
# Exterior differential

# d e^k = -sum over a < b of c^k_ab e^ab, as (mask of e^ab, -c^k_ab) pairs,
# and dc = sum over a of c_{[u_a, Z]} e^a for the symbol c = c_Z in a slot,
# as (bit of e^a, slot, int) terms: Z is the frame vector whose index is the
# slot, and the last vertical coordinate folds into the other v slots
# through v_3 = -v_1 - v_2.  Both are read once from the brackets, keyed by
# the coframe index or the slot they reach
_D_COFRAME: Dict[int, List[Tuple[int, int]]] = {k: [] for k in _FRAME}
_D_SYMBOL: Dict[int, List[Tuple[int, int, int]]] = {s: [] for s in range(len(_SYMBOLS))}
for (_a, _b), _bracket in _BRACKETS.items():
    for _k, _c in _bracket.items():
        _D_COFRAME[_k].append(((1 << (_a - 1)) | (1 << (_b - 1)), -_c))
        for _s, _t in [(s, -1) for s in _VERTICAL[:-1]] if _k == _VERTICAL[-1] else [(_k, 1)]:
            _D_SYMBOL[_a].append((1 << (_b - 1), _s, -_t * _c))
            if _b in _D_SYMBOL:
                _D_SYMBOL[_b].append((1 << (_a - 1), _s, _t * _c))


@lru_cache(maxsize=None)
def _d_image(mask: int, slot: int) -> Tuple[Term, ...]:
    """Column (mask, slot) of d's integer matrix: the ((mask, slot), int)
    terms of d(c e^I) = dc ^ e^I + c d(e^I), for c the symbol in the slot
    and e^I the monomial of the mask, where d e^I is the sum over k in I
    of d e^k ^ (u_k -| e^I)."""
    column: Dict[Tuple[int, int], int] = {}
    terms = [
        ((a | mask, s), sign * q) for a, s, q in _D_SYMBOL[slot] if (sign := _merge(a, mask))
    ]
    for k in _INDICES[mask]:
        rest = mask ^ (1 << (k - 1))
        lead = _merge(1 << (k - 1), rest)  # u_k -| e^I = lead e^rest
        terms += [
            ((ab | rest, slot), lead * sign * c)
            for ab, c in _D_COFRAME[k] if (sign := _merge(ab, rest))
        ]
    for key, c in terms:
        column[key] = column.get(key, 0) + c
    return tuple(term for term in column.items() if term[1])


def d(a: InvariantForm) -> InvariantForm:
    """Exterior differential (Maurer-Cartan on the coframe, the
    Ad-equivariance rule on coefficients), one cached integer column per
    (mask, slot) term."""
    _require_form(a, "d")
    terms = ((key, q * c) for (mask, slot), q in a.terms for key, c in _d_image(mask, slot))
    return _collect(a.degree + 1, terms, a.denominator)


# --------------------------------------------------------------------------
# Metric operations (horizontal algebra only)

# the volume form of the unit e-coframe, the one statement of the orientation
VOLUME = -e(*_HORIZONTAL)


def _require_form(a: InvariantForm, op: str) -> None:
    if not isinstance(a, InvariantForm):
        raise TypeError(f"{op} takes an InvariantForm, not {type(a).__name__}")


def _require_horizontal(a: InvariantForm, op: str, kind: str = "horizontal") -> None:
    _require_form(a, op)
    if not a.is_horizontal():
        raise VerticalComponent(f"{op} is defined on {kind} forms only")


def hodge_star(a: InvariantForm) -> InvariantForm:
    """Hodge star of the unit e-coframe: *e^I = s e^C, C the complement of
    I, with e^I ^ *e^I = VOLUME for every monomial e^I."""
    _require_horizontal(a, "hodge_star")
    if a.degree > len(_HORIZONTAL):
        raise ValueError(f"horizontal degree exceeds {len(_HORIZONTAL)}")
    ((full, _), orientation), = VOLUME.terms  # VOLUME = orientation e^123456
    terms = (((full ^ m, s), orientation * _merge(m, full ^ m) * q) for (m, s), q in a.terms)
    return _collect(len(_HORIZONTAL) - a.degree, terms, a.denominator)


def codifferential(a: InvariantForm) -> InvariantForm:
    """delta = -*d* (dimension 6 is even), zero on functions; for basic forms,
    whose star is basic, so a vertical term of the inner d refuses a form."""
    _require_horizontal(a, "codifferential", "basic")
    inner_d = d(hodge_star(a))
    _require_horizontal(inner_d, "codifferential", "basic")
    return -hodge_star(inner_d) if a.degree else InvariantForm.zero(0)


def laplacian(a: InvariantForm) -> InvariantForm:
    """Hodge-de Rham Laplacian d delta + delta d on basic forms of degree 0..6."""
    _require_horizontal(a, "laplacian", "basic")
    da = d(a)
    _require_horizontal(da, "laplacian", "basic")
    # d delta vanishes on functions, and delta d on top forms
    d_delta = d(codifferential(a)) if a.degree else InvariantForm.zero(0)
    delta_d = codifferential(da) if a.degree < len(_HORIZONTAL) else InvariantForm.zero(a.degree)
    return d_delta + delta_d


def inner(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Pointwise inner product *(a ^ *b) of horizontal p-forms, a 0-form."""
    _require_horizontal(a, "inner")
    _require_horizontal(b, "inner")
    if a.degree != b.degree:
        raise ValueError("degree mismatch in inner product")
    return hodge_star(wedge(a, hodge_star(b)))


# --------------------------------------------------------------------------
# Almost complex structure and SU3-type decomposition

def apply_j(a: InvariantForm) -> InvariantForm:
    """Apply J to every coframe factor (on 1-forms this is the metric
    transport of J; on p-forms the induced action beta(J., .., J.))."""
    _require_horizontal(a, "apply_j")

    def images():
        for (mask, slot), q in a.terms:
            image, sign = _monomial(_J_IMAGES[i][0] for i in _INDICES[mask])
            yield (image, slot), sign * prod(_J_IMAGES[i][1] for i in _INDICES[mask]) * q

    return _collect(a.degree, images(), a.denominator)


def contract_frame(a: InvariantForm, frame_index: int) -> InvariantForm:
    """Interior product with the frame vector u_k (algebraic pairing
    u_k -| theta^k = 1)."""
    _require_form(a, "contract_frame")
    if type(frame_index) is not int or not 1 <= frame_index <= _N:
        raise ValueError(f"frame index must be an int in 1..{_N}")
    if a.degree == 0:
        raise ValueError("a 0-form has no interior product")
    bit = 1 << (frame_index - 1)
    terms = (((m ^ bit, s), _merge(bit, m ^ bit) * q) for (m, s), q in a.terms if m & bit)
    return _collect(a.degree - 1, terms, a.denominator)


def contract_vector(v: InvariantForm, a: InvariantForm) -> InvariantForm:
    """Interior product a(V, ...) = *(v ^ *a), V the metric dual of v."""
    _require_horizontal(v, "contract_vector")
    _require_horizontal(a, "contract_vector")
    if v.degree != 1:
        raise ValueError("contraction direction must be a 1-form")
    if a.degree == 0:
        raise ValueError("a 0-form has no interior product")
    return hodge_star(wedge(v, hodge_star(a)))


def alpha(beta: InvariantForm) -> InvariantForm:
    """Metric adjoint of X -> X -| Psi^+: a 2-form to 1-form map with
    alpha(X -| Psi^+) = 2 X."""
    _require_horizontal(beta, "alpha")
    if beta.degree != 2:
        raise ValueError("alpha takes 2-forms")
    # alpha(beta) = sum of <beta, e_i -| Psi^+> e^i, where e_i -| Psi^+ =
    # *(e^i ^ *Psi^+) and *Psi^+ = Psi^- because psi^+ ^ psi^- = 4 vol =
    # |psi^+|^2 vol (an explicit raise at import); the sum is -*(beta ^ Psi^-)
    return -hodge_star(wedge(beta, PSI_MINUS))


def type_decompose(a: InvariantForm) -> Tuple[InvariantForm, InvariantForm, InvariantForm]:
    """Orthogonal splitting of a horizontal 2-form into primitive (1,1),
    (2,0)+(0,2) and trace parts.  The (2,0)+(0,2) part is also computed
    as (alpha(a)/2) -| Psi^+, and a mismatch raises AssertionError."""
    _require_horizontal(a, "type_decompose")
    if a.degree != 2:
        raise ValueError("type decomposition takes 2-forms")
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
    _require_form(a, "vertical_lie_derivative")
    if type(j) is not int or not 1 <= j <= len(_VERTICAL):
        *head, last = map(str, range(1, len(_VERTICAL) + 1))
        raise ValueError(f"vertical index must be {', '.join(head)} or {last}")
    out = contract_frame(d(a), _VERTICAL[j - 1])
    return out if a.degree == 0 else out + d(contract_frame(a, _VERTICAL[j - 1]))


def basic_check(a: InvariantForm) -> bool:
    """True iff the form descends to the quotient: it and its d are horizontal."""
    # a horizontal a descends iff each L_{h_j} a = h_j -| da vanishes, and
    # every vertical term of da has exactly one vertical factor
    _require_form(a, "basic_check")
    return a.is_horizontal() and d(a).is_horizontal()


# --------------------------------------------------------------------------
# Linear algebra on forms

def kernel(sources: Sequence[InvariantForm], images: Sequence[InvariantForm]) -> Tuple[InvariantForm, ...]:
    """A basis of the combinations sum u_j sources_j of independent sources
    whose sum u_j images_j is zero, scaled to coprime integer numerators,
    the last positive.  Row j is image j's numerators beside the tag u_j =
    its denominator, at keys past every monomial, so a row is sum u_j
    images_j beside u; it is reduced at its least key by cross-multiplying
    with the row kept there (Bareiss's fraction-free elimination) until no
    row is, and kept.  A row then led by a tag has image zero."""
    for form in (*sources, *images):
        _require_form(form, "kernel")
    if len(sources) != len(images):
        raise ValueError("kernel takes one image per source")
    kept, basis = {}, []  # least key -> row, in echelon form
    for j, image in enumerate(images):
        row = {**dict(image.terms), (len(_INDICES), j): image.denominator}
        while (lead := min(row)) in kept:
            p, q, pivot = kept[lead][lead], row[lead], kept[lead]
            row = {key: p * row.get(key, 0) - q * pivot.get(key, 0) for key in row.keys() | pivot.keys()}
            g = gcd(*row.values())
            row = {key: x // g for key, x in row.items() if x}
        kept[lead] = row
        if lead[0] == len(_INDICES):
            form = sum((sources[k] * u for (_, k), u in row.items()), InvariantForm.zero(sources[j].degree))
            g = gcd(*(q for _, q in form.terms)) * (1 if form.terms and form.terms[-1][1] > 0 else -1)
            basis.append(_collect(form.degree, ((key, q // g) for key, q in form.terms)))
    return tuple(basis)


# --------------------------------------------------------------------------
# Model constants

# omega is the sum of s e^ab over the J-pairs J e^a = s e^b with a < b,
# and psi^+ = J Psi^-
OMEGA = InvariantForm.make(2, {((a, b), 0): s for a, (b, s) in _J_IMAGES.items() if a < b})
PSI_MINUS = InvariantForm.make(3, {(idx, 0): s for idx, s in _PSI_MINUS_TERMS})
PSI_PLUS = apply_j(PSI_MINUS)
# the 2-forms e_i -| Psi^+, one per horizontal index i
PSI_PLUS_CONTRACTED = tuple(contract_frame(PSI_PLUS, i) for i in _HORIZONTAL)

# the metric duals |h_j|^2 k^j of the vertical frame vectors
H1, H2, H3 = (e(k) * _H_NORM for k in _VERTICAL)

# The frame's claims at import, as (message, residual) pairs, each residual
# checked by an explicit raise that python -O keeps: d(d) = 0 on the coframe
# and on the symbols is the Jacobi identity of the bracket table and of its
# action on the coefficients, and the nearly Kahler normal form ties omega
# and psi^+, derived from J and Psi^-, to the brackets
for _claim, _residual in [
    *((f"the bracket table fails the Jacobi identity: d(d({n})) != 0", d(d(f))) for n, f in
      [(f"e^{k}", e(k)) for k in _FRAME] + [(s, symbol_form(s)) for s in _SYMBOLS[1:]]),
    ("the normal form fails: d(omega) != 3 psi^+", d(OMEGA) - PSI_PLUS * 3),
    ("the normal form fails: d(psi^-) != -2 omega^omega", d(PSI_MINUS) + wedge(OMEGA, OMEGA) * 2),
    ("the normal form fails: psi^+ ^ psi^- != 4 vol", wedge(PSI_PLUS, PSI_MINUS) - VOLUME * 4),
]:
    if not _residual.is_zero():
        raise AssertionError(_claim)


# --------------------------------------------------------------------------
# Killing-field data

# the generic horizontal 1-form X = sum x_i e^i; slot i of an expression
# linear in X is its value at e^i, so an identity linear in X holds at
# every X iff it holds here
_X_FLAT = InvariantForm.make(1, {((i,), i): 1 for i in _HORIZONTAL})


class KillingData(NamedTuple):
    """Symbolic Killing-field forms of the flag manifold: the dual 1-form,
    its rotation and the primitive (1,1) part phi_k of d(xi)."""

    xi_flat: InvariantForm
    j_xi_flat: InvariantForm
    phi_k: InvariantForm


@lru_cache(maxsize=None)
def killing_data() -> KillingData:
    """The symbolic Killing-field forms; identities proved over the
    symbols hold for every xi in su_3 simultaneously, and killing_values
    evaluates the symbols at a concrete xi.  The forms are built once per
    process and the same immutable object is returned on every call."""
    return KillingData(_X_FLAT, apply_j(_X_FLAT), type_decompose(d(_X_FLAT))[0])


def killing_values(xi: Sparse, g: Sparse) -> Dict[str, Fraction]:
    """Numeric values of the coefficient functions at the group element
    g: x_i = <Ad(g^-1) xi, e_i>, v_j likewise with h_j.  xi in su_3 and
    the Gaussian-rational unitary g are sparse matrices, so the
    evaluation stays exact."""
    if not all(p in range(3) and q in range(3) for m in (xi, g) for p, q in m):
        raise ValueError("matrix entries need row and column in 0..2")
    # xi^dagger = -xi: each entry is minus the conjugate of its mirror, 0 when absent
    if any(xi.get((q, p), (0, 0)) != (-re, im) for (p, q), (re, im) in xi.items()):
        raise ValueError("xi must be skew-Hermitian")
    # the diagonal of a skew-Hermitian matrix is imaginary
    if sum(xi.get((p, p), (0, 0))[1] for p in range(3)):
        raise ValueError("xi must be traceless")
    g_dagger = sparse_dagger(g)
    if sparse_mul(g, g_dagger) != IDENTITY:
        raise ValueError("g must be unitary")
    ad = sparse_mul(sparse_mul(g_dagger, xi), g)
    names = _SYMBOLS[1:] + ("v3",)
    vals = {name: _sparse_inner(ad, u) for name, u in zip(names, BASIS_UNITS)}
    if vals["v1"] + vals["v2"] + vals["v3"] != 0:
        raise AssertionError("v_1 + v_2 + v_3 must vanish on su_3")
    return vals


# --------------------------------------------------------------------------
# Printer

def _v_display(coords: Sequence[Fraction]) -> Tuple[Fraction, Fraction, Fraction]:
    """Choose the (v1, v2, v3) representative of the v-part, scoring by
    fewest nonzeros, then smallest absolute-value sum, then the tuple."""
    g1, g2 = coords[7], coords[8]
    candidates = {(g1 + t, g2 + t, t) for t in (Fraction(0), -g1, -g2)}
    return min(candidates, key=lambda tup: (len([q for q in tup if q]), sum(map(abs, tup)), tup))


def _join_signed(parts: Sequence[Tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as "a - b + c"; "0" when empty."""
    out = ""
    for negative, body in parts:
        if out:
            out += (" - " if negative else " + ") + body
        else:
            out = ("-" if negative else "") + body
    return out or "0"


def _coefficient_parts(coords: Sequence[Fraction]) -> List[Tuple[bool, str]]:
    """(negative, magnitude) per nonzero entry of the slot values: the
    constant, x_1..x_6, then the displayed v-part."""
    entries = [(coords[0], "")]
    entries += [(q, f"x_{i}") for i, q in enumerate(coords[1:7], 1)]
    entries += zip(_v_display(coords), ("v_1", "v_2", "v_3"))
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


def _format_atoms(mask: int) -> str:
    horizontal = "".join(str(i) for i in _INDICES[mask & _HORIZONTAL_MASK])
    atoms = ["e_" + horizontal] if horizontal else []
    return "^".join(atoms + [f"h_{j}" for j in _INDICES[mask >> len(_HORIZONTAL)]])


def format_form(a: InvariantForm) -> str:
    """Render a form in the documented grammar (see module docstring)."""
    _require_form(a, "format_form")
    rendered = []
    for mask in dict.fromkeys(mask for (mask, _), _ in a.terms):
        scale = _H_NORM ** -(mask >> len(_HORIZONTAL)).bit_count()  # k^j = h_j / |h_j|^2
        coords = [q * scale if q else q for q in a.slot_values(*_INDICES[mask])]
        parts = _coefficient_parts(coords)
        atoms = _format_atoms(mask)
        if not atoms:  # a 0-form prints as its coefficient
            rendered += parts
        elif len(parts) > 1:
            rendered.append((False, f"({_join_signed(parts)}) {atoms}"))
        else:
            negative, body = parts[0]
            rendered.append((negative, atoms if body == "1" else f"{body} {atoms}"))
    return _join_signed(rendered)
