"""Root-system data and representation arithmetic for the four compact
group families su2, su2 x su2 x su2, so5 and su3.

Weights live in an ambient rational coordinate space per family: su2 uses
the integer label line (Sym^k E has weights k, k-2, ..., -k), the triple
product uses three such lines, so5 the standard R^2 in epsilon
coordinates, and su3 works in R^3 modulo (1,1,1), stored as sum-zero
canonical representatives (coordinates may be thirds).

The inner product on weights is the one induced by the negative of the
Killing form.  Per family it is a fixed rational multiple of the
Euclidean pairing of canonical representatives:

    su2, su2^3 :  <l, m> = (1/8) l.m      (integer label coordinates)
    so5        :  <l, m> = (1/6) l.m
    su3        :  <l, m> = (1/6) l.m      on sum-zero representatives

The su2 scale 1/8 comes from B = 4 tr on su2, so that the Casimir of
Sym^k E with respect to -B is -k(k+2)/8, and so5 (B = 3 tr) and su3
(B = 6 tr) both get 1/6.  The module derives every scale from the roots
by the strange formula <rho, rho> = dim g / 24, and the test suite checks
them against explicit matrix models.  For su3 the Euclidean pairing must
be evaluated on sum-zero representatives: raw coordinate dot products
overshoot by (sum l)(sum m)/3.

The spectrum path reads eigenvalues, dimensions, Casimirs and the label
walk off integers in the label coordinates instead; the weights above
are the oracle they are checked against.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Tuple

Weight = Tuple[Fraction, ...]


class Group(Enum):
    SU2 = "su2"
    SU2_CUBED = "su2^3"
    SO5 = "so5"
    SU3 = "su3"

    # members are singletons and == is identity, so the C-level identity
    # hash agrees with == (Enum's own hashes the name in Python)
    __hash__ = object.__hash__


# Python 3.11 reads an Enum member through its class by EnumType.__getattr__
# (~150 ns), so the per-label paths read this module-level alias instead
_SO5 = Group.SO5

_RANK = {Group.SU2: 1, Group.SU2_CUBED: 3, Group.SO5: 2, Group.SU3: 2}


def _of_group(table: Dict, group: Group):
    # table[group], refusing anything but a Group with a one-line error
    try:
        return table[group]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValueError(f"a group is a Group, not {group!r}") from None


def canonical_weight(group: Group, coords) -> Weight:
    """Return the canonical ambient representative of a weight.

    For su3 this subtracts the coordinate mean, normalizing the sum to
    zero; weight equality is equality of canonical representatives.
    Each coordinate must be an int or a Fraction (a bool, a float or a
    string is refused, not converted).
    """
    try:
        vec = tuple(coords)
    except TypeError:  # not iterable
        raise ValueError(f"a weight is a sequence of coordinates, not {coords!r}") from None
    for c in vec:
        if type(c) not in (int, Fraction):
            raise ValueError(f"weight coordinate {c!r} is not an int or a Fraction")
    vec = tuple(map(Fraction, vec))
    if len(vec) != _of_group(_AMBIENT, group):
        raise ValueError(f"expected {_AMBIENT[group]} coordinates for {group.value}")
    if group is Group.SU3:
        mean = sum(vec, Fraction(0)) / 3
        vec = tuple(c - mean for c in vec)
    return vec


class IrrepLabel(NamedTuple("IrrepLabel", [("group", Group), ("labels", Tuple[int, ...])])):
    """Highest-weight label of an irreducible representation, validated by
    the constructor, _make and _replace alike.

    labels: (k) for Sym^k E of su2; (a, b, c) for the outer tensor cube;
    (a, b) with a >= b >= 0 for so5; (k, l) for the su3 Cartan summand in
    Sym^k E (x) Sym^l conj(E).
    """

    __slots__ = ()

    def __new__(cls, group: Group, labels: Tuple[int, ...]):
        n = _RANK.get(group) if type(group) is Group else None
        if type(labels) is not tuple or len(labels) != n:
            if n is None:
                raise ValueError(f"a label's group is a Group, not {group!r}")
            raise ValueError(f"{group.value} label needs a tuple of {n} entries")
        for x in labels:  # a loop, not any(): this runs per spectrum entry and iter_labels label
            if type(x) is not int or x < 0:
                raise ValueError("labels must be nonnegative integers")
        if group is _SO5 and labels[0] < labels[1]:
            raise ValueError("so5 labels require a >= b")
        return tuple.__new__(cls, (group, labels))

    # namedtuple's _make, which _replace calls, would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def highest_weight(self) -> Weight:
        if self.group is Group.SU3:
            k, l = self.labels
            return canonical_weight(Group.SU3, (k, 0, -l))
        return canonical_weight(self.group, self.labels)

    def __str__(self):
        return f"V({','.join(map(str, self.labels))})"


def su2_label(k: int) -> IrrepLabel:
    return IrrepLabel(Group.SU2, (k,))


def su2cubed_label(a: int, b: int, c: int) -> IrrepLabel:
    return IrrepLabel(Group.SU2_CUBED, (a, b, c))


def so5_label(a: int, b: int) -> IrrepLabel:
    return IrrepLabel(Group.SO5, (a, b))


def su3_label(k: int, l: int) -> IrrepLabel:
    return IrrepLabel(Group.SU3, (k, l))


class RootSystem(NamedTuple):
    group: Group
    positive_roots: Tuple[Tuple[int, ...], ...]
    rho: Weight


_POSITIVE_ROOTS = {
    Group.SU2: ((2,),),
    Group.SU2_CUBED: ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
    Group.SO5: ((1, 0), (0, 1), (1, 1), (1, -1)),
    Group.SU3: ((1, -1, 0), (1, 0, -1), (0, 1, -1)),
}

# The rest of each family's data follows from its roots and rank: the
# ambient coordinates, 2 rho (the integer sum of the positive roots) and
# dim g = rank + 2 |positive roots|
_AMBIENT = {group: len(roots[0]) for group, roots in _POSITIVE_ROOTS.items()}
_TWO_RHO = {group: tuple(map(sum, zip(*roots))) for group, roots in _POSITIVE_ROOTS.items()}
_LIE_DIMENSION = {group: _RANK[group] + 2 * len(roots) for group, roots in _POSITIVE_ROOTS.items()}

_ROOT_SYSTEMS = {
    group: RootSystem(group, roots, tuple(Fraction(c, 2) for c in _TWO_RHO[group]))
    for group, roots in _POSITIVE_ROOTS.items()
}


def root_system(group: Group) -> RootSystem:
    """Hard-coded root datum of one of the four families, built once at
    import: integer positive roots, and rho, half their sum."""
    return _of_group(_ROOT_SYSTEMS, group)


# 72 times the -B pairing scale of each family, read by _scaled_casimir and
# by its oracle weight_inner; six times the eigenvalue for -B/12 is
# 72 <gamma, gamma + 2 rho>, so every Casimir and the closed-form check
# below work in integers.  Freudenthal and de Vries' strange formula,
# <rho, rho> = dim g / 24 for -B, makes it 12 dim g / (2 rho . 2 rho);
# _check_closed_forms refuses a division that is not exact
_PAIRING_72 = {g: 12 * _LIE_DIMENSION[g] // sum(c * c for c in r) for g, r in _TWO_RHO.items()}


def weight_inner(group: Group, lam, mu) -> Fraction:
    """Inner product of two weights with respect to minus the Killing form:
    the Euclidean product of canonical representatives (su3 inputs summed
    to zero first) times _PAIRING_72 / 72, that is 1/8 on the su2 lines
    (B_su2 = 4 tr, so the coroot has squared length 8 in integer label
    coordinates) and 1/6 on so5 (B = 3 tr, the torus parametrized by two
    commuting rotation angles) and on su3 (B = 6 tr on the sum-zero
    hyperplane); the Fraction oracle of _scaled_casimir."""
    lam = canonical_weight(group, lam)
    mu = canonical_weight(group, mu)
    dot = sum((a * b for a, b in zip(lam, mu)), Fraction(0))
    return dot * _PAIRING_72[group] / 72


def _scaled_casimir(group: Group, gamma, two_rho) -> int:
    """72 n^2 <gamma, gamma + 2 rho>, -72 n^2 times the Casimir of the
    highest weight gamma, from n gamma and n 2 rho: integer coordinates
    scaled by a common n, summed to zero for su3."""
    return _PAIRING_72[group] * sum(g * (g + r) for g, r in zip(gamma, two_rho))


def _scaled_label(group: Group, labels: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...], List[int]]:
    """n, n gamma and n 2 rho at the label's highest weight gamma, for su3
    (k, 0, -l) summed to zero at n = 3, else the label at n = 1."""
    if group is Group.SU3:
        k, l = labels
        n, gamma = 3, (2 * k + l, l - k, -k - 2 * l)
    else:
        n, gamma = 1, labels
    return n, gamma, [n * r for r in _TWO_RHO[group]]


def _check_irrep(irrep: IrrepLabel) -> None:
    """Refuse anything but an IrrepLabel with a one-line ValueError."""
    if type(irrep) is not IrrepLabel:
        raise ValueError(f"an irrep is an IrrepLabel, not {irrep!r}")


def casimir_eigenvalue(irrep: IrrepLabel) -> Fraction:
    """Casimir scalar of the irrep for -B, -<gamma, gamma + 2 rho>, read
    off _scaled_casimir in integers (weight_inner is its oracle).  Always
    <= 0, and 0 exactly for the trivial label."""
    _check_irrep(irrep)
    n, gamma, two_rho = _scaled_label(irrep.group, irrep.labels)
    return Fraction(-_scaled_casimir(irrep.group, gamma, two_rho), 72 * n * n)


# Six times the Laplace eigenvalue and the Weyl dimension, as integer
# polynomials in the label coordinates (Humphreys, GTM 9, sections 22-24).
# Every coefficient of the eigenvalue forms is nonnegative, so each form
# grows with every coordinate; iter_labels relies on that.  The import
# proves both against the roots (_check_closed_forms).
_SIX_LAPLACE = {
    Group.SU2: lambda k: 9 * k * (k + 2),
    Group.SU2_CUBED: lambda a, b, c: 9 * (a * (a + 2) + b * (b + 2) + c * (c + 2)),
    Group.SO5: lambda a, b: 12 * (a * (a + 3) + b * (b + 1)),
    Group.SU3: lambda k, l: 8 * (k * k + k * l + l * l + 3 * k + 3 * l),
}

_DIMENSION = {
    Group.SU2: lambda k: k + 1,
    Group.SU2_CUBED: lambda a, b, c: (a + 1) * (b + 1) * (c + 1),
    Group.SO5: lambda a, b: (2 * a + 3) * (2 * b + 1) * (a + b + 2) * (a - b + 1) // 6,
    Group.SU3: lambda k, l: (k + 1) * (l + 1) * (k + l + 2) // 2,
}


def laplace_eigenvalue(irrep: IrrepLabel) -> Fraction:
    """Eigenvalue of the Hermitian Laplace operator on the isotypic
    component of the irrep, for the normal metric induced by -B/12: the
    closed form of -12 * casimir_eigenvalue(irrep)."""
    _check_irrep(irrep)
    return Fraction(_SIX_LAPLACE[irrep.group](*irrep.labels), 6)


def dimension(irrep: IrrepLabel) -> int:
    """Weyl's dimension formula, expanded in the label coordinates."""
    _check_irrep(irrep)
    return _DIMENSION[irrep.group](*irrep.labels)


def _check_closed_forms() -> None:
    # Each side of each check has degree <= 3 in each label coordinate (2
    # for the eigenvalues, 3 for so5's dimension), and such a polynomial
    # that vanishes on {0, 1, 2, 3}^rank is zero.
    #
    # Both checks read the label's highest weight and 2 rho scaled by n to
    # integers.  The Casimir side is _scaled_casimir, so both sides of the
    # eigenvalue check carry n^2, and its scale _PAIRING_72 comes from the
    # roots alone.  The dimension check is Weyl's product over the positive
    # roots, dim V = prod <gamma + rho, alpha> / <rho, alpha>, with both
    # pairings times 2n and the denominator cleared; each factor is a ratio,
    # so the Weyl-invariant Euclidean pairing of the coordinates serves.
    for group in Group:
        if _PAIRING_72[group] * sum(c * c for c in _TWO_RHO[group]) != 12 * _LIE_DIMENSION[group]:
            raise AssertionError(f"{group.value}: 12 dim g is not a multiple of 2 rho . 2 rho")
        roots = _POSITIVE_ROOTS[group]

        def weyl_product(v):
            return math.prod(sum(map(operator.mul, v, alpha)) for alpha in roots)

        for labels in itertools.product(range(4), repeat=_RANK[group]):
            n, gamma, two_rho = _scaled_label(group, labels)
            shifted = [2 * g + r for g, r in zip(gamma, two_rho)]
            if n * n * _SIX_LAPLACE[group](*labels) != _scaled_casimir(group, gamma, two_rho):
                problem = "eigenvalue is not the Casimir one"
            elif _DIMENSION[group](*labels) * weyl_product(two_rho) != weyl_product(shifted):
                problem = "dimension is not Weyl's product"
            else:
                continue
            raise AssertionError(f"{group.value} V({','.join(map(str, labels))}): {problem}")


_check_closed_forms()


class WeightTable(NamedTuple):
    """Finite weight-to-multiplicity map of one irrep.

    Entries are keyed by canonical ambient weights; the multiplicity sum
    equals the Weyl dimension (checked at construction time by the
    factory below).
    """

    irrep: IrrepLabel
    entries: Tuple[Tuple[Weight, int], ...]

    def as_dict(self) -> Dict[Weight, int]:
        return dict(self.entries)

    def multiplicity(self, weight) -> int:
        w = canonical_weight(self.irrep.group, weight)
        return self.as_dict().get(w, 0)

    def total(self) -> int:
        return sum(m for _, m in self.entries)


def _pattern_weights(irrep: IrrepLabel) -> Counter:
    """Integer weights of the irrep, one per Gelfand-Tsetlin pattern
    (Zhelobenko, Compact Lie Groups and Their Representations, sections 66
    and 70).

    su2, su2^3: the strings k, k - 2, ..., -k of each factor.  su3: V(k, l)
    is the U3 irrep of highest weight (k + l, l, 0), whose patterns have a
    U2 row (mu1, mu2), k + l >= mu1 >= l >= mu2 >= 0, and a U1 entry nu,
    mu1 >= nu >= mu2, of weight (nu, mu1 + mu2 - nu, k + 2l - mu1 - mu2).
    so5: V(a, b) restricts to the SO4 = SU2 x SU2 types (p, q) with
    a >= p >= b >= |q|, each the product of a string of p + q + 1 weights
    along e1 + e2 and one of p - q + 1 along e1 - e2.
    """
    if irrep.group is Group.SU3:
        k, l = irrep.labels
        return Counter(
            (nu, mu1 + mu2 - nu, k + 2 * l - mu1 - mu2)
            for mu1 in range(l, k + l + 1)
            for mu2 in range(l + 1)
            for nu in range(mu2, mu1 + 1)
        )
    if irrep.group is _SO5:
        a, b = irrep.labels
        return Counter(
            (p - i - j, q - i + j)
            for p in range(b, a + 1)
            for q in range(-b, b + 1)
            for i in range(p + q + 1)
            for j in range(p - q + 1)
        )
    return Counter(itertools.product(*(range(k, -k - 1, -2) for k in irrep.labels)))


def weight_multiplicities(irrep: IrrepLabel) -> WeightTable:
    """Full weight table of the irrep: the Gelfand-Tsetlin pattern count of
    _pattern_weights, keyed by canonical weights."""
    _check_irrep(irrep)
    table = {canonical_weight(irrep.group, w): m for w, m in _pattern_weights(irrep).items()}
    entries = tuple(sorted(table.items()))
    wt = WeightTable(irrep=irrep, entries=entries)
    if wt.total() != dimension(irrep):
        raise AssertionError(f"{irrep}: the weights miss the Weyl dimension")
    return wt


def tensor_decompose_su2(a: int, b: int) -> List[Tuple[int, int]]:
    """Clebsch-Gordan decomposition of Sym^a E (x) Sym^b E.

    Returns (label, multiplicity) pairs, labels descending; every
    multiplicity is 1 for su2.  Each label must be a nonnegative int (a
    bool or a float is refused, not converted).
    """
    if type(a) is not int or type(b) is not int or a < 0 or b < 0:
        raise ValueError(f"su2 labels are nonnegative ints, not {a!r} and {b!r}")
    return [(k, 1) for k in range(a + b, abs(a - b) - 1, -2)]


# The walk refuses a cutoff whose (edge + 1)^rank exceeds this, edge being
# the first axis label above the cutoff; it then reads edge^rank labels.
# Three times su2^3's 26^3 = 17576 at cutoff 1000 (the walk reads 25^3),
# the widest box of the three spaces.
MAX_LABEL_BOX = 50_000


class LabelBoxTooLarge(ValueError):
    """The cutoff needs a label box of more than MAX_LABEL_BOX labels."""


def exact_cutoff(value) -> Fraction:
    """The cutoff as a Fraction; ValueError unless it is a nonnegative int
    or Fraction (a bool or a float is refused, not rounded)."""
    if type(value) not in (int, Fraction):
        raise ValueError(f"cutoff {value!r} is not an int or a Fraction")
    if value < 0:
        raise ValueError("cutoff must be nonnegative")
    return Fraction(value)


def iter_labels(group: Group, cutoff: Fraction) -> Iterator[IrrepLabel]:
    """All labels of the family with Laplace eigenvalue <= cutoff, in
    lexicographic order, as IrrepLabels over the tuples of _walk_labels.

    LabelBoxTooLarge is raised on the call, before any label is walked.
    The cutoff must be a nonnegative int or Fraction.
    """
    return (IrrepLabel(group, labels) for labels in _walk_labels(group, cutoff))


def _walk_labels(group: Group, cutoff: Fraction) -> List[Tuple[int, ...]]:
    """The label tuples of iter_labels: the box range(edge)^rank, edge the
    first axis label above the cutoff, filtered to 6 * eigenvalue <=
    floor(6 * cutoff) and, for so5, a >= b.  Every form grows with each
    coordinate and is symmetric once so5 labels are sorted, so no label
    outside the box is below the cutoff.

    LabelBoxTooLarge is raised before any label is walked when
    (edge + 1) ** rank exceeds MAX_LABEL_BOX."""
    bound = math.floor(6 * exact_cutoff(cutoff))
    rank = _of_group(_RANK, group)
    six = _SIX_LAPLACE[group]
    edge = 0
    while six(edge, *(0,) * (rank - 1)) <= bound:
        edge += 1
        if (edge + 1) ** rank > MAX_LABEL_BOX:
            raise LabelBoxTooLarge(
                f"the cutoff needs more {group.value} labels than the "
                f"label box bound of {MAX_LABEL_BOX}"
            )
    return [
        labels for labels in itertools.product(range(edge), repeat=rank)
        if six(*labels) <= bound and (group is not _SO5 or labels[0] >= labels[1])
    ]
