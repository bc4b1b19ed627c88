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
Sym^k E with respect to -B is -k(k+2)/8.  For so5 (B = 3 tr) and su3
(B = 6 tr) the scale works out to 1/6 in both cases; the derivations are
spelled out in the docstring of weight_inner and cross-checked against
explicit matrix models in the test suite.  Note that for su3 the
Euclidean pairing must be evaluated on sum-zero representatives: raw
coordinate dot products overshoot by (sum l)(sum m)/3.

The spectrum path reads eigenvalues, dimensions and the label walk off
integer polynomials in the label coordinates instead; the weights above
are the oracle they are checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

Weight = Tuple[Fraction, ...]


class Group(Enum):
    SU2 = "su2"
    SU2_CUBED = "su2^3"
    SO5 = "so5"
    SU3 = "su3"


_AMBIENT = {Group.SU2: 1, Group.SU2_CUBED: 3, Group.SO5: 2, Group.SU3: 3}
_RANK = {Group.SU2: 1, Group.SU2_CUBED: 3, Group.SO5: 2, Group.SU3: 2}


def canonical_weight(group: Group, coords) -> Weight:
    """Return the canonical ambient representative of a weight.

    For su3 this subtracts the coordinate mean, normalizing the sum to
    zero; weight equality is equality of canonical representatives.
    """
    vec = tuple(Fraction(c) for c in coords)
    if len(vec) != _AMBIENT[group]:
        raise ValueError(f"expected {_AMBIENT[group]} coordinates for {group}")
    if group is Group.SU3:
        mean = sum(vec, Fraction(0)) / 3
        vec = tuple(c - mean for c in vec)
    return vec


@dataclass(frozen=True)
class IrrepLabel:
    """Highest-weight label of an irreducible representation.

    labels: (k) for Sym^k E of su2; (a, b, c) for the outer tensor cube;
    (a, b) with a >= b >= 0 for so5; (k, l) for the su3 Cartan summand in
    Sym^k E (x) Sym^l conj(E).
    """

    group: Group
    labels: Tuple[int, ...]

    def __post_init__(self):
        n = _RANK[self.group]
        if len(self.labels) != n:
            raise ValueError(f"{self.group} label needs {n} entries")
        if any(not isinstance(x, int) or x < 0 for x in self.labels):
            raise ValueError("labels must be nonnegative integers")
        if self.group is Group.SO5 and self.labels[0] < self.labels[1]:
            raise ValueError("so5 labels require a >= b")

    @property
    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.labels)

    def highest_weight(self) -> Weight:
        if self.group is Group.SU3:
            k, l = self.labels
            return canonical_weight(Group.SU3, (k, 0, -l))
        return canonical_weight(self.group, self.labels)

    def __str__(self):
        inner = ",".join(str(x) for x in self.labels)
        return f"V({inner})"


def su2_label(k: int) -> IrrepLabel:
    return IrrepLabel(Group.SU2, (k,))


def su2cubed_label(a: int, b: int, c: int) -> IrrepLabel:
    return IrrepLabel(Group.SU2_CUBED, (a, b, c))


def so5_label(a: int, b: int) -> IrrepLabel:
    return IrrepLabel(Group.SO5, (a, b))


def su3_label(k: int, l: int) -> IrrepLabel:
    return IrrepLabel(Group.SU3, (k, l))


@dataclass(frozen=True)
class RootSystem:
    group: Group
    positive_roots: Tuple[Weight, ...]
    rho: Weight


_HALF = Fraction(1, 2)

_POSITIVE_ROOTS = {
    Group.SU2: ((Fraction(2),),),
    Group.SU2_CUBED: (
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(2)),
    ),
    Group.SO5: (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(-1)),
    ),
    Group.SU3: (
        (Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    ),
}


def _build_root_system(group: Group) -> RootSystem:
    roots = _POSITIVE_ROOTS[group]
    n = _AMBIENT[group]
    rho = tuple(
        sum((r[i] for r in roots), Fraction(0)) * _HALF for i in range(n)
    )
    return RootSystem(group=group, positive_roots=roots, rho=rho)


_ROOT_SYSTEMS = {group: _build_root_system(group) for group in Group}


def root_system(group: Group) -> RootSystem:
    """Hard-coded canonical root datum for one of the four families,
    built once at import."""
    return _ROOT_SYSTEMS[group]


def weight_inner(group: Group, lam, mu) -> Fraction:
    """Inner product of two weights with respect to minus the Killing form.

    Scales: su2 family 1/8 per coordinate line (from B_su2 = 4 tr, so the
    coroot has squared length 8 in integer label coordinates), so5 and su3
    1/6 times the Euclidean product (from B_so5 = 3 tr where the torus is
    parametrized by two commuting rotation angles, and B_su3 = 6 tr on the
    sum-zero hyperplane).  su3 inputs are canonicalized to sum zero first.
    """
    lam = canonical_weight(group, lam)
    mu = canonical_weight(group, mu)
    dot = sum((a * b for a, b in zip(lam, mu)), Fraction(0))
    if group in (Group.SU2, Group.SU2_CUBED):
        return dot / 8
    return dot / 6


def casimir_eigenvalue(irrep: IrrepLabel, metric_scale: Fraction = Fraction(1)) -> Fraction:
    """Casimir scalar of the irrep with respect to -metric_scale * B.

    Always <= 0, and 0 exactly for the trivial label.  Computed as
    -<gamma, gamma + 2 rho> / metric_scale in the -B pairing.
    """
    scale = Fraction(metric_scale)
    if scale <= 0:
        raise ValueError("metric_scale must be positive")
    gamma = irrep.highest_weight()
    rho = root_system(irrep.group).rho
    shifted = tuple(g + 2 * r for g, r in zip(gamma, rho))
    return -weight_inner(irrep.group, gamma, shifted) / scale


# Six times the Laplace eigenvalue and the Weyl dimension, as integer
# polynomials in the label coordinates (Humphreys, GTM 9, sections 22-24).
# Every coefficient of the eigenvalue forms is nonnegative, so each form
# grows with every coordinate; iter_labels relies on that.
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
    closed form of -casimir_eigenvalue(irrep, 1/12)."""
    return Fraction(_SIX_LAPLACE[irrep.group](*irrep.labels), 6)


def dimension(irrep: IrrepLabel) -> int:
    """Weyl's dimension formula, expanded in the label coordinates."""
    return _DIMENSION[irrep.group](*irrep.labels)


def _check_closed_forms() -> None:
    # Both sides are quadratic in the label, and the labels with entries
    # <= 2 determine a quadratic (for so5 the six dominant ones do: their
    # monomial matrix has determinant 4), so agreeing here is agreeing
    # everywhere.
    for group in Group:
        for labels in itertools.product(range(3), repeat=_RANK[group]):
            if group is Group.SO5 and labels[0] < labels[1]:
                continue
            irrep = IrrepLabel(group, labels)
            if laplace_eigenvalue(irrep) != -casimir_eigenvalue(irrep, Fraction(1, 12)):
                raise AssertionError(f"{group.value} {irrep}: eigenvalue is not the Casimir one")


_check_closed_forms()


@dataclass(frozen=True)
class WeightTable:
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


def _su2_string(k: int) -> Dict[Tuple[Fraction], int]:
    return {(Fraction(k - 2 * i),): 1 for i in range(k + 1)}


def _su3_product_weights(k: int, l: int) -> Dict[Weight, int]:
    """Weights of Sym^k E (x) Sym^l conj(E), canonicalized to sum zero."""
    out: Dict[Weight, int] = {}
    for a in range(k + 1):
        for b in range(k + 1 - a):
            c = k - a - b
            for ap in range(l + 1):
                for bp in range(l + 1 - ap):
                    cp = l - ap - bp
                    w = canonical_weight(Group.SU3, (a - ap, b - bp, c - cp))
                    out[w] = out.get(w, 0) + 1
    return out


def _so5_dominant(w: Weight) -> Weight:
    return tuple(sorted((abs(c) for c in w), reverse=True))


def _so5_orbit(w: Weight) -> List[Weight]:
    out = set()
    for perm in itertools.permutations(w):
        for signs in itertools.product((1, -1), repeat=len(w)):
            out.add(tuple(s * c for s, c in zip(signs, perm)))
    return sorted(out)


def _so5_freudenthal(a: int, b: int) -> Dict[Weight, int]:
    """Weight multiplicities of the so5 irrep with highest weight (a, b)
    via the Freudenthal recursion, evaluated top-down over the dominant
    weights below (a, b).  All arithmetic exact; Weyl-group lookups use
    the signed-permutation normal form."""
    rs = root_system(Group.SO5)
    gamma = canonical_weight(Group.SO5, (a, b))
    rho = rs.rho

    def dot(x, y):
        return sum((p * q for p, q in zip(x, y)), Fraction(0))

    # dominant weights gamma - i alpha1 - j alpha2, alpha1 = e1 - e2,
    # alpha2 = e2, collected by height so the recursion sees higher
    # weights first
    dominants: List[Tuple[int, Weight]] = []
    for i in range(a + 1):
        for j in range(a + b + 1):
            mu = (gamma[0] - i, gamma[1] + i - j)
            if mu[0] >= mu[1] >= 0:
                dominants.append((i + j, mu))
    dominants.sort(key=lambda t: (t[0], t[1]))

    mult: Dict[Weight, int] = {}

    def lookup(w: Weight) -> int:
        return mult.get(_so5_dominant(w), 0)

    gg = dot(tuple(g + r for g, r in zip(gamma, rho)), tuple(g + r for g, r in zip(gamma, rho)))
    for height, mu in dominants:
        if height == 0:
            mult[mu] = 1
            continue
        acc = Fraction(0)
        for alpha in rs.positive_roots:
            t = 1
            while True:
                shifted = tuple(m + t * c for m, c in zip(mu, alpha))
                m_up = lookup(shifted)
                # multiplicities vanish outside the weight polytope, and
                # every chain leaves it after at most a+b+2 steps
                if m_up == 0 and t > a + b + 2:
                    break
                acc += m_up * dot(shifted, alpha)
                t += 1
        mu_rho = tuple(m + r for m, r in zip(mu, rho))
        denom = gg - dot(mu_rho, mu_rho)
        if denom <= 0:
            raise AssertionError(f"so5 ({a}, {b}): Freudenthal denominator {denom} at {mu}")
        val = 2 * acc / denom
        if val.denominator != 1 or val < 0:
            raise AssertionError(f"so5 ({a}, {b}): multiplicity {val} at {mu}")
        mult[mu] = int(val)

    table: Dict[Weight, int] = {}
    for mu, m in mult.items():
        if m == 0:
            continue
        for w in _so5_orbit(mu):
            table[w] = m
    return table


def weight_multiplicities(irrep: IrrepLabel) -> WeightTable:
    """Full weight table of the irrep.

    su2 and the triple product are explicit strings; su3 uses the product
    weights of Sym^k E (x) Sym^l conj(E) minus those of the (k-1, l-1)
    product (the kernel of the contraction map); so5 uses the Freudenthal
    recursion.
    """
    g = irrep.group
    if g is Group.SU2:
        table = _su2_string(irrep.labels[0])
    elif g is Group.SU2_CUBED:
        a, b, c = irrep.labels
        table = {}
        for wa in _su2_string(a):
            for wb in _su2_string(b):
                for wc in _su2_string(c):
                    table[(wa[0], wb[0], wc[0])] = 1
    elif g is Group.SU3:
        k, l = irrep.labels
        table = _su3_product_weights(k, l)
        if k >= 1 and l >= 1:
            for w, m in _su3_product_weights(k - 1, l - 1).items():
                left = table[w] - m
                if left < 0:
                    raise AssertionError(f"{irrep}: negative multiplicity at {w}")
                if left == 0:
                    del table[w]
                else:
                    table[w] = left
    else:
        table = _so5_freudenthal(*irrep.labels)

    entries = tuple(sorted(table.items()))
    wt = WeightTable(irrep=irrep, entries=entries)
    if wt.total() != dimension(irrep):
        raise AssertionError(f"{irrep}: the weights miss the Weyl dimension")
    return wt


def tensor_decompose_su2(a: int, b: int) -> List[Tuple[int, int]]:
    """Clebsch-Gordan decomposition of Sym^a E (x) Sym^b E.

    Returns (label, multiplicity) pairs, labels descending; every
    multiplicity is 1 for su2.
    """
    if a < 0 or b < 0:
        raise ValueError("labels must be nonnegative")
    return [(k, 1) for k in range(a + b, abs(a - b) - 1, -2)]


# Largest label box a walk may search: three times the 26^3 = 17576
# su2^3 labels that cutoff 1000 needs, the widest box of the three spaces.
MAX_LABEL_BOX = 50_000


class LabelBoxTooLarge(ValueError):
    """The cutoff needs a label box of more than MAX_LABEL_BOX labels."""


def iter_labels(group: Group, cutoff: Fraction) -> Iterator[IrrepLabel]:
    """All labels of the family with Laplace eigenvalue <= cutoff, in
    lexicographic order: nested loops over the coordinates, each stopping
    at its first label with 6 * eigenvalue above floor(6 * cutoff).

    LabelBoxTooLarge is raised on the call, before any label is walked,
    when (first axis label above the cutoff + 1) ** rank exceeds
    MAX_LABEL_BOX.  One axis is enough: every form is symmetric in its
    coordinates once so5 labels are sorted.
    """
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    bound = math.floor(6 * cutoff)
    rank = _RANK[group]
    edge = 0
    while _SIX_LAPLACE[group](edge, *(0,) * (rank - 1)) <= bound:
        edge += 1
        if (edge + 1) ** rank > MAX_LABEL_BOX:
            raise LabelBoxTooLarge(
                f"the cutoff needs more {group.value} labels than the "
                f"label box bound of {MAX_LABEL_BOX}"
            )
    return _walk_labels(group, bound, ())


def _walk_labels(group: Group, bound: int, head: Tuple[int, ...]) -> Iterator[IrrepLabel]:
    # with the later coordinates 0 the form is at its least, so the loop
    # may stop at its first label above the bound; so5 keeps a >= b
    pad = (0,) * (_RANK[group] - len(head) - 1)
    stop = head[0] + 1 if group is Group.SO5 and head else None
    for n in itertools.count():
        labels = head + (n,) + pad
        if n == stop or _SIX_LAPLACE[group](*labels) > bound:
            return
        if pad:
            yield from _walk_labels(group, bound, head + (n,))
        else:
            yield IrrepLabel(group, labels)
