"""Isotropy modules and Hom_K dimensions for the three homogeneous
spaces S3 x S3 = SU2^3 / diag(SU2), CP3 = SO5 / U2 and the full flag
F(1,2) = SU3 / T^2.

The multiplicity of an isotypic component V_gamma in the section space of
a homogeneous bundle with fiber E is dim Hom_K(V_gamma, E).  This module
knows the fibers we care about (trivial line for functions, the
8-dimensional primitive (1,1) two-form module) and how to restrict
representations of the big group to the isotropy group in each case.

The primitive (1,1) fibers are hard-coded and, once at import, re-derived
from scratch as the (1,0) x (0,1) tangent product minus one trivial
summand; a mismatch raises AssertionError (also under `python -O`) rather
than returning silently wrong multiplicities.

Hom counts on S3 x S3 are one Clebsch-Gordan interval count per fiber
label.  On CP3 and on the flag they come from Kostant's closed forms in
integer coordinates: the branching formula for SO5 -> U2 and the
multiplicity formula for su3 weights.  Each label's closed-form table is
checked before it is read (top type once, no negative multiplicity,
total dimension equal to the Weyl dimension), with explicit raises that
survive `python -O`.  Before any Hom is counted, a spectrum run sums the
closed-form size of every walked label's Kostant table and is refused
when the sum exceeds MAX_KOSTANT_POINTS.  The Freudenthal and
product-weight tables of `rootrep.weight_multiplicities` and
`restrict_so5_to_u2` are kept as the independent oracles the test suite
compares against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from .rootrep import (
    Group,
    IrrepLabel,
    LabelBoxTooLarge,
    canonical_weight,
    dimension,
    tensor_decompose_su2,
    weight_multiplicities,
)


class Space(Enum):
    S3XS3 = "s3xs3"
    CP3 = "cp3"
    FLAG = "flag"


class Bundle(Enum):
    FUNCTIONS = "functions"
    LAMBDA11 = "lambda11"


@dataclass(frozen=True)
class HomogeneousSpace:
    space: Space
    group: Group
    isometry_dim: int


_SPACES = {
    Space.S3XS3: HomogeneousSpace(Space.S3XS3, Group.SU2_CUBED, 9),
    Space.CP3: HomogeneousSpace(Space.CP3, Group.SO5, 10),
    Space.FLAG: HomogeneousSpace(Space.FLAG, Group.SU3, 8),
}


def space_data(space: Space) -> HomogeneousSpace:
    return _SPACES[space]


@dataclass(frozen=True)
class U2Label:
    """Irreducible U2 representation Sym^a(C^2) tensor the b-th power of
    the determinant character square root; a and b must have equal
    parity for the label to exist on U2."""

    a: int
    b: int

    def __post_init__(self):
        if type(self.a) is not int or type(self.b) is not int:
            raise ValueError("U2 labels must be integers")
        if self.a < 0:
            raise ValueError("SU2 part must be nonnegative")
        if (self.a - self.b) % 2 != 0:
            raise ValueError("U2 label needs a = b mod 2")

    @property
    def dim(self) -> int:
        return self.a + 1

    def __str__(self):
        return f"E({self.a},{self.b})"


@dataclass(frozen=True)
class IsotropyModule:
    """Fiber module of one of the two bundles, as a K-representation.

    content holds su2 string labels for S3 x S3, U2Labels for CP3 and
    canonical sum-zero torus weights (with repetition) for the flag.
    """

    space: Space
    bundle: Bundle
    content: Tuple

    def total_dimension(self) -> int:
        if self.space is Space.S3XS3:
            return sum(k + 1 for k in self.content)
        if self.space is Space.CP3:
            return sum(lab.dim for lab in self.content)
        return len(self.content)


# (1,0) tangent modules.  S3 x S3: one adjoint copy.  CP3: the two
# summands with charges +-1 mod the center, in the convention where the
# vertical circle sits in E_{0,-2} (the nearly Kahler J reverses the
# twistor fiber).  FLAG: one root from each pair, chosen so the three sum
# to zero.
_P10_S3XS3 = (2,)
_P10_CP3 = (U2Label(1, 1), U2Label(0, -2))
_FLAG_P10_ROOTS = ((1, -1, 0), (0, 1, -1), (-1, 0, 1))


def _u2_tensor(x: U2Label, y: U2Label) -> List[U2Label]:
    return [U2Label(k, x.b + y.b) for k, _ in tensor_decompose_su2(x.a, y.a)]


def _derive_lambda11(space: Space) -> Tuple:
    """Tangent (1,0) x (0,1) product in the K-representation ring, minus
    one trivial summand."""
    if space is Space.S3XS3:
        prod = [k for k, _ in tensor_decompose_su2(_P10_S3XS3[0], _P10_S3XS3[0])]
        prod.remove(0)
        return tuple(sorted(prod, reverse=True))
    if space is Space.CP3:
        prod: List[U2Label] = []
        for x in _P10_CP3:
            for y in _P10_CP3:
                conj_y = U2Label(y.a, -y.b)
                prod.extend(_u2_tensor(x, conj_y))
        prod.remove(U2Label(0, 0))
        return tuple(sorted(prod, key=lambda l: (l.a, l.b)))
    weights = []
    for alpha in _FLAG_P10_ROOTS:
        for beta in _FLAG_P10_ROOTS:
            w = canonical_weight(Group.SU3, tuple(p - q for p, q in zip(alpha, beta)))
            weights.append(w)
    zero = canonical_weight(Group.SU3, (0, 0, 0))
    weights.remove(zero)
    return tuple(sorted(weights))


# hard-coded primitive (1,1) fibers
_LAMBDA11_CONTENT = {
    Space.S3XS3: (4, 2),
    Space.CP3: (
        U2Label(0, 0),
        U2Label(1, -3),
        U2Label(1, 3),
        U2Label(2, 0),
    ),
    Space.FLAG: tuple(
        sorted(
            [canonical_weight(Group.SU3, w) for w in (
                (2, -1, -1), (-2, 1, 1),
                (-1, 2, -1), (1, -2, 1),
                (-1, -1, 2), (1, 1, -2),
                (0, 0, 0), (0, 0, 0),
            )]
        )
    ),
}

_FUNCTIONS_CONTENT = {
    Space.S3XS3: (0,),
    Space.CP3: (U2Label(0, 0),),
    Space.FLAG: (canonical_weight(Group.SU3, (0, 0, 0)),),
}


def _build_isotropy_modules(
    lambda11_content: Dict[Space, Tuple] = _LAMBDA11_CONTENT,
) -> Dict[Tuple[Space, Bundle], IsotropyModule]:
    """The six fiber modules, checked once: every function fiber is a
    line, and every hard-coded primitive (1,1) fiber has dimension 8 and
    equals the content re-derived from the tangent decomposition."""
    modules = {}
    for space in Space:
        functions = IsotropyModule(space, Bundle.FUNCTIONS, _FUNCTIONS_CONTENT[space])
        lambda11 = IsotropyModule(space, Bundle.LAMBDA11, lambda11_content[space])
        if functions.total_dimension() != 1:
            raise AssertionError(f"{space.value}: the function fiber is not a line")
        if lambda11.total_dimension() != 8:
            raise AssertionError(f"{space.value}: the (1,1) fiber is not 8-dimensional")
        if Counter(lambda11.content) != Counter(_derive_lambda11(space)):
            raise AssertionError(
                f"{space.value}: the (1,1) fiber is not the derived one"
            )
        modules[space, Bundle.FUNCTIONS] = functions
        modules[space, Bundle.LAMBDA11] = lambda11
    return modules


_ISOTROPY_MODULES = _build_isotropy_modules()


def isotropy_module(space: Space, bundle: Bundle) -> IsotropyModule:
    """Fiber K-module of the requested bundle, as checked at import."""
    return _ISOTROPY_MODULES[space, bundle]


def restrict_so5_to_u2(irrep: IrrepLabel) -> List[Tuple[U2Label, int]]:
    """Branch an so5 irrep to U2 by weight bookkeeping.

    Each so5 torus weight (l1, l2) restricts to the U2 weight with SU2
    part m = l1 - l2 and central charge q = l1 + l2; within a fixed
    charge the m-profile is decomposed into strings by highest-weight
    peeling.  Output sorted by (a, b), total dimension checked.
    """
    if irrep.group is not Group.SO5:
        raise ValueError("restriction defined for so5 labels only")
    by_charge: Dict[int, Dict[int, int]] = {}
    for (l1, l2), mult in weight_multiplicities(irrep).entries:
        m, q = int(l1 - l2), int(l1 + l2)
        by_charge.setdefault(q, {})
        by_charge[q][m] = by_charge[q].get(m, 0) + mult

    out: Dict[U2Label, int] = {}
    for q in sorted(by_charge):
        profile = dict(by_charge[q])
        while any(profile.values()):
            top = max(m for m, c in profile.items() if c > 0)
            if top < 0:
                raise AssertionError(f"{irrep}: asymmetric string profile")
            count = profile[top]
            for m in range(-top, top + 1, 2):
                profile[m] = profile.get(m, 0) - count
                if profile[m] < 0:
                    raise AssertionError(f"{irrep}: string peeling went negative")
            lab = U2Label(top, q)
            out[lab] = out.get(lab, 0) + count

    result = sorted(out.items(), key=lambda t: (t[0].a, t[0].b))
    if sum(lab.dim * mult for lab, mult in result) != dimension(irrep):
        raise AssertionError(f"{irrep}: the U2 types miss the Weyl dimension")
    return result


# Kostant's formulas (Humphreys, GTM 9, section 24; Knapp, Lie Groups
# Beyond an Introduction, Ch. IX).  A multiplicity at mu is the signed sum
# over the Weyl group of P(w(lambda + rho) - (mu + rho)), where P counts
# the ways to write a vector as a sum of a fixed set of positive roots.
# Both sets used here are {beta1, beta2, beta1 + beta2}: the positive
# roots of su3 for the weight multiplicities, and the so5 roots e1, e2,
# e1 + e2 outside u2 for the branching.  Weyl tables hold (sign, matrix)
# pairs acting on integer coordinate pairs.

# su3 in Dynkin coordinates; s1(x, y) = (-x, x + y), s2(x, y) = (x + y, -y)
_SU3_WEYL = (
    (1, ((1, 0), (0, 1))),
    (-1, ((-1, 0), (1, 1))),
    (-1, ((1, 1), (0, -1))),
    (1, ((-1, -1), (1, 0))),
    (1, ((0, 1), (-1, -1))),
    (-1, ((0, -1), (-1, 0))),
)

# so5 in doubled epsilon coordinates: the eight signed permutations
_SO5_WEYL = (
    (1, ((1, 0), (0, 1))),
    (-1, ((0, 1), (1, 0))),
    (-1, ((-1, 0), (0, 1))),
    (-1, ((1, 0), (0, -1))),
    (1, ((-1, 0), (0, -1))),
    (1, ((0, -1), (1, 0))),
    (1, ((0, 1), (-1, 0))),
    (-1, ((0, -1), (-1, 0))),
)


def _partition(x: int, y: int) -> int:
    """Ways to write x beta1 + y beta2 as a sum of beta1, beta2 and
    beta1 + beta2."""
    return min(x, y) + 1 if x >= 0 and y >= 0 else 0


def _weyl_images(weyl, v: Tuple[int, int]) -> List[Tuple[int, Tuple[int, int]]]:
    x, y = v
    return [(sign, (a * x + b * y, c * x + d * y)) for sign, ((a, b), (c, d)) in weyl]


def _check_kostant_table(irrep: IrrepLabel, top, table: Dict, total: int) -> None:
    """The checks that stand in for a full weight table: the top weight
    or type occurs once, nothing is negative, and the table accounts for
    the whole Weyl dimension."""
    if table.get(top) != 1:
        raise AssertionError(f"{irrep}: top {top} has multiplicity {table.get(top)}")
    negative = [key for key, m in table.items() if m < 0]
    if negative:
        raise AssertionError(f"{irrep}: negative Kostant multiplicity at {negative[0]}")
    if total != dimension(irrep):
        raise AssertionError(
            f"{irrep}: Kostant multiplicities add up to {total}, not {dimension(irrep)}"
        )


def _su3_dominant_multiplicities(irrep: IrrepLabel) -> Dict[Tuple[int, int], int]:
    """Nonzero multiplicities of the dominant weights of an su3 irrep,
    keyed by Dynkin coordinates, from Kostant's multiplicity formula."""
    k, l = irrep.labels
    images = _weyl_images(_SU3_WEYL, (k + 1, l + 1))
    table: Dict[Tuple[int, int], int] = {}
    total = 0
    # dominant weights lambda - i alpha1 - j alpha2, alpha1 = (2, -1) and
    # alpha2 = (-1, 2); i and j stay below the simple-root coordinates of
    # lambda, (2k + l)/3 and (k + 2l)/3
    for i in range((2 * k + l) // 3 + 1):
        for j in range((k + 2 * l) // 3 + 1):
            x, y = k - 2 * i + j, l + i - 2 * j
            if x < 0 or y < 0:
                continue
            m = 0
            for sign, (u, v) in images:
                du, dv = u - x - 1, v - y - 1
                # exact: w(lambda + rho) - (mu + rho) lies in the root lattice
                m += sign * _partition((2 * du + dv) // 3, (du + 2 * dv) // 3)
            if m:
                table[(x, y)] = m
                total += m * (1 if x == y == 0 else 3 if x == 0 or y == 0 else 6)
    _check_kostant_table(irrep, (k, l), table, total)
    return table


def _su3_dominant(weight) -> Tuple[int, int]:
    """Dynkin coordinates of the dominant weight in the Weyl orbit of a
    canonical su3 weight."""
    s = sorted(weight, reverse=True)
    return (int(s[0] - s[1]), int(s[1] - s[2]))


def _so5_u2_types(irrep: IrrepLabel) -> Dict[U2Label, int]:
    """Restriction of an so5 irrep to U2 from Kostant's branching formula.

    A U2 type E(m, q) has highest weight ((q + m)/2, (q - m)/2) in the so5
    torus; every one that occurs is a weight of the irrep, so the search
    runs over the weight octagon |l1|, |l2| <= a, |l1| + |l2| <= a + b.
    """
    a, b = irrep.labels
    images = _weyl_images(_SO5_WEYL, (2 * a + 3, 2 * b + 1))  # 2 (lambda + rho)
    table: Dict[U2Label, int] = {}
    total = 0
    for l1 in range(-a, a + 1):
        for l2 in range(-a, l1 + 1):
            if abs(l1) + abs(l2) > a + b:
                continue
            m = 0
            for sign, (u, v) in images:
                # both differences are even: every image coordinate is odd
                m += sign * _partition((u - 2 * l1 - 3) // 2, (v - 2 * l2 - 1) // 2)
            if m:
                table[U2Label(l1 - l2, l1 + l2)] = m
                total += m * (l1 - l2 + 1)
    _check_kostant_table(irrep, U2Label(a - b, a + b), table, total)
    return table


# Largest number of Kostant points one spectrum run may evaluate: about
# five times the 105312 that cp3 needs at cutoff 1000, the most of the two
# spaces that read Kostant tables (the flag needs 45928 there).
MAX_KOSTANT_POINTS = 500_000


class KostantRunTooLarge(LabelBoxTooLarge):
    """The walked labels need more than MAX_KOSTANT_POINTS Kostant points."""


def kostant_points(irrep: IrrepLabel) -> int:
    """Size of the Kostant table hom_dimension builds for an su3 or so5
    label: the (i, j) box of _su3_dominant_multiplicities, or the so5
    weight octagon |l1|, |l2| <= a, |l1| + |l2| <= a + b."""
    if irrep.group is Group.SU3:
        k, l = irrep.labels
        return ((2 * k + l) // 3 + 1) * ((k + 2 * l) // 3 + 1)
    a, b = irrep.labels
    return (2 * a + 1) ** 2 - 2 * (a - b) * (a - b + 1)


def check_kostant_budget(space: Space, labels: Sequence[IrrepLabel]) -> None:
    """Raise KostantRunTooLarge when the Hom counts of the labels on the
    space would evaluate more than MAX_KOSTANT_POINTS Kostant points."""
    if space is not Space.S3XS3 and sum(map(kostant_points, labels)) > MAX_KOSTANT_POINTS:
        raise KostantRunTooLarge(
            f"the cutoff needs more {space.value} Kostant points than "
            f"the bound of {MAX_KOSTANT_POINTS}"
        )


def _diagonal_su2_multiplicity(labels: Tuple[int, ...], k: int) -> int:
    """Multiplicity of V_k in V_a (x) V_b (x) V_c under the diagonal su2:
    the j in CG(a, b) with k in CG(j, c), one parity class of an interval."""
    a, b, c = labels
    if (a + b + c + k) % 2:
        return 0
    return max(0, (min(a + b, c + k) - max(abs(a - b), abs(c - k))) // 2 + 1)


def hom_dimension(space: Space, irrep: IrrepLabel, bundle: Bundle) -> int:
    """dim Hom_K(V_irrep restricted to K, fiber of the bundle).

    S3 x S3 counts intermediate Clebsch-Gordan labels per fiber label.  CP3
    reads Kostant's SO5 -> U2 branching at the fiber types.  The flag
    reads Kostant's weight multiplicities at the dominant representatives
    of the fiber weights: 0 for functions, and 2 m(0) + 3 m(3 omega1) +
    3 m(3 omega2) for lambda11.  The weight tables of
    `weight_multiplicities` and `restrict_so5_to_u2` are not on this
    path; the tests use them as oracles.
    """
    data = space_data(space)
    if irrep.group is not data.group:
        raise ValueError(f"{space.value} needs labels of {data.group.value}")
    fiber = isotropy_module(space, bundle)

    if space is Space.S3XS3:
        return sum(_diagonal_su2_multiplicity(irrep.labels, k) for k in fiber.content)

    if space is Space.CP3:
        types = _so5_u2_types(irrep)
        return sum(types.get(lab, 0) for lab in fiber.content)

    table = _su3_dominant_multiplicities(irrep)
    return sum(table.get(_su3_dominant(w), 0) for w in fiber.content)
