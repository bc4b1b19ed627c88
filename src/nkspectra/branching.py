"""Isotropy modules and Hom_K dimensions for the three homogeneous
spaces S3 x S3 = SU2^3 / diag(SU2), CP3 = SO5 / U2 and the full flag
F(1,2) = SU3 / T^2.

The multiplicity of an isotypic component V_gamma in the section space of
a homogeneous bundle with fiber E is dim Hom_K(V_gamma, E).  This module
knows the fibers we care about (trivial line for functions, the
8-dimensional primitive (1,1) two-form module) and how to restrict
representations of the big group to the isotropy group in each case.

The isotropy representation is stated once, as the (1,0) tangent modules
(the flag's derived from the frame data _H_ACTION and _J_IMAGES, which `dga`
reads too); the (0,1) modules are their conjugates.  The (1,1) fibers are
derived from them at import as the (1,0) x (0,1) product minus one copy
of the trivial type; a fiber that is not 8-dimensional raises
AssertionError (also under `python -O`) rather than returning wrong
multiplicities.  A fiber is held as its content tuple, and a space is
known by its isometry group, whose dimension rootrep derives.  The
Casimirs `spectrum`'s check reads come from the tangent modules too.

Hom counts on S3 x S3 are one Clebsch-Gordan interval count per fiber
label.  On CP3 and on the flag they come from Kostant's closed forms in
integer coordinates, the branching formula for SO5 -> U2 and the
multiplicity formula for su3 weights, evaluated only at the label's top
and at the fiber points (the U2 types of the fiber, or its torus weights,
converted once at import to the coordinates the sum reads).  What is read is
checked with explicit raises that survive `python -O`: the top occurs
once, nothing is negative, and multiplicities agree within each Weyl
orbit of fiber weights and on each pair of dual U2 types.  The
Gelfand-Tsetlin tables of `rootrep.weight_multiplicities`, and the string
counts n(m) - n(m + 2) `restrict_so5_to_u2` reads off them, are the
independent oracles the test suite compares against; no command calls them.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .rootrep import (
    Group,
    IrrepLabel,
    _check_irrep,
    _scaled_casimir,
    dimension,
    tensor_decompose_su2,
    weight_multiplicities,
)


class Space(Enum):
    S3XS3 = "s3xs3"
    CP3 = "cp3"
    FLAG = "flag"

    # identity hash, as for Group: == on members is identity
    __hash__ = object.__hash__


class Bundle(Enum):
    FUNCTIONS = "functions"
    LAMBDA11 = "lambda11"

    __hash__ = object.__hash__


# the per-label Hom count reads these aliases, not Space.S3XS3 through the
# Enum class (a Python-level EnumType.__getattr__ call in Python 3.11)
_S3XS3, _CP3 = Space.S3XS3, Space.CP3


# the isometry group of each space, in Space order
_GROUPS = dict(zip(Space, (Group.SU2_CUBED, Group.SO5, Group.SU3)))


def space_group(space: Space) -> Group:
    """The isometry group of the space; ValueError unless it is a Space."""
    try:
        return _GROUPS[space]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValueError(f"a space is a Space, not {space!r}") from None


class U2Label(NamedTuple("U2Label", [("a", int), ("b", int)])):
    """Irreducible U2 representation Sym^a(C^2) tensor the b-th power of
    the determinant character square root; a and b must have equal
    parity for the label to exist on U2, also through _make and _replace."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if type(a) is not int or type(b) is not int:
            raise ValueError("U2 labels must be integers")
        if a < 0:
            raise ValueError("SU2 part must be nonnegative")
        if (a - b) % 2 != 0:
            raise ValueError("U2 label needs a = b mod 2")
        return tuple.__new__(cls, (a, b))

    # namedtuple's _make, which _replace calls, would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def dim(self) -> int:
        return self.a + 1

    def __str__(self):
        return f"E({self.a},{self.b})"


# (1,0) tangent modules.  S3 x S3: one adjoint copy.  CP3: the two
# summands with charges +-1 mod the center, in the convention where the
# vertical circle sits in E_{0,-2} (the nearly Kahler J reverses the
# twistor fiber).  FLAG: derived below from the frame's isotropy action.
_P10_S3XS3 = (2,)
_P10_CP3 = (U2Label(1, 1), U2Label(0, -2))

# The flag's isotropy data, stated once: `dga` assembles its brackets, d and
# J from these two, and reads the frame's shape off them.  In dga's frame
# e_1..e_6, h_1, h_2, h_3 of u3 = m + h, with frame indices 1..9, h's action
# on m is [e_a, h_j] = sum over b of _H_ACTION[a, k][b] e_b, k the index of
# h_j; the h_j commute, so [h, h] has no entry
_H_ACTION: Dict[Tuple[int, int], Dict[int, int]] = {
    (1, 7): {2: -1}, (1, 8): {2: 1}, (2, 7): {1: 1}, (2, 8): {1: -1},
    (3, 7): {4: -1}, (3, 9): {4: 1}, (4, 7): {3: 1}, (4, 9): {3: -1},
    (5, 8): {6: -1}, (5, 9): {6: 1}, (6, 8): {5: 1}, (6, 9): {5: -1},
}

# J e^1 = e^2, J e^2 = -e^1, J e^3 = -e^4, J e^4 = e^3,
# J e^5 = e^6, J e^6 = -e^5
_J_IMAGES = {1: (2, 1), 2: (1, -1), 3: (4, -1), 4: (3, 1), 5: (6, 1), 6: (5, -1)}
# The frame's shape, stated once: the horizontal indices are J's, the
# vertical ones are the h-indices of _H_ACTION, and the frame's indices,
# horizontal then vertical, run 1..n with no gap
_HORIZONTAL, _VERTICAL = tuple(sorted(_J_IMAGES)), tuple(sorted({k for _, k in _H_ACTION}))
_FRAME = tuple(range(1, len(_HORIZONTAL + _VERTICAL) + 1))
if {im for im, _ in _J_IMAGES.values()} != set(_HORIZONTAL) or _HORIZONTAL + _VERTICAL != _FRAME:
    raise AssertionError("J must permute the horizontal coframe e^1..e^6")

# The flag's m^(1,0) weights: for J e^a = s e^b, h_j acts on e_a - iJe_a with
# weight -s [e_a, h_j]_b.  Each end of each J-pair gives a (pair, weight)
# entry, one per pair when both ends agree, and the weights must be three
# roots of su3 that sum to zero, the nearly Kahler choice of one root from
# each opposite pair.  Both hold iff each weight and each of their
# coordinates is a permutation of (-1, 0, 1)
_ENDS = {(min(a, b), tuple(-s * _H_ACTION.get((a, k), {}).get(b, 0) for k in _VERTICAL))
         for a, (b, s) in _J_IMAGES.items()}
_FLAG_P10_ROOTS = tuple(sorted((w for _, w in _ENDS), reverse=True))
if {tuple(sorted(v)) for v in _FLAG_P10_ROOTS + tuple(zip(*_FLAG_P10_ROOTS))} != {(-1, 0, 1)}:
    raise AssertionError(f"flag: the J-pair weights {sorted(_ENDS)} are not sum-zero roots")


def _tangent(space: Space) -> Tuple[Tuple, Tuple]:
    """The summands of m^(1,0) and, in the same order, their conjugates,
    the summands of m^(0,1): V_k is its own, E(a, b) has E(a, -b), and a
    root alpha has -alpha."""
    if space is Space.S3XS3:
        return _P10_S3XS3, _P10_S3XS3
    if space is Space.CP3:
        return _P10_CP3, tuple(U2Label(t.a, -t.b) for t in _P10_CP3)
    return _FLAG_P10_ROOTS, tuple(tuple(-c for c in alpha) for alpha in _FLAG_P10_ROOTS)


_FUNCTIONS_CONTENT = {
    Space.S3XS3: (0,),
    Space.CP3: (U2Label(0, 0),),
    Space.FLAG: ((0, 0, 0),),
}


def _derive_lambda11(space: Space) -> Tuple:
    """Tangent (1,0) x (0,1) product in the K-representation ring, minus
    one copy of the function fiber's trivial type."""
    p10, p01 = _tangent(space)
    pairs = [(x, y) for x in p10 for y in p01]
    if space is Space.S3XS3:
        prod = [k for x, y in pairs for k, _ in tensor_decompose_su2(x, y)]
    elif space is Space.CP3:
        prod = [U2Label(k, x.b + y.b) for x, y in pairs for k, _ in tensor_decompose_su2(x.a, y.a)]
    else:
        prod = [tuple(map(sum, zip(x, y))) for x, y in pairs]
    prod.remove(_FUNCTIONS_CONTENT[space][0])
    return tuple(sorted(prod, reverse=space is Space.S3XS3))


def _isotropy_casimirs(space: Space) -> List[Fraction]:
    """Casimir of each summand of m = m^(1,0) + m^(0,1), each followed by
    its conjugate, for minus the big group's Killing form restricted to the
    isotropy algebra: -<mu, mu + 2 rho_K> at its highest weight mu."""
    summands = [x for pair in zip(*_tangent(space)) for x in pair]
    if space is Space.S3XS3:
        # V_k of the diagonal su2 has highest weight (k, k, k) / 3, so the
        # product Killing form restricts to 3 times the factor's, and 2 rho_K
        # is (2, 2, 2) / 3; mu and 2 rho_K are scaled by n to integers
        n, tops, two_rho = 3, [(k, k, k) for k in summands], (2, 2, 2)
    elif space is Space.CP3:
        # E(a, b) has highest weight ((b + a) / 2, (b - a) / 2) in the so5
        # torus, and 2 rho of u2 is its positive root e1 - e2
        n, tops, two_rho = 2, [(b + a, b - a) for a, b in summands], (2, -2)
    else:
        # torus characters: no rho shift on an abelian isotropy group
        n, tops, two_rho = 1, summands, (0, 0, 0)
    group = space_group(space)
    return [Fraction(-_scaled_casimir(group, mu, two_rho), 72 * n * n) for mu in tops]


def _fiber_dimension(space: Space, content: Tuple) -> int:
    """Dimension of a fiber from its content: V_k, a U2Label or a torus line."""
    if space is Space.S3XS3:
        return sum(k + 1 for k in content)
    if space is Space.CP3:
        return sum(lab.dim for lab in content)
    return len(content)


def _build_isotropy_modules() -> Dict[Tuple[Space, Bundle], Tuple]:
    """The six fiber contents, checked once: every function fiber is a
    line, and every primitive (1,1) fiber, derived from the tangent
    decomposition, has dimension 8."""
    modules = {}
    for space in Space:
        modules[space, Bundle.FUNCTIONS] = functions = _FUNCTIONS_CONTENT[space]
        modules[space, Bundle.LAMBDA11] = lambda11 = _derive_lambda11(space)
        if _fiber_dimension(space, functions) != 1:
            raise AssertionError(f"{space.value}: the function fiber is not a line")
        if _fiber_dimension(space, lambda11) != 8:
            raise AssertionError(f"{space.value}: the (1,1) fiber is not 8-dimensional")
    return modules


_ISOTROPY_MODULES = _build_isotropy_modules()


def isotropy_module(space: Space, bundle: Bundle) -> Tuple:
    """Fiber K-module of the requested bundle, checked at import, as its
    content tuple: su2 string labels k for S3 x S3, U2Labels for CP3 and
    integer sum-zero torus weights (with repetition) for the flag."""
    try:
        return _ISOTROPY_MODULES[space, bundle]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValueError(f"a fiber needs a Space and a Bundle: {space!r}, {bundle!r}") from None


def restrict_so5_to_u2(irrep: IrrepLabel) -> List[Tuple[U2Label, int]]:
    """Branch an so5 irrep to U2 by weight bookkeeping.

    Each so5 torus weight (l1, l2) restricts to the U2 weight with SU2
    part m = l1 - l2 and central charge q = l1 + l2, one to one.  With n(m)
    the multiplicity of m at charge q, the string E(m, q), m >= 0, occurs
    n(m) - n(m + 2) times, and none may be negative; n(m) = n(-m) must
    hold.  Output sorted by (a, b), total dimension checked.
    """
    _check_irrep(irrep)
    if irrep.group is not Group.SO5:
        raise ValueError("restriction defined for so5 labels only")
    by_charge: Dict[int, Dict[int, int]] = {}
    for (l1, l2), mult in weight_multiplicities(irrep).entries:
        by_charge.setdefault(int(l1 + l2), {})[int(l1 - l2)] = mult

    out = []
    for q, n in by_charge.items():
        counts = {m: n.get(m, 0) - n.get(m + 2, 0) for m in range(max(n) + 1)}
        if min(counts.values(), default=0) < 0:
            raise AssertionError(f"{irrep}: string peeling went negative")
        if any(n.get(-m, 0) != c for m, c in n.items()):
            raise AssertionError(f"{irrep}: asymmetric string profile")
        out += [(U2Label(m, q), c) for m, c in counts.items() if c]

    result = sorted(out)  # by (a, b): each label occurs once
    if sum(lab.dim * mult for lab, mult in result) != dimension(irrep):
        raise AssertionError(f"{irrep}: the U2 types miss the Weyl dimension")
    return result


# Kostant's formulas (Humphreys, GTM 9, section 24; Knapp, Lie Groups
# Beyond an Introduction, Ch. IX).  A multiplicity at mu is the sum over
# the Weyl group of det(w) P(w(lambda + rho) - (mu + rho)), where P counts
# the ways to write a vector as a sum of a fixed set of positive roots.
# Both sets used here are {beta1, beta2, beta1 + beta2}: the positive
# roots of su3 for the weight multiplicities, and the so5 roots e1, e2,
# e1 + e2 outside u2 for the branching.  Each Weyl group is generated at
# import, as (det w, w) pairs of integer matrices on beta1, beta2
# coordinates; the points are scaled by 3 for su3 and by 2 for so5 so that
# lambda + rho and mu + rho are integral.

def _weyl_group(order: int, *generators) -> Tuple:
    """(det w, w) for the elements w that the 2x2 integer generators span."""
    elements = [((1, 0), (0, 1))]
    # discovery order: each element found, times each generator on the right
    for (a, b), (c, d) in elements:
        for (p, q), (r, s) in generators:
            m = ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))
            if m not in elements:
                elements.append(m)
        if len(elements) > order:  # a wrong generator may span an infinite group
            break
    if len(elements) != order:
        raise AssertionError(f"the Weyl generators {generators} do not span {order} elements")
    return tuple((a * d - b * c, ((a, b), (c, d))) for (a, b), (c, d) in elements)


# su3 on simple-root coordinates, s1(x, y) = (y - x, y) and s2(x, y) = (x, x - y);
# so5 on epsilon coordinates, the coordinate swap and the two sign changes
_SU3_WEYL = _weyl_group(6, ((-1, 1), (0, 1)), ((1, 0), (1, -1)))
_SO5_WEYL = _weyl_group(8, ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)))


def _partition(x: int, y: int) -> int:
    """Ways to write x beta1 + y beta2 as a sum of beta1, beta2 and
    beta1 + beta2."""
    return min(x, y) + 1 if x >= 0 and y >= 0 else 0


def _weyl_images(weyl, v: Tuple[int, int]) -> List[Tuple[int, Tuple[int, int]]]:
    x, y = v
    return [(sign, (a * x + b * y, c * x + d * y)) for sign, ((a, b), (c, d)) in weyl]


def _kostant(images, scale: int, point: Tuple[int, int]) -> int:
    """Kostant's signed sum at mu, from the images w(lambda + rho) and
    point = mu + rho in scaled coordinates; a difference off the root
    lattice, which then holds for every w, contributes nothing."""
    x, y = point
    return sum(
        sign * _partition((u - x) // scale, (v - y) // scale)
        for sign, (u, v) in images
        if (u - x) % scale == 0 == (v - y) % scale
    )


def _su3_dominant(weight) -> Tuple[int, int]:
    """Dynkin coordinates of the dominant weight in the Weyl orbit of an
    integer sum-zero su3 weight."""
    s = sorted(weight, reverse=True)
    return (s[0] - s[1], s[1] - s[2])


def _fiber_points(space: Space, bundle: Bundle) -> Tuple[Tuple[Tuple[int, int], str], ...]:
    """mu + rho in scaled coordinates for each point Hom reads, with the
    class of points that must share its multiplicity: on CP3 a U2 type
    E(m, q), of highest weight ((q + m)/2, (q - m)/2), and its dual (so5
    irreps are self-dual); on the flag an integer sum-zero torus weight
    w1 alpha1 - w3 alpha2 and its Weyl orbit."""
    if space is Space.CP3:
        return tuple(
            ((t.b + t.a + 3, t.b - t.a + 1), f"E({t.a},{abs(t.b)}) and its dual")
            for t in _ISOTROPY_MODULES[space, bundle]
        )
    return tuple(
        ((3 * w[0] + 3, 3 - 3 * w[2]), f"the Weyl orbit of {_su3_dominant(w)}")
        for w in _ISOTROPY_MODULES[space, bundle]
    )


_FIBER_POINTS = {
    (space, bundle): _fiber_points(space, bundle)
    for space in (Space.CP3, Space.FLAG)
    for bundle in Bundle
}


def _diagonal_su2_multiplicity(labels: Tuple[int, ...], k: int) -> int:
    """Multiplicity of V_k in V_a (x) V_b (x) V_c under the diagonal su2:
    the j in CG(a, b) with k in CG(j, c), one parity class of an interval."""
    a, b, c = labels
    if (a + b + c + k) % 2:
        return 0
    return max(0, (min(a + b, c + k) - max(abs(a - b), abs(c - k))) // 2 + 1)


def _check_bundle(bundle: Bundle) -> None:
    """Refuse anything but a Bundle with a one-line ValueError."""
    if type(bundle) is not Bundle:
        raise ValueError(f"a bundle is a Bundle, not {bundle!r}")


def hom_dimension(space: Space, irrep: IrrepLabel, bundle: Bundle) -> int:
    """dim Hom_K(V_irrep restricted to K, fiber of the bundle), after
    checking that the space is a Space, the irrep an IrrepLabel of its
    group and the bundle a Bundle; _hom_count does the counting."""
    group = space_group(space)
    _check_irrep(irrep)
    if irrep.group is not group:
        raise ValueError(f"{space.value} needs labels of {group.value}")
    _check_bundle(bundle)
    return _hom_count(space, bundle, irrep.labels)


def _hom_count(space: Space, bundle: Bundle, labels: Tuple[int, ...]) -> int:
    """dim Hom_K for a raw label tuple of the space's group, with no
    argument checks: the callers have validated the space and the bundle
    and walked the labels.

    S3 x S3 counts intermediate Clebsch-Gordan labels per fiber label.  CP3
    sums Kostant's SO5 -> U2 branching over the fiber types, and the flag
    Kostant's weight multiplicities over the fiber weights, one signed
    Weyl sum per point.  Before the sum is returned, the top type or
    weight must have multiplicity 1, no multiplicity read may be negative,
    and the multiplicities must agree on each dual pair (CP3) or Weyl
    orbit (flag) of fiber points; each check raises AssertionError, also
    under `python -O`.  The weight tables of `weight_multiplicities` and
    `restrict_so5_to_u2` are not on this path; the tests use them as
    oracles.
    """
    if space is _S3XS3:
        total = 0
        for k in _ISOTROPY_MODULES[space, bundle]:
            total += _diagonal_su2_multiplicity(labels, k)
        return total

    # top = lambda + rho scaled: 2 (a + 3/2, b + 1/2) for so5, and for su3
    # 3 times the simple-root coordinates of k omega1 + l omega2 + rho
    x, y = labels
    if space is _CP3:
        top, weyl, scale = (2 * x + 3, 2 * y + 1), _SO5_WEYL, 2
    else:
        top, weyl, scale = (2 * x + y + 3, x + 2 * y + 3), _SU3_WEYL, 3
    images = _weyl_images(weyl, top)
    m = _kostant(images, scale, top)
    if m != 1:
        name = f"E({x - y},{x + y})" if space is _CP3 else f"({x}, {y})"
        raise AssertionError(f"V({x},{y}): top {name} has multiplicity {m}")
    shared: Dict[str, int] = {}
    total = 0
    for point, symmetry_class in _FIBER_POINTS[space, bundle]:
        m = _kostant(images, scale, point)
        if m < 0:
            raise AssertionError(f"V({x},{y}): negative Kostant multiplicity on {symmetry_class}")
        if shared.setdefault(symmetry_class, m) != m:
            raise AssertionError(f"V({x},{y}): Kostant multiplicities differ on {symmetry_class}")
        total += m
    return total
