"""Spectrum enumeration on homogeneous bundles and the deformation-space
upper bounds derived from it.

The Hermitian Laplace operator acts on the isotypic component of an
irrep gamma as the scalar laplace_eigenvalue(gamma), so enumerating the
spectrum up to a cutoff reduces to walking a finite label box and
counting Hom_K dimensions.  Everything downstream (eigenvalue-12
multiplicities, the nearly Kahler moduli bound, the Einstein eigenvalue
checks) is bookkeeping over these entries.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import List, NamedTuple, Tuple

from .branching import Bundle, Space, _check_bundle, _hom_count, _isotropy_casimirs, space_group
from .rootrep import (
    _LIE_DIMENSION,
    _SIX_LAPLACE,
    IrrepLabel,
    _walk_labels,
    dimension,
    laplace_eigenvalue,
)


_ENTRY_FIELDS = [("irrep", IrrepLabel), ("hom_dim", int), ("eigenvalue", Fraction)]


class SpectrumEntry(NamedTuple("SpectrumEntry", _ENTRY_FIELDS)):
    """One isotypic component, built from the irrep and its Hom_K
    dimension; the eigenvalue is stored once (the sort, the cutoff filter
    and the printer read it), the dimension and contribution derived."""

    __slots__ = ()

    def __new__(cls, irrep: IrrepLabel, hom_dim: int):
        if type(hom_dim) is not int or hom_dim < 1:
            raise ValueError(f"a Hom dimension is a positive int, not {hom_dim!r}")
        return tuple.__new__(cls, (irrep, hom_dim, laplace_eigenvalue(irrep)))

    # _make (so _replace), copy and pickle recompute the eigenvalue too
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:2]))

    def __getnewargs__(self):
        return self[:2]

    @property
    def irrep_dim(self) -> int:
        return dimension(self.irrep)

    @property
    def contribution(self) -> int:
        return self.hom_dim * self.irrep_dim


def enumerate_spectrum(
    space: Space, bundle: Bundle, cutoff
) -> List[SpectrumEntry]:
    """All isotypic components with eigenvalue <= cutoff and nonzero
    multiplicity, sorted by (eigenvalue, label).

    The space must be a Space, the bundle a Bundle and the cutoff a
    nonnegative int or Fraction; anything else raises ValueError.
    LabelBoxTooLarge is raised before any Hom is counted when the cutoff
    walks too many labels; below that bound every label's Hom is a sum of
    closed multiplicities over the fiber, so no other bound is needed.

    Hom is counted on the walk's plain label tuples, so an IrrepLabel and
    a SpectrumEntry, each validated by its constructor, are built only for
    the labels with a nonzero Hom.
    """
    group = space_group(space)
    _check_bundle(bundle)
    six_laplace = _SIX_LAPLACE[group]
    rows = [
        (six_laplace(*labels), SpectrumEntry(IrrepLabel(group, labels), hom))
        for labels in _walk_labels(group, cutoff)
        if (hom := _hom_count(space, bundle, labels))
    ]
    # the walk is lexicographic, so a stable sort on the integer
    # 6 * eigenvalue keeps equal eigenvalues in label order
    rows.sort(key=itemgetter(0))
    return [entry for _, entry in rows]


def eigenspace_multiplicity(space: Space, bundle: Bundle, eigenvalue) -> int:
    """Total multiplicity (sum of contributions) at one exact eigenvalue,
    a nonnegative int or Fraction like any cutoff."""
    return sum(
        e.contribution
        for e in enumerate_spectrum(space, bundle, eigenvalue)
        if e.eigenvalue == eigenvalue
    )


class ModuliReport(NamedTuple):
    """Inputs and output of the deformation-space dimension estimate
    dim <= dim Omega^(1,1)_0(12) - dim isometry - dim Omega^0(12).

    nk_upper_bound keeps the raw difference (negative values are
    meaningful: they witness slack in the inequality); reported_bound
    clamps at zero since a dimension cannot be negative.
    """

    space: Space
    dim_omega11_12: int
    dim_isometry: int
    dim_omega0_12: int

    @property
    def nk_upper_bound(self) -> int:
        return self.dim_omega11_12 - self.dim_isometry - self.dim_omega0_12

    def reported_bound(self) -> int:
        return max(0, self.nk_upper_bound)


def einstein_deformation_check(space: Space) -> Tuple[int, int]:
    """Multiplicities at the two low eigenvalues whose coexact (1,1)
    eigenspaces would carry infinitesimal Einstein deformations.  Both
    vanish on all three spaces."""
    return (
        eigenspace_multiplicity(space, Bundle.LAMBDA11, Fraction(2)),
        eigenspace_multiplicity(space, Bundle.LAMBDA11, Fraction(6)),
    )


def moduli_upper_bound(space: Space) -> ModuliReport:
    twelve = Fraction(12)
    return ModuliReport(
        space=space,
        dim_omega11_12=eigenspace_multiplicity(space, Bundle.LAMBDA11, twelve),
        dim_isometry=_LIE_DIMENSION[space_group(space)],
        dim_omega0_12=eigenspace_multiplicity(space, Bundle.FUNCTIONS, twelve),
    )


def scal_normalization_check(space: Space) -> Tuple[Fraction, Fraction]:
    """Consistency check tying the metric normalization to the curvature
    constants: the isotropy representation must have Casimir -1/3 on
    every summand.  That one condition gives both constants: the
    homogeneous scalar curvature 3/2 - 3 Cas = 5/2 and the curvature
    endomorphism on the tangent bundle -12 Cas = 4.  The Casimirs are
    read from branching's tangent modules, the ones the Hom counts read.
    Returns (Cas, scal); ValueError unless the space is a Space."""
    space_group(space)
    values = _isotropy_casimirs(space)
    cas = values[0]
    if any(v != cas for v in values):
        shown = ", ".join(map(str, values))
        raise AssertionError(f"{space.value}: isotropy Casimirs differ: [{shown}]")
    if cas != Fraction(-1, 3):
        raise AssertionError(f"{space.value}: isotropy Casimir {cas}, not -1/3")
    return (cas, Fraction(3, 2) - 3 * cas)
