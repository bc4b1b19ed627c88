"""Oracles shared by more than one test module."""

from fractions import Fraction

import pytest

from nkspectra.rootrep import root_system, weight_inner


def _weyl_dimension(irrep) -> int:
    """Weyl's dimension formula as the product over the positive roots,
    <lambda + rho, alpha> / <rho, alpha>, evaluated on the root data."""
    rs = root_system(irrep.group)
    shifted = tuple(g + r for g, r in zip(irrep.highest_weight(), rs.rho))
    value = Fraction(1)
    for alpha in rs.positive_roots:
        value *= weight_inner(irrep.group, shifted, alpha)
        value /= weight_inner(irrep.group, rs.rho, alpha)
    assert value.denominator == 1 and value > 0
    return int(value)


@pytest.fixture(scope="session")
def weyl_dimension():
    return _weyl_dimension
