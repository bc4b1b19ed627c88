"""Oracles and the subprocess harness shared by more than one test
module."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import nkspectra
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


def _naive_mul(a, b):
    """The 3x3 Gaussian-rational product (AB)_rc = sum_k A_rk B_kc as a
    triple sum over dense (re, im) Fraction pairs, read from and returned
    as {(p, q): (re, im)} with the zero entries left out."""
    dense_a, dense_b = (
        [[tuple(map(Fraction, m.get((p, q), (0, 0)))) for q in range(3)] for p in range(3)]
        for m in (a, b)
    )
    out = {}
    for r in range(3):
        for c in range(3):
            re = im = Fraction(0)
            for k in range(3):
                (ar, ai), (br, bi) = dense_a[r][k], dense_b[k][c]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            if re or im:
                out[(r, c)] = (re, im)
    return out


@pytest.fixture(scope="session")
def naive_mul():
    return _naive_mul


def _run_python(args, *flags):
    """Run `python *flags *args` in a fresh interpreter that imports this
    checkout, with stdout and stderr captured as bytes."""
    src = os.path.dirname(os.path.dirname(nkspectra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *flags, *args], capture_output=True, env=env, timeout=60
    )


@pytest.fixture(scope="session")
def run_python():
    return _run_python
