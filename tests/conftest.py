"""Oracles and the subprocess harness shared by more than one test
module."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nkspectra
from nkspectra.branching import Bundle, Space, U2Label, isotropy_module, space_group
from nkspectra.rootrep import iter_labels, root_system, weight_inner


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


# Kostant's formulas as whole tables (Humphreys, GTM 9, section 24): a
# multiplicity at mu is the sum over the Weyl group of det(w) P(w(lambda +
# rho) - (mu + rho)), P counting the ways to write a vector as a sum of
# beta1, beta2 and beta1 + beta2 (the positive su3 roots, or the so5
# roots e1, e2, e1 + e2 outside u2).  The Weyl groups are generated here
# from their simple reflections, and every table must add up to the
# root-product Weyl dimension.

def _weyl_group(*reflections):
    """(determinant, matrix) for each element of the group that the 2x2
    integer reflections generate."""
    identity = ((1, 0), (0, 1))
    elements, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for s in reflections:
            h = tuple(
                tuple(sum(s[i][k] * g[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
            if h not in elements:
                elements.add(h)
                frontier.append(h)
    return [((a * d - b * c), ((a, b), (c, d))) for (a, b), (c, d) in sorted(elements)]


# su3 on Dynkin coordinates, so5 on doubled epsilon coordinates
_SU3_WEYL = _weyl_group(((-1, 0), (1, 1)), ((1, 1), (0, -1)))
_SO5_WEYL = _weyl_group(((0, 1), (1, 0)), ((1, 0), (0, -1)))
assert len(_SU3_WEYL) == 6 and len(_SO5_WEYL) == 8


def _images(weyl, x, y):
    return [(sign, (a * x + b * y, c * x + d * y)) for sign, ((a, b), (c, d)) in weyl]


def _partition(x, y):
    return min(x, y) + 1 if x >= 0 and y >= 0 else 0


def _su3_kostant_table(irrep):
    """{Dynkin coordinates: multiplicity} over the dominant weights
    lambda - i alpha1 - j alpha2 of an su3 irrep."""
    k, l = irrep.labels
    images = _images(_SU3_WEYL, k + 1, l + 1)
    table, total = {}, 0
    for i in range((2 * k + l) // 3 + 1):
        for j in range((k + 2 * l) // 3 + 1):
            x, y = k - 2 * i + j, l + i - 2 * j
            if x < 0 or y < 0:
                continue
            m = 0
            for sign, (u, v) in images:
                du, dv = u - x - 1, v - y - 1
                m += sign * _partition((2 * du + dv) // 3, (du + 2 * dv) // 3)
            if m:
                table[x, y] = m
                total += m * (1 if x == y == 0 else 3 if x == 0 or y == 0 else 6)
    assert table[k, l] == 1 and min(table.values()) > 0
    assert total == _weyl_dimension(irrep), irrep
    return table


def _so5_kostant_table(irrep):
    """{U2 type: multiplicity} of an so5 irrep, read over the weight
    octagon |l1|, |l2| <= a, |l1| + |l2| <= a + b."""
    a, b = irrep.labels
    images = _images(_SO5_WEYL, 2 * a + 3, 2 * b + 1)
    table, total = {}, 0
    for l1 in range(-a, a + 1):
        for l2 in range(-a, l1 + 1):
            if abs(l1) + abs(l2) > a + b:
                continue
            m = sum(
                sign * _partition((u - 2 * l1 - 3) // 2, (v - 2 * l2 - 1) // 2)
                for sign, (u, v) in images
            )
            if m:
                table[U2Label(l1 - l2, l1 + l2)] = m
                total += m * (l1 - l2 + 1)
    assert table[U2Label(a - b, a + b)] == 1 and min(table.values()) > 0
    assert total == _weyl_dimension(irrep), irrep
    return table


def _dominant(weight):
    s = sorted(weight, reverse=True)
    return (int(s[0] - s[1]), int(s[1] - s[2]))


@pytest.fixture(scope="session")
def kostant_homs():
    """{(space, label, bundle): Hom} on every cp3 and flag label up to
    eigenvalue 1000, read off the whole Kostant tables."""
    out = {}
    for space, table_of in ((Space.CP3, _so5_kostant_table), (Space.FLAG, _su3_kostant_table)):
        for lab in iter_labels(space_group(space), Fraction(1000)):
            table = table_of(lab)
            for bundle in Bundle:
                points = isotropy_module(space, bundle)
                if space is Space.FLAG:
                    points = map(_dominant, points)
                out[space, lab, bundle] = sum(table.get(p, 0) for p in points)
    return out


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


def _run_python(args, *flags, src=None):
    """Run `python *flags *args` in a fresh interpreter that imports the
    package under src (this checkout's by default), with stdout and stderr
    captured as bytes."""
    src = src or os.path.dirname(os.path.dirname(nkspectra.__file__))
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *flags, *args], capture_output=True, env=env, timeout=60
    )


@pytest.fixture(scope="session")
def run_python():
    return _run_python


@pytest.fixture
def run_planted(tmp_path):
    """run_planted(module, plant, fault, script, flags) runs `python *flags
    -c script` against a fresh copy of the package in which the module's
    source has its one occurrence of the plant text replaced by the fault."""
    copies = itertools.count()

    def run(module, plant, fault, script, flags):
        target = Path(module.__file__)
        package = tmp_path / str(next(copies)) / "nkspectra"
        package.mkdir(parents=True)
        for path in target.parent.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            if path == target:
                assert text.count(plant) == 1, plant
                text = text.replace(plant, fault)
            (package / path.name).write_text(text, encoding="utf-8")
        return _run_python(["-c", script], *flags, src=package.parent)

    return run


@pytest.fixture(scope="session")
def auxiliary_fields():
    """The Killing field's auxiliary 1-forms (a_1, a_2, a_3), written out
    by hand, with d v_1 = a_2 - a_3 and cyclically, and their rotations
    (J a_1, J a_2, J a_3)."""
    from nkspectra.dga import apply_j, e, symbol_form

    x = [symbol_form(f"x{i}") for i in range(1, 7)]
    a = (e(5) * x[5] - e(6) * x[4], e(4) * x[2] - e(3) * x[3], e(1) * x[1] - e(2) * x[0])
    return a, tuple(map(apply_j, a))
