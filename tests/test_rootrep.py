"""Root-system layer: Casimir eigenvalues, Weyl dimensions and weight
multiplicities, cross-checked against independent matrix models."""

import itertools
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkspectra import rootrep
from nkspectra.branching import _diagonal_su2_multiplicity
from nkspectra.rootrep import (
    MAX_LABEL_BOX,
    Group,
    IrrepLabel,
    LabelBoxTooLarge,
    casimir_eigenvalue,
    dimension,
    iter_labels,
    laplace_eigenvalue,
    so5_label,
    su2_label,
    su2cubed_label,
    su3_label,
    tensor_decompose_su2,
    weight_inner,
    weight_multiplicities,
)

# ---------------------------------------------------------------------------
# matrix-model oracles: Casimir on a concrete faithful representation,
# computed as sum of rho(x_k)^2 / (-B(x_k, x_k)) over a -B-orthogonal basis


def _su2_standard_casimir() -> Fraction:
    # basis a=[[0,1],[-1,0]], b=[[0,i],[i,0]], c=[[i,0],[0,-i]];
    # each squares to -I and -B(x,x) = -4 tr(x^2) = 8
    return Fraction(3) * Fraction(-1, 8)


def test_su2_standard_casimir_matches_matrix_model():
    assert casimir_eigenvalue(su2_label(1)) == _su2_standard_casimir()
    assert casimir_eigenvalue(su2_label(1)) == Fraction(-3, 8)


def test_su3_standard_casimir_matches_matrix_model():
    # the nine u_3 generators live in the dga module; assemble the su_3
    # Casimir from a -B-orthogonal basis (B = 6 tr for su_3)
    from nkspectra.dga import LIE_BASIS, gq, mat_mul, mat_scale, mat_sub

    mats = LIE_BASIS.matrices
    es = mats[:6]
    t1 = mat_sub(mats[6], mats[7])
    t2_raw = mat_sub(
        mat_sub(mat_scale(mats[6], gq(1)), mat_scale(mats[8], gq(2))),
        mat_scale(mats[7], gq(-1)),
    )  # h1 + h2 - 2 h3

    def minus_b(x):
        t = mat_mul(x, x)
        trace = t[0][0].re + t[1][1].re + t[2][2].re
        return -6 * trace

    total = [[Fraction(0)] * 3 for _ in range(3)]
    for x in list(es) + [t1, t2_raw]:
        sq = mat_mul(x, x)
        w = minus_b(x)
        for r in range(3):
            for c in range(3):
                assert sq[r][c].im == 0 or r != c
                total[r][c] += sq[r][c].re / w
    for r in range(3):
        for c in range(3):
            expected = casimir_eigenvalue(su3_label(1, 0)) if r == c else 0
            assert total[r][c] == expected
    assert casimir_eigenvalue(su3_label(1, 0)) == Fraction(-4, 9)


def test_so5_standard_casimir_matches_matrix_model():
    # so_5 basis E_ab - E_ba squares to -(E_aa + E_bb); every index lies
    # in four pairs, so the sum is -4 I; -B(x,x) = -3 tr(x^2) = 6
    n = 5
    pair_count = n - 1
    cas = Fraction(-pair_count, 6)
    assert casimir_eigenvalue(so5_label(1, 0)) == cas == Fraction(-2, 3)


def test_adjoint_casimirs_are_minus_one():
    assert casimir_eigenvalue(su2_label(2)) == -1
    assert casimir_eigenvalue(su2cubed_label(2, 0, 0)) == -1
    assert casimir_eigenvalue(su2cubed_label(0, 2, 0)) == -1
    assert casimir_eigenvalue(su2cubed_label(0, 0, 2)) == -1
    assert casimir_eigenvalue(so5_label(1, 1)) == -1
    assert casimir_eigenvalue(su3_label(1, 1)) == -1


def test_laplace_normalization():
    # eigenvalue = -Cas / (1/12); adjoint reps sit at 12
    assert laplace_eigenvalue(su3_label(1, 1)) == 12
    assert laplace_eigenvalue(so5_label(1, 1)) == 12
    assert laplace_eigenvalue(su2cubed_label(2, 0, 0)) == 12
    assert laplace_eigenvalue(su3_label(0, 0)) == 0
    assert laplace_eigenvalue(so5_label(1, 0)) == 8
    assert laplace_eigenvalue(su3_label(1, 0)) == Fraction(16, 3)


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize(
    "label,dim",
    [
        (su2_label(0), 1),
        (su2_label(5), 6),
        (su2cubed_label(2, 3, 1), 24),
        (so5_label(0, 0), 1),
        (so5_label(1, 0), 5),
        (so5_label(1, 1), 10),
        (so5_label(2, 0), 14),
        (so5_label(2, 1), 35),
        (so5_label(2, 2), 35),
        (so5_label(4, 1), 154),
        (su3_label(1, 0), 3),
        (su3_label(0, 1), 3),
        (su3_label(1, 1), 8),
        (su3_label(3, 0), 10),
        (su3_label(2, 2), 27),
    ],
)
def test_weyl_dimensions(label, dim):
    assert dimension(label) == dim


# ---------------------------------------------------------------------------
# weight multiplicities


def test_su3_adjoint_weight_table():
    table = weight_multiplicities(su3_label(1, 1)).as_dict()
    zero = tuple(Fraction(0) for _ in range(3))
    assert table[zero] == 2
    roots = [
        (1, -1, 0), (1, 0, -1), (0, 1, -1),
        (-1, 1, 0), (-1, 0, 1), (0, -1, 1),
    ]
    for r in roots:
        assert table[tuple(Fraction(q) for q in r)] == 1
    assert len(table) == 7


def _sym_weights(power, sign):
    # weights of Sym^power applied to the standard rep (sign=+1) or its
    # dual (sign=-1), in traceless coordinates
    basic = [
        tuple(sign * (Fraction(1 if i == j else 0) - Fraction(1, 3)) for j in range(3))
        for i in range(3)
    ]
    out = Counter()
    for combo in itertools.combinations_with_replacement(basic, power):
        total = tuple(sum(col) for col in zip(*combo)) if combo else (Fraction(0),) * 3
        out[total] += 1
    return out


def _zero_weight_count_product(k, l):
    if k < 0 or l < 0:
        return 0
    left = _sym_weights(k, +1)
    right = _sym_weights(l, -1)
    return sum(m * right.get(tuple(-q for q in w), 0) for w, m in left.items())


def test_su3_zero_weight_multiplicity_by_brute_force():
    # V(k,l) is the kernel of the contraction Sym^k E (x) Sym^l E* ->
    # Sym^(k-1) E (x) Sym^(l-1) E*, so its zero-weight multiplicity is the
    # difference of the product counts; also pins the values used elsewhere
    for k, l in [(1, 1), (2, 2), (3, 0), (2, 1), (0, 0), (4, 1), (3, 3)]:
        expected = _zero_weight_count_product(k, l) - _zero_weight_count_product(k - 1, l - 1)
        table = weight_multiplicities(su3_label(k, l)).as_dict()
        zero = tuple(Fraction(0) for _ in range(3))
        assert table.get(zero, 0) == expected
    assert _zero_weight_count_product(1, 1) - _zero_weight_count_product(0, 0) == 2
    assert _zero_weight_count_product(2, 2) - _zero_weight_count_product(1, 1) == 3


def test_so5_adjoint_weight_table():
    table = weight_multiplicities(so5_label(1, 1)).as_dict()
    zero = (Fraction(0), Fraction(0))
    assert table[zero] == 2
    for w in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert table[tuple(Fraction(q) for q in w)] == 1
    assert weight_multiplicities(so5_label(1, 1)).total() == 10


def test_so5_frozen_table_2_1():
    table = weight_multiplicities(so5_label(2, 1)).as_dict()
    assert weight_multiplicities(so5_label(2, 1)).total() == 35
    assert table[(Fraction(2), Fraction(1))] == 1
    assert table[(Fraction(1), Fraction(0))] == 3
    assert table[(Fraction(0), Fraction(0))] == 3
    assert table[(Fraction(1), Fraction(1))] == 2


def test_weight_totals_match_weyl_dimension_up_to_60():
    for group in Group:
        labels = iter_labels(group, Fraction(60))
        assert labels, group
        for label in labels:
            assert weight_multiplicities(label).total() == dimension(label)


# ---------------------------------------------------------------------------
# Clebsch-Gordan


def test_tensor_decompose_example():
    assert tensor_decompose_su2(2, 2) == [(4, 1), (2, 1), (0, 1)]


def test_tensor_decompose_dimension_sum():
    for a in range(6):
        for b in range(6):
            total = sum((k + 1) * m for k, m in tensor_decompose_su2(a, b))
            assert total == (a + 1) * (b + 1)


def test_diagonal_restriction_of_triple_product():
    total = sum((k + 1) * _diagonal_su2_multiplicity((2, 2, 2), k) for k in range(8))
    assert total == 27


# ---------------------------------------------------------------------------
# property tests


_GROUP_LABELS = {
    Group.SU2: st.tuples(st.integers(0, 14)),
    Group.SU2_CUBED: st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
    ),
    Group.SO5: st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
        lambda ab: (max(ab), min(ab))
    ),
    Group.SU3: st.tuples(st.integers(0, 7), st.integers(0, 7)),
}


@st.composite
def _labels(draw):
    group = draw(st.sampled_from(sorted(Group, key=lambda g: g.value)))
    return IrrepLabel(group, tuple(draw(_GROUP_LABELS[group])))


@given(_labels())
@settings(max_examples=150, deadline=None)
def test_casimir_is_nonpositive_and_zero_only_for_trivial(label):
    cas = casimir_eigenvalue(label)
    assert cas <= 0
    assert (cas == 0) == label.is_trivial
    assert laplace_eigenvalue(label) >= 0


@given(_labels())
@settings(max_examples=60, deadline=None)
def test_dimension_positive_and_table_consistent(label):
    dim = dimension(label)
    assert dim >= 1
    if dim <= 600:
        assert weight_multiplicities(label).total() == dim


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_casimir_monotone_in_su2_label(a, b):
    if a < b:
        assert casimir_eigenvalue(su2_label(a)) > casimir_eigenvalue(su2_label(b))


def test_weight_inner_normalizations():
    # highest root has squared length 1/3 at -B for su3/so5, 1/2 for su2
    assert weight_inner(Group.SU2, (2,), (2,)) == Fraction(1, 2)
    assert weight_inner(Group.SU3, (1, 0, -1), (1, 0, -1)) == Fraction(1, 3)
    assert weight_inner(Group.SO5, (1, 1), (1, 1)) == Fraction(1, 3)
    # su3 inner is computed on sum-zero representatives
    assert weight_inner(Group.SU3, (1, 1, 1), (5, -2, 9)) == 0


def test_iter_labels_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        iter_labels(Group.SU3, Fraction(-1))


# the first refused cutoff per family is the eigenvalue of the last axis
# label below a too large box: 49999 (su2: 50001 > MAX_LABEL_BOX), 35
# (su2^3: 37^3 > MAX_LABEL_BOX) or 222 (so5 and su3: 224^2 > MAX_LABEL_BOX)
_FIRST_REFUSED = {
    Group.SU2: Fraction(7499999997, 2),
    Group.SU2_CUBED: Fraction(3885, 2),
    Group.SO5: Fraction(99900),
    Group.SU3: Fraction(66600),
}


def test_label_box_bound():
    # sizing the box happens on the call, before any label is walked;
    # cutoff 1000 needs 26^3 su2^3, 27^2 su3 and 22^2 so5 box labels
    for group in (Group.SU2_CUBED, Group.SO5, Group.SU3):
        iter_labels(group, Fraction(1000))
    with pytest.raises(LabelBoxTooLarge, match=str(MAX_LABEL_BOX)):
        iter_labels(Group.SU2_CUBED, Fraction(2000))
    with pytest.raises(LabelBoxTooLarge):
        iter_labels(Group.SU3, Fraction(10) ** 9)
    # 6 * eigenvalue is an integer, so one sixth below is the next
    # cutoff down that can change the label set
    for group, cutoff in _FIRST_REFUSED.items():
        with pytest.raises(LabelBoxTooLarge, match=re.escape(group.value)):
            iter_labels(group, cutoff)
        iter_labels(group, cutoff - Fraction(1, 6))


@pytest.mark.parametrize("group", list(Group), ids=lambda g: g.value)
def test_iter_labels_matches_brute_force_box(group):
    # the closed forms 3k(k+2)/2 per su2 factor, 2(a(a+3) + b(b+1)) for
    # so5 and 4(k^2 + kl + l^2 + 3k + 3l)/3 for su3 are all at least
    # 4/3 (largest label)^2, so no label with an entry >= 11 reaches 150
    # and none with an entry >= 16 reaches 300
    rank = {Group.SU2: 1, Group.SU2_CUBED: 3}.get(group, 2)
    for cutoff, box in ((Fraction(150), range(11)), (Fraction(300), range(16))):
        expected = []
        for labels in itertools.product(box, repeat=rank):
            if group is Group.SO5 and labels[0] < labels[1]:
                continue
            if laplace_eigenvalue(IrrepLabel(group, labels)) <= cutoff:
                expected.append(labels)
        walked = [lab.labels for lab in iter_labels(group, cutoff)]
        assert sorted(walked) == expected
        assert len(walked) == len(set(walked))


@pytest.mark.parametrize("group", list(Group), ids=lambda g: g.value)
def test_closed_forms_match_the_root_data_up_to_300(group, weyl_dimension):
    labels = list(iter_labels(group, Fraction(300)))
    assert labels
    for label in labels:
        assert laplace_eigenvalue(label) == -casimir_eigenvalue(label, Fraction(1, 12))
        assert dimension(label) == weyl_dimension(label)


def test_closed_form_checks_fire(monkeypatch):
    # b(b + 1) -> b^2 in the so5 eigenvalue; (k + l + 2) -> (k + l + 1)
    # in the su3 dimension, which the weight table total catches
    monkeypatch.setitem(
        rootrep._SIX_LAPLACE, Group.SO5, lambda a, b: 12 * (a * (a + 3) + b * b)
    )
    with pytest.raises(AssertionError, match="not the Casimir"):
        rootrep._check_closed_forms()
    monkeypatch.setitem(
        rootrep._DIMENSION, Group.SU3, lambda k, l: (k + 1) * (l + 1) * (k + l + 1) // 2
    )
    with pytest.raises(AssertionError, match="miss the Weyl dimension"):
        weight_multiplicities(su3_label(2, 1))


def test_closed_form_checks_fire_under_dash_O():
    # the import runs the eigenvalue check, and the checks are explicit
    # raises, so python -O keeps them
    script = (
        "import sys\n"
        "seen = set()\n"
        "sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code.co_name))\n"
        "from nkspectra import rootrep as r\n"
        "sys.setprofile(None)\n"
        "fired = int('_check_closed_forms' in seen)\n"
        "r._SIX_LAPLACE[r.Group.SU3] = lambda k, l: 8 * (k * k + l * l + 3 * k + 3 * l)\n"
        "r._DIMENSION[r.Group.SO5] = lambda a, b: (a + 1) * (b + 1)\n"
        "for check in (r._check_closed_forms, lambda: r.weight_multiplicities(r.so5_label(2, 1))):\n"
        "    try:\n"
        "        check()\n"
        "    except AssertionError:\n"
        "        fired += 1\n"
        "raise SystemExit(fired + 1)\n"
    )
    src = os.path.dirname(os.path.dirname(rootrep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert proc.returncode == 4


def test_so5_label_validation():
    with pytest.raises(ValueError):
        so5_label(1, 2)
    with pytest.raises(ValueError):
        su2_label(-1)
