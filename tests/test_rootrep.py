"""Root-system layer: Casimir eigenvalues, Weyl dimensions and weight
multiplicities, cross-checked against independent matrix models."""

import itertools
import math
import re
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
    canonical_weight,
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


def test_su3_standard_casimir_matches_matrix_model(naive_mul):
    # the nine u_3 generators live in the dga module; assemble the su_3
    # Casimir from a -B-orthogonal basis (B = 6 tr for su_3)
    from nkspectra.dga import BASIS_UNITS

    t1 = {(0, 0): (0, 1), (1, 1): (0, -1)}  # h1 - h2
    t2_raw = {(0, 0): (0, 1), (1, 1): (0, 1), (2, 2): (0, -2)}  # h1 + h2 - 2 h3

    total = [[Fraction(0)] * 3 for _ in range(3)]
    for x in BASIS_UNITS[:6] + (t1, t2_raw):
        sq = naive_mul(x, x)
        minus_b = -6 * sum(sq.get((p, p), (0, 0))[0] for p in range(3))
        for (r, c), (re, im) in sq.items():
            assert im == 0 or r != c
            total[r][c] += re / minus_b
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


def _sym_weights(basic, power):
    # weights of Sym^power of the module whose weights (one per basis
    # vector) are `basic`, with multiplicity; none for a negative power
    out = Counter()
    if power < 0:
        return out
    for combo in itertools.combinations_with_replacement(basic, power):
        out[tuple(map(sum, zip(*combo))) if combo else (0,) * len(basic[0])] += 1
    return out


# the weights of E and its dual in traceless su3 coordinates, and of C^5
# in so5 epsilon coordinates
_E, _E_DUAL = (
    [
        tuple(sign * (Fraction(1 if i == j else 0) - Fraction(1, 3)) for j in range(3))
        for i in range(3)
    ]
    for sign in (1, -1)
)
_C5 = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]


def _difference(big, small):
    # big - small as a table of positive multiplicities; nothing may go
    # negative
    out = Counter(big)
    out.subtract(small)
    assert min(out.values(), default=0) >= 0
    return {w: m for w, m in out.items() if m}


def _product_weights(k, l):
    # the weights of Sym^k E (x) Sym^l E*
    out = Counter()
    for w, m in _sym_weights(_E, k).items():
        for v, n in _sym_weights(_E_DUAL, l).items():
            out[tuple(p + q for p, q in zip(w, v))] += m * n
    return out


def test_su3_zero_weight_multiplicity_by_brute_force():
    # V(k,l) is the kernel of the contraction Sym^k E (x) Sym^l E* ->
    # Sym^(k-1) E (x) Sym^(l-1) E*, so its weight table is the difference
    # of the product tables; also pins the zero-weight values used elsewhere
    zero = tuple(Fraction(0) for _ in range(3))
    for k, l in [(1, 1), (2, 2), (3, 0), (2, 1), (0, 0), (4, 1), (3, 3)]:
        expected = _difference(_product_weights(k, l), _product_weights(k - 1, l - 1))
        table = weight_multiplicities(su3_label(k, l)).as_dict()
        assert table == expected, (k, l)
    assert _difference(_product_weights(1, 1), _product_weights(0, 0))[zero] == 2
    assert _difference(_product_weights(2, 2), _product_weights(1, 1))[zero] == 3


def test_so5_symmetric_power_tables_by_harmonic_polynomials():
    # Sym^a C^5 = V(a,0) + r^2 Sym^(a-2) C^5, the harmonic polynomials of
    # degree a and the multiples of the invariant quadric
    for a in range(9):
        expected = _difference(_sym_weights(_C5, a), _sym_weights(_C5, a - 2))
        assert weight_multiplicities(so5_label(a, 0)).as_dict() == expected, a


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
    assert (cas == 0) == (not any(label.labels))
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


def test_weights_refuse_inexact_coordinates():
    # 0.1 became 3602879701896397/36028797018963968, True read as 1 and
    # '1/2' as 1/2, and None, as a coordinate or as the weight, raised a
    # bare TypeError
    table = weight_multiplicities(so5_label(1, 1))
    for bad in (0.1, True, "1/2", None, 1.0):
        for read in (
            lambda w: canonical_weight(Group.SO5, w),
            lambda w: weight_inner(Group.SO5, w, (1, 0)),
            lambda w: weight_inner(Group.SO5, (1, 0), w),
            table.multiplicity,
        ):
            for weight in ((bad, 0), bad):
                with pytest.raises(ValueError) as err:
                    read(weight)
                assert "\n" not in str(err.value)
    assert table.multiplicity((1, Fraction(0))) == 1
    third = Fraction(1, 3)
    assert canonical_weight(Group.SU3, (1, Fraction(0), 0)) == (2 * third, -third, -third)


def test_a_weight_with_the_wrong_number_of_coordinates_is_refused():
    # the group is named by its value, as in every other refusal, not by
    # its Enum repr Group.SO5
    with pytest.raises(ValueError) as err:
        canonical_weight(Group.SO5, (1, 2, 3))
    assert str(err.value) == "expected 2 coordinates for so5"


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
    # sizing the box happens on the call, before any label is walked; at
    # cutoff 1000 the refusal measure (edge + 1)^rank is 26^3 for su2^3,
    # 27^2 for su3 and 22^2 for so5, and the walk reads edge^rank labels
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


def _walk_labels_by_axis(group, cutoff):
    """The label walk built one axis at a time, the oracle of the box
    walk: each tuple is extended by 0, 1, ... up to the first label above
    the cutoff, the later coordinates held at 0; so5 labels keep a >= b."""
    bound = math.floor(6 * cutoff)
    rank = rootrep._RANK[group]
    six = rootrep._SIX_LAPLACE[group]
    heads = [()]
    for axis in range(rank):
        pad = (0,) * (rank - axis - 1)
        longer = []
        for head in heads:
            stop = head[0] + 1 if group is Group.SO5 and head else math.inf
            n = 0
            while n < stop and six(*head, n, *pad) <= bound:
                longer.append(head + (n,))
                n += 1
        heads = longer
    return heads


@pytest.mark.parametrize("group", list(Group), ids=lambda g: g.value)
def test_the_box_walk_matches_the_axis_walk(group):
    # the same labels in the same order, up to the largest accepted cutoff
    largest = _FIRST_REFUSED[group] - Fraction(1, 6)
    for cutoff in (Fraction(0), Fraction(12), Fraction(300), Fraction(1000), largest):
        walked = rootrep._walk_labels(group, cutoff)
        assert walked == _walk_labels_by_axis(group, cutoff), cutoff
    assert walked


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
    # casimir_eigenvalue works in integers; the Fraction weights and pairing
    # of canonical_weight and weight_inner are its oracle
    labels = list(iter_labels(group, Fraction(300)))
    assert labels
    rho = rootrep.root_system(group).rho
    for label in labels:
        hw = label.highest_weight()
        shifted = tuple(g + 2 * r for g, r in zip(hw, rho))
        assert casimir_eigenvalue(label) == -weight_inner(group, hw, shifted)
        assert laplace_eigenvalue(label) == -12 * casimir_eigenvalue(label)
        assert dimension(label) == weyl_dimension(label)


def test_closed_form_checks_fire(monkeypatch):
    # b(b + 1) -> b^2 in the so5 eigenvalue; (k + l + 2) -> (k + l + 1)
    # in the su3 dimension, which the weight table total catches too
    with monkeypatch.context() as planted:
        planted.setitem(
            rootrep._SIX_LAPLACE, Group.SO5, lambda a, b: 12 * (a * (a + 3) + b * b)
        )
        with pytest.raises(AssertionError, match="not the Casimir"):
            rootrep._check_closed_forms()
    monkeypatch.setitem(
        rootrep._DIMENSION, Group.SU3, lambda k, l: (k + 1) * (l + 1) * (k + l + 1) // 2
    )
    with pytest.raises(AssertionError, match=r"^su3 V\(0,0\): dimension is not Weyl's product$"):
        rootrep._check_closed_forms()
    with pytest.raises(AssertionError, match="miss the Weyl dimension"):
        weight_multiplicities(su3_label(2, 1))


@pytest.mark.parametrize(
    "plant,fault,message",
    [
        # su3's (k + l + 2) typed as (k + l + 1), which once printed an nk
        # moduli upper bound of 4 on the flag; so5's (a - b + 1) as (a - b),
        # which vanishes only on the diagonal a = b
        ("(k + l + 2) // 2", "(k + l + 1) // 2", "su3 V(0,0): dimension is not Weyl's product"),
        ("(a + b + 2) * (a - b + 1) // 6", "(a + b + 2) * (a - b) // 6",
         "so5 V(0,0): dimension is not Weyl's product"),
        # a cubic term that vanishes on {0, 1, 2}^2 but not at a = 3
        ("(a - b + 1) // 6,", "(a - b + 1) // 6 + a * (a - 1) * (a - 2),",
         "so5 V(3,0): dimension is not Weyl's product"),
    ],
    ids=["su3", "so5", "so5-cubic"],
)
@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "dash-O"])
def test_a_dimension_typo_fails_at_import(plant, fault, message, flags, run_planted):
    # the import proves _DIMENSION against Weyl's product over the roots
    # with an explicit raise, so python -O keeps it
    proc = run_planted(rootrep, plant, fault, "import nkspectra", flags)
    assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == f"AssertionError: {message}"


def test_closed_form_check_sees_a_cross_term(monkeypatch):
    # a b is quadratic, so the labels with entry sum <= 2 must catch it:
    # V(1,1,0) is the one label where it is nonzero
    monkeypatch.setitem(
        rootrep._SIX_LAPLACE,
        Group.SU2_CUBED,
        lambda a, b, c: 9 * (a * (a + 2) + b * (b + 2) + c * (c + 2)) + a * b,
    )
    with pytest.raises(AssertionError, match=r"su2\^3 V\(1,1,0\): eigenvalue is not"):
        rootrep._check_closed_forms()


def test_closed_form_checks_fire_under_dash_O(run_python):
    # the import runs the closed-form checks, and the checks are explicit
    # raises, so python -O keeps them: a wrong su3 eigenvalue and, once it
    # is restored, a wrong so5 dimension each fail the closed-form check,
    # and the dimension also the weight table total
    script = (
        "import sys\n"
        "seen = set()\n"
        "sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code.co_name))\n"
        "from nkspectra import rootrep as r\n"
        "sys.setprofile(None)\n"
        "fired = int('_check_closed_forms' in seen)\n"
        "six = r._SIX_LAPLACE[r.Group.SU3]\n"
        "r._SIX_LAPLACE[r.Group.SU3] = lambda k, l: 8 * (k * k + l * l + 3 * k + 3 * l)\n"
        "checks = [r._check_closed_forms]\n"
        "checks.append(lambda: r._SIX_LAPLACE.update({r.Group.SU3: six}))\n"
        "r._DIMENSION[r.Group.SO5] = lambda a, b: (a + 1) * (b + 1)\n"
        "checks += [r._check_closed_forms, lambda: r.weight_multiplicities(r.so5_label(2, 1))]\n"
        "for check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except AssertionError:\n"
        "        fired += 1\n"
        "raise SystemExit(fired + 1)\n"
    )
    proc = run_python(["-c", script], "-O")
    assert proc.returncode == 5, proc.stderr


def test_so5_label_validation():
    with pytest.raises(ValueError):
        so5_label(1, 2)
    with pytest.raises(ValueError):
        su2_label(-1)
    # bool is an int subclass; V(True,False) would equal V(1,0)
    with pytest.raises(ValueError):
        su3_label(True, False)
    # a list label compared unequal to its tuple and was unhashable, and a
    # group named by its string raised a bare KeyError
    for group, labels in ((Group.SU3, [1, 1]), ("su3", (1, 1)), (None, (1,))):
        with pytest.raises(ValueError) as err:
            IrrepLabel(group, labels)
        assert "\n" not in str(err.value)
    # the group by its value: this read "Group.SU3 label needs ..."
    with pytest.raises(ValueError) as err:
        IrrepLabel(Group.SU3, [1, 1])
    assert str(err.value) == "su3 label needs a tuple of 2 entries"


@pytest.mark.parametrize(
    "call",
    [dimension, laplace_eigenvalue, casimir_eigenvalue, weight_multiplicities],
    ids=lambda f: f.__name__,
)
def test_label_arithmetic_refuses_a_label_tuple(call):
    # one check, _check_irrep, which restrict_so5_to_u2 and hom_dimension
    # share (tested in test_branching); a plain tuple ended in
    # AttributeError: 'tuple' object has no attribute 'group' (or
    # 'highest_weight' in casimir_eigenvalue)
    with pytest.raises(ValueError) as err:
        call((1, 1))
    assert str(err.value) == "an irrep is an IrrepLabel, not (1, 1)"


@pytest.mark.parametrize("a,b", [(1.5, 1), (True, 1), (1, "1"), (1, None), (-1, 1)], ids=repr)
def test_su2_tensor_refuses_a_label_that_is_not_a_nonnegative_int(a, b):
    # 1.5 ended in TypeError, and True was read as 1
    with pytest.raises(ValueError) as err:
        tensor_decompose_su2(a, b)
    assert str(err.value) == f"su2 labels are nonnegative ints, not {a!r} and {b!r}"
