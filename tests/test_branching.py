"""Isotropy fibers and Hom_K multiplicities for the three spaces."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkspectra import branching
from nkspectra.branching import (
    Bundle,
    Space,
    U2Label,
    hom_dimension,
    isotropy_module,
    restrict_so5_to_u2,
    space_data,
)
from nkspectra.rootrep import (
    Group,
    IrrepLabel,
    canonical_weight,
    dimension,
    iter_labels,
    so5_label,
    su2cubed_label,
    su3_label,
    weight_multiplicities,
)


def test_space_table():
    assert space_data(Space.S3XS3).isometry_dim == 9
    assert space_data(Space.CP3).isometry_dim == 10
    assert space_data(Space.FLAG).isometry_dim == 8
    assert space_data(Space.S3XS3).group is Group.SU2_CUBED
    assert space_data(Space.CP3).group is Group.SO5
    assert space_data(Space.FLAG).group is Group.SU3


def test_function_fibers_are_lines():
    for space in Space:
        mod = isotropy_module(space, Bundle.FUNCTIONS)
        assert mod.total_dimension() == 1


def test_primitive_fibers_have_dimension_eight():
    # also exercises the internal re-derivation from the tangent product
    for space in Space:
        mod = isotropy_module(space, Bundle.LAMBDA11)
        assert mod.total_dimension() == 8


def test_s3xs3_primitive_fiber_content():
    mod = isotropy_module(Space.S3XS3, Bundle.LAMBDA11)
    assert tuple(sorted(mod.content)) == (2, 4)


def test_cp3_primitive_fiber_content():
    mod = isotropy_module(Space.CP3, Bundle.LAMBDA11)
    assert set(mod.content) == {
        U2Label(0, 0),
        U2Label(1, -3),
        U2Label(1, 3),
        U2Label(2, 0),
    }


def test_flag_primitive_fiber_content():
    mod = isotropy_module(Space.FLAG, Bundle.LAMBDA11)
    zero = canonical_weight(Group.SU3, (0, 0, 0))
    assert mod.content.count(zero) == 2
    nonzero = [w for w in mod.content if w != zero]
    assert len(nonzero) == 6
    # the six nonzero weights come in opposite pairs and form one Weyl orbit
    assert sorted(nonzero) == sorted(tuple(-q for q in w) for w in nonzero)


def test_flag_fiber_weights_weyl_invariant():
    mod = isotropy_module(Space.FLAG, Bundle.LAMBDA11)
    bag = sorted(mod.content)
    for perm in [(1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)]:
        permuted = [tuple(w[i] for i in perm) for w in mod.content]
        assert sorted(permuted) == bag


def test_adjoint_restriction_has_six_summands():
    got = restrict_so5_to_u2(so5_label(1, 1))
    assert got == [
        (U2Label(0, -2), 1),
        (U2Label(0, 0), 1),
        (U2Label(0, 2), 1),
        (U2Label(1, -1), 1),
        (U2Label(1, 1), 1),
        (U2Label(2, 0), 1),
    ]
    assert sum(lab.dim * m for lab, m in got) == 10


def test_trivial_and_vector_restrictions():
    assert restrict_so5_to_u2(so5_label(0, 0)) == [(U2Label(0, 0), 1)]
    vec = dict(restrict_so5_to_u2(so5_label(1, 0)))
    assert vec == {U2Label(0, 0): 1, U2Label(1, -1): 1, U2Label(1, 1): 1}


def test_restriction_rejects_other_groups():
    with pytest.raises(ValueError):
        restrict_so5_to_u2(su3_label(1, 1))


_SMALL_SO5 = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda t: so5_label(max(t), min(t))
)


@given(_SMALL_SO5)
@settings(max_examples=60, deadline=None)
def test_restriction_dimension_count_and_self_duality(irrep):
    got = restrict_so5_to_u2(irrep)
    assert sum(lab.dim * m for lab, m in got) == dimension(irrep)
    assert all(m >= 1 for _, m in got)
    # so5 representations are self-dual, so the U2 content must be stable
    # under conjugation E(a, b) -> E(a, -b)
    as_dict = {(lab.a, lab.b): m for lab, m in got}
    assert as_dict == {(a, -b): m for (a, b), m in as_dict.items()}


def test_hom_examples():
    assert hom_dimension(Space.S3XS3, su2cubed_label(2, 0, 0), Bundle.LAMBDA11) == 1
    assert hom_dimension(Space.CP3, so5_label(1, 1), Bundle.LAMBDA11) == 2
    assert hom_dimension(Space.FLAG, su3_label(1, 1), Bundle.LAMBDA11) == 4
    assert hom_dimension(Space.FLAG, su3_label(1, 1), Bundle.FUNCTIONS) == 2
    assert hom_dimension(Space.CP3, so5_label(1, 1), Bundle.FUNCTIONS) == 1
    assert hom_dimension(Space.S3XS3, su2cubed_label(2, 0, 0), Bundle.FUNCTIONS) == 0


def test_hom_of_trivial_irrep():
    trivials = {
        Space.S3XS3: su2cubed_label(0, 0, 0),
        Space.CP3: so5_label(0, 0),
        Space.FLAG: su3_label(0, 0),
    }
    for space, lab in trivials.items():
        assert hom_dimension(space, lab, Bundle.FUNCTIONS) == 1
    # the invariant primitive (1,1) forms: none on S3 x S3, the Kaehler
    # line on CP3, two torus-invariant directions on the flag
    assert hom_dimension(Space.S3XS3, trivials[Space.S3XS3], Bundle.LAMBDA11) == 0
    assert hom_dimension(Space.CP3, trivials[Space.CP3], Bundle.LAMBDA11) == 1
    assert hom_dimension(Space.FLAG, trivials[Space.FLAG], Bundle.LAMBDA11) == 2


def test_hom_rejects_wrong_group():
    with pytest.raises(ValueError):
        hom_dimension(Space.CP3, su3_label(1, 1), Bundle.FUNCTIONS)
    with pytest.raises(ValueError):
        hom_dimension(Space.FLAG, so5_label(1, 1), Bundle.LAMBDA11)


def test_u2_label_validation():
    with pytest.raises(ValueError):
        U2Label(1, 0)
    with pytest.raises(ValueError):
        U2Label(-1, 1)
    assert U2Label(3, -1).dim == 4
    assert str(U2Label(0, 2)) == "E(0,2)"


def _peel_strings(weights):
    # independent su2 string peeler on a weight multiset
    profile = {}
    for w in weights:
        profile[w] = profile.get(w, 0) + 1
    out = {}
    while any(profile.values()):
        top = max(w for w, c in profile.items() if c > 0)
        count = profile[top]
        for m in range(-top, top + 1, 2):
            profile[m] = profile.get(m, 0) - count
            assert profile[m] >= 0
        out[top] = out.get(top, 0) + count
    return out


def _diagonal_weights(labels):
    # weights of V_a (x) V_b (x) V_c under the diagonal su2
    weights = [0]
    for k in labels:
        weights = [w + m for w in weights for m in range(-k, k + 1, 2)]
    return weights


def _peeled_hom(labels, bundle):
    content = _peel_strings(_diagonal_weights(labels))
    return sum(content.get(k, 0) for k in isotropy_module(Space.S3XS3, bundle).content)


@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
@settings(max_examples=60, deadline=None)
def test_diagonal_su2_content_against_weight_peeling(labels):
    content = _peel_strings(_diagonal_weights(labels))
    for k in range(sum(labels) + 2):
        assert branching._diagonal_su2_multiplicity(labels, k) == content.get(k, 0)
    for bundle in Bundle:
        got = hom_dimension(Space.S3XS3, su2cubed_label(*labels), bundle)
        assert got == sum(content.get(k, 0) for k in isotropy_module(Space.S3XS3, bundle).content)


def test_s3xs3_hom_against_weight_peeling_to_eigenvalue_150():
    labels = list(iter_labels(Group.SU2_CUBED, Fraction(150)))
    assert len(labels) > 100
    for lab in labels:
        for bundle in Bundle:
            expected = _peeled_hom(lab.labels, bundle)
            assert hom_dimension(Space.S3XS3, lab, bundle) == expected, (lab, bundle)


def test_s3xs3_hom_via_triple_tensor():
    content = {k: branching._diagonal_su2_multiplicity((2, 2, 2), k) for k in range(8)}
    assert content == {0: 1, 1: 0, 2: 3, 3: 0, 4: 2, 5: 0, 6: 1, 7: 0}
    lab = su2cubed_label(2, 2, 2)
    assert hom_dimension(Space.S3XS3, lab, Bundle.FUNCTIONS) == 1
    assert hom_dimension(Space.S3XS3, lab, Bundle.LAMBDA11) == 5


def test_flag_function_hom_is_zero_weight_multiplicity():
    zero = canonical_weight(Group.SU3, (0, 0, 0))
    for k, l in [(1, 1), (2, 2), (3, 0), (1, 0), (4, 1), (5, 2), (3, 6)]:
        lab = su3_label(k, l)
        expected = weight_multiplicities(lab).multiplicity(zero)
        assert hom_dimension(Space.FLAG, lab, Bundle.FUNCTIONS) == expected
    # the zero weight of V(k, l) has multiplicity min(k, l) + 1 when it
    # lies in the root lattice, k = l mod 3, and is absent otherwise
    for k in range(16):
        for l in range(16):
            expected = min(k, l) + 1 if (k - l) % 3 == 0 else 0
            got = hom_dimension(Space.FLAG, su3_label(k, l), Bundle.FUNCTIONS)
            assert got == expected, (k, l)


def _weight_table_homs(space, lab):
    """Hom for both bundles read off the weight-table oracles."""
    if space is Space.CP3:
        restricted = dict(restrict_so5_to_u2(lab))

        def mult(t):
            return restricted.get(t, 0)

    else:
        mult = weight_multiplicities(lab).multiplicity
    return {
        bundle: sum(mult(t) for t in isotropy_module(space, bundle).content)
        for bundle in Bundle
    }


def test_kostant_hom_matches_weight_tables_up_to_150():
    checked = 0
    for space in (Space.CP3, Space.FLAG):
        for lab in iter_labels(space_data(space).group, Fraction(150)):
            for bundle, expected in _weight_table_homs(space, lab).items():
                assert hom_dimension(space, lab, bundle) == expected, (space, lab, bundle)
                checked += 1
    assert checked == 176


def _flip_sign(index):
    def broken(table):
        sign, matrix = table[index]
        return table[:index] + ((-sign, matrix),) + table[index + 1:]

    return broken


def _two_root_partition(x, y):
    # partition function of beta1 and beta2 alone: drops beta1 + beta2
    return 1 if x >= 0 and y >= 0 else 0


@pytest.mark.parametrize(
    "space,attr,broken,message",
    [
        # entry 0 is the identity, so5 entry 1 the coordinate swap
        (Space.CP3, "_SO5_WEYL", _flip_sign(0), "top E"),
        (Space.FLAG, "_SU3_WEYL", _flip_sign(0), "top"),
        (Space.CP3, "_SO5_WEYL", _flip_sign(1), "add up to"),
        (Space.CP3, "_partition", lambda _: _two_root_partition, "negative"),
        (Space.FLAG, "_partition", lambda _: _two_root_partition, "add up to"),
    ],
)
def test_kostant_checks_fire(monkeypatch, space, attr, broken, message):
    label = so5_label(2, 1) if space is Space.CP3 else su3_label(2, 1)
    monkeypatch.setattr(branching, attr, broken(getattr(branching, attr)))
    with pytest.raises(AssertionError, match=message):
        hom_dimension(space, label, Bundle.FUNCTIONS)


def test_kostant_checks_fire_under_dash_O():
    # the checks are explicit raises, so python -O keeps them
    script = (
        "from nkspectra import branching as b\n"
        "from nkspectra.rootrep import su3_label\n"
        "(s, m), rest = b._SU3_WEYL[0], b._SU3_WEYL[1:]\n"
        "b._SU3_WEYL = ((-s, m),) + rest\n"
        "try:\n"
        "    b.hom_dimension(b.Space.FLAG, su3_label(1, 1), b.Bundle.FUNCTIONS)\n"
        "except AssertionError:\n"
        "    raise SystemExit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(branching.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert proc.returncode == 3


def test_isotropy_modules_are_built_once():
    for space in Space:
        for bundle in Bundle:
            assert isotropy_module(space, bundle) is isotropy_module(space, bundle)


def _broken_lambda11(space, content):
    return {**branching._LAMBDA11_CONTENT, space: content}


@pytest.mark.parametrize(
    "broken,message",
    [
        # the right dimension, but not the tangent product
        (_broken_lambda11(Space.S3XS3, (3, 3)), "not the derived one"),
        (_broken_lambda11(Space.CP3, (U2Label(0, 0), U2Label(2, 0))), "not 8-dimensional"),
        (
            _broken_lambda11(
                Space.FLAG,
                branching._LAMBDA11_CONTENT[Space.FLAG][:-1]
                + (canonical_weight(Group.SU3, (1, -1, 0)),),
            ),
            "not the derived one",
        ),
    ],
    ids=["s3xs3", "cp3", "flag"],
)
def test_isotropy_checks_fire(broken, message):
    with pytest.raises(AssertionError, match=message):
        branching._build_isotropy_modules(broken)


def test_isotropy_checks_fire_under_dash_O():
    # the checks are explicit raises, so python -O keeps them
    script = (
        "from nkspectra import branching as b\n"
        "broken = {**b._LAMBDA11_CONTENT, b.Space.S3XS3: (3, 3)}\n"
        "try:\n"
        "    b._build_isotropy_modules(broken)\n"
        "except AssertionError:\n"
        "    raise SystemExit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(branching.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert proc.returncode == 3
