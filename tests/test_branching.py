"""Isotropy fibers and Hom_K multiplicities for the three spaces."""

import random
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    space_group,
)
from nkspectra.rootrep import (
    _LIE_DIMENSION,
    Group,
    IrrepLabel,
    WeightTable,
    _pattern_weights,
    canonical_weight,
    dimension,
    iter_labels,
    root_system,
    so5_label,
    su2cubed_label,
    su3_label,
    weight_inner,
    weight_multiplicities,
)
from nkspectra.spectrum import enumerate_spectrum


def test_space_table():
    assert space_group(Space.S3XS3) is Group.SU2_CUBED
    assert space_group(Space.CP3) is Group.SO5
    assert space_group(Space.FLAG) is Group.SU3
    # the isometry dimensions the moduli bound subtracts
    assert [_LIE_DIMENSION[space_group(space)] for space in Space] == [9, 10, 8]


def test_function_fibers_are_lines():
    for space in Space:
        fiber = isotropy_module(space, Bundle.FUNCTIONS)
        assert branching._fiber_dimension(space, fiber) == 1


def test_primitive_fibers_have_dimension_eight():
    # also exercises the internal re-derivation from the tangent product
    for space in Space:
        fiber = isotropy_module(space, Bundle.LAMBDA11)
        assert branching._fiber_dimension(space, fiber) == 8


def test_s3xs3_primitive_fiber_content():
    fiber = isotropy_module(Space.S3XS3, Bundle.LAMBDA11)
    assert tuple(sorted(fiber)) == (2, 4)


def test_cp3_primitive_fiber_content():
    fiber = isotropy_module(Space.CP3, Bundle.LAMBDA11)
    assert set(fiber) == {
        U2Label(0, 0),
        U2Label(1, -3),
        U2Label(1, 3),
        U2Label(2, 0),
    }


def test_flag_primitive_fiber_content():
    fiber = isotropy_module(Space.FLAG, Bundle.LAMBDA11)
    zero = canonical_weight(Group.SU3, (0, 0, 0))
    assert fiber.count(zero) == 2
    nonzero = [w for w in fiber if w != zero]
    assert len(nonzero) == 6
    # the six nonzero weights come in opposite pairs and form one Weyl orbit
    assert sorted(nonzero) == sorted(tuple(-q for q in w) for w in nonzero)


def test_flag_fiber_weights_weyl_invariant():
    fiber = isotropy_module(Space.FLAG, Bundle.LAMBDA11)
    bag = sorted(fiber)
    for perm in [(1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)]:
        permuted = [tuple(w[i] for i in perm) for w in fiber]
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
    # a space or a bundle named by its string raised a bare KeyError, in
    # the Hom count and in the spectrum walk that calls it
    for call in (
        lambda: hom_dimension(Space.FLAG, su3_label(1, 1), "lambda11"),
        lambda: hom_dimension(Space.S3XS3, su2cubed_label(1, 1, 0), "lambda11"),
        lambda: hom_dimension("flag", su3_label(1, 1), Bundle.LAMBDA11),
        lambda: enumerate_spectrum("flag", Bundle.LAMBDA11, 12),
        lambda: enumerate_spectrum(Space.CP3, "functions", 12),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "irrep", [(1, 1), [1, 1], "V(1,1)", None, (Group.SU3, (1, 1))], ids=repr
)
def test_hom_refuses_an_irrep_that_is_not_an_irrep_label(irrep):
    # a label tuple ended in AttributeError: 'tuple' object has no
    # attribute 'group'
    with pytest.raises(ValueError) as err:
        hom_dimension(Space.FLAG, irrep, Bundle.LAMBDA11)
    assert str(err.value) == f"an irrep is an IrrepLabel, not {irrep!r}"


@pytest.mark.parametrize("irrep", [(1, 1), [1, 1], None, (Group.SO5, (1, 1))], ids=repr)
def test_restriction_refuses_an_irrep_that_is_not_an_irrep_label(irrep):
    # a label tuple ended in AttributeError: 'tuple' object has no
    # attribute 'group'
    with pytest.raises(ValueError) as err:
        restrict_so5_to_u2(irrep)
    assert str(err.value) == f"an irrep is an IrrepLabel, not {irrep!r}"


def _planted_weights(monkeypatch, weights):
    # restrict_so5_to_u2 reads these so5 weights, whatever its label
    def planted(irrep):
        entries = tuple(sorted((tuple(map(Fraction, w)), m) for w, m in weights.items()))
        return WeightTable(irrep, entries)

    monkeypatch.setattr(branching, "weight_multiplicities", planted)


@pytest.mark.parametrize(
    "weights,message",
    [
        # at charge 1 only m = -1: the top of the profile is negative
        ({(0, 1): 1}, "V(1,0): asymmetric string profile"),
        # at charge 0 the string E(2, 0) needs m = 0 and m = -2 as well
        ({(1, -1): 1}, "V(1,0): negative string count"),
    ],
    ids=["asymmetric", "negative-peel"],
)
def test_restriction_refuses_a_profile_that_is_not_strings(monkeypatch, weights, message):
    _planted_weights(monkeypatch, weights)
    with pytest.raises(AssertionError) as err:
        restrict_so5_to_u2(so5_label(1, 0))
    assert str(err.value) == message


def test_restriction_refuses_types_that_miss_the_weyl_dimension(monkeypatch):
    monkeypatch.setattr(branching, "dimension", lambda irrep: 4)
    with pytest.raises(AssertionError) as err:
        restrict_so5_to_u2(so5_label(1, 0))
    assert str(err.value) == "V(1,0): the U2 types miss the Weyl dimension"


def _peel_profiles(weights):
    # highest-weight peeling of each charge's m-profile, an independent
    # route to the U2 strings: the sorted (label, count) list, or None when
    # the profile is not a sum of strings
    by_charge = {}
    for (l1, l2), mult in weights.items():
        by_charge.setdefault(l1 + l2, Counter())[l1 - l2] += mult
    out = []
    for q, profile in by_charge.items():
        while any(profile.values()):
            top = max(m for m, c in profile.items() if c > 0)
            if top < 0:
                return None
            count = profile[top]
            for m in range(-top, top + 1, 2):
                profile[m] -= count
                if profile[m] < 0:
                    return None
            out.append((U2Label(top, q), count))
    return sorted(out)


def test_string_counts_agree_with_peeling_on_planted_profiles(monkeypatch):
    # seeded sums of strings over a few charges, half of them with one
    # multiplicity moved by +-1: the closed-form counts accept exactly the
    # profiles peeling accepts, with the same strings (the refusal
    # messages may differ, so only refusal is compared)
    rng = random.Random(3917)
    verdicts = Counter()
    for _ in range(400):
        weights = Counter()
        for q in rng.sample(range(-4, 5), rng.randint(1, 3)):
            for _ in range(rng.randint(1, 3)):
                m, count = rng.randrange(q % 2, 7, 2), rng.randint(1, 2)
                for k in range(-m, m + 1, 2):
                    weights[(q + k) // 2, (q - k) // 2] += count
        if rng.random() < 0.5:
            q = rng.randrange(-4, 5)
            k = 2 * rng.randint(-3, 3) + q % 2
            weights[(q + k) // 2, (q - k) // 2] += rng.choice((1, -1))
        weights = {w: c for w, c in weights.items() if c > 0}
        _planted_weights(monkeypatch, weights)
        monkeypatch.setattr(branching, "dimension", lambda irrep: sum(weights.values()))
        expected = _peel_profiles(weights)
        try:
            got = restrict_so5_to_u2(so5_label(1, 0))
        except AssertionError:
            got = None
        assert got == expected, weights
        verdicts[got is None] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_u2_label_validation():
    with pytest.raises(ValueError):
        U2Label(1, 0)
    with pytest.raises(ValueError):
        U2Label(-1, 1)
    assert U2Label(3, -1).dim == 4
    assert str(U2Label(0, 2)) == "E(0,2)"
    # U2Label(0.5, 0.5) had dim 1.5, and U2Label(True, True) equalled
    # E(1,1) but printed E(True,True)
    for a, b in ((0.5, 0.5), (True, True), (1, True), (2.0, 0), (Fraction(2), 0)):
        with pytest.raises(ValueError):
            U2Label(a, b)


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
    return sum(content.get(k, 0) for k in isotropy_module(Space.S3XS3, bundle))


@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
@settings(max_examples=60, deadline=None)
def test_diagonal_su2_content_against_weight_peeling(labels):
    content = _peel_strings(_diagonal_weights(labels))
    for k in range(sum(labels) + 2):
        assert branching._diagonal_su2_multiplicity(labels, k) == content.get(k, 0)
    for bundle in Bundle:
        got = hom_dimension(Space.S3XS3, su2cubed_label(*labels), bundle)
        assert got == sum(content.get(k, 0) for k in isotropy_module(Space.S3XS3, bundle))


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


def test_su3_weight_multiplicity_against_the_patterns():
    # every integer sum-zero weight in the box |w_i| <= k + l: the
    # Gelfand-Tsetlin count on the root lattice, k = l mod 3, where the
    # pattern weights shifted by (k + 2l) / 3 are the integer ones, and 0
    # off it, where V(k, l) has no integer weight
    for k in range(13):
        for l in range(13):
            shift, off_lattice = divmod(k + 2 * l, 3)
            patterns = Counter() if off_lattice else Counter({
                tuple(c - shift for c in w): m for w, m in _pattern_weights(su3_label(k, l)).items()
            })
            box = range(-k - l, k + l + 1)
            for u in box:
                for v in box:
                    w = (u, v, -u - v)
                    assert branching._su3_weight_multiplicity((k, l), w) == patterns[w], (k, l, w)


def test_u2_multiplicity_against_the_string_counts():
    # every E(m, c) with m + |c| <= 2a, the box that holds V(a, b)'s types
    for a in range(13):
        for b in range(a + 1):
            restricted = dict(restrict_so5_to_u2(so5_label(a, b)))
            for m in range(2 * a + 1):
                for c in range(m - 2 * a, 2 * a - m + 1, 2):
                    got = branching._u2_multiplicity((a, b), U2Label(m, c))
                    assert got == restricted.get(U2Label(m, c), 0), (a, b, m, c)


def _weight_table_homs(space, lab):
    """Hom for both bundles read off the weight-table oracles."""
    if space is Space.CP3:
        restricted = dict(restrict_so5_to_u2(lab))

        def mult(t):
            return restricted.get(t, 0)

    else:
        mult = weight_multiplicities(lab).multiplicity
    return {
        bundle: sum(mult(t) for t in isotropy_module(space, bundle))
        for bundle in Bundle
    }


def test_closed_multiplicity_hom_matches_weight_tables_up_to_300():
    # eigenvalue 300 is the benchmark's spectrum band
    checked = 0
    for space in (Space.CP3, Space.FLAG):
        for lab in iter_labels(space_group(space), Fraction(300)):
            for bundle, expected in _weight_table_homs(space, lab).items():
                assert hom_dimension(space, lab, bundle) == expected, (space, lab, bundle)
                checked += 1
    assert checked == 360


def _sweep_mismatches(kostant_homs):
    """The (space, label, bundle) keys whose Hom differs from the whole
    Kostant tables of the test oracle."""
    return [
        key for key, expected in kostant_homs.items() if hom_dimension(*key) != expected
    ]


def test_hom_matches_whole_kostant_tables_up_to_1000(kostant_homs):
    assert len(kostant_homs) == 1230
    assert _sweep_mismatches(kostant_homs) == []


# planted faults in the closed multiplicities, each with the message of the
# import check that refuses it: on the flag the cap without k and l,
# without k or without l, and the divisibility test dropped; on CP3 |c| read
# as c, the lower bound m - b or b dropped, and a + 1 read for a.  The su3
# labels off the root lattice, whose sum must be 0, are the only ones that
# see the dropped divisibility test
_MUTANTS = {
    "cap-without-k-l": ("else 1 + min(a, b, k, l)", "else 1 + min(a, b)",
                        "su3 V(0,3): the multiplicities add up to 11, not 10"),
    "cap-without-k": ("else 1 + min(a, b, k, l)", "else 1 + min(a, b, l)",
                      "su3 V(0,3): the multiplicities add up to 11, not 10"),
    "cap-without-l": ("else 1 + min(a, b, k, l)", "else 1 + min(a, b, k)",
                      "su3 V(3,0): the multiplicities add up to 11, not 10"),
    "no-divisibility": ("0 if off_lattice or a < 0", "0 if a < 0",
                        "su3 V(0,1): the multiplicities add up to 1, not 0"),
    "c-for-abs-c": ("(m + abs(c)) // 2", "(m + c) // 2",
                    "so5 V(1,0): the multiplicities add up to 6, not 5"),
    "no-m-minus-b": ("max(b, m - b, (m + abs(c))", "max(b, (m + abs(c))",
                     "so5 V(1,0): the multiplicities add up to 8, not 5"),
    "a-plus-1": ("min(a, m + b) - max", "min(a + 1, m + b) - max",
                 "so5 V(1,0): the multiplicities add up to 8, not 5"),
    "no-b": ("max(b, m - b, (m + abs(c))", "max(m - b, (m + abs(c))",
             "so5 V(1,1): the multiplicities add up to 11, not 10"),
}

def _planted(plant, fault, check=True):
    """branching's source, with its one occurrence of the plant text
    replaced by the fault (and, unless check, the import check's call
    taken out), run as a fresh module of the package."""
    source = Path(branching.__file__).read_text(encoding="utf-8")
    assert source.count(plant) == 1, plant
    source = source.replace(plant, fault)
    if not check:
        source = source.replace("\n_check_closed_multiplicities()\n", "\n")
    module = types.ModuleType(branching.__name__)
    module.__package__ = branching.__package__
    exec(compile(source, branching.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", list(_MUTANTS))
def test_each_closed_form_fault_is_caught(monkeypatch, kostant_homs, run_planted, name):
    # the import check refuses each fault, also under python -O, which
    # keeps its explicit raise; with that check taken out, the sweep
    # against the whole Kostant tables still sees the fault
    plant, fault, message = _MUTANTS[name]
    with pytest.raises(AssertionError) as err:
        _planted(plant, fault)
    assert str(err.value) == message
    proc = run_planted(branching, plant, fault, "import nkspectra", ("-O",))
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines()[-1] == f"AssertionError: {message}"
    module = _planted(plant, fault, check=False)
    monkeypatch.setattr(branching, "_MULTIPLICITY", dict(zip(Space, module._MULTIPLICITY.values())))
    assert _sweep_mismatches(kostant_homs), "the fault went unnoticed"


def test_isotropy_modules_are_built_once():
    # a fiber is its content tuple, the same object on every call
    for space in Space:
        for bundle in Bundle:
            fiber = isotropy_module(space, bundle)
            assert type(fiber) is tuple and fiber
            assert fiber is isotropy_module(space, bundle)


# a broken (1,0) tangent module per space: V_1 on S3 x S3, E(1,1) alone on
# CP3 and one root alone on the flag
_BROKEN_TANGENTS = {
    "s3xs3": ("_P10_S3XS3", (1,)),
    "cp3": ("_P10_CP3", (U2Label(1, 1),)),
    "flag": ("_FLAG_P10_ROOTS", ((1, -1, 0),)),
}


@pytest.mark.parametrize("space", list(_BROKEN_TANGENTS))
def test_isotropy_checks_fire(space, monkeypatch):
    monkeypatch.setattr(branching, *_BROKEN_TANGENTS[space])
    with pytest.raises(AssertionError, match=f"{space}: the \\(1,1\\) fiber is not 8-dimensional"):
        branching._build_isotropy_modules()


def test_isotropy_checks_fire_under_dash_O(run_python):
    # the checks are explicit raises, so python -O keeps them
    script = (
        "from nkspectra import branching as b\n"
        "from nkspectra.branching import U2Label\n"
        f"for name, broken in {_BROKEN_TANGENTS!r}.values():\n"
        "    saved = getattr(b, name)\n"
        "    setattr(b, name, broken)\n"
        "    try:\n"
        "        b._build_isotropy_modules()\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "    setattr(b, name, saved)\n"
    )
    proc = run_python(["-c", script], "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        f"{space}: the (1,1) fiber is not 8-dimensional" for space in _BROKEN_TANGENTS
    ]


# wrong (1,0) tangent modules whose (1,1) fibers stay 8-dimensional: E(0,-4)
# in place of E(0,-2) on CP3, which only the isotropy Casimirs see, and on
# the flag the pair (e_5, e_6) turned round in h's action, whose roots
# (1,-1,0), (-1,0,1), (0,-1,1) keep every Casimir at -1/3 but do not sum to
# zero, so the root check stops it at import, before any fiber is built
_WRONG_TANGENTS = {
    "cp3": (
        "_P10_CP3 = (U2Label(1, 1), U2Label(0, -2))",
        "_P10_CP3 = (U2Label(1, 1), U2Label(0, -4))",
        "fibers built\n",
        "cp3: isotropy Casimirs differ: [-1/3, -1/3, -4/3, -4/3]",
    ),
    "flag": (
        "(5, 8): {6: -1}, (5, 9): {6: 1}, (6, 8): {5: 1}, (6, 9): {5: -1},",
        "(5, 8): {6: 1}, (5, 9): {6: -1}, (6, 8): {5: -1}, (6, 9): {5: 1},",
        "",
        "flag: the J-pair weights [(1, (1, -1, 0)), (3, (-1, 0, 1)), (5, (0, -1, 1))]"
        " are not sum-zero roots",
    ),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "dash-O"])
@pytest.mark.parametrize("space", list(_WRONG_TANGENTS))
def test_a_wrong_tangent_module_fails_the_casimir_check(space, flags, run_planted):
    # the Casimir check reads the tangent modules the Hom counts read, in
    # a copy of the package with one of them planted; it and the flag's
    # root check are explicit raises, so python -O keeps them
    plant, fault, stdout, message = _WRONG_TANGENTS[space]
    script = (
        "from nkspectra import branching, spectrum\n"
        "branching._build_isotropy_modules()\n"
        "print('fibers built')\n"
        f"spectrum.scal_normalization_check(spectrum.Space({space!r}))\n"
    )
    proc = run_planted(branching, plant, fault, script, flags)
    assert (proc.returncode, proc.stdout.decode()) == (1, stdout), proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == f"AssertionError: {message}"


def _weight_inner_isotropy_casimirs(space):
    """-<mu, mu + 2 rho_K> at each summand's highest weight mu, over the
    Fraction weights and pairing of weight_inner: (k, k, k) / 3 with rho_K
    (1, 1, 1) / 3 on S3 x S3, ((b + a) / 2, (b - a) / 2) with rho_K
    (1, -1) / 2 on CP3, and the roots with no shift on the flag."""
    summands = [x for pair in zip(*branching._tangent(space)) for x in pair]
    third, half = Fraction(1, 3), Fraction(1, 2)
    if space is Space.S3XS3:
        tops, rho = [(third * k,) * 3 for k in summands], (third,) * 3
    elif space is Space.CP3:
        tops, rho = [(half * (b + a), half * (b - a)) for a, b in summands], (half, -half)
    else:
        tops, rho = summands, (0, 0, 0)
    group = space_group(space)
    return [-weight_inner(group, mu, [m + 2 * r for m, r in zip(mu, rho)]) for mu in tops]


@pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
def test_isotropy_casimirs_match_the_weight_inner_formula(space):
    # _isotropy_casimirs works in integers scaled by n = 3, 2 and 1
    casimirs = branching._isotropy_casimirs(space)
    assert casimirs == _weight_inner_isotropy_casimirs(space)
    assert casimirs == [Fraction(-1, 3)] * len(casimirs)


def test_each_flipped_h_action_sign_fails_at_import(run_planted):
    # the flag's m^(1,0) weights are derived at import from h's action on m
    # and J, and come out as the roots e_1 - e_2, e_2 - e_3, e_3 - e_1.  A
    # sign flipped in any one of the twelve [e_a, h_j] changes the weight
    # read at one end of its J-pair only, so the root check refuses it, with
    # one explicit raise that python -O keeps
    assert branching._FLAG_P10_ROOTS == ((1, -1, 0), (0, 1, -1), (-1, 0, 1))
    flips = [
        (f"({a}, {k}): {{{b}: {q}}}", f"({a}, {k}): {{{b}: {-q}}}")
        for (a, k), image in branching._H_ACTION.items()
        for b, q in image.items()
    ]
    assert len(flips) == 12
    for plant, fault in flips:
        for flags in ((), ("-O",)):
            proc = run_planted(branching, plant, fault, "import nkspectra", flags)
            stderr = proc.stderr.decode()
            assert proc.returncode == 1, (plant, flags)
            assert stderr.count("Traceback") == 1, stderr
            assert stderr.splitlines()[-1].startswith(
                "AssertionError: flag: the J-pair weights ["
            ), (plant, flags, stderr)


def _so5_rotation(i, j):
    """L_ij = E_ij - E_ji in so5, as a 5 x 5 list of int rows."""
    m = [[0] * 5 for _ in range(5)]
    m[i - 1][j - 1], m[j - 1][i - 1] = 1, -1
    return m


def _combination(*terms):
    """sum of c M over (c, M) pairs of 5 x 5 matrices."""
    return [[sum(c * m[r][k] for c, m in terms) for k in range(5)] for r in range(5)]


def _product(a, b):
    return [[sum(a[r][t] * b[t][k] for t in range(5)) for k in range(5)] for r in range(5)]


def _so5_inner(a, b):
    """The metric -tr(XY)/4, for which the u_a below are orthonormal."""
    return Fraction(-sum(_product(a, b)[r][r] for r in range(5)), 4)


def test_cp3_tangent_module_is_the_frame_weights():
    # CP3 = SO5 / U2 with m spanned by u_1..u_6 below: the torus L_12, L_34
    # of u2 acts on each J-pair of the flag's J by itself, and its weights
    # -s [u_a, h]_b (for J e^a = s e^b) are the torus weights of _P10_CP3
    L = _so5_rotation
    u = [
        _combination((1, L(1, 3)), (-1, L(2, 4))),
        _combination((1, L(1, 4)), (1, L(2, 3))),
        _combination((1, L(1, 5)), (1, L(2, 5))),
        _combination((1, L(2, 5)), (-1, L(1, 5))),
        _combination((1, L(3, 5)), (-1, L(4, 5))),
        _combination((-1, L(3, 5)), (-1, L(4, 5))),
    ]
    assert [[_so5_inner(x, y) for y in u] for x in u] == [
        [int(a == b) for b in range(6)] for a in range(6)
    ]
    weights = {}
    for a, (b, s) in branching._J_IMAGES.items():
        weight = []
        for h in (L(1, 2), L(3, 4)):
            bracket = _combination((1, _product(u[a - 1], h)), (-1, _product(h, u[a - 1])))
            coords = [_so5_inner(bracket, v) for v in u]
            # the bracket lies in m, inside the J-pair of u_a
            assert _combination(*zip(coords, u)) == bracket
            assert all(q == 0 for c, q in enumerate(coords, 1) if c not in (a, b))
            weight.append(-s * coords[b - 1])
        weights[a] = tuple(weight)
    assert weights == {1: (-1, -1), 2: (-1, -1), 3: (1, 0), 4: (1, 0), 5: (0, 1), 6: (0, 1)}
    # a torus weight (l1, l2) is the U2 weight (l1 - l2, l1 + l2), and
    # E(a, b) has the weights (a - 2k, b), k = 0..a
    frame = Counter((l1 - l2, l1 + l2) for a, (l1, l2) in weights.items() if a % 2)
    module = Counter((t.a - 2 * k, t.b) for t in branching._P10_CP3 for k in range(t.a + 1))
    assert frame == module
    assert set(branching._P10_CP3) == {U2Label(1, 1), U2Label(0, -2)}


def test_representation_data_refuses_a_name_for_an_enum():
    # the lookups behind these calls raised a bare KeyError for a string
    for call in (
        lambda: isotropy_module(Space.FLAG, "lambda11"),
        lambda: isotropy_module("flag", Bundle.LAMBDA11),
        lambda: iter_labels("su3", Fraction(12)),
        lambda: canonical_weight("su3", (1, 2, 3)),
        lambda: root_system("su3"),
        # and an unhashable value raised a bare TypeError
        lambda: IrrepLabel(["su3"], (1, 1)),
        lambda: root_system(["su3"]),
        lambda: iter_labels(["su3"], Fraction(12)),
        lambda: space_group(["flag"]),
        lambda: hom_dimension(["flag"], su3_label(1, 1), Bundle.LAMBDA11),
        lambda: isotropy_module(Space.FLAG, ["x"]),
        lambda: isotropy_module(["flag"], Bundle.LAMBDA11),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert "\n" not in str(err.value)
