"""Spectrum tables up to the moduli cutoff, and the bookkeeping built on
top of them (deformation bounds, Einstein eigenvalue checks, the scalar
curvature normalization)."""

from fractions import Fraction

import pytest

from nkspectra import spectrum
from nkspectra.branching import (
    Bundle,
    Space,
    hom_dimension,
    space_group,
)
from nkspectra.rootrep import (
    Group,
    iter_labels,
    so5_label,
    su2cubed_label,
    su3_label,
)
from nkspectra.spectrum import (
    ModuliReport,
    einstein_deformation_check,
    eigenspace_multiplicity,
    enumerate_spectrum,
    moduli_upper_bound,
    scal_normalization_check,
)


def _table(space, bundle, cutoff=12):
    out = {}
    for e in enumerate_spectrum(space, bundle, Fraction(cutoff)):
        out[e.eigenvalue] = out.get(e.eigenvalue, 0) + e.contribution
    return out


EXPECTED_MULTIPLICITIES = {
    (Space.S3XS3, Bundle.LAMBDA11): {Fraction(9): 12, Fraction(12): 9},
    (Space.S3XS3, Bundle.FUNCTIONS): {Fraction(0): 1, Fraction(9): 12},
    (Space.CP3, Bundle.LAMBDA11): {Fraction(0): 1, Fraction(8): 5, Fraction(12): 20},
    (Space.CP3, Bundle.FUNCTIONS): {Fraction(0): 1, Fraction(8): 5, Fraction(12): 10},
    (Space.FLAG, Bundle.LAMBDA11): {Fraction(0): 2, Fraction(12): 32},
    (Space.FLAG, Bundle.FUNCTIONS): {Fraction(0): 1, Fraction(12): 16},
}


@pytest.mark.parametrize("space,bundle", sorted(EXPECTED_MULTIPLICITIES, key=str))
def test_spectrum_tables_up_to_twelve(space, bundle):
    assert _table(space, bundle) == EXPECTED_MULTIPLICITIES[(space, bundle)]


def test_s3xs3_eigenvalue_twelve_labels():
    entries = [
        e
        for e in enumerate_spectrum(Space.S3XS3, Bundle.LAMBDA11, 12)
        if e.eigenvalue == 12
    ]
    assert [e.irrep.labels for e in entries] == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
    assert all(e.hom_dim == 1 and e.irrep_dim == 3 for e in entries)


def test_s3xs3_eigenvalue_nine_labels():
    for bundle in Bundle:
        entries = [
            e
            for e in enumerate_spectrum(Space.S3XS3, bundle, 12)
            if e.eigenvalue == 9
        ]
        assert [e.irrep.labels for e in entries] == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert all(e.hom_dim == 1 and e.irrep_dim == 4 for e in entries)


def test_cp3_entry_structure():
    fn = enumerate_spectrum(Space.CP3, Bundle.FUNCTIONS, 12)
    assert [(e.irrep.labels, e.eigenvalue, e.contribution) for e in fn] == [
        ((0, 0), Fraction(0), 1),
        ((1, 0), Fraction(8), 5),
        ((1, 1), Fraction(12), 10),
    ]
    lam = enumerate_spectrum(Space.CP3, Bundle.LAMBDA11, 12)
    assert [(e.irrep.labels, e.eigenvalue, e.hom_dim, e.contribution) for e in lam] == [
        ((0, 0), Fraction(0), 1, 1),
        ((1, 0), Fraction(8), 1, 5),
        ((1, 1), Fraction(12), 2, 20),
    ]


def test_flag_low_spectrum_skips_the_triangular_reps():
    # V(1,0) and V(0,1) sit at eigenvalue 16/3 but carry neither
    # invariant functions nor primitive (1,1) content
    for bundle in Bundle:
        entries = enumerate_spectrum(Space.FLAG, bundle, 12)
        assert all(e.irrep.labels in ((0, 0), (1, 1)) for e in entries)


def test_entries_sorted_and_positive():
    for space in Space:
        for bundle in Bundle:
            entries = enumerate_spectrum(space, bundle, 24)
            keys = [(e.eigenvalue, e.irrep.labels) for e in entries]
            assert keys == sorted(keys)
            assert all(e.hom_dim > 0 for e in entries)
            assert all(e.contribution == e.hom_dim * e.irrep_dim for e in entries)


def test_cutoff_is_a_prefix_filter():
    for space in Space:
        for bundle in Bundle:
            wide = enumerate_spectrum(space, bundle, 24)
            narrow = enumerate_spectrum(space, bundle, 12)
            assert narrow == [e for e in wide if e.eigenvalue <= 12]


def test_repeated_calls_agree():
    # nothing is kept between calls: the same arguments give equal lists,
    # whatever was asked before and whatever a caller did to its list
    for space in Space:
        for bundle in Bundle:
            narrow = enumerate_spectrum(space, bundle, 12)
            wide = enumerate_spectrum(space, bundle, 30)
            assert enumerate_spectrum(space, bundle, 12) == narrow
            assert enumerate_spectrum(space, bundle, 30) == wide
            expected = list(narrow)
            narrow.clear()
            assert enumerate_spectrum(space, bundle, 12) == expected


def test_each_enumeration_walks_once(monkeypatch):
    # each call walks the labels for its own cutoff: a narrow call after a
    # wide one walks again, and every result equals a fresh call's
    cutoffs = (300, 12, 300)
    fresh = {
        (space, bundle, cutoff): enumerate_spectrum(space, bundle, cutoff)
        for space in Space for bundle in Bundle for cutoff in set(cutoffs)
    }
    walks = []
    real = spectrum._walk_labels

    def counting(group, cutoff):
        walks.append(cutoff)
        return real(group, cutoff)

    monkeypatch.setattr(spectrum, "_walk_labels", counting)
    for space in Space:
        for bundle in Bundle:
            walks.clear()
            for cutoff in cutoffs:
                assert enumerate_spectrum(space, bundle, cutoff) == fresh[space, bundle, cutoff]
            assert walks == list(cutoffs), (space, bundle)


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        enumerate_spectrum(Space.FLAG, Bundle.FUNCTIONS, Fraction(-2))
    with pytest.raises(ValueError):
        eigenspace_multiplicity(Space.FLAG, Bundle.FUNCTIONS, -1)


@pytest.mark.parametrize(
    "value", [True, False, 0.1, float("inf"), 12.0, "12", None], ids=repr
)
def test_inexact_cutoffs_are_refused(value):
    # True used to read as cutoff 1, 0.1 as 3602879701896397/36028797018963968,
    # and inf raised OverflowError
    calls = (
        lambda: iter_labels(Group.SO5, value),
        lambda: enumerate_spectrum(Space.CP3, Bundle.LAMBDA11, value),
        lambda: eigenspace_multiplicity(Space.CP3, Bundle.LAMBDA11, value),
    )
    for call in calls:
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            call()


def test_eigenspace_multiplicity_off_spectrum():
    assert eigenspace_multiplicity(Space.CP3, Bundle.FUNCTIONS, Fraction(5)) == 0
    assert eigenspace_multiplicity(Space.CP3, Bundle.FUNCTIONS, Fraction(8)) == 5
    assert eigenspace_multiplicity(Space.S3XS3, Bundle.LAMBDA11, 9) == 12


def test_moduli_reports():
    s3 = moduli_upper_bound(Space.S3XS3)
    # the level-12 functions all die on restriction (2 x 0 x 0 has no
    # diagonal invariants), so the third term is 0, not 9
    assert (s3.dim_omega11_12, s3.dim_isometry, s3.dim_omega0_12) == (9, 9, 0)
    assert s3.nk_upper_bound == 0
    assert s3.reported_bound() == 0

    cp3 = moduli_upper_bound(Space.CP3)
    assert (cp3.dim_omega11_12, cp3.dim_isometry, cp3.dim_omega0_12) == (20, 10, 10)
    assert cp3.nk_upper_bound == 0
    assert cp3.reported_bound() == 0

    flag = moduli_upper_bound(Space.FLAG)
    assert (flag.dim_omega11_12, flag.dim_isometry, flag.dim_omega0_12) == (32, 8, 16)
    assert flag.nk_upper_bound == 8
    assert flag.reported_bound() == 8


def test_moduli_report_validates_arithmetic():
    # the bound is the difference of the three dimensions, derived on
    # read: a report stores no bound, so it cannot hold a wrong one
    report = ModuliReport(Space.FLAG, 32, 8, 16)
    assert report.nk_upper_bound == 8
    slack = ModuliReport(Space.FLAG, 20, 8, 16)
    assert (slack.nk_upper_bound, slack.reported_bound()) == (-4, 0)
    with pytest.raises(TypeError):
        ModuliReport(Space.FLAG, 32, 8, 16, 9)
    with pytest.raises(AttributeError):
        report.nk_upper_bound = 9


def test_spectrum_entry_derives_eigenvalue_dimension_and_contribution():
    entry = spectrum.SpectrumEntry(su3_label(1, 1), 2)
    assert (entry.eigenvalue, entry.irrep_dim, entry.contribution) == (12, 8, 16)
    for name in ("eigenvalue", "irrep_dim", "contribution"):
        with pytest.raises(AttributeError):
            setattr(entry, name, 0)
    with pytest.raises(TypeError):
        spectrum.SpectrumEntry(su3_label(1, 1), Fraction(12), 2, 8, 16)


@pytest.mark.parametrize("hom_dim", ["x", 1.5, Fraction(2), -1, 0, True, None], ids=repr)
def test_spectrum_entry_refuses_a_hom_dimension_that_is_not_a_positive_int(hom_dim):
    # "x" gave contribution 'xxxxxxxx', 1.5 gave 12.0, -1 gave -8 and True
    # gave 8
    with pytest.raises(ValueError) as err:
        spectrum.SpectrumEntry(su3_label(1, 1), hom_dim)
    assert str(err.value) == f"a Hom dimension is a positive int, not {hom_dim!r}"


def test_one_eigenvalue_per_entry(monkeypatch):
    # the sort, the cutoff filter and every later read share one value
    calls = []
    laplace = spectrum.laplace_eigenvalue

    def counting(irrep):
        calls.append(irrep)
        return laplace(irrep)

    monkeypatch.setattr(spectrum, "laplace_eigenvalue", counting)
    entries = enumerate_spectrum(Space.S3XS3, Bundle.LAMBDA11, 300)
    assert sum(e.eigenvalue for e in entries) == sum(map(laplace, calls))
    assert len(calls) == len(entries) == 504


def test_spectrum_checks_fire_under_dash_O(run_python):
    # unequal isotropy Casimirs; the check is an explicit raise, so
    # python -O keeps it
    script = (
        "from fractions import Fraction as F\n"
        "from nkspectra import spectrum as s\n"
        "s._isotropy_casimirs = lambda space: [F(-1, 3), F(-1, 2)]\n"
        "try:\n"
        "    s.scal_normalization_check(s.Space.FLAG)\n"
        "except AssertionError:\n"
        "    raise SystemExit(2)\n"
    )
    proc = run_python(["-c", script], "-O")
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "dash-O"])
def test_spectrum_refuses_a_casimir_that_is_not_minus_a_third(run_python, flags):
    # equal Casimirs -1/2 on every summand pass the equality check and must
    # fail the normalization, also under python -O
    script = (
        "from fractions import Fraction as F\n"
        "from nkspectra import spectrum as s\n"
        "s._isotropy_casimirs = lambda space: [F(-1, 2)] * 6\n"
        "try:\n"
        "    s.scal_normalization_check(s.Space.FLAG)\n"
        "except AssertionError as err:\n"
        "    print(err)\n"
        "    raise SystemExit(2)\n"
    )
    proc = run_python(["-c", script], *flags)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b"flag: isotropy Casimir -1/2, not -1/3\n"


def test_einstein_eigenvalues_are_absent():
    for space in Space:
        assert einstein_deformation_check(space) == (0, 0)
    # the report holds the bound's inputs alone, so the pair has one source
    assert ModuliReport._fields == ("space", "dim_omega11_12", "dim_isometry", "dim_omega0_12")


def test_scal_normalization():
    for space in Space:
        cas, scal = scal_normalization_check(space)
        assert cas == Fraction(-1, 3)
        assert scal == Fraction(5, 2)


@pytest.mark.parametrize("space", ["flag", None, ["x"]], ids=repr)
def test_scal_normalization_refuses_a_space_that_is_not_a_space(space):
    # each of these returned the flag's (-1/3, 5/2)
    with pytest.raises(ValueError) as err:
        scal_normalization_check(space)
    assert str(err.value) == f"a space is a Space, not {space!r}"


def test_moduli_bound_matches_hom_arithmetic():
    # every level-12 contribution on the flag comes from V(1,1) alone, so
    # the bound is (hom_lambda - hom_fn) * dim - isometry directly
    from nkspectra.branching import hom_dimension
    from nkspectra.rootrep import dimension

    lab = su3_label(1, 1)
    lam = hom_dimension(Space.FLAG, lab, Bundle.LAMBDA11) * dimension(lab)
    fn = hom_dimension(Space.FLAG, lab, Bundle.FUNCTIONS) * dimension(lab)
    assert (lam, fn) == (32, 16)
    assert moduli_upper_bound(Space.FLAG).nk_upper_bound == lam - 8 - fn


def test_laplace_values_behind_the_tables():
    from nkspectra.rootrep import laplace_eigenvalue

    assert laplace_eigenvalue(su2cubed_label(2, 0, 0)) == 12
    assert laplace_eigenvalue(su2cubed_label(1, 1, 0)) == 9
    assert laplace_eigenvalue(so5_label(1, 0)) == 8
    assert laplace_eigenvalue(so5_label(1, 1)) == 12
    assert laplace_eigenvalue(su3_label(1, 1)) == 12
    assert laplace_eigenvalue(su3_label(1, 0)) == Fraction(16, 3)


def test_dga_and_rootrep_agree_on_eigenvalue_twelve():
    # the -tr/2 normalization of dga and the -B/12 one of rootrep must give
    # the same eigenvalue to the eigenfunction v1 and to its irrep V(1,1)
    from nkspectra.dga import laplacian, symbol_form
    from nkspectra.rootrep import laplace_eigenvalue

    v1 = symbol_form("v1")
    assert (laplacian(v1) - v1 * 12).is_zero()
    lab = su3_label(1, 1)
    assert laplace_eigenvalue(lab) == 12
    for bundle, hom in ((Bundle.FUNCTIONS, 2), (Bundle.LAMBDA11, 4)):
        at12 = [
            e for e in enumerate_spectrum(Space.FLAG, bundle, 12)
            if e.eigenvalue == 12
        ]
        assert [(e.irrep, e.hom_dim) for e in at12] == [(lab, hom)]


@pytest.mark.parametrize("space", [Space.CP3, Space.FLAG])
def test_one_weyl_dimension_per_label(space, weyl_dimension):
    # an entry is built only for a nonzero Hom
    labels = list(iter_labels(space_group(space), Fraction(60)))
    for bundle in Bundle:
        entries = {e.irrep: e for e in enumerate_spectrum(space, bundle, 60)}
        assert entries
        for lab in labels:
            hom = hom_dimension(space, lab, bundle)
            entry = entries.get(lab)
            if entry is None:
                assert hom == 0
            else:
                assert entry.hom_dim == hom
                assert entry.irrep_dim == weyl_dimension(lab)


@pytest.mark.parametrize("bundle", list(Bundle), ids=lambda b: b.value)
@pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
def test_enumeration_matches_the_public_per_label_path(space, bundle):
    # Hom counted on raw tuples, entries built only where it is nonzero,
    # against an entry for every label of iter_labels with a nonzero
    # hom_dimension, sorted by (Fraction eigenvalue, labels)
    group = space_group(space)
    expected = [
        spectrum.SpectrumEntry(lab, hom)
        for lab in iter_labels(group, 300)
        if (hom := hom_dimension(space, lab, bundle))
    ]
    expected.sort(key=lambda e: (e.eigenvalue, e.irrep.labels))
    assert enumerate_spectrum(space, bundle, 300) == expected


@pytest.mark.parametrize(
    "space,bundle,message",
    [
        (["flag"], Bundle.FUNCTIONS, "a space is a Space"),
        ("flag", Bundle.FUNCTIONS, "a space is a Space"),
        (Space.FLAG, ["x"], "a bundle is a Bundle"),
        (Space.FLAG, "functions", "a bundle is a Bundle"),
    ],
    ids=["space-list", "space-name", "bundle-list", "bundle-name"],
)
def test_spectrum_refuses_a_space_or_bundle_that_is_not_an_enum(space, bundle, message):
    # a list used to end in a bare TypeError from the table lookup
    for call in (enumerate_spectrum, eigenspace_multiplicity):
        with pytest.raises(ValueError, match=message) as err:
            call(space, bundle, 12)
        assert "\n" not in str(err.value)


def test_integer_keyed_tables_match_a_brute_force_list():
    # the walk, every Hom, a sort on (Fraction eigenvalue, labels) and a
    # Fraction filter; the cutoffs rise and fall again, and 143/12, just
    # below 12 with 6 * cutoff not an integer, must drop eigenvalue 12
    from nkspectra.rootrep import laplace_eigenvalue

    widest = Fraction(601, 2)
    for space in Space:
        group = space_group(space)
        for bundle in Bundle:
            brute = [
                (lab, hom) for lab in iter_labels(group, widest)
                if (hom := hom_dimension(space, lab, bundle))
            ]
            brute.sort(key=lambda row: (laplace_eigenvalue(row[0]), row[0].labels))
            cutoffs = (Fraction(143, 12), 12, 300, widest, 300, 12, Fraction(143, 12))
            for cutoff in cutoffs:
                expected = [
                    (lab, hom, laplace_eigenvalue(lab)) for lab, hom in brute
                    if laplace_eigenvalue(lab) <= cutoff
                ]
                assert enumerate_spectrum(space, bundle, cutoff) == expected
