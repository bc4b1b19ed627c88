"""Spectrum tables up to the moduli cutoff, and the bookkeeping built on
top of them (deformation bounds, Einstein eigenvalue checks, the scalar
curvature normalization)."""

from fractions import Fraction

import pytest

from nkspectra import rootrep, spectrum
from nkspectra.branching import Bundle, Space, space_data
from nkspectra.rootrep import iter_labels, so5_label, su2cubed_label, su3_label
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


EXPECTED_TABLES = {
    (Space.S3XS3, Bundle.LAMBDA11): {Fraction(9): 12, Fraction(12): 9},
    (Space.S3XS3, Bundle.FUNCTIONS): {Fraction(0): 1, Fraction(9): 12},
    (Space.CP3, Bundle.LAMBDA11): {Fraction(0): 1, Fraction(8): 5, Fraction(12): 20},
    (Space.CP3, Bundle.FUNCTIONS): {Fraction(0): 1, Fraction(8): 5, Fraction(12): 10},
    (Space.FLAG, Bundle.LAMBDA11): {Fraction(0): 2, Fraction(12): 32},
    (Space.FLAG, Bundle.FUNCTIONS): {Fraction(0): 1, Fraction(12): 16},
}


@pytest.mark.parametrize("space,bundle", sorted(EXPECTED_TABLES, key=str))
def test_spectrum_tables_up_to_twelve(space, bundle):
    assert _table(space, bundle) == EXPECTED_TABLES[(space, bundle)]


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


def test_reports_share_one_walk_per_bundle(monkeypatch):
    from nkspectra import spectrum

    walks = []
    real = spectrum.iter_labels

    def counting(group, cutoff):
        walks.append(cutoff)
        return real(group, cutoff)

    monkeypatch.setattr(spectrum, "iter_labels", counting)
    for space in Space:
        monkeypatch.setattr(spectrum, "_TABLES", {})
        walks.clear()
        moduli_upper_bound(space)
        einstein_deformation_check(space)
        for bundle in Bundle:
            enumerate_spectrum(space, bundle, 12)
        assert len(walks) == 2, (space, walks)


def test_reused_tables_match_fresh_ones(monkeypatch):
    from nkspectra import spectrum

    def fresh(space, bundle, cutoff):
        monkeypatch.setattr(spectrum, "_TABLES", {})
        return enumerate_spectrum(space, bundle, cutoff)

    for space in Space:
        for bundle in Bundle:
            narrow, wide = fresh(space, bundle, 12), fresh(space, bundle, 30)
            monkeypatch.setattr(spectrum, "_TABLES", {})
            first = enumerate_spectrum(space, bundle, 12)
            assert first == narrow
            widest = enumerate_spectrum(space, bundle, 30)
            assert widest == wide
            # callers own the lists they get back
            first.clear()
            widest.append(widest[0])
            assert enumerate_spectrum(space, bundle, 12) == narrow
            assert enumerate_spectrum(space, bundle, 30) == wide


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        enumerate_spectrum(Space.FLAG, Bundle.FUNCTIONS, Fraction(-2))
    with pytest.raises(ValueError):
        eigenspace_multiplicity(Space.FLAG, Bundle.FUNCTIONS, -1)


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
    with pytest.raises(AssertionError):
        ModuliReport(
            space=Space.FLAG,
            dim_omega11_12=32,
            dim_isometry=8,
            dim_omega0_12=16,
            nk_upper_bound=9,
            einstein_extra=(0, 0),
        )


def test_einstein_eigenvalues_are_absent():
    for space in Space:
        assert einstein_deformation_check(space) == (0, 0)
        assert moduli_upper_bound(space).einstein_extra == (0, 0)


def test_scal_normalization():
    for space in Space:
        cas, scal = scal_normalization_check(space)
        assert cas == Fraction(-1, 3)
        assert scal == Fraction(5, 2)


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
def test_one_weyl_dimension_per_label(space):
    # the spectrum entry and the Kostant total check share one dimension
    labels = list(iter_labels(space_data(space).group, Fraction(60)))
    rootrep.dimension.cache_clear()
    for lab in labels:
        entry = spectrum._entry(space, Bundle.LAMBDA11, lab)
        assert entry.irrep_dim == rootrep.dimension.__wrapped__(lab)
    info = rootrep.dimension.cache_info()
    assert info.misses == len(labels)
    assert info.hits == len(labels)
