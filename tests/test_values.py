"""The value types of every module are immutable typed tuples: fields
cannot be assigned, equal fields give equal objects with equal hashes,
and the validating labels refuse a bad field however they are built."""

import copy
import enum
import importlib
import pickle
from pathlib import Path

import pytest

import nkspectra
from nkspectra import dga, nkcheck
from nkspectra.branching import Space, U2Label
from nkspectra.rootrep import Group, root_system, su3_label, weight_multiplicities
from nkspectra.spectrum import SpectrumEntry, moduli_upper_bound


def _values():
    check = nkcheck.CheckResult("d_omega", True, "0")
    return (
        su3_label(1, 1),
        root_system(Group.SO5),
        weight_multiplicities(su3_label(1, 0)),
        U2Label(1, 1),
        SpectrumEntry(su3_label(1, 1), 2),
        moduli_upper_bound(Space.FLAG),
        dga.e(1, 2) * 3,
        dga.killing_data(),
        check,
        nkcheck.VerificationReport("pointwise", (check,)),
    )


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_are_immutable_tuples(value):
    assert isinstance(value, tuple)
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for twin in (value._make(tuple(value)), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        assert type(twin) is type(value)


@pytest.mark.parametrize(
    "value,field,bad",
    [
        (su3_label(1, 1), "labels", (1, -1)),
        (su3_label(1, 1), "group", "su3"),
        (U2Label(1, 1), "b", 0),
        # a form: a degree outside 0..9, a denominator that is not a
        # positive int, a mask of another degree or above 511, a slot
        # outside 0..8 and a numerator that is not an int
        (dga.e(1, 2), "degree", 10),
        (dga.e(1, 2), "degree", True),
        (dga.e(1, 2), "denominator", 0),
        (dga.e(1, 2), "denominator", -2),
        (dga.e(1, 2), "denominator", 2.0),
        (dga.e(1, 2), "terms", (((0b111, 0), 1),)),
        (dga.e(1, 2), "terms", (((0b11 << 8, 0), 1),)),
        (dga.e(1, 2), "terms", (((0b11, 9), 1),)),
        (dga.e(1, 2), "terms", (((0b11, True), 1),)),
        (dga.e(1, 2), "terms", (((0b11, 0), 1.0),)),
        (dga.e(1, 2), "terms", (((0b11, 0), True),)),
    ],
)
def test_labels_validate_through_every_constructor(value, field, bad):
    fields = {**value._asdict(), field: bad}
    for build in (
        lambda: type(value)(**fields),
        lambda: type(value)._make(fields.values()),
        lambda: value._replace(**{field: bad}),
    ):
        with pytest.raises(ValueError):
            build()


def test_a_replaced_spectrum_entry_recomputes_its_eigenvalue():
    entry = SpectrumEntry(su3_label(1, 1), 2)._replace(irrep=su3_label(0, 0))
    assert entry == (su3_label(0, 0), 2, 0)
    with pytest.raises(TypeError):
        SpectrumEntry(su3_label(1, 1), 2, 12)


def _enums():
    # every Enum subclass defined in a module of the package
    found = []
    for path in sorted(Path(nkspectra.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"nkspectra.{path.stem}")
        found += [
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, enum.Enum)
            and value.__module__ == module.__name__
        ]
    return found


def test_the_package_defines_the_three_enums():
    assert {cls.__name__ for cls in _enums()} == {"Group", "Space", "Bundle"}


@pytest.mark.parametrize("cls", _enums(), ids=lambda cls: cls.__name__)
def test_enum_members_hash_by_identity(cls):
    # Enum.__hash__ hashes the member's name in Python; the identity hash
    # is consistent with ==, which is identity on enum members
    assert cls.__hash__ is object.__hash__
    for member in cls:
        assert hash(member) == object.__hash__(member)
        assert copy.copy(member) is member and copy.deepcopy(member) is member
        assert pickle.loads(pickle.dumps(member)) is member
        assert {member: 1}[cls(member.value)] == 1
