"""The value types are frozen records: field-wise ==, hash and repr, and no
assignment.  Every Record subclass in the package is checked.  A type that
parses its fields reports the first of its checks that fails."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import tropmaps
from tropmaps import AutGroup, TropicalMap, evaluate, registry_sequence
from tropmaps.compact import CompactifiedPoint
from tropmaps.errors import DomainError
from tropmaps.hurwitz import BranchConfiguration
from tropmaps.moduli import ModuliPoint
from tropmaps.plcore import AdmissibilityReport, TropicalPolynomial, ValidationReport
from tropmaps.rational import POS_INF
from tropmaps.record import Record

MODULES = [importlib.import_module("tropmaps." + m.name)
           for m in pkgutil.iter_modules(tropmaps.__path__)]
RECORDS = sorted({cls for mod in MODULES for cls in vars(mod).values()
                  if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record},
                 key=lambda cls: cls.__qualname__)


def filled(cls):
    """An instance whose fields hold distinct values, built without running
    the class's own checks."""
    record = object.__new__(cls)
    for i, name in enumerate(cls._fields):
        object.__setattr__(record, name, (i, Fraction(1, i + 2)))
    return record


def test_every_value_type_is_collected():
    assert TropicalMap in RECORDS and len(RECORDS) >= 20


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestEveryRecord:
    def test_hash_is_the_hash_of_the_field_tuple(self, cls):
        x = filled(cls)
        assert hash(x) == hash(tuple(getattr(x, f) for f in cls._fields))

    def test_repr_names_each_field(self, cls):
        x = filled(cls)
        assert repr(x) == "%s(%s)" % (cls.__qualname__, ", ".join(
            "%s=(%d, Fraction(1, %d))" % (f, i, i + 2) for i, f in enumerate(cls._fields)))

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        x = filled(cls)
        for name in cls._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert getattr(x, cls._fields[0]) == (0, Fraction(1, 2))

    def test_a_wrong_argument_count_is_a_type_error(self, cls):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*range(len(cls._fields) + 1))


def test_equality_needs_the_same_class():
    assert ValidationReport(True, ()) != AdmissibilityReport(True, ())
    assert ValidationReport(True, ()).__eq__(AdmissibilityReport(True, ())) is NotImplemented
    assert ValidationReport(True, ()) == ValidationReport(True, ())
    assert ValidationReport(True, ()) != ValidationReport(True, ("x",))


def test_repr_format():
    assert (repr(AutGroup("z2", Fraction(1, 2), 3))
            == "AutGroup(kind='z2', reflection_center=Fraction(1, 2), target_shift=3)")


def test_a_plain_record_takes_its_fields_positionally():
    assert AutGroup("z2", None, 3).target_shift == 3
    with pytest.raises(TypeError):   # a keyword call
        AutGroup("z2", reflection_center=None, target_shift=3)
    for args in (("trivial",), ("z2", 1)):   # a trailing field left out
        with pytest.raises(TypeError, match=r"^AutGroup\(\) takes "
                                            r"\(kind, reflection_center, target_shift\)$"):
            AutGroup(*args)


def test_keyword_construction_equals_positional():
    m = TropicalMap((0, 1), (3, 4, 3), 0)
    assert TropicalMap(break_points=(0, 1), slopes=(3, 4, 3), anchor_value=0) == m
    assert TropicalMap((0, 1), anchor_value=0, slopes=(3, 4, 3)) == m


@pytest.mark.parametrize("args, kwargs", [
    (((0,), (3, 3)), {}),                        # a field missing
    (((), (3,), 0, 1), {}),                      # one argument too many
    (((), (3,)), {"anchor": 0}),                 # a name that is no field
    (((), (3,), 0), {"slopes": (3,)}),           # a field given twice
])
def test_a_wrong_call_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        TropicalMap(*args, **kwargs)


def test_an_evaluated_map_is_the_same_key():
    m = TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0)
    evaluate(m, 2)
    fresh = TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0)
    assert {m: "m"}[fresh] == "m" and fresh in {m} and hash(fresh) == hash(m)


@pytest.mark.parametrize("build, error, message", [
    # the position is parsed before the gap count is checked
    (lambda: ModuliPoint(registry_sequence("I"), (1, 1), "x"), ValueError,
     "not a rational: 'x'"),
    # k=4 is checked before the gaps are read
    (lambda: CompactifiedPoint(registry_sequence("IX"), (-1,)), DomainError,
     "compactified cells exist for four-break types only, got k=2"),
    # +inf is checked before the top coefficient
    (lambda: TropicalPolynomial((POS_INF, POS_INF)), ValueError,
     "coefficients may be rational or -inf"),
    # the distances are counted before they are parsed
    (lambda: BranchConfiguration(("x", 0)), ValueError, "need exactly three distances"),
    # of three distances, the first bad one reports
    (lambda: BranchConfiguration(("x", 0, 1)), ValueError, "not a rational: 'x'"),
], ids=["ModuliPoint", "CompactifiedPoint", "TropicalPolynomial", "BranchConfiguration",
        "BranchConfiguration-three"])
def test_of_two_bad_arguments_the_first_check_reports(build, error, message):
    with pytest.raises(ValueError) as info:
        build()
    assert (type(info.value), str(info.value)) == (error, message)
