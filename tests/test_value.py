"""The immutable value types: equality, hashing, repr and read-only fields."""

import inspect

import pytest

from k3mukai import (
    BBClass,
    BBLattice,
    ConstraintSolution,
    CriterionReport,
    DualSurfaceReport,
    EquivalenceResult,
    FibrationHit,
    IsotropicSearch,
    MukaiVector,
    NSGram,
    PicardSchemeForm,
    QuadForm2,
    QuotientClass,
    TransformConstraintFamily,
)
from k3mukai.value import Value

W = MukaiVector(2, (1,), 2)
SOLUTION = ConstraintSolution(k=0, l=0, de=1, e2=0)

# one constructor call per value type; each builds a fresh instance
SAMPLES = {
    NSGram: lambda: NSGram(((2, 1), (1, 0))),
    MukaiVector: lambda: MukaiVector(1, (2,), 3),
    QuadForm2: lambda: QuadForm2(1, 2, 3),
    PicardSchemeForm: lambda: PicardSchemeForm(QuadForm2(0, -2, 2), 2, 1, 1),
    EquivalenceResult: lambda: EquivalenceResult(
        "not_equivalent", certificate="determinant", values=(-4, -3)
    ),
    BBClass: lambda: BBClass(1, 2),
    BBLattice: lambda: BBLattice(8, 2),
    IsotropicSearch: lambda: IsotropicSearch((BBClass(1, 2),), exists_nontrivial=True),
    DualSurfaceReport: lambda: DualSurfaceReport(8, W, 2, 2, False, 2),
    QuotientClass: lambda: QuotientClass(W, 2),
    ConstraintSolution: lambda: ConstraintSolution(k=0, l=0, de=1, e2=0),
    TransformConstraintFamily: lambda: TransformConstraintFamily(
        2, ("de + 2*k == 1", "e2 == 4*l"), (SOLUTION,)
    ),
    FibrationHit: lambda: FibrationHit(W, "dual-surface", d_square=2, gerbe_order=2),
    CriterionReport: lambda: CriterionReport(2, ()),
}
CLASSES = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def parameters(cls) -> list[str]:
    return list(inspect.signature(cls.__init__).parameters)[1:]


def test_every_value_type_is_sampled():
    assert set(Value.__subclasses__()) == set(SAMPLES)


@CLASSES
def test_equal_fields_compare_and_hash_equal(cls):
    first, second = SAMPLES[cls](), SAMPLES[cls]()
    assert first is not second
    assert first == second
    assert not first != second
    assert hash(first) == hash(second)


@CLASSES
def test_other_class_with_same_fields_is_unequal(cls):
    obj = SAMPLES[cls]()
    twin = type(f"Twin{cls.__name__}", (cls,), {})(**vars(obj))
    assert vars(twin) == vars(obj)
    assert obj != twin
    assert twin != obj


@CLASSES
def test_fields_are_read_only(cls):
    obj = SAMPLES[cls]()
    name = parameters(cls)[0]
    before = vars(obj)[name]
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        obj.new_field = 1
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert vars(obj)[name] is before


@CLASSES
def test_repr_names_every_field(cls):
    text = repr(SAMPLES[cls]())
    assert text.startswith(f"{cls.__name__}(")
    for name in parameters(cls):
        assert f"{name}=" in text


@CLASSES
def test_fields_follow_init_order(cls):
    assert list(vars(SAMPLES[cls]())) == parameters(cls)


@CLASSES
def test_value_init_stores_every_field_in_one_call(cls, monkeypatch):
    calls = []
    original = Value.__init__

    def recorded(self, **fields):
        calls.append((type(self), list(fields)))
        original(self, **fields)

    monkeypatch.setattr(Value, "__init__", recorded)
    SAMPLES[cls]()
    # a sample may build other values first, such as PicardSchemeForm's QuadForm2
    assert [names for owner, names in calls if owner is cls] == [parameters(cls)]


def test_mukai_vector_post_init_runs_once_per_construction(monkeypatch):
    calls = []
    original = MukaiVector.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(MukaiVector, "__post_init__", counted)
    v = MukaiVector(1, [2], 3) + MukaiVector(0, (1,), 0)
    assert len(calls) == 3
    assert v.c == (3,)

