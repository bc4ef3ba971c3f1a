"""Value semantics of the library's record classes.

Each value class takes its fields positionally or by keyword, compares and
hashes as its field tuple, and, where frozen, refuses assignment and
deletion.  Default dicts are fresh per instance.
"""

import inspect

import pytest

from bivariant.cooperational import (
    CompanionSolutions,
    MapFamily,
    NonAdditivityWitness,
    coop_image_transfer,
    transfer_subgroup,
)
from bivariant.exactalg import (
    DirectSum,
    FgAbGroup,
    GroupElement,
    GroupHom,
    HomGroup,
    IntMatrix,
    ShapeMismatchError,
    SmithDecomposition,
    Subgroup,
    direct_sum,
    hom_group,
    smith_decomposition,
)
from bivariant.famsolve import (
    ConstraintSpec,
    FamilyClass,
    FamilyGroup,
    ImageTransfer,
    SummandSpec,
    TermSpec,
)
from bivariant.report import ValidationReport, Violation
from bivariant.site import Mor, PasteComparison, PullbackSquare
from bivariant.workbench import InstanceBundle, build_subsets_instance

BUNDLE = build_subsets_instance(2)
F = BUNDLE.functors["F"]
Z2 = FgAbGroup.from_invariants(0, (2,))
Z = FgAbGroup(1)
DOUBLE = GroupHom(Z, Z, IntMatrix(1, 1, ((2,),)))
SQUARE = PullbackSquare("0>01", "1>01", "E", "E>0", "E>1")
TSR = transfer_subgroup(BUNDLE.transformations["T"], "0>01", 0)
COMPANIONS = TSR.companions(TSR.source_result.decode(TSR.subgroup.inclusion(TSR.subgroup.group.gens()[0])))
TRANSFER = coop_image_transfer(BUNDLE.groth["gamma"], "0>01", 0, mode="full")
HOM_GROUP = hom_group(Z2, Z2)
SUM = direct_sum([Z, Z2])

# (class, field values) of every frozen value class
FROZEN = [
    (IntMatrix, (2, 2, ((1, 0), (0, 1)))),
    (SmithDecomposition, ((1, 2), (((0, 1),),), (((0, 1),),), (((0, 1),),))),
    (GroupElement, (Z2, (1,))),
    (GroupHom, (Z, Z, IntMatrix(1, 1, ((3,),)))),
    (HomGroup, (HOM_GROUP.src, HOM_GROUP.tgt, HOM_GROUP.group, HOM_GROUP.summands)),
    (Subgroup, (Z, DOUBLE)),
    (DirectSum, (SUM.group, SUM.parts, SUM.offsets)),
    (Mor, ("0>01", "0", "01")),
    (PullbackSquare, ("0>01", "1>01", "E", "E>0", "E>1")),
    (PasteComparison, (SQUARE, SQUARE, SQUARE, "E>E", "E>E")),
    (Violation, ("units", "no unit", (("obj", "E"),))),
    (ValidationReport, ((Violation("units", "no unit"),),)),
    (SummandSpec, (("0>01", 0), Z, Z2)),
    (TermSpec, (1, ("0>01", 0), DOUBLE, None)),
    (ConstraintSpec, (("0>01", "0>0", 0), Z, Z2, ())),
    (FamilyGroup, (F, "0>01", 0, TSR.source_result.solution)),
    (ImageTransfer, (TRANSFER.base, TRANSFER.degree, TRANSFER.source, TRANSFER.target, TRANSFER.mapping)),
    # a class compares by value and is unhashable, so no particular here
    (CompanionSolutions, (None, COMPANIONS.homogeneous, COMPANIONS.target_result)),
    (NonAdditivityWitness, ("01>01", 0, (1, 0), (1, 0), (2, 0), (0, 0))),
]
IDS = [cls.__name__ for cls, _ in FROZEN]


def fields_of(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


class Twin:
    """Another class with the same fields."""

    def __init__(self, names, values):
        self.__dict__.update(zip(names, values))


@pytest.mark.parametrize("cls, values", FROZEN, ids=IDS)
class TestFrozenValues:
    def test_equal_fields_give_equal_objects_with_equal_hashes(self, cls, values):
        a, b = cls(*values), cls(*values)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_keywords_build_the_same_object(self, cls, values):
        assert cls(**dict(zip(fields_of(cls), values))) == cls(*values)

    def test_fields_read_back(self, cls, values):
        obj = cls(*values)
        if cls is GroupElement:
            values = (values[0], values[0].reduce(values[1]))
        assert tuple(getattr(obj, name) for name in fields_of(cls)) == values

    def test_an_instance_of_another_class_is_not_equal(self, cls, values):
        obj = cls(*values)
        assert obj != Twin(fields_of(cls), values)
        assert obj != tuple(values)
        assert obj != object()

    def test_assigning_or_deleting_a_field_raises(self, cls, values):
        obj = cls(*values)
        for name in fields_of(cls):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert obj == cls(*values)

    def test_repr_names_the_class_and_its_fields(self, cls, values):
        if cls in (GroupElement, GroupHom):
            return  # both write their own
        text = repr(cls(*values))
        assert text.startswith(f"{cls.__name__}(")
        assert all(f"{name}=" in text for name in fields_of(cls))


def test_a_field_that_differs_breaks_equality():
    assert Mor("f", "X", "Y") != Mor("f", "X", "Z")
    assert Violation("units", "no unit") != Violation("units", "no unit", (("obj", "E"),))
    assert IntMatrix(1, 2, ((1, 0),)) != IntMatrix(2, 1, ((1,), (0,)))


def test_defaults():
    assert Violation("units", "no unit").witness == ()
    assert ValidationReport().violations == ()
    term = TermSpec(1, "k")
    assert (term.pre, term.post) == (None, None)


def test_equal_matrices_share_one_smith_entry():
    rows = ((6, 4, 0), (2, 0, 14))
    a, b = IntMatrix(2, 3, rows), IntMatrix(2, 3, tuple(map(tuple, map(list, rows))))
    assert a is not b and a.entries is not b.entries
    first = smith_decomposition(a)
    before = smith_decomposition.cache_info()
    assert smith_decomposition(b) is first
    after = smith_decomposition.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_intmatrix_checks_its_shape():
    with pytest.raises(ShapeMismatchError):
        IntMatrix(2, 1, ((1,),))
    with pytest.raises(ShapeMismatchError):
        IntMatrix(-1, 0, ())


class TestMutableRecords:
    def test_family_class_default_components_are_fresh(self):
        a, b = FamilyClass(F, "0>01", 0), FamilyClass(F, "0>01", 0)
        assert a.components == {} and a.components is not b.components

    def test_instance_bundle_default_dicts_are_fresh(self):
        a, b = InstanceBundle(BUNDLE.site), InstanceBundle(BUNDLE.site)
        for name in ("functors", "transformations", "theories", "groth"):
            assert getattr(a, name) == {}
            assert getattr(a, name) is not getattr(b, name)
        a.functors["F"] = F
        assert b.functors == {}

    def test_map_family_fields(self):
        fam = MapFamily(F, "01>01", {}, abs, 2)
        assert (fam.functor, fam.base, fam.components, fam.grade_out, fam.poly_degree) == (F, "01>01", {}, abs, 2)

