"""The value semantics of the package's record and node classes: fields
cannot be assigned or deleted, equality needs the same type and equal
fields, equal values hash equal, and construction still normalises and
validates its fields."""

import copy
import inspect
import pickle

import pytest

from countqe import run_check
from countqe.elim import ComponentReport, plan_elimination
from countqe.errors import DimensionError, ParameterError
from countqe.formula import (
    FALSE,
    TRUE,
    And,
    Cong,
    CountEq,
    CountResult,
    DomainTag,
    Eq,
    Exists,
    Forall,
    Formula,
    Le,
    Lt,
    Not,
    Or,
    Term,
    count_witnesses,
    variable,
)
from countqe.linalg import CramerSolution, IntMatrix, cramer_solve
from countqe.sets import IntBox, LinearSetPresentation, SemilinearPresentation
from countqe.textio import ParseError, SourceSpan, parse_formula
from countqe.values import Value

x, y = variable("x"), variable("y")


def _presentation() -> SemilinearPresentation:
    return SemilinearPresentation(
        (
            LinearSetPresentation((0, 0), ((1, 0), (1, 2))),
            LinearSetPresentation((5, 1), ((0, 4),)),
        ),
        asserted_disjoint=True,
        asserted_simple=True,
    )


def samples() -> dict:
    """One freshly built value of every class, keyed by the class name."""
    plan = plan_elimination(_presentation())
    interval = next(c for c in plan.components if c.bounds is not None)
    outcome = run_check(plan, trials=3, box_radius=5, seed=1)
    record = outcome.records[0]
    with pytest.raises(ParseError) as caught:
        parse_formula("x <= ")
    values = {
        "TrueF": TRUE,
        "FalseF": FALSE,
        "Le": Le(x, y + 1),
        "Lt": Lt(x, y),
        "Eq": Eq(x, 3),
        "Cong": Cong(x + y, 7, 3),
        "Not": Not(Le(x, y)),
        "And": And((Le(x, y), Eq(x, 0))),
        "Or": Or((Le(x, y), Eq(x, 0))),
        "Exists": Exists("x", Le(x, y)),
        "Forall": Forall("x", Le(x, y)),
        "CountEq": CountEq("x", "y", Le(0, x)),
        "CountResult": count_witnesses(Le(x, y), "x", {"y": 3}, DomainTag.N),
        "IntMatrix": IntMatrix(((1, 2), (3, 4))),
        "CramerSolution": cramer_solve(IntMatrix(((1, 1), (0, 2))), (1, 0)),
        "LinearSetPresentation": LinearSetPresentation((0, 0), ((1, 0), (1, 2))),
        "SemilinearPresentation": _presentation(),
        "IntBox": IntBox.cube(2, -1, 1),
        "SourceSpan": caught.value.span,
        "BoundClassification": interval.bounds,
        "ComponentPlan": interval,
        "ComponentReport": plan.result.report.components[0],
        "EliminationReport": plan.result.report,
        "EliminationResult": plan.result,
        "EliminationPlan": plan,
        "WitnessCount": record.oracle,
        "TrialRecord": record,
        "CheckOutcome": outcome,
    }
    for name, value in values.items():
        assert type(value).__name__ == name
    return values


# A field of each class, and whether its values hash (a dict or list field does not).
FIELDS = {
    "Le": ("lhs", True),
    "Lt": ("rhs", True),
    "Eq": ("lhs", True),
    "Cong": ("modulus", True),
    "Not": ("body", True),
    "And": ("parts", True),
    "Or": ("parts", True),
    "Exists": ("var", True),
    "Forall": ("body", True),
    "CountEq": ("count_var", True),
    "CountResult": ("count", True),
    "IntMatrix": ("entries", True),
    "CramerSolution": ("denom", True),
    "LinearSetPresentation": ("base", True),
    "SemilinearPresentation": ("components", True),
    "IntBox": ("lower", True),
    "SourceSpan": ("column", True),
    "BoundClassification": ("multiplier", False),
    "ComponentPlan": ("rows", False),
    "ComponentReport": ("nodes", True),
    "EliminationReport": ("nodes", True),
    "EliminationResult": ("formula", True),
    "EliminationPlan": ("names", False),
    "WitnessCount": ("window", True),
    "TrialRecord": ("verdict", False),
    "CheckOutcome": ("records", False),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = samples()[name]
    field, _ = FIELDS[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before


def test_constants_cannot_be_given_fields():
    for value in (TRUE, FALSE):
        with pytest.raises(AttributeError):
            value.body = TRUE


@pytest.mark.parametrize("name", sorted(FIELDS) + ["FalseF", "TrueF"])
def test_equal_values_hash_equal(name):
    first, second = samples()[name], samples()[name]
    assert first is not second or name in ("TrueF", "FalseF")
    assert first == second and not first != second
    if FIELDS.get(name, (None, True))[1]:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)


def test_equality_needs_the_same_type():
    assert Le(x, y) != Lt(x, y)
    assert Lt(x, y) != Eq(x, y)
    assert And((Le(x, y), Eq(x, 0))) != Or((Le(x, y), Eq(x, 0)))
    assert Exists("x", Le(x, y)) != Forall("x", Le(x, y))
    assert Not(Le(x, y)) != Le(x, y)
    assert TRUE != FALSE
    assert CountResult(3, True) != (3, True)
    assert SourceSpan(0, 1, 1, 1) != (0, 1, 1, 1)
    assert ComponentReport(1, "single-witness", None, 3) != ComponentReport(2, "single-witness", None, 3)


def test_equality_compares_every_field():
    assert Cong(x, 1, 3) != Cong(x, 2, 3)
    assert Cong(x, 1, 3) != Cong(x, 1, 4)
    assert CountEq("x", "y", Le(0, x)) != CountEq("x", "z", Le(0, x))
    assert CountEq("x", "y", Le(0, x)) != CountEq("x", "y", Lt(0, x))
    assert IntBox((0,), (1,)) != IntBox((0,), (2,))
    assert LinearSetPresentation((0,), ((1,),)) != LinearSetPresentation((0,), ((1,),), DomainTag.N)


def test_keyword_construction_and_defaults():
    report = ComponentReport(index=1, case="single-witness", count_var=None, nodes=3)
    assert report.merged == ()
    assert report.denom is report.multiplier is report.coset_period is None
    assert report.selected_rows == report.dropped_rows == report.upper_rows == ()
    assert report.lower_rows == report.sign_rows == ()
    assert report == ComponentReport(1, "single-witness", None, 3, merged=())
    assert ComponentReport(1, "interval-count", "_y0", 9, denom=2).denom == 2
    assert CountEq(counted_var="x", count_var="y", body=TRUE).refs == ("y",)
    assert Cong(term=x, residue=-1, modulus=3).residue == 2
    assert Exists(var="x", body=TRUE).binds == ("x",)
    assert SourceSpan(begin=0, end=1, line=2, column=3).column == 3
    assert CountResult(count=2, stable=False).stable is False
    assert IntBox(lower=(0,), upper=(0,)).dimension == 1
    assert CramerSolution(denom=1, matrix=((1,),), offset=(0,)).size == 1
    presentation = LinearSetPresentation(base=[1, 2], periods=[[0, 1]])
    assert presentation.domain is DomainTag.Z
    assert presentation.base == (1, 2) and presentation.periods == ((0, 1),)
    assert LinearSetPresentation((1,), (), "N").domain is DomainTag.N
    union = SemilinearPresentation([presentation])
    assert union.components == (presentation,)
    assert union.asserted_disjoint is union.asserted_simple is False


def test_construction_normalises():
    assert Le(1, "x") == Le(Term(1), variable("x"))
    assert Cong(x, 10, 3).residue == 1
    assert And((And((Le(x, y), Eq(x, 0))), Lt(x, y))).parts == (Le(x, y), Eq(x, 0), Lt(x, y))
    assert Or([Le(x, y), Or([Eq(x, 0), Lt(x, y)])]).parts == (Le(x, y), Eq(x, 0), Lt(x, y))


def test_construction_validates():
    with pytest.raises(DimensionError):
        IntMatrix(())
    with pytest.raises(DimensionError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(DimensionError):
        IntMatrix(((1, True),))
    with pytest.raises(ParameterError):
        Cong(x, 0, 0)
    with pytest.raises(ParameterError):
        And((Le(x, y),))
    with pytest.raises(ParameterError):
        LinearSetPresentation((0, -1), (), DomainTag.N)
    with pytest.raises(ParameterError):
        LinearSetPresentation((0, 0), ((1, -1),), DomainTag.N)
    with pytest.raises(ParameterError):
        LinearSetPresentation((0,), (), "Q")
    with pytest.raises(DimensionError):
        LinearSetPresentation((), ())
    with pytest.raises(DimensionError):
        LinearSetPresentation((0, 0), ((1,),))
    with pytest.raises(DimensionError):
        SemilinearPresentation(())
    with pytest.raises(DimensionError):
        SemilinearPresentation((LinearSetPresentation((0,), ()), LinearSetPresentation((0, 0), ())))
    with pytest.raises(DimensionError):
        IntBox((0, 0), (1,))
    with pytest.raises(DimensionError):
        IntBox((1,), (0,))


@pytest.mark.parametrize(
    "node",
    [
        Not(Le(x, y)),
        Exists("x", Le(x, y)),
        Forall("x", Le(x, y)),
        CountEq("x", "y", Le(0, x)),
        And((Le(x, y), Eq(x, 0))),
        Or((Le(x, y), Eq(x, 0))),
    ],
    ids=lambda node: type(node).__name__,
)
def test_rebuild_keeps_the_type_and_the_fields(node):
    children = tuple(Lt(c.rhs, c.lhs) for c in node.children)
    rebuilt = node.rebuild(children)
    assert type(rebuilt) is type(node)
    assert rebuilt.children == children
    assert rebuilt.binds == node.binds and rebuilt.refs == node.refs
    assert node.rebuild(node.children) == node


def test_atoms_rebuild_to_themselves():
    for atom in (Le(x, y), Cong(x, 1, 2), TRUE):
        assert atom.rebuild(()) is atom


def test_repr_names_the_fields():
    assert repr(Le(x, 1)) == "Le(lhs=Term(0, {'x': 1}), rhs=Term(1, {}))"
    assert repr(Not(TRUE)) == "Not(body=TRUE)"
    assert repr(CountEq("x", "y", FALSE)) == "CountEq(counted_var='x', count_var='y', body=FALSE)"
    assert repr(CountResult(2, True)) == "CountResult(count=2, stable=True)"
    assert repr(SourceSpan(0, 1, 1, 1)) == "SourceSpan(begin=0, end=1, line=1, column=1)"


def _value_classes() -> list:
    found, todo = [], [Value]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    public = [cls for cls in found if not cls.__name__.startswith("_") and cls not in (Value, Formula)]
    return sorted(public, key=lambda cls: cls.__name__)


def test_every_value_class_is_sampled():
    assert [cls.__name__ for cls in _value_classes()] == sorted(samples())


@pytest.mark.parametrize("cls", _value_classes(), ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_the_fields(cls):
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    assert "__dict__" not in dir(cls)


@pytest.mark.parametrize("name", sorted(FIELDS) + ["FalseF", "TrueF"])
def test_copies_and_pickles_are_equal(name):
    value = samples()[name]
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
