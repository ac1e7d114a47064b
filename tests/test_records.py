"""The record types: text, equality, hashing and mutability.

Each record type lists its fields once and inherits the rest from
``records.Record``.  These tests pin what callers rely on: the repr text that
reports print, equality within one type over the fields, a hash that agrees
with equality, and fields that cannot be assigned once a record is built;
and, read off the source, that every value type but ``QQi`` is a record.
"""

import ast
import random
from pathlib import Path

import pytest

from twistorsec import flat_model as fm
from twistorsec.flat_model import FlatPoint, FlatSection
from twistorsec.lambda_lifts import (DHPoint, LambdaLift, LaurentConnection,
                                     TangentSeries)
from twistorsec.projline import PolySection, Sl2Element
from twistorsec.report import RunConfig
from twistorsec.scalars import QQi, random_nonzero_qqi, random_qqi
from twistorsec.torus_forms import FourierScalar, MatrixForm
from twistorsec.vhs import VhsBlockData

SRC = Path(__file__).resolve().parents[1] / "src" / "twistorsec"


def _zero(bidegree):
    return MatrixForm.zero(2, bidegree)


def _e12(bidegree):
    """The trace-free constant form with a single 1 in row 0, column 1."""
    return MatrixForm.from_scalar_matrix([[0, QQi(1)], [0, 0]], bidegree)


#: For each type with field equality: a builder of one value, and a builder
#: of a value that differs from it in one field.
VALUE_TYPES = {
    "PolySection": (lambda: PolySection([QQi(1), QQi(2)]),
                    lambda: PolySection([QQi(1), QQi(3)])),
    "Sl2Element": (lambda: Sl2Element(QQi(1), QQi(0, 1), QQi(-1)),
                   lambda: Sl2Element(QQi(1), QQi(0, 1), QQi(1))),
    "FlatPoint": (lambda: FlatPoint([[QQi(1), QQi(2)]]),
                  lambda: FlatPoint([[QQi(1), QQi(0)]])),
    "FlatSection": (lambda: FlatSection([[QQi(1), QQi(2), QQi(3), QQi(4)]]),
                    lambda: FlatSection([[QQi(1), QQi(2), QQi(3), QQi(5)]])),
    "VhsBlockData": (lambda: VhsBlockData([1, 1], ["1/2", "-1/2"], "a"),
                     lambda: VhsBlockData([1, 1], ["1/2", "-1/2"], "a", "b")),
    "MatrixForm": (lambda: MatrixForm.from_scalar_matrix([[QQi(1), 0], [0, QQi(1)]]),
                   lambda: _zero((0, 0))),
    "LaurentConnection": (lambda: LaurentConnection({0: "dbar"}, {}, {1: "del"}, {}),
                          lambda: LaurentConnection({1: "dbar"}, {}, {1: "del"}, {})),
    "DHPoint": (lambda: DHPoint(_zero((0, 1)), _zero((1, 0)), QQi(2)),
                lambda: DHPoint(_zero((0, 1)), _zero((1, 0)), QQi(3))),
    "RunConfig": (lambda: RunConfig(suites=["stokes"], seed=3),
                  lambda: RunConfig(suites=["stokes"], seed=4)),
    "FourierScalar": (lambda: FourierScalar({(0, 0): QQi(1)}),
                      lambda: FourierScalar({(1, 0): QQi(1)})),
    "TangentSeries": (lambda: TangentSeries((_zero((0, 1)),) * 2, (_zero((1, 0)),) * 2),
                      lambda: TangentSeries((_zero((0, 1)), _e12((0, 1))),
                                            (_zero((1, 0)),) * 2)),
    "LambdaLift": (lambda: LambdaLift((_zero((0, 1)),) * 2, (_zero((1, 0)),) * 2),
                   lambda: LambdaLift((_zero((0, 1)),) * 2, (_e12((1, 0)), _zero((1, 0))))),
}


def test_reprs_are_the_report_text():
    assert repr(PolySection((QQi(8, -4),))) == (
        "PolySection(degree_bound=0, coeffs=(QQi('8-4i'),))")
    assert repr(Sl2Element(QQi(1), QQi(0, 1), QQi(-1))) == (
        "Sl2Element(a_e=QQi('1'), a_h=QQi('0+1i'), a_f=QQi('-1'))")
    assert repr(RunConfig(seed=3)) == (
        "RunConfig(suites=(), seed=3, order=4, mode_bound=2, rank_bound=3, "
        "datasets=(), out_format='json', out_path=None, cases=25)")


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_equality_is_over_the_fields_of_one_type(name):
    build, changed = VALUE_TYPES[name]
    value = build()
    assert value == build() and not value != build()
    assert value != changed()
    assert value != tuple(getattr(value, f) for f in value._fields)

    class Derived(type(value)):
        __slots__ = ()

    derived = object.__new__(Derived)
    for field in value._fields:
        object.__setattr__(derived, field, getattr(value, field))
    assert derived != value and value != derived


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_equal_values_hash_alike_where_hashable(name):
    value, again = VALUE_TYPES[name][0](), VALUE_TYPES[name][0]()
    if name == "LaurentConnection":  # its fields are dicts
        with pytest.raises(TypeError, match="dict"):
            hash(value)
    elif name == "FourierScalar":  # its one field is a dict: it hashes its modes
        assert hash(value) == hash(again) == hash(value.items())
    else:
        fields = tuple(getattr(value, f) for f in value._fields)
        assert hash(value) == hash(again) == hash(fields)


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_frozen_fields_cannot_be_assigned(name):
    value = VALUE_TYPES[name][0]()
    for field in value._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_run_config_keywords_and_unknown_fields():
    assert RunConfig(seed=3).seed == 3 and RunConfig(seed=3).cases == 25
    assert RunConfig(seed=3) == RunConfig.from_json({"seed": 3})
    with pytest.raises(ValueError, match=r"^unknown config fields: \['bogus', 'zz'\]$"):
        RunConfig.from_json({"seed": 1, "zz": 2, "bogus": 3})


def _class_members(node: ast.ClassDef) -> set:
    """The names that a class body defines or assigns."""
    names = set()
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(n.id for t in stmt.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def test_every_value_type_but_qqi_is_a_record():
    # One value-type mechanism: every class with __slots__ derives from
    # Record, except QQi, whose arithmetic sets its slots directly on the
    # hottest path; and no record replaces the base's equality or assignment guard.
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                assert node.name not in classes, f"two classes named {node.name}"
                classes[node.name] = (path.stem, node)

    def is_record(name):
        if name == "Record":
            return True
        return name in classes and any(isinstance(b, ast.Name) and is_record(b.id)
                                       for b in classes[name][1].bases)

    members = {name: _class_members(node) for name, (_, node) in classes.items()}
    slotted_outside = sorted(f"{classes[name][0]}.{name}" for name in classes
                             if "__slots__" in members[name] and not is_record(name))
    overriding = sorted(f"{classes[name][0]}.{name}" for name in classes
                        if name != "Record" and is_record(name)
                        and members[name] & {"__eq__", "__setattr__"})
    assert (slotted_outside, overriding) == (["scalars.QQi"], [])


def test_library_built_sections_are_what_the_checked_constructor_builds():
    # The flat-model operations and random_section build their sections
    # without the constructor's checks; each equals what the checked one
    # builds from its blocks, and Record equality tells a list from a tuple.
    rng = random.Random(2024)
    sections = []
    for d in (1, 2, 3) * 4:
        s = fm.random_section(rng, d)
        sections += [s, fm.twistor_line(fm.evaluate(s, random_qqi(rng))),
                     fm.real_involution(s), fm.group_action(random_nonzero_qqi(rng), s),
                     fm.fundamental_field(s), fm.fixed_part(s),
                     fm.vanishing_at_zero_part(s), fm.vanishing_at_infinity_part(s)]
    for s in sections:
        assert s == FlatSection(s.blocks)
    for d in (0, -1):
        with pytest.raises(ValueError, match="^need at least one quaternionic block$"):
            fm.random_section(rng, d)
