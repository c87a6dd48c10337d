"""The record base class: every frozen value type of the package keeps
the fields, equality, hash, repr, immutability and constructor errors
it had as a frozen dataclass, and every report record the report dict
its own ``to_jsonable`` method wrote.  The expected field orders and
reprs are the ones ``dataclasses`` gave for the same arguments."""

import json
from fractions import Fraction

import pytest

from permx.avoidance import JvInclusionReport, MergeCountReport, SwEstimate
from permx.bounds import BoundParams, CertCheck, CertReport, Schedule, _IdealStates
from permx.cli import Command
from permx.core import (
    BinaryMatrix,
    BlockDecomposition,
    Occurrence,
    Permutation,
    PermutationMatrix,
)
from permx.errors import PreconditionViolated
from permx.extremal import ExtremalResult, Lemma21Report, Lemma22Report
from permx.record import Record
from permx.selftest import Criterion

P = Permutation
W = BinaryMatrix((1, 2), 2)
CHECK = CertCheck("x", True, 1.0, 2.0)
PARAMS = BoundParams(4, 1.0, 2)
W_REPORT = {"rows": 2, "cols": 2, "ones": [[1, 1], [2, 2]]}
CHECK_REPORT = {"name": "x", "holds": True, "lhs": 1.0, "rhs": 2.0}

# (class, positional arguments, field names, repr, report): the report
# is what to_jsonable gives, None for a record no report prints whole
CASES = [
    (Permutation, ((2, 1),), ("entries",), "Permutation(entries=(2, 1))", "21"),
    (BinaryMatrix, ((1, 2), 2), ("masks", "cols"), "BinaryMatrix(masks=(1, 2), cols=2)",
     W_REPORT),
    (PermutationMatrix, (W,), ("matrix",),
     "PermutationMatrix(matrix=BinaryMatrix(masks=(1, 2), cols=2))", None),
    (Occurrence, ([0, 2],), ("positions",), "Occurrence(positions=(0, 2))", None),
    (BlockDecomposition, (P((1,)), [P((2, 1))]), ("skeleton", "blocks"),
     "BlockDecomposition(skeleton=Permutation(entries=(1,)), "
     "blocks=(Permutation(entries=(2, 1)),))", None),
    (Command, ((), "core", len), ("flags", "module", "call", "table", "text_key", "verdict"),
     "Command(flags=(), module='core', call=<built-in function len>, table=None, "
     "text_key=None, verdict=None)", None),
    (SwEstimate, (3, 5, 1.5), ("n", "count", "value"), "SwEstimate(n=3, count=5, value=1.5)",
     {"n": 3, "count": "5", "estimate": 1.5}),
    (JvInclusionReport,
     ((P((1,)), P((1,)), P((1,))), 3, P((1, 2, 3)), P((1, 2)), P((1, 2)), 6, True, None),
     ("parts", "n", "combined", "red_pattern", "blue_pattern", "checked", "holds",
      "counterexample"),
     "JvInclusionReport(parts=(Permutation(entries=(1,)), Permutation(entries=(1,)), "
     "Permutation(entries=(1,))), n=3, combined=Permutation(entries=(1, 2, 3)), "
     "red_pattern=Permutation(entries=(1, 2)), blue_pattern=Permutation(entries=(1, 2)), "
     "checked=6, holds=True, counterexample=None)",
     {"parts": ["1", "1", "1"], "n": 3, "combined": "123", "red_pattern": "12",
      "blue_pattern": "12", "checked": 6, "holds": True, "counterexample": None}),
    (MergeCountReport, (P((1, 2)), P((2, 1)), 3, 6, 7, 9, True, True),
     ("red_pattern", "blue_pattern", "n", "lhs", "rhs", "rhs_refined", "holds",
      "holds_refined"),
     "MergeCountReport(red_pattern=Permutation(entries=(1, 2)), "
     "blue_pattern=Permutation(entries=(2, 1)), n=3, lhs=6, rhs=7, rhs_refined=9, "
     "holds=True, holds_refined=True)",
     {"red_pattern": "12", "blue_pattern": "21", "n": 3, "lhs": "6", "rhs": "7",
      "rhs_refined": "9", "holds": True, "holds_refined": True}),
    (ExtremalResult, (3, W, 5, True), ("value", "witness", "nodes_explored", "proven_optimal"),
     "ExtremalResult(value=3, witness=BinaryMatrix(masks=(1, 2), cols=2), "
     "nodes_explored=5, proven_optimal=True)",
     {"value": 3, "witness": W_REPORT, "nodes_explored": 5, "proven_optimal": True}),
    (Lemma21Report, (2, 1.0, 3, 3, 5, Fraction(11, 2), True, 7, 4),
     ("k", "a", "t", "s", "lhs_value", "rhs_bound", "holds", "nodes_explored",
      "hypothesis_checked_upto"),
     "Lemma21Report(k=2, a=1.0, t=3, s=3, lhs_value=5, rhs_bound=Fraction(11, 2), "
     "holds=True, nodes_explored=7, hypothesis_checked_upto=4)",
     {"lhs": 5, "rhs": "11/2", "pass": True, "nodes": 7, "k": 2, "a": 1.0, "t": 3, "s": 3,
      "hypothesis_checked_upto": 4}),
    (Lemma22Report, (2, 1.0, 2, 3, 3, 0.5, 0.5, 1, 1, 2, False, 5, Fraction(13, 2), True, 9),
     ("k", "a", "c", "t", "s", "x", "y", "shrunk_t", "shrunk_s", "f_sub_value",
      "f_sub_capped", "lhs_value", "rhs_value", "holds", "nodes_explored"),
     "Lemma22Report(k=2, a=1.0, c=2, t=3, s=3, x=0.5, y=0.5, shrunk_t=1, shrunk_s=1, "
     "f_sub_value=2, f_sub_capped=False, lhs_value=5, rhs_value=Fraction(13, 2), "
     "holds=True, nodes_explored=9)",
     {"lhs": 5, "rhs": "13/2", "pass": True, "nodes": 9, "k": 2, "a": 1.0, "c": 2, "t": 3,
      "s": 3, "x": 0.5, "y": 0.5, "shrunk_t": 1, "shrunk_s": 1, "f_sub": 2,
      "f_sub_capped": False}),
    (BoundParams, (4, 1.0, 2), ("k", "a", "c"), "BoundParams(k=4, a=1.0, c=2)",
     {"k": 4, "a": 1.0, "c": 2}),
    (_IdealStates, (1, 0.0, 1.0, 0.5, 0.25, 2.0, 0.125),
     ("R", "lt0", "ls0", "l2x", "l2y", "ls_bulk_end", "l2y1"),
     "_IdealStates(R=1, lt0=0.0, ls0=1.0, l2x=0.5, l2y=0.25, ls_bulk_end=2.0, l2y1=0.125)",
     None),
    (Schedule, (PARAMS, 1.5, 2.5, (Fraction(1, 2), Fraction(1, 4)), 16, 0.75, 1, None,
                ((1.0, 2.0),)),
     ("params", "beta", "log2_beta_k", "bulk", "beta_k", "y_penultimate", "bulk_steps",
      "states", "milestones"),
     "Schedule(params=BoundParams(k=4, a=1.0, c=2), beta=1.5, log2_beta_k=2.5, "
     "bulk=(Fraction(1, 2), Fraction(1, 4)), beta_k=16, y_penultimate=0.75, bulk_steps=1, "
     "states=None, milestones=((1.0, 2.0),))", None),  # its own report form, tested in test_bounds
    (CertCheck, ("x", True, 1.0, 2.0), ("name", "holds", "lhs", "rhs"),
     "CertCheck(name='x', holds=True, lhs=1.0, rhs=2.0)", CHECK_REPORT),
    (CertReport, ((CHECK,),), ("checks",),
     "CertReport(checks=(CertCheck(name='x', holds=True, lhs=1.0, rhs=2.0),))",
     {"all_pass": True, "checks": [CHECK_REPORT]}),
    (Criterion, (1, "d", len), ("id", "description", "fn"),
     "Criterion(id=1, description='d', fn=<built-in function len>)", None),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {c for c in subclasses(Record) if c.__module__.startswith("permx.")}
    assert package == {case[0] for case in CASES}
    assert len(CASES) == 18


@pytest.mark.parametrize("cls, args, fields, text, report", CASES, ids=IDS)
def test_fields_and_repr(cls, args, fields, text, report):
    obj = cls(*args)
    assert cls._fields == fields
    assert repr(obj) == text
    assert cls(**dict(zip(fields, args))) == obj  # by name as by position


@pytest.mark.parametrize("cls, args, fields, text, report", CASES, ids=IDS)
def test_equality_and_hash_by_fields(cls, args, fields, text, report):
    obj, twin = cls(*args), cls(*args)
    assert obj == twin and not obj != twin and obj is not twin
    values = tuple(getattr(obj, f) for f in fields)
    assert hash(obj) == hash(twin) == hash(values)  # the dataclass hash
    assert obj != values
    assert obj.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls, args, fields, text, report", CASES, ids=IDS)
def test_attributes_cannot_be_set_or_deleted(cls, args, fields, text, report):
    obj = cls(*args)
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


@pytest.mark.parametrize("cls, args, fields, text, report", CASES, ids=IDS)
def test_missing_or_unknown_argument_raises_type_error(cls, args, fields, text, report):
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, other=1)
    with pytest.raises(TypeError):
        cls(*args, *[None] * (len(fields) + 1 - len(args)))  # one too many
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})  # given twice


REPORTS = [case for case in CASES if case[4] is not None]


@pytest.mark.parametrize("cls, args, fields, text, report", REPORTS,
                         ids=[case[0].__name__ for case in REPORTS])
def test_report_form(cls, args, fields, text, report):
    # the dict each record's own to_jsonable method wrote
    data = cls(*args).to_jsonable()
    assert data == report
    assert json.loads(json.dumps(data)) == report


@pytest.mark.parametrize("record, report", [
    (JvInclusionReport((P((1,)), P((2, 1)), P((1,))), 4, P((1, 3, 2, 4)), P((1, 3, 2)),
                       P((2, 1, 3)), 5, False, P((2, 1, 4, 3))),
     {"parts": ["1", "21", "1"], "n": 4, "combined": "1324", "red_pattern": "132",
      "blue_pattern": "213", "checked": 5, "holds": False, "counterexample": "2143"}),
    (ExtremalResult(5, BinaryMatrix.from_strings(["110", "001", "011"]), 12, False),
     {"value": 5, "witness": {"rows": 3, "cols": 3, "ones": [[1, 1], [1, 2], [2, 3], [3, 2],
                                                              [3, 3]]},
      "nodes_explored": 12, "proven_optimal": False}),
    # an infinite row-density value, proven
    (ExtremalResult(None, BinaryMatrix.from_strings(["011"]), 0, True),
     {"value": None, "witness": {"rows": 1, "cols": 3, "ones": [[1, 2], [1, 3]]},
      "nodes_explored": 0, "proven_optimal": True}),
    (Permutation((10, 1, 2, 3, 4, 5, 6, 7, 8, 9)), "10 1 2 3 4 5 6 7 8 9"),
], ids=["jv-counterexample", "extremal-witness", "extremal-infinite", "permutation-spaced"])
def test_report_form_of_nested_values(record, report):
    data = record.to_jsonable()
    assert data == report
    assert json.loads(json.dumps(data)) == report


def test_unequal_fields_and_classes_compare_unequal():
    assert Permutation((1, 2)) != Permutation((2, 1))
    assert CertCheck("x", True, 1.0, 2.0) != CertCheck("x", False, 1.0, 2.0)
    class Sub(ExtremalResult):
        pass

    base, sub = ExtremalResult(3, W, 5, True), Sub(3, W, 5, True)
    assert base != sub and sub != base  # a subclass never equals its base
    assert len({base, sub, ExtremalResult(3, W, 5, True)}) == 2


def test_defaults_fill_missing_trailing_fields():
    spec = Command((), "core", len, text_key="contains")
    assert (spec.table, spec.text_key, spec.verdict) == (None, "contains", None)


def test_domain_checks_still_raise():
    with pytest.raises(PreconditionViolated, match=r"not a bijection on 1..2: \(1, 1\)"):
        Permutation((1, 1))
    with pytest.raises(PreconditionViolated, match="not square: 2x3"):
        PermutationMatrix(BinaryMatrix((1, 2), 3))
    with pytest.raises(PreconditionViolated, match="need k >= 2, got 1"):
        BoundParams(1, 1.0, 2)
    with pytest.raises(PreconditionViolated, match="duplicate check names"):
        CertReport((CHECK, CHECK))
