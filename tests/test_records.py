"""cutseq's records behave as the dataclasses they replace.

Each record is compared with a twin built here by `dataclasses.make_dataclass`
from the old fields, defaults, `frozen` flag and `__post_init__` refusals:
repr, ==, hash (or the TypeError of an unhashable record), positional and
keyword construction with defaults, the refusals' exception type and text, and
AttributeError on assigning to or deleting a field of a frozen record.
"""

import dataclasses
import math
from dataclasses import MISSING, field
from typing import NamedTuple

import pytest

from cutseq import (
    ApproxDirection,
    CoherenceVerdict,
    Crossing,
    CutseqError,
    ExactDirection,
    Expansion,
    InterpolationTable,
    LabeledPolygon,
    LetterPermutation,
    Mat2,
    PeriodicWord,
    Q2Scalar,
    RenormalizationTrace,
    SectorInterval,
    TerminationResult,
    TraceConfig,
    TraceLog,
    TransitionDiagram,
    WordWindow,
)
from cutseq.coherence import RenormalizationStep
from cutseq.farey import FareyBranch
from cutseq.symbolic import letters_for

# the former __post_init__ methods, word for word


def approx_check(self):
    if not 0.0 <= self.theta <= math.pi:
        raise ValueError(f"angle {self.theta} outside [0, pi]")


def permutation_check(self):
    letters = letters_for(len(self.images))
    if sorted(self.images) != sorted(letters):
        raise CutseqError(f"not a bijection of {len(self.images)} letters: {self.images}")
    object.__setattr__(self, "_table", str.maketrans(letters, "".join(self.images)))


def expansion_check(self):
    if self.tail is not None and self.tail not in (1, 2 * self.n - 1):
        raise CutseqError(f"constant tail must be 1 or {2 * self.n - 1}")


def config_check(self):
    if not self.epsilon > 0:
        raise CutseqError("epsilon must be positive")
    if not self.epsilon < 0.5:
        raise CutseqError("epsilon must be below 0.5")
    if self.max_crossings < 1:
        raise CutseqError("max_crossings must be >= 1")
    if self.mode not in ("approx", "exact"):
        raise CutseqError(f"unknown mode {self.mode!r}")


LIST = object()  # a default_factory=list field


class Case(NamedTuple):
    cls: type
    fields: tuple  # (name, default or MISSING or LIST)
    args: tuple  # every field, positionally
    other: tuple  # an unequal record, defaults left out
    frozen: bool = True
    check: object = None
    refused: tuple = ()  # argument tuples the check refuses
    hidden: tuple = ()  # init=False, repr=False, compare=False fields


REQ = MISSING
A, B = ApproxDirection(0.1), ApproxDirection(0.2)
STEP = RenormalizationStep("AD", 1, "AD")
CASES = [
    Case(ExactDirection, (("x", REQ), ("y", REQ)), (Q2Scalar(2, 1), Q2Scalar(1)),
         (Q2Scalar(1), Q2Scalar(0))),
    Case(ApproxDirection, (("theta", REQ),), (0.9,), (1.2,), check=approx_check,
         refused=((4.0,), (-0.1,), (math.nan,))),
    Case(WordWindow, (("letters", REQ), ("left_truncated", True), ("right_truncated", True)),
         ("ABBA", False, True), ("ABBA",)),
    Case(TransitionDiagram, (("n", REQ), ("index", REQ), ("edges", REQ)),
         (4, 0, frozenset({("A", "D"), ("B", "C")})), (4, 1, frozenset({("A", "D")}))),
    Case(LetterPermutation, (("images", REQ),), (("B", "A", "C", "D"),), (("A", "B", "C", "D"),),
         check=permutation_check, refused=((("A", "A", "C", "D"),), (("A",),)),
         hidden=("_table",)),
    Case(FareyBranch, (("sector", REQ), ("matrix", REQ)), (1, Mat2.identity()),
         (2, Mat2.identity())),
    Case(Expansion, (("n", REQ), ("entries", REQ), ("tail", None)), (4, (0, 1, 6), 1),
         (4, (0, 1, 6)), check=expansion_check, refused=((4, (0,), 3), (2, (), 2))),
    Case(SectorInterval, (("lo", REQ), ("hi", REQ), ("prefix", REQ), ("n", REQ)),
         (A, B, (0,), 4), (A, B, (1,), 4)),
    Case(TerminationResult, (("terminating", REQ), ("certainty", REQ), ("tail", REQ),
                             ("depth", REQ), ("itinerary", REQ)),
         (True, "exact", 1, 3, (0, 1, 1)), (False, "bounded", None, 3, (0, 1, 2))),
    Case(InterpolationTable, (("n", REQ), ("words", REQ)), (4, {(1, "A", "B"): "C"}), (3, {})),
    Case(LabeledPolygon, (("n", REQ), ("vertices", REQ), ("exact_vertices", REQ)),
         (2, ((0.5, 0.5), (0.5, -0.5)), ((Q2Scalar(1, 1), Q2Scalar(0)),)),
         (2, ((0.5, 0.5),), None)),
    Case(TraceConfig, (("epsilon", 1e-9), ("max_crossings", 1000), ("mode", "approx")),
         (1e-6, 50, "exact"), (), check=config_check,
         refused=((0.0, 10), (math.nan,), (0.5,), (1e-9, 0), (1e-9, 10, "fast"))),
    Case(Crossing, (("letter", REQ), ("point", REQ), ("side", REQ)), ("A", (0.5, 0.25), 1),
         ("B", (0.5, 0.25), 1)),
    Case(TraceLog, (("direction", REQ), ("start", REQ), ("crossings", LIST)),
         (A, (0.1, 0.2), [Crossing("A", (0.5, 0.25), 0)]), (A, (0.1, 0.2)), frozen=False),
    Case(CoherenceVerdict, (("accepted", REQ), ("failed", None), ("groups", ())),
         (False, "C2", (1, 2)), (True,)),
    Case(RenormalizationStep, (("word", REQ), ("diagram", REQ), ("normalized", REQ)),
         ("ADBD", 3, "BCAC"), ("ADBD", 4, "BCAC")),
    Case(RenormalizationTrace, (("steps", LIST), ("failure", None), ("ambiguous_set", ()),
                                ("tail", None), ("split", None)),
         ([STEP], "ambiguous", (1, 2), 7, (1, (2, 3))), (), frozen=False),
]


def twin(case: Case) -> type:
    specs = []
    for name, default in case.fields:
        if default is MISSING:
            specs.append(name)
        elif default is LIST:
            specs.append((name, object, field(default_factory=list)))
        else:
            specs.append((name, object, field(default=default)))
    specs += [(name, object, field(init=False, repr=False, compare=False)) for name in case.hidden]
    namespace = {"__post_init__": case.check} if case.check else {}
    return dataclasses.make_dataclass(case.cls.__name__, specs, frozen=case.frozen,
                                      namespace=namespace)


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return TypeError, str(exc)


def same(ours, ref):
    assert repr(ours) == repr(ref)
    assert hash_or_error(ours) == hash_or_error(ref)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.cls.__name__)
def test_record_matches_its_dataclass_twin(case):
    assert len(CASES) == 17  # with PeriodicWord below, the 18 former dataclasses
    Twin = twin(case)
    names = [name for name, _ in case.fields]
    required = sum(default is MISSING for _, default in case.fields)
    ours = case.cls(*case.args)
    same(ours, Twin(*case.args))
    same(case.cls(**dict(zip(names, case.args))), Twin(**dict(zip(names, case.args))))
    same(case.cls(*case.args[:required]), Twin(*case.args[:required]))
    same(case.cls(*case.other), Twin(*case.other))
    # == compares the fields, and only with the same class
    assert ours == case.cls(*case.args) and not ours != case.cls(*case.args)
    assert ours != case.cls(*case.other) and Twin(*case.args) != Twin(*case.other)
    assert ours != Twin(*case.args) and ours.__eq__(Twin(*case.args)) is NotImplemented
    sub = type("Sub", (case.cls,), {"__slots__": ()})(*case.args)  # a subclass is another class
    assert ours != sub and ours.__eq__(sub) is NotImplemented
    assert not hasattr(ours, "__dict__")  # slots only
    ref = Twin(*case.args)
    for name in names:
        if case.frozen:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(ours, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(ours, name)
        else:  # assignable and deletable, one field after another
            setattr(ours, name, None)
            setattr(ref, name, None)
            same(ours, ref)
            delattr(ours, name)
            assert not hasattr(ours, name)
            setattr(ours, name, None)
    if any(default is LIST for _, default in case.fields):
        assert case.cls(*case.args[:required]) == case.cls(*case.args[:required])
        fresh = [case.cls(*case.args[:required]) for _ in range(2)]
        assert all(getattr(fresh[0], n) is not getattr(fresh[1], n) for n, d in case.fields
                   if d is LIST)


@pytest.mark.parametrize(
    "case, args",
    [(case, args) for case in CASES for args in case.refused],
    ids=lambda v: v.cls.__name__ if isinstance(v, Case) else repr(v),
)
def test_record_refuses_as_its_twin(case, args):
    with pytest.raises(Exception) as ref:
        twin(case)(*args)
    with pytest.raises(type(ref.value)) as ours:
        case.cls(*args)
    assert type(ours.value) is type(ref.value)
    assert str(ours.value) == str(ref.value)


@pytest.mark.parametrize("held", ["ABB", "BBA", "BAB"])
def test_periodic_word_matches_a_twin_on_its_canonical_period(held):
    # printed, hashed and compared through the least rotation of the held period
    Twin = dataclasses.make_dataclass("PeriodicWord", ["period"], frozen=True)
    ref = Twin("ABB")
    for ours in (PeriodicWord(held), PeriodicWord(_text=held), PeriodicWord.of(held * 3)):
        same(ours, ref)
        assert ours == PeriodicWord("ABB") and ours != PeriodicWord("AB")
        assert ours.__eq__(ref) is NotImplemented
        for name in ("_text", "period"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(ours, name, "AB")
        with pytest.raises(AttributeError):
            del ours._text
        assert ours.period == "ABB"
