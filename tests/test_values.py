"""The package's eleven value classes keep one contract: construction by
position and by keyword with the same defaults, the same refusals (each a
LoophomError), field-wise ==, a hash of the fields (TypeError where a
field is a dict), a repr of the form Class(field=value, ...) (Field
prints as a field), AttributeError when any field is assigned or
deleted, and copy, deepcopy and pickle round trips."""

import copy
import pickle

import pytest

from loophom import (
    BettiTable,
    DgaPage,
    Generator,
    HolLoopInclusion,
    InducedMapReport,
    PoincareSeries,
    RankProfile,
    SpaceSpec,
    VerificationReport,
    e2_page,
)
from loophom.dga import InducedCell
from loophom.errors import (
    AlgebraMismatch,
    CompositeCharacteristic,
    InvalidCharacteristic,
    InvalidComponent,
    InvalidCutoff,
    InvalidDimension,
    InvalidGenerator,
    InvalidGrading,
    InvalidVariant,
    InvalidVerdict,
    LoophomError,
    NegativeCutoff,
    NotAChainMap,
)
from loophom.scalars import Field

F3 = Field(3)
SUB = e2_page(1, F3, "hol", 4)
BIG = e2_page(1, F3, "loop", 4)
SPEC = SpaceSpec("loop", 2, F3)
CELL = InducedCell(1, 1, 2)


def _same_page(a, b):
    """Pages compare by identity of their algebra, so a deep copy is
    checked by its generators and its differential's images."""
    return (
        a.differential.algebra is a.algebra
        and repr(a.algebra) == repr(b.algebra)
        and {g: repr(im) for g, im in a.differential.images.items()}
        == {g: repr(im) for g, im in b.differential.images.items()}
    )


def _same_inclusion(a, b):
    return _same_page(a.sub_page, b.sub_page) and _same_page(a.big_page, b.big_page)


# class, args, a differing instance's args, repr, hashable, [(bad args, error)]
CASES = {
    "Field": (
        Field, (3,), (5,), "F3", True,
        [((4,), CompositeCharacteristic), ((2.5,), InvalidCharacteristic)],
    ),
    "Generator": (
        Generator, (0, "x", 2, 1, "truncated", 3), (0, "x", 2, 1, "truncated", 2),
        "Generator(gid=0, name='x', degree=2, weight=1, kind='truncated', truncation=3)", True,
        [
            ((0, "x", 2, 1, "bogus"), InvalidGenerator),
            ((0, "x", 2, 1, "truncated"), InvalidGenerator),
        ],
    ),
    "DgaPage": (
        DgaPage, (BIG.algebra, BIG.differential), (SUB.algebra, SUB.differential),
        f"DgaPage(algebra={BIG.algebra!r}, differential={BIG.differential!r})", True,
        [((BIG.algebra, SUB.differential), AlgebraMismatch)],
    ),
    "RankProfile": (
        RankProfile, (5, 1, 2), (5, 2, 1),
        "RankProfile(dim=5, rank_d_here=1, rank_d_above=2)", True, [],
    ),
    "InducedCell": (
        InducedCell, (1, 1, 2), (0, 1, 2),
        "InducedCell(rank=1, betti_sub=1, betti_big=2)", True, [],
    ),
    "InducedMapReport": (
        InducedMapReport, ({(0, 1): CELL},), ({},),
        "InducedMapReport(cells={(0, 1): InducedCell(rank=1, betti_sub=1, betti_big=2)})", False,
        [],
    ),
    "HolLoopInclusion": (
        HolLoopInclusion, (SUB, BIG), (SUB, e2_page(1, F3, "loop", 6)),
        f"HolLoopInclusion(sub_page={SUB!r}, big_page={BIG!r})", True,
        [((BIG, SUB), NotAChainMap)],
    ),
    "SpaceSpec": (
        SpaceSpec, ("loop", 2, F3), ("hol", 2, F3),
        "SpaceSpec(variant='loop', n=2, field=F3)", True,
        [
            (("bogus", 2, F3), InvalidVariant),
            (("loop", 0, F3), InvalidDimension),
            (("loop", 2, 3), TypeError),
        ],
    ),
    "BettiTable": (
        BettiTable, (SPEC, "ordinary", 6, {(1, 0): 1}), (SPEC, "regraded", 6, {(1, 0): 1}),
        "BettiTable(space=SpaceSpec(variant='loop', n=2, field=F3), grading='ordinary',"
        " cutoff=6, entries={(1, 0): 1})", False,
        [
            ((SPEC, "weird", -5, {}), InvalidGrading),
            ((SPEC, "ordinary", -5, {}), NegativeCutoff),
            ((SPEC, "ordinary", 6.0, {}), InvalidCutoff),
        ],
    ),
    "PoincareSeries": (
        PoincareSeries, (SPEC, 1, "ordinary", 6, {0: 1, 3: 2}), (SPEC, 1, "ordinary", 6, {0: 1}),
        "PoincareSeries(space=SpaceSpec(variant='loop', n=2, field=F3), component=1,"
        " grading='ordinary', cutoff=6, coefficients={0: 1, 3: 2})", False,
        [
            ((SPEC, 1.0, "ordinary", 6, {}), InvalidComponent),
            ((SpaceSpec("hol", 2, F3), -1, "ordinary", 6, {}), InvalidComponent),
            ((SPEC, 1, "weird", 6, {}), InvalidGrading),
            ((SPEC, 1, "ordinary", -1, {}), NegativeCutoff),
            ((SPEC, 1, "ordinary", "6", {}), InvalidCutoff),
        ],
    ),
    "VerificationReport": (
        VerificationReport, ("unit", {"n": 2}, "Fail", {"x": [1]}), ("unit", {"n": 2}, "Fail"),
        "VerificationReport(check='unit', params={'n': 2}, verdict='Fail', witness={'x': [1]})",
        False,
        [(("unit", {}, "pass"), InvalidVerdict), (("unit", {}, None), InvalidVerdict)],
    ),
}
SAME = {"DgaPage": _same_page, "HolLoopInclusion": _same_inclusion}
FIELDS = {
    Field: ("characteristic",),
    Generator: ("gid", "name", "degree", "weight", "kind", "truncation"),
    DgaPage: ("algebra", "differential"),
    RankProfile: ("dim", "rank_d_here", "rank_d_above"),
    InducedCell: ("rank", "betti_sub", "betti_big"),
    InducedMapReport: ("cells",),
    HolLoopInclusion: ("sub_page", "big_page"),
    SpaceSpec: ("variant", "n", "field"),
    BettiTable: ("space", "grading", "cutoff", "entries"),
    PoincareSeries: ("space", "component", "grading", "cutoff", "coefficients"),
    VerificationReport: ("check", "params", "verdict", "witness"),
}


@pytest.mark.parametrize("name", CASES)
def test_value_class_contract(name):
    cls, args, other_args, text, hashable, refusals = CASES[name]
    same = SAME.get(name, lambda a, b: a == b)
    obj = cls(*args)
    fields = FIELDS[cls]

    # construction, by position and by keyword
    assert [getattr(obj, f) for f in fields] == list(args)
    assert cls(**dict(zip(fields, args))) == obj
    for bad, error in refusals:
        with pytest.raises(error) as refused:
            cls(*bad)
        assert isinstance(refused.value, LoophomError)

    # ==, within the class and by every field
    assert obj == cls(*args) and not obj != cls(*args)
    assert obj != cls(*other_args)
    assert obj != tuple(args)

    # a hash of the fields, or TypeError from a dict field
    if hashable:
        assert hash(obj) == hash(cls(*args))
    else:
        with pytest.raises(TypeError):
            hash(obj)

    assert repr(obj) == text

    # no field can be assigned or deleted
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, getattr(obj, f))
        with pytest.raises(AttributeError):
            setattr(obj, f, "changed")
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert [getattr(obj, f) for f in fields] == list(args)

    # copy, deepcopy and pickle give an equal object of the same class
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and same(clone, obj)
        if name not in SAME:
            assert repr(clone) == text
        if hashable and name not in SAME:
            assert hash(clone) == hash(obj)


def test_defaults_are_kept():
    assert Generator(0, "x", 2, 1, "polynomial").truncation is None
    assert VerificationReport("unit", {}, "Pass").witness is None
    assert VerificationReport("unit", {}, "Pass") == VerificationReport("unit", {}, "Pass", None)


def test_rank_profile_betti_is_read_only_and_no_field():
    prof = RankProfile(5, 1, 2)
    assert prof.betti == 2
    with pytest.raises(AttributeError):
        prof.betti = 3
    assert prof.betti == 2
    assert "betti" not in repr(prof)
    # == and the hash go by the three fields alone
    assert prof == RankProfile(5, 1, 2) and hash(prof) == hash(RankProfile(5, 1, 2))
    assert pickle.loads(pickle.dumps(prof)).betti == 2
