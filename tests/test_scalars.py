"""Fields and their one coefficient representation: the raw value
`Field.reduce` gives, which calling a field also gives."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom.errors import (
    AlgebraMismatch,
    CompositeCharacteristic,
    DivisionByZero,
    InvalidCharacteristic,
    InvalidField,
    InvalidFieldSpec,
    InvalidScalar,
    LoophomError,
)
from loophom.analysis import SpaceSpec
from loophom.graded_algebra import Element, GradedAlgebra
from loophom.linalg import Matrix
from loophom.scalars import GF2, MAX_CHARACTERISTIC, RATIONALS, Field, make_field
from loophom.spaces import e2_page, generator_schedule

F3 = Field(3)
F7 = Field(7)


def test_make_field_specs():
    assert make_field("q") == RATIONALS
    assert make_field("Q") == RATIONALS
    assert make_field("rational") == RATIONALS
    assert make_field(0) == RATIONALS
    assert make_field(2) == GF2
    assert make_field(101).characteristic == 101
    assert make_field("f2") == make_field(" F2 ") == GF2
    assert make_field("f101").characteristic == 101
    assert make_field("f0") == RATIONALS


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 561, 1 + 2**20, "f4"])
def test_make_field_rejects_nonprime(bad):
    with pytest.raises(CompositeCharacteristic):
        make_field(bad)


@pytest.mark.parametrize("bad", ["gf(3)", "real"])
def test_make_field_rejects_malformed_spec(bad):
    with pytest.raises(InvalidFieldSpec, match="field spec"):
        make_field(bad)


@pytest.mark.parametrize("bad", [4, 1, -3])
def test_field_constructor_rejects_nonprime(bad):
    with pytest.raises(CompositeCharacteristic):
        Field(bad)


@pytest.mark.parametrize("bad", [False, True, 2.5, "2", None])
def test_field_constructor_refuses_a_bool_or_non_int(bad):
    with pytest.raises(InvalidCharacteristic, match="characteristic must be an int"):
        Field(bad)


def test_make_field_rejects_huge_prime():
    # 2^89 - 1 is a Mersenne prime but past the machine-word cap
    with pytest.raises(ValueError):
        make_field(2**89 - 1)
    assert MAX_CHARACTERISTIC == 2**63


def test_field_repr():
    assert repr(RATIONALS) == "Q"
    assert repr(Field(5)) == "F5"


def test_known_inverses():
    # an inverse is the reduced Fraction 1/v
    assert F3(Fraction(1, 2)) == 2  # 2*2 = 4 = 1 mod 3
    assert F7(Fraction(1, 3)) == 5  # 3*5 = 15 = 1 mod 7
    assert RATIONALS(1 / Fraction(3, 4)) == Fraction(4, 3)


def test_fraction_coercion_mod_p():
    # 1/2 = 4 mod 7 since 2*4 = 1
    assert F7(Fraction(1, 2)) == F7(4)
    assert F7(Fraction(3, 2)) == F7(5)
    with pytest.raises(DivisionByZero):
        F7(Fraction(1, 14))


def test_zero_has_no_inverse():
    # p is 0 in F_p, so a Fraction with p in its denominator names no element
    for field, value in ((F3, Fraction(1, 3)), (F7, Fraction(5, 14)), (GF2, Fraction(1, 4))):
        with pytest.raises(DivisionByZero, match="vanishes mod") as exc:
            field.reduce(value)
        assert isinstance(exc.value, LoophomError) and isinstance(exc.value, ZeroDivisionError)


def test_mixed_field_arithmetic_rejected():
    # a raw value carries no field, so fields meet only where two algebras
    # do (two pages: tests/test_dga.py), and there they are refused
    x3 = GradedAlgebra(F3, [("x", 2, 1, "polynomial")]).gen("x")
    x7 = GradedAlgebra(F7, [("x", 2, 1, "polynomial")]).gen("x")
    for mixed in (lambda: x3 + x7, lambda: x3 * x7, lambda: x3 - x7):
        with pytest.raises(AlgebraMismatch):
            mixed()


def _refusers(field, value):
    """Every way a coefficient enters: calling the field, `reduce`, an
    element's terms, its scaling from either side, and a matrix entry."""
    alg = GradedAlgebra(field, [("x", 2, 1, "polynomial")])
    x = alg.gen("x")
    (m,) = x.terms
    return [
        lambda: field(value),
        lambda: field.reduce(value),
        lambda: Element(alg, {m: value}),
        lambda: x.scale(value),
        lambda: x * value,
        lambda: value * x,
        lambda: Matrix(field, 1, 1, {(0, 0): value}),
    ]


@pytest.mark.parametrize(
    "field, value",
    [
        (F3, 2.7),
        (GF2, 1.5),
        (RATIONALS, 0.1),
        (RATIONALS, 2.0),
        (F3, "2"),
        (RATIONALS, "1/2"),
        (F3, True),
        (RATIONALS, False),
        (F7, None),
    ],
)
def test_scalar_refuses_what_is_not_an_int_fraction_or_scalar(field, value):
    # these used to truncate (2.7 -> 2 in F3), round (0.1 -> a binary
    # fraction in Q) or parse ("2"), so no coefficient is ever inexact
    with pytest.raises(InvalidScalar, match="not an int or a Fraction") as exc:
        field.reduce(value)
    assert isinstance(exc.value, LoophomError) and isinstance(exc.value, TypeError)
    for refuser in _refusers(field, value):
        with pytest.raises(InvalidScalar):
            refuser()


@pytest.mark.parametrize(
    "field, value", [(F3, Fraction(1, 3)), (F7, Fraction(-5, 14)), (GF2, Fraction(3, 8))]
)
def test_a_fraction_with_p_in_its_denominator_is_refused_everywhere(field, value):
    for refuser in _refusers(field, value):
        with pytest.raises(DivisionByZero):
            refuser()


def test_scalar_still_takes_ints_fractions_and_its_own_scalars():
    # reduce gives the raw value: an int in [0, p), a Fraction over Q; a
    # raw value reduces to itself
    for field, value, raw in [
        (F3, -1, 2),
        (F3, Fraction(1, 2), 2),
        (F7, 4, 4),
        (GF2, 5, 1),
        (RATIONALS, -3, Fraction(-3)),
        (RATIONALS, Fraction(1, 10), Fraction(1, 10)),
    ]:
        got = field.reduce(value)
        assert got == raw and field.reduce(got) == got
        assert type(got) is type(field.reduce(got)) is (Fraction if field.is_rational else int)


def test_scalar_constructor_checks_and_reduces():
    # calling a field is `reduce`: no box is built around the value
    assert Field.__call__ is Field.reduce
    assert F3(7) == 1 and type(F3(7)) is int
    assert F3(Fraction(1, 2)) == 2 and F3(F3(2)) == 2
    assert type(RATIONALS(2)) is Fraction and RATIONALS(1) == Fraction(1)
    # a reduced entry is stored like any other, so 3 in F3 is no entry
    m = Matrix(F3, 1, 1, {(0, 0): F3(3)})
    assert m.entries == {} and m.rank() == 0


def test_int_coercion_in_ops():
    # raw values add and multiply as ints; reducing brings the sum back
    assert F3(F3(2) + 2) == F3(1)
    assert F3(2 * F3(2)) == F3(1)
    assert F3(F3(1) - 2) == F3(2)
    assert F3(1 - F3(2)) == F3(2)
    assert F7(F7(3) * F7(Fraction(1, 5))) == F7(2)  # 3 * 5^{-1} = 3*3 = 9 = 2


def test_bool_and_eq():
    assert not F3(0)
    assert F3(3) == F3(0)
    assert bool(RATIONALS(Fraction(-1, 5)))
    assert RATIONALS(2) == RATIONALS(Fraction(4, 2))


fields = st.sampled_from([RATIONALS, GF2, F3, F7, Field(13)])
ints = st.integers(min_value=-50, max_value=50)


@given(fields, ints, ints, ints)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(field, a, b, c):
    r = field.reduce
    x, y, z = r(a), r(b), r(c)
    assert r(r(x + y) + z) == r(x + r(y + z))
    assert r(x + y) == r(y + x)
    assert r(r(x * y) * z) == r(x * r(y * z))
    assert r(x * y) == r(y * x)
    assert r(x * r(y + z)) == r(r(x * y) + r(x * z))
    assert r(x + r(0)) == x
    assert r(x * r(1)) == x
    assert r(x + r(-x)) == r(0)
    assert r(x - y) == r(x + r(-y))


@given(fields, ints)
@settings(max_examples=200, deadline=None)
def test_inverse_axiom(field, a):
    x = field.reduce(a)
    if x:
        assert field.reduce(x * field.reduce(Fraction(1, x))) == field.reduce(1)
    else:  # a is a multiple of p, or 0
        with pytest.raises(ZeroDivisionError):
            field.reduce(Fraction(1, a))


@given(fields, st.data())
@settings(max_examples=300, deadline=None)
def test_reduce_commutes_with_the_ring_operations(field, data):
    # reduce(a o b) == reduce(reduce(a) o reduce(b)), and over Q it is
    # Fraction arithmetic
    p = field.characteristic
    value = st.one_of(
        st.integers(-10**20, 10**20),
        st.fractions(max_denominator=60).filter(lambda f: not p or f.denominator % p),
    )
    a, b = data.draw(value), data.draw(value)
    r = field.reduce
    for op in (operator.add, operator.sub, operator.mul):
        got = r(op(a, b))
        assert got == r(op(r(a), r(b)))
        assert type(got) is (Fraction if p == 0 else int)
        if p == 0:
            assert got == op(Fraction(a), Fraction(b))
        else:
            assert 0 <= got < p


@given(ints, ints)
@settings(max_examples=100, deadline=None)
def test_rational_matches_fraction(a, b):
    x = RATIONALS(RATIONALS(a) * RATIONALS(b) + RATIONALS(a))
    assert type(x) is Fraction and x == Fraction(a) * Fraction(b) + Fraction(a)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpaceSpec("loop", 2, 3),
        lambda: GradedAlgebra("q", []),
        lambda: Matrix(3, 1, 1),
        lambda: e2_page(2, "f3", "loop", 10),
        lambda: generator_schedule(1, 2, "loop", 10),
    ],
    ids=["SpaceSpec", "GradedAlgebra", "Matrix", "e2_page", "generator_schedule"],
)
def test_what_is_not_a_field_is_refused_with_a_typed_error(build):
    with pytest.raises(InvalidField, match="expected a Field") as refused:
        build()
    assert isinstance(refused.value, LoophomError) and isinstance(refused.value, TypeError)
