"""Field and scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldMismatch,
    InvalidCharacteristic,
    InvalidField,
    InvalidFieldSpec,
    InvalidScalar,
    LoophomError,
)
from loophom.analysis import SpaceSpec
from loophom.graded_algebra import GradedAlgebra
from loophom.linalg import Matrix
from loophom.scalars import GF2, MAX_CHARACTERISTIC, RATIONALS, Field, Scalar, make_field
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
    assert F3(2).inverse() == F3(2)  # 2*2 = 4 = 1 mod 3
    assert F7(3).inverse() == F7(5)  # 3*5 = 15 = 1 mod 7
    assert RATIONALS(Fraction(3, 4)).inverse() == RATIONALS(Fraction(4, 3))


def test_fraction_coercion_mod_p():
    # 1/2 = 4 mod 7 since 2*4 = 1
    assert F7(Fraction(1, 2)) == F7(4)
    assert F7(Fraction(3, 2)) == F7(5)
    with pytest.raises(DivisionByZero):
        F7(Fraction(1, 14))


def test_zero_has_no_inverse():
    with pytest.raises(DivisionByZero):
        F3(0).inverse()
    with pytest.raises(DivisionByZero):
        RATIONALS(1) / RATIONALS(0)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatch):
        F3(1) + F7(1)
    with pytest.raises(FieldMismatch):
        GF2.scalar(F3(1))
    with pytest.raises(FieldMismatch):
        GF2.reduce(F3(1))
    assert F3(1) != F7(1) and GF2(0) != RATIONALS(0)  # compared, not refused


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
    with pytest.raises(InvalidScalar, match="not an int, a Fraction or a Scalar") as exc:
        field.scalar(value)
    assert isinstance(exc.value, LoophomError) and isinstance(exc.value, TypeError)
    with pytest.raises(InvalidScalar):
        field(value)
    with pytest.raises(InvalidScalar):
        field.reduce(value)
    with pytest.raises(InvalidScalar):
        Scalar(field, value)
    # arithmetic refuses the same values, but leaves None to Python
    refused = TypeError if value is None else InvalidScalar
    with pytest.raises(refused):
        field(1) + value
    with pytest.raises(refused):
        value * field(1)
    with pytest.raises(refused):
        field(1) / value
    assert field(1) != value and field(0) != value  # compared, not coerced


def test_scalar_still_takes_ints_fractions_and_its_own_scalars():
    assert F3.scalar(-1) == F3(2) and F3.scalar(Fraction(1, 2)) == F3(2)
    assert RATIONALS.scalar(3).value == Fraction(3)
    assert RATIONALS.scalar(Fraction(1, 10)).value == Fraction(1, 10)
    assert F7.scalar(F7(4)) == F7(4)
    four = F7(4)
    assert F7.scalar(four) is four
    # reduce gives the raw value a Scalar boxes: an int in [0, p), a Fraction over Q
    for field, value, raw in [
        (F3, -1, 2),
        (F3, Fraction(1, 2), 2),
        (F7, F7(4), 4),
        (GF2, 5, 1),
        (RATIONALS, -3, Fraction(-3)),
        (RATIONALS, Fraction(1, 10), Fraction(1, 10)),
        (RATIONALS, RATIONALS(Fraction(2, 3)), Fraction(2, 3)),
    ]:
        got = field.reduce(value)
        assert got == raw == field.scalar(value).value
        assert type(got) is (Fraction if field.is_rational else int)


def test_scalar_constructor_checks_and_reduces():
    assert Scalar(F3, 7) == F3(1) and Scalar(F3, 7).value == 1
    assert Scalar(F3, Fraction(1, 2)).value == 2 and Scalar(F3, F3(2)).value == 2
    assert type(Scalar(RATIONALS, 2).value) is Fraction
    with pytest.raises(FieldMismatch):
        Scalar(F3, F7(1))
    with pytest.raises(TypeError, match="expected a Field"):
        Scalar(3, 1)
    # a Scalar entry is reduced like any other, so 3 in F3 is no entry
    m = Matrix(F3, 1, 1, {(0, 0): Scalar(F3, 3)})
    assert m.entries == {} and m.rank() == 0


def test_int_coercion_in_ops():
    assert F3(2) + 2 == F3(1)
    assert 2 * F3(2) == F3(1)
    assert F3(1) - 2 == F3(2)
    assert 1 - F3(2) == F3(2)
    assert F7(3) / 5 == F7(2)  # 3 * 5^{-1} = 3*3 = 9 = 2


def test_bool_and_eq():
    assert not F3(0)
    assert F3(3) == F3(0)
    assert bool(RATIONALS(Fraction(-1, 5)))
    assert RATIONALS(2) == RATIONALS(Fraction(4, 2))


def test_a_fraction_with_p_in_its_denominator_is_unequal_not_refused():
    # 1/3 is no element of F3, so it equals none of them
    assert (F3(1) == Fraction(1, 3)) is False
    assert (Fraction(1, 3) == F3(1)) is False
    assert Fraction(1, 3) not in [F3(1)] and F3(1) not in [Fraction(1, 3)]
    assert F3(2) == Fraction(1, 2)  # 2 * 2 = 1 mod 3


fields = st.sampled_from([RATIONALS, GF2, F3, F7, Field(13)])
ints = st.integers(min_value=-50, max_value=50)


@given(fields, ints, ints, ints)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(field, a, b, c):
    x, y, z = field(a), field(b), field(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + field.zero == x
    assert x * field.one == x
    assert x + (-x) == field.zero
    assert x - y == x + (-y)


@given(fields, ints)
@settings(max_examples=200, deadline=None)
def test_inverse_axiom(field, a):
    x = field(a)
    if x:
        assert x * x.inverse() == field.one
        assert x / x == field.one
    else:
        with pytest.raises(DivisionByZero):
            x.inverse()


@given(ints, ints)
@settings(max_examples=100, deadline=None)
def test_rational_matches_fraction(a, b):
    x = RATIONALS(a) * RATIONALS(b) + RATIONALS(a)
    assert Fraction(x.value) == Fraction(a) * Fraction(b) + Fraction(a)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpaceSpec("loop", 2, 3),
        lambda: GradedAlgebra("q", []),
        lambda: Matrix(3, 1, 1),
        lambda: e2_page(2, "f3", "loop", 10),
        lambda: generator_schedule(1, 2, "loop", 10),
        lambda: Scalar(None, 1),
    ],
    ids=["SpaceSpec", "GradedAlgebra", "Matrix", "e2_page", "generator_schedule", "Scalar"],
)
def test_what_is_not_a_field_is_refused_with_a_typed_error(build):
    with pytest.raises(InvalidField, match="expected a Field") as refused:
        build()
    assert isinstance(refused.value, LoophomError) and isinstance(refused.value, TypeError)
