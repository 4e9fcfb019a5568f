"""Exact coefficient arithmetic: the rationals and prime fields F_p.

All arithmetic is exact. Rational values are `fractions.Fraction` (kept
normalized by the stdlib), prime-field values are ints reduced into
[0, p). No floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Number
from typing import Union

from ._record import Record, _fill
from .errors import CompositeCharacteristic, DivisionByZero, FieldMismatch
from .errors import InvalidCharacteristic, InvalidField, InvalidFieldSpec, InvalidScalar

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# ints stay below one machine word so pow(a, -1, p) and products are cheap
MAX_CHARACTERISTIC = 2**63


def is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin for n < 3.3 * 10^24, far past our cap
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Record):
    """The rationals (characteristic 0) or F_p for a prime p."""

    __slots__ = _fields = ("characteristic",)

    def __init__(self, characteristic: int):
        p = characteristic
        if not is_int(p):
            raise InvalidCharacteristic(f"characteristic must be an int, got {p!r}")
        if p != 0 and not _is_prime(p):
            raise CompositeCharacteristic(f"{p!r} is not prime")
        if p >= MAX_CHARACTERISTIC:
            raise InvalidCharacteristic(f"characteristic {p} exceeds machine-word bound")
        _fill(self, p)

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def reduce(self, value):
        """Check a value and reduce it to its raw field value: an int in
        [0, p) over F_p, a Fraction over Q. It takes an int, a Fraction or
        a Scalar of this field; a Scalar of another field raises
        FieldMismatch, and anything else, a bool, float or string
        included, InvalidScalar."""
        p = self.characteristic
        if is_int(value):
            return value % p if p else Fraction(value)
        if isinstance(value, Fraction):
            if p == 0:
                return value
            if value.denominator % p == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(value.denominator, -1, p) % p
        if not isinstance(value, Scalar):
            raise InvalidScalar(f"{value!r} is not an int, a Fraction or a Scalar of {self}")
        if value.field != self:
            raise FieldMismatch(f"scalar over {value.field} used in {self}")
        return value.value

    def scalar(self, value) -> "Scalar":
        """The Scalar of `reduce(value)`, or a Scalar of this field as it is:
        the box users hold coefficients in. The engine carries raw values."""
        if isinstance(value, Scalar) and value.field == self:
            return value
        return Scalar(self, value)

    def __call__(self, value) -> "Scalar":
        return self.scalar(value)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def __repr__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


def make_field(spec: Union[str, int]) -> Field:
    """Build a field from "q" or "rational" (any case), "f<p>", or an
    integer: 0 for the rationals, a prime p for F_p.

    "f<p>" is read as the integer p. Any other string raises
    InvalidFieldSpec. Non-prime integers raise CompositeCharacteristic;
    primes past one machine word are rejected outright (both checked by
    `Field` itself).
    """
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("rational", "q"):
            return Field(0)
        digits = re.fullmatch(r"f([0-9]+)", s)
        if digits is None:
            raise InvalidFieldSpec(f"field spec {spec!r} is not 'q', 'rational' or 'f<p>'")
        spec = int(digits[1])
    return Field(spec)


def check_field(field) -> None:
    """Refuse anything that is not a Field, before any work."""
    if not isinstance(field, Field):
        raise InvalidField(f"expected a Field, got {field!r}")


RATIONALS = Field(0)
GF2 = Field(2)


class Scalar(Record):
    """A field element: a Fraction over Q, an int in [0, p) over F_p. The
    constructor checks the field and stores `field.reduce(value)`."""

    __slots__ = _fields = ("field", "value")

    def __init__(self, field: Field, value):
        check_field(field)
        _fill(self, field, field.reduce(value))

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        f = self.field
        return Scalar(f, self.value + f.reduce(other))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        f = self.field
        return Scalar(f, self.value - f.reduce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        f = self.field
        return Scalar(f, self.value * f.reduce(other))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        return Scalar(self.field, Fraction(1, self.value))

    def __truediv__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self * self.field.scalar(other).inverse()

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if is_int(other) or isinstance(other, Fraction):
            p, q = self.field.characteristic, other.denominator  # p | q: no element of F_p
            return (self.value * q - other.numerator) % p == 0 if p else self.value == other
        return NotImplemented  # a bool or float is no scalar, so never equal

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return str(self.value)


# an operand that `Field.reduce` takes or refuses with a typed error; any
# other (an Element, say) gets NotImplemented, so its reflected method runs
_OPERANDS = (Scalar, Number, str)
