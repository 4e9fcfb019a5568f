"""Exact coefficient arithmetic: the rationals and prime fields F_p.

All arithmetic is exact. Rational values are `fractions.Fraction` (kept
normalized by the stdlib), prime-field values are ints reduced into
[0, p). No floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CompositeCharacteristic, DivisionByZero, FieldMismatch
from .errors import InvalidCharacteristic, InvalidFieldSpec

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


@dataclass(frozen=True, slots=True)
class Field:
    """The rationals (characteristic 0) or F_p for a prime p."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if not is_int(p):
            raise InvalidCharacteristic(f"characteristic must be an int, got {p!r}")
        if p != 0 and not _is_prime(p):
            raise CompositeCharacteristic(f"{p!r} is not prime")
        if p >= MAX_CHARACTERISTIC:
            raise InvalidCharacteristic(f"characteristic {p} exceeds machine-word bound")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar of this field into a Scalar."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar over {value.field} used in {self}")
            return value
        p = self.characteristic
        if p == 0:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
            num = value.numerator % p
            return Scalar(self, num * pow(value.denominator % p, -1, p) % p)
        return Scalar(self, int(value) % p)

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
        raise TypeError(f"expected a Field, got {field!r}")


RATIONALS = Field(0)
GF2 = Field(2)


@dataclass(frozen=True, slots=True)
class Scalar:
    """A field element: a Fraction over Q, an int in [0, p) over F_p."""

    field: Field
    value: object

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        v = self.value + other.value
        return Scalar(self.field, v % p if p else v)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.characteristic
        return Scalar(self.field, (-self.value) % p if p else -self.value)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.characteristic
        v = self.value * other.value
        return Scalar(self.field, v % p if p else v)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, 1 / self.value)
        return Scalar(self.field, pow(self.value, -1, p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self == self.field.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return str(self.value)
