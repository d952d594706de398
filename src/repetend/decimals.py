"""Signed finite digit words with a point: exact base-b decimals.

A value is sign * N(word) * base**(-point) with the point constrained to
lie inside the word (0 <= point <= len).  Numbers are canonical from
construction: trailing zeros right of the point and leading zeros not
needed to reach it go, and zero has the + sign; values with a net
positive exponent (like 370 = 37 * 10**1) carry trailing zeros instead.

Also home to the scalar action of these numbers on circular words, which
splits a product (finite decimal) * (pure repeating fraction) into a
finite carry part and a rotated remainder word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .words import (
    CircularWord,
    _check_digits,
    _spell,
    digit_count,
    digits_to_int,
    int_to_digits,
)


@dataclass(frozen=True)
class DecimalNumber:
    sign: int
    digits: tuple[int, ...]
    point: int
    base: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 <= self.point <= len(self.digits):
            raise ValueError("point must lie within the word")
        _check_digits(self.digits, self.base)
        # (s, 0W, c) = (s, W, c) = (s, W0, c+1) and -0 = +0, as from_scaled has it
        scaled = self.sign * digits_to_int(self.digits, self.base)
        self.__dict__.update(vars(DecimalNumber.from_scaled(scaled, self.point, self.base)))

    @classmethod
    def from_scaled(cls, scaled: int, point: int, base: int) -> "DecimalNumber":
        """Canonical number with value scaled * base**(-point)."""
        if base < 2:
            raise ValueError("base must be >= 2")
        if scaled == 0:
            point = 0
        sign = 1 if scaled >= 0 else -1
        mag = abs(scaled)
        if point < 0:
            mag *= base**-point
            point = 0
        digits = int_to_digits(mag, base, max(digit_count(mag, base), point, 1))
        # trailing zeros right of the point carry no value
        strip = point and point - len(bytes(digits[-point:]).rstrip(b"\0"))
        if strip:
            digits, point = digits[:-strip], point - strip
        # int_to_digits wrote valid letters around the point: no checks
        number = object.__new__(cls)
        number.__dict__.update(sign=sign, digits=digits, point=point, base=base)
        if not strip:
            number.__dict__["scaled"] = sign * mag  # fill the cached_property below
        return number

    @classmethod
    def from_int(cls, n: int, base: int) -> "DecimalNumber":
        return cls.from_scaled(n, 0, base)

    @classmethod
    def zero(cls, base: int) -> "DecimalNumber":
        return cls(1, (0,), 0, base)

    @classmethod
    def one(cls, base: int) -> "DecimalNumber":
        return cls(1, (1,), 0, base)

    @cached_property
    def scaled(self) -> int:
        """The signed integer k with value k * base**(-point)."""
        return self.sign * digits_to_int(self.digits, self.base)

    def canonical(self) -> "DecimalNumber":
        return self

    def is_zero(self) -> bool:
        return not any(self.digits)

    def is_one(self) -> bool:
        return self.scaled == 1 and self.point == 0

    def is_integer(self) -> bool:
        return self.point == 0

    def scaled_to(self, point: int) -> int:
        """The integer k with value k * base**(-point); point >= self.point."""
        if point < self.point:
            raise ValueError("cannot rescale to a coarser point exactly")
        return self.scaled * self.base ** (point - self.point)

    def _coerce(self, other) -> "DecimalNumber":
        if isinstance(other, int):
            return DecimalNumber.from_int(other, self.base)
        if isinstance(other, DecimalNumber):
            if other.base != self.base:
                raise ValueError(f"mixed bases {self.base} and {other.base}")
            return other
        return NotImplemented

    def __add__(self, other) -> "DecimalNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        point = max(self.point, other.point)
        return DecimalNumber.from_scaled(
            self.scaled_to(point) + other.scaled_to(point), point, self.base
        )

    __radd__ = __add__

    def __sub__(self, other) -> "DecimalNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "DecimalNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DecimalNumber.from_scaled(
            self.scaled * other.scaled, self.point + other.point, self.base
        )

    __rmul__ = __mul__

    def __neg__(self) -> "DecimalNumber":
        return DecimalNumber.from_scaled(-self.scaled, self.point, self.base)

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        point = max(self.point, other.point)
        a, b = self.scaled_to(point), other.scaled_to(point)
        return (a > b) - (a < b)

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        text = _spell(self.digits)
        whole, frac = text[: len(text) - self.point] or "0", text[len(text) - self.point :]
        out = whole if not frac else f"{whole}.{frac}"
        return out if self.sign > 0 else f"-{out}"


def scalar_action(
    d: DecimalNumber, p: CircularWord
) -> tuple[DecimalNumber, CircularWord]:
    """Split d * N(p)/m into a finite part and a remainder word, m = b**ell - 1.

    Multiplying by b**-c only rotates a period: with k, c the scaled
    integer and point of d, p rotated right by c has valuation
    rot == N(p) * b**-c (mod m).  The remainder word is r = k * rot mod m
    (a division with a quotient the size of k) on the rotated word, and
    the carry is (k * N(p) - r * b**c) / m at point c, exact since both
    terms agree mod m; so value(d) * N(p)/m == value(carry) + N(circ)/m.
    """
    if d.base != p.base:
        raise ValueError(f"mixed bases {d.base} and {p.base}")
    base, k, c = d.base, d.scaled, d.point
    m = p.modulus
    rotated = p.shift(-c)
    r = k * rotated.valuation % m
    carry = DecimalNumber.from_scaled((k * p.valuation - r * base**c) // m, c, base)
    return carry, rotated.with_value(r)
