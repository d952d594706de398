"""Exact base-b decimals: a signed integer scaled by a power of the base.

A value is scaled * base**(-point), canonical from construction: point
>= 0, trailing zeros of the integer right of the point go and zero has
point 0, so equality on (scaled, point, base) is value equality.  A net
positive exponent (370 = 37 * 10**1) folds into the integer.  The letters
of the written form are made only when they are read.

Also home to the scalar action of these numbers on circular words, which
splits a product (finite decimal) * (pure repeating fraction) into a
finite carry part and a remainder word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .words import (
    CircularWord,
    _check_digits,
    _crossing,
    _spell,
    digit_count,
    digits_to_int,
    int_to_digits,
)


@dataclass(frozen=True, init=False)
class DecimalNumber:
    scaled: int  # the signed integer k with value k * base**(-point)
    point: int
    base: int

    def __init__(self, sign: int, digits: tuple[int, ...], point: int, base: int):
        """Read sign * N(digits) * base**(-point), the point within the word."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 <= point <= len(digits):
            raise ValueError("point must lie within the word")
        _check_digits(digits, base)
        # (s, 0W, c) = (s, W, c) = (s, W0, c+1) and -0 = +0, as from_scaled has it
        scaled = sign * digits_to_int(digits, base)
        self.__dict__.update(vars(DecimalNumber.from_scaled(scaled, point, base)))

    @classmethod
    def from_scaled(cls, scaled: int, point: int, base: int) -> "DecimalNumber":
        """Canonical number with value scaled * base**(-point)."""
        if base < 2:
            raise ValueError("base must be >= 2")
        if point < 0:
            scaled, point = scaled * base**-point, 0
        if not scaled:
            point = 0
        elif point and not scaled % base:
            # trailing zeros right of the point carry no value: write the
            # point's letters once and count them, not one % b per letter
            tail = int_to_digits(abs(scaled) % base**point, base, point)
            zeros = point - len(bytes(tail).rstrip(b"\0"))
            scaled, point = scaled // base**zeros, point - zeros
        number = object.__new__(cls)
        number.__dict__.update(scaled=scaled, point=point, base=base)
        return number

    @classmethod
    def from_int(cls, n: int, base: int) -> "DecimalNumber":
        return cls.from_scaled(n, 0, base)

    @classmethod
    def zero(cls, base: int) -> "DecimalNumber":
        return cls.from_int(0, base)

    @classmethod
    def one(cls, base: int) -> "DecimalNumber":
        return cls.from_int(1, base)

    @property
    def sign(self) -> int:
        return -1 if self.scaled < 0 else 1

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """The magnitude's letters: at least one, and reaching the point."""
        mag, base = abs(self.scaled), self.base
        return int_to_digits(mag, base, max(digit_count(mag, base), self.point, 1))

    def canonical(self) -> "DecimalNumber":
        return self

    def is_zero(self) -> bool:
        return self.scaled == 0

    def __bool__(self) -> bool:
        return self.scaled != 0

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
        if not other.scaled:
            return self
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

    def __pow__(self, n: int) -> "DecimalNumber":
        if n < 0:
            raise ValueError("a negative power need not be a finite decimal")
        return DecimalNumber.from_scaled(self.scaled**n, self.point * n, self.base)

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


def scalar_action(d: DecimalNumber, p: CircularWord) -> tuple[DecimalNumber, CircularWord]:
    """Split d * N(p)/m into a finite part and a remainder word, m = b**ell - 1.

    With k, c the scaled integer and point of d, d = k * b**-c.  The integer
    multiple is one division, k * N(p) == q * m + r: q plus the word of
    value r.  Multiplying by b**-c then moves the point c letters left: the
    word's last c letters cross it (``words._crossing``) and it rotates right
    by c.  So value(d) * N(p)/m == value(carry) + N(circ)/m, with the carry
    q - N(crossed) at point c.
    """
    if d.base != p.base:
        raise ValueError(f"mixed bases {d.base} and {p.base}")
    q, r = divmod(d.scaled * p.valuation, p.modulus)
    word = p.with_value(r)
    crossed = digits_to_int(_crossing(word, -d.point), d.base)
    return DecimalNumber.from_scaled(q - crossed, d.point, d.base), word.shift(-d.point)
