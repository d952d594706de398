"""Exact base-b decimals: a signed integer scaled by a power of the base.

A value is scaled * base**(-point), built by ``from_scaled`` and
canonical from construction: point >= 0, trailing zeros of the integer
right of the point go and zero has point 0, so equality on
(scaled, point, base) is value equality.  A net positive exponent
(370 = 37 * 10**1) folds into the integer.  The letters of the written
form are made only when they are read.  Sums, products and negation stay
in the integers; the order of finite parts is that of the DC numbers
that hold them.

Also home to the scalar action of these numbers on circular words, which
splits a product (finite decimal) * (pure repeating fraction) into a
finite carry part and a remainder word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .words import (
    CircularWord,
    _crossing,
    _fraction_word,
    _ratio,
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

    @property
    def sign(self) -> int:
        return -1 if self.scaled < 0 else 1

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """The magnitude's letters: at least one, and reaching the point."""
        mag, base = abs(self.scaled), self.base
        return int_to_digits(mag, base, max(digit_count(mag, base), self.point, 1))

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

    def __str__(self) -> str:
        text = _spell(self.digits)
        whole, frac = text[: len(text) - self.point] or "0", text[len(text) - self.point :]
        out = whole if not frac else f"{whole}.{frac}"
        return out if self.sign > 0 else f"-{out}"


def scalar_action(d: DecimalNumber, p: CircularWord) -> tuple[DecimalNumber, CircularWord]:
    """Split d * N(p)/m into a finite part and a remainder word, m = b**ell - 1.

    With k, c the scaled integer and point of d, d = k * b**-c.  The integer
    multiple is one division, k * N(p) == q * m + r: q plus the word of
    value r, or on a word that holds its fraction u/v, k * u == q * v + r
    and the word of r/v, written once.  Multiplying by b**-c then moves the point c letters left: the
    word's last c letters cross it (``words._crossing``) and it rotates right
    by c.  So value(d) * N(p)/m == value(carry) + N(circ)/m, with the carry
    q - N(crossed) at point c.
    """
    if d.base != p.base:
        raise ValueError(f"mixed bases {d.base} and {p.base}")
    held = "ratio" in p.__dict__
    u, v = _ratio(p)  # the fraction p holds, else N(p)/m
    q, r = divmod(d.scaled * u, v)
    word = p if r == u else _fraction_word(r, v, p.base, len(p)) if held else p.with_value(r)
    crossed = digits_to_int(_crossing(word, -d.point), d.base)
    return DecimalNumber.from_scaled(q - crossed, d.point, d.base), word.shift(-d.point)
