"""The circular product of circular words, and the word of a fraction.

A primitive circular word P denotes the pure repeating fraction
0.(P) = N(P) / (b**len - 1); ``StarElement`` holds one such word per
power class.  The product of two of them is the circular word of the
product of the values they denote.  For a pair of single letters p, p'
in base b it is the length-(b-1) word with value
p * p' * (1 + sum (b-i-2) b**i); longer operands reduce to that case by a
change of base.  The tests build that enormous word literally
(``reference_circular_product_expanded``); this module evaluates the
same product on the operands' reduced fractions and never builds it.
The product's period is the word of the fraction u/v
(``repeating_word``); a long one is written by long division and keeps
(u, v) as its value, so neither base**ell - 1 nor its valuation is built
unless a reader needs them.  The all-(base-1) word denotes 1, the
product's neutral element, so a star element keeps it intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import words
from .numtheory import multiplicative_order
from .words import CircularWord


@dataclass(frozen=True)
class StarElement:
    """A primitive circular word, one representative per power class."""

    representative: CircularWord

    def __post_init__(self):
        if self.representative.primitive_period() != self.representative:
            raise ValueError("representative must be primitive")

    @classmethod
    def of(cls, word: CircularWord) -> "StarElement":
        return cls(word.primitive_period())

    @property
    def base(self) -> int:
        return self.representative.base

    def _reduced_value(self) -> tuple[int, int]:
        """The denoted repeating fraction N/(b**ell - 1) in lowest terms,
        reduced from the fraction the word was written from if it has one."""
        n, m = words._ratio(self.representative)
        g = gcd(n, m)
        return n // g, m // g

    def __mul__(self, other: "StarElement") -> "StarElement":
        """Circular product via exact valuation arithmetic.

        Evaluates the same product as the tests' literal construction but
        reads off the primitive result directly: the product value u/v in
        lowest terms is purely repeating with period equal to the
        multiplicative order of the base modulo v.
        """
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        u1, v1 = self._reduced_value()
        u2, v2 = other._reduced_value()
        u, v = u1 * u2, v1 * v2
        g = gcd(u, v)
        return StarElement(repeating_word(u // g, v // g, self.base))


# repeating_word writes a period of ell letters by long division of u by v,
# in a base that is not a power of two, when ell passes 600 and v has fewer
# bits than ell / 8.  A shorter period costs the kernel one str() in base
# ten, or a few divisions; a longer v makes the division's cost, ell times
# the size of v, overtake the kernel's (bases 3 to 36, 16 to 2*10**6 letters).
_DIVISION_MIN_LETTERS = 600
_DIVISION_LETTERS_PER_BIT = 8


def repeating_word(u: int, v: int, base: int) -> CircularWord:
    """The period of u/v as a circular word, for u/v in lowest terms with
    0 <= u <= v and v coprime to the base.

    Its length is ell = ord_base(v) and its value u * (base**ell - 1) / v.
    Lowest terms are required: they make the word primitive (u == v == 1
    gives the all-(base-1) letter), so it records ell as its primitive
    length and is never scanned for a shorter one.  The order is capped;
    see multiplicative_order.

    When v is short against a long ell, the letters are what long
    division of u by v writes (``words.period_digits``), in time linear
    in ell, and the word keeps ``ratio = (u, v)``: its value and
    base**ell - 1 are built only if a reader asks.  Sums and multiples of
    such words come back here as one fraction (``words._fraction_word``).
    Else, and in a power-of-two base, whose letters slice the value's bits,
    the kernel writes the value and keeps it (``words.int_to_digits``).
    """
    ell = multiplicative_order(base, v)
    shortest = max(v.bit_length() * _DIVISION_LETTERS_PER_BIT, _DIVISION_MIN_LETTERS)
    if base & (base - 1) and shortest < ell:
        digits = words.period_digits(u, v, base, ell)
        return words._known_word(digits, base, ratio=(u, v), _primitive_length=ell)
    m = words.power_less_one(base, ell)
    n = u * (m // v)
    digits = words.int_to_digits(n, base, ell)
    return words._known_word(digits, base, valuation=n, modulus=m, _primitive_length=ell)

