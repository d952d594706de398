"""Circular words under carry-wrapping addition, and their product.

Fixed-length words with the all-(base-1) word identified to the all-zero
word form an abelian group isomorphic to the integers modulo b**len - 1.
Addition is done on valuations through that isomorphism, and checked in
the tests against a digit-by-digit routine.  Words of different lengths
combine after lifting to the least common multiple, and results collapse
to their primitive period.

The product of two circular words is the circular word of the product of
the values the operands denote as pure repeating fractions.  For a pair
of single letters p, p' in base b it is the length-(b-1) word with value
p * p' * (1 + sum (b-i-2) b**i); longer operands reduce to that case by a
change of base.  The tests build that enormous word literally; this module
evaluates the same product on the operands' reduced fractions and never
builds it.  The product's period is the word of the fraction u/v
(``repeating_word``); a long one is written by long division and keeps
(u, v) as its value, so neither base**ell - 1 nor its valuation is built
unless a reader needs them.
Note the identification regimes differ: for addition the all-(base-1)
word is zero, for multiplication it is the neutral element, so star
elements keep it intact and only additive results collapse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import words
from .numtheory import multiplicative_order
from .words import CircularWord


def _collapsed(word: CircularWord) -> CircularWord:
    """The word, or for the all-(base-1) word its complement, the all-zero word."""
    return word.complement() if word.digits.count(word.base - 1) == len(word) else word


@dataclass(frozen=True)
class GroupElement:
    """A length-ell circular word modulo the all-(base-1) = all-zero
    identification, applied eagerly at construction."""

    word: CircularWord

    def __post_init__(self):
        object.__setattr__(self, "word", _collapsed(self.word))

    @classmethod
    def from_int(cls, n: int, base: int, length: int) -> "GroupElement":
        return cls(CircularWord.from_int(n % words.power_less_one(base, length), base, length))

    @property
    def base(self) -> int:
        return self.word.base

    def __len__(self) -> int:
        return len(self.word)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_compatible(other)
        return GroupElement(words._lifted_sum((self.word, other.word), "lifted sum")[1])

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.word.complement())

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def shift(self, k: int = 1) -> "GroupElement":
        return GroupElement(self.word.shift(k))

    def _check_compatible(self, other: "GroupElement") -> None:
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        if len(self.word) != len(other.word):
            raise ValueError(
                f"mixed lengths {len(self.word)} and {len(other.word)}"
            )

    def __str__(self) -> str:
        return f"{self.word}~"


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

    @classmethod
    def zero(cls, base: int) -> "StarElement":
        return cls(CircularWord((0,), base))

    @property
    def base(self) -> int:
        return self.representative.base

    def _reduced_value(self) -> tuple[int, int]:
        """The denoted repeating fraction N/(b**ell - 1) in lowest terms,
        reduced from the fraction the word was written from if it has one."""
        n, m = words._ratio(self.representative)
        g = gcd(n, m)
        return n // g, m // g

    def __add__(self, other: "StarElement") -> "StarElement":
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        word = words._lifted_sum((self.representative, other.representative), "lifted sum")[1]
        return StarElement.of(_collapsed(word))

    def __neg__(self) -> "StarElement":
        return StarElement.of(_collapsed(self.representative.complement()))

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

    def __str__(self) -> str:
        return f"{self.representative}~"


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


def single_letter_multiplier(base: int) -> int:
    """The factor turning a product of letters into a product word:
    1 + sum of (base-i-2) * base**i over 0 <= i < base-2.

    Its digit word is beta, beta-2, ..., 2, 1 read right to left, and its
    value (base**(base-1) - 1) / (base-1)**2: (10**9 - 1) / 81 = 12345679.
    """
    return words.power_less_one(base, base - 1) // (base - 1) ** 2

