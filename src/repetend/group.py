"""Circular words under carry-wrapping addition, and their product.

Fixed-length words with the all-(base-1) word identified to the all-zero
word form an abelian group isomorphic to the integers modulo b**len - 1;
addition is done on valuations through that isomorphism, with a genuine
digit-by-digit routine kept alongside as an independent cross-check.
Words of different lengths combine after lifting to the least common
multiple, and results collapse to their primitive period.

The product of two circular words is the circular word of the product of
the values the operands denote as pure repeating fractions.  For a pair
of single letters p, p' in base b it is the length-(b-1) word with value
p * p' * (1 + sum (b-i-2) b**i); longer operands reduce to that case by a
change of base, and the production route evaluates the same product on
valuations so the enormous intermediate word never has to be built.
Note the identification regimes differ: for addition the all-(base-1)
word is zero, for multiplication it is the neutral element, so star
elements keep it intact and only additive results collapse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import config
from .numtheory import multiplicative_order
from .words import CircularWord, digits_to_int


def _all_beta(word: CircularWord) -> bool:
    return word.digits.count(word.base - 1) == len(word)


@dataclass(frozen=True)
class GroupElement:
    """A length-ell circular word modulo the all-(base-1) = all-zero
    identification, applied eagerly at construction."""

    word: CircularWord

    def __post_init__(self):
        if _all_beta(self.word):
            object.__setattr__(
                self, "word", CircularWord((0,) * len(self.word), self.word.base)
            )

    @classmethod
    def from_int(cls, n: int, base: int, length: int) -> "GroupElement":
        return cls(CircularWord.from_int(n % (base**length - 1), base, length))

    @property
    def base(self) -> int:
        return self.word.base

    @property
    def modulus(self) -> int:
        return self.word.modulus

    def __len__(self) -> int:
        return len(self.word)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_compatible(other)
        value = (self.word.valuation + other.word.valuation) % self.modulus
        return GroupElement.from_int(value, self.base, len(self.word))

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


def circular_carry_add(a: CircularWord, b: CircularWord) -> CircularWord:
    """Digit-wise addition where the carry leaving the leftmost position
    re-enters at the rightmost, iterated to a fixed point.

    Kept independent of the modular route on purpose; the two must agree
    and tests hold them to that.
    """
    if a.base != b.base:
        raise ValueError(f"mixed bases {a.base} and {b.base}")
    if len(a) != len(b):
        raise ValueError(f"mixed lengths {len(a)} and {len(b)}")
    base = a.base
    digits = [p + q for p, q in zip(a.digits, b.digits)]
    carry = 0
    for _ in range(4):  # provably stabilizes well before this
        for i in reversed(range(len(digits))):
            total = digits[i] + carry
            digits[i] = total % base
            carry = total // base
        if carry == 0:
            break
    if carry:
        raise RuntimeError("circular carry did not settle")
    return CircularWord(tuple(digits), base)


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
        """The denoted repeating fraction N/(b**ell - 1) in lowest terms."""
        n = self.representative.valuation
        m = self.representative.modulus
        g = gcd(n, m)
        return n // g, m // g

    def __add__(self, other: "StarElement") -> "StarElement":
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        length = lcm(len(self.representative), len(other.representative))
        config.check_period(length, "lifted sum")
        x = self.representative.lift(length)
        value = (x.valuation + other.representative.lift(length).valuation) % x.modulus
        return StarElement.of(x.with_value(value))

    def __neg__(self) -> "StarElement":
        word = self.representative.complement()
        if _all_beta(word):
            word = CircularWord((0,), self.base)
        return StarElement.of(word)

    def __mul__(self, other: "StarElement") -> "StarElement":
        """Circular product via exact valuation arithmetic.

        Evaluates the same product as :func:`circular_product_expanded`
        but reads off the primitive result directly: the product value
        u/v in lowest terms is purely repeating with period equal to the
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


def repeating_word(u: int, v: int, base: int) -> CircularWord:
    """The period of u/v as a circular word, for 0 <= u <= v with v
    coprime to the base.

    Its length is ell = ord_base(v) and its value u * (base**ell - 1) / v,
    so for u/v in lowest terms it is primitive (u == v gives the
    all-(base-1) letter).  The word keeps base**ell - 1 as its modulus.
    The order is capped; see multiplicative_order.
    """
    ell = multiplicative_order(base, v)
    m = base**ell - 1
    word = CircularWord.from_int(u * (m // v), base, ell)
    word.__dict__["modulus"] = m  # fill the cached property
    return word


def single_letter_multiplier(base: int) -> int:
    """The factor turning a product of letters into a product word:
    1 + sum of (base-i-2) * base**i over 0 <= i < base-2.

    Its digit word is beta, beta-2, beta-3, ..., 2, 1 read right to left
    (12345679 in base ten).
    """
    digits = list(range(1, base - 2)) + [base - 1]
    return digits_to_int(digits, base)


def circular_product_expanded(x: StarElement, y: StarElement) -> StarElement:
    """Circular product by literal construction, for cross-checks.

    Lifts both operands to a common length L, regroups digits into blocks
    so each becomes a single letter in base b**L, multiplies the letters
    with :func:`single_letter_multiplier`, writes out the full product
    word of length L*(b**L - 1), and only then collapses it to its
    primitive period.  Feasible for small lifts only.
    """
    if x.base != y.base:
        raise ValueError(f"mixed bases {x.base} and {y.base}")
    b = x.base
    length = lcm(len(x.representative), len(y.representative))
    big_base = b**length
    config.check_period(length * (big_base - 1), "expanded product")
    p = x.representative.lift(length).valuation
    q = y.representative.lift(length).valuation
    value = p * q * single_letter_multiplier(big_base)
    word = CircularWord.from_int(value, b, length * (big_base - 1))
    return StarElement.of(word)
