from math import lcm

import pytest
from hypothesis import settings

from repetend import config
from repetend.group import StarElement
from repetend.numtheory import product_period_length
from repetend.oracle import Fraction
from repetend.words import CircularWord, char_digit

settings.register_profile("det", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("det")


@pytest.fixture(autouse=True)
def _default_cap():
    config.period_cap = config.DEFAULT_PERIOD_CAP
    yield
    config.period_cap = config.DEFAULT_PERIOD_CAP


def cw(text: str, base: int = 10) -> CircularWord:
    return CircularWord(tuple(char_digit(c) for c in text), base)


def star(text: str, base: int = 10) -> StarElement:
    return StarElement.of(cw(text, base))


def reference_circular_carry_add(a: CircularWord, b: CircularWord) -> CircularWord:
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


def reference_wcp_fraction(x) -> Fraction:
    """The value of a WCP (sign, aperiodic, period, point) read as written,
    identifications and all: sign * (A + N(P)/m) * b**point, m = b**len - 1."""
    m = x.period.modulus
    num = x.sign * (x.aperiodic_value * m + x.period.valuation)
    if x.point >= 0:
        return Fraction(num * x.base**x.point, m)
    return Fraction(num, m * x.base**-x.point)


def reference_product_period_scan(ell: int, ell2: int, b: int, limit: int | None = None) -> int:
    """Brute-force minimal n with (b**ell - 1)(b**ell2 - 1) | b**n - 1.

    Only multiples of lcm(ell, ell2) can work, so the scan steps by the
    lcm with an incrementally maintained power.
    """
    modulus = (b**ell - 1) * (b**ell2 - 1)
    m = lcm(ell, ell2)
    if limit is None:
        limit = product_period_length(ell, ell2, b)
    step = pow(b, m, modulus)
    acc = step
    n = m
    while acc != 1 % modulus:
        n += m
        if n > limit:
            raise ValueError(f"no n <= {limit} found")
        acc = acc * step % modulus
    return n
