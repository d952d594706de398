import random

import pytest
from hypothesis import given, strategies as st

from conftest import cw
from repetend.decimals import DecimalNumber, scalar_action
from repetend.oracle import Fraction
from repetend.words import CircularWord, digits_to_int


def dec(text: str, base: int = 10) -> DecimalNumber:
    """Plain decimal literal for tests."""
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    whole, _, frac = text.partition(".")
    scaled = int(whole + frac, base) if (whole + frac) else 0
    return DecimalNumber.from_scaled(sign * scaled, len(frac), base)


def as_fraction(d: DecimalNumber) -> Fraction:
    return Fraction(d.scaled, d.base**d.point)


scaled_values = st.integers(-10**9, 10**9)
points = st.integers(0, 8)


@st.composite
def decimals(draw, base=10):
    return DecimalNumber.from_scaled(draw(scaled_values), draw(points), base)


class TestCanonicalForm:
    def test_trailing_zero_stripped(self):
        assert dec("1.7") + dec("0.3") == dec("2")

    def test_add_zero(self):
        x = dec("24.181")
        assert x + dec("0") == x

    def test_zero_has_plus_sign(self):
        total = dec("-0.3") + dec("0.3")
        assert total == DecimalNumber.zero(10)
        assert total.sign == 1

    def test_constructor_applies_the_identifications(self):
        assert DecimalNumber(1, (0, 3, 7, 0), 1, 10) == DecimalNumber.from_scaled(37, 0, 10)
        x = DecimalNumber(-1, (0, 0, 4, 7, 0), 4, 10)
        assert (x.sign, x.digits, x.point) == (-1, (0, 4, 7), 3)
        assert x.canonical() is x
        zero = DecimalNumber(-1, (0, 0), 1, 10)
        assert zero == DecimalNumber.zero(10) and zero.sign == 1

    def test_positive_exponent_padded_with_zeros(self):
        x = DecimalNumber.from_scaled(37, -1, 10)  # 37 * 10**1
        assert x.digits == (3, 7, 0)
        assert x.point == 0

    def test_point_reaches_into_leading_zeros(self):
        x = dec("0.047")
        assert x.digits == (0, 4, 7)
        assert x.point == 3

    @given(decimals(), st.integers(0, 3), st.integers(0, 3))
    def test_identifications_confluent(self, x, lead, trail):
        # (s, W, c) = (s, 0W, c) = (s, W0, c+1): any padded denotation
        # canonicalizes back to the same value
        padded = DecimalNumber(
            x.sign if not x.is_zero() else 1,
            (0,) * lead + x.digits + (0,) * trail,
            x.point + trail,
            x.base,
        )
        assert padded.canonical() == x

    @pytest.mark.parametrize("base", [2, 10, 36])
    def test_long_values_strip_and_scale(self, base):
        core = 7**2000  # no factor of 2 or 3: nothing of it strips
        x = DecimalNumber.from_scaled(-core * base**500, 700, base)
        assert (x.sign, x.point) == (-1, 200)
        assert x.digits[-1] != 0
        assert x.scaled == DecimalNumber(-1, x.digits, 200, base).scaled == -core
        y = DecimalNumber.from_scaled(core, -300, base)
        assert y.point == 0 and y.digits[-300:] == (0,) * 300
        assert y.scaled == DecimalNumber(1, y.digits, 0, base).scaled == core * base**300

    def test_rendering(self):
        assert str(dec("24.181")) == "24.181"
        assert str(dec("-0.3")) == "-0.3"
        assert str(DecimalNumber.from_scaled(37, -1, 10)) == "370"
        assert str(DecimalNumber.zero(10)) == "0"


class TestRingOperations:
    def test_exact_product(self):
        assert dec("0.5") * dec("0.5") == dec("0.25")

    def test_one_is_neutral(self):
        x = dec("1.1308")
        assert x * dec("1") == x

    def test_point_shift_product(self):
        assert dec("1.1308") * dec("0.00001") == dec("0.000011308")

    def test_mixed_base_rejected(self):
        with pytest.raises(ValueError):
            dec("1") + dec("1", base=7)

    @given(decimals(), decimals(), decimals())
    def test_commutative_ring_against_oracle(self, a, b, c):
        assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)
        assert as_fraction(a * b) == as_fraction(a) * as_fraction(b)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == DecimalNumber.zero(10)

    @given(decimals(), decimals())
    def test_order_matches_oracle(self, a, b):
        assert (a < b) == (as_fraction(a) < as_fraction(b))


class TestScalarAction:
    def test_two_thirds(self):
        carry, circ = scalar_action(dec("2"), cw("3"))
        assert carry == dec("0")
        assert circ == cw("6")

    def test_identity_action(self):
        word = cw("142857")
        carry, circ = scalar_action(dec("1"), word)
        assert carry == dec("0")
        assert circ == word

    def test_three_times_a_third_crosses_one(self):
        carry, circ = scalar_action(dec("3"), cw("3"))
        assert carry == dec("1")
        assert circ == cw("0")

    def test_fractional_scalar_produces_negative_carry(self):
        carry, circ = scalar_action(dec("0.2"), cw("3"))
        # 0.2 * 1/3 = 1/15 = -0.6 + 0.(6)
        assert carry == dec("-0.6")
        assert circ == cw("6")

    @staticmethod
    def _contract(d, word):
        carry, circ = scalar_action(d, word)
        m = d.base ** len(word) - 1
        lhs = as_fraction(d) * Fraction(word.valuation, m)
        assert lhs == as_fraction(carry) + Fraction(circ.valuation, m)
        assert len(circ) == len(word)

    @given(decimals(), st.lists(st.integers(0, 9), min_size=1, max_size=6))
    def test_contract_equation(self, d, digits):
        self._contract(d, CircularWord(tuple(digits), 10))

    @given(
        decimals(),
        decimals(),
        st.lists(st.integers(0, 9), min_size=1, max_size=5),
        st.lists(st.integers(0, 9), min_size=1, max_size=5),
    )
    def test_additive_in_both_arguments(self, d1, d2, digits1, digits2):
        word1 = CircularWord(tuple(digits1), 10)
        word2 = CircularWord(tuple(digits2), 10)
        m1 = 10 ** len(word1) - 1

        c_sum, r_sum = scalar_action(d1 + d2, word1)
        c1, r1 = scalar_action(d1, word1)
        c2, r2 = scalar_action(d2, word1)
        assert as_fraction(c_sum) + Fraction(r_sum.valuation, m1) == (
            as_fraction(c1)
            + as_fraction(c2)
            + Fraction(r1.valuation + r2.valuation, m1)
        )

        m2 = 10 ** len(word2) - 1
        c3, r3 = scalar_action(d1, word2)
        value_sum = Fraction(word1.valuation, m1) + Fraction(word2.valuation, m2)
        total = as_fraction(c1) + Fraction(r1.valuation, m1)
        total = total + as_fraction(c3) + Fraction(r3.valuation, m2)
        assert total == as_fraction(d1) * value_sum


def _divmod_action(d, p):
    """scalar_action as it was first written: one Euclidean division of
    k * N(p) * b**(ell*M - c) by b**ell - 1, M = ceil(c / ell)."""
    base, ell = d.base, len(p)
    m = base**ell - 1
    lifts = -(-d.point // ell)
    q2, r2 = divmod(d.scaled * p.valuation * base ** (ell * lifts - d.point), m)
    repunit = (base ** (ell * lifts) - 1) // m
    carry = DecimalNumber.from_scaled(q2 - r2 * repunit, ell * lifts, base)
    return carry, CircularWord.from_int(r2, base, ell)


class TestScalarActionAgainstDivision:
    def test_random_cases(self):
        rng = random.Random(7)
        for _ in range(3000):
            base = rng.randint(2, 36)
            ell = rng.choice((1, 2, 3, 5, 8, 33, 40, 70))
            digits = tuple(rng.randrange(base) for _ in range(ell))
            if rng.random() < 0.1:
                digits = (base - 1,) * ell
            point = rng.randint(0, 3 * ell + 2)
            scalar = tuple(rng.randrange(base) for _ in range(point + rng.randint(0, 3)))
            d = DecimalNumber(rng.choice((1, -1)), scalar or (0,), point, base)
            # with and without the valuation already cached on the word
            word = CircularWord(digits, base)
            if rng.random() < 0.5:
                word = CircularWord.from_int(digits_to_int(digits, base), base, ell)
            carry, circ = scalar_action(d, word)
            ref_carry, ref_circ = _divmod_action(d, CircularWord(digits, base))
            assert carry == ref_carry
            assert circ.digits == ref_circ.digits
            assert circ.valuation == digits_to_int(circ.digits, base)

    def test_unchanged_value_keeps_the_word(self):
        word = CircularWord.from_int(142857, 10, 6)
        assert scalar_action(dec("1"), word)[1] is word
        assert scalar_action(dec("1000000"), word)[1] is word
