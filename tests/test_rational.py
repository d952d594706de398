import random
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from conftest import cw
from repetend import config, decimals, notation, rational, words
from repetend.decimals import DecimalNumber
from repetend.errors import CapacityError
from repetend.numtheory import split_denominator
from repetend.oracle import Fraction, expansion_digits
from repetend.rational import (
    DcNumber,
    WcpNumber,
    align,
    cancellation_demo,
    dc_from_wcp,
    from_fraction,
    from_ratio,
    semiotic_compare,
    wcp_compare,
    wcp_from_dc,
)
from repetend.words import CircularWord, char_digit

lit = notation.parse
out = notation.format_dc


def dc(delta_text: str, period_text: str, base: int = 10) -> DcNumber:
    """Raw pair from component texts (no canonicalization)."""
    sign = 1
    if delta_text.startswith("-"):
        sign, delta_text = -1, delta_text[1:]
    whole, _, frac = delta_text.partition(".")
    scaled = sign * int(whole + frac, base)
    return DcNumber(
        DecimalNumber.from_scaled(scaled, len(frac), base), cw(period_text, base)
    )


def wcp(sign, aperiodic_text, period_text, point, base=10):
    digits = tuple(int(ch, base) for ch in aperiodic_text)
    return WcpNumber(sign, digits, cw(period_text, base), point)


class TestFromFraction:
    def test_one_third(self):
        assert from_fraction(1, 3, 10) == dc("0", "3")

    def test_one_over_240(self):
        assert from_fraction(1, 240, 10) == dc("-0.6625", "6")

    def test_long_aperiodic_pair(self):
        value = Fraction(2458919, 99000)  # 24.837(56)
        assert from_fraction(value.numerator, value.denominator, 10) == dc(
            "24.181", "65"
        )

    def test_negative(self):
        assert from_fraction(-1, 3, 10) == dc("-1", "6")

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            from_fraction(1, 0, 10)


class TestFromRatioAgainstLongDivision:
    """The closed form agrees digit for digit with schoolbook long
    division over the preperiod and two full periods."""

    @staticmethod
    def check(u, v, base):
        text = out(from_ratio(u, v, base))
        assert text.startswith("-") == (u < 0)
        whole, _, rest = text.lstrip("-").partition(".")
        frac, _, period = rest.rstrip(")").partition("(")
        assert int(whole, base) == abs(u) // v
        assert len(frac) == split_denominator(v // gcd(u, v), base)[0]
        digits = [char_digit(ch) for ch in frac + 2 * (period or "0")]
        assert digits == expansion_digits(abs(u), v, base, len(digits))

    def test_all_bases_with_and_without_base_factors(self):
        rng = random.Random(29)
        for base in range(2, 37):
            for _ in range(6):
                coprime = rng.randint(1, 3000)
                while gcd(coprime, base) != 1:
                    coprime += 1
                carried = base ** rng.randint(0, 2) * rng.choice([1, 2, 3, 4])
                v = coprime * carried
                self.check(rng.randint(-5 * v, 5 * v), v, base)

    @pytest.mark.parametrize("base", [2, 3, 10, 16, 35, 36])
    def test_coprime_part_past_the_factoring_regime(self, base):
        k = 1
        while base**k - 1 <= 10**9:
            k += 1
        for coprime in (base**k - 1, base ** (k + 3) - 1):
            for carried in (1, base, base**2 // gcd(base, 6)):
                self.check(1, coprime * carried, base)
                self.check(-(coprime - 1), coprime * carried, base)

    def test_base_ten_fourteen_nines(self):
        x = from_ratio(1, 10**14 - 1, 10)
        assert len(x.period) == 14
        self.check(1, 10**14 - 1, 10)
        self.check(-77, 8 * (10**14 - 1), 10)

    def test_period_past_the_cap_in_either_regime(self):
        with pytest.raises(CapacityError):
            from_ratio(1, 999999937, 10)  # order 333333312, factored
        with pytest.raises(CapacityError):
            from_ratio(1, 1000730021, 10)  # stepped to the cap


class TestToFraction:
    def test_periodic_word(self):
        assert dc("0", "873").to_fraction() == Fraction(97, 111)

    def test_integer_one(self):
        assert dc("1", "0").to_fraction() == Fraction(1)

    def test_all_nines_is_one(self):
        assert dc("0", "9").canonical() == dc("1", "0")
        assert dc("0", "9").to_fraction() == Fraction(1)

    def test_wcp_morphism(self):
        x = wcp(1, "24837", "56", -3)
        assert x.to_fraction() == Fraction(2458919, 99000)
        assert WcpNumber.zero(10).to_fraction() == Fraction(0)
        assert wcp(1, "0", "9", 0).to_fraction() == Fraction(1)


class TestConversions:
    PAIRS = [
        (("24.181", "65"), (1, "24837", "56", -3)),
        (("1.7", "4"), (1, "21", "4", -1)),
        (("-0.3", "7"), (1, "04", "7", -1)),
    ]

    @pytest.mark.parametrize("dc_parts,wcp_parts", PAIRS)
    def test_both_directions(self, dc_parts, wcp_parts):
        dc_value = dc(*dc_parts)
        wcp_value = wcp(*wcp_parts)
        assert wcp_from_dc(dc_value) == wcp_value
        assert dc_from_wcp(wcp_value) == dc_value

    @given(st.integers(-400, 400), st.integers(1, 400))
    def test_round_trip_preserves_value(self, u, v):
        for base in (2, 10):
            x = from_fraction(u, v, base)
            assert dc_from_wcp(wcp_from_dc(x)) == x
            assert wcp_from_dc(x).to_fraction() == Fraction(u, v)


class TestDcAddition:
    def test_marsh_sum_to_one(self):
        total = dc("0", "571428") + dc("0", "285714") + dc("0", "142857")
        assert total == DcNumber.one(10)

    def test_marsh_sum_to_two(self):
        total = (
            lit("0.9(3)") + lit("0.7(3)") + lit("0.2(6)") + lit("0.0(6)")
        )
        assert total == DcNumber.from_int(2, 10)

    def test_zero_is_neutral(self):
        x = dc("24.181", "65")
        assert x + DcNumber.zero(10) == x

    def test_oracle_spot(self):
        total = dc("0", "3") + dc("0.5", "0")
        assert total.to_fraction() == Fraction(5, 6)


class TestDcNegation:
    def test_one_third(self):
        assert -dc("0", "3") == dc("-1", "6")

    def test_zero(self):
        assert -DcNumber.zero(10) == DcNumber.zero(10)

    def test_mixed_pair(self):
        assert -dc("1.7", "4") == dc("-2.7", "5")

    def test_additive_inverse(self):
        x = dc("24.181", "65")
        assert x + (-x) == DcNumber.zero(10)


class TestWcpAddition:
    def test_sevenths(self):
        total = wcp(1, "0", "571428", 0) + wcp(1, "0", "285714", 0)
        assert total == wcp(1, "0", "857142", 0)

    def test_opposites_cancel(self):
        x = wcp(1, "24837", "56", -3)
        assert x + (-x) == WcpNumber.zero(10)

    def test_brown_sum(self):
        total = wcp_from_dc(lit("0.001041(6)")) + wcp_from_dc(lit("0.002083(3)"))
        assert total.to_fraction() == Fraction(1, 320)
        assert dc_from_wcp(total) == lit("0.003125")

    def test_mixed_signs_with_borrow(self):
        # 5.(1) - 3.(4) = 1.(6)
        total = wcp(1, "5", "1", 0) + wcp(-1, "3", "4", 0)
        assert total == wcp(1, "1", "6", 0)

    def test_mixed_signs_without_borrow(self):
        # 5.(4) - 3.(1) = 2.(3)
        total = wcp(1, "5", "4", 0) + wcp(-1, "3", "1", 0)
        assert total == wcp(1, "2", "3", 0)

    def test_negative_result(self):
        # 3.(4) - 5.(1) = 31/9 - 46/9
        total = wcp(1, "3", "4", 0) + wcp(-1, "5", "1", 0)
        assert total.to_fraction() == Fraction(-5, 3)

    def test_unequal_points_align(self):
        total = wcp(1, "21", "4", -1) + wcp(1, "04", "7", -1)
        assert total.to_fraction() == Fraction(193, 90) + Fraction(43, 90)


class TestWcpOppositeSignSweep:
    """Raw operands of opposite signs, all shapes of one letter each:
    the sums and products carry the value of the fractions."""

    SHAPES = [
        (aperiodic, period, point)
        for aperiodic in "015"
        for period in "039"
        for point in (-1, 0, 1)
    ]

    def test_against_fractions(self):
        for xa, xp, xpoint in self.SHAPES:
            x = wcp(1, xa, xp, xpoint)
            for ya, yp, ypoint in self.SHAPES:
                y = wcp(-1, ya, yp, ypoint)
                fx, fy = x.to_fraction(), y.to_fraction()
                total, product = x + y, x * y
                assert total.to_fraction() == fx + fy, (x, y)
                assert product.to_fraction() == fx * fy, (x, y)
                assert total == total.canonical() and product == product.canonical()


class TestDcMultiplication:
    def test_hatton(self):
        product = lit("0.1256(4)") * lit("0.00009")
        assert product == lit("0.000011308")

    def test_one_is_neutral(self):
        x = dc("24.181", "65")
        assert x * DcNumber.one(10) == x

    def test_square_of_hundredth_period(self):
        product = lit("0.(01)") * lit("0.(01)")
        digits = str(product.period)
        assert len(digits) == 198
        assert digits == "".join(f"{k:02d}" for k in range(98)) + "99"
        assert product.delta == DecimalNumber.zero(10)

    def test_cross_term_carries(self):
        # (17/9)**2 = 289/81 exercises the carry of the periodic sums
        x = lit("1.(8)")
        assert (x * x).to_fraction() == Fraction(289, 81)


def test_long_product_writes_its_period_once(monkeypatch):
    """Parse, multiply and format 0.(00001) * 0.(00001): its period of
    499,995 digits is written out from its value once, not once per layer."""
    lengths = []
    write = words.int_to_digits

    def counted(n, base, length):
        lengths.append(length)
        return write(n, base, length)

    monkeypatch.setattr(words, "int_to_digits", counted)
    x = notation.parse("0.(00001)")
    text = notation.format_dc(x * x)
    assert lengths.count(499995) == 1
    assert text.startswith("0.(000000000100002") and len(text) == 499995 + 4


class TestWcpMultiplication:
    def test_three_times_a_third(self):
        product = wcp(1, "3", "0", 0) * wcp(1, "0", "3", 0)
        assert product == wcp(1, "1", "0", 0)

    def test_identity(self):
        x = wcp(1, "24837", "56", -3)
        assert x * wcp(1, "1", "0", 0) == x

    def test_periodic_times_periodic(self):
        product = wcp(1, "0", "12", 0) * wcp(1, "0", "4", 0)
        assert product == wcp(1, "0", "053872", 0)

    def test_sign_rule(self):
        x = wcp(-1, "3", "0", 0) * wcp(1, "0", "3", 0)
        assert x.to_fraction() == Fraction(-1)
        y = wcp(-1, "3", "0", 0) * wcp(-1, "0", "3", 0)
        assert y.to_fraction() == Fraction(1)

    def test_points_add(self):
        x = wcp(1, "15", "0", -1) * wcp(1, "15", "0", -1)  # 1.5 * 1.5
        assert x.to_fraction() == Fraction(9, 4)


class TestDcDivision:
    def test_brown_division(self):
        quotient = lit("297.5") / lit("11")
        assert quotient == lit("27.0(45)")

    def test_self_division(self):
        x = dc("24.181", "65")
        assert x / x == DcNumber.one(10)

    def test_one_seventh(self):
        assert DcNumber.one(10) / lit("7") == dc("0", "142857")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            DcNumber.one(10) / DcNumber.zero(10)


class TestDcComparison:
    def test_nines_equal_one(self):
        assert dc("0", "9").compare(dc("1", "0")) == 0

    def test_simple_less(self):
        assert dc("0", "3").compare(dc("0", "4")) == -1

    def test_pairs_from_conversions(self):
        assert dc("1.7", "4").compare(dc("24.181", "65")) == -1

    @given(
        st.integers(-300, 300),
        st.integers(1, 300),
        st.integers(-300, 300),
        st.integers(1, 300),
    )
    def test_agrees_with_oracle(self, u1, v1, u2, v2):
        for base in (2, 10):
            x, y = from_fraction(u1, v1, base), from_fraction(u2, v2, base)
            lhs = x.compare(y)
            fx, fy = Fraction(u1, v1), Fraction(u2, v2)
            rhs = -1 if fx < fy else (0 if fx == fy else 1)
            assert lhs == rhs


class TestOrders:
    def test_semiotic_ranks_nines_below_one(self):
        nines = wcp(1, "0", "9", 0)
        one = wcp(1, "1", "0", 0)
        assert semiotic_compare(nines, one) == -1
        assert wcp_compare(nines, one) == 0

    def test_reflexive(self):
        x = wcp(1, "24837", "56", -3)
        assert semiotic_compare(x, x) == 0
        assert wcp_compare(x, x) == 0

    def test_lexicographic_and_true_agree_off_the_identification(self):
        a, b = wcp(1, "0", "45", 0), wcp(1, "0", "54", 0)
        assert semiotic_compare(a, b) == -1
        assert wcp_compare(a, b) == -1

    def test_wcp_order_matches_dc_order(self):
        rng = random.Random(5)
        for _ in range(100):
            u1, v1 = rng.randint(-99, 99), rng.randint(1, 99)
            u2, v2 = rng.randint(-99, 99), rng.randint(1, 99)
            x, y = from_fraction(u1, v1, 10), from_fraction(u2, v2, 10)
            assert wcp_compare(wcp_from_dc(x), wcp_from_dc(y)) == x.compare(y)

    def test_negative_ordering(self):
        assert wcp_compare(wcp(-1, "2", "0", 0), wcp(-1, "1", "0", 0)) == -1
        assert wcp_compare(wcp(-1, "1", "0", 0), wcp(1, "0", "3", 0)) == -1


def _reference_align(x, y):
    """align as it was written letter by letter: one period letter moved
    into the aperiodic part per step of the point gap."""
    point = min(x.point, y.point)
    moved = []
    for w in (x, y):
        digits, period = list(w.aperiodic), w.period
        for _ in range(w.point - point):
            digits.append(period.digits[0])
            period = period.shift(1)
        moved.append((w.sign, tuple(digits), period))
    length = lcm(len(x.period), len(y.period))
    width = max(len(moved[0][1]), len(moved[1][1]), 1)
    return tuple(
        WcpNumber(sign, (0,) * (width - len(digits)) + digits, period.lift(length), point)
        for sign, digits, period in moved
    )


class TestAlign:
    def test_point_gap_past_the_period(self):
        rng = random.Random(59)
        for _ in range(400):
            base = rng.choice([2, 3, 10, 36])
            x, y = (
                WcpNumber(
                    rng.choice([1, -1]),
                    tuple(rng.randrange(base) for _ in range(rng.randint(0, 4))),
                    CircularWord(
                        tuple(rng.randrange(base) for _ in range(rng.randint(1, 4))), base
                    ),
                    rng.randint(-30, 30),
                )
                for _ in range(2)
            )
            aligned = align(x, y)
            assert aligned == _reference_align(x, y)
            assert [w.to_fraction() for w in aligned] == [x.to_fraction(), y.to_fraction()]

    def test_gap_of_many_periods(self):
        x, y = wcp(1, "1", "25", 7), wcp(1, "3", "4", -2)
        xa, ya = align(x, y)
        assert xa.aperiodic == (1,) + (2, 5) * 4 + (2,)
        assert (xa.period.digits, xa.point) == ((5, 2), -2)
        assert (xa, ya) == _reference_align(x, y)


class TestCanonicalization:
    def test_shift_normalization_shortens(self):
        assert wcp(1, "03", "3", -1).canonical() == wcp(1, "0", "3", 0)

    def test_integer_with_trailing_period_digits(self):
        assert wcp(1, "3733", "3", 0).canonical() == wcp(1, "37", "3", 2)

    def test_trailing_zeros_move_to_point(self):
        assert wcp(1, "370", "0", 0).canonical() == wcp(1, "37", "0", 1)

    def test_all_beta_period_bumps(self):
        assert wcp(1, "12", "9", 0).canonical() == wcp(1, "13", "0", 0)

    def test_zero_normal_form(self):
        assert wcp(-1, "000", "0", 3).canonical() == WcpNumber.zero(10)

    @given(
        st.integers(-200, 200),
        st.integers(1, 200),
        st.integers(0, 2),
        st.integers(1, 3),
        st.integers(0, 3),
    )
    def test_confluence_of_identifications(self, u, v, lead, power, shifts):
        base = 10
        canonical = wcp_from_dc(from_fraction(u, v, base))
        # denote the same value differently: leading zeros, period powers,
        # and shift moves, applied in an arbitrary mix
        digits = (0,) * lead + canonical.aperiodic
        period = canonical.period.repeat(power)
        point = canonical.point
        for _ in range(shifts):
            digits = digits + (period.digits[0],)
            period = period.shift(1)
            point -= 1
        denoted = WcpNumber(canonical.sign, digits, period, point)
        assert denoted.to_fraction() == canonical.to_fraction()
        assert denoted.canonical() == canonical


def _unshift_letter_by_letter(x: WcpNumber) -> WcpNumber:
    """WcpNumber.canonical as it was, one period rotation per unshifted
    letter: the reference for the single rotation."""
    if x.is_zero():
        return WcpNumber.zero(x.base)
    base, digits, point = x.base, x.aperiodic, x.point
    period = x.period.primitive_period()
    if period.digits == (base - 1,):
        n = x.aperiodic_value + 1
        digits = words.int_to_digits(n, base, words.digit_count(n, base))
        period = CircularWord((0,), base)
    significant = bytes(digits).lstrip(b"\0")
    digits = [0] * (1 - point - len(significant)) + list(significant)
    while (digits[-1] if digits else 0) == period.digits[-1]:
        del digits[-1:]
        period = period.shift(-1)
        point += 1
    return WcpNumber(x.sign, tuple(digits), period, point)


class TestCanonicalOnce:
    def test_unshift_matches_the_letter_by_letter_loop(self):
        rng = random.Random(83)
        for _ in range(2000):
            base = rng.randint(2, 36)
            ell = rng.randint(1, 6)
            kind = rng.random()
            if kind < 0.3:  # zero-heavy, all zero included
                period = tuple(
                    rng.randrange(base) if rng.random() < 0.2 else 0 for _ in range(ell)
                )
            elif kind < 0.4:
                period = (base - 1,) * ell
            else:
                period = tuple(rng.randrange(base) for _ in range(ell))
            head = tuple(rng.randrange(base) for _ in range(rng.randint(0, 4)))
            # a tail the period can take back in, and zeros on either side
            tail = (period * 4)[len(period) * 4 - rng.randint(0, 3 * ell + 2) :]
            aperiodic = (0,) * rng.randint(0, 2) + head + tail
            if rng.random() < 0.2:
                aperiodic += (0,) * rng.randint(1, 3)
            raw = WcpNumber(
                rng.choice((1, -1)), aperiodic, CircularWord(period, base), rng.randint(-8, 4)
            )
            assert raw.canonical() == _unshift_letter_by_letter(raw)

    def test_long_unshift_rotates_the_period_once(self, monkeypatch):
        rng = random.Random(8000)
        P = tuple(rng.randrange(10) for _ in range(8000))
        raw = WcpNumber(1, (5,) + P * 3, CircularWord(P, 10), 0)
        shifts = []
        shift = CircularWord.shift

        def counted(word, k=1):
            shifts.append(k)
            return shift(word, k)

        monkeypatch.setattr(CircularWord, "shift", counted)
        canonical = raw.canonical()
        assert len(shifts) <= 1
        monkeypatch.undo()
        assert canonical == wcp_from_dc(dc_from_wcp(raw))
        assert canonical.to_fraction() == raw.to_fraction()

    def test_canonical_values_come_back_as_they_are(self, monkeypatch):
        values = [
            lit("0.(3)"),
            lit("-24.8(37)"),
            lit("-0.00(6)"),
            lit("0.(01)") * lit("-1.(12)"),
            lit("7") * lit("-0.25"),
            -lit("1.5(142857)"),
            -lit("0.(9)"),
            lit("1.(1)", 2) * lit("-0.0(01)", 2),
            -lit("Z.(AZ)", 36),
        ]
        calls = []
        for module in (words, decimals, rational):
            monkeypatch.setattr(module, "int_to_digits", lambda *args: calls.append(args))
        for value in values:
            assert value.canonical() is value
        assert calls == []


class TestCancellationDemo:
    def test_single_nine_demo(self):
        report = cancellation_demo(dc("0", "9"), dc("0", "3"))
        assert report.identical
        assert report.nines_sum == dc("1", "3")
        assert report.bumped_sum == dc("1", "3")

    def test_longer_period(self):
        report = cancellation_demo(dc("5", "9"), dc("0", "142857"))
        assert report.identical
        assert report.nines_sum == dc("6", "142857")

    def test_rejects_trivial_period(self):
        with pytest.raises(ValueError):
            cancellation_demo(dc("0", "9"), dc("2", "0"))

    def test_rejects_non_nines_input(self):
        with pytest.raises(ValueError):
            cancellation_demo(dc("0", "3"), dc("0", "3"))

    def test_random_nontrivial_periods(self):
        rng = random.Random(3)
        for _ in range(20):
            length = rng.randint(1, 6)
            value = rng.randrange(1, 10**length - 1)
            x = DcNumber(
                DecimalNumber.from_scaled(rng.randint(-50, 50), rng.randint(0, 3), 10),
                cw(str(value).zfill(length)),
            )
            report = cancellation_demo(dc("0", "99"), x)
            assert report.identical


class TestFieldIsomorphism:
    BASES = (2, 3, 7, 10)

    def test_random_pairs_against_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            base = rng.choice(self.BASES)
            u1, v1 = rng.randint(-500, 500), rng.randint(1, 500)
            u2, v2 = rng.randint(-500, 500), rng.randint(1, 500)
            x, y = from_fraction(u1, v1, base), from_fraction(u2, v2, base)
            fx, fy = Fraction(u1, v1), Fraction(u2, v2)
            assert (x + y).to_fraction() == fx + fy
            assert (x * y).to_fraction() == fx * fy
            if fy.numerator:
                assert (x / y).to_fraction() == fx / fy
                assert ((x * y) / y) == x.canonical()
            wx, wy = wcp_from_dc(x), wcp_from_dc(y)
            assert (wx + wy).to_fraction() == fx + fy
            assert (wx * wy).to_fraction() == fx * fy

    @given(st.integers(-300, 300), st.integers(1, 300))
    def test_round_trip(self, u, v):
        for base in self.BASES:
            x = from_fraction(u, v, base)
            fraction = x.to_fraction()
            assert fraction == Fraction(u, v)
            assert from_fraction(fraction.numerator, fraction.denominator, base) == x


class TestPurelyPeriodic:
    def test_characterization_small(self):
        for base in (2, 10):
            for v in range(2, 60):
                shape = wcp_from_dc(from_fraction(1, v, base))
                from math import gcd

                assert shape.is_purely_periodic() == (gcd(v, base) == 1)

    def test_period_bound(self):
        for v in range(2, 60):
            x = from_fraction(1, v, 10)
            if v % 2 and v % 5:
                assert len(x.period) <= v - 1


class TestWallisLcmLaw:
    def test_products_of_coprime_denominators(self):
        from math import gcd, lcm

        rng = random.Random(23)
        done = 0
        while done < 25:
            v1, v2 = rng.randint(2, 100), rng.randint(2, 100)
            if gcd(v1, v2) != 1 or gcd(v1 * v2, 10) != 1:
                continue
            p1 = len(from_fraction(1, v1, 10).period)
            p2 = len(from_fraction(1, v2, 10).period)
            p12 = len(from_fraction(1, v1 * v2, 10).period)
            assert p12 == lcm(p1, p2)
            done += 1


class TestCapacity:
    def test_add_capacity(self):
        config.period_cap = 4
        with pytest.raises(CapacityError):
            dc("0", "123") + dc("0", "45")

    def test_division_capacity(self):
        config.period_cap = 3
        with pytest.raises(CapacityError):
            DcNumber.one(10) / lit("9901")  # period 12


class TestDigitwiseConsistency:
    """The carrying addition of pairs agrees with the independent
    digit-by-digit circular routine on the lifted periods."""

    def test_period_words_match_digit_route(self):
        from repetend.group import circular_carry_add
        from math import lcm as _lcm

        rng = random.Random(47)
        for _ in range(150):
            base = rng.choice([2, 3, 10])
            l1, l2 = rng.randint(1, 4), rng.randint(1, 4)
            x = DcNumber(
                DecimalNumber.from_scaled(rng.randint(-99, 99), rng.randint(0, 2), base),
                cw_from_int(rng.randrange(base**l1), base, l1),
            )
            y = DcNumber(
                DecimalNumber.from_scaled(rng.randint(-99, 99), rng.randint(0, 2), base),
                cw_from_int(rng.randrange(base**l2), base, l2),
            )
            raw = x._add_raw(y)
            length = _lcm(l1, l2)
            digit_word = circular_carry_add(x.period.lift(length), y.period.lift(length))
            # carries are digit-faithful, so the words match exactly,
            # all-(base-1) boundary included
            assert raw.period == digit_word


def cw_from_int(n, base, length):
    from repetend.words import CircularWord

    return CircularWord.from_int(n, base, length)


class TestOrderAgreement:
    def test_semiotic_equals_true_order_on_canonical_forms(self):
        rng = random.Random(53)
        for _ in range(200):
            u1, v1 = rng.randint(-200, 200), rng.randint(1, 200)
            u2, v2 = rng.randint(-200, 200), rng.randint(1, 200)
            x = wcp_from_dc(from_fraction(u1, v1, 10))
            y = wcp_from_dc(from_fraction(u2, v2, 10))
            assert semiotic_compare(x, y) == wcp_compare(x, y)


class TestPeriodBoundFullRange:
    def test_period_at_most_v_minus_one_up_to_500(self):
        for v in range(2, 501):
            x = from_fraction(1, v, 10)
            if v % 2 and v % 5:
                assert len(x.period) <= v - 1


class TestRawDenotationFuzz:
    """Arbitrary raw denotations: canonicalization must terminate,
    preserve the value, be idempotent, and land on the same form long
    division produces; arithmetic must accept raw inputs unchanged."""

    @staticmethod
    def _random_raw_wcp(rng, base):
        digits = tuple(rng.randrange(base) for _ in range(rng.randint(0, 6)))
        period = tuple(rng.randrange(base) for _ in range(rng.randint(1, 5)))
        point = rng.randint(-6, 4)
        sign = rng.choice([1, -1])
        from repetend.words import CircularWord

        return WcpNumber(sign, digits, CircularWord(period, base), point)

    @staticmethod
    def _random_raw_dc(rng, base):
        from repetend.words import CircularWord

        digits = tuple(rng.randrange(base) for _ in range(rng.randint(1, 6)))
        delta = DecimalNumber(
            rng.choice([1, -1]), digits, rng.randint(0, len(digits)), base
        )
        period = tuple(rng.randrange(base) for _ in range(rng.randint(1, 5)))
        return DcNumber(delta, CircularWord(period, base))

    def test_wcp_canonicalization(self):
        rng = random.Random(61)
        for _ in range(400):
            base = rng.choice([2, 3, 10, 16])
            raw = self._random_raw_wcp(rng, base)
            value = raw.to_fraction()
            canonical = raw.canonical()
            assert canonical.to_fraction() == value
            assert canonical.canonical() == canonical
            rebuilt = wcp_from_dc(
                from_fraction(value.numerator, value.denominator, base)
            )
            assert canonical == rebuilt

    def test_dc_canonicalization(self):
        rng = random.Random(67)
        for _ in range(400):
            base = rng.choice([2, 3, 10, 16])
            raw = self._random_raw_dc(rng, base)
            value = raw.to_fraction()
            canonical = raw.canonical()
            assert canonical.to_fraction() == value
            assert canonical.canonical() == canonical
            assert canonical == from_fraction(value.numerator, value.denominator, base)

    def test_arithmetic_accepts_raw_inputs(self):
        rng = random.Random(71)
        for _ in range(150):
            base = rng.choice([2, 10])
            x = self._random_raw_dc(rng, base)
            y = self._random_raw_dc(rng, base)
            fx, fy = x.to_fraction(), y.to_fraction()
            assert (x + y).to_fraction() == fx + fy
            assert (x * y).to_fraction() == fx * fy
            assert x.compare(y) == (-1 if fx < fy else (0 if fx == fy else 1))
            if fy.numerator:
                # a random quotient's period may genuinely exceed the cap
                try:
                    assert (x / y).to_fraction() == fx / fy
                except CapacityError:
                    pass
