import random
from math import gcd, lcm

import pytest

from conftest import cw
from repetend import config
from repetend.decimals import DecimalNumber
from repetend.errors import CapacityError
from repetend.numtheory import (
    DecimalRootClassification,
    UnitaryPolynomial,
    classify_root,
    classify_root_decimal,
    general_square_length,
    integer_nth_root,
    lcm_divisibility,
    lcm_divisibility_scan,
    multiplicative_order,
    period_growth,
    period_length,
    product_period_length,
    product_period_scan,
    split_denominator,
)
from repetend.oracle import Fraction
from repetend.rational import from_fraction


class TestMultiplicativeOrder:
    def test_brute_force_agreement(self):
        for v in range(2, 80):
            for b in (2, 3, 10):
                if gcd(v, b) != 1:
                    continue
                k, acc = 1, b % v
                while acc != 1:
                    k += 1
                    acc = acc * b % v
                assert multiplicative_order(b, v) == k

    def test_modulus_one(self):
        assert multiplicative_order(10, 1) == 1

    def test_requires_coprimality(self):
        with pytest.raises(ValueError):
            multiplicative_order(10, 4)

    def test_cap_bounds_both_regimes(self):
        with pytest.raises(CapacityError):
            multiplicative_order(10, 999999937)  # factored: 333333312
        with pytest.raises(CapacityError):
            multiplicative_order(10, 1000730021)  # stepped to the cap
        assert multiplicative_order(10, 10**14 - 1) == 14

    def test_against_stepping_for_every_small_modulus(self):
        for b in (2, 3, 10, 16, 36):
            for v in range(2, 3000):
                if gcd(v, b) != 1:
                    continue
                k, acc = 1, b % v
                while acc != 1:
                    k += 1
                    acc = acc * b % v
                assert multiplicative_order(b, v) == k, (b, v)

    @pytest.mark.parametrize("v,order", [(10**14 - 1, 14), (20047, 20046)])
    def test_cap_boundary(self, v, order):
        # at the default cap 10**14 - 1 is found among the 1001 baby steps;
        # at a cap of 13 or 14 there are only four, and the giant step
        # 10**16 == 10**2 finds 14 = 4*4 - 2.  20047 is a full-reptend
        # prime: its order is v - 1, found at the last giant step.
        if order < 1001:
            assert multiplicative_order(10, v) == order
        config.period_cap = order
        assert multiplicative_order(10, v) == order
        config.period_cap = order - 1
        with pytest.raises(CapacityError):
            multiplicative_order(10, v)

    def test_factored_order_at_the_cap_boundary(self):
        config.period_cap = 20045
        with pytest.raises(CapacityError):
            multiplicative_order(10, 20047)
        config.period_cap = 20046
        assert multiplicative_order(10, 20047) == 20046


class TestPeriodLength:
    def test_seven(self):
        report = period_length(7, 10)
        assert (report.aperiodic_len, report.period_len) == (0, 6)
        assert report.witness == 142857
        assert 7 * report.witness == 10**6 - 1

    def test_three(self):
        report = period_length(3, 10)
        assert (report.period_len, report.witness) == (1, 3)

    def test_240(self):
        report = period_length(240, 10)
        assert report.aperiodic_len == 4
        assert report.period_len == 1

    def test_matches_observed_expansions(self):
        for base in (2, 10):
            for v in range(2, 120):
                report = period_length(v, base)
                value = from_fraction(1, v, base)
                assert len(value.period) == report.period_len
                if gcd(v, base) == 1:
                    assert report.witness * v == base**report.period_len - 1


class TestLcmDivisibility:
    def test_basic(self):
        assert lcm_divisibility(2, 3, 10) == 6
        assert lcm_divisibility(5, 5, 10) == 5

    def test_scan_confirms(self):
        assert lcm_divisibility_scan(4, 6, 2, 12) == 12
        assert lcm_divisibility(4, 6, 2) == 12

    def test_divisibility_equivalence(self):
        # b**n - 1 divisible by b**ell - 1 iff ell divides n
        for b in (2, 3, 10):
            for ell in range(1, 13):
                d = b**ell - 1
                for n in range(1, 61):
                    assert ((b**n - 1) % d == 0) == (n % ell == 0)


class TestProductPeriodLength:
    def test_square_of_two_digit_period(self):
        assert product_period_length(2, 2, 10) == 198

    def test_degenerate_binary(self):
        assert product_period_length(1, 1, 2) == 1

    def test_mixed_lengths(self):
        assert product_period_length(2, 3, 10) == 54
        assert product_period_scan(2, 3, 10) == 54

    def test_scan_matches_formula_small(self):
        for b in (2, 3, 5):
            for ell in range(1, 4):
                for ell2 in range(1, 4):
                    if (b**ell - 1) * (b**ell2 - 1) > 10**6:
                        continue
                    assert product_period_scan(ell, ell2, b) == product_period_length(
                        ell, ell2, b
                    )


class TestGeneralSquareLength:
    @pytest.mark.parametrize("b,expected", [(10, 198), (2, 6), (3, 16)])
    def test_formula(self, b, expected):
        assert general_square_length(b) == expected
        assert general_square_length(b) == product_period_length(2, 2, b)

    def test_scan_witness(self):
        # smallest n with (b*b-1)**2 | b**n - 1 matches, desk scale
        for b in (2, 3):
            modulus = (b**2 - 1) ** 2
            n = 1
            while (b**n - 1) % modulus:
                n += 1
            assert n == general_square_length(b)


class TestIntegerNthRoot:
    def test_exact(self):
        assert integer_nth_root(27, 3) == 3
        assert integer_nth_root(1024, 10) == 2

    def test_inexact(self):
        assert integer_nth_root(26, 3) is None

    def test_large(self):
        n = 12345678901234567890
        assert integer_nth_root(n**7, 7) == n

    def test_past_float_range(self):
        k = 10**200 + 7
        assert integer_nth_root(k**3, 3) == k
        assert integer_nth_root(k**3 + 1, 3) is None
        assert integer_nth_root(k**3 - 1, 3) is None
        assert integer_nth_root(k**2, 1) == k**2


def _reference_split(v, b):
    """split_denominator as a loop: divide out gcd(v, b) while it is not
    1, then step t until b**t is a multiple of the part divided out."""
    coprime = v
    while (g := gcd(coprime, b)) > 1:
        coprime //= g
    carried, t, power = v // coprime, 0, 1
    while power % carried:
        t, power = t + 1, power * b
    return t, coprime


class TestSplitDenominator:
    @pytest.mark.parametrize("base", [2, 3, 10, 12, 16, 36])
    def test_against_the_loop_below_3000(self, base):
        for v in range(1, 3000):
            assert split_denominator(v, base) == _reference_split(v, base)

    def test_against_the_loop_at_random(self):
        rng = random.Random(67)
        for _ in range(2000):
            b = rng.randint(2, 40)
            factor = rng.choice([1, 2, 3, 5, 7]) ** rng.randrange(30)
            v = rng.randrange(1, 10**6) * b ** rng.randrange(8) * factor
            assert split_denominator(v, b) == _reference_split(v, b)

    def test_long_preperiod(self):
        # the loop pays one power of the base per step of t: 20,000 here
        assert split_denominator(2**20000, 10) == (20000, 1)
        value = from_fraction(1, 2**20000, 10)
        assert value.to_fraction() == Fraction(1, 2**20000)


class TestClassifyRoot:
    def test_sqrt_two(self):
        report = classify_root(UnitaryPolynomial((-2, 0, 1)))
        assert report.integer_roots == ()
        assert "irrational" in report.verdict

    def test_sum_of_roots(self):
        report = classify_root(UnitaryPolynomial((1, 0, -10, 0, 1)))
        assert report.integer_roots == ()

    def test_perfect_square(self):
        report = classify_root(UnitaryPolynomial((-4, 0, 1)))
        assert report.integer_roots == (-2, 2)

    def test_zero_constant_term(self):
        report = classify_root(UnitaryPolynomial((0, -4, 0, 1)))  # x(x**2 - 4)
        assert report.integer_roots == (-2, 0, 2)

    def test_huge_prime_constant_needs_no_factoring(self):
        # x**3 - (10**60 + 39): trial division of the constant never ends
        report = classify_root(UnitaryPolynomial((-(10**60 + 39), 0, 0, 1)))
        assert report.integer_roots == ()

    def test_large_and_repeated_roots(self):
        # (x - 2**200) * (x + 3) and (x - 5)**2 * (x + 7)
        big = 2**200
        report = classify_root(UnitaryPolynomial((-3 * big, 3 - big, 1)))
        assert report.integer_roots == (-3, big)
        report = classify_root(UnitaryPolynomial((175, -45, -3, 1)))
        assert report.integer_roots == (-7, 5)

    def test_against_chosen_roots(self):
        rng = random.Random(41)
        for _ in range(200):
            roots = [rng.randint(-50, 50) for _ in range(rng.randint(1, 4))]
            coeffs = [1]
            for r in roots:  # multiply by (x - r), ascending coefficients
                coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
            if rng.random() < 0.5:  # and by x**2 + c, irreducible for c > 0
                c = rng.randint(1, 30)
                coeffs = [a + c * b for a, b in zip([0, 0] + coeffs, coeffs + [0, 0])]
            poly = UnitaryPolynomial(tuple(coeffs))
            assert classify_root(poly).integer_roots == tuple(sorted(set(roots)))

    def test_search_bound(self):
        poly = UnitaryPolynomial((-36, 5, 1))  # (x - 4) * (x + 9)
        assert classify_root(poly, search_bound=5).integer_roots == (4,)
        assert classify_root(poly, search_bound=3).integer_roots == ()

    def test_monic_enforced(self):
        with pytest.raises(ValueError):
            UnitaryPolynomial((1, 2))

    def test_against_scanning_oracle(self):
        rng = random.Random(29)
        for _ in range(60):
            degree = rng.randint(1, 5)
            coeffs = [rng.randint(-100, 100) for _ in range(degree)] + [1]
            poly = UnitaryPolynomial(tuple(coeffs))
            expected = tuple(
                sorted(r for r in range(-101, 102) if poly(r) == 0)
            )
            assert classify_root(poly).integer_roots == expected


def decimal_poly(*coeffs, base=10):
    converted = tuple(
        DecimalNumber.from_scaled(c[0], c[1], base) if isinstance(c, tuple) else c
        for c in coeffs
    )
    return UnitaryPolynomial(converted)


class TestClassifyRootDecimal:
    def test_cube_root_of_357_hundredths(self):
        poly = decimal_poly((-357, 2), 0, 0, 1)  # x**3 - 3.57
        report = classify_root_decimal(poly, 10)
        assert report.roots == ()
        assert "3*j == 2" in report.argument

    def test_square_root_of_quarter(self):
        poly = decimal_poly((-25, 2), 0, 1)  # x**2 - 0.25
        report = classify_root_decimal(poly, 10)
        values = {str(r) for r in report.roots}
        assert values == {"0.5", "-0.5"}

    def test_square_root_of_fifth(self):
        poly = decimal_poly((-2, 1), 0, 1)  # x**2 - 0.2
        report = classify_root_decimal(poly, 10)
        assert report.roots == ()
        assert "2*j == 1" in report.argument

    def test_negative_radicand_odd_power(self):
        poly = decimal_poly((-8, 0), 0, 0, 1)  # x**3 - 8
        report = classify_root_decimal(poly, 10)
        assert [str(r) for r in report.roots] == ["2"]

    def test_cube_root_of_negative(self):
        poly = decimal_poly((8, 0), 0, 0, 1)  # x**3 + 8
        report = classify_root_decimal(poly, 10)
        assert [str(r) for r in report.roots] == ["-2"]

    def test_general_polynomial_with_decimal_roots(self):
        # (x - 0.5)(x - 0.6) = x**2 - 1.1x + 0.3
        poly = decimal_poly((3, 1), (-11, 1), 1)
        report = classify_root_decimal(poly, 10)
        assert sorted(str(r) for r in report.roots) == ["0.5", "0.6"]
        assert isinstance(report, DecimalRootClassification)

    def test_general_polynomial_without_decimal_roots(self):
        # (x - 1/3)(x - 3) = x**2 - (10/3)x + 1 is not over finite decimals;
        # use x**2 - 0.3x - 0.1 instead: roots (0.3 +- sqrt(0.49))/2 -> 0.5, -0.2
        poly = decimal_poly((-1, 1), (-3, 1), 1)
        report = classify_root_decimal(poly, 10)
        assert sorted(str(r) for r in report.roots) == ["-0.2", "0.5"]


class TestPeriodGrowth:
    def test_powers_of_one_third(self):
        assert period_growth(cw("3"), 3) == [1, 1, 3]

    def test_non_monotone_counterexample_base_seven(self):
        assert period_growth(cw("15", base=7), 2) == [2, 2]

    def test_beta_word_stays_trivial(self):
        assert period_growth(cw("9"), 5) == [1, 1, 1, 1, 1]

    def test_rejects_zero_word(self):
        with pytest.raises(ValueError):
            period_growth(cw("0"), 3)

    def test_matches_value_periods(self):
        lengths = period_growth(cw("3"), 6)
        for k, ell in enumerate(lengths, start=1):
            assert ell == period_length(3**k, 10).period_len

    def test_eventually_exceeds_any_bound(self):
        lengths = period_growth(cw("12"), 4)
        assert lengths == [2, 22, 726, 23958]
        assert max(lengths) > 50

    def test_runaway_growth_hits_the_cap(self):
        from repetend import config
        from repetend.errors import CapacityError

        config.period_cap = 1000
        with pytest.raises(CapacityError):
            period_growth(cw("12"), 8)


class TestProductLengthAllBases:
    """The formula matches the brute-force minimum for every base up to
    ten and lengths up to four, wherever the modulus stays desk-sized."""

    def test_full_sweep(self):
        for b in range(2, 11):
            for ell in range(1, 5):
                for ell2 in range(1, 5):
                    if (b**ell - 1) * (b**ell2 - 1) > 10**9:
                        continue
                    assert product_period_scan(ell, ell2, b) == product_period_length(
                        ell, ell2, b
                    )
