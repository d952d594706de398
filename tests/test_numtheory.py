import random
from math import gcd, lcm

import pytest

from conftest import cw, reference_product_period_scan
from repetend import config
from repetend.decimals import DecimalNumber
from repetend.errors import CapacityError
from repetend.numtheory import (
    DecimalRootClassification,
    UnitaryPolynomial,
    classify_root,
    classify_root_decimal,
    integer_nth_root,
    multiplicative_order,
    period_growth,
    period_length,
    product_period_length,
    split_denominator,
)
from repetend.oracle import Fraction
from repetend.group import StarElement
from repetend.rational import from_fraction
from repetend.words import CircularWord, _common_length


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


def reference_lcm_divisibility_scan(ell: int, ell2: int, b: int, limit: int) -> int:
    """Brute-force companion of the lcm every lift uses: scan n upward."""
    d1, d2 = b**ell - 1, b**ell2 - 1
    for n in range(1, limit + 1):
        m = b**n - 1
        if m % d1 == 0 and m % d2 == 0:
            return n
    raise ValueError(f"no n <= {limit} found")


class TestLcmDivisibility:
    """The smallest n with b**n - 1 divisible by both b**ell - 1 and
    b**ell2 - 1 is the length two words of those lengths lift to."""

    def test_basic(self):
        assert _common_length((cw("12"), cw("123")), "lifted sum") == 6
        assert _common_length((cw("12345"), cw("54321")), "lifted sum") == 5

    def test_scan_confirms(self):
        assert reference_lcm_divisibility_scan(4, 6, 2, 12) == 12
        assert _common_length((cw("0101", 2), cw("011011", 2)), "lifted sum") == 12

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
        assert reference_product_period_scan(2, 3, 10) == 54

    def test_scan_matches_formula_small(self):
        for b in (2, 3, 5):
            for ell in range(1, 4):
                for ell2 in range(1, 4):
                    if (b**ell - 1) * (b**ell2 - 1) > 10**6:
                        continue
                    formula = product_period_length(ell, ell2, b)
                    assert reference_product_period_scan(ell, ell2, b) == formula

    # the generic square of a length-2 period: 2 * (b**2 - 1)
    @pytest.mark.parametrize("b,expected", [(10, 198), (2, 6), (3, 16)])
    def test_square_formula(self, b, expected):
        assert product_period_length(2, 2, b) == expected

    def test_square_scan_witness(self):
        # smallest n with (b*b-1)**2 | b**n - 1 matches, desk scale
        for b in (2, 3):
            modulus = (b**2 - 1) ** 2
            n = 1
            while (b**n - 1) % modulus:
                n += 1
            assert n == product_period_length(2, 2, b)


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


def _horner(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def reference_integer_roots(coeffs):
    """The classifier as it was, kept as a reference: X peeled one factor
    at a time, the Cauchy bound 1 + max |a_i|, and the chain of plain
    derivatives, bisected on sign changes between the floors of f' roots."""
    coeffs = list(coeffs)
    roots = set()
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.add(0)
        coeffs = coeffs[1:]
    if len(coeffs) > 1:
        bound = 1 + max(abs(c) for c in coeffs[:-1])
        chain = [coeffs]
        while len(chain[-1]) > 2:
            chain.append([i * c for i, c in enumerate(chain[-1])][1:])
        floors = set()
        for g in reversed(chain):
            cuts = sorted({-bound, bound} | floors | {x + 1 for x in floors if x < bound})
            values = [_horner(g, x) for x in cuts]
            floors.update(x for x, y in zip(cuts, values) if y == 0)
            for a, b, fa, fb in zip(cuts, cuts[1:], values, values[1:]):
                if fa * fb < 0:
                    while b - a > 1:
                        mid = (a + b) // 2
                        if (_horner(g, mid) < 0) == (fa < 0):
                            a = mid
                        else:
                            b = mid
                    floors.update((a, b))
        roots.update(x for x in floors if _horner(coeffs, x) == 0)
    return tuple(sorted(roots))


def _times(coeffs, factor):
    """Ascending coefficients of the product of two polynomials."""
    product = [0] * (len(coeffs) + len(factor) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(factor):
            product[i + j] += a * b
    return product


def sweep_polynomials(rng, count):
    """Monic integer polynomials for the reference sweep: products of
    chosen roots (repeated, some times an irreducible x**2 + c), dense
    and sparse ones of degree up to 40 with coefficients up to 10**30,
    and cubes of huge constants, alone and times a squared root."""
    big = (10**60 + 39, 2**127 - 1)
    yield [-big[0], 0, 0, 1]
    yield [-big[1], 0, 0, 1]
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:  # chosen roots, some repeated
            coeffs = [1]
            for _ in range(rng.randint(1, 4)):
                r = rng.randint(-10 ** rng.randint(0, 6), 10 ** rng.randint(0, 6))
                for _ in range(rng.choice((1, 1, 2, 3))):
                    coeffs = _times(coeffs, [-r, 1])
            if rng.random() < 0.4:
                coeffs = _times(coeffs, [rng.randint(1, 10**4), 0, 1])
        elif kind == 1:  # dense
            top = 10 ** rng.randint(0, 30)
            coeffs = [rng.randint(-top, top) for _ in range(rng.randint(1, 40))] + [1]
        elif kind == 2:  # sparse, X often peeled
            coeffs = [0] * rng.randint(1, 40) + [1]
            for _ in range(rng.randint(1, 4)):
                top = 10 ** rng.randint(0, 30)
                coeffs[rng.randrange(len(coeffs) - 1)] = rng.randint(-top, top)
        else:  # (x - r)**2 * (x**3 - big)
            r = rng.randint(-1000, 1000)
            coeffs = _times(_times([-r, 1], [-r, 1]), [-rng.choice(big), 0, 0, 1])
        yield coeffs


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

    def test_against_the_reference_classifier(self):
        # the reference bisects the Cauchy range, 10**60 wide here: keep it short
        for coeffs in sweep_polynomials(random.Random(15), 300):
            got = classify_root(UnitaryPolynomial(tuple(coeffs))).integer_roots
            assert got == reference_integer_roots(coeffs), coeffs

    def test_monic_enforced(self):
        # the highest written exponent is the degree, even with a coefficient 0
        for coefficients, lead in [((1, 2), 2), ((-2, 1, 0), 0), ({3: 0, 2: 1, 0: -2}, 0)]:
            with pytest.raises(ValueError, match=f"leading coefficient must be 1, got {lead}$"):
                UnitaryPolynomial(coefficients)

    def test_dense_tuple_and_map_agree(self):
        dense = UnitaryPolynomial((0, -4, 0, 1))
        written = UnitaryPolynomial({3: 1, 1: -4})
        assert dense == written and dense.terms == ((3, 1), (1, -4))
        assert classify_root(dense) == classify_root(written)
        dense = decimal_poly((-25, 2), 0, 1)
        written = UnitaryPolynomial({2: 1, 0: DecimalNumber.from_scaled(-25, 2, 10)})
        assert dense == written
        assert classify_root_decimal(dense, 10) == classify_root_decimal(written, 10)

    def test_zero_terms_dropped(self):
        zero, one = DecimalNumber.zero(10), DecimalNumber.one(10)
        assert UnitaryPolynomial((zero, 0, one)).terms == ((2, one),)
        assert UnitaryPolynomial({5: 1, 3: 0, 0: zero}).terms == ((5, 1),)

    def test_evaluates_at_ints_and_decimals(self):
        poly = UnitaryPolynomial({5: 1, 2: -3, 0: -2})  # gaps of 3 and 2
        assert poly(2) == 18 and poly(-1) == -6
        x = DecimalNumber.from_scaled(15, 1, 10)  # 1.5**5 - 3 * 1.5**2 - 2
        assert poly(x) == DecimalNumber.from_scaled(-115625, 5, 10)

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

    @pytest.mark.parametrize("base", [2, 10, 36])
    def test_beta_word_takes_no_product(self, monkeypatch, base):
        """0.(b-1) = 1 is the neutral element of the circular product:
        every power is itself, so no power is multiplied out."""

        def refused(self, other):
            raise AssertionError("a power of 0.(b-1) was multiplied out")

        monkeypatch.setattr(StarElement, "__mul__", refused)
        beta = CircularWord((base - 1,) * 3, base)
        assert period_growth(beta, 10**6) == [1] * 10**6
        assert period_growth(StarElement.of(beta), 2) == [1, 1]
        config.period_cap = 10
        with pytest.raises(CapacityError, match="^period growth list of 11 digits"):
            period_growth(beta, 11)

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
                    formula = product_period_length(ell, ell2, b)
                    assert reference_product_period_scan(ell, ell2, b) == formula
