"""Acceptance criteria, one test per criterion.

Each test prints its own PASS line (visible with ``pytest -s`` or in the
verbose listing); stated runtime bounds are asserted where given.
"""

import random
import time
from math import gcd, lcm

import pytest

from conftest import cw, reference_product_period_scan
from repetend import notation, oracle
from repetend.cli import run
from repetend.decimals import DecimalNumber
from repetend.numtheory import (
    UnitaryPolynomial,
    classify_root,
    classify_root_decimal,
    period_growth,
    period_length,
    product_period_length,
)
from repetend.oracle import Fraction
from repetend.rational import (
    DcNumber,
    cancellation_demo,
    from_fraction,
    wcp_from_dc,
)
from repetend.words import CircularWord, fermat_orbit_count, lucas_orbit_count

lit = notation.parse
out = notation.format_dc


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_squared_two_digit_period(capsys):
    start = time.perf_counter()
    code = run(["eval", "--base", "10", "0.(01) * 0.(01)"])
    elapsed = time.perf_counter() - start
    printed = capsys.readouterr().out.strip()
    assert code == 0

    expected_period = "".join(f"{k:02d}" for k in range(98)) + "99"
    assert len(expected_period) == 198
    assert printed == f"0.({expected_period})"

    # independent digit oracle: plain long division of 1/99**2
    digits = oracle.expansion_digits(1, 9801, 10, 2 * 198)
    assert "".join(map(str, digits[:198])) == expected_period
    assert digits[198:] == digits[:198]

    assert elapsed < 1.0
    report(1, f"(0.(01))^2 has the 198-digit period, in {elapsed:.3f}s")


def test_criterion_02_product_length_law():
    start = time.perf_counter()
    checked = 0
    for b in (2, 3, 5, 10):
        for ell in range(1, 5):
            for ell2 in range(1, 5):
                if (b**ell - 1) * (b**ell2 - 1) > 10**9:
                    continue
                formula = product_period_length(ell, ell2, b)
                assert reference_product_period_scan(ell, ell2, b) == formula
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"{checked} (b, l, l') cases match the brute-force minimum")


def test_criterion_03_fermat_and_lucas_orbits():
    checked = 0
    for b in range(2, 11):
        for p in (2, 3, 5, 7):
            if b**p > 10**8:
                continue
            orbits, constants = fermat_orbit_count(b, p)
            assert b**p == orbits * p + constants
            assert constants == b
            checked += 1

    lucas = {1: 1, 2: 3}
    for n in range(3, 20):
        lucas[n] = lucas[n - 1] + lucas[n - 2]
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        count = lucas_orbit_count(p)
        assert count == lucas[p]
        assert count % p == 1
    report(3, f"{checked} orbit decompositions and 8 Lucas counts are exact")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    pairs = 0
    for base in (2, 7, 10):
        for _ in range(334):
            u1, v1 = rng.randint(-500, 500), rng.randint(1, 500)
            u2, v2 = rng.randint(-500, 500), rng.randint(1, 500)
            x, y = from_fraction(u1, v1, base), from_fraction(u2, v2, base)
            fx, fy = Fraction(u1, v1), Fraction(u2, v2)
            assert (x + y).to_fraction() == fx + fy
            assert (x * y).to_fraction() == fx * fy
            if fy.numerator:
                assert (x / y).to_fraction() == fx / fy
            assert x.compare(y) == (-1 if fx < fy else (0 if fx == fy else 1))
            wx, wy = wcp_from_dc(x), wcp_from_dc(y)
            assert (wx + wy).to_fraction() == fx + fy
            assert (wx * wy).to_fraction() == fx * fy
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs >= 1000
    assert elapsed < 60.0
    report(4, f"{pairs} random pairs agree with the fraction oracle in {elapsed:.1f}s")


def test_criterion_05_historical_fixtures():
    # Marsh: three sevenths summing through 0.(9) to 1
    assert out(lit("0.(571428)") + lit("0.(285714)") + lit("0.(142857)")) == "1"
    # Marsh: the 2.0(0) sum
    assert out(lit("0.9(3)") + lit("0.7(3)") + lit("0.2(6)") + lit("0.0(6)")) == "2"
    # Hatton: trailing nines canonicalized away
    assert out(lit("0.1256(4)") * lit("0.00009")) == "0.000011308"
    # Brown: long division with a two-digit repetend
    assert out(lit("297.5") / lit("11")) == "27.0(45)"
    # the decimal-plus-period pairs
    assert str(lit("24.837(56)")) == "(24.181, (65))"
    assert str(lit("2.1(4)")) == "(1.7, (4))"
    assert str(lit("0.4(7)")) == "(-0.3, (7))"
    report(5, "Marsh, Hatton, Brown and the paired representations reproduce")


def test_criterion_06_nines_identity():
    assert out(lit("0.(9)")) == "1"
    nines = DcNumber(DecimalNumber.zero(10), CircularWord((9,), 10))
    one = DcNumber.one(10)
    assert nines.compare(one) == 0

    rng = random.Random(99)
    demos = 0
    while demos < 20:
        length = rng.randint(1, 8)
        value = rng.randrange(1, 10**length - 1)
        x = DcNumber(
            DecimalNumber.from_scaled(
                rng.randint(-1000, 1000), rng.randint(0, 4), 10
            ),
            CircularWord.from_int(value, 10, length),
        )
        a = DcNumber(
            DecimalNumber.from_int(rng.randint(-5, 5), 10),
            CircularWord((9,) * rng.randint(1, 4), 10),
        )
        assert cancellation_demo(a, x).identical
        demos += 1
    report(6, "0.(9) = 1 and 20 cancellation demonstrations are digit-identical")


def test_criterion_07_purely_periodic_characterization():
    for base in (2, 10):
        for v in range(2, 201):
            x = from_fraction(1, v, base)
            shape = wcp_from_dc(x)
            coprime = gcd(v, base) == 1
            assert shape.is_purely_periodic() == coprime
            if coprime:
                assert len(x.period) <= v - 1
                rep = period_length(v, base)
                assert rep.witness * v == base**rep.period_len - 1
                assert rep.period_len == len(x.period)
    report(7, "pure periodicity iff gcd(v, b) = 1 for v <= 200, b in {2, 10}")


def test_criterion_08_wallis_lcm_law():
    rng = random.Random(1742)
    done = 0
    while done < 50:
        v1, v2 = rng.randint(2, 100), rng.randint(2, 100)
        if gcd(v1, v2) != 1 or gcd(v1, 10) != 1 or gcd(v2, 10) != 1:
            continue
        p1 = len(from_fraction(1, v1, 10).period)
        p2 = len(from_fraction(1, v2, 10).period)
        assert len(from_fraction(1, v1 * v2, 10).period) == lcm(p1, p2)
        done += 1
    report(8, "50 coprime products have period lcm of the factors' periods")


def test_criterion_09_irrationality_classifier():
    for coeffs in [(-2, 0, 1), (-3, 0, 1), (1, 0, -10, 0, 1)]:
        result = classify_root(UnitaryPolynomial(coeffs))
        assert result.integer_roots == ()
        assert "irrational" in result.verdict

    surd = UnitaryPolynomial(
        (DecimalNumber.from_scaled(-357, 2, 10), DecimalNumber.zero(10),
         DecimalNumber.zero(10), DecimalNumber.one(10))
    )
    decimal_result = classify_root_decimal(surd, 10)
    assert decimal_result.roots == ()
    assert "3*j == 2" in decimal_result.argument

    for n in range(1, 401):
        result = classify_root(UnitaryPolynomial((-n, 0, 1)))
        root = int(n**0.5)
        if root * root == n:
            assert result.integer_roots == (-root, root)
        else:
            assert result.integer_roots == ()
    report(9, "surds certified irrational; perfect squares up to 400 resolved")


def test_criterion_10_period_growth():
    growth_ten = period_growth(cw("3"), 6)
    assert any(n > 50 for n in growth_ten)

    growth_seven = period_growth(cw("15", base=7), 5)
    assert growth_seven[1] == 2  # the square keeps length 2
    assert any(n > 50 for n in growth_seven)

    growth_twelve = period_growth(cw("12"), 4)
    assert any(n > 50 for n in growth_twelve)

    square = cw("15", base=7)
    from repetend.group import StarElement

    squared = StarElement.of(square) * StarElement.of(square)
    assert str(squared.representative) == "03"
    report(10, "period lengths of powers exceed 50; the base-7 square is 03~")
