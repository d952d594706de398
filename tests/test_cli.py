import argparse
import random
import re
import time
from math import gcd
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from repetend import config, notation, oracle, words
from repetend.cli import _Parser, run
from repetend.oracle import Fraction


def _read_decimal(text: str) -> int:
    """Digit by digit: int() refuses strings past 4300 digits."""
    value = 0
    for ch in text:
        value = value * 10 + "0123456789".index(ch)
    return value


# 4401 digits: past the 4300 that int() reads and str() writes
_LONG = "1" + "0" * 4400


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_marsh_sum(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "--base", "10", "0.(571428) + 0.(285714) + 0.(142857)"
        )
        assert (code, out) == (0, "1\n")

    def test_nines(self, capsys):
        assert invoke(capsys, "eval", "0.(9)")[:2] == (0, "1\n")

    def test_grouping_parentheses_vs_period(self, capsys):
        code, out, _ = invoke(capsys, "eval", "(0.(3) + 0.(6)) * 2")
        assert (code, out) == (0, "2\n")

    def test_division(self, capsys):
        assert invoke(capsys, "eval", "297.5 / 11")[:2] == (0, "27.0(45)\n")

    def test_unary_minus(self, capsys):
        assert invoke(capsys, "eval", "-0.(3) + 1")[:2] == (0, "0.(6)\n")

    def test_other_base(self, capsys):
        code, out, _ = invoke(capsys, "eval", "--base", "2", "0.(01) + 0.(10)")
        assert (code, out) == (0, "1\n")

    def test_raw_shows_preidentification_pair(self, capsys):
        code, out, _ = invoke(capsys, "eval", "--raw", "0.(9)")
        assert code == 0
        assert "raw: 0.(9) = (0, (9)) = (1, (0))" in out
        assert out.endswith("1\n")


class TestExitCodes:
    def test_division_by_zero_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "eval", "1/0")
        assert code == 2
        assert "division by zero" in err

    def test_malformed_expression_is_usage_error(self, capsys):
        assert invoke(capsys, "eval", "1 +")[0] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 1

    def test_capacity_exceeded(self, capsys):
        code, _, err = invoke(
            capsys, "eval", "--max-period", "8", "0.(142857131) * 0.(1234567)"
        )
        assert code == 3
        assert "capacity" in err

    def test_bad_base(self, capsys):
        assert invoke(capsys, "eval", "--base", "40", "1")[0] == 1

    def test_non_prime_fermat_is_domain_error(self, capsys):
        assert invoke(capsys, "fermat", "--base", "10", "4")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("eval",),
            ("compare", "1"),
            ("fermat", "--base", "x", "5"),
            ("fermat", "1.5"),
            ("frobnicate",),
            # argparse can hand over a positional that "--" stands for as a list
            ("product-length", "3", "--", "--"),
            ("period-growth", "7", "--", "--"),
        ],
        ids=[
            "no-verb",
            "no-operand",
            "one-operand",
            "bad-base",
            "bad-int",
            "unknown-verb",
            "dashes-for-an-operand",
            "dashes-for-a-count",
        ],
    )
    def test_usage_error_takes_one_line(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and ": error: " in err

    @pytest.mark.parametrize(
        "expression,code,out",
        [
            ("(" * 100_000 + "1" + ")" * 100_000, 0, "1\n"),
            ("(" * 100_000 + "1" + ")" * 99_999, 1, ""),
            ("-" * 10_001 + "1", 0, "-1\n"),
            ("2*" + "(-" * 10_000 + "3" + ")" * 10_000, 0, "6\n"),
        ],
        ids=["parentheses", "unclosed", "signs", "signed-parentheses"],
    )
    def test_deep_expressions_end_in_an_exit_code(self, capsys, expression, code, out):
        """Nesting and runs of signs are read without recursion: the
        answer, or one line on stderr, at any depth."""
        result = invoke(capsys, "eval", "--", expression)
        assert result[:2] == (code, out)
        assert result[2].count("\n") == (code != 0)

    @pytest.mark.parametrize(
        "argv,out",
        [
            (("eval", "-1+2"), "1\n"),
            (("from-frac", "-3/7"), "-0.(428571)\n"),
            (("to-frac", "-1.(5)"), "-14/9\n"),
            (("eval", "-.5*2"), "-1\n"),
            (("eval", "-(1)"), "-1\n"),
            (("eval", "--base", "7", "-1+2"), "1\n"),
        ],
        ids=["eval", "from-frac", "to-frac", "eval-point", "eval-paren", "eval-base"],
    )
    def test_operand_starting_with_minus(self, capsys, argv, out):
        # the same bytes as with "--" before the operand
        *options, operand = argv
        assert invoke(capsys, *options, "--", operand) == (0, out, "")
        assert invoke(capsys, *argv) == (0, out, "")

    def test_operands_rely_on_a_private_argparse_hook(self, capsys):
        # _Parser overrides argparse's _parse_optional (Python 3.10 to 3.13):
        # renamed there, "-1+2" would again be read as an unknown option
        assert "_parse_optional" in vars(argparse.ArgumentParser)
        assert "_parse_optional" in vars(_Parser)
        code, out, _ = invoke(capsys, "eval", "-h")  # still an option
        assert code == 0 and out.startswith("usage: repetend eval")

    def test_max_period_holds_for_one_run_only(self, capsys):
        assert invoke(capsys, "eval", "--max-period", "5", "1")[:2] == (0, "1\n")
        assert config.period_cap == config.DEFAULT_PERIOD_CAP
        # a later product in the same process lifts 99 digits, past 5
        x = notation.parse("0.(01)")
        assert (x * x).to_fraction() == Fraction(1, 9801)


class TestVerbs:
    def test_to_frac(self, capsys):
        assert invoke(capsys, "to-frac", "0.(873)")[:2] == (0, "97/111\n")

    def test_from_frac(self, capsys):
        assert invoke(capsys, "from-frac", "1/240")[:2] == (0, "0.0041(6)\n")

    def test_to_frac_past_int_str_limit(self, capsys):
        code, out, _ = invoke(capsys, "to-frac", "0.(" + "0" * 4399 + "1)")
        assert code == 0
        num, den = out.strip().split("/")
        assert Fraction(_read_decimal(num), _read_decimal(den)) == Fraction(
            1, 10**4400 - 1
        )

    def test_from_frac_long_numerator(self, capsys):
        code, out, _ = invoke(capsys, "from-frac", "7" * 5000 + "/3")
        assert code == 0
        sevens = (10**5000 - 1) // 9 * 7
        assert notation.parse(out.strip()).to_fraction() == Fraction(sevens, 3)

    def test_from_frac_rejects_junk(self, capsys):
        assert invoke(capsys, "from-frac", "1:3")[0] == 1

    def test_convert_wcp(self, capsys):
        code, out, _ = invoke(capsys, "convert", "--to", "wcp", "24.837(56)")
        assert (code, out) == (0, "(+, 24837, (56), -3)\n")
        # trailing letters the period takes back, at point 0 and past it
        for literal, form in [
            ("370", "(+, 37, (0), 1)"),
            ("3.(3)", "(+, 0, (3), 1)"),
            ("0.(30)", "(+, 0, (03), 1)"),
            ("-12.(12)", "(-, 0, (12), 2)"),
            ("9.(9)", "(+, 1, (0), 1)"),
            ("-0", "(+, 0, (0), 0)"),
        ]:
            assert invoke(capsys, "convert", "--to", "wcp", literal) == (0, form + "\n", "")

    def test_convert_dc(self, capsys):
        code, out, _ = invoke(capsys, "convert", "--to", "dc", "24.837(56)")
        assert (code, out) == (0, "(24.181, (65))\n")

    def test_convert_dc_negative_delta(self, capsys):
        code, out, _ = invoke(capsys, "convert", "--to", "dc", "0.4(7)")
        assert (code, out) == (0, "(-0.3, (7))\n")

    def test_compare(self, capsys):
        assert invoke(capsys, "compare", "0.(9)", "1")[:2] == (0, "=\n")
        assert invoke(capsys, "compare", "0.(3)", "0.(4)")[:2] == (0, "<\n")
        assert invoke(capsys, "compare", "2.1(4)", "2.1")[:2] == (0, ">\n")

    def test_period_length(self, capsys):
        code, out, _ = invoke(capsys, "period-length", "--base", "10", "7")
        assert (code, out) == (0, "aperiodic=0 period=6 witness=142857\n")

    def test_product_length(self, capsys):
        assert invoke(capsys, "product-length", "2", "2")[:2] == (0, "198\n")

    def test_period_length_past_int_str_limit(self, capsys):
        code, out, _ = invoke(capsys, "period-length", "20047")
        assert code == 0
        fields = dict(field.split("=") for field in out.split())
        assert fields["period"] == "20046"
        witness = words.digits_to_int(tuple(map(int, fields["witness"])), 10)
        assert witness * 20047 == 10**20046 - 1

    def test_product_length_past_int_str_limit(self, capsys):
        code, out, _ = invoke(capsys, "product-length", "5000", "5000")
        assert code == 0
        value = words.digits_to_int(tuple(map(int, out.strip())), 10)
        assert value == (10**5000 - 1) * 5000

    def test_period_length_of_a_long_modulus(self, capsys):
        code, out, err = invoke(capsys, "period-length", "9" * 4401)
        assert (code, out, err) == (0, "aperiodic=0 period=4401 witness=1\n", "")

    @pytest.mark.parametrize("v", ["abc", "-3", "7x", ""])
    def test_period_length_needs_digits(self, capsys, v):
        code, out, err = invoke(capsys, "period-length", v)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1

    def test_from_frac_long_denominator_past_the_cap(self, capsys):
        code, out, err = invoke(capsys, "from-frac", "1/1" + "0" * 4999 + "3")
        assert (code, out) == (3, "")
        assert "capacity" in err and err.count("\n") == 1

    def test_period_length_past_the_cap(self, capsys):
        code, out, err = invoke(capsys, "period-length", "999999937")
        assert (code, out) == (3, "")
        assert "capacity" in err

    def test_irrational_check_past_float_range(self, capsys):
        polynomial = "x^2-1" + "0" * 400 + ".0001"
        code, out, err = invoke(capsys, "irrational-check", polynomial)
        assert (code, err) == (0, "")
        assert "irrational" in out

    def test_fermat(self, capsys):
        code, out, _ = invoke(capsys, "fermat", "--base", "10", "2")
        assert (code, out) == (0, "orbits=45 constants=10 identity=10^2=45*2+10\n")

    def test_lucas(self, capsys):
        code, out, _ = invoke(capsys, "lucas", "7")
        assert (code, out) == (0, "count=29 residue=1 (mod 7)\n")

    @pytest.mark.parametrize(
        "argv,out",
        [
            (
                ("fermat", "--base", "36", "5"),
                "orbits=12093228 constants=36 identity=36^5=12093228*5+36\n",
            ),
            (("lucas", "23"), "count=64079 residue=1 (mod 23)\n"),
        ],
        ids=["fermat-36-5", "lucas-23"],
    )
    def test_orbit_counts_within_the_enumeration_cap(self, capsys, argv, out):
        assert invoke(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize(
        "argv,what",
        [
            # 2**p has more than 4300 digits: str() would refuse it
            (("fermat", "--base", "2", "15013"), "2**15013 words"),
            (("fermat", "--base", "2", "1000003"), "2**1000003 words"),
            # a prime past 10**12: trial division or 2**p would not finish
            (("lucas", "1000000000039"), "2**1000000000039 words"),
            (("lucas", "29"), "2**29 = 536870912 words"),
            # int() would refuse p, str() the message
            (("fermat", _LONG), "10**[14617 bits] words"),
            (("lucas", _LONG), "2**[14617 bits] words"),
        ],
        ids=[
            "fermat-2-15013",
            "fermat-2-1000003",
            "lucas-1000000000039",
            "lucas-29",
            "fermat-4401-digits",
            "lucas-4401-digits",
        ],
    )
    def test_orbit_counts_past_the_enumeration_cap(self, capsys, argv, what):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        elapsed = time.perf_counter() - start
        cap = config.ENUMERATION_CAP
        assert (code, out) == (3, "")
        assert err == f"repetend: capacity exceeded: {what} exceed enumeration cap {cap}\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv,what",
        [
            # the answer has 10**12 digits or more: b**g is never built
            (
                ("product-length", "1000000000000", "1000000000000"),
                "product period length of 1000000000000",
            ),
            (("product-length", "3000000", "3000000"), "product period length of 3000000"),
            # one length per power, every one of them 1: no growth to meet a cap
            (("period-growth", "9", "1000000000000"), "period growth list of 1000000000000"),
        ],
        ids=["product-length-1e12", "product-length-3e6", "period-growth-1e12"],
    )
    def test_unbounded_verbs_past_the_period_cap(self, capsys, argv, what):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        elapsed = time.perf_counter() - start
        cap = config.DEFAULT_PERIOD_CAP
        assert (code, out) == (3, "")
        assert err == f"repetend: capacity exceeded: {what} digits exceeds cap of {cap}\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv,code,printed",
        [
            # spelled as int() reads them
            (("product-length", " 2", "+2"), 0, "198\n"),
            (("product-length", "1_0", "2"), 0, "990\n"),
            (("fermat", "-3"), 2, ": orbit decomposition needs a prime length, got -3"),
            (("fermat", "1.5"), 1, " fermat: error: argument p: invalid int value: '1.5'"),
            # past 4300 digits: read, not refused, and shown by bit length
            (("lucas", f"-{_LONG}"), 2, ": need a prime length, got -[14617 bits]"),
            (("eval", "--base", _LONG, "1"), 1, ": base must be in 2..36, got [14617 bits]"),
            (("eval", "--max-period", _LONG, "0.(3)*3"), 0, "1\n"),
        ],
        ids=["spaces", "underscore", "negative", "not-int", "long-neg", "long-base", "long-cap"],
    )
    def test_integer_operands(self, capsys, argv, code, printed):
        # the answer on stdout with exit 0, else one line on stderr
        out, err = (printed, "") if code == 0 else ("", f"repetend{printed}\n")
        assert invoke(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize(
        "argv,code,shown",
        [
            (
                ("fermat", f"{_LONG}x"),
                1,
                " fermat: error: argument p: invalid int value:"
                " '10000000000000000000'... (4,402 characters)",
            ),
            (
                ("from-frac", "1/2x" + "0" * 4400),
                1,
                ": expected U/V, got '1/2x0000000000000000'... (4,404 characters)",
            ),
            (
                ("eval", f"1+!{_LONG}"),
                1,
                ": cannot read expression at: '!1000000000000000000'... (4,402 characters)",
            ),
            (
                ("eval", f"1 {_LONG}"),
                1,
                ": trailing input at '10000000000000000000'... (4,401 characters)",
            ),
            (
                ("irrational-check", f"x^2-!{_LONG}"),
                1,
                ": cannot read polynomial at: '-!100000000000000000'... (4,403 characters)",
            ),
            (
                ("to-frac", f"1.2.{_LONG}"),
                2,
                ": not a numeric literal: '1.2.1000000000000000'... (4,405 characters)",
            ),
        ],
        ids=["fermat", "from-frac", "eval", "trailing", "polynomial", "to-frac"],
    )
    def test_long_malformed_operand_is_shown_in_part(self, capsys, argv, code, shown):
        assert invoke(capsys, *argv) == (code, "", f"repetend{shown}\n")
        assert len(shown.encode()) < 200

    def test_irrational_check_integer(self, capsys):
        code, out, _ = invoke(capsys, "irrational-check", "x^2-2")
        assert code == 0
        assert "no integer roots" in out

    def test_irrational_check_decimal(self, capsys):
        code, out, _ = invoke(capsys, "irrational-check", "x^3-3.57")
        assert code == 0
        assert "irrational" in out and "3*j == 2" in out

    def test_irrational_check_roots(self, capsys):
        code, out, _ = invoke(capsys, "irrational-check", "x^2-4")
        assert code == 0
        assert "integer roots: -2, 2" in out

    def test_irrational_check_requires_monic(self, capsys):
        # the highest written power is the degree, even with a coefficient 0
        cases = [("2x^2-1", "2"), ("0x^3+x^2-2", "0"), ("0.5x^2-1", "0.5")]
        for polynomial, lead in cases:
            err = f"repetend: leading coefficient must be 1, got {lead}\n"
            assert invoke(capsys, "irrational-check", polynomial) == (2, "", err)

    def test_period_growth(self, capsys):
        code, out, _ = invoke(capsys, "period-growth", "--base", "7", "15", "2")
        assert (code, out) == (0, "2 2\n")

    @pytest.mark.parametrize("argv", [["9"], ["--base", "2", "1"], ["--base", "36", "ZZ"]])
    def test_period_growth_of_one_up_to_the_cap(self, capsys, argv):
        # 0.(b-1) = 1: a million powers, each of period 1, with no product
        start = time.perf_counter()
        code, out, err = invoke(capsys, "period-growth", *argv, "1000000")
        assert (code, out, err) == (0, " ".join(["1"] * 10**6) + "\n", "")
        assert time.perf_counter() - start < 2

    def test_irrational_check_high_degree(self, capsys):
        # one derivative per degree: past the interpreter's recursion limit
        code, out, err = invoke(capsys, "irrational-check", "x^1100+x+1")
        verdict = "no integer roots; all real roots are irrational\n"
        assert (code, out, err) == (0, verdict, "")

    @pytest.mark.parametrize(
        "polynomial,size",
        [
            # the parser's degree cap, then the chain of derivatives: decided
            # from the degree, before a rescale builds any power of the base
            ("x^99999999999-2", "100000000000 coefficients of a degree-99999999999"),
            ("x^2000000-2", "2000001000000 coefficients in the derivative chain"),
            ("x^99999998-2", "4999999850000001 coefficients in the derivative chain"),
            ("x^99999998+0.5x-3", "4999999850000001 coefficients in the derivative chain"),
        ],
    )
    def test_irrational_check_past_the_enumeration_cap(self, capsys, polynomial, size):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "irrational-check", polynomial)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith(f"repetend: capacity exceeded: {size}")
        assert err.endswith(f"exceed enumeration cap {config.ENUMERATION_CAP}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "polynomial,out",
        [
            # X**100000 peeled in one step, not one factor at a time
            (
                "x^100000",
                "integer roots: 0\n"
                "all real roots outside the integer list are irrational\n",
            ),
            # searched within 32, the bound the coefficients give, not
            # within the Cauchy bound 1 + 3 * 10**400
            (
                "x^400+0.5x-3",
                "no base-10 decimal roots; all real roots are irrational "
                "(rescaled by 10**1 to an integer polynomial)\n",
            ),
            # a chain of three-term derivatives, not of 3001 coefficients each
            (
                "x^3000+x-2",
                "integer roots: 1\n"
                "all real roots outside the integer list are irrational\n",
            ),
        ],
        ids=["x^100000", "x^400+0.5x-3", "x^3000+x-2"],
    )
    def test_irrational_check_high_degree_in_time(self, capsys, polynomial, out):
        start = time.perf_counter()
        code, printed, err = invoke(capsys, "irrational-check", polynomial)
        elapsed = time.perf_counter() - start
        assert (code, printed, err) == (0, out, "")
        assert elapsed < 2.0

    def test_irrational_check_exponent_past_the_str_limit(self, capsys):
        # 4401 digits: int() would refuse the exponent, str() the message
        degree = "x^1" + "0" * 4400
        code, out, err = invoke(capsys, "irrational-check", f"{degree}-2")
        assert (code, out) == (3, "")
        assert err == (
            "repetend: capacity exceeded: [14617 bits] coefficients of a "
            f"degree-[14617 bits] polynomial exceed enumeration cap {config.ENUMERATION_CAP}\n"
        )
        code, out, err = invoke(capsys, "irrational-check", f"{degree}+{degree}-2")
        assert (code, out, err) == (1, "", "repetend: repeated power x^[14617 bits]\n")

    @pytest.mark.parametrize(
        "argv,what",
        [
            (("eval", "0.(7) * 0.(142857)"), "lifted product"),
            (("eval", "0.(01) + 0.(001)"), "lifted sum"),
            (("compare", "0.(01)", "0.(001)"), "lifted comparison"),
        ],
    )
    def test_period_cap_names_the_lift(self, capsys, argv, what):
        command, *operands = argv
        err = f"repetend: capacity exceeded: {what} of 6 digits exceeds cap of 5\n"
        assert invoke(capsys, command, "--max-period", "5", *operands) == (3, "", err)

    def test_irrational_check_high_degree_pure_power(self, capsys):
        # the digit-count argument needs no derivative chain
        code, out, err = invoke(capsys, "irrational-check", "x^2000000-2.5")
        assert (code, err) == (0, "")
        assert out == (
            "no base-10 decimal roots; all real roots are irrational (digit-count: "
            "a decimal root with j fractional digits needs 2000000*j == 1, impossible)\n"
        )

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (("eval", "1.5e3"), 1, "digit 'e' out of range for base 10"),
            (("period-growth", "G", "3"), 2, "digit 16 out of range for base 10"),
            (("period-growth", "!", "3"), 2, "not a digit: '!'"),
            # a coefficient admits no "(", so it never carries a period
            (("irrational-check", "x^2-0.(3)"), 1, "cannot read polynomial at: '(3)'"),
        ],
    )
    def test_letter_messages(self, capsys, argv, code, err):
        assert invoke(capsys, *argv) == (code, "", f"repetend: {err}\n")


class TestOutputContract:
    CASES = [
        ("eval", "0.(01) * 0.(01)"),
        ("eval", "1.7 + 0.(4)"),
        ("from-frac", "22/7"),
    ]

    @pytest.mark.parametrize("verb,arg", CASES)
    def test_deterministic(self, capsys, verb, arg):
        first = invoke(capsys, verb, arg)
        second = invoke(capsys, verb, arg)
        assert first == second

    @pytest.mark.parametrize("verb,arg", CASES)
    def test_output_is_canonical(self, capsys, verb, arg):
        _, out, _ = invoke(capsys, verb, arg)
        literal = out.strip()
        if verb == "from-frac" or verb == "eval":
            reparsed = notation.parse(literal, 10)
            assert notation.format_dc(reparsed) == literal


# -- a property-based gate over every verb --------------------------------

_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LITERAL = re.compile(r"(-?)([0-9A-Za-z]*)(?:\.([0-9A-Za-z]*))?(?:\(([0-9A-Za-z]+)\))?")


def _read_letters(letters: str, base: int) -> int:
    """int() of letters at any length: runs of at most 4,000, below the
    4,300 digits int() reads in a base that is not a power of two."""
    value = 0
    for i in range(0, len(letters), 4000):
        run = letters[i : i + 4000]
        value = value * base ** len(run) + int(run, base)
    return value


def _oracle_value(text: str, base: int):
    """The value of a literal ``[-]W.F(P)``, read with ``int()`` and the
    fraction oracle alone; None where it is not a literal of ``base``."""
    m = _LITERAL.fullmatch(text)
    if not m or not any(m.groups()[1:]):
        return None
    sign, whole, frac, period = m.group(1), m.group(2), m.group(3) or "", m.group(4)
    try:
        scale = base ** len(frac)
        value = Fraction(_read_letters(whole + frac, base), scale)
        if period:
            value += Fraction(_read_letters(period, base), scale * (base ** len(period) - 1))
    except ValueError:  # a letter out of range for the base
        return None
    return -value if sign else value


def test_oracle_value_reads_a_long_period():
    rng = random.Random(5000)
    period = "".join(rng.choice("0123456789") for _ in range(5000))
    expected = Fraction(_read_decimal("12" + period) - 12, 10 * (10**5000 - 1))
    assert _oracle_value(f"-1.2({period})", 10) == -expected
    assert _oracle_value(f"0.({period[:-1]}A)", 10) is None  # a letter out of range
    assert _oracle_value("0.(2)", 2) is None


def _draw_literal(draw, base: int) -> str:
    """An unsigned literal: letters of ``base`` in either case, now and then
    one letter of any base or one that is no letter at all."""
    letters = _ALPHABET[:base] + _ALPHABET[10:base].lower()
    part = st.text(st.sampled_from(letters), max_size=3)
    whole, frac = draw(part), draw(st.none() | part)
    period = draw(st.none() | part.filter(bool))
    text = whole + ("" if frac is None else "." + frac)
    text = (text or "0") + ("" if period is None else f"({period})")
    if draw(st.integers(0, 9)) == 0:
        text += draw(st.sampled_from(_ALPHABET + "!"))
    return text


def _draw_signed(draw, base: int) -> str:
    """A literal, now and then with a leading "-" that the CLI must read
    as an operand, not as an option."""
    return draw(st.sampled_from(["", "-"])) + _draw_literal(draw, base)


def _apply(op: str, x, y):
    if x is None or y is None:
        return None
    if op == "/":
        return x / y if y.numerator else None
    return {"+": x + y, "-": x - y, "*": x * y}[op]


def _draw_eval(draw, base):
    text = _draw_signed(draw, base)
    value = _oracle_value(text, base)
    for i in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from("+-*/"))
        literal = _draw_literal(draw, base)
        rhs = _oracle_value(literal, base)
        if draw(st.booleans()):
            literal, rhs = f"(-{literal})", None if rhs is None else -rhs
        # unary minus binds tighter than any operator: "-a op b" is (-a) op b
        left = text if i == 0 else f"({text})"
        text, value = f"{left} {op} {literal}", _apply(op, value, rhs)
    return [text], value


def _draw_to_frac(draw, base):
    literal = _draw_signed(draw, base)
    return [literal], _oracle_value(literal, base)


def _draw_from_frac(draw, base):
    u, v = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**4))
    sign = draw(st.sampled_from(["", "+", "-"]))
    return [f"{sign}{u}/{v}"], Fraction(-u if sign == "-" else u, v) if v else None


def _draw_compare(draw, base):
    first, second = _draw_signed(draw, base), _draw_signed(draw, base)
    x, y = _oracle_value(first, base), _oracle_value(second, base)
    return [first, second], None if x is None or y is None else oracle.compare(x, y)


def _draw_convert(draw, base):
    form, literal = draw(st.sampled_from(["wcp", "dc"])), _draw_signed(draw, base)
    return ["--to", form, literal], _oracle_value(literal, base)


def _draw_period_length(draw, base):
    return [str(draw(st.integers(0, 10**12)))], None


def _draw_product_length(draw, base):
    return [str(draw(st.integers(-1, 40))), str(draw(st.integers(1, 40)))], None


# primes and composites, within the enumeration cap and past it
_FERMAT_P = [-3, 0, 1, 2, 3, 4, 9, 15012, 15013, 1000003, 10**12 + 39, 10**12 + 40]
_LUCAS_P = [1, 2, 3, 7, 9, 13, 23, 25, 27, 29, 15013, 10**12 + 39, 10**12 + 40]


def _draw_fermat(draw, base):
    return [str(draw(st.sampled_from(_FERMAT_P)))], None


def _draw_lucas(draw, base):
    return [str(draw(st.sampled_from(_LUCAS_P)))], None


def _draw_irrational_check(draw, base):
    """A polynomial whose coefficients are integers or finite literals of
    ``base`` (x is the variable, so never a letter); mostly monic."""
    letters = _ALPHABET[:base].replace("X", "")
    coefficient = st.text(st.sampled_from(letters), min_size=1, max_size=2)
    degree = draw(st.integers(1, 12))
    text = draw(st.sampled_from(["", "", "", "2"])) + f"x^{degree}"
    for power in sorted(draw(st.sets(st.integers(0, degree), max_size=3)), reverse=True):
        c = draw(coefficient)
        if draw(st.booleans()):
            c += "." + draw(coefficient)
        text += draw(st.sampled_from("+-")) + c + (f"x^{power}" if power else "")
    return [text], None


def _draw_period_growth(draw, base):
    letters = _ALPHABET[:base] + draw(st.sampled_from(["", "Z"]))
    period = draw(st.text(st.sampled_from(letters), min_size=1, max_size=3))
    return [period, str(draw(st.integers(0, 4)))], None


_VERBS = {
    "eval": _draw_eval,
    "to-frac": _draw_to_frac,
    "from-frac": _draw_from_frac,
    "compare": _draw_compare,
    "convert": _draw_convert,
    "period-length": _draw_period_length,
    "product-length": _draw_product_length,
    "fermat": _draw_fermat,
    "lucas": _draw_lucas,
    "irrational-check": _draw_irrational_check,
    "period-growth": _draw_period_growth,
}

_ORACLE_VERBS = ("eval", "to-frac", "from-frac", "compare", "convert")

_WCP = re.compile(r"\(([+-]), ([0-9A-Z]+), \(([0-9A-Z]+)\), (-?\d+)\)")
_DC = re.compile(r"\((-?[0-9A-Z]+(?:\.[0-9A-Z]+)?), \(([0-9A-Z]+)\)\)")


def _converted_value(text: str, base: int):
    """The value of ``(+-, W, (P), point)``, (W + 0.(P)) * base**point, or of
    ``(delta, (P))``, delta + 0.(P), read with ``int()`` and the oracle alone."""
    if m := _WCP.fullmatch(text):
        sign, whole, period, point = m.groups()
        modulus, point = base ** len(period) - 1, int(point)
        num = int(whole, base) * modulus + int(period, base)
        value = Fraction(num * base ** max(point, 0), modulus * base ** max(-point, 0))
        return -value if sign == "-" else value
    if m := _DC.fullmatch(text):
        delta, period = m.groups()
        cycle = Fraction(int(period, base), base ** len(period) - 1)
        return _oracle_value(delta, base) + cycle
    return None


def _agrees_with_oracle(verb: str, out: str, base: int, expected) -> bool:
    """Whether a successful run printed the value the oracle expects."""
    text = out.removesuffix("\n")
    if verb in ("eval", "from-frac"):
        return _oracle_value(text, base) == expected
    if verb == "convert":
        return _converted_value(text, base) == expected
    if verb == "to-frac":
        u, v = map(int, text.split("/"))
        return (u, v) == (expected.numerator, expected.denominator)
    return text == "<=>"[expected + 1]  # compare


# Long periods, each found by a search and checked again by the test that
# uses it: primes whose period in the base has 1,000 to 20,000 letters,
# and pairs of period lengths l, l' whose two pure periods u/(b**l - 1),
# u'/(b**l' - 1), with u and u' coprime to both moduli, multiply to one.
_LONG_PRIMES = {
    3: (1013, 2503, 5009, 9007, 14009, 19507),
    10: (1019, 2539, 5021, 9011, 14011, 19541),
    36: (2027, 5003, 10007, 18041, 28019, 39019),
}
_LONG_FACTORS = {
    3: ((5, 5), (6, 6), (6, 12), (7, 7)),
    10: ((3, 3), (3, 6), (3, 9), (6, 9)),
    36: ((2, 2), (2, 6), (2, 12), (4, 6)),
}


def _written(n: int, base: int, width: int = 1) -> str:
    """n >= 0 in the letters of ``base``, zero-padded to ``width``."""
    text = ""
    while n or len(text) < width:
        n, d = divmod(n, base)
        text = _ALPHABET[d] + text
    return text


def _draw_long_product(draw, base, lengths=None):
    """0.(P)*0.(P') with the period lengths of _LONG_FACTORS, or the
    ``lengths`` given, sometimes shifted by a power of the base or
    negated, and its value."""
    if lengths is None:
        lengths = draw(st.sampled_from(_LONG_FACTORS[base]), label="lengths")
    moduli = [base**n - 1 for n in lengths]
    value, factors = Fraction(1), []
    for n, m in zip(lengths, moduli):
        coprime = st.integers(1, m - 1).filter(lambda u: gcd(u, moduli[0] * moduli[1]) == 1)
        u = draw(coprime, label="numerator")
        factors.append(f"0.({_written(u, base, n)})")
        value *= Fraction(u, m)
    factor, scale = draw(st.sampled_from([("", 1), ("0.1", base), ("0.01", base**2), ("-1", -1)]))
    if factor:
        factors.append(factor)
        value *= Fraction(1, scale)
    return "*".join(factors), value


def _draw_long_quotient(draw, base, prime=None):
    """U/V with V a prime of _LONG_PRIMES, or the ``prime`` given, times
    1, 2, the base or 3 * base**2 (an aperiodic part), and U no multiple
    of the prime."""
    if prime is None:
        prime = draw(st.sampled_from(_LONG_PRIMES[base]), label="prime")
    v = prime * draw(st.sampled_from([1, 2, base, 3 * base**2]), label="cofactor")
    u = draw(st.integers(-20 * v, 20 * v).filter(lambda u: u % prime), label="u")
    sign = "-" if u < 0 else ""
    return f"{sign}{_written(abs(u), base)}/{_written(v, base)}", Fraction(u, v)


class TestPropertyGate:
    """Every verb, in every base, with a small --max-period: the CLI
    prints an answer or exits 1, 2 or 3 with one line on stderr, and
    what ``eval``, ``to-frac``, ``from-frac``, ``compare`` and ``convert``
    print is what the fraction oracle computes.  Now and then an operand
    is missing or ``--base`` is no integer: that is a usage error."""

    @settings(max_examples=300)
    @given(st.data())
    def test_every_verb(self, data):
        base = data.draw(st.integers(2, 36), label="base")
        cap = data.draw(st.integers(1, 300), label="max_period")
        # eval, the one verb that combines values, three times as often
        verb = data.draw(st.sampled_from(sorted(_VERBS) + ["eval"] * 2), label="verb")
        operands, expected = _VERBS[verb](data.draw, base)
        fault = data.draw(st.sampled_from([None] * 8 + ["operand", "base"]), label="fault")
        if fault == "operand":
            operands = operands[:-1]
        written_base = str(base)
        if fault == "base":
            written_base = data.draw(st.sampled_from(["x", "1.5", ""]), label="bad_base")
        argv = [verb, "--base", written_base, "--max-period", str(cap), *operands]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in ((1,) if fault else (0, 1, 2, 3)), argv
        if code == 0:
            assert err == "" and out.endswith("\n"), argv
            if verb in _ORACLE_VERBS:
                assert expected is not None, argv
                assert _agrees_with_oracle(verb, out, base, expected), (argv, out)
        else:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
            assert "Traceback" not in err and "Exceeds the limit" not in err, argv

    @settings(max_examples=30)
    @given(st.data())
    def test_long_periods(self, data):
        """Products and quotients whose periods have 1,000 to 20,000
        letters, in bases 3, 10 and 36 (written by long division of their
        fraction), print the letters that long division one letter at a
        time writes: the fractional letters and the period, twice over."""
        base = data.draw(st.sampled_from([3, 10, 36]), label="base")
        product = data.draw(st.booleans(), label="product")
        text, expected = (_draw_long_product if product else _draw_long_quotient)(data.draw, base)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["eval", "--base", str(base), text])
        assert (code, err.getvalue()) == (0, ""), text
        period = _assert_expansion(out.getvalue(), base, expected, text)
        assert 1000 <= len(period) <= 20000, (text, len(period))

    @settings(max_examples=30)
    @given(st.data())
    def test_long_sums_and_multiples(self, data):
        """A long period written from its fraction (a product or a
        quotient, of 1,000 to 20,000 letters) plus or minus a second one
        over the same denominator or a short literal, or times a finite
        decimal, in bases 3, 10 and 36: the printed letters are the
        oracle's, and read back to the value."""
        base = data.draw(st.sampled_from([3, 10, 36]), label="base")
        if data.draw(st.booleans(), label="product"):
            lengths = data.draw(st.sampled_from(_LONG_FACTORS[base]), label="lengths")
            draw_long = lambda: _draw_long_product(data.draw, base, lengths)
        else:
            prime = data.draw(st.sampled_from(_LONG_PRIMES[base]), label="prime")
            draw_long = lambda: _draw_long_quotient(data.draw, base, prime)
        text, value = draw_long()
        text = f"({text})"
        shape = data.draw(st.sampled_from(["long", "short", "scalar"]), label="shape")
        if shape == "scalar":
            k = data.draw(st.integers(-base**3, base**3).filter(bool), label="k")
            point = data.draw(st.integers(0, 3), label="point")
            letters = _written(abs(k), base, point + 1)
            if point:
                letters = f"{letters[:-point]}.{letters[-point:]}"
            other = "-" * (k < 0) + letters
            other_value, op = Fraction(k, base**point), "*"
        else:
            if shape == "long":
                other, other_value = draw_long()
                other = f"({other})"
            else:
                n = data.draw(st.integers(1, 3), label="period_letters")
                whole, period = (data.draw(st.integers(0, base**n - 1)) for _ in range(2))
                other = f"{_written(whole, base)}.({_written(period, base, n)})"
                other_value = Fraction(whole) + Fraction(period, base**n - 1)
            op = data.draw(st.sampled_from("+-"), label="op")
        if data.draw(st.booleans(), label="swap"):
            text, value, other, other_value = other, other_value, text, value
        expression, expected = f"{text}{op}{other}", _apply(op, value, other_value)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["eval", "--base", str(base), "--", expression])
        assert (code, err.getvalue()) == (0, ""), expression
        _assert_expansion(out.getvalue(), base, expected, expression)
        assert _oracle_value(out.getvalue().removesuffix("\n"), base) == expected, expression


def _assert_expansion(out: str, base: int, expected, text: str) -> str:
    """Check a printed literal against the oracle: its sign and whole part,
    and its fractional letters and period, twice over, against the letters
    long division one letter at a time writes.  Returns the period."""
    sign, whole, frac, period = _LITERAL.fullmatch(out.removesuffix("\n")).groups()
    magnitude = abs(expected)
    whole_part, rest = divmod(magnitude.numerator, magnitude.denominator)
    assert (sign, int(whole, base)) == ("-" if expected < Fraction(0) else "", whole_part)
    letters = (frac or "") + (period or "") * 2
    digits = oracle.expansion_digits(rest, magnitude.denominator, base, len(letters))
    assert letters == "".join(_ALPHABET[d] for d in digits), text
    return period or ""
