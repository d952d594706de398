import pytest

from repetend import config, notation, words
from repetend.cli import run
from repetend.oracle import Fraction


def _read_decimal(text: str) -> int:
    """Digit by digit: int() refuses strings past 4300 digits."""
    value = 0
    for ch in text:
        value = value * 10 + "0123456789".index(ch)
    return value


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
        assert invoke(capsys, "irrational-check", "2x^2-1")[0] == 2

    def test_period_growth(self, capsys):
        code, out, _ = invoke(capsys, "period-growth", "--base", "7", "15", "2")
        assert (code, out) == (0, "2 2\n")

    def test_irrational_check_high_degree(self, capsys):
        # one derivative per degree: past the interpreter's recursion limit
        code, out, err = invoke(capsys, "irrational-check", "x^1100+x+1")
        verdict = "no integer roots; all real roots are irrational\n"
        assert (code, out, err) == (0, verdict, "")

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (("eval", "1.5e3"), 1, "digit 'e' out of range for base 10"),
            (("period-growth", "G", "3"), 2, "digit 16 out of range for base 10"),
            (("period-growth", "!", "3"), 2, "not a digit: '!'"),
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
