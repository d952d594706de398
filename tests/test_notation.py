import random

import pytest

from repetend import notation
from repetend.oracle import Fraction
from repetend.rational import from_fraction, wcp_from_dc


class TestParse:
    @pytest.mark.parametrize(
        "text,num,den",
        [
            ("24.837(56)", 2458919, 99000),
            ("0.(9)", 1, 1),
            ("-0.00(6)", -1, 150),
            ("370", 370, 1),
            ("0.(3)", 1, 3),
            ("1.5", 3, 2),
            (".5", 1, 2),
            ("12(3)", 37, 3),  # period right after the integer part
            ("+2", 2, 1),
        ],
    )
    def test_values(self, text, num, den):
        assert notation.parse(text).to_fraction() == Fraction(num, den)

    def test_non_canonical_input_accepted(self):
        assert notation.parse("0.(5656)") == notation.parse("0.(56)")
        assert notation.parse("007.50") == notation.parse("7.5")
        assert notation.parse("0.4(9)") == notation.parse("0.5")

    def test_other_bases(self):
        assert notation.parse("0.(1)", base=2).to_fraction() == Fraction(1)
        assert notation.parse("0.(01)", base=2).to_fraction() == Fraction(1, 3)
        assert notation.parse("A.B", base=16).to_fraction() == Fraction(171, 16)
        assert notation.parse("0.(Z)", base=36).to_fraction() == Fraction(1)

    @pytest.mark.parametrize("bad", ["", ".", "abc", "1.2.3", "(", "1(2", "0.(  )"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            notation.parse(bad)

    def test_rejects_digits_beyond_base(self):
        with pytest.raises(ValueError):
            notation.parse("12", base=2)


class TestFormat:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("24.837(56)", "24.837(56)"),
            ("0.(9)", "1"),
            ("19.(9)", "20"),
            ("399.(9)", "400"),
            ("0.(5656)", "0.(56)"),
            ("-00.3000", "-0.3"),
            ("3733.(3)", "3733.(3)"),
            ("0.(30)", "0.(30)"),
            ("0", "0"),
            ("-0", "0"),
            ("0.0041(6)", "0.0041(6)"),
        ],
    )
    def test_canonical_spelling(self, text, canonical):
        assert notation.format_dc(notation.parse(text)) == canonical

    def test_format_parses_back(self):
        rng = random.Random(31)
        for _ in range(200):
            base = rng.choice([2, 7, 10, 36])
            u, v = rng.randint(-500, 500), rng.randint(1, 500)
            value = from_fraction(u, v, base)
            text = notation.format_dc(value)
            assert notation.parse(text, base) == value
            assert notation.format_dc(notation.parse(text, base)) == text

    def test_wcp_formatting_agrees(self):
        rng = random.Random(37)
        for _ in range(100):
            u, v = rng.randint(-500, 500), rng.randint(1, 500)
            value = from_fraction(u, v, 10)
            assert notation.format_wcp(wcp_from_dc(value)) == notation.format_dc(value)


def test_long_base_36_literal_round_trips():
    rng = random.Random(61)
    alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    letters = lambda n: "".join(rng.choice(alphabet) for _ in range(n))
    whole = rng.choice(alphabet[1:]) + letters(39_999)
    period = letters(999).replace("1", "2") + "1"  # primitive: a single 1
    frac = letters(58_999) + "3"  # unlike the period's last letter: no unshift
    text = f"{whole}.{frac}({period})"
    assert notation.format_dc(notation.parse(text, 36)) == text
