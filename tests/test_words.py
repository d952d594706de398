import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import cw, fw
from repetend import words
from repetend.errors import CapacityError
from repetend.words import (
    CircularWord,
    FiniteWord,
    count_cyclic_binary_avoiding_11,
    digit_count,
    digits_to_int,
    fermat_orbit_count,
    int_to_digits,
    lucas_orbit_count,
)


class TestValuation:
    def test_base_ten_reading(self):
        assert fw("873").valuation == 873

    def test_empty_word_is_zero(self):
        assert FiniteWord((), 10).valuation == 0

    def test_base_seven(self):
        assert fw("15", base=7).valuation == 12

    def test_bijective_without_leading_zeros(self):
        seen = {}
        for length in range(1, 4):
            for n in range(5 ** (length - 1), 5**length):
                word = FiniteWord(int_to_digits(n, 5, length), 5)
                assert word.digits[0] != 0
                assert word.valuation not in seen
                seen[word.valuation] = word
        assert set(seen) == set(range(1, 125))

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            FiniteWord((7,), 5)
        with pytest.raises(ValueError):
            CircularWord((), 10)


class TestShift:
    def test_single_step(self):
        assert cw("56").shift(1) == cw("65")

    def test_constant_fixed_point(self):
        assert cw("444").shift(2) == cw("444")

    def test_full_rotation_identity(self):
        assert cw("053872").shift(6) == cw("053872")

    def test_negative_shift_inverts(self):
        word = cw("1402")
        assert word.shift(1).shift(-1) == word
        assert word.shift(-1) == word.shift(3)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    def test_shift_is_multiplication_by_base(self, digits):
        word = CircularWord(tuple(digits), 10)
        modulus = 10 ** len(digits) - 1
        if word.valuation < modulus:
            assert word.shift(1).valuation % modulus == (10 * word.valuation) % modulus


class TestPrimitivePeriod:
    def test_repeated_pair(self):
        assert cw("565656").primitive_period() == cw("56")

    def test_constant(self):
        assert cw("444").primitive_period() == cw("4")

    def test_already_primitive(self):
        assert cw("567").primitive_period() == cw("567")

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6), st.integers(1, 4))
    def test_period_of_power_is_period(self, digits, n):
        word = CircularWord(tuple(digits), 10)
        assert word.repeat(n).primitive_period() == word.primitive_period()


class TestRepeat:
    def test_finite_repeat(self):
        assert fw("9").repeat(3) == fw("999")
        assert fw("01").repeat(2) == fw("0101")

    def test_circular_repeat(self):
        assert cw("56").repeat(3) == cw("565656")

    def test_repeat_needs_positive_count(self):
        with pytest.raises(ValueError):
            fw("1").repeat(0)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6), st.integers(1, 4))
    def test_valuation_of_repetition(self, digits, n):
        word = CircularWord(tuple(digits), 10)
        if len(digits) * n <= 24:
            ell = len(digits)
            expected = word.valuation * (10 ** (n * ell) - 1) // (10**ell - 1)
            assert word.repeat(n).valuation == expected


class TestDigitsConversion:
    @given(st.integers(0, 10**30), st.integers(2, 36))
    def test_round_trip(self, n, base):
        length = 1
        probe = n
        while probe >= base:
            probe //= base
            length += 1
        digits = int_to_digits(n, base, length + 3)
        assert digits_to_int(digits, base) == n

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            int_to_digits(100, 10, 2)


def _reference_digits(n, base, length):
    """Schoolbook conversion: peel machine-word chunks off the low end,
    then the digits of each chunk one divmod at a time."""
    per_chunk = max(1, int(60 / math.log2(base)))
    out = []
    while len(out) < length:
        n, chunk = divmod(n, base**per_chunk)
        for _ in range(per_chunk):
            chunk, d = divmod(chunk, base)
            out.append(d)
    assert n == 0 and not any(out[length:])
    return tuple(reversed(out[:length]))


def _reference_value(digits, base):
    """Horner's rule, one digit at a time."""
    acc = 0
    for d in digits:
        acc = acc * base + d
    return acc


def _threshold_lengths(base):
    """Word lengths on both sides of every size at which the conversion
    routes change."""
    bits_per_digit = math.log2(base)
    sizes = {
        words._SMALL,
        words._LEAF_DIGITS,
        math.ceil(words._STR_BITS / bits_per_digit),
        math.ceil(words._DECIMAL_LEAF_BITS / bits_per_digit),
        math.ceil(2 * words._DIV_LIMIT / bits_per_digit),
    }
    return sorted({0, 1} | {s + d for s in sizes for d in (-1, 0, 1)})


class TestConversionKernel:
    @pytest.mark.parametrize("base", range(2, 37))
    def test_round_trip_against_reference(self, base):
        rng = random.Random(base)
        for length in _threshold_lengths(base):
            top = base**length
            values = {0, top - 1, rng.randrange(top), top // base}
            for n in values:
                digits = int_to_digits(n, base, length)
                assert digits == _reference_digits(n, base, length)
                assert digits_to_int(digits, base) == n
                assert _reference_value(digits, base) == n
            with pytest.raises(ValueError):
                int_to_digits(top, base, length)

    @pytest.mark.parametrize("base", [10, 16, 36])
    def test_long_word_per_route(self, base):
        length = 100_000
        n = random.Random(length).randrange(base**length)
        digits = int_to_digits(n, base, length)
        assert digits == _reference_digits(n, base, length)
        assert digits_to_int(digits, base) == n
        assert int_to_digits(base**length - 1, base, length) == (base - 1,) * length
        with pytest.raises(ValueError):
            int_to_digits(base**length, base, length)

    def test_recursive_division_against_divmod(self):
        rng = random.Random(7)
        for bits in (3 * words._DIV_LIMIT, 5 * words._DIV_LIMIT + 1):
            b = rng.getrandbits(bits) | 1 << (bits - 1)
            top = b << bits  # the dividend must stay below b * 2**bits
            for a in (0, b - 1, b, top - 1, top - b, rng.randrange(top)):
                assert words._div2n1n(a, b, bits) == divmod(a, b)

    def test_base_ten_route_ignores_caller_context(self):
        import decimal

        n = 7 ** (2 * words._STR_BITS)
        length = digit_count(n, 10)
        with decimal.localcontext() as caller:
            caller.prec = 5
            digits = int_to_digits(n, 10, length)
            assert decimal.getcontext().prec == 5
        assert digits == _reference_digits(n, 10, length)

    @pytest.mark.parametrize("base", [64, 100, 256, 512])
    def test_bases_past_the_alphabet(self, base):
        n = random.Random(base).randrange(base**300)
        digits = int_to_digits(n, base, 300)
        assert digits == _reference_digits(n, base, 300)
        assert digits_to_int(digits, base) == _reference_value(digits, base) == n

    @pytest.mark.parametrize("base", range(2, 37))
    def test_digit_count(self, base):
        for n in (1, base - 1, base, base + 1, base**50 - 1, base**50, 7**300):
            padded = _reference_digits(n, base, 1000)
            assert digit_count(n, base) == len(bytes(padded).lstrip(b"\0"))


class TestValuationCarry:
    @pytest.mark.parametrize(
        "base,length", [(10, 5), (10, 40), (36, 700), (2, 33), (7, 2500)]
    )
    def test_from_int_keeps_its_value(self, base, length):
        n = random.Random(length).randrange(base**length)
        word = CircularWord.from_int(n, base, length)
        assert word.__dict__["valuation"] == n
        assert CircularWord(word.digits, base).valuation == n

    @pytest.mark.parametrize(
        "base,length,target",
        [(10, 5, 40), (10, 1, 97), (36, 3, 300), (2, 40, 4000), (7, 37, 37), (10, 4, 12)],
    )
    def test_lift_carries_the_value(self, base, length, target):
        for n in (0, 1, base**length - 1, random.Random(target).randrange(base**length)):
            lifted = CircularWord.from_int(n, base, length).lift(target)
            assert "valuation" in lifted.__dict__
            assert lifted.valuation == CircularWord(lifted.digits, base).valuation

    def test_lift_of_unread_word_stays_lazy(self):
        lifted = cw("142857").lift(60)
        assert "valuation" not in lifted.__dict__
        assert lifted.valuation == 142857 * (10**60 - 1) // (10**6 - 1)


class TestModulus:
    def test_value(self):
        assert cw("142857").modulus == 10**6 - 1
        assert cw("1", 2).modulus == 1

    def test_carried_by_lift_shift_and_with_value(self):
        word = CircularWord.from_int(142857, 10, 6)
        assert word.modulus == 10**6 - 1
        for other in (word.lift(18), word.shift(2), word.with_value(3)):
            assert "modulus" in other.__dict__
            assert other.modulus == 10 ** len(other) - 1

    def test_with_value(self):
        word = cw("142857")
        assert word.with_value(142857) is word
        other = word.with_value(3)
        assert other.digits == (0, 0, 0, 0, 0, 3)
        assert other.valuation == 3

    @pytest.mark.parametrize("base,length", [(10, 6), (2, 40), (36, 70), (7, 65)])
    def test_shift_carries_the_value(self, base, length):
        rng = random.Random(length)
        for n in (0, base**length - 1, rng.randrange(base**length)):
            word = CircularWord.from_int(n, base, length)
            word.modulus  # noqa: B018 -- cache it, as repeating_word does
            for k in range(-length - 1, length + 2):
                shifted = word.shift(k)
                assert shifted.valuation == CircularWord(shifted.digits, base).valuation

    def test_str(self):
        assert str(cw("09AZ", 36)) == "09AZ"


_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _reference_letters(text, base):
    """The letter-by-letter reader the codec replaced: each character
    looked up, then checked against the base, in order."""
    out = []
    for ch in text:
        d = _ALPHABET.find(ch.upper())
        if d < 0:
            raise ValueError(f"not a digit: {ch!r}")
        if d >= base:
            raise ValueError(f"digit {ch!r} out of range for base {base}")
        out.append(d)
    return tuple(out)


def _outcome(read, text, base):
    try:
        return read(text, base)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


class TestAlphabetCodec:
    CHARS = _ALPHABET + _ALPHABET.lower()[10:] + "! \u00df"

    def test_every_character_in_every_base(self):
        for base in range(2, 37):
            for ch in self.CHARS:
                expected = _outcome(_reference_letters, ch, base)
                assert _outcome(words._letters, ch, base) == expected, (ch, base)

    def test_the_first_bad_character_is_named(self):
        rng = random.Random(53)
        for _ in range(3000):
            base = rng.randint(2, 36)
            text = "".join(rng.choice(self.CHARS) for _ in range(rng.randint(0, 8)))
            expected = _outcome(_reference_letters, text, base)
            assert _outcome(words._letters, text, base) == expected, (text, base)

    def test_spell_writes_upper_case(self):
        digits = tuple(range(36)) * 3
        assert words._spell(digits) == _ALPHABET * 3
        assert words._letters(words._spell(digits), 36) == digits

    @pytest.mark.parametrize("base", range(2, 37))
    def test_complement(self, base):
        rng = random.Random(base)
        for length in (1, 2, 7, 40):
            digits = tuple(rng.randrange(base) for _ in range(length))
            expected = tuple(base - 1 - d for d in digits)
            plain = CircularWord(digits, base)
            valued = CircularWord.from_int(digits_to_int(digits, base), base, length)
            valued.modulus  # noqa: B018 -- cache it, so the value is carried
            for word in (plain, valued):
                flipped = word.complement()
                assert flipped.digits == expected
                assert flipped.valuation == digits_to_int(expected, base)
            assert "valuation" in valued.complement().__dict__


class TestInvariantChecks:
    def test_orbit_check_survives_optimize_flag(self):
        """Under -O a broken count must still raise, not return."""
        script = (
            "import sys\n"
            "from repetend import words\n"
            "words.count_cyclic_binary_avoiding_11 = lambda length: 2\n"
            "try:\n"
            "    words.lucas_orbit_count(5)\n"
            "except RuntimeError:\n"
            "    sys.exit(0 if sys.flags.optimize else 3)\n"
            "sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(words.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
        assert done.returncode == 0


def _orbits_by_enumeration(b, p):
    """Independent oracle: build every word, group by rotation sets."""
    orbits = set()
    constants = 0
    for n in range(b**p):
        digits = tuple(int_to_digits(n, b, p))
        rotations = frozenset(digits[k:] + digits[:k] for k in range(p))
        if len(rotations) == 1:
            constants += 1
        orbits.add(rotations)
    full = sum(1 for o in orbits if len(o) == p)
    return full, constants


class TestFermatOrbits:
    @pytest.mark.parametrize(
        "b,p,expected",
        [(2, 3, (2, 2)), (10, 2, (45, 10)), (3, 2, (3, 3))],
    )
    def test_known_decompositions(self, b, p, expected):
        assert fermat_orbit_count(b, p) == expected
        assert _orbits_by_enumeration(b, p) == expected

    @pytest.mark.parametrize("b,p", [(2, 5), (3, 3), (4, 3), (5, 2), (7, 3)])
    def test_matches_enumeration_oracle(self, b, p):
        assert fermat_orbit_count(b, p) == _orbits_by_enumeration(b, p)

    @pytest.mark.parametrize("b,p", [(2, 7), (6, 5), (9, 3)])
    def test_orbit_identity(self, b, p):
        k, c = fermat_orbit_count(b, p)
        assert b**p == k * p + c
        assert c == b

    def test_rejects_composite_length(self):
        with pytest.raises(ValueError):
            fermat_orbit_count(10, 4)

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            fermat_orbit_count(10, 11)


def _lucas_numbers(up_to):
    values = {1: 1, 2: 3}
    for n in range(3, up_to + 1):
        values[n] = values[n - 1] + values[n - 2]
    return values


class TestLucasVariant:
    def test_small_counts(self):
        assert lucas_orbit_count(2) == 3  # 00, 01, 10
        assert lucas_orbit_count(3) == 4
        assert lucas_orbit_count(7) == 29

    def test_recurrence_any_length(self):
        lucas = _lucas_numbers(20)
        for ell in range(1, 21):
            assert count_cyclic_binary_avoiding_11(ell) == lucas[ell]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_residue_one_mod_p(self, p):
        assert lucas_orbit_count(p) % p == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            lucas_orbit_count(9)
