import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import cw
from repetend import config, words
from repetend.errors import CapacityError
from repetend.words import (
    CircularWord,
    count_cyclic_binary_avoiding_11,
    digit_count,
    digits_to_int,
    fermat_orbit_count,
    int_to_digits,
    lucas_orbit_count,
    period_digits,
    power_less_one,
)


class TestValuation:
    """A finite word is a tuple of letters, read by digits_to_int."""

    def test_base_ten_reading(self):
        assert digits_to_int((8, 7, 3), 10) == 873

    def test_empty_word_is_zero(self):
        assert digits_to_int((), 10) == 0

    def test_base_seven(self):
        assert digits_to_int((1, 5), 7) == 12

    def test_bijective_without_leading_zeros(self):
        seen = {}
        for length in range(1, 4):
            for n in range(5 ** (length - 1), 5**length):
                word = int_to_digits(n, 5, length)
                assert word[0] != 0
                value = digits_to_int(word, 5)
                assert value not in seen
                seen[value] = word
        assert set(seen) == set(range(1, 125))

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            CircularWord((7,), 5)
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
        # the word w**n is n copies of w's letters
        assert cw("9").repeat(3) == cw("999")
        assert cw("01").repeat(2) == cw("0101")

    def test_circular_repeat(self):
        assert cw("56").repeat(3) == cw("565656")

    def test_repeat_needs_positive_count(self):
        with pytest.raises(ValueError):
            cw("1").repeat(0)

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

    @pytest.mark.parametrize("base", range(2, 37))
    def test_digit_count(self, base):
        for n in (1, base - 1, base, base + 1, base**50 - 1, base**50, 7**300):
            padded = _reference_digits(n, base, 1000)
            assert digit_count(n, base) == len(bytes(padded).lstrip(b"\0"))


def _writer_lengths(base):
    """Lengths on both sides of the unit period_digits works in: in base
    ten libmpdec's word of 19 digits, and two long divisions; else the
    most letters whose block stays below 2**64, made even to split in
    pairs."""
    if base == 10:
        return (1, 18, 19, 20, 38, 39, 40, 1_000, 4_001, 12_007)
    k = max(k for k in range(0, 65, 2) if base**k < 2**64)
    return (k - 1, k, k + 1, 2 * k)


class TestPeriodWriter:
    @pytest.mark.parametrize("base", [b for b in range(2, 37) if b & (b - 1)])
    def test_matches_the_kernel(self, base):
        rng = random.Random(base)
        for ell in _writer_lengths(base):
            m = base**ell - 1
            # seeded u/v with v | m, where u * (m // v) spells u/v; for
            # u == 1 any v coprime to the base does
            divisors = [v for v in range(2, 5000) if m % v == 0]
            coprime = [v for v in rng.sample(range(2, 5000), 200) if math.gcd(v, base) == 1]
            cases = {(0, 1), (0, 7), (1, 1)} | {(1, v) for v in coprime}
            cases |= {(rng.randrange(v + 1), v) for v in divisors}
            for u, v in cases:
                assert period_digits(u, v, base, ell) == int_to_digits(u * (m // v), base, ell)

    @pytest.mark.parametrize("base", range(2, 37))
    def test_power_less_one(self, base):
        for n in [*range(71), 100_003]:
            assert power_less_one(base, n) == base**n - 1


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
        lucas = _lucas_numbers(26)
        for ell in range(1, 27):
            assert count_cyclic_binary_avoiding_11(ell) == lucas[ell]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_residue_one_mod_p(self, p):
        assert lucas_orbit_count(p) % p == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            lucas_orbit_count(9)


def reference_fermat_orbit_count(b: int, p: int) -> tuple[int, int]:
    """The orbit count as it was, kept as a reference: every one of the
    b**p words visited, rotated until it returns, and marked in a map."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if not words.is_prime(p):
        raise ValueError(f"orbit decomposition needs a prime length, got {p}")
    total = b**p
    if total > config.ENUMERATION_CAP:
        raise CapacityError(
            f"{b}**{p} = {total} words exceed enumeration cap {config.ENUMERATION_CAP}"
        )
    bp1 = b ** (p - 1)
    visited = bytearray(total)
    orbit_count = 0
    constant_count = 0
    for x in range(total):
        if visited[x]:
            continue
        size = 0
        y = x
        while True:
            visited[y] = 1
            size += 1
            q, r = divmod(y, b)
            y = r * bp1 + q  # left rotation of the digit word
            if y == x:
                break
        if size == 1:
            constant_count += 1
        else:
            # p prime: a nonconstant word is fixed by no nontrivial rotation.
            if size != p:
                raise RuntimeError(f"orbit of size {size} under rotation by {p}")
            orbit_count += 1
    if total != orbit_count * p + constant_count:
        raise RuntimeError(f"{b}**{p} != {orbit_count}*{p} + {constant_count}")
    return orbit_count, constant_count


def reference_count_cyclic_binary_avoiding_11(length: int) -> int:
    """The count as it was, kept as a reference: all 2**length bit
    patterns tested against their rotation by one."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if 2**length > config.ENUMERATION_CAP:
        raise CapacityError(f"2**{length} words exceed enumeration cap")
    count = 0
    top = length - 1
    for m in range(2**length):
        wrapped = (m >> 1) | ((m & 1) << top)
        if m & wrapped == 0:
            count += 1
    return count


def _orbit_sizes(n, k, allowed):
    """Entry d: the number of rotation orbits of size d among the allowed
    words of length n over k letters, found by building every word."""
    sizes, seen = [0] * (n + 1), set()
    for word in itertools.product(range(k), repeat=n):
        if word not in seen and allowed(word):
            orbit = {word[i:] + word[:i] for i in range(n)}
            seen |= orbit
            sizes[len(orbit)] += 1
    return sizes


class TestNecklaceEnumeration:
    """The orbit counts enumerate one necklace per orbit; the references
    visit every word."""

    def test_fermat_matches_the_reference(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19)
        cases = [(b, p) for b in range(2, 37) for p in primes if b**p <= 10**6]
        assert len(cases) == 95
        for b, p in cases:
            assert fermat_orbit_count(b, p) == reference_fermat_orbit_count(b, p), (b, p)

    def test_binary_count_matches_the_reference(self):
        for length in range(1, 21):
            expected = reference_count_cyclic_binary_avoiding_11(length)
            assert count_cyclic_binary_avoiding_11(length) == expected, length

    def test_orbit_sizes_match_an_enumeration(self):
        """Composite lengths too, where orbits of every divisor size occur."""
        for k in range(2, 6):
            for n in range(1, 13):
                if k**n <= 5000:
                    assert words._necklaces(n, k) == _orbit_sizes(n, k, lambda w: True), (n, k)
        no_11 = lambda w: not any(w[i - 1] == w[i] == 1 for i in range(len(w)))
        for n in range(1, 13):
            assert words._necklaces(n, 2, True) == _orbit_sizes(n, 2, no_11), n

    @pytest.mark.parametrize(
        "counts,message",
        [
            ([0, 2, 1, 0, 0, 6], "orbit of size 2 under rotation by 5"),
            ([0, 2, 0, 0, 0, 5], "2**5 != 5*5 + 2"),
        ],
    )
    def test_counts_are_checked(self, monkeypatch, counts, message):
        monkeypatch.setattr(words, "_necklaces", lambda n, k, avoid_11=False: counts)
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            fermat_orbit_count(2, 5)

    def test_memory_stays_below_the_words_map(self):
        b, p = 3, 13  # the reference's map is b**p = 1,594,323 bytes
        tracemalloc.start()
        try:
            assert fermat_orbit_count(b, p) == (122640, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 < b**p // 20
