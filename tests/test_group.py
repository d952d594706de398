import random
from contextlib import redirect_stdout
from io import StringIO
from math import gcd, lcm

import pytest

from conftest import cw, reference_circular_carry_add, star
from repetend import cli, config, group, numtheory, rational, words
from repetend.errors import CapacityError
from repetend.group import StarElement, repeating_word
from repetend.numtheory import multiplicative_order
from repetend.oracle import Fraction
from repetend.words import CircularWord


# The words of length n under carry-wrapping addition, with the all-(b-1)
# word identified to the all-zero word, are the integers mod b**n - 1.
def collapsed(word):
    return word.complement() if set(word.digits) == {word.base - 1} else word


def add(x, y):
    """The group law: the lifted sum every DC sum takes, all-(b-1) as zero."""
    return collapsed(words._lifted_sum((x, y), "lifted sum")[1])


def neg(x):
    return collapsed(x.complement())


def g(text, base=10):
    return collapsed(cw(text, base))


class TestGroupAddition:
    def test_carry_wraps_around(self):
        assert add(g("754"), g("523")) == g("278")  # 1277 = 999 + 278

    def test_neutral_element(self):
        x = g("614")
        assert add(x, g("000")) == x

    def test_complement_pair_collapses(self):
        assert add(g("54"), g("45")) == g("00")

    def test_all_beta_stored_as_zero(self):
        # the lifted sum keeps an all-(b-1) total as it is
        assert words._lifted_sum((cw("99"), cw("00")), "lifted sum") == (0, cw("99"))
        for x in (cw("00"), cw("07"), cw("99")):
            assert add(cw("99"), x) == add(cw("00"), x) == collapsed(x)


class TestDigitwiseCrossCheck:
    @pytest.mark.parametrize("base,length", [(2, 4), (3, 3), (10, 2)])
    def test_agrees_with_modular_route_exhaustively(self, base, length):
        modulus = base**length - 1
        for n1 in range(modulus):
            x = CircularWord.from_int(n1, base, length)
            for n2 in range(modulus):
                y = CircularWord.from_int(n2, base, length)
                digitwise = collapsed(reference_circular_carry_add(x, y))
                assert digitwise == add(x, y)

    def test_boundary_sum_yields_all_beta_word(self):
        raw = reference_circular_carry_add(cw("54"), cw("45"))
        assert raw == cw("99")  # no carry leaves the word

    def test_overshoot_wraps(self):
        assert reference_circular_carry_add(cw("754"), cw("523")) == cw("278")


class TestGroupAxioms:
    def test_abelian_group_exhaustive(self):
        base, length = 2, 4  # 15 elements
        modulus = base**length - 1
        elements = [CircularWord.from_int(n, base, length) for n in range(modulus)]
        zero = elements[0]
        for x in elements:
            assert add(x, zero) == x
            assert add(x, neg(x)) == zero
            for y in elements:
                assert add(x, y) == add(y, x)
                for z in elements:
                    assert add(add(x, y), z) == add(x, add(y, z))

    def test_valuation_is_isomorphism(self):
        rng = random.Random(7)
        for _ in range(200):
            length = rng.randint(1, 9)
            base = rng.choice([2, 3, 7, 10])
            modulus = base**length - 1
            n1, n2 = rng.randrange(modulus), rng.randrange(modulus)
            total = add(
                CircularWord.from_int(n1, base, length), CircularWord.from_int(n2, base, length)
            )
            assert total.valuation == (n1 + n2) % modulus

    def test_shift_is_multiplication_by_base(self):
        x = g("1402")
        modulus = 10**4 - 1
        assert x.shift(1).valuation == 10 * x.valuation % modulus


class TestNegation:
    def test_digit_complement(self):
        assert neg(g("627")) == g("372")

    def test_zero(self):
        assert neg(g("00")) == g("00")

    def test_base_seven(self):
        assert neg(g("15", base=7)) == g("51", base=7)


def star_sum(x: StarElement, y: StarElement) -> StarElement:
    """Words of different lengths add on their lift to the lcm; the sum's
    primitive period is the result."""
    return StarElement.of(add(x.representative, y.representative))


class TestStarAddition:
    def test_lifted_sum(self):
        assert star_sum(star("54"), star("627")) == star("173082")

    def test_neutral(self):
        assert star_sum(star("3"), star("0")) == star("3")

    def test_complement_to_zero(self):
        assert star_sum(star("3"), star("6")) == star("0")

    def test_result_is_primitive(self):
        total = star_sum(star("12"), star("21"))  # 12 + 21 = 33 -> 3~
        assert total == star("3")

    def test_capacity(self):
        config.period_cap = 10
        with pytest.raises(CapacityError, match="^lifted sum of 56 digits exceeds cap of 10$"):
            star_sum(star("1234567"), star("12345678"))


def _star_reference_sum(x: StarElement, y: StarElement) -> StarElement:
    """Both representatives written out to their common length and added
    letter by letter with the wrapping carry; an all-(base-1) total is 0."""
    a, b = x.representative, y.representative
    length = lcm(len(a), len(b))
    total = reference_circular_carry_add(
        CircularWord(a.digits * (length // len(a)), a.base),
        CircularWord(b.digits * (length // len(b)), b.base),
    )
    if set(total.digits) == {total.base - 1}:
        total = CircularWord((0,), total.base)
    return StarElement.of(total)


def _random_letters(rng, base):
    kind, ell = rng.random(), rng.randint(1, 5)
    if kind < 0.15:
        return (base - 1,) * ell
    if kind < 0.25:
        return (0,) * ell
    return tuple(rng.randrange(base) for _ in range(ell))


class TestSumsThroughTheLiftedSum:
    """words._lifted_sum, which every DC sum takes, is the group law on
    words of one length and the star sum on words of any lengths: checked
    against the letter-by-letter carry, totals of b**ell - 1 included, and
    negation against the complement of every letter."""

    def test_star_sum_and_negation(self):
        rng = random.Random(109)
        for _ in range(1500):
            base = rng.choice([2, 3, 7, 10, 36])
            x = StarElement.of(CircularWord(_random_letters(rng, base), base))
            y = StarElement.of(CircularWord(_random_letters(rng, base), base))
            assert star_sum(x, y) == _star_reference_sum(x, y)
            letters = tuple(base - 1 - d for d in x.representative.digits)
            if set(letters) == {base - 1}:
                letters = (0,)
            negated = StarElement.of(neg(x.representative))
            assert negated == StarElement.of(CircularWord(letters, base))
            zero = StarElement.of(CircularWord((0,), base))
            assert star_sum(x, negated) == zero  # a total of b**ell - 1

    def test_group_sum(self):
        rng = random.Random(110)
        for _ in range(1500):
            base, ell = rng.choice([2, 3, 7, 10, 36]), rng.randint(1, 5)
            a = CircularWord(tuple(rng.randrange(base) for _ in range(ell)), base)
            b = rng.choice([a.complement(), CircularWord((base - 1,) * ell, base), a])
            if rng.random() < 0.5:
                b = CircularWord(tuple(rng.randrange(base) for _ in range(ell)), base)
            reference = collapsed(reference_circular_carry_add(a, b))
            assert add(a, b) == reference

    def test_group_sum_is_capped_as_every_lifted_sum(self):
        config.period_cap = 5
        with pytest.raises(CapacityError, match="^lifted sum of 6 digits exceeds cap of 5$"):
            add(g("123456"), g("000001"))


def reference_single_letter_multiplier(base: int) -> int:
    """The factor turning a product of letters into a product word:
    1 + sum of (base-i-2) * base**i over 0 <= i < base-2.

    Its digit word is beta, beta-2, ..., 2, 1 read right to left, and its
    value (base**(base-1) - 1) / (base-1)**2: (10**9 - 1) / 81 = 12345679.
    """
    return (base ** (base - 1) - 1) // (base - 1) ** 2


def reference_circular_product_expanded(x: StarElement, y: StarElement) -> StarElement:
    """Circular product by literal construction, for cross-checks.

    Lifts both operands to a common length L, regroups digits into blocks
    so each becomes a single letter in base b**L, multiplies the letters
    with :func:`reference_single_letter_multiplier`, writes out the full product
    word of length L*(b**L - 1), and only then collapses it to its
    primitive period.  Feasible for small lifts only.
    """
    if x.base != y.base:
        raise ValueError(f"mixed bases {x.base} and {y.base}")
    b = x.base
    length = lcm(len(x.representative), len(y.representative))
    big_base = b**length
    config.check_period(length * (big_base - 1), "expanded product")
    p = x.representative.lift(length).valuation
    q = y.representative.lift(length).valuation
    value = p * q * reference_single_letter_multiplier(big_base)
    word = CircularWord.from_int(value, b, length * (big_base - 1))
    return StarElement.of(word)


class TestCircularProduct:
    def test_two_digit_by_single_digit(self):
        assert star("12") * star("4") == star("053872")

    def test_four_squared(self):
        assert star("4") * star("4") == star("197530864")

    def test_square_of_zero_one(self):
        product = star("01") * star("01")
        digits = str(product.representative)
        assert len(digits) == 198
        assert digits == "".join(f"{k:02d}" for k in range(98)) + "99"

    def test_beta_is_neutral_zero_absorbing(self):
        x = star("053872")
        assert x * star("9") == x
        assert x * star("0") == star("0")
        assert star("9") * star("9") == star("9")

    def test_multiplier_base_ten(self):
        assert reference_single_letter_multiplier(10) == 12345679

    def test_multiplier_consistency(self):
        for base in range(2, 200):
            expected = 1 + sum((base - i - 2) * base**i for i in range(base - 2))
            assert reference_single_letter_multiplier(base) == expected

    @pytest.mark.parametrize("base", range(2, 11))
    def test_expanded_route_single_letters(self, base):
        for p in range(base):
            for q in range(base):
                x = StarElement.of(CircularWord((p,), base))
                y = StarElement.of(CircularWord((q,), base))
                assert x * y == reference_circular_product_expanded(x, y)

    def test_expanded_route_two_digit_pairs(self):
        rng = random.Random(11)
        for _ in range(25):
            x = StarElement.of(CircularWord.from_int(rng.randrange(99), 10, 2))
            y = StarElement.of(CircularWord.from_int(rng.randrange(99), 10, 2))
            assert x * y == reference_circular_product_expanded(x, y)

    def test_agrees_with_fraction_oracle(self):
        rng = random.Random(13)
        for base in (2, 3, 7, 10):
            for _ in range(40):
                ell1, ell2 = rng.randint(1, 4), rng.randint(1, 4)
                n1 = rng.randrange(base**ell1 - 1)
                n2 = rng.randrange(base**ell2 - 1)
                x = StarElement.of(CircularWord.from_int(n1, base, ell1))
                y = StarElement.of(CircularWord.from_int(n2, base, ell2))
                product = x * y
                m = base ** len(product.representative) - 1
                lhs = Fraction(n1, base**ell1 - 1) * Fraction(n2, base**ell2 - 1)
                assert lhs == Fraction(product.representative.valuation, m)

    def test_capacity(self):
        config.period_cap = 50
        with pytest.raises(CapacityError):
            star("0000001") * star("00000001")


class TestRepeatingWord:
    @pytest.mark.parametrize("base", [2, 3, 10, 36])
    def test_records_what_a_scan_finds(self, base):
        # u/v in lowest terms: the word is primitive, and its cached
        # valuation and modulus are those of its digits
        for v in range(1, 120):
            if gcd(v, base) != 1:
                continue
            for u in range(v + 1):
                if gcd(u, v) != 1:
                    continue
                word = repeating_word(u, v, base)
                plain = CircularWord(word.digits, base)
                assert plain.primitive_period() == plain
                assert vars(word)["_primitive_length"] == len(word)
                assert word.valuation == plain.valuation
                assert word.modulus == plain.modulus
                assert Fraction(word.valuation, word.modulus) == Fraction(u, v)

    @pytest.mark.parametrize("base", [3, 10, 12, 36])
    def test_same_word_on_both_sides_of_the_gate(self, monkeypatch, base):
        """Long division and the kernel write the same word with the same
        cached values.  By default a long period with a short denominator
        is divided; 1/99**2 (198 letters) and 3/(10**4401 - 1) are not."""
        rng = random.Random(base)
        cases = [(0, 1), (1, 1), (1, base + 1)]
        for v in rng.sample(range(2, 5000), 60):
            if gcd(v, base) == 1:
                u = rng.randrange(v + 1)
                cases.append((u // gcd(u, v), v // gcd(u, v)))
        if base == 10:
            cases.append((1, (10**4401 - 1) // 3))  # 3/(10**4401 - 1) in lowest terms
        writes = []
        period_digits = words.period_digits

        def counted(*args):
            writes.append(args[-1])
            return period_digits(*args)

        monkeypatch.setattr(words, "period_digits", counted)
        if base == 10:
            for v in (99**2, (10**4401 - 1) // 3, 9999**2):
                repeating_word(1, v, 10)
            assert writes == [4 * 9999]
        fields = ("digits", "valuation", "modulus", "_primitive_length")
        routes = []
        monkeypatch.setattr(group, "_DIVISION_LETTERS_PER_BIT", 0)
        for letters in (0, 1 << 64):  # long division, then the kernel
            monkeypatch.setattr(group, "_DIVISION_MIN_LETTERS", letters)
            writes.clear()
            # read, not looked up: long division fills valuation and modulus lazily
            words_made = [repeating_word(u, v, base) for u, v in cases]
            routes.append([tuple(getattr(word, f) for f in fields) for word in words_made])
            assert len(writes) == (0 if letters else len(cases))
        assert routes[0] == routes[1]


def _residue_cases(base, count=4):
    """Seeded u/v in lowest terms, with the word, that repeating_word
    writes by long division (a period of more than 600 letters and more
    than 8 per bit of v), in periods below 20,000 letters."""
    rng, cases = random.Random(base), []
    while len(cases) < count:
        v, u = rng.randrange(700, 20000), rng.randrange(1, 20000)
        if gcd(v, base) != 1 or gcd(u % v, v) != 1:
            continue
        ell = multiplicative_order(base, v)
        if max(600, 8 * v.bit_length()) < ell < 20000:
            cases.append((u % v, v, repeating_word(u % v, v, base)))
    return cases


class TestResidueWord:
    """A period written by long division holds its fraction (u, v) and
    fills its valuation and modulus only when they are read; its
    rotations, complement, lifts and primitive root carry the fraction
    and give the letters and value of the same operation on an eagerly
    built word, whose value is read back from its letters."""

    @pytest.mark.parametrize("base", [3, 7, 10, 12, 36])
    def test_fills_its_values_lazily(self, base):
        for u, v, word in _residue_cases(base):
            assert vars(word)["ratio"] == (u, v)
            assert "valuation" not in vars(word) and "modulus" not in vars(word)
            m = base ** len(word) - 1
            assert (word.valuation, word.modulus) == (u * m // v, m)
            assert word.valuation == CircularWord(word.digits, base).valuation

    @pytest.mark.parametrize("base", [3, 7, 10, 12, 36])
    def test_rotations_and_complement_match_an_eager_word(self, base):
        rng = random.Random(base)
        for u, v, word in _residue_cases(base):
            ell = len(word)
            eager = CircularWord(word.digits, base)
            shifts = [-1, -rng.randrange(2, ell), -ell - 3, 0, 1, ell, ell + 7, 3 * ell - 1]
            pairs = [(word.shift(k), eager.shift(k)) for k in shifts]
            pairs.append((word.complement(), eager.complement()))
            pairs.append((word.shift(5).complement(), eager.shift(5).complement()))
            # nothing read yet (k = 0 and k = ell give the word itself)
            assert all("valuation" not in vars(lazy) for lazy, _ in pairs)
            for lazy, plain in pairs:
                assert lazy.digits == plain.digits
                assert Fraction(*vars(lazy)["ratio"]) == Fraction(plain.valuation, plain.modulus)
                assert lazy.valuation == CircularWord(plain.digits, base).valuation

    @pytest.mark.parametrize("base", [3, 7, 10, 12, 36])
    def test_all_beta_word_rotates_to_itself(self, monkeypatch, base):
        monkeypatch.setattr(group, "_DIVISION_MIN_LETTERS", 0)
        monkeypatch.setattr(group, "_DIVISION_LETTERS_PER_BIT", 0)
        one = repeating_word(1, 1, base)  # 1/1: the one letter base-1
        assert vars(one)["ratio"] == (1, 1) and one.digits == (base - 1,)
        lifted = one.lift(12)
        for k in (-5, 0, 1, 7, 12, 25):
            word = lifted.shift(k)
            assert word.digits == (base - 1,) * 12 and vars(word)["ratio"] == (1, 1)
            assert word.valuation == word.modulus == base**12 - 1
        zero = lifted.complement()
        assert zero.digits == (0,) * 12 and zero.valuation == 0

    @pytest.mark.parametrize("base", [3, 7, 10, 12, 36])
    def test_lift_keeps_the_value(self, base):
        for u, v, word in _residue_cases(base, 2):
            lifted = word.lift(3 * len(word))
            assert vars(lifted)["ratio"] == (u, v) and "valuation" not in vars(lifted)
            assert lifted.digits == word.digits * 3
            assert lifted.valuation == CircularWord(lifted.digits, base).valuation
            assert Fraction(lifted.valuation, lifted.modulus) == Fraction(u, v)
            root = lifted.primitive_period()
            assert root == word and vars(root)["ratio"] == (u, v)

    def test_long_product_builds_no_long_power(self, monkeypatch):
        """0.(00001)**2, a period of 499,995 letters, is multiplied,
        negated and written without base**ell - 1 of that length."""
        sizes = []
        power_less_one = words.power_less_one

        def counted(base, n):
            sizes.append(n)
            return power_less_one(base, n)

        for module in (words, numtheory, rational, group):
            if hasattr(module, "power_less_one"):
                monkeypatch.setattr(module, "power_less_one", counted)
        cases = (("0.(00001)*0.(00001)", 500_000), ("-(0.(00001)*0.(00001))", 500_001))
        for expression, size in cases:
            out = StringIO()
            with redirect_stdout(out):
                assert cli.run(["eval", expression]) == 0
            assert len(out.getvalue()) == size
        assert max(sizes, default=0) <= 600


class TestOrderPSubgroups:
    """A nontrivial element of additive order p exists in some fixed
    length iff the base and p share no factor."""

    @pytest.mark.parametrize("base,p", [(2, 3), (2, 7), (3, 11), (10, 3), (10, 7)])
    def test_exists_when_coprime(self, base, p):
        ell = multiplicative_order(base, p)
        modulus = base**ell - 1
        assert modulus % p == 0
        generator = CircularWord.from_int(modulus // p, base, ell)
        zero = CircularWord.from_int(0, base, ell)
        acc = zero
        for k in range(1, p):
            acc = add(acc, generator)
            assert acc != zero
        assert add(acc, generator) == zero

    @pytest.mark.parametrize("base,p", [(10, 2), (10, 5), (6, 3), (4, 2)])
    def test_absent_when_sharing_a_factor(self, base, p):
        for ell in range(1, 13):
            assert (base**ell - 1) % p != 0


class TestMidScaleExhaustive:
    """Exhaustive sweeps at a modulus around the spec'd testable scale."""

    def test_commutativity_neutral_inverse_base3_length4(self):
        base, length = 3, 4  # modulus 80
        modulus = base**length - 1
        elements = [CircularWord.from_int(n, base, length) for n in range(modulus)]
        zero = elements[0]
        for x in elements:
            assert add(x, zero) == x
            assert add(x, neg(x)) == zero
        for i, x in enumerate(elements):
            for y in elements[i:]:
                assert add(x, y) == add(y, x)

    def test_associativity_sampled_at_scale(self):
        base, length = 10, 4  # modulus 9999
        rng = random.Random(41)
        for _ in range(300):
            x = CircularWord.from_int(rng.randrange(9999), base, length)
            y = CircularWord.from_int(rng.randrange(9999), base, length)
            z = CircularWord.from_int(rng.randrange(9999), base, length)
            assert add(add(x, y), z) == add(x, add(y, z))
