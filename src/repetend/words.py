"""Finite and circular digit words over the alphabet {0, ..., base-1}.

A finite word reads as an integer in the usual positional way (leftmost
digit most significant).  A circular word is a nonempty word whose indices
live modulo its length, so its last letter is followed by its first; the
canonical textual form always starts at index 0, and rotated copies are
distinct words here (value-level identifications live elsewhere).

Also provides two enumeration demonstrations over these words: the orbit
decomposition behind b**p == k*p + b for prime p, and the count of cyclic
binary words avoiding the factor 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from . import config

# The alphabet: letters 0-9 then A-Z, read in either case.  _letters and
# _spell are the only reader and writer of letters as text.  They stay
# private: bench/spans.py wraps only public names, so their time counts
# as the parser's and the formatter's own.
_DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Digit values to the characters int() reads; values past the alphabet
# become "!", which int() rejects.
_TO_ASCII = (_DIGIT_CHARS.encode() + b"!" * 256)[:256]
# ASCII characters back to digit values; anything else becomes 255, past
# every base whose letters are written as characters.
_FROM_ASCII = bytes(_DIGIT_CHARS.find(chr(c).upper()) % 256 for c in range(256))


def char_digit(ch: str) -> int:
    d = _DIGIT_CHARS.find(ch.upper())
    if d < 0:
        raise ValueError(f"not a digit: {ch!r}")
    return d


def _letters(text: str, base: int) -> tuple[int, ...]:
    """Digit values of the characters of ``text``, all below ``base``."""
    if text.isascii():
        digits = text.encode().translate(_FROM_ASCII)
        if max(digits, default=0) < base:
            return tuple(digits)
    # one character at a time, to name the first that is no digit of the
    # base (str.upper also takes a few non-ASCII characters to letters)
    for ch in text:
        if char_digit(ch) >= base:
            raise ValueError(f"digit {ch!r} out of range for base {base}")
    return tuple(map(char_digit, text))


def _spell(digits) -> str:
    """The characters of digit values below 36."""
    return bytes(digits).translate(_TO_ASCII).decode()


# Words of at most this many digits are converted one digit at a time, so
# the small-operand paths pay for no setup.
_SMALL = 32
# Up to this many bits str() writes base ten directly; past it CPython's
# conversion is quadratic, and refused beyond 4300 digits.
_STR_BITS = 12_000
# Pieces the base-ten route hands to Decimal() whole.
_DECIMAL_LEAF_BITS = 1_024
# Runs of digits int() reads in one go, well inside the 4300-digit limit.
_LEAF_DIGITS = 2_000
# Divisions whose quotient has at most this many bits go to divmod.
_DIV_LIMIT = 4_000
# Letters period_digits writes per division in base ten, one str() each;
# other bases take the most letters whose block stays below 2**64.
_DECIMAL_BLOCK = 200


def int_to_digits(n: int, base: int, length: int) -> tuple[int, ...]:
    """Big-endian base-`base` digits of ``n`` zero-padded to ``length``.

    One of two writers of letters: this one writes any value; a period
    that comes from a fraction u/v with a short v is written by
    :func:`period_digits` instead (see ``group.repeating_word``).

    Short words are read off one digit at a time.  Longer ones take one
    of three subquadratic routes, picked by the base:

    * base ten builds a ``decimal.Decimal`` by recursive bit-splitting
      (libmpdec multiplies in number-theoretic-transform time) and reads
      its digit tuple;
    * a power-of-two base slices the binary expansion, in linear time;
    * any other base splits recursively at powers of the base, cached per
      call, dividing by Burnikel-Ziegler recursion.

    ``CircularWord.from_int`` keeps ``n`` as the word's valuation, so a
    word built here is not read back through :func:`digits_to_int`.
    """
    if n < 0:
        raise ValueError("negative value has no digit word")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if length <= _SMALL:
        if n >= base**length:
            raise _overflow(n, base, length)
        out = [0] * length
        i = length
        while n:
            i -= 1
            n, out[i] = divmod(n, base)
        return tuple(out)
    if base == 10:
        digits = _decimal_digits(n)
    elif base & (base - 1) == 0 and base <= 256:  # letters fit in a byte
        digits = _binary_digits(n, base.bit_length() - 1)
    else:
        return _split_digits(n, base, length)
    if len(digits) > length:
        raise _overflow(n, base, length)
    return (0,) * (length - len(digits)) + digits


def _overflow(n: int, base: int, length: int) -> ValueError:
    shown = n if n.bit_length() <= 64 else f"a {n.bit_length()}-bit value"
    return ValueError(f"{shown} does not fit in {length} base-{base} digits")


def period_digits(u: int, v: int, base: int, length: int) -> tuple[int, ...]:
    """The first ``length`` letters of u/v after the point, 0 <= u <= v:
    those of ``u * ((base**length - 1) // v)`` when v divides base**length - 1.

    Schoolbook long division in blocks of k letters: each block is the
    quotient of one ``divmod(r * base**k, v)``, so the cost grows with
    ``length`` times the size of v, not with the size of the number the
    letters spell.  Base ten spells a block of 200 letters with one
    ``str()``; any other base splits a block below 2**64, an even number
    of letters, two letters per ``divmod`` by ``base**2`` through a table
    of the letter pairs.  The last block is written whole and cut: its
    first letters are those of the shorter division.  u == v is the
    all-(base-1) word, whose first block would overflow.
    """
    if u == v:
        return (base - 1,) * length
    r = u
    if base == 10:
        step, text = 10**_DECIMAL_BLOCK, []
        for _ in range(-(-length // _DECIMAL_BLOCK)):
            q, r = divmod(r * step, v)
            text.append(str(q).zfill(_DECIMAL_BLOCK))
        return tuple("".join(text)[:length].encode().translate(_FROM_ASCII))
    k = int(64 / math.log2(base))
    k -= base**k >= 1 << 64  # a power of two: 64 / log2 is exact
    k -= k & 1
    step, square, pairs = base**k, base * base, _letter_pairs(base)
    splits, letters = range(k // 2), bytearray()
    for _ in range(-(-length // k)):
        q, r = divmod(r * step, v)
        block = []
        for _ in splits:  # the block's pairs, last first
            q, d = divmod(q, square)
            block.append(pairs[d])
        block.reverse()
        letters += b"".join(block)  # one join per block: a join holds a buffer per item
    return tuple(letters[:length])


@cache
def _letter_pairs(base: int) -> tuple[bytes, ...]:
    """Entry d: the two letters of d < base**2, as bytes; built once per
    base, so at most 35 tables of at most 1,296 pairs are kept."""
    return tuple(bytes(divmod(d, base)) for d in range(base * base))


def power_less_one(base: int, n: int) -> int:
    """base**n - 1, the value of the all-(base-1) word of n letters.

    Past a few letters only the odd part c of base = 2**s * c is raised,
    and the power of two is a shift: c**n has fewer bits to square than
    base**n (in base ten, 5**n << n costs about half of 10**n).
    """
    if n <= _SMALL:
        return base**n - 1
    s = (base & -base).bit_length() - 1
    return ((base >> s) ** n << s * n) - 1


def _binary_digits(n: int, k: int) -> tuple[int, ...]:
    """Digits of n in base 2**k: the binary expansion, cut into k-bit
    letters.  Each letter gets one byte: the j-th bits of all letters are
    one stride of the bit string, and shifting their strides into one
    integer never carries across bytes since letters are below 256."""
    bits = format(n, "b").encode().translate(_FROM_ASCII)
    if len(bits) % k:
        bits = bytes(k - len(bits) % k) + bits
    letters = 0
    for j in range(k):
        letters = (letters << 1) | int.from_bytes(bits[j::k], "big")
    return tuple(letters.to_bytes(len(bits) // k, "big"))


def _decimal_digits(n: int) -> tuple[int, ...]:
    """Base-ten digits of n >= 0, no leading zeros."""
    if n.bit_length() <= _STR_BITS:
        return tuple(str(n).encode().translate(_FROM_ASCII))
    import decimal

    # exact arithmetic in a context of its own, whatever the caller's is
    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact],
    )
    return _to_decimal(n, n.bit_length(), ctx, _TwoPowers(ctx)).as_tuple().digits


def _to_decimal(n: int, w: int, ctx, two_powers: "_TwoPowers"):
    """n < 2**w as a Decimal: the two halves of its bits, joined by one
    multiplication in libmpdec."""
    if w <= _DECIMAL_LEAF_BITS:
        return ctx.create_decimal(n)
    half = w >> 1
    hi = n >> half
    low = _to_decimal(n - (hi << half), half, ctx, two_powers)
    high = _to_decimal(hi, w - half, ctx, two_powers)
    return ctx.add(low, ctx.multiply(high, two_powers[half]))


class _TwoPowers(dict):
    """2**w as Decimals, each built from ones already there."""

    def __init__(self, ctx):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, w: int):
        if w <= _DECIMAL_LEAF_BITS:
            p = self.ctx.create_decimal(1 << w)
        elif w - 1 in self:
            p = self.ctx.add(self[w - 1], self[w - 1])
        else:
            p = self.ctx.multiply(self[w >> 1], self[w - (w >> 1)])
        self[w] = p
        return p


class _Powers(dict):
    """base**k for the sizes one recursive split asks for, each built from
    ones already there, so the split pays for every distinct size once."""

    def __init__(self, base: int):
        super().__init__()
        self.base = base

    def __missing__(self, k: int) -> int:
        if k <= _SMALL:
            p = self.base**k
        elif k - 1 in self:
            p = self[k - 1] * self.base
        else:
            p = self[k >> 1] * self[k - (k >> 1)]
        self[k] = p
        return p


def _split_digits(n: int, base: int, length: int) -> tuple[int, ...]:
    """Digits of n by halving the word at powers of the base."""
    powers = _Powers(base)
    # n < 2**(bits) rules out an overflow without building base**length
    if n.bit_length() >= length * math.log2(base) - 1 and n >= powers[length]:
        raise _overflow(n, base, length)
    out = [0] * length
    _split_into(out, n, 0, length, powers)
    return tuple(out)


def _split_into(out: list, n: int, lo: int, hi: int, powers: _Powers) -> None:
    if hi - lo <= _SMALL:
        base = powers.base
        i = hi
        while n:
            i -= 1
            n, out[i] = divmod(n, base)
        return
    # the low part takes the larger half, so the quotient fits the
    # divisor's size as _div2n1n requires
    half = (hi - lo + 1) // 2
    divisor = powers[half]
    hi_part, lo_part = _div2n1n(n, divisor, divisor.bit_length())
    _split_into(out, hi_part, lo, hi - half, powers)
    _split_into(out, lo_part, hi - half, hi, powers)


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """Burnikel-Ziegler recursive division of a < 2**n * b by the n-bit b:
    two divisions of 3/2 size, each made of one half-size recursion and
    one multiplication."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    if pad:
        r >>= 1
    return q1 << half | q2, r


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def digits_to_int(digits, base: int) -> int:
    """Positional value of a big-endian digit sequence in base 2..36 (empty -> 0).

    ``int`` reads runs of up to a few thousand digits, and a power-of-two
    base at any length, in C; longer runs in other bases are halved
    recursively and joined with powers of the base cached per call.
    """
    if len(digits) <= _SMALL:
        return _horner(digits, base)
    text = bytes(digits).translate(_TO_ASCII)
    if base & (base - 1) == 0:
        return int(text, base)
    return _join(text, 0, len(text), _Powers(base))


def _join(text: bytes, lo: int, hi: int, powers: _Powers) -> int:
    if hi - lo <= _LEAF_DIGITS:
        return int(text[lo:hi], powers.base)
    mid = (lo + hi + 1) // 2
    return _join(text, lo, mid, powers) * powers[hi - mid] + _join(text, mid, hi, powers)


def _horner(digits, base: int) -> int:
    acc = 0
    for d in digits:
        acc = acc * base + d
    return acc


def digit_count(n: int, base: int) -> int:
    """Number of base-`base` digits of n >= 0 (0 counts as none).

    Estimated from the bit length and settled by comparing with powers
    of the base: the estimate is off by at most one.
    """
    if n < 0:
        raise ValueError("digit_count needs n >= 0")
    if n == 0:
        return 0
    count = int((n.bit_length() - 1) / math.log2(base)) + 1
    while count > 1 and base ** (count - 1) > n:
        count -= 1
    while base**count <= n:
        count += 1
    return count


def _minimal_digits(n: int, base: int) -> tuple[int, ...]:
    """Big-endian digits of n >= 0 at its own length (empty for 0)."""
    return int_to_digits(n, base, digit_count(n, base))


def _repunit(block: int, n: int) -> int:
    """1 + block + ... + block**(n-1), doubling the count: no division."""
    if n == 1:
        return 1
    half = n >> 1
    ones = _repunit(block, half)
    ones += ones * block**half
    return ones * block + 1 if n & 1 else ones


def _check_digits(digits: tuple[int, ...], base: int) -> None:
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if digits and not (0 <= min(digits) and max(digits) < base):
        bad = next(d for d in digits if not 0 <= d < base)
        raise ValueError(f"digit {bad} out of range for base {base}")


@dataclass(frozen=True)
class FiniteWord:
    """A possibly-empty digit word; empty reads as 0."""

    digits: tuple[int, ...]
    base: int

    def __post_init__(self):
        _check_digits(self.digits, self.base)

    @classmethod
    def from_int(cls, n: int, base: int, length: int | None = None) -> "FiniteWord":
        if length is None:
            return cls(_minimal_digits(n, base), base)
        return cls(int_to_digits(n, base, length), base)

    @cached_property
    def valuation(self) -> int:
        return digits_to_int(self.digits, self.base)

    def __len__(self) -> int:
        return len(self.digits)

    def repeat(self, n: int) -> "FiniteWord":
        if n < 1:
            raise ValueError("repetition count must be >= 1")
        return FiniteWord(self.digits * n, self.base)

    def __str__(self) -> str:
        return _spell(self.digits)


@dataclass(frozen=True)
class CircularWord:
    """A nonempty digit word indexed cyclically.

    Its valuation N(w) and modulus m = base**len - 1 are computed at most
    once.  Words made from an integer or from other words fill them from
    what they start from, so long digits are not read back or rechecked.

    A word written from a fraction u/v (``group.repeating_word``'s long
    division) holds ``ratio = (u, v)``, N(w)/m == u/v with v dividing m,
    and fills neither value until one is read: m as base**len - 1, N(w)
    as u * (m // v).  Its readers take the value as that fraction
    (:func:`_ratio`, :func:`_is_null`), and its rotations, complement,
    repetitions and primitive root carry it.
    """

    digits: tuple[int, ...]
    base: int

    def __post_init__(self):
        if not self.digits:
            raise ValueError("circular word must be nonempty")
        _check_digits(self.digits, self.base)

    @classmethod
    def from_int(cls, n: int, base: int, length: int) -> "CircularWord":
        if length < 1:
            raise ValueError("circular word must be nonempty")
        return _known_word(int_to_digits(n, base, length), base, valuation=n)

    @cached_property
    def valuation(self) -> int:
        ratio = self.__dict__.get("ratio")
        if ratio:
            return ratio[0] * (self.modulus // ratio[1])
        return digits_to_int(self.digits, self.base)

    @cached_property
    def modulus(self) -> int:
        """base**len - 1: the value of the all-(base-1) word of this length."""
        return power_less_one(self.base, len(self.digits))

    def with_value(self, n: int) -> "CircularWord":
        """The word of this length with valuation n: this word itself when
        n is its own value, so an unchanged value is never written out."""
        if n == self.valuation:
            return self
        return self._sibling(int_to_digits(n, self.base, len(self.digits)), valuation=n)

    def _sibling(self, digits, keep=("modulus",), **cached) -> "CircularWord":
        """A word of this length and base on valid digits; keeps ``keep``."""
        for name in keep:
            if name in self.__dict__:
                cached[name] = self.__dict__[name]
        return _known_word(digits, self.base, **cached)

    def __len__(self) -> int:
        return len(self.digits)

    def shift(self, k: int = 1) -> "CircularWord":
        """Rotate left by ``k`` positions (negative k rotates right).  The
        value is multiplied by b**k mod m, which carries a cached valuation
        in linear time when few letters cross (:func:`_crossing`), and a
        fraction u/v as u * b**k mod v (1/1, all letters b-1, stays)."""
        ell = len(self.digits)
        k %= ell
        if k == 0:
            return self
        cached = {}
        ratio = self.__dict__.get("ratio")
        if ratio:
            u, v = ratio
            cached["ratio"] = ratio if u == v else (u * pow(self.base, k, v) % v, v)
        if {"valuation", "modulus"} <= self.__dict__.keys() and min(k, ell - k) <= _SMALL:
            j, b = (k if k <= _SMALL else k - ell), self.base  # the shorter way round
            n, crossed = self.valuation, _horner(_crossing(self, j), b) * self.modulus
            cached["valuation"] = n * b**j - crossed if j > 0 else (n + crossed) // b**-j
        return self._sibling(self.digits[k:] + self.digits[:k], _ROTATION_KEEPS, **cached)

    def repeat(self, n: int) -> "CircularWord":
        if n < 1:
            raise ValueError("repetition count must be >= 1")
        config.check_period(len(self.digits) * n)
        if n == 1:
            return self
        cached = {}
        if "ratio" in self.__dict__:  # N(w^n)/m(w^n) == N(w)/m(w)
            cached["ratio"] = self.ratio
        value = self.__dict__.get("valuation")
        if value == 0:
            cached["valuation"] = 0
        elif value is not None:
            # N(w^n) = N(w) * R and b**len(w^n) - 1 = (b**len(w) - 1) * R
            # with R = 1 + B + ... + B**(n-1), B = b**len(w)
            repunit = _repunit(self.modulus + 1, n)
            cached.update(valuation=value * repunit, modulus=self.modulus * repunit)
        return _known_word(self.digits * n, self.base, **cached)

    def lift(self, length: int) -> "CircularWord":
        """Repeat up to ``length`` digits; ``length`` must be a multiple."""
        q, r = divmod(length, len(self.digits))
        if r:
            raise ValueError(f"cannot lift length {len(self.digits)} to {length}")
        return self.repeat(q)

    def primitive_period(self) -> "CircularWord":
        """Shortest word of which this one is a repetition.

        The smallest k > 0 whose rotation fixes the word divides the
        length and is exactly the primitive length; doubling the word
        finds it with one scan (digits fit in bytes since base <= 36),
        made once per word and kept by rotations and complements.
        """
        k = self.__dict__.get("_primitive_length")
        if k is None:
            s = bytes(self.digits)
            k = self.__dict__["_primitive_length"] = (s + s).index(s, 1)
        if k == len(self.digits):
            return self
        # a root has the value of its powers
        cached = {"ratio": self.ratio} if "ratio" in self.__dict__ else {}
        return _known_word(self.digits[:k], self.base, _primitive_length=k, **cached)

    def complement(self) -> "CircularWord":
        """Replace every letter w by base-1-w; the value becomes m - N(w),
        and a fraction u/v becomes (v - u)/v."""
        cached = {}
        if "ratio" in self.__dict__:
            u, v = self.ratio
            cached["ratio"] = (v - u, v)
        if {"valuation", "modulus"} <= self.__dict__.keys():
            cached["valuation"] = self.modulus - self.valuation
        flip = bytes(range(self.base - 1, -1, -1)).ljust(256, b"\xff")
        letters = tuple(bytes(self.digits).translate(flip))
        return self._sibling(letters, _ROTATION_KEEPS, **cached)

    def __str__(self) -> str:
        return _spell(self.digits)


# Cached values a rotation or a complement leaves unchanged.
_ROTATION_KEEPS = ("modulus", "_primitive_length")


def _common_length(words, what: str) -> int:
    """The lcm of the words' lengths, capped as ``what``."""
    return config.check_period(math.lcm(*map(len, words)), what)


def _ratio(word: CircularWord) -> tuple[int, int]:
    """(u, v) with u/v == N(w)/m: the fraction the word was written from,
    else its valuation over its modulus."""
    return word.__dict__.get("ratio") or (word.valuation, word.modulus)


def _is_null(word: CircularWord) -> bool:
    """Whether the word's value is 0, read from its fraction or its letters."""
    ratio = word.__dict__.get("ratio")
    return not ratio[0] if ratio else not any(word.digits)


def _lifted_sum(periods, what: str) -> tuple[int, CircularWord]:
    """The periods' values summed on their lift to the lcm of their lengths,
    capped as ``what``: (carry, word) with N(word) + carry * m the sum.  An
    all-(base-1) sum stays that word and only an overshoot carries; when at
    most one period is nonzero, its lift is the sum as it stands."""
    length = _common_length(periods, what)
    nonzero = [p for p in periods if not _is_null(p)]
    if len(nonzero) < 2:
        return 0, (nonzero or periods)[0].lift(length)
    total = 0
    for p in nonzero:  # lifted as values: N(p) times the repunit of ``repeat``
        count = length // len(p)
        total += p.valuation * _repunit(p.modulus + 1, count) if count > 1 else p.valuation
    word = nonzero[0].lift(length)  # after the read above, so the lift carries its value
    carry = (total - 1) // word.modulus
    return carry, word.with_value(total - carry * word.modulus)


def _crossing(word: CircularWord, k: int) -> tuple[int, ...]:
    """The letters of the period P that cross the point when 0.(P) is
    multiplied by b**k: the first k of P repeated for k > 0, the last -k for
    k < 0.  With N their value, 0.(P) * b**k is N + 0.(P.shift(k)) for k >= 0
    and 0.(P.shift(k)) - N * b**k for k < 0: the shift identification."""
    cycle = word.digits
    count, rest = divmod(abs(k), len(cycle))
    return cycle * count + cycle[:rest] if k >= 0 else cycle[len(cycle) - rest :] + cycle * count


def _known_word(digits: tuple[int, ...], base: int, **cached) -> CircularWord:
    """A circular word on digits already known to be valid letters (written
    by int_to_digits, or moved from a word that was checked), with the
    given cached values; the check of every letter is skipped."""
    word = object.__new__(CircularWord)
    word.__dict__.update(digits=digits, base=base, **cached)
    return word


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _necklaces(n: int, k: int, avoid_11: bool = False) -> list[int]:
    """Entry d: the number of necklaces (rotation orbits) of length n >= 1
    over k letters of primitive length (orbit size) d; with ``avoid_11``,
    over k = 2 letters with no cyclic factor 11.  FKM in Duval's form: each
    Lyndon word of length below n is the last one extended periodically to
    n - 1 letters, stripped of trailing letters k - 1 and raised in its last
    letter; the orbits of size n are counted from the n-th letter each
    extension would take.  Prefixes ending in 11 are skipped; of the wraps
    from last letter to first only 1...1's holds 11 (longer ones start 0)."""
    if n == 1:
        return [0, k - avoid_11]
    counts, w = [0] * (n + 1), [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if not (avoid_11 and w[-2:] == [1, 1]):
            if n % m == 0 and not (avoid_11 and w == [1]):
                counts[m] += 1
            w += [w[i % m] for i in range(m, n - 1)]
            last = w[(n - 1) % m]  # the periodic extension's n-th letter
            counts[n] += not (last or w[-1]) if avoid_11 else k - 1 - last
        while w and w[-1] == k - 1:
            w.pop()
    return counts


def fermat_orbit_count(b: int, p: int) -> tuple[int, int]:
    """Count the shift orbits of the b**p circular words of length p.

    Returns ``(orbit_count, constant_count)`` where ``orbit_count`` is the
    number of size-p orbits and ``constant_count`` the number of constant
    words (orbits of size 1).  Each orbit is counted once, from its
    necklace, in memory of size p, and b**p == orbit_count * p +
    constant_count, the congruence b**p == b (mod p), is checked exactly.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    config.check_enumeration(p, "words", b)  # before is_prime, which is slow for a large p
    if not is_prime(p):
        raise ValueError(f"orbit decomposition needs a prime length, got {config.shown(p)}")
    counts = _necklaces(p, b)
    constant_count, orbit_count = counts[1], counts[p]
    # p prime: a nonconstant word is fixed by no nontrivial rotation.
    for size in range(2, p):
        if counts[size]:
            raise RuntimeError(f"orbit of size {size} under rotation by {p}")
    if b**p != orbit_count * p + constant_count:
        raise RuntimeError(f"{b}**{p} != {orbit_count}*{p} + {constant_count}")
    return orbit_count, constant_count


def count_cyclic_binary_avoiding_11(length: int) -> int:
    """Number of binary circular words of ``length`` with no cyclic factor
    11: each orbit holds as many words as its primitive length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    config.check_enumeration(length, "words", 2)
    return sum(size * count for size, count in enumerate(_necklaces(length, 2, True)))


def lucas_orbit_count(p: int) -> int:
    """Count cyclic binary words of prime length p avoiding the factor 11.

    The count satisfies ``count % p == 1``, which the function checks; the
    same orbit argument as :func:`fermat_orbit_count` applies because the
    constraint is rotation-invariant and only the two constant words 0...0
    and 1...1 could be fixed by a rotation (1...1 is excluded, 0...0 kept).
    """
    config.check_enumeration(p, "words", 2)  # before is_prime, as in fermat_orbit_count
    if not is_prime(p):
        raise ValueError(f"need a prime length, got {config.shown(p)}")
    count = count_cyclic_binary_avoiding_11(p)
    if count % p != 1:
        raise RuntimeError(f"count {count} not congruent to 1 mod {p}")
    return count
