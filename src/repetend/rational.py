"""Rational numbers as eventually repeating digit expansions.

Two interchangeable representations:

* ``WcpNumber`` -- sign, aperiodic word, circular period, point offset.
  The point offset counts digits between the point and the start of the
  period (negative when the point lies inside the aperiodic part).  This
  is the form that reads like the familiar expansion.
* ``DcNumber`` -- an exact finite decimal plus a circular period aligned
  to start right after the point.  Less readable (the decimal can be
  negative while the value is not), far better for arithmetic.

Construction is raw but for finite parts; ``canonical()`` applies the
identifications (period collapsed to its primitive form, an all-(base-1)
period bumped into the finite part, leading zeros and the shift freedom
normalized) so that equal values have equal canonical forms.  Arithmetic
accepts raw inputs and always returns canonical results; the two
deliberately raw-facing operations, the semiotic order and the
cancellation demonstration, keep pre-identification forms visible.

Fractions appear only at the explicit conversion endpoints; the
arithmetic itself runs on words, valuations and carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import config
from .decimals import DecimalNumber, scalar_action
from .group import StarElement, repeating_word
from .numtheory import split_denominator
from .oracle import Fraction
from .words import (
    CircularWord,
    _check_digits,
    _minimal_digits,
    _spell,
    digits_to_int,
    int_to_digits,  # noqa: F401  bench/spans.py traces it under this name
)


def _carry_split(total: int, modulus: int) -> tuple[int, int]:
    """Carry and remaining word value of a digit-level circular sum.

    Faithful to the digit process: a sum equal to the all-(base-1) word
    stays that word with no carry; only overshoot wraps.  The value
    total == carry * modulus + remainder is preserved either way.
    """
    if total <= 0:
        return 0, total
    carry = (total - 1) // modulus
    return carry, total - carry * modulus


@dataclass(frozen=True)
class DcNumber:
    """A finite decimal plus a period starting right after the point."""

    delta: DecimalNumber
    period: CircularWord

    def __post_init__(self):
        if self.delta.base != self.period.base:
            raise ValueError(
                f"mixed bases {self.delta.base} and {self.period.base}"
            )

    @property
    def base(self) -> int:
        return self.delta.base

    @classmethod
    def from_int(cls, n: int, base: int) -> "DcNumber":
        return cls(DecimalNumber.from_int(n, base), CircularWord((0,), base))

    @classmethod
    def zero(cls, base: int) -> "DcNumber":
        return cls.from_int(0, base)

    @classmethod
    def one(cls, base: int) -> "DcNumber":
        return cls.from_int(1, base)

    def canonical(self) -> "DcNumber":
        """This number itself when its period is primitive and not all-(b-1)."""
        period = self.period.primitive_period()
        if period.digits == (self.base - 1,):
            return DcNumber(self.delta + 1, CircularWord((0,), self.base))
        return self if period is self.period else DcNumber(self.delta, period)

    def is_zero(self) -> bool:
        return self.as_ratio()[0] == 0

    def is_negative(self) -> bool:
        return self.as_ratio()[0] < 0

    def as_ratio(self) -> tuple[int, int]:
        """(numerator, denominator) with the denominator positive; exact,
        not necessarily reduced."""
        m = self.period.modulus
        scale = self.base**self.delta.point
        return self.delta.scaled * m + scale * self.period.valuation, scale * m

    def to_fraction(self) -> Fraction:
        """The value as a reduced fraction: the ring morphism back to
        ordinary rationals."""
        return Fraction(*self.as_ratio())

    # -- arithmetic ----------------------------------------------------

    def _add_raw(self, other: "DcNumber") -> "DcNumber":
        """Sum with the carry made explicit and no canonicalization, so
        pre-identification forms stay visible."""
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        length = lcm(len(self.period), len(other.period))
        config.check_period(length, "lifted sum")
        word = self.period.lift(length)
        total = word.valuation + other.period.lift(length).valuation
        carry, rest = _carry_split(total, word.modulus)
        return DcNumber(self.delta + other.delta + carry, word.with_value(rest))

    def __add__(self, other: "DcNumber") -> "DcNumber":
        return self._add_raw(other).canonical()

    def __neg__(self) -> "DcNumber":
        return DcNumber(-self.delta - 1, self.period.complement()).canonical()

    def __sub__(self, other: "DcNumber") -> "DcNumber":
        return self + (-other)

    def __mul__(self, other: "DcNumber") -> "DcNumber":
        """Product via the split form: finite*finite, two scalar actions
        for the cross terms, and the circular product of the periods; the
        three periodic contributions are lifted to one common length and
        added with their carry."""
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        x, y = self.canonical(), other.canonical()
        carry1, circ1 = scalar_action(x.delta, y.period)
        carry2, circ2 = scalar_action(y.delta, x.period)
        prod = (StarElement.of(x.period) * StarElement.of(y.period)).representative
        length = lcm(len(circ1), len(circ2), len(prod))
        config.check_period(length, "lifted product")
        word = prod.lift(length)
        total = circ1.lift(length).valuation + circ2.lift(length).valuation + word.valuation
        carry, rest = _carry_split(total, word.modulus)
        delta = x.delta * y.delta + carry1 + carry2 + carry
        return DcNumber(delta, word.with_value(rest)).canonical()

    def __truediv__(self, other: "DcNumber") -> "DcNumber":
        num_x, den_x = self.as_ratio()
        num_y, den_y = other.as_ratio()
        if num_y == 0:
            raise ZeroDivisionError("division by zero")
        return from_ratio(num_x * den_y, den_x * num_y, self.base)

    # -- order ---------------------------------------------------------

    def compare(self, other: "DcNumber") -> int:
        """-1, 0 or 1; exact, evaluated on integers only.

        After lifting the periods to a common length ell, with
        m = b**ell - 1 and dx - dy = k * b**-c, x < y iff
        m * k < (Py - Px) * b**c.
        """
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        x, y = self.canonical(), other.canonical()
        if x == y:
            return 0
        length = lcm(len(x.period), len(y.period))
        config.check_period(length, "lifted comparison")
        diff = x.delta - y.delta
        px, py = x.period.lift(length), y.period.lift(length)
        gap = (py.valuation - px.valuation) * self.base**diff.point
        return -1 if diff.scaled * px.modulus < gap else 1

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def __str__(self) -> str:
        return f"({self.delta}, ({self.period}))"


@dataclass(frozen=True)
class WcpNumber:
    """Sign, aperiodic digits, circular period, and point offset."""

    sign: int
    aperiodic: tuple[int, ...]
    period: CircularWord
    point: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _check_digits(self.aperiodic, self.period.base)

    @property
    def base(self) -> int:
        return self.period.base

    @property
    def aperiodic_value(self) -> int:
        return digits_to_int(self.aperiodic, self.base)

    @classmethod
    def zero(cls, base: int) -> "WcpNumber":
        return cls(1, (0,), CircularWord((0,), base), 0)

    def is_zero(self) -> bool:
        return self.aperiodic_value == 0 and self.period.valuation == 0

    def is_purely_periodic(self) -> bool:
        """Canonical shape of a value in [0, 1) whose expansion repeats
        from the first digit on."""
        return self.aperiodic in ((), (0,)) and self.point == 0

    def to_fraction(self) -> Fraction:
        m = self.period.modulus
        num = self.sign * (self.aperiodic_value * m + self.period.valuation)
        if self.point >= 0:
            return Fraction(num * self.base**self.point, m)
        return Fraction(num, m * self.base**-self.point)

    def canonical(self) -> "WcpNumber":
        if self.is_zero():
            return WcpNumber.zero(self.base)
        base = self.base
        digits = self.aperiodic
        period = self.period.primitive_period()
        if period.digits == (base - 1,):
            digits = _minimal_digits(self.aperiodic_value + 1, base)
            period = CircularWord((0,), base)
        # leading zeros go, but for the whole digit and those after the
        # point; unshifts only take letters off the end, so this holds
        significant = bytes(digits).lstrip(b"\0")
        digits = bytes(max(0, 1 - self.point - len(significant))) + significant
        # unshift: the last aperiodic letter re-enters the period.  With
        # none left (a scaled purely periodic value), a trailing zero
        # rotates out of the significant window the same way, pinning the
        # rotation (the period is not all-zero here); k unshifts, one rotation
        cycle, k = period.digits, 0
        while (digits[-1 - k] if k < len(digits) else 0) == cycle[-1 - k % len(cycle)]:
            k += 1
        if k:
            digits, period = digits[: max(0, len(digits) - k)], period.shift(-k)
        return WcpNumber(self.sign, tuple(digits), period, self.point + k)

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "WcpNumber":
        if self.is_zero():
            return self.canonical()
        return WcpNumber(-self.sign, self.aperiodic, self.period, self.point)

    def __add__(self, other: "WcpNumber") -> "WcpNumber":
        return wcp_from_dc(dc_from_wcp(self) + dc_from_wcp(other))

    def __sub__(self, other: "WcpNumber") -> "WcpNumber":
        return self + (-other)

    def __mul__(self, other: "WcpNumber") -> "WcpNumber":
        return wcp_from_dc(dc_from_wcp(self) * dc_from_wcp(other))

    def __str__(self) -> str:
        sign = "+" if self.sign > 0 else "-"
        digits = _spell(self.aperiodic) or "0"
        return f"({sign}, {digits}, ({self.period}), {self.point})"


def align(x: WcpNumber, y: WcpNumber) -> tuple[WcpNumber, WcpNumber]:
    """Present two numbers with the same point offset, period length and
    aperiodic length, using only the identifications (no value change)."""
    if x.base != y.base:
        raise ValueError(f"mixed bases {x.base} and {y.base}")
    point = min(x.point, y.point)
    x, y = _lower_point(x, point), _lower_point(y, point)
    length = lcm(len(x.period), len(y.period))
    config.check_period(length, "aligned period")
    width = max(len(x.aperiodic), len(y.aperiodic), 1)
    pad = lambda w: (0,) * (width - len(w.aperiodic)) + w.aperiodic
    return tuple(
        WcpNumber(w.sign, pad(w), w.period.lift(length), point) for w in (x, y)
    )


def _lower_point(x: WcpNumber, point: int) -> WcpNumber:
    """Shift identification: move the first x.point - point letters of the
    period, read cyclically, into the aperiodic part and rotate the period
    past them (point <= x.point)."""
    k = x.point - point
    cycle = x.period.digits
    moved = (cycle * (k // len(cycle) + 1))[:k]
    return WcpNumber(x.sign, tuple(x.aperiodic) + moved, x.period.shift(k), point)


def semiotic_compare(x: WcpNumber, y: WcpNumber) -> int:
    """Order by the written signs alone: lexicographic on the aligned
    (aperiodic, period) pairs.  Declares the all-(base-1) period smaller
    than the bumped form of the same value, as the raw digits suggest."""
    xa, ya = align(x, y)
    if xa.is_zero() and ya.is_zero():
        return 0
    sx = 0 if xa.is_zero() else xa.sign
    sy = 0 if ya.is_zero() else ya.sign
    if sx != sy:
        return -1 if sx < sy else 1
    key_x = (xa.aperiodic_value, tuple(xa.period.digits))
    key_y = (ya.aperiodic_value, tuple(ya.period.digits))
    if key_x == key_y:
        return 0
    result = -1 if key_x < key_y else 1
    return result if sx >= 0 else -result


def wcp_compare(x: WcpNumber, y: WcpNumber) -> int:
    """The true order: the semiotic one corrected by the identifications,
    so equal values compare equal."""
    xc, yc = x.canonical(), y.canonical()
    if xc == yc:
        return 0
    return semiotic_compare(xc, yc)


# -- conversions -------------------------------------------------------


def wcp_from_dc(x: DcNumber) -> WcpNumber:
    """The written form of x: its magnitude, negated once, and its sign."""
    x = x.canonical()
    sign, x = (-1, -x) if x.is_negative() else (1, x)
    base, point = x.base, x.delta.point
    shifted, rest = divmod(base**point * x.period.valuation, x.period.modulus)
    whole = x.delta.scaled + shifted
    # rest is the period's value times base**point: the period rotated
    period = x.period.shift(point).with_value(rest)
    return WcpNumber(sign, _minimal_digits(whole, base), period, -point).canonical()


def _dc_from_written(sign: int, finite: DecimalNumber, point: int, period) -> DcNumber:
    """Canonical sign * (finite + 0.(period) * base**-point), period None for
    none: the one route from a written form, a literal's or a WCP's, to a value."""
    base = finite.base
    if period is None:
        value = DcNumber(finite, CircularWord((0,), base))
    else:
        carry, circ = scalar_action(DecimalNumber.from_scaled(1, point, base), period)
        value = DcNumber(finite + carry, circ)
    value = value.canonical()
    return -value if sign < 0 else value


def dc_from_wcp(x: WcpNumber) -> DcNumber:
    finite = DecimalNumber.from_scaled(x.aperiodic_value, -x.point, x.base)
    return _dc_from_written(x.sign, finite, -x.point, x.period)


def from_ratio(num: int, den: int, base: int) -> DcNumber:
    """The canonical expansion of num/den, in closed form.

    In lowest terms write den = c * v' with v' the part coprime to the
    base and c dividing base**t, t minimal.  Then num/den is
    (whole + r/v') / base**t, where whole and r come from one division
    of num * base**t / c by v'.  With r2 = r * base**-t mod v',
    r/v' / base**t == f / base**t + r2/v' for f = (r - r2 * base**t) / v',
    an exact division with |f| < base**t: the finite part is whole + f at
    point t, and the period is the word of r2/v' (``repeating_word``).
    """
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if base < 2:
        raise ValueError("base must be >= 2")
    negative = (num < 0) != (den < 0)
    num, den = abs(num), abs(den)
    g = gcd(num, den)
    num, den = num // g, den // g
    t, coprime = split_denominator(den, base)
    power = base**t
    whole, r = divmod(num * (power // (den // coprime)), coprime)
    r2 = r * pow(base, -t, coprime) % coprime
    finite = DecimalNumber.from_scaled(whole + (r - r2 * power) // coprime, t, base)
    value = DcNumber(finite, repeating_word(r2, coprime, base)).canonical()
    return -value if negative else value


def from_fraction(u: int, v: int, base: int) -> DcNumber:
    if v < 1:
        raise ValueError("denominator must be >= 1")
    return from_ratio(u, v, base)


def to_fraction(x) -> Fraction:
    return x.to_fraction()


# -- the cancellation demonstration ------------------------------------


@dataclass(frozen=True)
class CancellationReport:
    """Both ways of writing a + x when a carries the all-(base-1) period:
    as given, and with the period bumped into the finite part.  The digit
    results coincide, which is what forces the identification."""

    nines_form: DcNumber
    bumped_form: DcNumber
    nines_sum: DcNumber
    bumped_sum: DcNumber

    @property
    def identical(self) -> bool:
        return (
            self.nines_sum.delta == self.bumped_sum.delta
            and self.nines_sum.period == self.bumped_sum.period
        )

    def __str__(self) -> str:
        lines = [
            f"  {self.nines_form} + x = {self.nines_sum}",
            f"  {self.bumped_form} + x = {self.bumped_sum}",
            "identical digit results force the identification"
            if self.identical
            else "results differ",
        ]
        return "\n".join(lines)


def cancellation_demo(a: DcNumber, x: DcNumber) -> CancellationReport:
    """Add x to the two denotations of the same value a and report that
    the digit-level sums coincide.

    ``a`` must carry an all-(base-1) period and ``x`` a nontrivial one;
    with a trivial period the two routes stay distinguishable and the
    demonstration says nothing.
    """
    if a.period.digits.count(a.base - 1) != len(a.period):
        raise ValueError("demonstration input must carry the all-(base-1) period")
    if x.period.valuation == 0:
        raise ValueError("x must have a nontrivial period")
    bumped = DcNumber(a.delta + 1, CircularWord((0,) * len(a.period), a.base))
    sum_nines = a._add_raw(x)
    sum_bumped = bumped._add_raw(x)
    return CancellationReport(a, bumped, sum_nines, sum_bumped)


__all__ = [
    "CancellationReport",
    "DcNumber",
    "Fraction",
    "WcpNumber",
    "align",
    "cancellation_demo",
    "dc_from_wcp",
    "from_fraction",
    "from_ratio",
    "semiotic_compare",
    "to_fraction",
    "wcp_compare",
    "wcp_from_dc",
]
