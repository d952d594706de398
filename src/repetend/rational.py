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
identifications, so that equal values have equal canonical forms, and
returns a canonical value as it is.  They live in the DC form (primitive
period, no all-(base-1) period); a WCP is canonicalized by the round trip
through it, and ``wcp_from_dc`` writes the canonical WCP with no second
pass.  Arithmetic accepts raw inputs and returns canonical results; the
semiotic order and the cancellation demonstration deliberately keep
pre-identification forms visible.

Fractions appear only at the explicit conversion endpoints.  Reading and
writing move letters across the point by one rule (``words._crossing``);
only arithmetic reads a period's value: one lifted sum carries sums and
products (``words._lifted_sum``), and negation is closed form, since a
period and its complement sum to 0.(b-1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .decimals import DecimalNumber, scalar_action
from .group import StarElement, repeating_word
from .numtheory import split_denominator
from .oracle import Fraction
from .words import (
    CircularWord,
    _check_digits,
    _common_length,
    _crossing,
    _is_null,
    _lifted_sum,
    _minimal_digits,
    _ratio,
    _spell,
    digits_to_int,
    int_to_digits,  # noqa: F401  bench/spans.py traces it under this name
)


def _carried_sum(delta: DecimalNumber, periods, what: str) -> "DcNumber":
    """delta plus the periods' lifted sum; a carry of 0 leaves delta as it is."""
    carry, word = _lifted_sum(periods, what)
    return DcNumber(delta + carry if carry else delta, word)


@dataclass(frozen=True)
class DcNumber:
    """A finite decimal plus a period starting right after the point."""

    delta: DecimalNumber
    period: CircularWord

    def __post_init__(self):
        if self.delta.base != self.period.base:
            raise ValueError(f"mixed bases {self.delta.base} and {self.period.base}")

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
        """Read from letters: a canonical period is below 1, so negative when
        delta < 0 and the period's first delta.point letters spell less than -delta.scaled."""
        x = self.canonical()
        d = x.delta
        return d.scaled < 0 and digits_to_int(_crossing(x.period, d.point), x.base) < -d.scaled

    def as_ratio(self) -> tuple[int, int]:
        """(numerator, denominator) with the denominator positive; exact,
        not necessarily reduced: delta plus the period's value u/v."""
        u, v = _ratio(self.period)
        scale = self.base**self.delta.point
        return self.delta.scaled * v + scale * u, scale * v

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
        return _carried_sum(self.delta + other.delta, (self.period, other.period), "lifted sum")

    def __add__(self, other: "DcNumber") -> "DcNumber":
        return self._add_raw(other).canonical()

    def __neg__(self) -> "DcNumber":
        """Closed form: 0.(P) plus its complement 0.(P') is 0.(b-1) = 1, so
        -(d + 0.(P)) = (-d - 1) + 0.(P'), canonical as it stands."""
        x = self.canonical()
        d = x.delta
        if _is_null(x.period):
            return DcNumber(-d, x.period)
        d = DecimalNumber.from_scaled(-d.scaled - d.base**d.point, d.point, d.base)
        return DcNumber(d, x.period.complement())

    def __sub__(self, other: "DcNumber") -> "DcNumber":
        return self + (-other)

    def __mul__(self, other: "DcNumber") -> "DcNumber":
        """Product via the split form: finite*finite, two scalar actions
        for the cross terms, and the circular product of the periods; the
        three periodic contributions are summed with their carry."""
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        x, y = self.canonical(), other.canonical()
        carry1, circ1 = scalar_action(x.delta, y.period)
        carry2, circ2 = scalar_action(y.delta, x.period)
        prod = (StarElement.of(x.period) * StarElement.of(y.period)).representative
        delta = x.delta * y.delta + carry1 + carry2
        return _carried_sum(delta, (prod, circ1, circ2), "lifted product").canonical()

    def __truediv__(self, other: "DcNumber") -> "DcNumber":
        num_x, den_x = self.as_ratio()
        num_y, den_y = other.as_ratio()
        if num_y == 0:
            raise ZeroDivisionError("division by zero")
        return from_ratio(num_x * den_y, den_x * num_y, self.base)

    # -- order ---------------------------------------------------------

    def compare(self, other: "DcNumber") -> int:
        """-1, 0 or 1; exact, evaluated on integers only: one
        cross-multiplication of the two values as fractions.  Canonical
        forms are equal exactly when the values are; the periods' common
        length is still capped, as a lifted comparison.
        """
        if self.base != other.base:
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        x, y = self.canonical(), other.canonical()
        if x == y:
            return 0
        _common_length((x.period, y.period), "lifted comparison")
        (nx, dx), (ny, dy) = x.as_ratio(), y.as_ratio()
        return -1 if nx * dy < ny * dx else 1

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

    @cached_property
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
        """The round trip through the DC form, where the identifications
        live: this number itself when that changes nothing."""
        if "_canonical" not in self.__dict__:
            form = wcp_from_dc(dc_from_wcp(self))
            if form != self:
                return form
            self.__dict__["_canonical"] = True
        return self

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
    length = _common_length((x.period, y.period), "aligned period")
    width = max(len(x.aperiodic), len(y.aperiodic), 1)
    pad = lambda w: (0,) * (width - len(w.aperiodic)) + w.aperiodic
    return tuple(WcpNumber(w.sign, pad(w), w.period.lift(length), point) for w in (x, y))


def _lower_point(x: WcpNumber, point: int) -> WcpNumber:
    """Shift identification: the x.point - point letters of the period that
    cross the point (``words._crossing``) join the aperiodic part, and the
    period rotates past them (point <= x.point)."""
    k = x.point - point
    moved = _crossing(x.period, k)
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
    """The canonical written form of x, with no second pass: its magnitude,
    negated once, and its sign; the DC form has made the identifications.
    For a finite part with c letters after the point, the period's first c
    letters cross it (``words._crossing``) and the period rotates past them."""
    x = x.canonical()
    sign, x = (-1, -x) if x.is_negative() else (1, x)
    base, point, period = x.base, x.delta.point, x.period
    shifted = digits_to_int(_crossing(period, point), base)
    digits = _minimal_digits(x.delta.scaled + shifted, base)
    digits = (0,) * (point + 1 - len(digits)) + digits  # the letters to the point
    k = 0  # letters the period takes back
    if point:
        period = period.shift(point)
    elif x.delta or not _is_null(period):
        # unshift: trailing letters that repeat the period's (zeros past the
        # first letter) re-enter it, with one rotation.  Only at point 0: at
        # c > 0 the last letter is the period's letter there plus the finite
        # part's last, which a canonical finite part has nonzero
        while (digits[-1 - k] if k < len(digits) else 0) == period.digits[-1 - k % len(period)]:
            k += 1
        period = period.shift(-k)
    form = WcpNumber(sign, digits[: max(0, len(digits) - k)], period, k - point)
    form.__dict__["_canonical"] = True
    return form


def _dc_from_written(sign: int, finite: DecimalNumber, point: int, period) -> DcNumber:
    """Canonical sign * (finite + 0.(period) * base**-point), period None for
    none: the one route from a written form, a literal's or a WCP's, to a
    value, and so where a WCP's identifications are made.  A period at
    point 0 (``W.(P)``) is taken as it is; elsewhere it rotates by -point,
    and the letters that cross the point (``words._crossing``) move their
    value into the finite part: no value of the period is read."""
    base = finite.base
    if period is None:
        period = CircularWord((0,), base)
    elif point:
        moved = digits_to_int(_crossing(period, -point), base)
        finite += DecimalNumber.from_scaled(-moved, point, base) if point > 0 else moved
        period = period.shift(-point)
    value = DcNumber(finite, period).canonical()
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
        return self.nines_sum == self.bumped_sum  # the same raw delta and period

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
