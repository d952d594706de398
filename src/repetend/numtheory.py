"""Period-length laws, repunit divisibility, product-length bounds, and
the integer-or-irrational classifier for monic polynomials.

The tests pair the closed formulas here with brute-force scans and
confront the two ("formula value" vs. "first n that actually works").
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, isqrt, lcm, log10

from . import config
from .errors import CapacityError
from .words import power_less_one


def multiplicative_order(b: int, v: int) -> int:
    """Smallest ell >= 1 with b**ell == 1 (mod v); requires gcd(b, v) == 1.

    This is the period length of every reduced u/v in base b.  Shanks'
    baby-step giant-step within n = min(``config.period_cap``, v - 1):
    with s = isqrt(n) + 1, tabulate b**j for j < s, then look up b**(i*s)
    for i = 1..s.  The first hit b**(i*s) == b**j gives the order i*s - j,
    and no hit means an order past s*s > n; at most 2*s multiplications
    mod v.  An order beyond the cap raises :class:`CapacityError`.
    """
    if v < 1:
        raise ValueError("modulus must be >= 1")
    if gcd(b, v) != 1:
        raise ValueError(f"{b} is not invertible modulo {v}")
    cap = config.period_cap
    steps = isqrt(min(cap, v - 1)) + 1
    baby = {}
    power = 1 % v  # so that v == 1 has order 1, at the first giant step
    for j in range(steps):
        if j and power == 1:
            return j  # j <= isqrt(min(cap, v - 1)) <= cap
        baby[power] = j
        power = power * b % v
    giant = power
    for i in range(1, steps + 1):
        j = baby.get(giant)
        if j is not None:
            order = i * steps - j
            if order <= cap:
                return order
            break
        giant = giant * power % v
    shown = v if v.bit_length() <= 64 else f"a {v.bit_length()}-bit modulus"
    raise CapacityError(f"multiplicative order of {b} mod {shown} exceeds {cap}")


def split_denominator(v: int, b: int) -> tuple[int, int]:
    """Split v into (t, v') with v' the part coprime to b and t minimal
    such that v divides v' * b**t."""
    if v < 1:
        raise ValueError("v must be >= 1")
    # the part of v made of b's primes: squaring a divisor of it doubles
    # each exponent, until gcd with v caps them all
    carried = gcd(v, b)
    while (wider := gcd(v, carried * carried)) != carried:
        carried = wider
    # the least t with carried | b**t is at most the largest prime
    # exponent of carried, so below its bit length
    exponents = range(carried.bit_length())
    t = bisect_left(exponents, True, key=lambda e: pow(b, e, carried) == 0)
    return t, v // carried


@dataclass(frozen=True)
class PeriodLengthReport:
    """How 1/v expands in base b: aperiodic prefix, period, and the
    witness M with M * (coprime part of v) == b**period_len - 1."""

    v: int
    base: int
    aperiodic_len: int
    period_len: int
    witness: int


def period_length(v: int, b: int) -> PeriodLengthReport:
    t, coprime = split_denominator(v, b)
    ell = multiplicative_order(b, coprime)
    witness = power_less_one(b, ell) // coprime
    return PeriodLengthReport(v, b, t, ell, witness)


def product_period_length(ell: int, ell2: int, b: int) -> int:
    """Smallest n with (b**ell - 1)(b**ell2 - 1) dividing b**n - 1, refused past
    the period cap in digits: (b**g - 1) * lcm(ell, ell2), g = gcd(ell, ell2)."""
    if ell < 1 or ell2 < 1:
        raise ValueError("lengths must be >= 1")
    if b < 2:
        raise ValueError("base must be >= 2")
    g = gcd(ell, ell2)
    num, den = log10(b).as_integer_ratio()  # b**g has g * log10(b) digits; no float overflow
    config.check_period(g * num // den, "product period length")
    return power_less_one(b, g) * lcm(ell, ell2)


def integer_nth_root(m: int, n: int) -> int | None:
    """Exact r with r**n == m for m >= 0, or None.

    Integer Newton from 2**ceil(bits/n), which is at least the root, so
    the iterates fall monotonically to floor(m**(1/n)); no floats, so any
    size works.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if m in (0, 1):
        return m
    r = 1 << -(-m.bit_length() // n)
    while (s := ((n - 1) * r + m // r ** (n - 1)) // n) < r:
        r = s
    return r if r**n == m else None


@dataclass(frozen=True, init=False)
class UnitaryPolynomial:
    """A monic polynomial held as its nonzero terms, (exponent, coefficient)
    by falling exponent, from ascending coefficients or a map exponent ->
    coefficient whose highest exponent is the degree and carries a 1.
    Coefficients are integers or exact base-b decimals."""

    terms: tuple

    def __init__(self, coefficients):
        written = coefficients if isinstance(coefficients, dict) else dict(enumerate(coefficients))
        degree = max(written, default=0)
        if degree < 1:
            raise ValueError("polynomial must have degree >= 1")
        lead = written[degree]
        if lead - 1:  # 0 for a lead of 1, integer or decimal
            raise ValueError(f"leading coefficient must be 1, got {lead}")
        terms = tuple((e, written[e]) for e in sorted(written, reverse=True) if written[e])
        object.__setattr__(self, "terms", terms)

    @property
    def degree(self) -> int:
        return self.terms[0][0]

    def __call__(self, x):
        return _evaluate(self.terms, x)


@dataclass(frozen=True)
class RootClassification:
    """Integer roots of a monic integer polynomial, plus the guarantee
    that every remaining real root is irrational."""

    integer_roots: tuple[int, ...]
    verdict: str


def classify_root(poly: UnitaryPolynomial) -> RootClassification:
    """Find all integer roots of a monic polynomial over the integers.

    No factoring: after X**k is peeled off (0 is a root when k > 0),
    :func:`_root_floors` isolates the roots by exact sign changes within
    the bound the coefficients give.  Any real root that is not in the
    returned list is irrational: a monic integer polynomial has no
    non-integer rational roots.
    """
    if any(not isinstance(c, int) for _, c in poly.terms):
        raise ValueError("integer classifier needs integer coefficients")
    k = poly.terms[-1][0]
    roots = {0} if k else set()
    f = tuple((e - k, c) for e, c in poly.terms)
    if len(f) > 1:
        floors = _root_floors(f)
        roots.update(x for x in floors if _evaluate(f, x) == 0)
    roots = sorted(roots)
    if roots:
        verdict = "all real roots outside the integer list are irrational"
    else:
        verdict = "no integer roots; all real roots are irrational"
    return RootClassification(tuple(roots), verdict)


def _evaluate(terms, x):
    """Horner's rule on terms by falling exponent, one power of x per gap."""
    acc, last = 0, terms[0][0]
    for e, c in terms:
        acc = acc * x ** (last - e) + c
        last = e
    return acc * x**last


def _root_floors(f: tuple) -> set[int]:
    """Integers of [-hi, hi] including every x with f(x) == 0 or a root of
    f in (x, x + 1); f is monic, its terms by falling exponent, f(0) != 0.

    Every root z has |z| <= 2 max |a_i|**(1/(n-i)) (Fujiwara), so below
    hi, that bound with each term rounded up to a power of two; by
    Gauss-Lucas the roots of every derivative lie there too.  Cut at the
    floors of the roots of f' and one past them.  Between two cuts f is
    monotone, so bisecting each sign change finds a floor; or the piece
    is (x, x + 1) around a root of f', and x is listed already.  The
    chain f**(k)/k!, exact with the signs of f**(k), is built from the
    linear one up to f as it is read, one level held at a time and only
    its nonzero terms; n(n+1)/2 coefficients, dense, past the enumeration
    cap raise :class:`CapacityError` before any of it is built.
    """
    n = f[0][0]
    chain = f"coefficients in the derivative chain of a degree-{n} polynomial"
    config.check_enumeration(n * (n + 1) // 2, chain)
    hi = 2 << max(-(-abs(c).bit_length() // (n - e)) for e, c in f[1:])
    written = dict(f)
    g = [(0, 1)]  # f**(n)/n!
    floors = set()
    for k in range(n - 1, -1, -1):  # floors holds those of g's derivative
        # g becomes f**(k)/k!, as binom(j + k, k) = binom(j + k, k + 1) (k + 1) / j
        g = [(e + 1, c * (k + 1) // (e + 1)) for e, c in g]
        if k in written:
            g.append((0, written[k]))
        cuts = sorted({-hi, hi} | floors | {x + 1 for x in floors if x < hi})
        values = [_evaluate(g, x) for x in cuts]
        floors.update(x for x, y in zip(cuts, values) if y == 0)
        for a, b, fa, fb in zip(cuts, cuts[1:], values, values[1:]):
            if fa * fb < 0:
                while b - a > 1:
                    mid = (a + b) // 2
                    if (_evaluate(g, mid) < 0) == (fa < 0):
                        a = mid
                    else:
                        b = mid
                floors.update((a, b))
    return floors


@dataclass(frozen=True)
class DecimalRootClassification:
    """Roots with finite base-b expansions, the argument used, and the
    guarantee that every remaining real root is irrational."""

    roots: tuple
    verdict: str
    argument: str


def classify_root_decimal(poly: UnitaryPolynomial, b: int) -> DecimalRootClassification:
    """Find all roots of a monic polynomial over exact base-b decimals
    that are themselves finite base-b decimals.

    For a pure power X**n - d (its only exponents n and 0) the
    digit-count criterion applies: if d has k fractional digits in lowest
    terms then d itself, raised from a root with j fractional digits, must
    satisfy n*j == k, so n not dividing k settles irrationality outright.
    The general case rescales X by a power of b, term by term, so every
    finite-decimal root becomes an integer root of a monic integer
    polynomial for :func:`classify_root`; the cap of its chain, of degree
    n less the lowest exponent, is decided before any power of b is built.
    """
    from .decimals import DecimalNumber

    zero = DecimalNumber.zero(b)
    terms = [(e, zero + c) for e, c in poly.terms]  # ints read in base b, other bases refused
    n = poly.degree

    if n >= 2 and {e for e, _ in terms} <= {n, 0}:
        d = -dict(terms).get(0, zero)
        k = d.point
        if k % n != 0:
            why = f"a decimal root with j fractional digits needs {n}*j == {k}, impossible"
            return _decimal_report([], b, f"digit-count: {why}")
        scaled = d.scaled  # d = scaled / b**k in lowest terms
        root_point = k // n
        roots = []
        r = integer_nth_root(abs(scaled), n)
        if r is not None:
            if scaled >= 0:
                roots.append(DecimalNumber.from_scaled(r, root_point, b))
                if n % 2 == 0 and r != 0:
                    roots.append(DecimalNumber.from_scaled(-r, root_point, b))
            elif n % 2 == 1:
                roots.append(DecimalNumber.from_scaled(-r, root_point, b))
        return _decimal_report(roots, b, "digit-count plus exact integer root")

    m = n - terms[-1][0]  # the degree once factors of X are peeled off
    chain = f"coefficients in the derivative chain of a degree-{m} polynomial"
    config.check_enumeration(m * (m + 1) // 2, chain)
    # rescale so finite-decimal roots become integer roots: X = Y / b**t
    t = max((-(-c.point // (n - e)) for e, c in terms[1:]), default=0)
    rescaled = {e: c.scaled * b ** (t * (n - e) - c.point) for e, c in terms}
    integer_roots = classify_root(UnitaryPolynomial(rescaled)).integer_roots
    roots = [DecimalNumber.from_scaled(y, t, b) for y in integer_roots]
    return _decimal_report(roots, b, f"rescaled by {b}**{t} to an integer polynomial")


def _decimal_report(roots, b: int, argument: str) -> DecimalRootClassification:
    if roots:
        verdict = f"all real roots outside the base-{b} decimal list are irrational"
    else:
        verdict = f"no base-{b} decimal roots; all real roots are irrational"
    return DecimalRootClassification(tuple(roots), verdict, argument)


def period_growth(p, n_max: int) -> list[int]:
    """Primitive period length of the k-th circular power of p, k = 1..n_max.

    Powers are taken with the circular product; the reported length is
    that of the value's shortest period.  The sequence is unbounded but
    not monotone.  A count past the period cap is refused up front.
    """
    from .group import StarElement

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = StarElement.of(p) if not isinstance(p, StarElement) else p
    if base.representative.valuation == 0:
        raise ValueError("period growth needs a nontrivial word")
    config.check_period(n_max, "period growth list")
    if base.representative.digits == (base.base - 1,):  # 0.(b-1) = 1: its powers are itself
        return [1] * n_max
    lengths, acc = [len(base.representative)], base
    for _ in range(n_max - 1):
        acc = acc * base
        lengths.append(len(acc.representative))
    return lengths
