"""Period-length laws, repunit divisibility, product-length bounds, and
the integer-or-irrational classifier for monic polynomials.

Every closed formula here is paired with a brute-force scan so tests can
confront the two ("formula value" vs. "first n that actually works").
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, gcd, isqrt, lcm

from . import config
from .errors import CapacityError


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
    witness = (b**ell - 1) // coprime
    return PeriodLengthReport(v, b, t, ell, witness)


def lcm_divisibility(ell: int, ell2: int, b: int) -> int:
    """Smallest n with b**n - 1 divisible by both b**ell - 1 and
    b**ell2 - 1; equals lcm(ell, ell2)."""
    if ell < 1 or ell2 < 1:
        raise ValueError("lengths must be >= 1")
    if b < 2:
        raise ValueError("base must be >= 2")
    return lcm(ell, ell2)


def lcm_divisibility_scan(ell: int, ell2: int, b: int, limit: int) -> int:
    """Brute-force companion of :func:`lcm_divisibility`: scan n upward."""
    d1, d2 = b**ell - 1, b**ell2 - 1
    for n in range(1, limit + 1):
        m = b**n - 1
        if m % d1 == 0 and m % d2 == 0:
            return n
    raise ValueError(f"no n <= {limit} found")


def product_period_length(ell: int, ell2: int, b: int) -> int:
    """Smallest n with (b**ell - 1)(b**ell2 - 1) dividing b**n - 1:
    (b**gcd(ell, ell2) - 1) * lcm(ell, ell2)."""
    if ell < 1 or ell2 < 1:
        raise ValueError("lengths must be >= 1")
    if b < 2:
        raise ValueError("base must be >= 2")
    return (b ** gcd(ell, ell2) - 1) * lcm(ell, ell2)


def product_period_scan(ell: int, ell2: int, b: int, limit: int | None = None) -> int:
    """Brute-force minimal n with (b**ell - 1)(b**ell2 - 1) | b**n - 1.

    Only multiples of lcm(ell, ell2) can work, so the scan steps by the
    lcm with an incrementally maintained power.
    """
    modulus = (b**ell - 1) * (b**ell2 - 1)
    m = lcm(ell, ell2)
    if limit is None:
        limit = product_period_length(ell, ell2, b)
    step = pow(b, m, modulus)
    acc = step
    n = m
    while acc != 1 % modulus:
        n += m
        if n > limit:
            raise ValueError(f"no n <= {limit} found")
        acc = acc * step % modulus
    return n


def general_square_length(b: int) -> int:
    """Generic minimal period of a product of two length-2 periods."""
    if b < 2:
        raise ValueError("base must be >= 2")
    return 2 * (b**2 - 1)


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


@dataclass(frozen=True)
class UnitaryPolynomial:
    """A monic polynomial; coefficients ascending, integers or exact
    base-b decimals (anything with the arithmetic the evaluator needs)."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("degree must be >= 1")
        lead = coeffs[-1]
        if not _is_one(lead):
            raise ValueError(f"leading coefficient must be 1, got {lead}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return _evaluate(self.coefficients, x)


def _is_one(c) -> bool:
    if isinstance(c, int):
        return c == 1
    is_one = getattr(c, "is_one", None)
    return is_one() if callable(is_one) else False


@dataclass(frozen=True)
class RootClassification:
    """Integer roots of a monic integer polynomial, plus the guarantee
    that every remaining real root is irrational."""

    integer_roots: tuple[int, ...]
    verdict: str


def classify_root(
    poly: UnitaryPolynomial, search_bound: int | None = None
) -> RootClassification:
    """Find all integer roots of a monic polynomial over the integers.

    No factoring: the roots lie within the Cauchy bound 1 + max |a_i|
    (or ``search_bound``, if smaller), where :func:`_root_floors` isolates
    them by exact sign changes.  Any real root that is not in the returned
    list is irrational: a monic integer polynomial has no non-integer
    rational roots.
    """
    coeffs = list(poly.coefficients)
    if any(not isinstance(c, int) for c in coeffs):
        raise ValueError("integer classifier needs integer coefficients")
    roots = set()
    while len(coeffs) > 1 and coeffs[0] == 0:
        # zero constant term: 0 is a root, peel one factor of X
        roots.add(0)
        coeffs = coeffs[1:]
    if len(coeffs) > 1:
        bound = 1 + max(abs(c) for c in coeffs[:-1])
        if search_bound is not None:
            bound = max(0, min(bound, search_bound))
        floors = _root_floors(coeffs, -bound, bound)
        roots.update(x for x in floors if _evaluate(coeffs, x) == 0)
    roots = sorted(roots)
    if roots:
        verdict = "all real roots outside the integer list are irrational"
    else:
        verdict = "no integer roots; all real roots are irrational"
    return RootClassification(tuple(roots), verdict)


def _evaluate(f, x):
    """Horner's rule on ascending coefficients."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _root_floors(f: list[int], lo: int, hi: int) -> set[int]:
    """Integers of [lo, hi] including every x with f(x) == 0 or a root of
    f in (x, x + 1); f has ascending coefficients, not all zero.

    Cut at the floors of the roots of f' and one past them.  Between two
    cuts f is monotone, so bisecting each sign change finds a floor; or
    the piece is (x, x + 1) around a root of f', and x is listed already.
    """
    chain = [f]  # f and its derivatives, down to the linear one
    while len(chain[-1]) > 2:
        chain.append([i * c for i, c in enumerate(chain[-1])][1:])
    floors = set()
    for g in reversed(chain):  # floors holds those of g's derivative
        cuts = sorted({lo, hi} | floors | {x + 1 for x in floors if x < hi})
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

    For a pure power X**n - d the digit-count criterion applies: if d has
    k fractional digits in lowest terms then d itself, raised from a root
    with j fractional digits, must satisfy n*j == k, so n not dividing k
    settles irrationality outright.  The general case rescales X by a
    power of b so every finite-decimal root becomes an integer root of a
    monic integer polynomial, handled by :func:`classify_root`.
    """
    from .decimals import DecimalNumber

    coeffs = [
        c if isinstance(c, DecimalNumber) else DecimalNumber.from_int(c, b)
        for c in poly.coefficients
    ]
    if any(c.base != b for c in coeffs):
        raise ValueError("coefficient base mismatch")
    n = len(coeffs) - 1

    if n >= 2 and all(c.is_zero() for c in coeffs[1:-1]):
        d = -coeffs[0]
        k = d.point
        if k % n != 0:
            return DecimalRootClassification(
                (),
                f"no base-{b} decimal roots; all real roots are irrational",
                f"digit-count: a decimal root with j fractional digits needs "
                f"{n}*j == {k}, impossible",
            )
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

    # rescale so finite-decimal roots become integer roots: X = Y / b**t
    t = 0
    for i, c in enumerate(coeffs[:-1]):
        if not c.is_zero():
            t = max(t, ceil(c.point / (n - i)))
    int_coeffs = []
    for i, c in enumerate(coeffs[:-1]):
        scale = t * (n - i) - c.point
        int_coeffs.append(c.scaled * b**scale)
    int_coeffs.append(1)
    integer_roots = classify_root(UnitaryPolynomial(tuple(int_coeffs))).integer_roots
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
    not monotone.
    """
    from .group import StarElement

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = StarElement.of(p) if not isinstance(p, StarElement) else p
    if base.representative.valuation == 0:
        raise ValueError("period growth needs a nontrivial word")
    lengths = []
    acc = base
    for k in range(1, n_max + 1):
        if k > 1:
            acc = acc * base
        lengths.append(len(acc.representative))
    return lengths
