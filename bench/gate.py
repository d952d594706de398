"""Independent correctness gate for the benchmark.

Expected values come from ``repetend.oracle.Fraction``, starting from this
module's own reading of each literal (``notation.parse`` is never used
here).  A formatted result is checked digit by digit against
``oracle.expansion_digits``; the claimed period is confirmed to close the
long-division cycle and to be primitive, and the preperiod to be minimal.
An op whose true result period exceeds the period cap passes only if it
raised ``CapacityError``.

The number theory below (primality, factoring, multiplicative order) is
deliberately separate from ``repetend.numtheory`` so that the gate does
not share code with what it checks.
"""

from __future__ import annotations

import re
from itertools import count
from math import gcd, lcm

from repetend import oracle

DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

_LITERAL = re.compile(
    r"^(?P<sign>-?)(?P<whole>[0-9A-Z]*)"
    r"(?:\.(?P<frac>[0-9A-Z]*))?(?:\((?P<period>[0-9A-Z]+)\))?$"
)

CAP = "CapacityError"  # the outcome recorded for an op that hit the cap


# -- number theory --------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard's rho)."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return factors


def multiplicative_order(b: int, n: int) -> int:
    """Smallest k >= 1 with b**k == 1 (mod n); gcd(b, n) must be 1."""
    if n == 1:
        return 1
    lam = 1
    for p, k in factorize(n).items():
        if p == 2:
            lam = lcm(lam, 1 if k == 1 else 2 if k == 2 else 2 ** (k - 2))
        else:
            lam = lcm(lam, p ** (k - 1) * (p - 1))
    for q in factorize(lam):
        while lam % q == 0 and pow(b, lam // q, n) == 1:
            lam //= q
    return lam


def expansion_shape(x: oracle.Fraction, base: int) -> tuple[int, int]:
    """(preperiod, period) of the base-``base`` expansion of x; the period
    of a terminating expansion is 0."""
    v = x.denominator
    coprime = v
    while (g := gcd(coprime, base)) > 1:
        coprime //= g
    carried = v // coprime
    pre, power = 0, 1
    while power % carried:
        pre += 1
        power *= base
    period = 0 if coprime == 1 else multiplicative_order(base, coprime)
    return pre, period


# -- reading literals and expressions -------------------------------------


def _digit_value(text: str, base: int) -> int:
    value = 0
    for ch in text:
        d = DIGITS.index(ch)
        if d >= base:
            raise ValueError(f"digit {ch!r} out of range for base {base}")
        value = value * base + d
    return value


def read_literal(text: str, base: int) -> oracle.Fraction:
    """Value of ``[-]INT[.FRAC][(PERIOD)]`` as an oracle fraction."""
    m = _LITERAL.match(text.upper())
    if not m:
        raise ValueError(f"not a literal: {text!r}")
    whole, frac, period = m["whole"], m["frac"] or "", m["period"] or ""
    scale = base ** len(frac)
    value = oracle.Fraction(_digit_value(whole + frac, base), scale)
    if period:
        repunit = base ** len(period) - 1
        value = value + oracle.Fraction(_digit_value(period, base), scale * repunit)
    return -value if m["sign"] else value


def evaluate(expr, base: int):
    """Expected value of an op expression: a Fraction, or -1/0/1 for cmp.

    Expressions are nested lists: ``["lit", text]``, ``["ff", u, v]``
    (from_fraction) and ``[op, lhs, rhs]`` for op in + - * / cmp.
    """
    kind = expr[0]
    if kind == "lit":
        return read_literal(expr[1], base)
    if kind == "ff":
        return oracle.Fraction(expr[1], expr[2])
    lhs, rhs = evaluate(expr[1], base), evaluate(expr[2], base)
    if kind == "+":
        return lhs + rhs
    if kind == "-":
        return lhs - rhs
    if kind == "*":
        return lhs * rhs
    if kind == "/":
        return lhs / rhs
    if kind == "cmp":
        return oracle.compare(lhs, rhs)
    raise ValueError(f"unknown op {kind!r}")


def max_period(expr, base: int) -> int:
    """Longest expansion period of the op's result and its operands.

    This is the size the cap is about: any of them over the cap makes
    the op a cap hit.
    """
    value = evaluate(expr, base)
    own = 0 if isinstance(value, int) else expansion_shape(value, base)[1]
    if expr[0] in ("lit", "ff"):
        return own
    return max(own, max_period(expr[1], base), max_period(expr[2], base))


def expect(op: dict, cap: int):
    """The outcome an op must produce: a Fraction, an int, or CAP."""
    if max_period(op["expr"], op["base"]) > cap:
        return CAP
    return evaluate(op["expr"], op["base"])


# -- checking outputs -------------------------------------------------------


def _whole_digits(n: int, base: int) -> str:
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(DIGITS[d])
    return "".join(reversed(out)) or "0"


def check_literal(text: str, x: oracle.Fraction, base: int) -> str | None:
    """None if ``text`` is the canonical literal of x, else the reason."""
    m = _LITERAL.match(text)
    if not m:
        return f"unreadable output {text[:40]!r}"
    negative = x.numerator < 0
    if (m["sign"] == "-") != negative:
        return "wrong sign"
    u, v = abs(x.numerator), x.denominator
    if m["whole"] != _whole_digits(u // v, base):
        return f"whole part {m['whole'][:40]!r} is wrong"
    frac, period = m["frac"] or "", m["period"] or ""
    if m["frac"] is not None and not frac and not period:
        return "empty fraction after the point"
    r = u % v
    expected = oracle.expansion_digits(r, v, base, len(frac) + len(period))
    for i, (ch, d) in enumerate(zip(frac + period, expected)):
        if ch != DIGITS[d]:
            return f"digit {i} after the point is {ch!r}, expected {DIGITS[d]!r}"
    r_pre = r * pow(base, len(frac), v) % v
    if not period:
        if r_pre:
            return "expansion does not terminate where the output ends"
        if frac.endswith("0"):
            return "trailing zero in a terminating fraction"
        return None
    if m["frac"] is None:
        return "period without a point before it"
    if not r_pre:
        return "terminating expansion printed with a period"
    if r * pow(base, len(frac) + len(period), v) % v != r_pre:
        return "period does not close the long-division cycle"
    if (period + period).find(period, 1) != len(period):
        return "period is not primitive"
    if frac and frac[-1] == period[-1]:
        return "preperiod is not minimal"
    return None


def check(expected, outcome, base: int) -> str | None:
    """None if the op's outcome matches the expectation, else the reason."""
    if expected == CAP:
        return None if outcome == CAP else "expected CapacityError"
    if outcome == CAP:
        return "unexpected CapacityError"
    if isinstance(expected, int):
        return None if outcome == expected else f"compare gave {outcome!r}"
    if not isinstance(outcome, str):
        return f"unexpected outcome {outcome!r}"
    return check_literal(outcome, expected, base)
