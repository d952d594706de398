"""Seeded op lists for the three workloads.

An op is ``{"name": str, "base": int, "expr": expr}`` with ``expr`` as in
``gate.evaluate``.  Every list is a pure function of the seed; the same
list is run again and again for the length of a run (one pass is a
round), so per-round counts repeat exactly.

The long workloads run a few long ops whose times span five orders of
magnitude, so their median op time would be one or two samples of
whichever op happens to sit in the middle.  Each therefore carries a
cluster of seeded variants of one mid-sized op (41 products of period
39,996; six quotients of period 20,046 with an aperiodic part), and an
odd op count, so that the median falls inside that cluster.  The larger
the cluster, the less one slow burst of the machine moves that median.

small_ops      short literals in bases 2, 10, 16, 36: per-call overhead in
               notation, rational and decimals dominates and the big-integer
               kernels do almost nothing.
long_product   products whose periods run from 10**4 to 5*10**5 digits,
               a sum and a compare on a long-period value, and a product
               that must hit the cap: words conversions, the group circular
               product and the multiplicative order do the work.
long_quotient  long division with periods from 10**4 to 2*10**5 digits and
               a quotient that must hit the cap: rational.from_ratio and the
               digit strip in DecimalNumber.from_scaled do the work.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd

import gate

# ROADMAP baseline cases, kept verbatim in the workloads under these names.
BASELINE = {
    "small_ops": {
        "roadmap: 24.837(56) + 0.(142857)": "+ 43 us (parse 42 us, format 32 us)",
        "roadmap: 24.837(56) * 0.(142857)": "* 107 us",
        "roadmap: 24.837(56) / 0.(142857)": "/ 54 us",
        "roadmap: 24.837(56) cmp 0.(142857)": "compare 58 us",
        "roadmap: 0.(01)*0.(01)": "0.2 ms, period 198",
    },
    "long_product": {
        "roadmap: 0.(00001)**2": "12.5 s for the whole eval process, period 499,995",
    },
    "long_quotient": {
        "roadmap: 1/1000003": "0.44 s, period 166,667",
        "roadmap: 1/1000730021": "0.63 s to CapacityError",
    },
}


def lit(text: str) -> list:
    return ["lit", text]


def _digits(n: int, base: int, width: int) -> str:
    out = []
    for _ in range(width):
        n, d = divmod(n, base)
        out.append(gate.DIGITS[d])
    return "".join(reversed(out))


def _random_digits(rng: random.Random, base: int, count: int) -> str:
    return "".join(gate.DIGITS[rng.randrange(base)] for _ in range(count))


def _pure_period(rng: random.Random, base: int, length: int) -> str:
    """``0.(P)`` whose value u/(base**length - 1) is already in lowest
    terms, so its period is primitive and any product of two such values
    has the period of the product of the denominators."""
    m = base**length - 1
    while True:
        u = rng.randrange(1, m)
        if gcd(u, m) == 1:
            return f"0.({_digits(u, base, length)})"


def _short_literal(rng: random.Random, base: int) -> str:
    whole = _random_digits(rng, base, rng.randint(0, 4)) or "0"
    frac = _random_digits(rng, base, rng.randint(0, 4))
    period = _random_digits(rng, base, rng.randint(0, 2))
    text = rng.choice(("", "-")) + whole
    if frac or period:
        text += "." + frac + (f"({period})" if period else "")
    return text


SMALL_OPS_COUNT = 4000  # seeded ops, before the ROADMAP cases are added


def small_ops(seed: int) -> list[dict]:
    """Short literals (at most 4 integer and 4 fraction digits, period at
    most 2); ops + - * / cmp and from_fraction.  Ops whose result period
    is over 200 digits (the size of 0.(01)*0.(01)) are dropped."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < SMALL_OPS_COUNT:
        base = rng.choice((2, 10, 16, 36))
        kind = rng.choice(("+", "-", "*", "/", "cmp", "ff"))
        if kind == "ff":
            expr = ["ff", rng.randint(-9999, 9999), rng.randint(1, 999)]
        else:
            expr = [kind, lit(_short_literal(rng, base)), lit(_short_literal(rng, base))]
            if kind == "/" and gate.evaluate(expr[2], base).numerator == 0:
                continue
        if gate.max_period(expr, base) <= 200:
            ops.append({"name": kind, "base": base, "expr": expr})
    a, b = lit("24.837(56)"), lit("0.(142857)")
    for kind in ("+", "*", "/", "cmp"):
        ops.append({"name": f"roadmap: 24.837(56) {kind} 0.(142857)", "base": 10,
                    "expr": [kind, a, b]})
    ops.append({"name": "roadmap: 0.(01)*0.(01)", "base": 10,
                "expr": ["*", lit("0.(01)"), lit("0.(01)")]})
    rng.shuffle(ops)
    return ops


def _spread(cluster: list[dict], others: list[dict]) -> list[dict]:
    """The others in their order, each followed by an even share of the
    cluster.  The peak memory of a long op depends on what ran before it,
    so the order is part of the workload: only the operands vary with the
    seed, and the op that sets the peak goes first, on a fresh heap."""
    out = []
    for i, op in enumerate(others):
        out.append(op)
        out += cluster[i * len(cluster) // len(others) : (i + 1) * len(cluster) // len(others)]
    return out


def long_product(seed: int) -> list[dict]:
    """Seeded operands with the period lengths of the ROADMAP products:
    l * (b**l - 1) digits for a product of two primitive length-l periods."""
    rng = random.Random(seed)

    def square(base: int, length: int, name: str) -> dict:
        x, y = _pure_period(rng, base, length), _pure_period(rng, base, length)
        return {"name": name, "base": base, "expr": ["*", lit(x), lit(y)]}

    long10 = square(10, 4, "b10 4x4 digits (period 39,996)")["expr"]
    cluster = [square(10, 4, "b10 4x4 digits (period 39,996)") for _ in range(41)]
    others = [
        {"name": "roadmap: 0.(00001)**2", "base": 10,
         "expr": ["*", lit("0.(00001)"), lit("0.(00001)")]},
        square(36, 3, "b36 3x3 digits (period 139,965)"),
        square(16, 3, "b16 3x3 digits (period 12,285)"),
        square(2, 10, "b2 10x10 digits (period 10,230)"),
        square(36, 4, "cap: b36 4x4 digits (period 6,718,460)"),
        {"name": "sum on a period of 39,996", "base": 10,
         "expr": ["+", long10, lit(_pure_period(rng, 10, 3))]},
        {"name": "compare on a period of 39,996", "base": 10,
         "expr": ["cmp", long10, lit(_pure_period(rng, 10, 4))]},
    ]
    for base in (2, 10, 36):
        x, y = _pure_period(rng, base, 2), _pure_period(rng, base, 3)
        others.append({"name": f"b{base} 2x3 digits", "base": base,
                       "expr": ["*", lit(x), lit(y)]})
    return _spread(cluster, others)


# Seeded quotients are picked near these periods, each with an aperiodic
# part (the digit strip in from_scaled) or without one (long division only).
_QUOTIENT_TARGETS = (
    (12_000, True), (25_000, True), (50_000, True), (90_000, True),
    (10_000, False), (15_000, False), (20_000, False), (40_000, False),
    (80_000, False),
)


def _fuzz_literal(rng: random.Random, base: int) -> str:
    """A literal in the shape of the Tier-1 fuzz test's raw denotations:
    1 to 6 finite digits with the point anywhere, a 1- to 5-digit period."""
    digits = _random_digits(rng, base, rng.randint(1, 6))
    point = rng.randint(0, len(digits))
    whole, frac = digits[: len(digits) - point] or "0", digits[len(digits) - point :]
    period = _random_digits(rng, base, rng.randint(1, 5))
    return f"{rng.choice(('', '-'))}{whole}.{frac}({period})"


def _seeded_quotient(rng: random.Random, target: int, aperiodic: bool) -> dict:
    while True:
        x, y = lit(_fuzz_literal(rng, 10)), lit(_fuzz_literal(rng, 10))
        divisor = gate.evaluate(y, 10)
        if divisor.numerator == 0:
            continue
        pre, period = gate.expansion_shape(gate.evaluate(x, 10) / divisor, 10)
        if abs(period - target) <= target // 50 and (pre > 0) == aperiodic:
            kind = "aperiodic" if aperiodic else "pure"
            return {"name": f"quotient, {kind}, period ~{target:,}", "base": 10,
                    "expr": ["/", x, y]}


def long_quotient(seed: int) -> list[dict]:
    rng = random.Random(seed)
    p, q = 20047, 50033  # full-reptend primes: period p - 1
    cluster = [
        {"name": f"1/(10*{p})", "base": 10, "expr": ["ff", 1, 10 * p]},
        {"name": f"7/(12*{p})", "base": 10, "expr": ["ff", 7, 12 * p]},
    ]
    for _ in range(2):
        for scale in (10, 12):
            den = scale * p
            u = rng.choice([u for u in range(2, 1000) if gcd(u, den) == 1])
            cluster.append({"name": f"u/({scale}*{p}), seeded u", "base": 10,
                            "expr": ["ff", u, den]})
    others = [
        {"name": "roadmap: 1/1000730021", "base": 10, "expr": ["ff", 1, 1000730021]},
        {"name": "roadmap: 1/1000003", "base": 10, "expr": ["ff", 1, 1000003]},
        {"name": f"1/{p}", "base": 10, "expr": ["ff", 1, p]},
        {"name": f"1/{q}", "base": 10, "expr": ["ff", 1, q]},
        {"name": f"1/(10*{q})", "base": 10, "expr": ["ff", 1, 10 * q]},
        {"name": f"7/(12*{q})", "base": 10, "expr": ["ff", 7, 12 * q]},
    ]
    others += [_seeded_quotient(rng, t, a) for t, a in _QUOTIENT_TARGETS]
    return _spread(cluster, others)


GENERATORS = {
    "small_ops": small_ops,
    "long_product": long_product,
    "long_quotient": long_quotient,
}


def op_hash(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
