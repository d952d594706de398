"""Seeded ``repetend`` command lines and the digest of what each prints.

    PYTHONPATH=src python tests/make_cli_corpus.py [--seed S] [--count N] [--out FILE]

Each line written is the SHA-256 of one ``cli.run`` call's exit code,
stdout and stderr, then its argument list as JSON.  The lines cover every
verb, bases 2 to 36, long periods, small ``--max-period`` values and error
cases; the same seed and count give the same lines.  With no ``--out`` the
lines go to ``tests/cli_corpus.txt``, which ``test_cli_corpus.py`` replays:
regenerate it only where an output changes on purpose.

Usage errors that argparse words itself (an unknown verb, a choice not
offered) are left out: their wording changes between Python versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from repetend import cli

CORPUS = Path(__file__).with_name("cli_corpus.txt")
_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, stdout and stderr of ``cli.run(argv)``."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def _word(rng: random.Random, base: int, count: int) -> str:
    return "".join(rng.choice(_ALPHABET[:base]) for _ in range(count))


def _literal(rng: random.Random, base: int, long: bool = False) -> str:
    """An unsigned literal: now and then lower case, a period of every
    shape (none, all-(base-1), repeated, long), or one bad letter."""
    whole = _word(rng, base, rng.choice([0, 0, 1, 1, 2, 3, 6]))
    frac = _word(rng, base, rng.choice([0, 0, 1, 2, 3, 5]))
    kind, period = rng.random(), None
    if long:
        period = _word(rng, base, rng.choice([rng.randint(100, 1000)] * 9 + [5000]))
    elif kind < 0.3:
        pass
    elif kind < 0.4:
        period = _ALPHABET[base - 1] * rng.randint(1, 3)
    elif kind < 0.5:
        period = _word(rng, base, rng.randint(1, 3)) * rng.randint(2, 3)
    else:
        period = _word(rng, base, rng.randint(1, 3))
    text = whole
    if frac or rng.random() < 0.2:
        text += "." + frac
    if period:
        text += f"({period})"
    text = text or "0"
    if rng.random() < 0.2:
        text = text.lower()
    if rng.random() < 0.03:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(_ALPHABET + "!") + text[i:]
    return text


def _signed(rng, base, long=False) -> str:
    return rng.choice(["", "", "", "-", "+"]) + _literal(rng, base, long)


def _expression(rng, base, long=False, depth=0) -> str:
    """Literals joined by + - * /, in parentheses and under unary minus;
    with ``long``, one long period in a sum."""
    ops = "+-" if long else "+-*/"
    terms = [_literal(rng, base, long and i == 0) for i in range(rng.randint(1 + long, 3))]
    if depth < 1 and rng.random() < 0.3:
        terms[rng.randrange(len(terms))] = f"({_expression(rng, base, False, depth + 1)})"
    text = rng.choice(["", "", "-"]) + terms[0]
    for term in terms[1:]:
        text += f" {rng.choice(ops)} {rng.choice(['', '', '-'])}{term}"
    return text


def _polynomial(rng, base) -> str:
    degree = rng.randint(1, 6)
    text = f"x^{degree}" if degree > 1 else "x"
    for e in sorted(rng.sample(range(degree), rng.randint(0, min(3, degree))), reverse=True):
        coef = str(rng.randint(1, 40))
        if rng.random() < 0.2:
            coef += "." + _word(rng, min(base, 10), rng.randint(1, 2))
        text += rng.choice("+-") + coef + ("" if e == 0 else "x" if e == 1 else f"x^{e}")
    if rng.random() < 0.05:
        text = "2" + text  # not monic
    return text


def _command(rng: random.Random) -> list[str]:
    base = rng.choice([2, 3, 7, 10, 10, 10, 16, 36, rng.randint(2, 36)])
    verb = rng.choices(
        ["eval", "to-frac", "from-frac", "convert", "compare", "period-length",
         "product-length", "fermat", "lucas", "irrational-check", "period-growth", "error"],
        weights=[40, 8, 8, 8, 8, 4, 3, 3, 2, 4, 4, 8],
    )[0]
    options = ["--base", str(base)] if base != 10 or rng.random() < 0.2 else []
    if rng.random() < 0.15:
        options += ["--max-period", str(rng.randint(1, 60))]
    if verb == "eval":
        # a product or quotient of short periods can still have a period
        # of 10**6 letters: its cap stays small, to keep each line quick
        long = rng.random() < 0.05
        expression = _expression(rng, base, long)
        if "--max-period" not in options and ("*" in expression or "/" in expression):
            options += ["--max-period", str(rng.randint(61, 2000))]
        raw = ["--raw"] if rng.random() < 0.1 else []
        return ["eval", *options, *raw, expression]
    if verb == "to-frac":
        return ["to-frac", *options, _signed(rng, base, rng.random() < 0.05)]
    if verb == "from-frac":
        u, v = rng.randint(0, 10**6), rng.choice([0, 1, rng.randint(1, 10**4), rng.randint(1, 10**4)])
        if rng.random() < 0.01:
            v = 1000003
        return ["from-frac", *options, f"{rng.choice(['', '+', '-'])}{u}/{v}"]
    if verb == "convert":
        return ["convert", *options, "--to", rng.choice(["wcp", "dc"]), _signed(rng, base, rng.random() < 0.05)]
    if verb == "compare":
        long = rng.random() < 0.05
        return ["compare", *options, _signed(rng, base, long), _signed(rng, base)]
    if verb == "period-length":
        v = rng.choice([rng.randint(1, 10**4), rng.randint(1, 10**12)])
        if v > 10**4 and "--max-period" not in options:
            options += ["--max-period", str(rng.randint(61, 2000))]
        return ["period-length", *options, str(v)]
    if verb == "product-length":
        return ["product-length", *options, str(rng.randint(-1, 40)), str(rng.randint(1, 40))]
    if verb == "fermat":
        b = rng.randint(2, 5)
        return ["fermat", "--base", str(b), str(rng.choice([2, 3, 5, 7, 4, 9, 1, 0]))]
    if verb == "lucas":
        return ["lucas", str(rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 4, 15]))]
    if verb == "irrational-check":
        return ["irrational-check", *options, _polynomial(rng, base)]
    if verb == "period-growth":
        period = _word(rng, base, rng.randint(1, 3))
        if "--max-period" not in options:
            options += ["--max-period", str(rng.randint(61, 2000))]
        return ["period-growth", *options, period, str(rng.randint(0, 8))]
    return rng.choice([
        ["eval", *options],
        ["eval", *options, "1", "2"],
        ["eval", "--base", str(rng.choice([0, 1, 37, -2])), "1"],
        ["eval", "--max-period", "0", "1"],
        ["eval", *options, f"{_literal(rng, base)} / 0"],
        ["eval", *options, f"{_literal(rng, base)} {rng.choice('+*/')}"],
        ["eval", *options, f"({_literal(rng, base)}"],
        ["eval", *options, f"{_literal(rng, base)} ! 1"],
        ["from-frac", *options, f"{rng.randint(0, 99)}:{rng.randint(1, 99)}"],
        ["to-frac", *options, "0.(" + _ALPHABET[base] * 2 + ")" if base < 36 else "0.(!)"],
        ["period-length", "12a"],
        ["product-length", "3", "x"],
    ])


def lines(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        argv = _command(rng)
        out.append(f"{digest(argv)} {json.dumps(argv)}")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=3000)
    parser.add_argument("--out", type=Path, default=CORPUS)
    args = parser.parse_args()
    args.out.write_text("\n".join(lines(args.seed, args.count)) + "\n")


if __name__ == "__main__":
    main()
