"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 domain error (division by zero,
bad literal domain, non-prime argument), 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import config, notation, numtheory, rational, words
from .errors import CapacityError
from .notation import _quoted
from .numtheory import UnitaryPolynomial
from .rational import DcNumber
from .words import CircularWord


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # the options are --name and -h, so "-1+2" or "-3/7" is an operand
        if arg_string.startswith("-") and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):  # one line, and exit 1, not argparse's 2
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# -- expression evaluation ----------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lit>(?:[0-9A-Za-z]+(?:\.[0-9A-Za-z]*)?|\.[0-9A-Za-z]+|\.)
                (?:\([0-9A-Za-z]+\))?)
      | (?P<op>[-+*/()])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise UsageError(f"cannot read expression at: {_quoted(text[pos:].strip())}")
            break
        tokens.append(m.group("lit") or m.group("op"))
        pos = m.end()
    return tokens


class _ExpressionParser:
    """Plain recursive descent over +, -, *, / and parentheses.

    Parentheses directly attached to digits belong to the literal (a
    repeating period); free-standing ones group.
    """

    def __init__(self, tokens: list[str], base: int, on_literal=None):
        self.tokens = tokens
        self.pos = 0
        self.base = base
        self.on_literal = on_literal

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UsageError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> DcNumber:
        value = self.expr()
        if self.peek() is not None:
            raise UsageError(f"trailing input at {_quoted(self.peek())}")
        return value

    def expr(self) -> DcNumber:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> DcNumber:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> DcNumber:
        tok = self.next()
        if tok == "-":
            return -self.factor()
        if tok == "+":
            return self.factor()
        if tok == "(":
            value = self.expr()
            if self.next() != ")":
                raise UsageError("unbalanced parentheses")
            return value
        if tok in (")", "*", "/"):
            raise UsageError(f"unexpected {tok!r}")
        try:
            value = notation.parse(tok, self.base)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if self.on_literal is not None:
            self.on_literal(tok)
        return value


def _evaluate(text: str, base: int, on_literal=None) -> DcNumber:
    tokens = _tokenize(text)
    if not tokens:
        raise UsageError("empty expression")
    return _ExpressionParser(tokens, base, on_literal).parse()


# -- subcommands ---------------------------------------------------------


def _cmd_eval(args) -> None:
    def show_raw(literal: str) -> None:
        sign, finite, _, period = notation.parse_components(literal, args.base)
        shown = f"({finite}, ({period}))" if period is not None else f"({finite})"
        if sign < 0:
            shown = f"-{shown}"
        print(f"raw: {literal} = {shown} = {notation.parse(literal, args.base)}")

    result = _evaluate(args.expression, args.base, show_raw if args.raw else None)
    print(notation.format_dc(result))


def _decimal_text(n: int) -> str:
    """n written in base ten at any length: str() refuses ints past 4300
    digits, and that process-wide limit stays as it is."""
    digits = words._minimal_digits(abs(n), 10)
    return ("-" if n < 0 else "") + (words._spell(digits) or "0")


def _decimal_value(text: str) -> int:
    """The value of a run of base-ten digits at any length, as above."""
    if not text.isdecimal():
        raise UsageError("expected a run of base-ten digits")
    return words.digits_to_int(tuple(map(int, text)), 10)


def _integer(text: str) -> int:
    """An integer option or operand, spelled as int() reads it, at any length."""
    if m := re.fullmatch(r"\s*([+-]?)(\d+(?:_\d+)*)\s*", text):
        value = _decimal_value(m.group(2).replace("_", ""))
        return -value if m.group(1) == "-" else value
    raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}")


def _cmd_to_frac(args) -> None:
    fraction = notation.parse(args.literal, args.base).to_fraction()
    print(f"{_decimal_text(fraction.numerator)}/{_decimal_text(fraction.denominator)}")


def _cmd_from_frac(args) -> None:
    m = re.fullmatch(r"\s*([+-]?)(\d+)\s*/\s*(\d+)\s*", args.fraction)
    if not m:
        raise UsageError(f"expected U/V, got {_quoted(args.fraction)}")
    u, v = _decimal_value(m.group(2)), _decimal_value(m.group(3))
    if m.group(1) == "-":
        u = -u
    if v == 0:
        raise ZeroDivisionError("zero denominator")
    print(notation.format_dc(rational.from_fraction(u, v, args.base)))


def _cmd_convert(args) -> None:
    value = notation.parse(args.literal, args.base)
    if args.to == "wcp":
        print(rational.wcp_from_dc(value))
    else:
        print(value)


def _cmd_compare(args) -> None:
    a = notation.parse(args.first, args.base)
    b = notation.parse(args.second, args.base)
    print({-1: "<", 0: "=", 1: ">"}[a.compare(b)])


def _cmd_period_length(args) -> None:
    report = numtheory.period_length(_decimal_value(args.v), args.base)
    period, witness = _decimal_text(report.period_len), _decimal_text(report.witness)
    print(f"aperiodic={report.aperiodic_len} period={period} witness={witness}")


def _cmd_product_length(args) -> None:
    length = numtheory.product_period_length(args.length, args.length2, args.base)
    print(_decimal_text(length))


def _cmd_fermat(args) -> None:
    orbits, constants = words.fermat_orbit_count(args.base, args.p)
    print(
        f"orbits={orbits} constants={constants} "
        f"identity={args.base}^{args.p}={orbits}*{args.p}+{constants}"
    )


def _cmd_lucas(args) -> None:
    count = words.lucas_orbit_count(args.p)
    print(f"count={count} residue={count % args.p} (mod {args.p})")


def _cmd_irrational_check(args) -> None:
    coefficients = _parse_polynomial(args.polynomial, args.base)
    poly = UnitaryPolynomial(coefficients)
    if all(isinstance(c, int) for c in coefficients.values()):
        report = numtheory.classify_root(poly)
        if report.integer_roots:
            roots = ", ".join(str(r) for r in report.integer_roots)
            print(f"integer roots: {roots}")
        print(report.verdict)
    else:
        report = numtheory.classify_root_decimal(poly, args.base)
        if report.roots:
            roots = ", ".join(str(r) for r in report.roots)
            print(f"decimal roots: {roots}")
        print(f"{report.verdict} ({report.argument})")


def _cmd_period_growth(args) -> None:
    # any letter is read; the word names one out of range by its value
    word = CircularWord(words._letters(args.period, 36), args.base)
    lengths = numtheory.period_growth(word, args.count)
    print(" ".join(str(n) for n in lengths))


def _parse_polynomial(text: str, base: int) -> dict:
    """Read a monic polynomial like ``x^3-3.57`` or ``x^4-10x^2+1`` into
    its written terms, exponent -> coefficient (ints where possible,
    exact decimals else)."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise UsageError("empty polynomial")
    # x is the variable, so it cannot double as a base-34+ digit here
    term_re = re.compile(
        r"""(?P<sign>[+-]?)
            (?:(?P<coef>[0-9.A-WY-Za-wy-z]+)\*?)?
            (?:(?P<var>[xX])(?:\^(?P<exp>\d+))?)?""",
        re.VERBOSE,
    )
    coeffs: dict[int, object] = {}
    pos = 0
    while pos < len(stripped):
        m = term_re.match(stripped, pos)
        if not m or m.end() == pos or (m.group("coef") is None and not m.group("var")):
            raise UsageError(f"cannot read polynomial at: {_quoted(stripped[pos:])}")
        pos = m.end()
        exp = 0
        if m.group("var"):
            exp = _decimal_value(m.group("exp")) if m.group("exp") else 1
        if m.group("coef") is None:
            coefficient: object = 1
        else:
            delta = notation.parse(m.group("coef"), base).delta  # no "(": no period
            coefficient = delta.scaled if delta.is_integer() else delta
        if m.group("sign") == "-":
            coefficient = -coefficient
        if exp in coeffs:
            raise UsageError(f"repeated power x^{config.shown(exp)}")
        coeffs[exp] = coefficient
    degree = max(coeffs)
    polynomial = f"coefficients of a degree-{config.shown(degree)} polynomial"
    config.check_enumeration(degree + 1, polynomial)
    return coeffs


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--base", type=_integer, default=10, help="numeration base, 2..36 (default 10)"
    )
    common.add_argument(
        "--max-period",
        type=_integer,
        default=config.DEFAULT_PERIOD_CAP,
        metavar="N",
        help="largest intermediate period, in digits (default 1000000)",
    )

    parser = _Parser(
        prog="repetend",
        description="Exact arithmetic on repeating digit expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("expression")
    p.add_argument(
        "--raw", action="store_true", help="also show pre-identification forms"
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("to-frac", parents=[common], help="literal to reduced fraction")
    p.add_argument("literal")
    p.set_defaults(func=_cmd_to_frac)

    p = sub.add_parser("from-frac", parents=[common], help="U/V to canonical literal")
    p.add_argument("fraction")
    p.set_defaults(func=_cmd_from_frac)

    p = sub.add_parser("convert", parents=[common], help="show a representation")
    p.add_argument("--to", choices=("wcp", "dc"), required=True)
    p.add_argument("literal")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("compare", parents=[common], help="compare two literals")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "period-length", parents=[common], help="expansion period data for 1/V"
    )
    p.add_argument("v", help="base-ten digits")
    p.set_defaults(func=_cmd_period_length)

    p = sub.add_parser(
        "product-length",
        parents=[common],
        help="period length bound for a product of two periods",
    )
    p.add_argument("length", type=_integer)
    p.add_argument("length2", type=_integer)
    p.set_defaults(func=_cmd_product_length)

    p = sub.add_parser(
        "fermat", parents=[common], help="orbit decomposition of length-p words"
    )
    p.add_argument("p", type=_integer)
    p.set_defaults(func=_cmd_fermat)

    p = sub.add_parser(
        "lucas", parents=[common], help="count cyclic binary words avoiding 11"
    )
    p.add_argument("p", type=_integer)
    p.set_defaults(func=_cmd_lucas)

    p = sub.add_parser(
        "irrational-check",
        parents=[common],
        help="classify roots of a monic polynomial",
    )
    p.add_argument("polynomial")
    p.set_defaults(func=_cmd_irrational_check)

    p = sub.add_parser(
        "period-growth",
        parents=[common],
        help="period lengths of successive circular powers",
    )
    p.add_argument("period", help="period digits, e.g. 15")
    p.add_argument("count", type=_integer)
    p.set_defaults(func=_cmd_period_growth)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    previous_cap, config.period_cap = config.period_cap, args.max_period
    try:
        if not 2 <= args.base <= 36:
            raise UsageError(f"base must be in 2..36, got {config.shown(args.base)}")
        if args.max_period < 1:
            raise UsageError("--max-period must be positive")
        args.func(args)
    except UsageError as exc:
        print(f"repetend: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"repetend: capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"repetend: {exc}", file=sys.stderr)
        return 2
    finally:
        config.period_cap = previous_cap
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
