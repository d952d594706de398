"""Canonical text notation: ``[-]INT[.FRAC][(PERIOD)]``.

Digits run 0-9 then A-Z for bases up to 36; the parenthesized block
repeats forever after the fractional digits.  Examples: ``24.837(56)``,
``0.(9)``, ``-0.00(6)``, ``370``.  The parser is permissive (leading
zeros, repeated or all-(base-1) periods, missing dot before a period)
and always returns the canonical value; the formatter emits the one
spelling that parses back to itself.
"""

from __future__ import annotations

import re

from .decimals import DecimalNumber
from .rational import DcNumber, WcpNumber, _dc_from_written, _lower_point, wcp_from_dc
from .words import CircularWord, _letters, _spell, digits_to_int

_LITERAL_RE = re.compile(
    r"""^(?P<sign>[+-]?)
        (?P<whole>[0-9A-Za-z]*)
        (?:\.(?P<frac>[0-9A-Za-z]*))?
        (?:\((?P<period>[0-9A-Za-z]+)\))?$""",
    re.VERBOSE,
)


def parse_components(
    text: str, base: int
) -> tuple[int, DecimalNumber, int, CircularWord | None]:
    """Split a literal into (sign, finite part, written fractional length,
    period word).

    The finite part is INT.FRAC read verbatim; the period word, if any,
    is returned untouched, identifications and all.  The fractional
    length is reported separately because canonicalizing the finite part
    may strip trailing zeros the period still has to sit behind.
    """
    m = _LITERAL_RE.match(text.strip())
    if not m or not (m.group("whole") or m.group("frac") or m.group("period")):
        raise ValueError(f"not a numeric literal: {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    whole = _letters(m.group("whole") or "", base)
    frac = _letters(m.group("frac") or "", base)
    finite = DecimalNumber.from_scaled(
        digits_to_int(whole + frac, base), len(frac), base
    )
    period = None
    if m.group("period"):
        period = CircularWord(_letters(m.group("period"), base), base)
    return sign, finite, len(frac), period


def parse(text: str, base: int = 10) -> DcNumber:
    """Parse a literal to its canonical value."""
    return _dc_from_written(*parse_components(text, base))


def format_dc(x: DcNumber) -> str:
    """Canonical literal for a value in decimal-plus-period form."""
    return format_wcp(wcp_from_dc(x))


def format_wcp(x: WcpNumber) -> str:
    """Canonical literal; the aperiodic digits, the point, and the period
    rotated to start right after whatever digits precede it."""
    x = x.canonical()
    periodic = x.period.valuation != 0
    if x.point > 0:
        # the period's first letters are written before the point
        x = _lower_point(x, 0)
    sign = "-" if x.sign < 0 else ""
    digits = _spell(x.aperiodic)
    split = len(digits) + x.point
    whole, frac = digits[:split].lstrip("0") or "0", digits[split:]
    tail = f"({x.period})" if periodic else ""
    if frac or tail:
        return f"{sign}{whole}.{frac}{tail}"
    return f"{sign}{whole}"
