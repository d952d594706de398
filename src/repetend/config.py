"""Process-wide capacity limits, and the only module that compares a
requested size with them, before the work it bounds: :func:`check_period`
a length in digits, :func:`check_enumeration` a count or the ``b**n``
words of length n.  :func:`shown` writes a size in their messages.

The caps are meant to be set once at startup (the CLI sets ``period_cap``
from ``--max-period``) and read-only afterwards; the library never sets them.
"""

from .errors import CapacityError

# Longest circular word any lifting operation may build, in digits.
DEFAULT_PERIOD_CAP = 1_000_000
period_cap = DEFAULT_PERIOD_CAP

# Largest word family (b**p) the orbit counters will enumerate.
ENUMERATION_CAP = 100_000_000

_STR_LIMIT = 10**4300  # str() refuses more digits: a process-wide limit, left as it is


def shown(n: int) -> str:
    """n in a message, or its bit length where str() refuses n."""
    return str(n) if -_STR_LIMIT < n < _STR_LIMIT else f"{'-' * (n < 0)}[{n.bit_length()} bits]"


def check_period(n: int, what: str = "period") -> int:
    """Return ``n`` unchanged, or raise if it exceeds the period cap."""
    if n > period_cap:
        raise CapacityError(f"{what} of {shown(n)} digits exceeds cap of {shown(period_cap)}")
    return n


def check_enumeration(n: int, what: str, base: int | None = None) -> int:
    """Return ``n`` unchanged, or raise if n ``what`` (b**n of length n, given
    a ``base`` b >= 2) exceed the enumeration cap.  No power is built past
    b**bits(cap) to decide, nor past 8**4300 to write the message."""
    if base is None:
        if n > ENUMERATION_CAP:
            raise CapacityError(f"{shown(n)} {what} exceed enumeration cap {ENUMERATION_CAP}")
    elif base ** max(0, min(n, ENUMERATION_CAP.bit_length())) > ENUMERATION_CAP:
        total = f" = {base**n}" if n * (base - 1).bit_length() <= 3 * 4300 else ""
        raise CapacityError(
            f"{base}**{shown(n)}{total} {what} exceed enumeration cap {ENUMERATION_CAP}"
        )
    return n
