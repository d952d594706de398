"""Exact arithmetic on rational numbers written as repeating digit
expansions built from circular words."""

from .decimals import DecimalNumber, scalar_action
from .errors import CapacityError
from .group import StarElement
from .numtheory import (
    PeriodLengthReport,
    UnitaryPolynomial,
    classify_root,
    classify_root_decimal,
    multiplicative_order,
    period_growth,
    period_length,
    product_period_length,
)
from .oracle import Fraction
from .rational import DcNumber, WcpNumber, dc_from_wcp, from_fraction, wcp_from_dc
from .words import (
    CircularWord,
    count_cyclic_binary_avoiding_11,
    fermat_orbit_count,
    lucas_orbit_count,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CircularWord",
    "DcNumber",
    "DecimalNumber",
    "Fraction",
    "PeriodLengthReport",
    "StarElement",
    "UnitaryPolynomial",
    "WcpNumber",
    "classify_root",
    "classify_root_decimal",
    "count_cyclic_binary_avoiding_11",
    "dc_from_wcp",
    "fermat_orbit_count",
    "from_fraction",
    "lucas_orbit_count",
    "multiplicative_order",
    "period_growth",
    "period_length",
    "product_period_length",
    "scalar_action",
    "wcp_from_dc",
]
