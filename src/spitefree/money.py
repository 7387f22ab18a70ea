"""Exact rational money amounts and the infinite-threshold sentinel.

All monetary quantities (bids, thresholds, payments, utilities) are
`fractions.Fraction` values so every comparison is exact.  Thresholds may
additionally be infinite; `INFINITY` compares strictly greater than every
finite amount.  Binary floats are rejected at the boundaries to keep
approximation out of the exact paths.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

Money = Fraction
ExtMoney = Fraction | float  # the only admitted float is INFINITY

INFINITY: float = math.inf

_RATIONAL = re.compile(r"\A\s*(\d+)\s*(?:/\s*(\d+)\s*)?\Z")


def is_infinite(value: ExtMoney) -> bool:
    return isinstance(value, float) and math.isinf(value)


def as_money(value: int | Fraction) -> Fraction:
    """Coerce to a nonnegative exact amount; floats are rejected, and a `Fraction` is kept as is."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"money must be an int or Fraction, got {value!r}")
    amount = value if type(value) is Fraction else Fraction(value)
    if amount.numerator < 0:
        raise ValueError(f"money must be nonnegative, got {value}")
    return amount


def as_ext_money(value: int | Fraction | float) -> ExtMoney:
    """Like :func:`as_money` but additionally admits INFINITY."""
    if isinstance(value, float) and not isinstance(value, bool):
        if math.isinf(value) and value > 0:
            return INFINITY
        raise TypeError(f"finite amounts must be int or Fraction, got {value!r}")
    return as_money(value)


def parse_money(text: str) -> Fraction:
    """Parse a rational literal like ``"5/8"`` or ``"3"``.  Decimals are not a thing here."""
    m = _RATIONAL.match(text)
    if m is None:
        raise ValueError(f"not a rational amount: {text!r}")
    numerator = int(m.group(1))
    denominator = int(m.group(2)) if m.group(2) else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def names_infinity(text: str) -> bool:
    """Whether `parse_ext_money` reads ``text`` as INFINITY."""
    return text.strip().lower() in ("inf", "infinity")


def parse_ext_money(text: str) -> ExtMoney:
    if names_infinity(text):
        return INFINITY
    return parse_money(text)


def parse_amounts(text: str, parse_amount) -> tuple:
    """Read a comma list like ``"0, 1/2, 2"``, skipping blank parts.

    ``parse_amount`` reads each stripped part: `parse_money` or
    `parse_ext_money` for amounts, ``int`` for a ranking, ``str`` or
    ``str.lower`` for bundle=amount pairs and property names.  Every comma
    list the package reads goes through here.
    """
    return tuple([parse_amount(part.strip()) for part in text.split(",") if part.strip()])


def render_money(value: Fraction) -> str:
    # str(int) refuses integers longer than sys.get_int_max_str_digits()
    # digits (the exact optimal prices reach ~20 000 at n = 16); Decimal
    # converts any length without touching that process-wide limit.
    numerator = str(Decimal(value.numerator))
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{Decimal(value.denominator)}"


def render_ext_money(value: ExtMoney) -> str:
    if is_infinite(value):
        return "inf"
    return render_money(value)
