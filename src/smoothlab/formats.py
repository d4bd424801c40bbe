"""Numeric output formatting shared by the CSV writers and the CLI."""

import math
from decimal import Decimal

import numpy as np


def format_sig12(value) -> str:
    """Render a number positionally with exactly 12 significant digits.

    A float is rounded once, correctly: half to even on its exact binary
    value, by ``.11e``; ``Decimal`` then writes those 12 digits without an
    exponent, trailing zeros kept so the digit count is stable.  Integers
    print exactly; non-finite floats print as ``nan``/``inf`` so CSV stays
    parseable.
    """
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(Decimal(f"{v:.11e}"), "f")
