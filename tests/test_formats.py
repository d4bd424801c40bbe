"""``format_sig12`` against an exact-rational reference.

The reference reads a double's exact binary value with
``float.as_integer_ratio``, rounds it half to even at 12 significant digits
with ``Fraction`` arithmetic and writes the digits positionally by integer
division, so it shares no step with the formatter's ``.11e`` and ``Decimal``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.formats import format_sig12


def reference_sig12(v: float) -> str:
    """v's exact value rounded half to even at 12 significant digits, with no exponent."""
    sign = "-" if math.copysign(1.0, v) < 0 else ""
    exact = Fraction(*abs(v).as_integer_ratio())
    e = 0  # 10^e <= exact < 10^(e + 1) when exact > 0
    if exact:
        e = len(str(exact.numerator)) - len(str(exact.denominator))
        while exact < Fraction(10) ** e:
            e -= 1
        while exact >= Fraction(10) ** (e + 1):
            e += 1
    digits = round(exact / Fraction(10) ** (e - 11))  # Fraction rounds half to even
    if digits == 10**12:
        digits, e = 10**11, e + 1
    if e >= 11:
        return sign + str(digits * 10 ** (e - 11))
    places = 11 - e
    whole, frac = divmod(digits, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_sig12_matches_the_exact_reference(v):
    assert format_sig12(v) == reference_sig12(v)


@pytest.mark.parametrize(
    "v, text",
    [
        (999999999999.5, "1000000000000"),
        (9.99999999999995, "10.0000000000"),
        (1e22, "10000000000000000000000"),
        (5e-324, "0." + "0" * 323 + "494065645841"),
        (-0.0, "-0.00000000000"),
        (1.7976931348623157e308, "179769313486" + "0" * 297),
        (0.1, "0.100000000000"),
        (12.5, "12.5000000000"),
    ],
)
def test_format_sig12_edges(v, text):
    assert format_sig12(v) == text == reference_sig12(v)


def test_format_sig12_keeps_ints_and_non_finite():
    assert format_sig12(7) == "7"
    assert format_sig12(-(10**30)) == "-" + "1" + "0" * 30
    assert format_sig12(np.int64(-12)) == "-12"
    assert format_sig12(np.uint64(2**64 - 1)) == str(2**64 - 1)
    assert format_sig12(float("nan")) == "nan"
    assert format_sig12(np.float64("nan")) == "nan"
    assert format_sig12(math.inf) == "inf"
    assert format_sig12(-math.inf) == "-inf"
