"""Series reversion against sympy, an independently written oracle.

sympy's `rs_series_reversion` finds the inverse by successive
substitution, a different route from the Lagrange inversion in
`TruncatedSeries.reversion`.  Skipped where sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")

from sympy import QQ
from sympy.polys.ring_series import rs_series_reversion
from sympy.polys.rings import ring

from rrcalc.series import TruncatedSeries, exp_deficit_series

R, t, y = ring("t, y", QQ)


def sympy_reversion(series: TruncatedSeries) -> TruncatedSeries:
    p = R.zero
    for k, c in enumerate(series.coefficients):
        p += QQ(c.numerator, c.denominator) * t**k
    back = rs_series_reversion(p, t, series.order + 1, y)
    return TruncatedSeries(
        Fraction(int(c.numerator), int(c.denominator))
        for c in (back.coeff(y**k) for k in range(series.order + 1))
    )


def test_reversion_matches_sympy_on_random_series():
    rng = random.Random(2016)
    for _ in range(24):
        order = rng.randint(1, 20)
        slope = Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 3))
        tail = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(order - 1)]
        series = TruncatedSeries([0, slope] + tail)
        assert series.reversion() == sympy_reversion(series)


@pytest.mark.parametrize("depth", [1, 5, 12, 27])
def test_deficit_conjugator_reversion_matches_sympy(depth):
    conjugator = exp_deficit_series(depth).times_t()
    assert conjugator.reversion() == sympy_reversion(conjugator)
