"""Shrinking property tests beside the seeded suites of criterion 10.

Skipped where hypothesis is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from rrcalc.series import TruncatedSeries

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(deadline=None, max_examples=30)
@given(
    slope=coefficients.filter(lambda c: c != 0),
    tail=st.lists(coefficients, max_size=9),
)
def test_reversion_is_a_two_sided_compositional_inverse(slope, tail):
    series = TruncatedSeries([0, slope, *tail])
    back = series.reversion()
    identity = TruncatedSeries([0, 1], series.order)
    assert series.compose(back) == identity
    assert back.compose(series) == identity
