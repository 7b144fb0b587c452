"""Shrinking property tests beside the seeded suites of criterion 10.

The integer product kernels of `RingElement.__mul__` and
`TruncatedSeries.__mul__` are checked against plain dict and list
convolutions of the stored coefficients, and `eval_series` against the
loop of whole-element products it replaced.  Skipped where hypothesis is
not installed.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_rings import _eval_series_by_products, _outcome

from rrcalc.rings import INTEGERS, RATIONALS, RingSpec, eval_series
from rrcalc.series import TruncatedSeries

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def naive_ring_product(spec, left, right):
    """The quotient-ring product, one exponent tuple and one scalar product per pair."""
    out = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            within = all(x <= d for x, d in zip(e, spec.bounds))
            weight = sum(w * x for w, x in zip(spec.weights, e))
            if within and (spec.cap is None or weight <= spec.cap):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


@st.composite
def ring_factors(draw, variables, max_bound=200, max_terms=8):
    """A spec with `variables` generators and two coefficient tables in it."""
    count = draw(variables)
    bounds = draw(st.lists(st.integers(0, max_bound), min_size=count, max_size=count))
    weights = draw(
        st.none() | st.lists(st.integers(1, 4), min_size=count, max_size=count)
    )
    cap = draw(st.none() | st.integers(0, 2 * max_bound))
    scalars = draw(st.sampled_from((INTEGERS, RATIONALS)))
    spec = RingSpec(tuple(f"x{i}" for i in range(count)), bounds, scalars, weights, cap)
    scalar = st.integers(-9, 9) if scalars == INTEGERS else coefficients
    monomial = st.tuples(*(st.integers(0, d) for d in bounds))
    tables = st.dictionaries(monomial, scalar, max_size=max_terms)
    left, right = (
        {e: c for e, c in draw(tables).items() if spec.fits(e)} for _ in range(2)
    )
    return spec, left, right


def check_ring_product(spec, left, right):
    product = spec.element(left) * spec.element(right)
    assert product.terms == naive_ring_product(spec, left, right)
    domain = int if spec.scalars == INTEGERS else Fraction
    assert all(type(c) is domain for c in product.terms.values())


@settings(deadline=None, max_examples=200)
@given(ring_factors(st.integers(0, 4)))
def test_ring_product_matches_the_naive_convolution(factors):
    check_ring_product(*factors)


@settings(deadline=None, max_examples=30)
@given(ring_factors(st.integers(32, 40), max_terms=6))
def test_wide_ring_product_matches_the_naive_convolution(factors):
    check_ring_product(*factors)


@settings(deadline=None, max_examples=100)
@given(
    factors=ring_factors(st.integers(0, 3), max_bound=5, max_terms=5),
    series=st.lists(st.integers(-9, 9) | coefficients, min_size=1, max_size=13),
    nilpotent=st.booleans(),
)
def test_eval_series_matches_the_product_loop(factors, series, nilpotent):
    # Over Z a non-integer coefficient raises IntegerDomain only where the
    # loop reaches it, and a kept constant term raises NonNilpotentArgument.
    spec, terms, _ = factors
    if nilpotent:
        terms.pop((0,) * len(spec.variables), None)
    argument, series = spec.element(terms), TruncatedSeries(series)
    outcome = _outcome(eval_series, series, argument)
    assert outcome == _outcome(_eval_series_by_products, series, argument)
    if isinstance(outcome, tuple):
        assert outcome[1] <= {int if spec.scalars == INTEGERS else Fraction}


@settings(deadline=None, max_examples=100)
@given(
    left=st.lists(coefficients, min_size=1, max_size=21),
    right=st.lists(coefficients, min_size=1, max_size=21),
)
def test_series_product_matches_the_fraction_convolution(left, right):
    n = min(len(left), len(right)) - 1
    expected = [
        sum((Fraction(left[i]) * right[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(n + 1)
    ]
    product = TruncatedSeries(left) * TruncatedSeries(right)
    assert list(product.coefficients) == expected
    assert all(type(c) is Fraction for c in product.coefficients)


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
