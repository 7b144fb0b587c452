"""Truncated series arithmetic against hand-expanded oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest

from rrcalc.series import (
    NonzeroInnerConstant,
    NotReversible,
    TruncatedSeries,
    ZeroConstantTerm,
    exp_deficit_series,
    exponential_series,
    todd_series,
)
from rrcalc.series import _inverse_powers, _unit_power


def log_one_plus_series(order: int) -> TruncatedSeries:
    """log(1 + t) = sum (-1)^(n+1) t^n / n, the oracle of the genus logarithms."""
    coeffs = [Fraction(0)]
    coeffs.extend(Fraction((-1) ** (n + 1), n) for n in range(1, order + 1))
    return TruncatedSeries(coeffs)


def test_order_and_padding():
    s = TruncatedSeries([1, 2], order=4)
    assert s.order == 4
    assert s.coefficients == (1, 2, 0, 0, 0)
    assert TruncatedSeries([1, 2, 3], order=1).coefficients == (1, 2)


def test_indexing_never_reads_past_the_order():
    s = TruncatedSeries([1, 2, 3])
    assert s[2] == 3
    with pytest.raises(IndexError):
        s[3]


def test_immutability():
    s = TruncatedSeries([1, 2])
    with pytest.raises(AttributeError):
        s.coefficients = (5,)


def test_add_sub_align_to_the_shorter_order():
    a = TruncatedSeries([1, 1, 1, 1])
    b = TruncatedSeries([0, 2], order=1)
    assert (a + b).coefficients == (1, 3)
    assert (a - b).coefficients == (1, -1)


def test_product_truncates():
    # (1 + t)(1 - t) = 1 - t^2
    one_plus = TruncatedSeries([1, 1], order=3)
    one_minus = TruncatedSeries([1, -1], order=3)
    assert (one_plus * one_minus).coefficients == (1, 0, -1, 0)


def test_scalar_product_and_negation():
    s = TruncatedSeries([1, 2, 3])
    assert (s * 2).coefficients == (2, 4, 6)
    assert (s * Fraction(1, 2)).coefficients == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
    )
    assert (-s).coefficients == (-1, -2, -3)


def test_geometric_inverse():
    geometric = TruncatedSeries([1, -1], order=5).inverse()
    assert geometric.coefficients == (1, 1, 1, 1, 1, 1)
    assert (geometric * TruncatedSeries([1, -1], order=5))[0] == 1


def test_inverse_requires_a_unit():
    message = "^cannot invert a series with zero constant term$"
    with pytest.raises(ZeroConstantTerm, match=message):
        TruncatedSeries([0, 1]).inverse()


def test_inverse_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        order = rng.randint(0, 8)
        head = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 4))
        coeffs = [head] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)
        ]
        s = TruncatedSeries(coeffs)
        assert s * s.inverse() == TruncatedSeries([1], order)


def _inverse_by_fractions(series):
    """The inverse the integer kernel replaced: one Fraction multiply-add per step."""
    c0 = series.coefficients[0]
    if c0 == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    n = series.order
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / c0
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += series.coefficients[i] * out[k - i]
        out[k] = -acc / c0
    return TruncatedSeries(out)


def _outcome(operation, *args):
    """Coefficients and their types, or the error's class and message."""
    try:
        value = operation(*args)
    except ValueError as error:
        return type(error), str(error)
    return value.coefficients, {type(c) for c in value.coefficients}


def test_inverse_matches_the_fraction_loop_on_seeded_series():
    # Zero interior coefficients come from _random_series; the constants
    # include non-units, negatives and zero, and every order 0..30 occurs.
    rng = random.Random(1978)
    constants = (1, -1, Fraction(3, 7), -2, Fraction(-5, 12), 0)
    seen = set()
    for case in range(372):
        series = _random_series(rng, case % 31, constants[case % len(constants)])
        outcome = _outcome(TruncatedSeries.inverse, series)
        assert outcome == _outcome(_inverse_by_fractions, series)
        seen.add(outcome[0] if outcome[0] is ZeroConstantTerm else frozenset(outcome[1]))
    assert seen == {ZeroConstantTerm, frozenset({Fraction})}


@pytest.mark.parametrize("order", [23, 60, 120])
def test_inverse_of_the_deficit_matches_the_fraction_loop(order):
    deficit = exp_deficit_series(order)
    assert deficit.inverse().coefficients == _inverse_by_fractions(deficit).coefficients


def _unit_power_by_products(series, k):
    """f^k by repeated whole-series products, of the Fraction-loop 1/f for k < 0."""
    factor = series if k >= 0 else _inverse_by_fractions(series)
    result = TruncatedSeries([1], series.order)
    for _ in range(abs(k)):
        result = result * factor
    return result


def test_unit_power_matches_repeated_products_on_seeded_series():
    # Constants other than 1, negatives included; orders 0..20, k in -12..12.
    rng = random.Random(1964)
    constants = (-1, Fraction(3, 7), -2, Fraction(-5, 12), 3)
    for case in range(1200):
        series = _random_series(rng, case % 21, constants[case % len(constants)])
        k = rng.randint(-12, 12)
        value, numerators, denominator = _unit_power(series.coefficients, k)
        assert [Fraction(c, denominator) for c in numerators] == value
        assert TruncatedSeries(value) == _unit_power_by_products(series, k), (case, k)


def test_compose_hand_oracle():
    # f = 1 + t + t^2, g = 2t + t^2: f(g) = 1 + 2t + 5t^2 + 4t^3 + t^4,
    # truncated at the common order 2.
    f = TruncatedSeries([1, 1, 1])
    g = TruncatedSeries([0, 2, 1])
    assert f.compose(g).coefficients == (1, 2, 5)


def test_compose_requires_nilpotent_inner():
    with pytest.raises(NonzeroInnerConstant):
        TruncatedSeries([1, 1]).compose(TruncatedSeries([1, 1]))


def _compose_by_horner(outer, inner):
    """The composition the integer kernel replaced: Horner on whole series."""
    if inner.coefficients[0] != 0:
        raise NonzeroInnerConstant(
            "inner series of a composition must have zero constant term"
        )
    n = min(outer.order, inner.order)
    g = inner.truncated(n)
    result = TruncatedSeries([outer.coefficients[n]], n)
    for k in range(n - 1, -1, -1):
        result = result * g + TruncatedSeries([outer.coefficients[k]], n)
    return result


def _random_series(rng: random.Random, order: int, constant=None) -> TruncatedSeries:
    coefficients = [
        rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
        for _ in range(order + 1)
    ]
    if constant is not None:
        coefficients[0] = constant
    return TruncatedSeries(coefficients)


def test_compose_matches_the_horner_loop_on_seeded_cases():
    rng = random.Random(1074)
    seen = set()
    for _ in range(600):
        outer = _random_series(rng, rng.randint(0, 12))
        constant = rng.choice((1, Fraction(-1, 3))) if rng.random() < 0.1 else 0
        inner = _random_series(rng, rng.randint(0, 12), constant)
        outcome = _outcome(TruncatedSeries.compose, outer, inner)
        assert outcome == _outcome(_compose_by_horner, outer, inner)
        seen.add(outcome[0] if outcome[0] is NonzeroInnerConstant else frozenset(outcome[1]))
    assert seen == {NonzeroInnerConstant, frozenset({Fraction})}


@pytest.mark.parametrize("order", [28, 40])
def test_compose_matches_the_horner_loop_at_large_orders(order):
    rng = random.Random(order)
    gap = todd_series(order) - TruncatedSeries([1], order)
    cases = [
        (log_one_plus_series(order), gap),  # the genus log of the Todd series
        (exponential_series(order), exp_deficit_series(order).times_t().truncated(order)),
        (_random_series(rng, order), _random_series(rng, order, 0)),
    ]
    for outer, inner in cases:
        assert outer.compose(inner) == _compose_by_horner(outer, inner)


def test_reversion_catalan_signs():
    # t + t^2 reverts to t - t^2 + 2t^3 - 5t^4: signed Catalan numbers.
    series = TruncatedSeries([0, 1, 1], order=4)
    assert series.reversion().coefficients == (0, 1, -1, 2, -5)


def test_reversion_round_trip():
    series = TruncatedSeries(
        [0, Fraction(2), Fraction(-1, 3), Fraction(5, 7), Fraction(1, 2)]
    )
    back = series.reversion()
    identity = TruncatedSeries([0, 1], series.order)
    assert series.compose(back) == identity
    assert back.compose(series) == identity


def _reversion_by_fractions(series):
    """The reversion the integer kernel replaced: Lagrange on whole-series products."""
    quotient = TruncatedSeries(series.coefficients[1:]).inverse()
    power = quotient
    out = [Fraction(0), power.coefficients[0]]
    for k in range(2, series.order + 1):
        power = power * quotient
        out.append(power.coefficients[k - 1] / k)
    return TruncatedSeries(out)


def test_reversion_matches_the_fraction_loop_on_seeded_series():
    rng = random.Random(1977)
    for _ in range(300):
        series = _random_series(rng, rng.randint(1, 16), 0)
        if series[1] == 0:
            series = series + TruncatedSeries([0, Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        reverted = series.reversion()
        assert reverted.coefficients == _reversion_by_fractions(series).coefficients
        assert {type(c) for c in reverted.coefficients} == {Fraction}
    # The twist-law conjugators and beyond: `verify twist-law --order 28`
    # reverts the one at depth 58, of order 59.
    for depth in (28, 40, 58):
        conjugator = exp_deficit_series(depth).times_t()
        assert conjugator.reversion() == _reversion_by_fractions(conjugator)


@pytest.mark.parametrize("order", range(1, 41))
def test_reversion_matches_the_fraction_loop_at_every_order(order):
    # Every order from 1 to 40, so no row count of the power table is
    # left out.
    rng = random.Random(2000 + order)
    for constant in (Fraction(1), Fraction(-3, 7), Fraction(5, 2)):
        coefficients = list(_random_series(rng, order, 0).coefficients)
        coefficients[1] = constant
        series = TruncatedSeries(coefficients)
        reverted = series.reversion()
        assert reverted.coefficients == _reversion_by_fractions(series).coefficients
        assert {type(c) for c in reverted.coefficients} == {Fraction}
        assert series.compose(reverted) == TruncatedSeries([0, 1], order)


def test_inverse_powers_are_the_powers_of_the_reversion():
    rng = random.Random(1997)
    for case in range(120):
        order = case % 20 + 1
        coefficients = list(_random_series(rng, order, 0).coefficients)
        coefficients[1] = Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 5))
        rows = _inverse_powers(coefficients, order)
        assert len(rows) == order + 1
        inverse = TruncatedSeries(coefficients).reversion()
        power = TruncatedSeries([1], order)
        for j in range(order + 1):
            column = [Fraction(row[j], d) if j < len(row) else 0 for row, d in rows]
            assert column == list(power.coefficients), (case, j)
            power = power * inverse
        for row, d in rows:
            assert gcd(d, *row) == 1 and d > 0


def test_reversion_needs_invertible_slope():
    with pytest.raises(NotReversible, match="^reversion needs zero constant term$"):
        TruncatedSeries([1, 1]).reversion()
    message = "^reversion needs an invertible linear coefficient$"
    with pytest.raises(NotReversible, match=message):
        TruncatedSeries([0, 0, 1]).reversion()
    with pytest.raises(NotReversible, match=message):
        TruncatedSeries([0]).reversion()


def test_exp_deficit_constants():
    # (1 - e^-t)/t = 1 - t/2 + t^2/6 - t^3/24 + t^4/120 - ...
    series = exp_deficit_series(4)
    assert series.coefficients == (
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(-1, 24),
        Fraction(1, 120),
    )


def test_todd_constants():
    assert todd_series(4).coefficients == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    )


def test_todd_inverts_the_deficit():
    depth = 10
    assert todd_series(depth) * exp_deficit_series(depth) == TruncatedSeries(
        [1], depth
    )


def test_exponential_constants():
    assert exponential_series(3).coefficients == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
    )


def test_log_series_reverts_exp_minus_one():
    # log(1 + t) composed with e^t - 1 is t.
    depth = 8
    exp_gap = exponential_series(depth) - TruncatedSeries([1], depth)
    composed = log_one_plus_series(depth).compose(exp_gap)
    assert composed == TruncatedSeries([0, 1], depth)


def test_deficit_shift_reverts_to_log():
    # t * exp_deficit = 1 - e^-t, whose reversion is -log(1 - t).
    for depth in (6, 54):  # reversions at orders 7 and 55
        shifted = exp_deficit_series(depth).times_t()
        expected = [Fraction(0)] + [Fraction(1, n) for n in range(1, depth + 2)]
        assert shifted.reversion().coefficients == tuple(expected)


def test_equality_and_hash():
    assert TruncatedSeries([1, 2]) == TruncatedSeries([Fraction(1), Fraction(2)])
    assert hash(TruncatedSeries([1, 2])) == hash(
        TruncatedSeries([Fraction(1), Fraction(2)])
    )
    assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2], order=2)
