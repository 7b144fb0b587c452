"""Quotient-ring behavior: truncation, units, domains, rendering."""

import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from test_series import log_one_plus_series

from rrcalc import bundles, rings
from rrcalc.rings import (
    INTEGERS,
    RATIONALS,
    InsufficientOrder,
    IntegerDomain,
    NonNilpotentArgument,
    NonUnitConstant,
    OutOfBounds,
    RingSpec,
    SpecMismatch,
    _convolve,
    _element,
    _tables,
    _weighted_sum,
    eval_series,
)
from rrcalc.series import TruncatedSeries, exponential_series


def test_spec_rendering():
    assert str(RingSpec(("x", "y"), (2, 1))) == "Z[x, y]/(x^3, y^2)"
    assert str(RingSpec(("h",), (3,), RATIONALS)) == "Q[h]/(h^4)"
    assert str(RingSpec((), ())) == "Z"
    assert str(RingSpec(("c1", "c2"), (3, 1), RATIONALS, (1, 2), 3)) == (
        "Q[c1, c2]/(c1^4, c2^2; weights (1, 2), cap 3)"
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(("x", "x"), (1, 1))
    with pytest.raises(ValueError):
        RingSpec(("x",), (-1,))
    with pytest.raises(ValueError):
        RingSpec(("x",), (1,), "reals")


def test_integer_domain_coercion():
    spec = RingSpec(("x",), (2,))
    assert spec.coerce(Fraction(4, 2)) == 2
    with pytest.raises(IntegerDomain):
        spec.coerce(Fraction(1, 2))
    assert RingSpec(("x",), (2,), RATIONALS).coerce(Fraction(1, 2)) == Fraction(1, 2)


def test_element_construction_is_strict():
    spec = RingSpec(("x",), (2,))
    with pytest.raises(OutOfBounds):
        spec.element({(3,): 1})
    with pytest.raises(OutOfBounds):
        spec.element({(1, 1): 1})


def test_zero_coefficients_are_dropped():
    spec = RingSpec(("x",), (2,))
    assert spec.element({(1,): 0}) == spec.zero()
    assert spec.element({(1,): 0}).terms == {}


def test_multiplication_respects_the_quotient():
    spec = RingSpec(("x",), (2,))
    x = spec.generator(0)
    assert x * x == spec.element({(2,): 1})
    assert (x * x) * x == spec.zero()


def test_binomial_expansion():
    spec = RingSpec(("x",), (5,))
    x = spec.generator(0)
    fifth = (spec.one() + x) ** 5
    for k in range(6):
        assert fifth.coefficient_of((k,)) == math.comb(5, k)


def test_truncated_binomial():
    spec = RingSpec(("x",), (2,))
    cube = (spec.one() + spec.generator(0)) ** 3
    assert str(cube) == "1 + 3*x + 3*x^2"


def test_mixed_variable_product():
    spec = RingSpec(("x", "y"), (1, 1))
    x, y = spec.generators()
    product = (spec.one() + x) * (spec.one() + y)
    assert product == spec.element({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_pow_rejects_negative():
    spec = RingSpec(("x",), (2,))
    with pytest.raises(ValueError):
        (spec.one() + spec.generator(0)) ** -1
    assert spec.generator(0) ** 0 == spec.one()


def test_spec_mismatch_on_mixed_arithmetic():
    a = RingSpec(("x",), (2,)).generator(0)
    b = RingSpec(("y",), (2,)).generator(0)
    with pytest.raises(SpecMismatch):
        a + b
    with pytest.raises(SpecMismatch):
        a * b


def test_geometric_inverse_over_integers():
    spec = RingSpec(("x",), (4,))
    x = spec.generator(0)
    inverse = (spec.one() - x).inverse()
    assert inverse == sum((x ** k for k in range(1, 5)), spec.one())
    alternating = (spec.one() + x).inverse()
    assert alternating.coefficient_of((3,)) == -1


def test_inverse_unit_conditions():
    spec = RingSpec(("x",), (2,))
    with pytest.raises(NonUnitConstant, match=r"^constant term 2 is not a unit over Z$"):
        spec.scalar(2).inverse()
    with pytest.raises(NonUnitConstant, match=r"^constant term 0 is not a unit over Z$"):
        spec.generator(0).inverse()
    with pytest.raises(NonUnitConstant, match=r"^constant term 0 is not invertible$"):
        RingSpec(("x",), (2,), RATIONALS).generator(0).inverse()
    rational = RingSpec(("x",), (2,), RATIONALS)
    half = rational.scalar(2).inverse()
    assert half == rational.scalar(Fraction(1, 2))


def test_scalar_comparison_and_hash():
    spec = RingSpec(("x",), (2,))
    assert spec.one() == 1
    assert spec.zero() == 0
    assert spec.scalar(5) == 5
    assert hash(spec.one()) == hash(spec.element({(0,): 1}))


def test_scalar_equality_never_raises():
    spec = RingSpec(("h",), (1,))
    assert (spec.one() == Fraction(1, 2)) is False
    assert spec.zero() != Fraction(1, 3)
    assert spec.generator(0) != 1
    assert spec.scalar(2) == Fraction(4, 2)
    assert RingSpec(("h",), (1,), RATIONALS).scalar(Fraction(1, 2)) == Fraction(1, 2)


def test_scalar_elements_hash_like_their_scalars():
    spec = RingSpec(("h",), (1,))
    assert hash(spec.one()) == hash(1)
    assert hash(spec.zero()) == hash(0)
    half = RingSpec(("h",), (1,), RATIONALS).scalar(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    assert len({spec.one(), 1}) == 1


def test_graded_component_and_coefficients():
    spec = RingSpec(("x", "y"), (2, 2))
    x, y = spec.generators()
    element = spec.one() + 3 * x + x * y + y * y
    assert element.graded_component(0) == spec.one()
    assert element.graded_component(1) == 3 * x
    assert element.graded_component(2) == x * y + y * y
    assert element.coefficient_of((1, 1)) == 1
    with pytest.raises(OutOfBounds):
        element.coefficient_of((3, 0))


def test_integer_ring_rejects_fraction_scalars():
    spec = RingSpec(("x",), (2,))
    with pytest.raises(IntegerDomain):
        spec.element({(1,): Fraction(1, 2)})
    assert spec.element({(1,): Fraction(6, 3)}).coefficient_of((1,)) == 2


def test_rendering_signs_and_fractions():
    spec = RingSpec(("x",), (3,), RATIONALS)
    x = spec.generator(0)
    assert str(spec.one() - 2 * x) == "1 - 2*x"
    assert str(Fraction(1, 2) * x) == "1/2*x"
    assert str(spec.zero()) == "0"
    assert str(-x + x * x) == "-x + x^2"


def test_monomials_come_in_graded_order_then_larger_leading_exponents():
    # The sort key the two C sorts replaced, kept as the oracle.
    rng = random.Random(31)
    for _ in range(200):
        spec = _random_element(rng, RATIONALS, 0).spec
        everything = itertools.product(*(range(d + 1) for d in spec.bounds))
        expected = sorted(filter(spec.fits, everything), key=lambda e: (sum(e), [-x for x in e]))
        assert list(spec.monomials()) == expected
        bodies = [
            "*".join(v if x == 1 else f"{v}^{x}" for v, x in zip(spec.variables, e) if x) or "1"
            for e in expected
        ]
        assert str(spec.element(dict.fromkeys(reversed(expected), 1))) == " + ".join(bodies)


def test_eval_series_exponential():
    spec = RingSpec(("x", "y"), (1, 1), RATIONALS)
    x, y = spec.generators()
    value = eval_series(exponential_series(2), x + y)
    assert value == spec.one() + x + y + x * y


def test_eval_series_requires_nilpotent_argument():
    spec = RingSpec(("x",), (2,), RATIONALS)
    with pytest.raises(NonNilpotentArgument):
        eval_series(exponential_series(2), spec.one())


def test_eval_series_insufficient_order_is_permissive():
    spec = RingSpec(("x", "y"), (1, 1), RATIONALS)
    x, y = spec.generators()
    # (x + y)^2 = 2xy survives, so an order-1 series is genuinely short.
    with pytest.raises(InsufficientOrder):
        eval_series(TruncatedSeries([1, 1], order=1), x + y)
    # x^2 = 0, so the same short series is fine on one variable.
    assert eval_series(TruncatedSeries([1, 1], order=1), x) == spec.one() + x


def test_eval_series_multiplies_only_past_the_first_power(monkeypatch):
    x = RingSpec(("x",), (3,), RATIONALS).generator(0)
    calls = []
    original = rings._convolve

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rings, "_convolve", counting)
    value = eval_series(exponential_series(3), x)
    assert len(calls) == 2  # x^2 and x^3: x^1 is x's own table
    assert value == 1 + x + Fraction(1, 2) * x**2 + Fraction(1, 6) * x**3


def _eval_series_by_products(series, argument):
    """The evaluation loop the packed kernel replaced: whole-element products and sums."""
    if argument.constant_term != 0:
        raise NonNilpotentArgument(
            "series can only be evaluated at elements with zero constant term"
        )
    spec = argument.spec
    result = spec.scalar(series[0])
    power = spec.one()
    n = 1
    while True:
        power = power * argument
        if power.is_zero():
            return result
        if n > series.order:
            raise InsufficientOrder(
                f"series of order {series.order} is too short: argument^{n} != 0"
            )
        coefficient = series[n]
        if coefficient != 0:
            result = result + power * coefficient
        n += 1


def _outcome(evaluate, series, argument):
    """(terms, scalar types) of one evaluation, or the class of the error it raises."""
    try:
        value = evaluate(series, argument)
    except ValueError as error:
        return type(error)
    return value.terms, {type(c) for c in value.terms.values()}


def _random_element(rng: random.Random, scalars: str, constant):
    """An element of a random ring (0-3 variables, maybe weighted, maybe capped).

    Its constant term is `constant`; the other terms are random scalars.
    """
    count = rng.randint(0, 3)
    bounds = [rng.randint(0, 5) for _ in range(count)]
    weights = None if rng.random() < 0.5 else [rng.randint(1, 3) for _ in range(count)]
    cap = None if rng.random() < 0.5 else rng.randint(0, 8)
    spec = RingSpec(tuple(f"x{i}" for i in range(count)), bounds, scalars, weights, cap)
    terms = {(0,) * count: constant}
    for _ in range(rng.randint(0, 5)):
        exponents = tuple(rng.randint(0, d) for d in bounds)
        value = rng.randint(-5, 5)
        if any(exponents) and spec.fits(exponents):
            terms[exponents] = value if scalars == INTEGERS else Fraction(value, rng.randint(1, 6))
    return spec.element(terms)


def _random_evaluation(rng: random.Random):
    """A series of order 0..12 and an argument in a random ring.

    Over Z some coefficients are not integers, and one argument in ten has
    a constant term, so every error of eval_series turns up.
    """
    scalars = rng.choice((INTEGERS, RATIONALS))
    argument = _random_element(rng, scalars, rng.choice((1, -2)) if rng.random() < 0.1 else 0)
    coefficients = [
        rng.choice((0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
        for _ in range(rng.randint(1, 13))
    ]
    return TruncatedSeries(coefficients), argument


def test_eval_series_matches_the_product_loop_on_seeded_cases():
    rng = random.Random(1603)
    seen = set()
    for _ in range(1500):
        series, argument = _random_evaluation(rng)
        outcome = _outcome(eval_series, series, argument)
        assert outcome == _outcome(_eval_series_by_products, series, argument)
        if isinstance(outcome, tuple):
            domain = int if argument.spec.scalars == INTEGERS else Fraction
            assert outcome[1] <= {domain}
            outcome = "value"
        seen.add(outcome)
    assert seen == {
        "value", NonNilpotentArgument, IntegerDomain, InsufficientOrder
    }


def test_eval_series_errors_keep_their_order():
    spec = RingSpec(("x", "y"), (1, 1))
    x, y = spec.generators()
    half = Fraction(1, 2)
    # The constant term is checked before any coefficient is read.
    with pytest.raises(NonNilpotentArgument):
        eval_series(TruncatedSeries([half, 1]), spec.one() + x)
    # series[0] is coerced even where the argument is zero.
    with pytest.raises(IntegerDomain):
        eval_series(TruncatedSeries([half]), spec.zero())
    # (x + y)^2 = 2xy is beyond the order, but the coefficient 1/2 of
    # (x + y)^1 is reached first.
    with pytest.raises(IntegerDomain):
        eval_series(TruncatedSeries([1, half]), x + y)
    with pytest.raises(InsufficientOrder):
        eval_series(TruncatedSeries([1, 1]), x + y)
    # x^2 = 0, so the coefficient 1/2 of t^2 is never reached.
    assert eval_series(TruncatedSeries([1, 1, half]), x) == spec.one() + x


def test_eval_series_drops_powers_above_the_cap():
    # Weights (1, 2), cap 2: (x + y)^2 = x^2 and (x + y)^3 = x^3 = 0, though
    # x^3 is within the bound of x; so the coefficient 1/2 is never reached.
    spec = RingSpec(("x", "y"), (3, 3), INTEGERS, (1, 2), 2)
    x, y = spec.generators()
    value = eval_series(TruncatedSeries([1, 1, 3, Fraction(1, 2)]), x + y)
    assert value == spec.one() + x + y + 3 * x * x


def test_eval_series_closed_forms_with_scaled_arguments():
    # Powers of x/2 keep growing denominators, powers of 2x growing numerators.
    spec = RingSpec(("x",), (6,), RATIONALS)
    x = spec.generator(0)
    assert eval_series(exponential_series(6), Fraction(1, 2) * x).terms == {
        (n,): Fraction(1, 2**n * math.factorial(n)) for n in range(7)
    }
    assert eval_series(log_one_plus_series(6), 2 * x).terms == {
        (n,): Fraction((-1) ** (n + 1) * 2**n, n) for n in range(1, 7)
    }


@pytest.mark.parametrize("scalars", [INTEGERS, RATIONALS])
def test_inverse_of_seeded_units_round_trips(scalars):
    rng = random.Random(1957 if scalars == INTEGERS else 1958)
    domain = int if scalars == INTEGERS else Fraction
    for _ in range(200):
        if scalars == INTEGERS:
            lead = rng.choice((1, -1))
        else:
            lead = Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 4))
        unit = _random_element(rng, scalars, lead)
        inverse = unit.inverse()
        assert unit * inverse == 1 and inverse * unit == 1
        assert all(type(c) is domain for c in inverse.terms.values())
    point = RingSpec((), (), scalars)
    assert point.scalar(-1).inverse() == -1
    assert (point.scalar(-1).inverse() * point.scalar(-1)).terms == {(): 1}


def test_point_ring_has_scalars_only():
    spec = RingSpec((), (), RATIONALS)
    assert spec.monomials() == [()]
    assert spec.one() + spec.one() == spec.scalar(2)
    assert spec.total_degree == 0


# ---------------------------------------------------------------- weights


def test_weights_read_off_the_keys_match_the_weighted_degree():
    rng = random.Random(2001)
    specs = [
        RingSpec(("x", "y", "z"), (3, 0, 6), RATIONALS),  # uncapped
        RingSpec(("x", "y"), (4, 2), INTEGERS, (2, 3)),  # weighted
        RingSpec(("c1", "c2", "c3"), (6, 3, 2), RATIONALS, (1, 2, 3), 6),  # capped
        _symbol_spec(),
        RingSpec((), (), INTEGERS),  # zero variables
    ]
    for spec in specs:
        monomials = list(spec.monomials())
        for _ in range(20):
            chosen = rng.sample(monomials, rng.randint(0, len(monomials)))
            keys = [next(iter(spec.element({e: 1})._table)) for e in chosen]
            assert rings._weights(spec, keys) == [spec.weight(e) for e in chosen], spec



def test_span_of_zero_and_of_each_generator():
    specs = [
        RingSpec(("x", "y", "z"), (3, 0, 6), RATIONALS),
        RingSpec(("x", "y"), (4, 2), INTEGERS, (2, 3)),
        RingSpec(("c1", "c2", "c3"), (6, 3, 2), RATIONALS, (1, 2, 3), 6),
        _symbol_spec(),
        RingSpec((), (), INTEGERS),
    ]
    for spec in specs:
        assert rings._span(spec, {}) == (spec.total_degree + 1, 0)  # zero reaches 0
        for g, w, d in zip(spec.generators(), spec.weights, spec.bounds):
            if d:  # a bound-0 generator is zero
                reach = w * d if spec.cap is None else min(spec.cap, w * d)
                assert rings._span(spec, g._table) == (w, reach), spec


def test_span_of_symbol_rings_reaches_the_capped_weight_of_the_used_variables():
    rng = random.Random(2904)
    for order in (1, 2, 3, 5, 8):
        spec = bundles._symbol_bundle(2, [f"c{i}" for i in range(1, 7)], order).total_chern.spec
        monomials = [e for e in spec.monomials() if any(e)]
        for _ in range(30):
            chosen = rng.sample(monomials, rng.randint(1, min(4, len(monomials))))
            x = spec.element({e: rng.randint(1, 3) for e in chosen})
            used = {i for e in chosen for i, k in enumerate(e) if k}
            reach = min(spec.cap, sum(spec.weights[i] * spec.bounds[i] for i in used))
            lowest = min(spec.weight(e) for e in chosen)
            assert rings._span(spec, x._table) == (lowest, reach), (order, chosen)
            # Every power of x lies within the reach: x^n = 0 once n * lowest > reach.
            assert (x ** (reach // lowest + 1)).is_zero()


def _symbol_spec() -> RingSpec:
    # c1, c2, c3 of weights 1, 2, 3, truncated above weight 3.
    return RingSpec(("c1", "c2", "c3"), (3, 1, 1), RATIONALS, (1, 2, 3), 3)


def test_weights_default_to_one_and_are_validated():
    assert RingSpec(("x", "y"), (2, 2)).weights == (1, 1)
    assert RingSpec(("x", "y"), (2, 2)) == RingSpec(("x", "y"), (2, 2), INTEGERS, (1, 1))
    with pytest.raises(ValueError):
        RingSpec(("x", "y"), (2, 2), RATIONALS, (1,))
    with pytest.raises(ValueError):
        RingSpec(("x", "y"), (2, 2), RATIONALS, (1, 0))
    with pytest.raises(ValueError):
        RingSpec(("x",), (2,), RATIONALS, (1,), -1)


def test_elements_above_the_cap_are_rejected():
    spec = _symbol_spec()
    assert spec.element({(1, 1, 0): 1}).coefficient_of((1, 1, 0)) == 1
    with pytest.raises(OutOfBounds):
        spec.element({(2, 1, 0): 1})  # weight 4
    with pytest.raises(OutOfBounds):
        spec.element({(0, 1, 1): 1})  # weight 5, inside the per-variable bounds


def test_products_are_truncated_at_the_cap():
    spec = _symbol_spec()
    c1, c2, c3 = spec.generators()
    assert spec.total_degree == 3
    assert (c1 * c2).terms == {(1, 1, 0): 1}
    assert (c1 * c3).is_zero()
    assert (c2 * c2).is_zero()
    assert ((spec.one() + c1 + c2 + c3) ** 2).graded_component(3) == 2 * c3 + 2 * c1 * c2
    assert (spec.one() + c1) ** 4 == spec.one() + 4 * c1 + 6 * c1 * c1 + 4 * c1 ** 3
    assert spec.monomials() == [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (3, 0, 0)
    ]


def test_weighted_total_degree_and_generators_without_a_cap():
    spec = RingSpec(("x", "y"), (2, 1), RATIONALS, (1, 3))
    assert spec.total_degree == 5
    x, y = spec.generators()
    assert (x * x * y).graded_component(5) == x * x * y
    assert [str(piece) for piece in (x + y + x * y).graded_components()] == [
        "0", "x", "0", "y", "x*y", "0"
    ]
    assert RingSpec(("z",), (1,), RATIONALS, (4,), 3).generator(0).is_zero()


def test_specs_differing_only_in_weights_are_unequal():
    plain = RingSpec(("c1", "c2"), (2, 2), RATIONALS)
    weighted = RingSpec(("c1", "c2"), (2, 2), RATIONALS, (1, 2))
    capped = RingSpec(("c1", "c2"), (2, 2), RATIONALS, (1, 2), 4)
    assert plain != weighted != capped != plain
    with pytest.raises(SpecMismatch):
        plain.generator(0) * weighted.generator(0)


@pytest.mark.parametrize("d", sorted({2**k + s for k in range(1, 8) for s in (-1, 0, 1)}))
def test_guard_bit_keeps_exactly_the_monomials_within_the_bound(d):
    # Products pack exponents into slots of d.bit_length() + 1 bits; d at and
    # around a power of two moves the slot width.  x sits between two
    # neighbours held at their own bound, so a carry out of its slot would
    # show in w or y.
    spec = RingSpec(("w", "x", "y"), (d, d, d))
    for a in range(d + 1):
        left = spec.element({(d, a, 0): 1})
        for b in {0, d - a - 1, d - a, d - a + 1, d} & set(range(d + 1)):
            product = left * spec.element({(0, b, d): 3})
            expected = {(d, a + b, d): 3} if a + b <= d else {}
            assert product.terms == expected, (d, a, b)


# ------------------------------------------------- the packed kernel contract


def _random_terms(rng: random.Random, spec: RingSpec):
    """A random element of `spec`, constant term included."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exponents = tuple(rng.randint(0, d) for d in spec.bounds)
        if spec.fits(exponents):
            terms[exponents] = _random_scalar(rng, spec.scalars)
    return spec.element(terms)


def _random_scalar(rng: random.Random, scalars: str):
    value = rng.randint(-5, 5)
    return value if scalars == INTEGERS else Fraction(value, rng.randint(1, 6))


def _naive_product(a, b):
    """Term table of a * b: every pair of terms, kept when its monomial fits."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exponents = tuple(x + y for x, y in zip(ea, eb))
            if a.spec.fits(exponents):
                out[exponents] = out.get(exponents, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_convolve_operands_commute_and_unpack_to_the_naive_product():
    rng = random.Random(2024)
    for _ in range(800):
        scalars = rng.choice((INTEGERS, RATIONALS))
        a = _random_element(rng, scalars, rng.randint(-3, 3))
        b = _random_terms(rng, a.spec)
        (left,), da = _tables([a])
        (right,), db = _tables([b])
        sums = _convolve(a.spec, left, right)
        assert sums == _convolve(a.spec, right, left)
        product = _element(a.spec, sums, da * db)
        assert product.terms == _naive_product(a, b)
        domain = int if scalars == INTEGERS else Fraction
        assert {type(c) for c in product.terms.values()} <= {domain}


def _eval_series_closing_sum(spec, summands):
    """The closing sum eval_series ran before `_weighted_sum`: dict tables, one lcm."""
    common = 1
    for c, _, d in summands:
        common = math.lcm(common, c.denominator * d)
    total = {}
    for c, table, d in summands:
        scale = c.numerator * (common // (c.denominator * d))
        for key, v in table.items():
            total[key] = total.get(key, 0) + scale * v
    return _element(spec, total, common)


def _additive_extension_sum(spec, summands, d):
    """The closing sum additive_extension ran before `_weighted_sum`: one shared d."""
    common = 1
    for c, _ in summands:
        common = math.lcm(common, c.denominator)
    total = {}
    for c, table in summands:
        scale = c.numerator * (common // c.denominator)
        for key, v in table:
            total[key] = total.get(key, 0) + scale * v
    return _element(spec, total, common * d)


def _random_weighted_sum(rng: random.Random):
    """Elements of one random ring, some negated copies, and coefficients for them.

    The first coefficient is the int 1, as additive_extension passes it; the
    rest are coerced into the ring's scalars, as both callers pass them.
    """
    scalars = rng.choice((INTEGERS, RATIONALS))
    first = _random_element(rng, scalars, rng.randint(-3, 3))
    elements = [first]
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.2:
            elements.append(-rng.choice(elements))
        else:
            elements.append(_random_terms(rng, first.spec))
    coefficients = [1] + [first.spec.coerce(_random_scalar(rng, scalars)) for _ in elements[1:]]
    return first.spec, elements, coefficients


def test_weighted_sum_matches_the_loops_it_replaced_on_seeded_cases():
    rng = random.Random(1212)
    for _ in range(600):
        spec, elements, coefficients = _random_weighted_sum(rng)
        expected = spec.zero()
        for c, a in zip(coefficients, elements):
            expected = expected + a * c
        domain = int if spec.scalars == INTEGERS else Fraction

        # eval_series' shape: each table packed alone, over its own denominator.
        packed = [_tables([a]) for a in elements]
        summands = [(c, dict(table), d) for c, ((table,), d) in zip(coefficients, packed)]
        value = _weighted_sum(spec, [(c, t.items(), d) for c, t, d in summands])
        oracle = _eval_series_closing_sum(spec, summands)
        assert value.terms == oracle.terms == expected.terms
        assert {type(c) for c in value.terms.values()} == {type(c) for c in oracle.terms.values()}
        assert {type(c) for c in value.terms.values()} <= {domain}

        # additive_extension's shape: every table over one shared denominator.
        tables, d = _tables(elements)
        value = _weighted_sum(spec, [(c, t, d) for c, t in zip(coefficients, tables)])
        oracle = _additive_extension_sum(spec, list(zip(coefficients, tables)), d)
        assert value.terms == oracle.terms == expected.terms
        assert {type(c) for c in value.terms.values()} == {type(c) for c in oracle.terms.values()}


def test_only_rings_knows_the_packing():
    # Other modules hand packed tables between the kernel steps, never build
    # or read a key, an element's stored table or its denominator themselves,
    # and never make an element but through the functions of rings.
    refused = ("_packing", "offset", r"\b_table\b", r"\b_denominator\b")
    refused += (r"object\.__new__\(RingElement\)",)
    for path in sorted(Path(rings.__file__).parent.glob("*.py")):
        if path.name != "rings.py":
            text = path.read_text()
            assert [word for word in refused if re.search(word, text)] == [], path.name

