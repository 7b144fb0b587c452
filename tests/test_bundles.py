"""Chern calculus against a materialized-roots oracle.

The library never builds Chern roots; these tests do.  A bundle whose
total Chern class is (1+a)(1+b)... in a ring with generators a, b, ...
has those generators as roots, so additive and multiplicative
extensions can be checked against literal sums and products of F(root).
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from test_series import log_one_plus_series

from rrcalc import bundles
from rrcalc.bundles import (
    BundleClass,
    RankMismatch,
    additive_extension,
    character_rows,
    chern_character,
    chern_from_character,
    multiplicative_extension,
    newton_e_to_p,
    newton_p_to_e,
    todd_class,
    todd_rows,
    whitney_difference,
    whitney_sum,
)
from rrcalc.rings import (
    INTEGERS,
    RATIONALS,
    InsufficientOrder,
    IntegerDomain,
    RingSpec,
    eval_series,
)
from rrcalc.series import (
    TruncatedSeries,
    _log_ratio,
    exponential_series,
    todd_series,
)


def _root_ring(count: int) -> RingSpec:
    names = tuple(chr(ord("a") + i) for i in range(count))
    return RingSpec(names, (count,) * count, RATIONALS)


def _bundle_from_roots(spec: RingSpec, indices) -> BundleClass:
    total = spec.one()
    for i in indices:
        total = total * (spec.one() + spec.generator(i))
    return BundleClass(len(indices), total)


def test_total_chern_must_be_a_unit_of_constant_one():
    spec = RingSpec(("x",), (2,))
    with pytest.raises(ValueError):
        BundleClass(1, 2 * spec.one() + spec.generator(0))


def test_chern_classes_split_by_degree():
    spec = _root_ring(2)
    a, b = spec.generators()
    e = _bundle_from_roots(spec, (0, 1))
    assert e.chern_class(1) == a + b
    assert e.chern_class(2) == a * b
    assert e.chern_class(0) == spec.one()


def test_whitney_sum_and_difference():
    spec = _root_ring(3)
    e = _bundle_from_roots(spec, (0, 1))
    f = _bundle_from_roots(spec, (2,))
    both = whitney_sum(e, f)
    assert both.rank == 3
    assert both.total_chern == _bundle_from_roots(spec, (0, 1, 2)).total_chern
    recovered = whitney_difference(both, f)
    assert recovered.rank == e.rank
    assert recovered.total_chern == e.total_chern


def test_newton_power_sums_match_literal_roots():
    spec = _root_ring(3)
    roots = list(spec.generators())
    elementary = _bundle_from_roots(spec, (0, 1, 2)).chern_classes()
    power_sums = newton_e_to_p(elementary, 6)
    for n in range(1, 7):
        literal = sum((r ** n for r in roots), spec.zero())
        assert power_sums[n - 1] == literal


def test_newton_round_trip_and_domain():
    spec = _root_ring(2)
    elementary = _bundle_from_roots(spec, (0, 1)).chern_classes()
    power_sums = newton_e_to_p(elementary, 4)
    assert newton_p_to_e(power_sums, 4) == [
        elementary[0],
        elementary[1],
        spec.zero(),
        spec.zero(),
    ]
    integer_spec = RingSpec(("x",), (2,))
    with pytest.raises(IntegerDomain):
        newton_p_to_e([integer_spec.generator(0)], 1)
    with pytest.raises(ValueError):
        newton_e_to_p([], 1)


def test_extensions_match_literal_root_sums_and_products():
    rng = random.Random(11)
    spec = _root_ring(3)
    e = _bundle_from_roots(spec, (0, 1, 2))
    for _ in range(25):
        order = spec.total_degree
        coefficients = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)
        ]
        series = TruncatedSeries(coefficients)
        literal_sum = spec.zero()
        for root in spec.generators():
            literal_sum = literal_sum + eval_series(series, root)
        assert additive_extension(series, e) == literal_sum
        if series[0] == 0:
            continue
        literal_product = spec.one()
        for root in spec.generators():
            literal_product = literal_product * eval_series(series, root)
        assert multiplicative_extension(series, e) == literal_product


def test_multiplicative_extension_inverts_on_negative_rank():
    spec = _root_ring(2)
    e = _bundle_from_roots(spec, (0, 1))
    minus = BundleClass(-e.rank, e.total_chern.inverse())
    series = todd_series(spec.total_degree)
    product = multiplicative_extension(series, e) * multiplicative_extension(
        series, minus
    )
    assert product == spec.one()


def _uncut_multiplicative_extension(series, e):
    """F_x(E) with the Horner log taken at the series' full order."""
    c0 = series[0]
    reduced = series * (Fraction(1) / c0)
    gap = reduced - TruncatedSeries([1], reduced.order)
    log_part = log_one_plus_series(reduced.order).compose(gap)
    exponent = additive_extension(log_part, e)
    value = eval_series(exponential_series(e.spec.total_degree), exponent)
    return value * Fraction(c0) ** e.rank


def test_multiplicative_extension_matches_the_uncut_log():
    rng = random.Random(77)
    raised = 0
    for _ in range(150):
        width = rng.randint(1, 3)
        names = tuple(chr(ord("a") + i) for i in range(width))
        bounds = tuple(rng.randint(0, 4 // width) for _ in range(width))
        spec = RingSpec(names, bounds, RATIONALS)
        nilpotent = {
            exps: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for exps in spec.monomials()
            if sum(exps) and rng.random() < 0.6
        }
        e = BundleClass(rng.randint(-3, 5), spec.one() + spec.element(nilpotent))
        head = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
        order = rng.randint(0, 14)
        tail = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)]
        series = TruncatedSeries([head] + tail)
        try:
            expected = _uncut_multiplicative_extension(series, e)
        except InsufficientOrder:
            raised += 1
            with pytest.raises(InsufficientOrder):
                multiplicative_extension(series, e)
            continue
        assert multiplicative_extension(series, e) == expected
    assert 0 < raised < 75  # both branches were exercised


def test_the_log_kernel_matches_the_composed_log_on_seeded_units():
    # log(f/f(0)) as the integral of f'/f against log(1 + t) composed with
    # f/f(0) - 1, with f(0) negative and fractional, at orders 0..30.
    rng = random.Random(1603)
    for order in range(31):
        for head in (Fraction(-1), Fraction(-2, 3), Fraction(5, 7), Fraction(3)):
            tail = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order)]
            f = TruncatedSeries([head] + tail)
            gap = f * (1 / head) - TruncatedSeries([1], order)
            expected = log_one_plus_series(order).compose(gap)
            assert _log_ratio(f.coefficients, order) == expected
            cut = rng.randint(0, order)
            assert _log_ratio(f.coefficients, cut) == expected.truncated(cut)


def test_a_series_shorter_than_a_power_sum_still_raises_insufficient_order():
    # The tangent bundle of P^3 has p_2 = 4h^2, beyond an order-1 series.
    spec = RingSpec(("h",), (3,), RATIONALS)
    tangent = BundleClass(3, (spec.one() + spec.generator(0)) ** 4)
    with pytest.raises(InsufficientOrder):
        multiplicative_extension(TruncatedSeries([1, Fraction(1, 2)]), tangent)


def test_the_genus_log_stops_at_the_ring_degree(monkeypatch):
    orders = []

    def recording(coefficients, order):
        orders.append(order)
        return _log_ratio(coefficients, order)

    monkeypatch.setattr(bundles, "_log_ratio", recording)
    spec = _root_ring(2)  # total degree 4
    e = _bundle_from_roots(spec, (0, 1))
    multiplicative_extension(todd_series(12), e)
    multiplicative_extension(todd_series(3), BundleClass(1, spec.one() + spec.generator(0)))
    assert orders == [4, 3]


def test_each_bundle_runs_newton_once_for_both_extensions(monkeypatch):
    calls = []

    def counting(elementary, up_to):
        calls.append(up_to)
        return newton_e_to_p(elementary, up_to)

    monkeypatch.setattr(bundles, "newton_e_to_p", counting)
    spec = _root_ring(2)
    for e in (_bundle_from_roots(spec, roots) for roots in ((0,), (0, 1))):
        plain = additive_extension(exponential_series(4), e)
        assert multiplicative_extension(todd_series(4), e) == todd_class(e)
        assert additive_extension(exponential_series(4), e) == plain == chern_character(e)
    assert calls == [4, 4]


def test_filled_power_sums_keep_equality_hash_and_repr():
    spec = _root_ring(2)
    used, fresh = (_bundle_from_roots(spec, (0, 1)) for _ in range(2))
    chern_character(used)
    assert "_power_sums" in vars(used) and "_power_sums" not in vars(fresh)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert chern_character(fresh) == chern_character(used)


def test_chern_character_of_plane_tangent():
    # rank 2, total Chern (1+h)^3 truncated: ch = 2 + 3h + 3h^2/2.
    spec = RingSpec(("h",), (2,), RATIONALS)
    h = spec.generator(0)
    tangent = BundleClass(2, (spec.one() + h) ** 3)
    assert chern_character(tangent) == spec.scalar(2) + 3 * h + Fraction(3, 2) * (h * h)


def test_todd_class_of_plane_tangent():
    spec = RingSpec(("h",), (2,), RATIONALS)
    h = spec.generator(0)
    tangent = BundleClass(2, (spec.one() + h) ** 3)
    assert todd_class(tangent) == spec.one() + Fraction(3, 2) * h + h * h


def test_todd_of_line_bundle_matches_series():
    spec = RingSpec(("h",), (4,), RATIONALS)
    h = spec.generator(0)
    line = BundleClass(1, spec.one() + h)
    assert todd_class(line) == eval_series(todd_series(4), h)


def test_character_round_trip():
    spec = _root_ring(2)
    e = _bundle_from_roots(spec, (0, 1))
    recovered = chern_from_character(chern_character(e), e.rank)
    assert recovered.total_chern == e.total_chern
    with pytest.raises(RankMismatch):
        chern_from_character(chern_character(e), e.rank + 1)


def test_character_rows_formulas():
    symbols = ("c1", "c2", "c3")
    rows = character_rows(4, symbols, 3)
    spec = rows[1].spec
    c1, c2, c3 = spec.generators()
    assert rows[0] == 4
    assert rows[1] == c1
    assert rows[2] == Fraction(1, 2) * (c1 * c1) - c2
    assert rows[3] == (
        Fraction(1, 6) * (c1 ** 3)
        - Fraction(1, 2) * (c1 * c2)
        + Fraction(1, 2) * c3
    )


def test_todd_rows_formulas():
    rows = todd_rows(("c1", "c2"), 3)
    spec = rows[0].spec
    c1, c2 = spec.generators()
    assert rows[0] == spec.one()
    assert rows[1] == Fraction(1, 2) * c1
    assert rows[2] == Fraction(1, 12) * (c1 * c1 + c2)
    assert rows[3] == Fraction(1, 24) * (c1 * c2)


def test_weight_component_uses_symbol_weights():
    spec = RingSpec(("c1", "c2"), (2, 2), RATIONALS, (1, 2))
    c1, c2 = spec.generators()
    mixed = c1 + c2 + c1 * c2 + c1 * c1
    assert mixed.graded_component(1) == c1
    assert mixed.graded_component(2) == c2 + c1 * c1
    assert mixed.graded_component(3) == c1 * c2
    assert mixed.graded_component(4).is_zero()


def test_rows_against_root_bundle():
    # Substituting a literal bundle's Chern classes into the abstract rows
    # reproduces chern_character degree by degree.
    spec = _root_ring(2)
    e = _bundle_from_roots(spec, (0, 1))
    rows = character_rows(e.rank, ("c1", "c2"), spec.total_degree)
    substituted = spec.zero()
    for n, row in enumerate(rows):
        for exps, value in row.terms.items():
            term = spec.scalar(value)
            for index, power in enumerate(exps):
                term = term * e.chern_class(index + 1) ** power
            substituted = substituted + term
    assert substituted == chern_character(e)


def test_todd_rows_against_root_bundle():
    # The same substitution into the abstract Todd rows reproduces todd_class.
    spec = _root_ring(3)
    e = _bundle_from_roots(spec, (0, 1, 2))
    rows = todd_rows(("c1", "c2", "c3"), spec.total_degree)
    substituted = spec.zero()
    for row in rows:
        for exps, value in row.terms.items():
            term = spec.scalar(value)
            for index, power in enumerate(exps):
                term = term * e.chern_class(index + 1) ** power
            substituted = substituted + term
    assert substituted == todd_class(e)


def test_symbols_above_the_order_get_no_generator():
    many = tuple(f"c{i}" for i in range(1, 49))
    for rows, few in (
        (character_rows(3, many, 8), character_rows(3, many[:8], 8)),
        (todd_rows(many, 8), todd_rows(many[:8], 8)),
    ):
        assert [str(row) for row in rows] == [str(row) for row in few]
        assert rows[0].spec.variables == many[:8]
    assert character_rows(3, many, 0)[0].spec.variables == ()


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize(
    "symbols, repeated",
    [(("c1", "c1"), "c1"), (("c1", "c2", "c1"), "c1"), (("c1", "c2", "c3", "c2"), "c2")],
)
def test_repeated_symbols_are_refused_at_every_order(symbols, repeated, order):
    # Symbols above the order get no generator, so a repeat there used to pass.
    message = f"the symbol '{repeated}' is named twice"
    with pytest.raises(ValueError, match=message):
        character_rows(1, symbols, order)
    with pytest.raises(ValueError, match=message):
        todd_rows(symbols, order)


# ------------------------------------------- the integer kernels against the old loops


def _newton_e_to_p_by_products(elementary, up_to):
    """The loop the integer kernel replaced: whole-element products and sums."""
    if not elementary:
        raise ValueError("need at least e_1 (possibly zero) to fix the ring")
    spec = elementary[0].spec

    def e(i):
        return elementary[i - 1] if i <= len(elementary) else spec.zero()

    p = []
    for n in range(1, up_to + 1):
        acc = e(n) * ((-1) ** (n - 1) * n)
        for i in range(1, n):
            acc = acc + e(i) * ((-1) ** (i - 1)) * p[n - i - 1]
        p.append(acc)
    return p


def _newton_p_to_e_by_products(power_sums, up_to):
    """The inverse loop the integer kernel replaced."""
    if not power_sums:
        raise ValueError("need at least p_1 (possibly zero) to fix the ring")
    spec = power_sums[0].spec
    if spec.scalars != RATIONALS:
        raise IntegerDomain("recovering e_n from power sums divides by n")

    def p(i):
        return power_sums[i - 1] if i <= len(power_sums) else spec.zero()

    e = []
    for n in range(1, up_to + 1):
        acc = p(n) * ((-1) ** (n - 1))
        for i in range(1, n):
            acc = acc + e[n - i - 1] * p(i) * ((-1) ** (i - 1))
        e.append(acc * Fraction(1, n))
    return e


def _additive_extension_by_products(series, e):
    """F[0]*rank + sum F[n]*p_n by element sums, with the old Newton loop's p_n."""
    result = e.spec.scalar(series[0] * e.rank)
    degree = e.spec.total_degree
    power_sums = _newton_e_to_p_by_products(e.chern_classes(), degree) if degree else []
    for n, p_n in enumerate(power_sums, start=1):
        if p_n.is_zero():
            continue
        if n > series.order:
            raise InsufficientOrder(
                f"series of order {series.order} is too short: p_{n} != 0"
            )
        result = result + p_n * series[n]
    return result


def _outcome(compute, *args):
    """Terms and scalar types of each result, or the error's class and message."""
    try:
        value = compute(*args)
    except ValueError as error:
        return type(error), str(error)
    values = value if isinstance(value, list) else [value]
    return [(v.terms, sorted({type(c).__name__ for c in v.terms.values()})) for v in values]


def _random_spec(rng: random.Random, scalars: str) -> RingSpec:
    """0-3 variables, maybe weighted, maybe capped."""
    count = rng.randint(0, 3)
    bounds = [rng.randint(0, 4) for _ in range(count)]
    weights = None if rng.random() < 0.5 else [rng.randint(1, 3) for _ in range(count)]
    cap = None if rng.random() < 0.5 else rng.randint(0, 7)
    return RingSpec(tuple(f"x{i}" for i in range(count)), bounds, scalars, weights, cap)


def _random_scalar(rng: random.Random, scalars: str):
    value = rng.randint(-6, 6)
    return value if scalars == INTEGERS else Fraction(value, rng.randint(1, 6))


def _random_element(rng: random.Random, spec: RingSpec, constant=None):
    """Random terms, zero in one case of eight; `constant` fixes the constant term."""
    terms = {}
    if rng.random() >= 0.125:
        monomials = list(spec.monomials())
        for exponents in rng.sample(monomials, rng.randint(0, len(monomials))):
            terms[exponents] = _random_scalar(rng, spec.scalars)
    if constant is not None:
        terms[(0,) * len(spec.variables)] = constant
    return spec.element(terms)


def _random_inputs(rng: random.Random, scalars: str):
    """Newton inputs; one list in eight mixes in an element of another ring."""
    spec = _random_spec(rng, scalars)
    elements = [_random_element(rng, spec) for _ in range(rng.randint(0, 4))]
    if len(elements) > 1 and rng.random() < 0.125:
        other = RingSpec(("y",), (2,), scalars)
        elements[rng.randrange(1, len(elements))] = _random_element(rng, other)
    return elements, rng.randint(0, 6)


def _kinds(outcome) -> str:
    return outcome[0].__name__ if isinstance(outcome, tuple) else "value"


def test_newton_matches_the_product_loops_on_seeded_cases():
    rng = random.Random(909)
    seen = set()
    for case in range(1200):
        scalars = (INTEGERS, RATIONALS)[case % 2]
        elements, up_to = _random_inputs(rng, scalars)
        forward = _outcome(newton_e_to_p, elements, up_to)
        assert forward == _outcome(_newton_e_to_p_by_products, elements, up_to)
        backward = _outcome(newton_p_to_e, elements, up_to)
        assert backward == _outcome(_newton_p_to_e_by_products, elements, up_to)
        seen |= {("e_to_p", _kinds(forward)), ("p_to_e", _kinds(backward))}
    assert seen == {
        ("e_to_p", "value"),
        ("e_to_p", "ValueError"),
        ("e_to_p", "SpecMismatch"),
        ("p_to_e", "value"),
        ("p_to_e", "ValueError"),
        ("p_to_e", "SpecMismatch"),
        ("p_to_e", "IntegerDomain"),
    }


def test_newton_over_the_integers_returns_ints():
    spec = RingSpec(("x", "y"), (3, 2), INTEGERS, (1, 2), 5)
    elementary = [3 * spec.generator(0), spec.generator(1) - spec.generator(0) ** 2]
    power_sums = newton_e_to_p(elementary, 5)
    assert power_sums == _newton_e_to_p_by_products(elementary, 5)
    assert all(type(c) is int for p in power_sums for c in p.terms.values())


def test_newton_keeps_rational_power_sums_over_powers_of_the_denominator():
    # e_i with denominators 2, 3 and 6: every p_n is exact, and p_n -> e_n
    # round-trips through the content reduction.
    spec = RingSpec(("x",), (6,), RATIONALS)
    x = spec.generator(0)
    elementary = [x * Fraction(1, 2), x**2 * Fraction(-2, 3), x**3 * Fraction(5, 6)]
    power_sums = newton_e_to_p(elementary, 6)
    assert power_sums == _newton_e_to_p_by_products(elementary, 6)
    assert newton_p_to_e(power_sums, 3) == elementary


def _random_extension_case(rng: random.Random, scalars: str):
    """A bundle on a random ring and a series.

    The series is shorter than the ring's degree in about one case in
    four; over Z, about three coefficients in ten may be fractions.
    """
    spec = _random_spec(rng, scalars)
    bundle = BundleClass(rng.randint(-3, 5), _random_element(rng, spec, constant=1))
    order = rng.randint(0, spec.total_degree + 1)
    if rng.random() < 0.25:
        order = rng.randint(0, max(spec.total_degree - 1, 0))
    coefficients = [
        rng.choice((0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
        if scalars == RATIONALS or rng.random() < 0.3
        else rng.randint(-5, 5)
        for _ in range(order + 1)
    ]
    return TruncatedSeries(coefficients), bundle


def test_additive_extension_matches_the_product_loop_on_seeded_cases():
    rng = random.Random(1279)
    seen = set()
    for case in range(1200):
        series, bundle = _random_extension_case(rng, (INTEGERS, RATIONALS)[case % 2])
        outcome = _outcome(additive_extension, series, bundle)
        assert outcome == _outcome(_additive_extension_by_products, series, bundle)
        seen.add(_kinds(outcome))
    assert seen == {"value", "IntegerDomain", "InsufficientOrder"}


def test_additive_extension_errors_keep_their_order():
    spec = RingSpec(("x",), (3,))
    bundle = BundleClass(1, spec.one() + spec.generator(0))  # p_1, p_2, p_3 all nonzero
    half = Fraction(1, 2)
    for series, error in (
        (TruncatedSeries([half, 1]), "1/2 is not an integer"),  # F[0]*rank first
        (TruncatedSeries([1, half]), "1/2 is not an integer"),  # then F[1] before p_2
        (TruncatedSeries([1, 1, half]), "1/2 is not an integer"),
        (TruncatedSeries([1, 1]), "too short: p_2 != 0"),
    ):
        for compute in (additive_extension, _additive_extension_by_products):
            with pytest.raises((IntegerDomain, InsufficientOrder), match=error):
                compute(series, bundle)


def test_chern_from_character_at_codim_256_matches_the_product_loop():
    # The sheaf-chern bound: ch = h^256 in Q[h]/(h^513), Newton back to e_n.
    spec = RingSpec(("h",), (512,), RATIONALS)
    character = spec.generator(0) ** 256
    pieces = character.graded_components()[1:]
    power_sums = [piece * factorial(n) for n, piece in enumerate(pieces, start=1)]
    recovered = chern_from_character(character, 0).chern_classes()
    assert recovered == _newton_p_to_e_by_products(power_sums, len(power_sums))
    assert recovered[255] == spec.generator(0) ** 256 * (-factorial(255))
