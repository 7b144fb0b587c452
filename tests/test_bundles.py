"""Chern calculus against a materialized-roots oracle.

The library never builds Chern roots; these tests do.  A bundle whose
total Chern class is (1+a)(1+b)... in a ring with generators a, b, ...
has those generators as roots, so additive and multiplicative
extensions can be checked against literal sums and products of F(root).
"""

import random
from fractions import Fraction

import pytest

from rrcalc import bundles
from rrcalc.bundles import (
    BundleClass,
    RankMismatch,
    additive_extension,
    character_rows,
    chern_character,
    chern_from_character,
    dual_bundle,
    multiplicative_extension,
    newton_e_to_p,
    newton_p_to_e,
    todd_class,
    todd_rows,
    whitney_difference,
    whitney_sum,
)
from rrcalc.rings import (
    RATIONALS,
    InsufficientOrder,
    IntegerDomain,
    RingSpec,
    eval_series,
)
from rrcalc.series import (
    TruncatedSeries,
    exponential_series,
    log_one_plus_series,
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


def test_dual_negates_odd_chern_classes():
    spec = _root_ring(2)
    e = _bundle_from_roots(spec, (0, 1))
    dual = dual_bundle(e)
    assert dual.chern_class(1) == -e.chern_class(1)
    assert dual.chern_class(2) == e.chern_class(2)


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


def test_a_series_shorter_than_a_power_sum_still_raises_insufficient_order():
    # The tangent bundle of P^3 has p_2 = 4h^2, beyond an order-1 series.
    spec = RingSpec(("h",), (3,), RATIONALS)
    tangent = BundleClass(3, (spec.one() + spec.generator(0)) ** 4)
    with pytest.raises(InsufficientOrder):
        multiplicative_extension(TruncatedSeries([1, Fraction(1, 2)]), tangent)


def test_the_genus_log_stops_at_the_ring_degree(monkeypatch):
    orders = []

    def recording(order):
        orders.append(order)
        return log_one_plus_series(order)

    monkeypatch.setattr(bundles, "log_one_plus_series", recording)
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
