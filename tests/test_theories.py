"""Tests for the theory models: laws, morphisms, twisting, duality."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import factorial, lcm
from operator import mul

import pytest

from test_series import _inverse_by_fractions

from rrcalc import (
    CHOW,
    CHOW_Q,
    K_THEORY,
    BundleClass,
    FiltrationViolation,
    GKClass,
    InsufficientOrder,
    IntegerDomain,
    Morphism,
    NonNilpotentArgument,
    NonUnitConstant,
    RingElement,
    RingSpec,
    SolverInconsistent,
    SpecMismatch,
    TheoryModel,
    TruncatedSeries,
    diagonal_class,
    eval_series,
    exp_deficit_series,
    factor_projection,
    gk_leading_morphism,
    k_line_class,
    linear_immersion,
    metric_check,
    multiplicative_extension,
    point_projection,
    pullback,
    pushforward,
    relative_tangent,
    ring_of,
    space_tangent,
    tangent_class,
    todd_series,
    twist_theory,
    universal_morphism,
)
from rrcalc import acceptance, rings, series, theories
from rrcalc.cli import MAX_DIAGONAL_DIM
from rrcalc.rings import INTEGERS, RATIONALS


def exp_deficit_twist(order: int = 10):
    return twist_theory(CHOW_Q, exp_deficit_series(order))


# ---------------------------------------------------------------- laws


def test_chow_law_is_addition():
    spec = ring_of(CHOW, (2, 2))
    h1, h2 = spec.generator(0), spec.generator(1)
    assert CHOW.law(h1, h2) == h1 + h2


def test_ktheory_law():
    spec = ring_of(K_THEORY, (2, 2))
    t1, t2 = spec.generator(0), spec.generator(1)
    assert K_THEORY.law(t1, t2) == t1 + t2 - t1 * t2


def test_group_law_elements():
    assert str(CHOW.group_law(3)) == "u + v"
    assert str(K_THEORY.group_law(2)) == "u + v - u*v"


def test_law_rejects_mixed_rings():
    a = ring_of(CHOW, (2,)).generator(0)
    b = ring_of(CHOW, (3,)).generator(0)
    with pytest.raises(SpecMismatch):
        CHOW.law(a, b)


def test_group_law_axioms_for_twisted_theory():
    # unit, commutativity, associativity, checked on actual nilpotents
    tw = exp_deficit_twist()
    spec = RingSpec(("u", "v", "w"), (2, 2, 2), RATIONALS)
    u, v, w = (spec.generator(i) for i in range(3))
    zero = spec.zero()
    assert tw.law(u, zero) == u
    assert tw.law(zero, v) == v
    assert tw.law(u, v) == tw.law(v, u)
    assert tw.law(tw.law(u, v), w) == tw.law(u, tw.law(v, w))


def test_exp_deficit_twist_has_multiplicative_law():
    # the conjugated additive law closes up exactly, at any truncation
    tw = exp_deficit_twist(16)
    got = tw.group_law(7)
    spec = got.spec
    u, v = spec.generator(0), spec.generator(1)
    assert got == u + v - u * v


def test_identity_twist_keeps_the_base_law():
    tw = twist_theory(CHOW_Q, TruncatedSeries([1], 10))
    law = tw.group_law(4)
    spec = law.spec
    assert law == spec.generator(0) + spec.generator(1)


@pytest.fixture
def reversion_calls(monkeypatch):
    """Every series TruncatedSeries.reversion is called on, in order."""
    calls = []
    original = TruncatedSeries.reversion

    def counting(series):
        calls.append(series)
        return original(series)

    monkeypatch.setattr(TruncatedSeries, "reversion", counting)
    return calls


def _top_row(theory):
    """The last row of log_T's powers a twisted theory's law has built; 0 for none."""
    built = vars(theory).get("_built_law")
    return 0 if built is None else len(built.rows) - 1


def test_twisted_law_builds_once_per_larger_degree_without_reversion(
    reversion_calls, monkeypatch
):
    exponentials = _counting(monkeypatch, TheoryModel, "_exponential")
    tw = twist_theory(CHOW, exp_deficit_series(10))
    assert "_built_law" not in vars(tw)  # built lazily, on the first law
    x = ring_of(tw, (0,)).zero()
    assert tw.law(x, x) == x
    assert _top_row(tw) == 0 and exponentials == []  # a point ring reads no entry
    tw.group_law(4)  # rows through 4, exp_T through degree 8
    assert _top_row(tw) == 4
    assert [n for _, n in exponentials] == [8]
    a, b = ring_of(tw, (2, 3)).generators()
    assert tw.law(a, b) == tw.law(b, a)
    assert tw.law(a + b, a * b) == tw.law(a * b, a + b)
    assert _top_row(tw) <= 5
    rows = _top_row(tw)
    assert tw.law(a + b, a * b) == tw.law(a * b, a + b)
    assert _top_row(tw) == rows  # a repeated call adds none
    # A larger degree reads exp_T again, once, and adds one row.
    c, d = ring_of(tw, (5, 5)).generators()
    assert tw.law(c, d) == tw.law(d, c)
    tw.group_law(3)
    assert _top_row(tw) == 5
    assert [n for _, n in exponentials] == [8, 10]
    assert reversion_calls == []  # no build reverts


@pytest.mark.parametrize("base", [CHOW, K_THEORY], ids=["chow", "ktheory"])
def test_a_law_of_one_variable_each_in_a_square_reads_rows_only_through_its_side(base):
    rng = random.Random(2902 + base.beta)
    for k in range(1, 9):
        theory = twist_theory(base, _seeded_twist(rng, Fraction(2, 3), 2 * k, True))
        spec = ring_of(theory, (k, k))
        h1, h2 = spec.generators()
        a = h1 + rng.randint(1, 5) * h1**k
        b = rng.randint(1, 5) * h2 - h2 ** max(k - 1, 2)
        theory.law(a, b)
        assert _top_row(theory) == k, k  # the triangle i + l <= 2k reads rows through 2k
        assert vars(theory)["_built_law"].degree == 2 * k, k


@pytest.mark.parametrize("base", [CHOW, K_THEORY], ids=["chow", "ktheory"])
def test_a_law_one_column_past_a_group_laws_square_builds_no_row(base):
    # After group_law(k) a law at total degree k + 2 needs F[1, k + 1] and
    # its transpose; row 1 reads row k of D for it, so no row is built and
    # exp_T is read no further.
    rng = random.Random(2905 + base.beta)
    for k in range(2, 10):
        twist = _seeded_twist(rng, Fraction(2, 3), 2 * k + 2, True)
        theory = twist_theory(base, twist)
        theory.group_law(k)
        x, y = ring_of(theory, ((k + 3) // 2, (k + 2) // 2)).generators()
        a, b = x + 2 * y + x * y, 3 * x - y + y**2
        value = theory.law(a, b)
        law = vars(theory)["_built_law"]
        assert (_top_row(theory), law.degree, law.held[1]) == (k, 2 * k, k + 1), k
        oracle = _law_from_exponential(theory._exponential(k + 2), k + 2)
        assert value == rings._eval_bivariate(lambda _: oracle, twist.order + 1, a, b), k


@pytest.mark.parametrize("theory", [CHOW, K_THEORY], ids=["chow", "ktheory"])
def test_untwisted_laws_never_revert(theory, reversion_calls):
    theory.group_law(4)
    a, b = ring_of(theory, (2, 2)).generators()
    theory.law(a, b)
    assert reversion_calls == []


# The route `law` took before the table: conjugate the untwisted law by
# e(x) = x*F(x), with three series evaluations at ring elements per call.
def _law_by_conjugation(theory, a, b):
    if a.spec != b.spec:
        raise SpecMismatch("group law arguments must share a ring")
    if theory.twist is None:
        return a + b - a * b if theory.beta else a + b
    conjugator = theory.twist.times_t()
    inverse = conjugator.reversion()
    x, y = eval_series(inverse, a), eval_series(inverse, b)
    return eval_series(conjugator, x + y - x * y if theory.beta else x + y)


def _law_outcome(law, *args):
    try:
        return law(*args)
    except ValueError as error:
        return type(error)


def _seeded_twist(rng, constant, order, dense):
    rest = [
        Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if dense or rng.random() < 0.3 else 0
        for _ in range(order)
    ]
    return TruncatedSeries([constant] + rest)


LAW_RINGS = [
    RingSpec(("x",), (5,), RATIONALS),
    RingSpec(("x", "y"), (3, 2), RATIONALS),
    RingSpec(("x", "y", "z"), (2, 1, 2), RATIONALS),
    RingSpec(("c1", "c2", "c3"), (6, 3, 2), RATIONALS, (1, 2, 3), 6),
]


def _seeded_class(rng, spec):
    monomials = [m for m in spec.monomials() if any(m)]
    chosen = rng.sample(monomials, rng.randint(0, min(4, len(monomials))))
    terms = {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for m in chosen}
    if rng.random() < 0.04:
        terms[(0,) * len(spec.bounds)] = 1  # not nilpotent: both routes refuse it
    return spec.element(terms)


def test_law_matches_the_conjugation_route_on_seeded_cases():
    rng = random.Random(1602)
    seen = Counter()
    for base, constant, dense, order in itertools.product(
        (CHOW, K_THEORY), (1, -1, Fraction(2, 3), 3), (True, False), range(1, 13)
    ):
        theory = twist_theory(base, _seeded_twist(rng, constant, order, dense))
        for spec in LAW_RINGS:
            a, b = _seeded_class(rng, spec), _seeded_class(rng, spec)
            got = _law_outcome(theory.law, a, b)
            assert got == _law_outcome(_law_by_conjugation, theory, a, b), (theory, a, b)
            seen[got if isinstance(got, type) else "value"] += 1
    assert seen.keys() == {"value", InsufficientOrder, NonNilpotentArgument}
    assert seen["value"] > 600


@pytest.mark.parametrize("theory", [CHOW, K_THEORY, exp_deficit_twist(6)], ids=repr)
def test_law_keeps_the_spec_mismatch_message(theory):
    a = ring_of(theory, (2,)).generator(0)
    b = ring_of(theory, (2, 1)).generator(0)
    with pytest.raises(SpecMismatch, match="^group law arguments must share a ring$"):
        theory.law(a, b)


@pytest.mark.parametrize("theory", [CHOW, K_THEORY, exp_deficit_twist(6)], ids=repr)
def test_law_refuses_a_constant_term_with_the_series_message(theory):
    spec = ring_of(theory, (2, 2))
    x, y = spec.generators()
    message = "^series can only be evaluated at elements with zero constant term$"
    with pytest.raises(NonNilpotentArgument, match=message):
        theory.law(x + 1, y)
    with pytest.raises(NonNilpotentArgument, match=message):
        theory.law(x, spec.one())


def test_law_names_the_first_monomial_past_the_order():
    # e = x*(1 + t) has order 2, so a^2*b = x^2*y != 0 is beyond it.
    theory = twist_theory(CHOW_Q, TruncatedSeries([1, 1]))
    x, y = RingSpec(("x", "y"), (2, 1), RATIONALS).generators()
    message = r"^series of order 2 is too short: a\^{}\*b\^{} != 0$"
    with pytest.raises(InsufficientOrder, match=message.format(2, 1)):
        theory.law(x, y)
    line = RingSpec(("x",), (3,), RATIONALS)
    with pytest.raises(InsufficientOrder, match=message.format(3, 0)):
        theory.law(line.generator(0), line.zero())


# The order check `law` made before the kernel owned it: whole-element
# powers, InsufficientOrder at the first a^i * b^l != 0 with i + l = order + 1.
def _refuse_past(a, b, order):
    n = order + 1
    for i in range(n + 1):
        if not (a**i * b ** (n - i)).is_zero():
            raise InsufficientOrder(f"series of order {order} is too short: a^{i}*b^{n - i} != 0")


def _refusal(evaluate, *args):
    """The InsufficientOrder message of one call, or None if it returns."""
    try:
        evaluate(*args)
    except InsufficientOrder as error:
        return str(error)
    return None


def _seeded_nilpotent(rng, spec):
    a = _seeded_class(rng, spec)
    return a - a.constant_term


def test_law_refuses_past_its_order_where_the_whole_element_check_does():
    # Below its order a law is never refused, and there every a^i * b^l
    # with i + l = order + 1 vanishes too, so the oracle runs on every case.
    rng = random.Random(1701)
    seen = Counter()
    for base, dense, order in itertools.product((CHOW, K_THEORY), (True, False), range(1, 5)):
        theory = twist_theory(base, _seeded_twist(rng, rng.choice((1, -1, 3)), order, dense))
        for spec, _ in itertools.product(LAW_RINGS, range(3)):
            a, b = _seeded_nilpotent(rng, spec), _seeded_nilpotent(rng, spec)
            message = _refusal(theory.law, a, b)
            assert message == _refusal(_refuse_past, a, b, order + 1), (theory, a, b)
            seen[message and message.split(": ")[1]] += 1
    assert seen[None] > 50 and seen.total() - seen[None] > 20 and len(seen) > 6


def test_eval_series_refuses_past_its_order_where_the_whole_element_check_does():
    # The one-row case: F[0, n] = series[n] at a = 0, so the first nonzero
    # product past the order is b^(order + 1) itself.
    rng = random.Random(1702)
    seen = Counter()
    for order, spec in itertools.product(range(0, 6), LAW_RINGS):
        series = _seeded_twist(rng, rng.choice((0, 1, Fraction(2, 3))), order, True)
        for _ in range(3):
            argument = _seeded_nilpotent(rng, spec)
            message = _refusal(eval_series, series, argument)
            assert message == _refusal(_refuse_past, spec.zero(), argument, order)
            seen[message is None] += 1
    assert seen[True] > 10 and seen[False] > 10


def test_twisted_law_over_the_integers_reads_its_entries_before_the_order_check():
    # e = x + x^2/3 has order 2, and its law is u + v + 2/3 uv + ...  With
    # a = b = x in Z[x]/(x^4), x^3 != 0 lies past the order, but the entry
    # 2/3 of a*b is read first, as the conjugation route reads the 1/3 of
    # the reversion first.
    theory = twist_theory(CHOW_Q, TruncatedSeries([1, Fraction(1, 3)]))
    x = RingSpec(("x",), (3,), INTEGERS).generator(0)
    with pytest.raises(IntegerDomain, match=r"^2/3 is not an integer"):
        theory.law(x, x)
    with pytest.raises(IntegerDomain):
        _law_by_conjugation(theory, x, x)
    # Over Q the same arguments are refused for their order.
    x = RingSpec(("x",), (3,), RATIONALS).generator(0)
    message = r"^series of order 2 is too short: a\^0\*b\^3 != 0$"
    with pytest.raises(InsufficientOrder, match=message):
        theory.law(x, x)


def test_law_checks_the_order_on_the_products_not_the_degrees():
    # Degree 4 > order 2, yet every a^i * b^l with i + l = 3 is x^3 = 0.
    theory = twist_theory(CHOW_Q, TruncatedSeries([1, 1]))
    x, y = RingSpec(("x", "y"), (2, 2), RATIONALS).generators()
    for a, b in ((x, 2 * x), (x + x * y, x), (y, y * y)):
        assert theory.law(a, b) == _law_by_conjugation(theory, a, b)


def test_law_over_the_integers_reads_integer_entries_only():
    spec = RingSpec(("x", "y"), (2, 2), INTEGERS)
    x, y = spec.generators()
    # The deficit twist of Chow has the integral table u + v - uv.
    assert twist_theory(CHOW, exp_deficit_series(6)).law(x, y) == x + y - x * y
    # Twisting K by it gives F[1, 2] = 1/2, read here since x*y^2 != 0.
    twisted_k = twist_theory(K_THEORY, exp_deficit_series(6))
    with pytest.raises(IntegerDomain, match=r"^1/2 is not an integer; widen the ring"):
        twisted_k.law(x, y)
    # In degrees <= 2 its only entries are u, v and -2uv, all integers.
    u, v = RingSpec(("u", "v"), (1, 1), INTEGERS).generators()
    assert twisted_k.law(u, v) == u + v - 2 * u * v


def test_z_law_drops_a_fractional_entry_whose_product_vanishes():
    # Entries with b^l != 0 but a^i * b^l = 0 are fractional here; the value
    # is integral, and the conjugation route finds it.
    twist = TruncatedSeries(
        [1, -2, 0, Fraction(1, 3), Fraction(2, 3), 0, Fraction(1, 2), -1]
        + [Fraction(-5, 3), Fraction(-5, 3), 3, 1]
    )
    theory = twist_theory(CHOW, twist)
    x, y = RingSpec(("x", "y"), (3, 2), INTEGERS).generators()
    a, b = -3 * x**2 - 2 * x**2 * y + 3 * x**3 * y**2, 3 * x - x**2 * y**2
    expected = 3 * x - 3 * x**2 + 36 * x**3 - 2 * x**2 * y + 24 * x**3 * y
    expected += -(x**2) * y**2 + 3 * x**3 * y**2
    assert _law_by_conjugation(theory, a, b) == expected
    assert theory.law(a, b) == expected


def _triangle(theory, n):
    """The theory's law table over the triangle i + l <= n."""
    table = theory._law_table([n - i for i in range(n + 1)])
    return {(i, l): c for (i, l), c in table.items() if i + l <= n}


def test_deficit_and_identity_tables_are_exact_at_every_order():
    for order in range(1, 31):
        n = order + 1  # the conjugator's order
        deficit = twist_theory(CHOW_Q, exp_deficit_series(order))
        assert _triangle(deficit, n) == {(1, 0): 1, (0, 1): 1, (1, 1): -1}
        identity = twist_theory(CHOW_Q, TruncatedSeries([1], order))
        assert _triangle(identity, n) == {(1, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("base", [CHOW, K_THEORY], ids=["chow", "ktheory"])
def test_law_tables_are_symmetric_with_unit_rows(base):
    rng = random.Random(1603 + base.beta)
    for order in range(1, 13):
        twist = _seeded_twist(rng, rng.choice((1, -1, Fraction(2, 3), 3)), order, True)
        table = twist_theory(base, twist)._law_table([order + 1 - i for i in range(order + 2)])
        assert all(table.get((l, i)) == c for (i, l), c in table.items())
        assert all(i + l <= order + 1 and c != 0 for (i, l), c in table.items())
        # F(u, 0) = u: the only entry without v is u itself.
        assert {(i, l): c for (i, l), c in table.items() if l == 0} == {(1, 0): 1}


@pytest.mark.parametrize("d", [0, 1, 2, 5, 17, 60, 80])
def test_character_matrix_matches_the_powers_of_one_minus_exp(d):
    # Row r is (1 - e^(-h))^r through h^d, here as d truncated products.
    image = exp_deficit_series(d).times_t().truncated(d)
    rows, denominator = theories._character_images(d)
    assert len(rows) == d + 1
    power = TruncatedSeries([1], d)
    for r, row in enumerate(rows):
        entries = dict(row)
        assert len(entries) == len(row) and all(entries.values()), r
        assert [Fraction(entries.get(f, 0), denominator) for f in range(d + 1)] == list(
            power.coefficients
        ), r
        power = power * image


# The route `_law_table` took before the row recurrence: revert the
# conjugator's head for log_T (at beta = 1, -log(1 - g) by the log kernel),
# then n truncated powers of log_T and the same Hankel contraction.
def _logarithm_by_reversion(theory, order):
    conjugator = theory.twist.times_t().truncated(order)
    inverse = conjugator.reversion()
    if not theory.beta:
        return inverse, conjugator
    complement = [Fraction(1)] + [-c for c in inverse.coefficients[1:]]  # 1 - g
    rows, denominator = theories._character_images(order)
    e, scale = series.common_denominator(conjugator.coefficients)
    exponential = [0] * (order + 1)
    for c, row in zip(e, rows):
        for f, w in row:
            exponential[f] += c * w
    exponential = [Fraction(c, scale * denominator) for c in exponential]
    return -series._log_ratio(complement, order), TruncatedSeries(exponential)


def _law_by_reversion(theory, n):
    if not n:
        return {}
    logarithm, exponential = _logarithm_by_reversion(theory, n)
    head, power, powers = logarithm.truncated(n), TruncatedSeries([1], n), []
    for _ in range(n + 1):
        powers.append(series.common_denominator(power.coefficients))
        power = power * head
    scales = [d * factorial(j) for j, (_, d) in enumerate(powers)]
    common = lcm(*scales)
    # columns[i][j] = [u^i] Q_j * common, Q_j = logarithm^j / j!.
    columns = [
        [p[i] * (common // s) for (p, _), s in zip(powers[: i + 1], scales)] for i in range(n + 1)
    ]
    hankel, denominator = series.common_denominator(
        [c * factorial(k) for k, c in enumerate(exponential.coefficients[: n + 1])]
    )
    halves = [
        [sum(map(mul, hankel[m : m + i + 1], columns[i])) for m in range(n - i + 1)]
        for i in range(n // 2 + 1)
    ]
    denominator *= common * common
    table = {}
    for i, half in enumerate(halves):
        for l in range(i, n - i + 1):
            total = sum(map(mul, half[: l + 1], columns[l]))
            if total:
                table[i, l] = table[l, i] = Fraction(total, denominator)
    return table


def test_law_table_matches_the_reversion_route_on_seeded_twists():
    rng = random.Random(2701)
    for base, constant, dense, order in itertools.product(
        (CHOW, K_THEORY), (1, -1, Fraction(2, 3), 3), (True, False), range(14)
    ):
        twist = _seeded_twist(rng, constant, order, dense)
        for degree in range(order + 2):  # 0 .. 14: up to the conjugator's order
            theory = twist_theory(base, twist)
            assert _triangle(theory, degree) == _law_by_reversion(theory, degree), (twist, degree)


@pytest.mark.parametrize("base", [CHOW, K_THEORY], ids=["chow", "ktheory"])
def test_deficit_law_table_matches_the_reversion_route_at_even_degrees(base):
    for k in range(29):
        theory = twist_theory(base, exp_deficit_series(2 * k))
        assert _triangle(theory, 2 * k) == _law_by_reversion(theory, 2 * k), k


# The route `_law_table` took before the incremental table: the whole
# triangle i + l <= n at once, from the rows of log_T's powers through n.
def _law_from_exponential(exponential, n):
    """The nonzero [u^i v^l] exp_T(log_T u + log_T v), i + l <= n, from exp_T alone."""
    factorials = [factorial(k) for k in range(n + 1)]
    # rows[i][j] = [u^i] Q_j * denominators[i], Q_j = log_T^j / j!.
    rows, denominators = [], []
    for i, (row, d) in enumerate(series._inverse_powers(exponential, n)):
        rows.append([c * (factorials[i] // f) for c, f in zip(row, factorials)])
        denominators.append(d * factorials[i])
    hankel, denominator = series.common_denominator(list(map(mul, exponential, factorials)))
    halves = [
        [sum(map(mul, hankel[m : m + i + 1], rows[i])) for m in range(n - i + 1)]
        for i in range(n // 2 + 1)
    ]
    table = {}
    for i, half in enumerate(halves):
        for l in range(i, n - i + 1):
            total = sum(map(mul, half[: l + 1], rows[l]))
            if total:
                table[i, l] = table[l, i] = Fraction(
                    total, denominator * denominators[i] * denominators[l]
                )
    return table


def _law_requests(rng, theory, largest):
    """Group laws of orders 1..12, laws at total degrees k..k+2, a group law of `largest`.

    On two factors a second law takes one variable on each side.
    """
    requests = [(k, k) for k in range(1, 13)]
    for k in range(1, 13):
        for total in range(k, k + 3):
            dims = (total,) if total == k else ((total + 1) // 2, total // 2)
            spec = ring_of(theory, dims)
            a, b = (
                sum(
                    (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * g for g in spec.generators()),
                    spec.generator(0) ** 2 * rng.randint(1, 3),
                )
                for _ in range(2)
            )
            requests.append((a, b))
            if len(dims) == 2:  # one variable on each side: a region that is not a triangle
                u, v = spec.generators()
                requests.append((u * rng.randint(1, 3), v - v**2))
    requests.append((largest, largest))
    return requests


def _run_law_request(theory, request):
    a, b = request
    if isinstance(a, int):
        return theory.group_law(a)
    return theory.law(a, b)


def test_incremental_law_table_matches_the_triangle_oracle_in_any_request_order():
    rng = random.Random(2903)
    for base, constant, dense in itertools.product(
        (CHOW, K_THEORY), (1, -1, Fraction(2, 3), 3), (True, False)
    ):
        twist = _seeded_twist(rng, constant, 29, dense)
        n = twist.order + 1  # the conjugator's order: a group law of order 15 reaches it
        oracle = _law_from_exponential(twist_theory(base, twist)._exponential(n), n)
        requests = _law_requests(rng, twist_theory(base, twist), 15)
        for order in (requests, requests[::-1]):
            theory = twist_theory(base, twist)
            point = ring_of(theory, (0,)).zero()
            assert theory.law(point, point) == point
            law = vars(theory)["_built_law"]
            assert (law.rows, law.held, law.degree) == ([([1], 1)], [math.inf], 0)  # no entry read
            for request in order:
                got = _run_law_request(theory, request)
                if not isinstance(request[0], int):
                    a, b = request
                    assert got == rings._eval_bivariate(lambda _: oracle, n, a, b)
                # The held shape is symmetric, every entry in it is the
                # oracle's, and the table holds no other.
                held = law.held[1:]  # rows 1, 2, ...
                side = range(1, max(len(held), *held) + 1)
                held += [0] * (len(side) - len(held))
                assert all((held[p - 1] >= l) == (held[l - 1] >= p) for p in side for l in side)
                keys = {(1, 0), (0, 1)}
                keys.update((p, l) for p in side for l in range(held[p - 1] + 1))
                keys.update((l, p) for p, l in list(keys))
                assert law.table == {key: oracle[key] for key in keys if key in oracle}
            assert _top_row(theory) == 15 and law.degree == 30


def _chi_y_twist(y, order):
    """1/Q_y with Q_y(x) = todd((1 + y) x) - y x: Hirzebruch's chi_y genus."""
    q = [c * (1 + y) ** k for k, c in enumerate(todd_series(order).coefficients)]
    q[1] -= y
    return TruncatedSeries(q).inverse()


@pytest.mark.parametrize("n", [28, 56])
def test_chi_y_law_table_has_its_closed_form(n):
    # F_y(u, v) = (u + v + (y - 1) uv) / (1 + y uv), a closed form that
    # shares no code with the table: F[k+1, k] = F[k, k+1] = (-y)^k,
    # F[k+1, k+1] = (y - 1)(-y)^k, and every other entry is 0.
    for y in (0, 1, 2, Fraction(-1, 3), -1, Fraction(5, 7)):
        expected = {}
        for k in range(n // 2 + 1):
            power = (-y) ** k
            entries = {(k + 1, k): power, (k, k + 1): power, (k + 1, k + 1): (y - 1) * power}
            expected.update((key, c) for key, c in entries.items() if sum(key) <= n and c)
        assert _triangle(twist_theory(CHOW_Q, _chi_y_twist(y, n)), n) == expected, y


def test_twisted_law_never_evaluates_a_series(monkeypatch):
    calls = []

    def counting(series, argument):
        calls.append(series)
        return eval_series(series, argument)

    monkeypatch.setattr(rings, "eval_series", counting)
    for base in (CHOW, K_THEORY):
        theory = twist_theory(base, exp_deficit_series(8))
        theory.group_law(4)
        a, b = ring_of(theory, (2, 3)).generators()
        theory.law(a + b, a * b - b)
    assert calls == []


def test_a_twisted_law_multiplies_only_past_the_first_powers(monkeypatch):
    theory = twist_theory(CHOW, exp_deficit_series(6))
    u, v = RingSpec(("u", "v"), (3, 3), RATIONALS).generators()
    theory._law_table([3] * 4)  # built apart: the counts below are the evaluation's
    convolve = _counting(monkeypatch, rings, "_convolve")
    spans = _counting(monkeypatch, rings, "_span")
    weights = _counting(monkeypatch, rings, "_weights")
    value = theory.law(u, v)
    # b^1 is v's own table and the first Horner step has R = 0, so the one
    # product is R * u; degrees are read for u and v (with their reach)
    # and for that R.
    assert (len(convolve), len(spans), len(weights)) == (1, 2, 1)
    assert value == u + v - u * v


def test_filled_conjugation_cache_keeps_equality_hash_and_repr():
    series = exp_deficit_series(10)
    used = twist_theory(CHOW, series)
    used.group_law(3)
    fresh = twist_theory(CHOW, series)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert fresh.group_law(3) == used.group_law(3)


def test_twist_requires_unit_constant():
    # Both ways of building a twisted theory refuse it, not its first law.
    message = "a twisting series needs an invertible constant term"
    with pytest.raises(NonUnitConstant, match=message):
        twist_theory(CHOW_Q, TruncatedSeries([0, 1], 4))
    with pytest.raises(NonUnitConstant, match=message):
        twist_theory(exp_deficit_twist(), TruncatedSeries([0, 1], 4))
    with pytest.raises(NonUnitConstant, match=message):
        TheoryModel(0, RATIONALS, TruncatedSeries([0, 1, 2]))


def test_retwist_multiplies_the_series():
    first = exp_deficit_series(8)
    other = TruncatedSeries([1, Fraction(1, 3)], 8)
    tw = twist_theory(twist_theory(CHOW_Q, first), other)
    assert tw.twist == first * other
    assert (tw.beta, tw.scalars) == (CHOW_Q.beta, CHOW_Q.scalars)


def test_theory_validation():
    from rrcalc.theories import TheoryModel

    with pytest.raises(ValueError):
        TheoryModel(2, INTEGERS)
    with pytest.raises(ValueError):
        TheoryModel(-1, RATIONALS)
    with pytest.raises(ValueError):
        TheoryModel(0, INTEGERS, exp_deficit_series(4))
    with pytest.raises(ValueError):
        TheoryModel(1, INTEGERS, exp_deficit_series(4))


def test_repr_and_generator_symbol():
    assert repr(CHOW) == "<chow over integers>"
    assert repr(K_THEORY) == "<ktheory over integers>"
    assert "twisted chow" in repr(exp_deficit_twist(6))
    assert CHOW.generator_symbol == "h"
    assert K_THEORY.generator_symbol == "t"
    assert exp_deficit_twist(6).generator_symbol == "h"


# ---------------------------------------------------------------- rings and classes


def test_ring_of_naming():
    assert str(ring_of(CHOW, (2,))) == "Z[h]/(h^3)"
    assert str(ring_of(K_THEORY, (1, 3))) == "Z[t1, t2]/(t1^2, t2^4)"
    assert str(ring_of(CHOW_Q, 2)) == "Q[h]/(h^3)"
    assert ring_of(exp_deficit_twist(), (1, 1)).scalars == RATIONALS


def test_ring_of_shares_one_spec_per_shape():
    assert ring_of(CHOW, [2, 1]) is ring_of(CHOW, (2, 1))
    assert ring_of(CHOW_Q, 2) is ring_of(exp_deficit_twist(), (2,))
    assert ring_of(CHOW, (2,)) is not ring_of(CHOW_Q, (2,))
    assert ring_of(CHOW, (2,)) is not ring_of(K_THEORY, (2,))
    with pytest.raises(ValueError, match="factor dimensions must be >= 0"):
        ring_of(CHOW, (-1,))


def test_line_class_values():
    spec = ring_of(K_THEORY, (2,))
    t = spec.generator(0)
    one = spec.one()
    assert k_line_class(2, 1) == one + t + t * t
    assert k_line_class(2, -1) == one - t
    assert k_line_class(2, 0) == one


# [O(m)] as the ring computed it before the binomial row: powers of 1 - t.
def _k_line_class_by_ring_powers(n, m):
    spec = ring_of(K_THEORY, (n,))
    dual_hyperplane = spec.one() - spec.generator(0)
    if m >= 0:
        return dual_hyperplane.inverse() ** m
    return dual_hyperplane ** (-m)


def test_line_class_matches_the_ring_powers():
    rng = random.Random(1603)
    cases = [(rng.randint(0, 8), rng.randint(-20, 20)) for _ in range(200)]
    for n, m in cases + [(80, 10**6), (80, -(10**6)), (0, 5), (3, 0)]:
        assert k_line_class(n, m) == _k_line_class_by_ring_powers(n, m), (n, m)


def test_line_classes_multiply():
    assert k_line_class(3, 2) * k_line_class(3, -2) == ring_of(K_THEORY, (3,)).one()
    assert k_line_class(3, 1) ** 2 == k_line_class(3, 2)
    assert k_line_class(4, 3) == k_line_class(4, 1) * k_line_class(4, 2)


def test_tangent_class_on_the_line():
    tk = tangent_class(K_THEORY, 1)
    spec = ring_of(K_THEORY, (1,))
    assert tk.rank == 1
    assert tk.total_chern == spec.one() + 2 * spec.generator(0)

    tc = tangent_class(CHOW, 2)
    spec = ring_of(CHOW, (2,))
    h = spec.generator(0)
    assert tc.rank == 2
    assert tc.total_chern == (spec.one() + h) ** 3


def test_space_tangent_is_a_product():
    tb = space_tangent(CHOW, (1, 2))
    spec = ring_of(CHOW, (1, 2))
    h1, h2 = spec.generator(0), spec.generator(1)
    assert tb.rank == 3
    assert tb.total_chern == (spec.one() + h1) ** 2 * (spec.one() + h2) ** 3


# ---------------------------------------------------------------- morphisms


def test_immersion_pushforward_shifts_exponents():
    f = linear_immersion(CHOW, 1, 3)
    spec = ring_of(CHOW, (1,))
    target = ring_of(CHOW, (3,))
    h = target.generator(0)
    assert pushforward(CHOW, f, spec.one() + spec.generator(0)) == h**2 + h**3


def test_point_pushforward_tables():
    p = point_projection(CHOW, 2)
    spec = ring_of(CHOW, (2,))
    h = spec.generator(0)
    point = ring_of(CHOW, ())
    assert pushforward(CHOW, p, h * h) == point.one()
    assert pushforward(CHOW, p, h) == point.zero()
    assert pushforward(CHOW, p, spec.one()) == point.zero()

    q = point_projection(K_THEORY, 2)
    kspec = ring_of(K_THEORY, (2,))
    t = kspec.generator(0)
    kpoint = ring_of(K_THEORY, ())
    for a in (kspec.one(), t, t * t):
        assert pushforward(K_THEORY, q, a) == kpoint.one()
    assert pushforward(K_THEORY, q, kspec.one() + 2 * t) == 3 * kpoint.one()


def test_k_point_table_agrees_with_euler_characteristics():
    # t^r expands as sum_j (-1)^j C(r, j) [O(-j)], and chi(P^n, O(-j))
    # vanishes for 1 <= j <= n, so only the j = 0 term survives: always 1.
    from rrcalc import euler_characteristic_pn

    for n in range(1, 5):
        p = point_projection(K_THEORY, n)
        spec = ring_of(K_THEORY, (n,))
        t = spec.generator(0)
        point_one = ring_of(K_THEORY, ()).one()
        for r in range(n + 1):
            expected = sum(
                (-1) ** j
                * _binomial(r, j)
                * euler_characteristic_pn(n, -j)
                for j in range(r + 1)
            )
            assert expected == 1
            assert pushforward(K_THEORY, p, t**r) == point_one


def _binomial(n: int, k: int) -> int:
    from math import comb

    return comb(n, k)


def test_factor_projection_pushforward():
    f = factor_projection(CHOW, (1, 2), 0)
    spec = ring_of(CHOW, (1, 2))
    h1, h2 = spec.generator(0), spec.generator(1)
    target = ring_of(CHOW, (2,))
    h = target.generator(0)
    assert pushforward(CHOW, f, h1 * h2**2) == h**2
    assert pushforward(CHOW, f, h2**2) == target.zero()

    g = factor_projection(K_THEORY, (1, 2), 1)
    kspec = ring_of(K_THEORY, (1, 2))
    t1, t2 = kspec.generator(0), kspec.generator(1)
    ktarget = ring_of(K_THEORY, (1,))
    a = t1 * (kspec.one() + t2 + t2**2)
    assert pushforward(K_THEORY, g, a) == 3 * ktarget.generator(0)


def test_pullback_inserts_and_truncates():
    f = factor_projection(CHOW, (1, 2), 0)
    target = ring_of(CHOW, (2,))
    spec = ring_of(CHOW, (1, 2))
    assert pullback(CHOW, f, target.generator(0)) == spec.generator(1)

    i = linear_immersion(CHOW, 1, 3)
    big = ring_of(CHOW, (3,))
    h = big.generator(0)
    small = ring_of(CHOW, (1,))
    assert pullback(CHOW, i, h + h**2 + h**3) == small.generator(0)


def test_projection_formula_spot_check():
    # f_*(f^*(b) * a) = b * f_*(a), one concrete instance
    f = linear_immersion(CHOW, 1, 3)
    big = ring_of(CHOW, (3,))
    small = ring_of(CHOW, (1,))
    b = big.one() + 2 * big.generator(0)
    a = small.one() + small.generator(0)
    lhs = pushforward(CHOW, f, pullback(CHOW, f, b) * a)
    assert lhs == b * pushforward(CHOW, f, a)


def test_morphism_factories_validate():
    with pytest.raises(ValueError):
        linear_immersion(CHOW, 3, 1)
    with pytest.raises(ValueError):
        linear_immersion(CHOW, 1, 3, within=(1, 2), factor=2)
    with pytest.raises(ValueError):
        linear_immersion(CHOW, 1, 3, within=(2, 2), factor=0)
    with pytest.raises(ValueError):
        factor_projection(CHOW, (1, 2), 2)


def test_morphism_factories_keep_their_messages():
    with pytest.raises(ValueError, match=r"^no factor 2 in \(1, 2\)$"):
        factor_projection(CHOW, (1, 2), 2)
    with pytest.raises(ValueError, match=r"^no factor 2 in \(1, 2\)$"):
        linear_immersion(CHOW, 1, 3, within=(1, 2), factor=2)
    with pytest.raises(ValueError, match=r"^factor 0 of \(2, 2\) is not 1$"):
        linear_immersion(CHOW, 1, 3, within=(2, 2), factor=0)
    with pytest.raises(ValueError, match="^an immersion cannot lower the dimension$"):
        linear_immersion(CHOW, 3, 1)


@pytest.mark.parametrize("factor", [-1, 1, 5])
def test_morphism_refuses_a_factor_outside_the_source(factor):
    with pytest.raises(ValueError, match=rf"^no factor {factor} in \(1,\)$"):
        Morphism((1,), (2,), factor)


@pytest.mark.parametrize("target", [(2, 3), (2, 1), (1, 1)])
def test_morphism_refuses_an_immersion_that_changes_another_factor(target):
    with pytest.raises(ValueError, match="neither immerses nor drops factor 0"):
        Morphism((1, 2), target, 0)


@pytest.mark.parametrize("source, target", [((2,), (1,)), ((1, 3), (1, 2))])
def test_morphism_refuses_an_immersion_that_lowers_its_factor(source, target):
    with pytest.raises(ValueError, match="^an immersion cannot lower the dimension$"):
        Morphism(source, target, len(source) - 1)


@pytest.mark.parametrize("target", [(3,), (1,), (), (1, 2, 3)])
def test_morphism_refuses_a_projection_that_does_not_drop_its_factor(target):
    with pytest.raises(ValueError, match="neither immerses nor drops factor 0"):
        Morphism((1, 2), target, 0)


def test_morphism_accepts_every_shape_the_factories_build():
    assert Morphism((1, 2), (2,), 0) == factor_projection(CHOW, (1, 2), 0)
    assert Morphism((1, 2), (1, 2), 1) == linear_immersion(CHOW, 2, 2, within=(1, 2), factor=1)
    assert Morphism((1, 2), (1, 5), 1) == linear_immersion(CHOW, 2, 5, within=(1, 2), factor=1)
    assert Morphism((0,), (), 0) == point_projection(K_THEORY, 0)


def test_pushforward_and_pullback_reject_wrong_rings():
    f = linear_immersion(CHOW, 1, 3)
    wrong = ring_of(CHOW, (2,)).one()
    shape = r"source=\(1,\), target=\(3,\), factor=0"
    with pytest.raises(SpecMismatch, match=shape):
        pushforward(CHOW, f, wrong)
    with pytest.raises(SpecMismatch, match=shape):
        pullback(CHOW, f, wrong)


def test_a_descriptor_is_a_shape_shared_by_every_theory():
    assert Morphism._fields == ("source", "target", "factor")
    twisted = exp_deficit_twist(8)
    for theory in (CHOW, K_THEORY, CHOW_Q, twisted):
        assert point_projection(theory, 2) == Morphism((2,), (), 0)
        assert point_projection(theory, 2) == factor_projection(theory, (2,), 0)
        assert factor_projection(theory, (1, 2), 1) == Morphism((1, 2), (1,), 1)
        immersion = linear_immersion(theory, 1, 3, within=(2, 1), factor=1)
        assert immersion == Morphism((2, 1), (2, 3), 1)


def test_a_descriptor_built_from_lists_is_the_same_hashable_shape():
    listed = Morphism([2, 1], [2, 3], 1)
    assert listed == Morphism((2, 1), (2, 3), 1)
    assert hash(listed) == hash(Morphism((2, 1), (2, 3), 1))
    tw = exp_deficit_twist(8)
    x = ring_of(tw, (2, 1)).generator(1)
    assert pushforward(tw, listed, x) == pushforward(tw, Morphism((2, 1), (2, 3), 1), x)


def test_immersion_on_a_product_factor():
    f = linear_immersion(K_THEORY, 1, 3, within=(1, 1), factor=1)
    spec = ring_of(K_THEORY, (1, 1))
    target = ring_of(K_THEORY, (1, 3))
    t1, t2 = spec.generator(0), spec.generator(1)
    u1, u2 = target.generator(0), target.generator(1)
    assert f.target == (1, 3)
    assert pushforward(K_THEORY, f, t1 * t2) == u1 * u2**3


# ---------------------------------------------------------------- twisted pushforward


def test_twisted_immersion_pushforward_closed_form():
    # i_*(1) lands on (1 - e^(-h))^(n - m), the twisted Euler class
    from rrcalc import eval_series

    tw = exp_deficit_twist(12)
    for m, n in ((1, 3), (2, 3), (1, 4), (2, 5)):
        f = linear_immersion(tw, m, n)
        one = ring_of(tw, (m,)).one()
        got = pushforward(tw, f, one)
        target = ring_of(tw, (n,))
        h = target.generator(0)
        deficit = eval_series(exp_deficit_series(n).times_t(), h)
        assert got == deficit ** (n - m)


def test_twisted_point_pushforward_is_the_todd_integral():
    tw = exp_deficit_twist(12)
    for n in range(5):
        p = point_projection(tw, n)
        one = ring_of(tw, (n,)).one()
        assert pushforward(tw, p, one) == ring_of(tw, ()).one()


def test_twisted_factor_projection_integrates_to_one():
    # Over the deficit twist every collapsed P^d integrates 1 to 1, as
    # the point projection does: p_*(1) is the Todd integral of P^d.
    tw = twist_theory(CHOW, exp_deficit_series(12))
    for dims, which in (((1, 2), 1), ((2, 2), 0), ((1, 1, 2), 2)):
        p = factor_projection(tw, dims, which)
        assert pushforward(tw, p, ring_of(tw, dims).one()) == ring_of(tw, p.target).one()


@pytest.mark.parametrize("base", [CHOW, K_THEORY], ids=["chow", "ktheory"])
def test_twisted_pushforward_ignores_the_descriptor_theory(base):
    # A descriptor built with any theory pushes forward like one built
    # with the twisted theory itself: T_f comes from the theory that pushes.
    tw = twist_theory(base, exp_deficit_series(8))
    x = ring_of(tw, (2,)).generator(0)
    point = pushforward(tw, point_projection(tw, 2), x)
    immersion = pushforward(tw, linear_immersion(tw, 2, 3), x)
    for theory in (CHOW, K_THEORY, CHOW_Q):
        assert pushforward(tw, point_projection(theory, 2), x) == point
        assert pushforward(tw, linear_immersion(theory, 2, 3), x) == immersion
    if base is CHOW:
        assert point == ring_of(tw, ()).scalar(Fraction(3, 2))
    else:
        y = ring_of(tw, (3,)).generator(0)
        assert immersion == y**2 - Fraction(1, 2) * y**3


def _uncached_twisted_pushforward(theory, f, a):
    """f_*(F_x(T_f)^(-1) * a) by the untwisted carrier, the correction built afresh."""
    genus = multiplicative_extension(theory.twist, relative_tangent(theory, f))
    carrier = TheoryModel(theory.beta, RATIONALS)
    return pushforward(carrier, f, genus.inverse() * a)


def _outcome(compute):
    try:
        return compute()
    except InsufficientOrder as error:
        return (type(error), str(error))


def test_inverted_series_extends_to_the_inverse_extension_on_seeded_cases():
    # The twisted pushforward's correction: F_x(E)^(-1) = (1/F)_x(E), with F
    # cut to the degree the extension reads before it is inverted.  A
    # series shorter than that degree refuses both routes alike.
    rng = random.Random(2718)
    branches = Counter()
    for _ in range(400):
        spec = acceptance._random_spec(rng, RATIONALS, symbol="h")
        e = acceptance._random_bundle(rng, spec)
        head = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
        tail = [acceptance._random_fraction(rng) for _ in range(rng.randint(0, 5))]
        series = TruncatedSeries([head] + tail)
        cut = series.truncated(min(series.order, spec.total_degree))
        inverted = _outcome(lambda: multiplicative_extension(series, e).inverse())
        assert _outcome(lambda: multiplicative_extension(cut.inverse(), e)) == inverted
        branches[type(inverted)] += 1
    assert branches[tuple] >= 40 and branches[RingElement] >= 200


def test_twisted_corrections_stay_with_their_theory():
    # One Morphism, two twisted theories: each fills its own correction.
    deficit = twist_theory(CHOW_Q, exp_deficit_series(8))
    todd = twist_theory(CHOW_Q, todd_series(8))
    for f in (
        factor_projection(CHOW, (2, 1), 0),
        linear_immersion(CHOW, 1, 3, within=(1, 1), factor=0),
    ):
        spec = ring_of(deficit, f.source)
        a = spec.element({(0, 0): 1, (1, 1): 3, (1, 0): Fraction(-1, 2)})
        first = [pushforward(tw, f, a) for tw in (deficit, todd)]
        assert first[0] != first[1]
        for tw, value in zip((deficit, todd), first):
            assert value == _uncached_twisted_pushforward(tw, f, a)
            assert pushforward(tw, f, a) == value
            assert pushforward(tw, f, spec.one()) == _uncached_twisted_pushforward(
                tw, f, spec.one()
            )


def _every_shape():
    # Every projection and immersion (codimension 0..2) on P^0..P^3 and on
    # two factors of P^0..P^2.
    for width, top in ((1, 3), (2, 2)):
        for dims in itertools.product(range(top + 1), repeat=width):
            for j, d in enumerate(dims):
                yield factor_projection(CHOW, dims, j)
                for codim in range(3):
                    yield linear_immersion(CHOW, d, d + codim, within=dims, factor=j)


def _value_or_error_class(compute):
    try:
        return compute()
    except InsufficientOrder:
        return InsufficientOrder


def test_euler_sequence_correction_matches_the_relative_tangent_route():
    # The twisted pushforward reads its correction off the Euler sequence;
    # the multiplicative extension of the twist over relative_tangent is its
    # oracle.  Seeded twists of both betas, with F(0) in {1, -1, 2/3, 3, 1/2}
    # and orders 0..4, so many are shorter than the source.  The two routes
    # word a too-short twist differently, so only the error class is compared.
    rng = random.Random(1729)
    shapes = list(_every_shape())
    branches = Counter()
    for beta in (0, 1):
        for head in (1, -1, Fraction(2, 3), 3, Fraction(1, 2)):
            tail = [acceptance._random_fraction(rng) for _ in range(rng.randint(0, 4))]
            tw = twist_theory(TheoryModel(beta, RATIONALS), TruncatedSeries([head] + tail))
            for f in shapes:
                a = acceptance._random_element(rng, ring_of(tw, f.source))
                expected = _value_or_error_class(lambda: _uncached_twisted_pushforward(tw, f, a))
                assert _value_or_error_class(lambda: pushforward(tw, f, a)) == expected
                branches[beta, expected is InsufficientOrder] += 1
    assert len(branches) == 4 and min(branches.values()) >= 20


# The route `pushforward` took before the correction was folded into the
# monomial table: the correction evaluated at x as a ring element, raised
# to its power, multiplied into a, then pushed by the untwisted carrier.
def _pushforward_by_ring_products(theory, f, a):
    spec = ring_of(theory, f.source)
    if a.spec != spec:
        raise SpecMismatch(f"{a.spec} is not the source ring of {f}")
    j, top = f.factor, f.source[f.factor]
    twist = theory.twist.truncated(min(theory.twist.order, spec.total_degree))
    x = spec.generator(j)
    if not f.is_immersion:
        a = eval_series(twist.inverse(), x) ** (top + 1) * twist[0] * a
    elif f.target[j] > top:
        a = eval_series(twist, x) ** (f.target[j] - top) * a
    return pushforward(TheoryModel(theory.beta, RATIONALS), f, a)


def _shapes_up_to_p4():
    # Every projection and immersion (codimension 0..2) on P^0..P^4 and on
    # P^a x P^b with a, b <= 2.
    for dims in [(d,) for d in range(5)] + list(itertools.product(range(3), repeat=2)):
        for j, d in enumerate(dims):
            yield factor_projection(CHOW, dims, j)
            for codim in range(3):
                yield linear_immersion(CHOW, d, d + codim, within=dims, factor=j)


# The collapse correction (1/F)^(d + 1) * F(0) without the power recurrence:
# the Fraction-loop inverse, then d + 1 whole-series products.
def _collapse_correction_by_products(twist, d):
    inverse = _inverse_by_fractions(twist.truncated(d))
    result = TruncatedSeries([twist[0]], d)
    for _ in range(d + 1):
        result = result * inverse
    return list(result.coefficients)


def test_collapse_correction_matches_the_squared_inverse():
    rng = random.Random(1965)
    for case in range(300):
        d = case % 25
        constant = rng.choice((1, -1, Fraction(2, 3), -3, Fraction(-1, 2)))
        twist = _seeded_twist(rng, constant, d + rng.randint(0, 2), case % 2 == 0)
        c, denominator = theories._euler_correction(twist, point_projection(CHOW, d))
        assert denominator > 0
        expected = _collapse_correction_by_products(twist, d)
        assert [Fraction(v, denominator) for v in c] == expected, case


def test_folded_correction_matches_the_ring_product_route():
    # Value, or error class and message, on seeded twists of both betas
    # with F(0) in {1, -1, 2/3, 3, 1/2} at orders 0..5.
    rng = random.Random(1906)
    shapes = list(_shapes_up_to_p4())
    branches = Counter()
    for beta, head, order in itertools.product(
        (0, 1), (1, -1, Fraction(2, 3), 3, Fraction(1, 2)), range(6)
    ):
        tail = [acceptance._random_fraction(rng) for _ in range(order)]
        tw = twist_theory(TheoryModel(beta, RATIONALS), TruncatedSeries([head] + tail))
        for f in shapes:
            a = acceptance._random_element(rng, ring_of(tw, f.source))
            expected = _outcome(lambda: _pushforward_by_ring_products(tw, f, a))
            assert _outcome(lambda: pushforward(tw, f, a)) == expected, (tw, f, a)
            branches[beta, isinstance(expected, tuple)] += 1
    assert len(branches) == 4 and min(branches.values()) >= 100


@pytest.mark.parametrize("beta", [0, 1])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_short_twist_names_the_first_power_past_its_order(beta, order):
    tw = twist_theory(TheoryModel(beta, RATIONALS), TruncatedSeries([2] + [1] * order))
    top = order + 1  # the acted factor is P^(order + 1), so x^(order + 1) != 0
    dims = (top, 1)
    a = ring_of(tw, dims).one()
    message = rf"^series of order {order} is too short: a\^0\*b\^{order + 1} != 0$"
    shapes = (
        factor_projection(tw, dims, 0),
        linear_immersion(tw, top, top + 1, within=dims, factor=0),
        linear_immersion(tw, top, top + 2, within=dims, factor=0),
    )
    for f in shapes:
        with pytest.raises(InsufficientOrder, match=message):
            pushforward(tw, f, a)
        # A ring mismatch is named before the order is.
        with pytest.raises(SpecMismatch, match="is not the source ring of"):
            pushforward(tw, f, ring_of(tw, (top,)).one())
    # An n = m immersion has no correction, so nothing is too short.
    same = linear_immersion(tw, top, top, within=dims, factor=0)
    assert pushforward(tw, same, a) == a
    # Nor is a twist that reaches the acted factor's top, in a larger ring.
    other = factor_projection(tw, (order, order + 3), 0)
    one = ring_of(tw, other.source).one()
    assert pushforward(tw, other, one) == _pushforward_by_ring_products(tw, other, one)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_twisted_pushforward_makes_no_ring_product(monkeypatch):
    assert not hasattr(theories, "eval_series")
    rng = random.Random(7)
    cases = [
        (tw, f, acceptance._random_element(rng, ring_of(tw, f.source)))
        for tw in (twist_theory(base, exp_deficit_series(8)) for base in (CHOW, K_THEORY))
        for f in _shapes_up_to_p4()
    ]
    calls = [
        _counting(monkeypatch, rings, "eval_series"),
        _counting(monkeypatch, RingElement, "__pow__"),
        _counting(monkeypatch, RingElement, "__mul__"),
    ]
    for tw, f, a in cases:
        pushforward(tw, f, a)
    assert calls == [[], [], []]


def test_multiplicative_extension_never_composes(monkeypatch):
    bundles = [relative_tangent(CHOW_Q, f) for f in _shapes_up_to_p4()]
    calls = _counting(monkeypatch, TruncatedSeries, "compose")
    for e in bundles:
        multiplicative_extension(todd_series(6), e)
        multiplicative_extension(exp_deficit_series(5), e)
    assert calls == []


# The beta = 1 logarithm as the reversion route read it before the log kernel:
# -log(1 - g) = sum g^k / k, composed with the reverted conjugator g.
def _k_logarithm_by_composition(theory):
    inverse = theory.twist.times_t().reversion()
    n = inverse.order
    minus_log = TruncatedSeries([0] + [Fraction(1, k) for k in range(1, n + 1)])
    return minus_log.compose(inverse)


# Its exponential 1 - e^(-s) composed into the conjugator, as the reversion
# route read it before the character rows.
def _k_exponential_by_composition(theory):
    conjugator = theory.twist.times_t()
    return conjugator.compose(exp_deficit_series(conjugator.order - 1).times_t())


def test_k_logarithm_matches_the_composed_route():
    rng = random.Random(1907)
    for order in range(1, 31):
        constant = rng.choice((1, -1, Fraction(2, 3), 3))
        theory = twist_theory(K_THEORY, _seeded_twist(rng, constant, order, order % 3 != 0))
        n = order + 1  # the conjugator's order
        logarithm = _k_logarithm_by_composition(theory)
        exponential = _k_exponential_by_composition(theory)
        assert _logarithm_by_reversion(theory, n) == (logarithm, exponential), order
        assert theory._exponential(n) == list(exponential.coefficients), order
        # Cut at a lower order, both halves are the heads of the full ones.
        cut = rng.randint(1, n)
        assert _logarithm_by_reversion(theory, cut) == (
            logarithm.truncated(cut),
            exponential.truncated(cut),
        )
        assert theory._exponential(cut) == list(exponential.coefficients[: cut + 1])


def test_a_used_twisted_theory_keeps_equality_hash_and_repr():
    series = exp_deficit_series(10)
    used = twist_theory(CHOW, series)
    f = point_projection(used, 3)
    x = ring_of(used, (3,)).generator(0)
    pushforward(used, f, x)
    used.group_law(2)
    used.group_law(5)  # the law table built at degrees 4 and 10
    fresh = twist_theory(CHOW, series)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert pushforward(fresh, f, x) == pushforward(used, f, x)
    assert fresh.group_law(5) == used.group_law(5)
    assert fresh.group_law(2) == used.group_law(2)


@pytest.mark.parametrize(
    "theory", [CHOW, K_THEORY, exp_deficit_twist(6)], ids=["chow", "ktheory", "twisted"]
)
def test_relative_tangent_matches_the_closed_forms(theory):
    # Immersion of P^m in P^n on factor j: -(n - m) copies of O(1) there.
    # Collapsing P^d on factor j: the tangent (1 + g_j)^(d + 1) of P^d.
    for dims in ((0,), (1,), (3,), (1, 2), (2, 0, 1)):
        spec = ring_of(theory, dims)
        for j, d in enumerate(dims):
            line = spec.one() + spec.generator(j)
            collapse = factor_projection(theory, dims, j)
            expected = BundleClass(d, line ** (d + 1))
            assert relative_tangent(theory, collapse) == expected
            for codim in range(3):
                f = linear_immersion(theory, d, d + codim, within=dims, factor=j)
                expected = BundleClass(-codim, (line**codim).inverse())
                assert relative_tangent(theory, f) == expected


# ---------------------------------------------------------------- universal morphism


def test_universal_morphism_frozen_values():
    spec = ring_of(CHOW_Q, (3,))
    h = spec.generator(0)
    half, sixth = Fraction(1, 2), Fraction(1, 6)

    got = universal_morphism(k_line_class(3, 1))
    assert got == spec.one() + h + half * h**2 + sixth * h**3

    t = ring_of(K_THEORY, (3,)).generator(0)
    assert universal_morphism(t) == h - half * h**2 + sixth * h**3


def test_universal_morphism_on_a_product():
    spec = ring_of(K_THEORY, (1, 1))
    t1, t2 = spec.generator(0), spec.generator(1)
    image = universal_morphism(t1 * t2)
    q = ring_of(CHOW_Q, (1, 1))
    assert image == q.generator(0) * q.generator(1)


def _universal_morphism_by_products(a):
    """t_i |-> 1 - e^(-h_i) by powers of each image, multiplied term by term."""
    dims = a.spec.bounds
    target = ring_of(CHOW_Q, dims)
    powers = []
    for i, d in enumerate(dims):
        image = eval_series(exp_deficit_series(d).times_t(), target.generator(i))
        row = [target.one()]
        for _ in range(d):
            row.append(row[-1] * image)
        powers.append(row)
    result = target.zero()
    for exps, c in a.terms.items():
        term = target.scalar(c)
        for i, r in enumerate(exps):
            if r:
                term = term * powers[i][r]
        result = result + term
    return result


def test_universal_morphism_matches_the_product_route():
    rng = random.Random(2024)
    for case in range(80):
        dims = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        scalars = RATIONALS if case % 8 == 0 else INTEGERS
        spec = ring_of(TheoryModel(1, scalars), dims)
        a = spec.element(
            {e: rng.randint(-9, 9) for e in spec.monomials() if rng.random() < 0.6}
        )
        assert universal_morphism(a) == _universal_morphism_by_products(a)
    spec = ring_of(K_THEORY, (40,))
    a = spec.element({(r,): rng.randint(-9, 9) for r in range(41)})
    assert universal_morphism(a) == _universal_morphism_by_products(a)


def _universal_morphism_by_fraction_matrix(a):
    """The matrix pass the integer kernel replaced: Fraction rows, Fraction sums."""
    dims = a.spec.bounds
    names = ("t",) if len(dims) == 1 else tuple(f"t{i + 1}" for i in range(len(dims)))
    if a.spec.variables != names:
        raise SpecMismatch(f"{a.spec} is not a K-theory ring")
    table = a.terms
    for i, d in enumerate(dims):
        image_series = exp_deficit_series(d).times_t().truncated(d)
        row, matrix = TruncatedSeries([1], d), []
        for _ in range(d + 1):
            matrix.append(row.coefficients)
            row = row * image_series
        image = {}
        for exps, c in table.items():
            for f in range(exps[i], d + 1):
                if matrix[exps[i]][f]:
                    key = exps[:i] + (f,) + exps[i + 1 :]
                    image[key] = image.get(key, 0) + c * matrix[exps[i]][f]
        table = image
    return ring_of(CHOW_Q, dims).element(table)


def _image(morphism, a):
    """Terms and scalar types of the image, or the error's class and message."""
    try:
        value = morphism(a)
    except ValueError as error:
        return type(error), str(error)
    return value.terms, {type(c) for c in value.terms.values()}


def test_universal_morphism_matches_the_fraction_matrix_on_seeded_cases():
    rng = random.Random(2025)
    refused = 0
    for case in range(400):
        dims = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
        scalars = (INTEGERS, RATIONALS)[case % 2]
        beta = 0 if case % 5 == 0 else 1  # one case in five is a Chow class
        spec = ring_of(TheoryModel(beta, scalars), dims)
        a = spec.element(
            {
                e: Fraction(rng.randint(-9, 9), rng.randint(1, 6) if scalars == RATIONALS else 1)
                for e in spec.monomials()
                if rng.random() < 0.6
            }
        )
        outcome = _image(universal_morphism, a)
        assert outcome == _image(_universal_morphism_by_fraction_matrix, a)
        if beta == 0 and dims:
            refused += 1
            assert outcome[0] is SpecMismatch
        else:
            assert outcome[1] <= {Fraction}
    assert refused > 0


def test_universal_morphism_rejects_non_k_input():
    with pytest.raises(SpecMismatch):
        universal_morphism(ring_of(CHOW, (2,)).one())


@pytest.mark.parametrize(
    "spec",
    [
        RingSpec(("t",), (3,), INTEGERS, (1,), 2),
        RingSpec(("t",), (3,), RATIONALS, (1,), 3),
        RingSpec(("t",), (3,), INTEGERS, (2,)),
        RingSpec(("t1", "t2"), (2, 2), RATIONALS, (1, 1), 3),
    ],
    ids=["capped-Z", "capped-at-the-top-Q", "weighted-Z", "capped-product-Q"],
)
def test_universal_morphism_rejects_a_ring_that_only_shares_k_names(spec):
    # The map is defined on the K ring only: a capped ring's weight slot
    # would stay in the image's packed keys, and weights grade differently.
    with pytest.raises(SpecMismatch, match="is not a K-theory ring"):
        universal_morphism(spec.generator(0) ** 2)


@pytest.mark.parametrize("scalars", [INTEGERS, RATIONALS])
def test_universal_morphism_maps_k_rings_built_apart_from_ring_of(scalars):
    spec = RingSpec(("t",), (3,), scalars)
    t = spec.generator(0)
    target = ring_of(CHOW_Q, (3,))
    assert universal_morphism(t**2) == target.element({(2,): 1, (3,): -1})
    assert universal_morphism(t) * universal_morphism(t**2) == universal_morphism(t**3)


def test_universal_morphism_is_a_ring_map_spot_check():
    a = k_line_class(4, 2)
    b = k_line_class(4, -1)
    assert universal_morphism(a * b) == universal_morphism(a) * universal_morphism(b)
    assert universal_morphism(a + b) == universal_morphism(a) + universal_morphism(b)


# ---------------------------------------------------------------- graded leading terms


def test_gk_class_requires_homogeneity():
    spec = ring_of(CHOW_Q, (3,))
    h = spec.generator(0)
    GKClass(2, h**2)  # fine
    with pytest.raises(ValueError):
        GKClass(1, h + h**2)


def test_gk_leading_morphism():
    spec = ring_of(K_THEORY, (3,))
    t = spec.generator(0)
    led = gk_leading_morphism(t**2, 2)  # image (h - h^2/2 + ...)^2
    q = ring_of(CHOW_Q, (3,))
    assert led.level == 2
    assert led.representative == q.generator(0) ** 2

    with pytest.raises(FiltrationViolation):
        gk_leading_morphism(k_line_class(3, 1), 1)


@pytest.mark.parametrize("dims", [(8,), (2, 3), (1, 2, 2)])
def test_gk_leading_morphism_sends_each_monomial_to_its_hyperplane_monomial(dims):
    # The universal property of GK tensor Q on generators: t^e lies in
    # filtration level |e| and no deeper, and leads there with h^e.
    k_spec, q_spec = ring_of(K_THEORY, dims), ring_of(CHOW_Q, dims)
    for e in k_spec.monomials():
        monomial = k_spec.element({e: 1})
        led = gk_leading_morphism(monomial, sum(e))
        assert (led.level, led.representative) == (sum(e), q_spec.element({e: 1}))
        with pytest.raises(FiltrationViolation):
            gk_leading_morphism(monomial, sum(e) + 1)


# ---------------------------------------------------------------- diagonal classes


def test_diagonal_chow_is_antidiagonal():
    for n in range(5):
        delta = diagonal_class(CHOW, n)
        assert dict(delta.terms) == {(r, n - r): 1 for r in range(n + 1)}


def test_diagonal_k_line_is_koszul():
    delta = diagonal_class(K_THEORY, 1)
    spec = delta.spec
    t1, t2 = spec.generator(0), spec.generator(1)
    assert delta == t1 + t2 - t1 * t2


def test_diagonal_k_plane_frozen_table():
    delta = diagonal_class(K_THEORY, 2)
    assert dict(delta.terms) == {
        (0, 2): 1,
        (1, 1): 1,
        (2, 0): 1,
        (1, 2): -1,
        (2, 1): -1,
    }


def test_diagonal_restricts_to_the_point_class():
    # (1 x i)^* of the diagonal, i the inclusion of a point, is the
    # class of that point: top power in chow, all-powers sum in K.
    n = 3
    delta = diagonal_class(CHOW, n)
    f = linear_immersion(CHOW, 0, n, within=(n, 0), factor=1)
    restricted = pullback(CHOW, f, delta)
    spec = ring_of(CHOW, (n, 0))
    assert restricted == spec.generator(0) ** n


def test_point_space_diagonal():
    assert diagonal_class(CHOW, 0) == ring_of(CHOW, (0, 0)).one()
    assert diagonal_class(K_THEORY, 0) == ring_of(K_THEORY, (0, 0)).one()


@pytest.mark.parametrize("theory", [CHOW, K_THEORY, CHOW_Q, exp_deficit_twist(6)])
@pytest.mark.parametrize("solve", [diagonal_class, metric_check])
def test_a_negative_dimension_is_refused(solve, theory):
    with pytest.raises(ValueError, match="^factor dimensions must be >= 0$"):
        solve(theory, -1)


def _diagonal_by_point_weights(theory, n):
    # The earlier solver, kept as an oracle: w_r = p_*(x^r) one monomial at
    # a time, and row k of level k solved from sum_r w_r * row_r = delta_s0.
    table = {(0, 0): 1}
    for k in range(1, n + 1):
        prev = ring_of(theory, (k - 1, k - 1)).element(table)
        include = linear_immersion(theory, k - 1, k, within=(k - 1, k - 1), factor=1)
        rows = dict(pushforward(theory, include, prev).terms)
        p = point_projection(theory, k)
        x = ring_of(theory, (k,)).generator(0)
        weights = [pushforward(theory, p, x**r).constant_term for r in range(k + 1)]
        for s in range(k + 1):
            residue = (s == 0) - sum(weights[r] * rows.get((r, s), 0) for r in range(k))
            value = Fraction(residue) / Fraction(weights[k])
            if theory.scalars == INTEGERS:
                assert value.denominator == 1
                value = value.numerator
            if value:
                rows[(k, s)] = value
        table = rows
    return table


DIAGONAL_THEORIES = {
    "chow": CHOW,
    "ktheory": K_THEORY,
    "chow-q": CHOW_Q,
    "ktheory-q": TheoryModel(1, RATIONALS),
    "chow-todd": twist_theory(CHOW_Q, exp_deficit_series(12)),
    "ktheory-twisted": twist_theory(
        K_THEORY, TruncatedSeries([Fraction(2, 3), 1, Fraction(-1, 2), 3], 12)
    ),
}


@pytest.mark.parametrize("theory", DIAGONAL_THEORIES.values(), ids=DIAGONAL_THEORIES)
def test_diagonal_matches_the_point_weight_solver(theory):
    for n in range(9):
        assert dict(diagonal_class(theory, n).terms) == _diagonal_by_point_weights(theory, n)


def _tamper(monkeypatch, name, when, change):
    # theories.<name> with its result passed through `change` where when(f, a).
    real = getattr(theories, name)

    def tampered(theory, f, a):
        result = real(theory, f, a)
        return change(result) if when(f, a) else result

    monkeypatch.setattr(theories, name, tampered)


def _doubled(element):
    return element + element


def _is_moments(f, a):
    # The one collapse of sum_k x^k y^k that reads the moments p_*(x^k).
    return not f.is_immersion and all(r == s for r, s in a.terms)


def test_solver_refuses_a_top_moment_that_is_not_a_unit_over_z(monkeypatch):
    _tamper(monkeypatch, "pushforward", _is_moments, _doubled)  # p_*(x^n) = 2
    with pytest.raises(
        SolverInconsistent, match="^point pushforward of the top power is not a unit$"
    ):
        diagonal_class(CHOW, 2)


def test_solver_refuses_a_zero_top_moment_over_q(monkeypatch):
    def without_top(moments):  # p_*(x^n) = 0, the other moments kept
        return moments - moments.spec.generator(0) ** moments.spec.bounds[0]

    _tamper(monkeypatch, "pushforward", _is_moments, without_top)
    with pytest.raises(
        SolverInconsistent, match="^point pushforward of the top power is not a unit$"
    ):
        diagonal_class(TheoryModel(1, RATIONALS), 2)


def test_solver_refuses_a_table_that_does_not_collapse_to_one(monkeypatch):
    # Only the finished class, not the moments, has the monomial x^2.
    def whole_table(f, a):
        return not f.is_immersion and (2, 0) in a.terms

    _tamper(monkeypatch, "pushforward", whole_table, _doubled)
    with pytest.raises(SolverInconsistent, match=r"^\(p_\* x 1\) normalization fails at n=2$"):
        diagonal_class(CHOW, 2)


def test_solver_refuses_a_table_with_the_wrong_hyperplane_restriction(monkeypatch):
    def from_level_two(f, a):
        return f.target == (2, 2)

    _tamper(monkeypatch, "pullback", from_level_two, _doubled)
    with pytest.raises(SolverInconsistent, match=r"^hyperplane restriction fails at n=2$"):
        diagonal_class(K_THEORY, 2)


def _diagonal_by_levels(theory, n):
    # The level-by-level solver the dual-basis formula replaced, kept as an
    # oracle.  Level k: the level k-1 class pushed into the second factor
    # gives the rows below k; collapsing the first factor gives the residue
    # 1 - p_*(rows) and the pivot p_*(x^k), and row k is their quotient.
    # Symmetry, the normalization and the hyperplane restriction are
    # re-checked at every level.  The maps are read off `theories`, so that
    # a tampered map reaches the oracle too.
    delta = ring_of(theory, (0, 0)).one()
    for k in range(1, n + 1):
        include = linear_immersion(theory, k - 1, k, within=(k - 1, k - 1), factor=1)
        pushed = theories.pushforward(theory, include, delta)
        spec = ring_of(theory, (k, k))
        rows = rings._substituted(pushed, spec, 0, [[(r, 1)] for r in range(k)])
        collapse = factor_projection(theory, (k, k), 0)
        one = ring_of(theory, (k,)).one()
        residue = one - theories.pushforward(theory, collapse, rows)
        top = rings._substituted(one, spec, 0, [[(k, 1)]])  # x^k
        pivot = theories.pushforward(theory, collapse, top).constant_term
        if pivot == 0 or theory.scalars == INTEGERS and pivot not in (1, -1):
            raise SolverInconsistent("point pushforward of the top power is not a unit")
        inverse = 1 / Fraction(pivot)
        last = rings._substituted(
            residue, spec, 0, [[(k, inverse.numerator)]], inverse.denominator
        )
        delta = rows + last
        terms = delta.terms
        asymmetric = [(r, s) for (r, s), c in terms.items() if terms.get((s, r), 0) != c]
        if asymmetric:
            raise SolverInconsistent(
                f"diagonal table for n={k} is not symmetric at {min(asymmetric)}"
            )
        if theories.pushforward(theory, collapse, delta) != one:
            raise SolverInconsistent(f"(p_* x 1) normalization fails at n={k}")
        restrict = linear_immersion(theory, k - 1, k, within=(k - 1, k), factor=0)
        if theories.pullback(theory, restrict, delta) != pushed:
            raise SolverInconsistent(f"hyperplane restriction fails at n={k}")
    return delta


@pytest.mark.parametrize("theory", DIAGONAL_THEORIES.values(), ids=DIAGONAL_THEORIES)
def test_diagonal_matches_the_level_by_level_solver(theory):
    for n in range(9):
        expected = _diagonal_by_levels(theory, n)
        delta = diagonal_class(theory, n)
        assert delta == expected
        assert {type(c) for c in delta.terms.values()} == {
            type(c) for c in expected.terms.values()
        }


def test_the_level_by_level_oracle_finds_an_asymmetric_table(monkeypatch):
    # A doubled p_*(x^2) halves row 2 of level 2 and leaves column 2 alone.
    def top_power(f, a):
        return not f.is_immersion and a.terms == {(2, 0): 1}

    _tamper(monkeypatch, "pushforward", top_power, _doubled)
    with pytest.raises(
        SolverInconsistent, match=r"^diagonal table for n=2 is not symmetric at \(0, 2\)$"
    ):
        _diagonal_by_levels(CHOW_Q, 3)


@pytest.mark.parametrize("theory", DIAGONAL_THEORIES.values(), ids=DIAGONAL_THEORIES)
def test_diagonal_makes_a_fixed_number_of_pushforwards_and_pullbacks(theory, monkeypatch):
    # Two moment pushforwards (P^n and P^(n-1)), the normalization, the
    # P^(n-1) class pushed into the second factor, and one restriction,
    # whatever n is; the point has no hyperplane to restrict to.
    calls = Counter()
    for name in ("pushforward", "pullback"):

        def counted(theory, f, a, real=getattr(theories, name), name=name):
            calls[name] += 1
            return real(theory, f, a)

        monkeypatch.setattr(theories, name, counted)
    for n in (0, 1, 6, 12):
        calls.clear()
        diagonal_class(theory, n)
        assert calls == ({"pushforward": 4, "pullback": 1} if n else {"pushforward": 2})


# ---------------------------------------------------------------- closed forms in beta
# Independent of the level-by-level solver: both models are the law
# x + y - beta*x*y, and these are its closed forms up to n = 8.

BY_BETA = pytest.mark.parametrize(
    "theory,beta", [(CHOW, 0), (K_THEORY, 1)], ids=["chow", "ktheory"]
)


@BY_BETA
def test_point_pushforward_is_a_power_of_beta(theory, beta):
    for n in range(9):
        p = point_projection(theory, n)
        x = ring_of(theory, (n,)).generator(0)
        point = ring_of(theory, ())
        for r in range(n + 1):
            assert pushforward(theory, p, x**r) == point.scalar(beta ** (n - r))


@BY_BETA
def test_diagonal_matches_the_closed_form(theory, beta):
    # sum_{r+s=n} x^r y^s - beta * sum_{r+s=n+1} x^r y^s
    for n in (*range(9), 40, 64, MAX_DIAGONAL_DIM):
        expected = {(r, n - r): 1 for r in range(n + 1)}
        if beta:
            expected.update({(r, n + 1 - r): -beta for r in range(1, n + 1)})
        assert dict(diagonal_class(theory, n).terms) == expected


@BY_BETA
def test_metric_determinant_closed_form(theory, beta):
    for n in range(9):
        report = metric_check(theory, n)
        assert report.determinant == (-1) ** (n * (n + 1) // 2)
        assert report.unit


# ---------------------------------------------------------------- duality metric


def test_metric_matrices_frozen():
    chow2 = metric_check(CHOW, 2)
    assert chow2.matrix == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    k1 = metric_check(K_THEORY, 1)
    assert k1.matrix == ((0, 1), (1, -1))


def test_metric_determinants():
    signs = [1, -1, -1, 1, 1, -1, -1]
    for theory in (CHOW, K_THEORY):
        for n, expected in enumerate(signs):
            report = metric_check(theory, n)
            assert report.determinant == expected
            assert report.unit


# The determinant `metric_check` took before the anti-diagonal product:
# Gaussian elimination over Fractions.
def _determinant(matrix):
    size = len(matrix)
    rows = [[Fraction(c) for c in row] for row in matrix]
    result = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            result = -result
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                scale = rows[r][col] / pivot
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[col])]
    return result


@pytest.mark.parametrize("theory", DIAGONAL_THEORIES.values(), ids=DIAGONAL_THEORIES)
def test_metric_determinant_matches_the_elimination(theory):
    for n in range(13):
        report = metric_check(theory, n)
        expected = _determinant([list(row) for row in report.matrix])
        if theory.scalars == INTEGERS:
            expected = int(expected)
        assert report.determinant == expected, n
        assert type(report.determinant) is type(expected), n


def test_metric_check_refuses_a_term_below_the_anti_diagonal(monkeypatch):
    low = ring_of(CHOW, (2, 2)).element({(0, 1): 1, (2, 0): 1})
    monkeypatch.setattr(theories, "diagonal_class", lambda theory, n: low)
    with pytest.raises(SolverInconsistent, match="^the diagonal class has a term below degree 2$"):
        metric_check(CHOW, 2)


def test_metric_over_rationals_checks_nonvanishing():
    report = metric_check(CHOW_Q, 2)
    assert report.unit
    assert report.determinant == -1
