"""rrcalc against sympy, an independently written oracle.

sympy's `rs_series_reversion` finds the inverse by successive
substitution, a different route from the Lagrange inversion in
`TruncatedSeries.reversion`.  `compose` (Horner at the truncation
order) is checked against sympy's full polynomial composition, cut at
that order.  The Todd, exponential-deficit and log(1 + t) series are
checked against sympy's own `series`, the Chern character matrix against
sympy's Stirling numbers, and the abstract Chern-symbol rows against sums
and products over literal roots, rewritten in the elementary symmetric
functions by `symmetrize`.  The twisted group laws
are expanded as e(base(e^-1(u), e^-1(v))) in sympy's own polynomial
ring, and `eval_series` of exp, log(1 + t) and the deficit series as
truncated power sums there.  Skipped where sympy is not installed.
"""

import functools
import random
from fractions import Fraction
from math import factorial

import pytest

pytest.importorskip("sympy")

import sympy
from sympy import QQ
from sympy.polys.polyfuncs import symmetrize
from sympy.polys.ring_series import rs_series_reversion
from sympy.polys.rings import ring

from test_series import log_one_plus_series

from rrcalc.bundles import character_rows, todd_rows
from rrcalc.rings import RATIONALS, RingSpec, eval_series
from rrcalc.series import (
    TruncatedSeries,
    exp_deficit_series,
    exponential_series,
    todd_series,
)
from rrcalc.theories import CHOW, K_THEORY, twist_theory

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


x = sympy.Symbol("x")
ROOTS = sympy.symbols("x1:6")
CHERN = sympy.symbols("c1:6")


@functools.lru_cache(maxsize=None)
def sympy_series(name: str, order: int):
    if name == "todd":
        # x/(1 - e^-x) = 1 + x/2 + sum_(n>=1) B_2n x^2n / (2n)!, from sympy's
        # Bernoulli numbers; the even ones read the same under both B_1 signs.
        return 1 + x / 2 + sum(
            sympy.bernoulli(2 * n) * x ** (2 * n) / sympy.factorial(2 * n)
            for n in range(1, order // 2 + 1)
        )
    closed = {
        "exp_deficit": (1 - sympy.exp(-x)) / x,
        "log_one_plus": sympy.log(1 + x),
        "exponential": sympy.exp(x),
    }
    return sympy.series(closed[name], x, 0, order + 1).removeO()


def as_fractions(expression, order: int) -> TruncatedSeries:
    return TruncatedSeries(
        Fraction(int(c.p), int(c.q))
        for c in (expression.coeff(x, k) for k in range(order + 1))
    )


def as_poly(series: TruncatedSeries) -> sympy.Poly:
    coefficients = [QQ(c.numerator, c.denominator) for c in reversed(series.coefficients)]
    return sympy.Poly(coefficients, x, domain=QQ)


def random_coefficients(rng: random.Random, count: int) -> list:
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(count)]


def test_compose_matches_sympy_on_random_series():
    rng = random.Random(1957)
    for _ in range(16):
        outer = TruncatedSeries(random_coefficients(rng, rng.randint(1, 21)))
        inner = TruncatedSeries([0] + random_coefficients(rng, rng.randint(0, 20)))
        order = min(outer.order, inner.order)
        expanded = as_poly(outer).compose(as_poly(inner)).all_coeffs()[::-1]
        expected = TruncatedSeries(
            (Fraction(int(c.p), int(c.q)) for c in expanded[: order + 1]), order
        )
        assert outer.compose(inner) == expected


@pytest.mark.parametrize(
    "name, ours",
    [
        ("todd", todd_series),
        ("exp_deficit", exp_deficit_series),
        ("log_one_plus", log_one_plus_series),
    ],
)
def test_stock_series_match_sympy_to_order_30(name, ours):
    assert ours(30) == as_fractions(sympy_series(name, 30), 30)


def symmetric_rows(per_root, combine, order: int) -> list:
    """Rows of combine(F(x1), .., F(x5)) by degree, in c_i = e_i(x1..x5)."""
    total = combine(per_root.subs(x, root) for root in ROOTS)
    by_degree = [sympy.Integer(0)] * (order + 1)
    for monomial, coefficient in sympy.Poly(total, *ROOTS).terms():
        if sum(monomial) <= order:
            by_degree[sum(monomial)] += coefficient * sympy.prod(
                r**e for r, e in zip(ROOTS, monomial)
            )
    rows = []
    for piece in by_degree:
        symmetric, remainder, names = symmetrize(piece, *ROOTS, formal=True)
        assert remainder == 0
        rows.append(sympy.expand(symmetric.subs(dict(zip([n for n, _ in names], CHERN)))))
    return rows


def as_sympy(row):
    """One rrcalc row as a sympy polynomial in c1..c5."""
    terms = (
        sympy.Rational(c.numerator, c.denominator)
        * sympy.prod(s**e for s, e in zip(CHERN, exps))
        for exps, c in row.terms.items()
    )
    return sympy.expand(sum(terms, sympy.Integer(0)))


def test_todd_rows_match_the_product_over_five_roots():
    todd_root = sum(sympy_series("todd", 30).coeff(x, k) * x**k for k in range(6))
    expected = symmetric_rows(todd_root, lambda fs: sympy.expand(sympy.prod(fs)), 5)
    for order in range(6):
        rows = todd_rows(tuple(map(str, CHERN)), order)
        assert [as_sympy(row) for row in rows] == expected[: order + 1]


def test_character_rows_match_the_sum_over_five_roots():
    exp_root = sum(x**k / sympy.factorial(k) for k in range(6))
    expected = symmetric_rows(exp_root, sum, 5)
    for order in range(6):
        # Five roots, so rank 5: row 0 is e^0 summed over the roots.
        rows = character_rows(5, tuple(map(str, CHERN)), order)
        assert [as_sympy(row) for row in rows] == expected[: order + 1]


UV, u, v = ring("u, v", QQ)


def sympy_twisted_law(twist: TruncatedSeries, beta: int, order: int) -> dict:
    """e(x + y - beta*x*y) at x = e^-1(u), y = e^-1(v), e = t*F, cut at u, v <= order."""

    def cut(p):
        return UV({m: c for m, c in p.items() if max(m) <= order})

    conjugator = twist.times_t()
    inverse = sympy_reversion(conjugator).coefficients[: order + 1]

    def inverse_at(g):
        terms = (QQ(c.numerator, c.denominator) * g**k for k, c in enumerate(inverse))
        return sum(terms, UV.zero)

    a, b = inverse_at(u), inverse_at(v)
    s = cut(a + b - beta * a * b)
    law = UV.zero
    for c in reversed(conjugator.coefficients):  # Horner, every step cut
        law = cut(law * s) + QQ(c.numerator, c.denominator)
    return {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in law.items()}


@pytest.mark.parametrize("base", [CHOW, K_THEORY], ids=["chow", "ktheory"])
def test_twisted_group_law_matches_sympy(base):
    rng = random.Random(1966 + base.beta)
    for _ in range(12):
        depth = rng.randint(1, 8)
        twist = TruncatedSeries(
            [Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 4))]
            + random_coefficients(rng, depth)
        )
        # e = t*F has order depth + 1, enough for law degrees up to 2*order.
        order = rng.randint(1, (depth + 1) // 2)
        law = twist_theory(base, twist).group_law(order)
        assert law.terms == sympy_twisted_law(twist, base.beta, order)


def test_character_matrix_rows_match_stirling_numbers():
    # (1 - e^-h)^r = sum_f (-1)^(f - r) r! S(f, r) h^f / f!, S the Stirling
    # numbers of the second kind; (-1)^(f + r) is the same sign.
    from sympy.functions.combinatorial.numbers import stirling

    from rrcalc.theories import _character_images

    for d in range(13):
        images, denominator = _character_images(d)
        assert len(images) == d + 1
        for r, image in enumerate(images):
            row = dict(image)
            assert len(row) == len(image)
            assert all(isinstance(n, int) and n for n in row.values())
            assert [Fraction(row.get(f, 0), denominator) for f in range(d + 1)] == [
                Fraction((-1) ** (f + r) * factorial(r) * int(stirling(f, r)), factorial(f))
                for f in range(d + 1)
            ]


def sympy_evaluation(name: str, g, bounds: tuple[int, int]) -> dict:
    """sum c_n g^n in QQ[u, v] with sympy's c_n, each power cut at the bounds."""

    def cut(p):
        return UV({m: c for m, c in p.items() if m[0] <= bounds[0] and m[1] <= bounds[1]})

    expansion = sympy_series(name, 30)
    total, power = UV.zero, UV.one
    for n in range(sum(bounds) + 1):  # g^(sum of bounds + 1) = 0
        c = expansion.coeff(x, n)
        total += QQ(int(c.p), int(c.q)) * power
        power = cut(power * g)
    return {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in total.items()}


@pytest.mark.parametrize(
    "name, ours",
    [
        ("exponential", exponential_series),
        ("log_one_plus", log_one_plus_series),
        ("exp_deficit", exp_deficit_series),
    ],
)
def test_eval_series_matches_sympy_at_random_nilpotents(name, ours):
    rng = random.Random(1603 + len(name))
    for _ in range(12):
        bounds = (rng.randint(0, 4), rng.randint(0, 4))
        spec = RingSpec(("u", "v"), bounds, RATIONALS)
        terms = {
            (rng.randint(0, bounds[0]), rng.randint(0, bounds[1])): value
            for value in random_coefficients(rng, rng.randint(1, 5))
        }
        terms.pop((0, 0), None)
        g = UV.zero
        for (i, j), c in terms.items():
            g += QQ(c.numerator, c.denominator) * u**i * v**j
        value = eval_series(ours(sum(bounds)), spec.element(terms))
        assert value.terms == sympy_evaluation(name, g, bounds)
