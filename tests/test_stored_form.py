"""The stored form of ring elements, checked on every operation that builds one.

An element keeps a packed table of nonzero integer numerators over one
positive denominator: the lcm of its reduced coefficient denominators, 1
over Z, sharing no factor with every numerator.  Each result below is read
back through the public `terms` view, rebuilt by the validating
constructor, and compared with the same operation done on `Fraction`
term tables, so a lost content reduction or a denominator that is not
the lcm shows either in the form or in the value.
"""

import math
import random
from fractions import Fraction

from rrcalc.acceptance import _random_morphism
from rrcalc.bundles import BundleClass, additive_extension, newton_e_to_p, newton_p_to_e
from rrcalc.rings import INTEGERS, RATIONALS, RingSpec, eval_series
from rrcalc.series import TruncatedSeries
from rrcalc.theories import (
    CHOW,
    CHOW_Q,
    K_THEORY,
    pullback,
    pushforward,
    ring_of,
    universal_morphism,
)

THEORIES = (CHOW, CHOW_Q, K_THEORY)


def assert_stored_form(value):
    """The reduced form, read off the stored table, and the validated rebuild."""
    table, denominator, spec = value._table, value._denominator, value.spec
    assert all(table.values()), "a zero numerator is stored"
    assert denominator >= 1 and (denominator == 1 or spec.scalars == RATIONALS)
    assert math.gcd(denominator, *table.values()) == 1, "the content is not 1"
    terms = value.terms
    assert len(terms) == len(table) and all(spec.fits(e) for e in terms)
    assert spec.element(terms) == value
    domain = int if spec.scalars == INTEGERS else Fraction
    assert all(type(c) is domain for c in terms.values())
    return value


# --- the same operations on Fraction term tables


def _clean(table: dict) -> dict:
    return {e: c for e, c in table.items() if c}


def _add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
    return _clean(out)


def _mul(spec: RingSpec, p: dict, q: dict) -> dict:
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if spec.fits(e):
                out[e] = out.get(e, 0) + ca * cb
    return _clean(out)


def _evaluate(spec: RingSpec, series: TruncatedSeries, argument: dict) -> dict:
    total, power = {}, {(0,) * len(spec.variables): Fraction(1)}
    for n in range(series.order + 1):
        total = _add(total, power, series[n])
        power = _mul(spec, power, argument)
    assert not power, "the series is too short for this argument"
    return total


def _newton_e_to_p(spec: RingSpec, e: list, up_to: int) -> list:
    p = []
    for n in range(1, up_to + 1):
        total = _add({}, e[n - 1], (-1) ** (n - 1) * n) if n <= len(e) else {}
        for i in range(1, min(n, len(e) + 1)):
            total = _add(total, _mul(spec, e[i - 1], p[n - i - 1]), (-1) ** (i - 1))
        p.append(total)
    return p


# --- random rings and elements


def _random_spec(rng: random.Random, scalars: str) -> RingSpec:
    """0-3 variables, maybe weighted, maybe capped."""
    count = rng.randint(0, 3)
    bounds = tuple(rng.randint(0, 5) for _ in range(count))
    weights = None if rng.random() < 0.5 else tuple(rng.randint(1, 3) for _ in range(count))
    cap = None if rng.random() < 0.5 else rng.randint(0, 8)
    return RingSpec(tuple(f"x{i}" for i in range(count)), bounds, scalars, weights, cap)


def _random_scalar(rng: random.Random, scalars: str):
    value = rng.randint(-6, 6)
    return value if scalars == INTEGERS else Fraction(value, rng.choice((1, 2, 3, 4, 6, 12)))


def _random_terms(rng: random.Random, spec: RingSpec, constant=None) -> dict:
    monomials = list(spec.monomials())
    chosen = rng.sample(monomials, min(4, len(monomials)))
    terms = {e: _random_scalar(rng, spec.scalars) for e in chosen}
    zero = (0,) * len(spec.variables)
    if constant is not None:
        terms[zero] = constant
    return terms


def _checked(spec: RingSpec, terms: dict):
    value = assert_stored_form(spec.element(terms))
    assert dict(value.terms) == _clean({e: spec.coerce(c) for e, c in terms.items()})
    return value


def test_ring_operations_keep_the_stored_form():
    rng = random.Random(1313)
    seen = set()
    for _ in range(500):
        scalars = rng.choice((INTEGERS, RATIONALS))
        spec = _random_spec(rng, scalars)
        seen.add((scalars, spec.cap is not None, spec.weights != (1,) * len(spec.bounds)))
        a = _checked(spec, _random_terms(rng, spec))
        b = _checked(spec, _random_terms(rng, spec))
        c = _random_scalar(rng, scalars)
        ta, tb = dict(a.terms), dict(b.terms)
        zero = (0,) * len(spec.bounds)
        cases = [
            (a + b, _add(ta, tb)),
            (a - b, _add(ta, tb, -1)),
            (-a, _add({}, ta, -1)),
            (a * b, _mul(spec, ta, tb)),
            (a * c, _add({}, ta, c)),
            (c * a, _add({}, ta, c)),
            (a + c, _add(ta, {zero: c})),
            (c - a, _add({zero: c}, ta, -1)),
            (a + (-a), {}),
        ]
        pieces = a.graded_components()
        cases += [(piece, {e: v for e, v in ta.items() if spec.weight(e) == n})
                  for n, piece in enumerate(pieces)]
        cases += [(a.graded_component(n), dict(piece.terms)) for n, piece in enumerate(pieces)]
        nil = a - a.constant_term
        order = spec.total_degree
        series = TruncatedSeries([_random_scalar(rng, scalars) for _ in range(order + 1)])
        cases.append((eval_series(series, nil), _evaluate(spec, series, dict(nil.terms))))
        unit = rng.choice((1, -1)) if scalars == INTEGERS else Fraction(rng.choice((1, -2, 3)), 2)
        inverse = (nil + unit).inverse()
        cases.append((inverse * (nil + unit), {zero: 1}))
        cases.append((inverse, dict(inverse.terms)))  # the form; the line above checks the value
        for value, expected in cases:
            assert_stored_form(value)
            assert dict(value.terms) == expected
        assert a.constant_term == ta.get(zero, 0)
        for e in spec.monomials():
            assert a.coefficient_of(e) == ta.get(e, 0)
    assert len(seen) == 8  # both domains, with and without weights and a cap


def test_newton_and_additive_extension_keep_the_stored_form():
    rng = random.Random(1314)
    for _ in range(150):
        scalars = rng.choice((INTEGERS, RATIONALS))
        spec = _random_spec(rng, scalars)
        elementary = [_checked(spec, _random_terms(rng, spec)) for _ in range(rng.randint(1, 4))]
        up_to = rng.randint(1, 5)
        power_sums = newton_e_to_p(elementary, up_to)
        expected = _newton_e_to_p(spec, [dict(e.terms) for e in elementary], up_to)
        for value, terms in zip(power_sums, expected):
            assert_stored_form(value)
            assert dict(value.terms) == terms
        if scalars == RATIONALS:
            for value in newton_p_to_e(power_sums, up_to):
                assert_stored_form(value)
            rank, chern = rng.randint(-3, 3), elementary[0] - elementary[0].constant_term
            order = spec.total_degree
            series = TruncatedSeries([_random_scalar(rng, scalars) for _ in range(order + 1)])
            value = assert_stored_form(additive_extension(series, BundleClass(rank, chern + 1)))
            pieces = [dict(piece.terms) for piece in chern.graded_components()[1:]]
            expected = {(0,) * len(spec.bounds): series[0] * rank}
            for n, p_n in enumerate(_newton_e_to_p(spec, pieces, order), start=1):
                expected = _add(expected, p_n, series[n])
            assert dict(value.terms) == _clean(expected)


def test_pushforward_pullback_and_universal_morphism_keep_the_stored_form():
    rng = random.Random(1315)
    for _ in range(300):
        theory = rng.choice(THEORIES)
        f = _random_morphism(rng, theory)
        source, target = ring_of(theory, f.source), ring_of(theory, f.target)
        a = _checked(source, _random_terms(rng, source))
        b = _checked(target, _random_terms(rng, target))
        pushed = assert_stored_form(pushforward(theory, f, a))
        pulled = assert_stored_form(pullback(theory, f, b))
        # The projection formula ties both maps to ring products.
        assert pushforward(theory, f, a * pulled) == pushed * b
        if theory is K_THEORY:
            assert_stored_form(universal_morphism(a))
            assert_stored_form(universal_morphism(b))


def test_equality_and_hash_agree_with_the_terms():
    rng = random.Random(1316)
    scalars_seen = 0
    for _ in range(400):
        scalars = rng.choice((INTEGERS, RATIONALS))
        spec = _random_spec(rng, scalars)
        plain = RingSpec(spec.variables, spec.bounds)  # integers, no weights, no cap
        other = rng.choice((spec, _random_spec(rng, scalars), plain))
        a = spec.element(_random_terms(rng, spec, rng.choice((None, 0, 1, -2))))
        b = rng.choice((
            spec.element(dict(a.terms)),
            (a + a) * Fraction(1, 2) if scalars == RATIONALS else a + a - a,
            other.element(_random_terms(rng, other)),
            spec.scalar(rng.choice((0, 1, 3))),
        ))
        expected = a.spec == b.spec and dict(a.terms) == dict(b.terms)
        assert (a == b) is expected and (b == a) is expected and (a != b) is not expected
        if expected:
            assert hash(a) == hash(b)
        zero = (0,) * len(spec.bounds)
        for c in (0, 1, -2, Fraction(1, 2), Fraction(4, 2), Fraction(-2, 3)):
            expected = dict(a.terms) == ({zero: c} if c else {})
            assert (a == c) is expected and (c == a) is expected
            if expected:
                assert hash(a) == hash(c)
                scalars_seen += 1
    assert scalars_seen > 20
