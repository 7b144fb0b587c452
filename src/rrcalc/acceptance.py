"""The built-in verification suite.

Ten independent checks, each a pure function returning a pass flag and
a deterministic one-line summary.  The CLI `suite` subcommand and the
test suite both run exactly these; nothing here depends on wall-clock
state, so output is reproducible byte for byte.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial

from .applications import (
    AbstractCurve,
    AbstractSurface,
    CurveBundle,
    FormSingularityData,
    SIGN_NOTE,
    SurfaceBundle,
    canonical_degree_hypersurface,
    chi_curve,
    chi_surface,
    euler_characteristic_pn,
    structure_sheaf_chern,
    verify_grr,
    zeuthen_segre,
)
from .bundles import (
    BundleClass,
    additive_extension,
    character_rows,
    multiplicative_extension,
    newton_e_to_p,
    newton_p_to_e,
    todd_rows,
    whitney_sum,
)
from .rings import INTEGERS, RATIONALS, RingElement, RingSpec
from .series import TruncatedSeries, _record, exp_deficit_series, todd_series
from .theories import (
    CHOW,
    CHOW_Q,
    K_THEORY,
    diagonal_class,
    factor_projection,
    k_line_class,
    linear_immersion,
    metric_check,
    point_projection,
    pullback,
    pushforward,
    ring_of,
    tangent_class,
    twist_theory,
    universal_morphism,
)


@_record
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _series_constants() -> tuple[bool, str]:
    depth = 8
    todd = todd_series(depth)
    deficit = exp_deficit_series(depth)
    ok = todd.coefficients[:5] == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    )
    ok = ok and all(
        deficit[n] == Fraction((-1) ** n, factorial(n + 1)) for n in range(depth + 1)
    )
    ok = ok and todd * deficit == TruncatedSeries([1], depth)
    return ok, (
        "Todd head 1, 1/2, 1/12, 0, -1/720; alternating reciprocal factorials; "
        f"product with the defining series is 1 through order {depth}"
    )


def _expansion_formulas() -> tuple[bool, str]:
    symbols = ("c1", "c2", "c3")
    # c_i has weight i; monomials above weight 3 vanish.
    spec = RingSpec(symbols, (3, 1, 1), RATIONALS, (1, 2, 3), 3)
    c1, c2, c3 = spec.generators()
    half = Fraction(1, 2)
    expected_ch = [
        half * (c1 * c1 - 2 * c2),
        Fraction(1, 6) * (c1 ** 3 - 3 * c1 * c2 + 3 * c3),
    ]
    expected_td = [
        spec.one(),
        half * c1,
        Fraction(1, 12) * (c1 * c1 + c2),
        Fraction(1, 24) * (c1 * c2),
    ]
    ok = True
    for rank in range(5):
        ch = character_rows(rank, symbols, 3)
        ok = ok and ch[0] == rank and ch[1] == c1
        ok = ok and ch[2] == expected_ch[0] and ch[3] == expected_ch[1]
    ok = ok and todd_rows(symbols, 3) == expected_td
    return ok, (
        "ch = r + c1 + (c1^2 - 2c2)/2 + (c1^3 - 3c1c2 + 3c3)/6 and "
        "Td = 1 + c1/2 + (c1^2 + c2)/12 + c1c2/24, exactly"
    )


def _grr_grid() -> tuple[bool, str]:
    failures = 0
    cases = 0
    for n in range(7):
        f = point_projection(K_THEORY, n)
        spec = ring_of(K_THEORY, n)
        classes = [spec.element({(r,): 1}) for r in range(n + 1)]
        classes += [k_line_class(n, d) for d in range(-6, 7)]
        for a in classes:
            cases += 1
            if not verify_grr(n, f, a).is_zero():
                failures += 1
    for n in range(1, 6):
        for m in range(n):
            f = linear_immersion(K_THEORY, m, n)
            for d in range(-4, 5):
                cases += 1
                if not verify_grr(m, f, k_line_class(m, d)).is_zero():
                    failures += 1
    return failures == 0, (
        f"{cases} direct-image residuals (points n <= 6, immersions m < n <= 5), "
        f"{failures} nonzero"
    )


def _chi_formula(n: int, d: int) -> int:
    value = Fraction(1)
    for i in range(1, n + 1):
        value *= Fraction(d + i, i)
    if value.denominator != 1:
        raise AssertionError(f"binomial formula broke at n={n}, d={d}")
    return value.numerator


def _euler_grid() -> tuple[bool, str]:
    failures = 0
    cases = 0
    for n in range(7):
        for d in range(-6, 7):
            cases += 1
            chi = euler_characteristic_pn(n, d)
            if chi != _chi_formula(n, d):
                failures += 1
            if d == 0 and chi != 1:
                failures += 1
    return failures == 0, (
        f"{cases} Euler characteristics match binom(n+d, n) on n <= 6, |d| <= 6, "
        f"{failures} mismatches"
    )


def _twist_law() -> tuple[bool, str]:
    failures = 0
    for order in range(1, 13):
        deficit_twist = twist_theory(CHOW, exp_deficit_series(2 * order + 2))
        spec = RingSpec(("u", "v"), (order, order), RATIONALS)
        u, v = spec.generators()
        if deficit_twist.group_law(order) != u + v - u * v:
            failures += 1
        identity_twist = twist_theory(CHOW, TruncatedSeries([1], 2 * order + 2))
        if identity_twist.group_law(order) != u + v:
            failures += 1
    plain = twist_theory(CHOW, TruncatedSeries([1], 8))
    immersion = linear_immersion(plain, 1, 3)
    source = ring_of(plain, 1)
    line = source.one() + source.generator(0)
    if pushforward(plain, immersion, line) != pushforward(
        CHOW_Q, linear_immersion(CHOW_Q, 1, 3), line
    ):
        failures += 1
    collapse = point_projection(plain, 2)
    square = ring_of(plain, 2).generator(0) ** 2
    if pushforward(plain, collapse, square) != pushforward(
        CHOW_Q, point_projection(CHOW_Q, 2), square
    ):
        failures += 1
    return failures == 0, (
        "deficit twist turns x + y into exactly u + v - uv at orders 1..12; "
        f"constant twist 1 leaves laws and pushforwards alone; {failures} failures"
    )


def _diagonal() -> tuple[bool, str]:
    failures = 0
    for theory in (CHOW, K_THEORY):
        for n in range(7):
            delta = diagonal_class(theory, n)
            for r in range(n + 1):
                for s in range(n + 1):
                    value = delta.coefficient_of((r, s))
                    if r + s < n and value != 0:
                        failures += 1
                    if r + s == n and value != 1:
                        failures += 1
            report = metric_check(theory, n)
            if not report.unit or report.determinant not in (1, -1):
                failures += 1
            collapsed = pushforward(
                theory, factor_projection(theory, (n, n), 0), delta
            )
            if collapsed != ring_of(theory, n).one():
                failures += 1
    koszul_spec = ring_of(K_THEORY, (1, 1))
    t1, t2 = koszul_spec.generators()
    if diagonal_class(K_THEORY, 1) != t1 + t2 - t1 * t2:
        failures += 1
    return failures == 0, (
        "diagonals n <= 6 in both models: zero under the antidiagonal, ones on it, "
        f"unit metric determinant, (p_* x 1) = 1, Koszul class at n = 1; "
        f"{failures} failures"
    )


def _curve_surface() -> tuple[bool, str]:
    failures = 0
    for g in range(11):
        if chi_curve(AbstractCurve(g), CurveBundle(1, 0)) != 1 - g:
            failures += 1
    for g in range(6):
        for d in range(-6, 7):
            if chi_curve(AbstractCurve(g), CurveBundle(1, d)) != d + 1 - g:
                failures += 1
    for d in range(-6, 7):
        if chi_curve(AbstractCurve(0), CurveBundle(1, d)) != euler_characteristic_pn(1, d):
            failures += 1
    plane = AbstractSurface(K2=9, chi_top=3)
    if chi_surface(plane, SurfaceBundle(1, 0, 0, 0)) != 1:
        failures += 1
    for d in range(-6, 7):
        twisted = SurfaceBundle(rank=1, c1_dot_K=-3 * d, c1_sq=d * d, deg_c2=0)
        chi = chi_surface(plane, twisted)
        if chi != _chi_formula(2, d) or chi != euler_characteristic_pn(2, d):
            failures += 1
    for q in range(1, 11):
        degree = canonical_degree_hypersurface(2, q)
        if degree % 2 != 0:
            failures += 1
        if degree // 2 + 1 != (q - 1) * (q - 2) // 2:
            failures += 1
    return failures == 0, (
        "chi(C, O) = 1 - g, chi(deg d) = d + 1 - g, Noether on the plane is 1, "
        "plane chi matches binom(d+2, 2), plane-curve genus is (q-1)(q-2)/2; "
        f"{failures} failures"
    )


def _sheaf_chern() -> tuple[bool, str]:
    failures = 0
    for d in range(1, 7):
        multiples = structure_sheaf_chern(d)
        if any(multiples[i] != 0 for i in range(d - 1)):
            failures += 1
        if multiples[d - 1] != (-1) ** (d - 1) * factorial(d - 1):
            failures += 1
    return failures == 0, (
        f"c_i(O_Y) = 0 below the codimension and |c_d| = (d-1)! Y for d <= 6; "
        f"{failures} failures.  {SIGN_NOTE}"
    )


def _zeuthen_segre() -> tuple[bool, str]:
    example = zeuthen_segre(FormSingularityData(D_dot_K=6, D_sq=4, total_length=1))
    c2 = tangent_class(CHOW, 2).chern_class(2)
    degree = pushforward(CHOW, point_projection(CHOW, 2), c2).constant_term
    ok = example == 3 and degree == 3
    return ok, (
        f"form data (6, 4, 1) gives {example}; deg c_2 of the plane's tangent "
        f"bundle via pushforward gives {degree}; both must be 3"
    )


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_element(rng: random.Random, spec: RingSpec, lowest: int = 0) -> RingElement:
    terms = {}
    for exps in spec.monomials():
        if sum(exps) < lowest or rng.random() < 0.5:
            continue
        if spec.scalars == RATIONALS:
            terms[exps] = _random_fraction(rng)
        else:
            terms[exps] = rng.randint(-9, 9)
    return spec.element(terms)


def _random_bundle(rng: random.Random, spec: RingSpec) -> BundleClass:
    return BundleClass(rng.randint(-3, 5), spec.one() + _random_element(rng, spec, 1))


def _random_spec(rng: random.Random, scalars: str, symbol: str = "x") -> RingSpec:
    width = rng.randint(1, 2)
    names = (symbol,) if width == 1 else tuple(f"{symbol}{i+1}" for i in range(width))
    bounds = tuple(rng.randint(1, 4 - width) for _ in range(width))
    return RingSpec(names, bounds, scalars)


def _newton_cases(rng: random.Random, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        spec = _random_spec(rng, RATIONALS)
        depth = rng.randint(1, spec.total_degree + 2)
        elementary = [_random_element(rng, spec) for _ in range(depth)]
        power_sums = newton_e_to_p(elementary, depth)
        if newton_p_to_e(power_sums, depth) != elementary:
            failures += 1
        back = newton_e_to_p(newton_p_to_e(power_sums, depth), depth)
        if back != power_sums:
            failures += 1
    return failures


def _whitney_cases(rng: random.Random, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        spec = _random_spec(rng, RATIONALS)
        e = _random_bundle(rng, spec)
        f = _random_bundle(rng, spec)
        order = spec.total_degree
        additive = TruncatedSeries(
            [_random_fraction(rng) for _ in range(order + 1)]
        )
        head = [Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))]
        unit = TruncatedSeries(
            head + [_random_fraction(rng) for _ in range(order)]
        )
        both = whitney_sum(e, f)
        if additive_extension(additive, both) != additive_extension(
            additive, e
        ) + additive_extension(additive, f):
            failures += 1
        if multiplicative_extension(unit, both) != multiplicative_extension(
            unit, e
        ) * multiplicative_extension(unit, f):
            failures += 1
    return failures


def _random_morphism(rng: random.Random, theory):
    kind = rng.randint(0, 2)
    if kind == 0:
        return point_projection(theory, rng.randint(0, 3))
    if kind == 1:
        width = rng.randint(2, 3)
        dims = tuple(rng.randint(0, 2) for _ in range(width))
        return factor_projection(theory, dims, rng.randrange(width))
    width = rng.randint(1, 2)
    dims = tuple(rng.randint(0, 2) for _ in range(width))
    which = rng.randrange(width)
    m = dims[which]
    return linear_immersion(
        theory, m, m + rng.randint(0, 2), within=dims, factor=which
    )


def _projection_formula_cases(rng: random.Random, cases: int) -> int:
    failures = 0
    deficit = exp_deficit_series(12)
    for _ in range(cases):
        pick = rng.randint(0, 2)
        theory = (CHOW, K_THEORY, twist_theory(CHOW, deficit))[pick]
        f = _random_morphism(rng, theory)
        a = _random_element(rng, ring_of(theory, f.source))
        b = _random_element(rng, ring_of(theory, f.target))
        left = pushforward(theory, f, pullback(theory, f, b) * a)
        right = b * pushforward(theory, f, a)
        if left != right:
            failures += 1
    return failures


def _ring_morphism_cases(rng: random.Random, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        spec = _random_spec(rng, INTEGERS, symbol="t")
        a = _random_element(rng, spec)
        b = _random_element(rng, spec)
        if universal_morphism(a + b) != universal_morphism(a) + universal_morphism(b):
            failures += 1
        if universal_morphism(a * b) != universal_morphism(a) * universal_morphism(b):
            failures += 1
        if universal_morphism(spec.one()) != ring_of(CHOW_Q, spec.bounds).one():
            failures += 1
    return failures


def _reversion_cases(rng: random.Random, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        order = rng.randint(1, 8)
        slope = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.randint(1, 3))
        tail = [_random_fraction(rng) for _ in range(order - 1)]
        series = TruncatedSeries([0, slope] + tail)
        back = series.reversion()
        identity = TruncatedSeries([0, 1], order)
        if series.compose(back) != identity or back.compose(series) != identity:
            failures += 1
    return failures


def _property_suites() -> tuple[bool, str]:
    cases = 200
    suites = [
        ("newton", _newton_cases, random.Random(101)),
        ("whitney", _whitney_cases, random.Random(102)),
        ("projection", _projection_formula_cases, random.Random(103)),
        ("ring-morphism", _ring_morphism_cases, random.Random(104)),
        ("reversion", _reversion_cases, random.Random(105)),
    ]
    failures = {name: fn(rng, cases) for name, fn, rng in suites}
    total = sum(failures.values())
    report = ", ".join(f"{name} {count}" for name, count in failures.items())
    return total == 0, f"5 suites x {cases} seeded cases; failures: {report}"


CRITERIA = [
    (1, "series-constants", _series_constants),
    (2, "expansion-formulas", _expansion_formulas),
    (3, "grr-grid", _grr_grid),
    (4, "euler-grid", _euler_grid),
    (5, "twist-law", _twist_law),
    (6, "diagonal", _diagonal),
    (7, "curve-surface", _curve_surface),
    (8, "sheaf-chern", _sheaf_chern),
    (9, "zeuthen-segre", _zeuthen_segre),
    (10, "property-suites", _property_suites),
]


def run_criterion(number: int) -> CriterionResult:
    for index, name, check in CRITERIA:
        if index == number:
            start = time.perf_counter()
            passed, detail = check()
            return CriterionResult(
                index, name, passed, detail, time.perf_counter() - start
            )
    raise ValueError(f"no acceptance criterion numbered {number}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(number) for number, _, _ in CRITERIA]
