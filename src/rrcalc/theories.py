"""Cohomology models on products of projective spaces.

Both theories on X = P^d1 x ... x P^dk carry the law x + y - beta*xy:

* beta = 0, the additive model ("chow"): Z[h1..hk]/(h_i^(d_i+1)), h_i
  the hyperplane class of factor i, group law x + y;
* beta = 1, the multiplicative model ("ktheory"): t_i = 1 - [O(-1)],
  the K-fundamental class of a hyperplane, group law x + y - xy.

Pullbacks substitute generators, pushforwards are monomial tables
along linear immersions and projections.  Twisting a theory by an
invertible series F keeps rings and pullbacks, replaces every
pushforward f_* by a |-> f_*(F_x(T_f)^(-1) * a), where the Euler
sequence makes the correction a power of F or 1/F at the acted
generator, a series in that generator alone, which is folded into the
monomial table, and conjugates the group law by e(x) = x*F(x).  Every theory
keeps its law as a coefficient table F[i, l], c1(L tensor L') = sum
F[i, l] c1(L)^i c1(L')^l: the constant x + y - beta*xy untwisted, and
exp_T(log_T u + log_T v) once twisted, built per theory through the
largest degree a law has asked for, from one reversion of the
conjugator's head through that degree.  The universal
morphism t_i |-> 1 - e^(-h_i) identifies the multiplicative model with
the additive one over the rationals; its graded leading term is
exposed separately.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul

from .bundles import BundleClass, whitney_difference
from .rings import (
    INTEGERS,
    RATIONALS,
    InsufficientOrder,
    NonUnitConstant,
    RingElement,
    RingSpec,
    Scalar,
    SpecMismatch,
    _eval_bivariate,
    _substituted,
    _transposed,
)
from .series import (
    TruncatedSeries,
    _log_ratio,
    _powers,
    _record,
    _unit_power,
    common_denominator,
    exp_deficit_series,
)

Dims = tuple[int, ...]
Images = list[list[tuple[int, int]]]  # row e: the (f, w) with x^e |-> sum w * x^f


class SolverInconsistent(ValueError):
    """The diagonal-class constraints could not be satisfied."""


class FiltrationViolation(ValueError):
    """A class claimed to lie in filtration level d has lower-degree terms."""


def _dims(dims) -> Dims:
    dims = (dims,) if isinstance(dims, int) else tuple(map(int, dims))
    if dims and min(dims) < 0:
        raise ValueError("factor dimensions must be >= 0")
    return dims


def _names(base: str, count: int) -> tuple[str, ...]:
    if count == 1:
        return (base,)
    return tuple(f"{base}{i + 1}" for i in range(count))


# Indexed by beta: the theory's name in reprs and its generator symbol.
_LABELS = (("chow", "h"), ("ktheory", "t"))


@_record
class TheoryModel:
    """Connective K-theory law x + y - beta*x*y at beta 0 or 1, maybe twisted."""

    beta: int
    scalars: str
    twist: TruncatedSeries | None = None

    def __post_init__(self):
        if self.beta not in (0, 1):
            raise ValueError(f"beta must be 0 or 1, not {self.beta!r}")
        if self.twist is not None and self.scalars != RATIONALS:
            raise ValueError("twisted theories carry rational scalars")
        if self.twist is not None and self.twist[0] == 0:
            raise NonUnitConstant("a twisting series needs an invertible constant term")

    def __repr__(self) -> str:
        name = _LABELS[self.beta][0]
        if self.twist is not None:
            return f"<twisted {name} by order-{self.twist.order} series>"
        return f"<{name} over {self.scalars}>"

    @property
    def generator_symbol(self) -> str:
        return _LABELS[self.beta][1]

    def law(self, a: RingElement, b: RingElement) -> RingElement:
        """The group law on first Chern classes: F(a, b), c1 of a tensor product.

        Arguments must be nilpotent classes in one ring.  F is the
        theory's coefficient table F[i, l] (`_law_table`), evaluated by
        `rings._eval_bivariate`: Horner in a over G_i(b) = sum_l F[i, l] b^l,
        reading only the entries whose a^i * b^l can be nonzero, so a
        twisted table is built only through the largest i + l that the
        ring lets survive.  It is known for i + l <= N, the order of its
        conjugator e(x) = x * twist(x).  Over the integers every entry
        read must be an integer (IntegerDomain otherwise); after those reads,
        InsufficientOrder names the first a^i * b^l != 0 with i + l = N + 1.
        """
        if a.spec != b.spec:
            raise SpecMismatch("group law arguments must share a ring")
        known = None if self.twist is None else self.twist.order + 1
        return _eval_bivariate(self._law_table, known, a, b)

    def _law_table(self, degree: int) -> dict[tuple[int, int], Scalar]:
        """The nonzero F[i, l] of the theory's law, at least for i + l <= degree.

        Untwisted: x + y - beta*x*y.  Twisted: built by `_law_coefficients`
        from `_logarithm(degree)`, so only the conjugator's head through
        t^degree is reverted, and built again, reversion included, only for
        a larger degree.  Degree 0 (a point ring) has no entry to build.
        """
        if self.twist is None:
            return _UNTWISTED_LAWS[self.beta]
        built = self.__dict__.get("_built_law")
        if built is None or built[0] < degree:
            # Kept in the instance __dict__, which holds no field, so it
            # stays out of the record's ==, hash and repr.
            table = _law_coefficients(*self._logarithm(degree), degree) if degree else {}
            built = self.__dict__["_built_law"] = (degree, table)
        return built[1]

    def _logarithm(self, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
        """(log_T, exp_T) of the twisted law F(u, v) = exp_T(log_T u + log_T v), at `order`.

        `order` runs from 1 to the conjugator's order N.  The law is
        e(g(u) +_beta g(v)) with e(x) = x * twist(x) and g its reversion,
        and x +_1 y = x + y - xy has logarithm -log(1 - x) and exponential
        1 - e^(-s); so log_T = g at beta 0 and -log(1 - g) at beta 1, read
        as `series._log_ratio` of 1 - g, exp_T = e or e(1 - e^(-s)).  The
        latter is sum_r e_r * (1 - e^(-s))^r, the rows of
        `_character_images(order)`, so no series is composed.
        """
        conjugator = self.twist.times_t().truncated(order)
        inverse = conjugator.reversion()
        if not self.beta:
            return inverse, conjugator
        complement = [Fraction(1)] + [-c for c in inverse.coefficients[1:]]  # 1 - g
        rows, denominator = _character_images(order)
        e, scale = common_denominator(conjugator.coefficients)
        exponential = [0] * (order + 1)
        for c, row in zip(e, rows):
            for f, w in row:
                exponential[f] += c * w
        exponential = [Fraction(c, scale * denominator) for c in exponential]
        return -_log_ratio(complement, order), TruncatedSeries(exponential)

    def group_law(self, order: int) -> RingElement:
        """F(u, v) in scalars[u, v]/(u^(order+1), v^(order+1)): `law` at u and v.

        Its coefficients are the table entries F[i, l] with i, l <= order,
        so a twisted table must reach degree 2*order.
        """
        spec = RingSpec(("u", "v"), (order, order), self.scalars)
        return self.law(spec.generator(0), spec.generator(1))


# x + y - beta*x*y as a table: exact at every degree, so never too short.
_UNTWISTED_LAWS = ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1, (1, 1): -1})


def _law_coefficients(
    logarithm: TruncatedSeries, exponential: TruncatedSeries, n: int
) -> dict[tuple[int, int], Fraction]:
    """The nonzero [u^i v^l] exponential(logarithm(u) + logarithm(v)), i + l <= n.

    With divided powers Q_j = logarithm^j / j! and A_k = k! * [s^k]
    exponential, F[i, l] = sum_(j, m) [u^i] Q_j * A_(j+m) * [v^l] Q_m, a
    Hankel form on the columns of Q.  The n powers and the two contractions
    take O(n^3) integer multiply-adds on numerators over one denominator,
    and one Fraction per nonzero entry.  F is symmetric, so only the rows
    i <= l are contracted and each entry is written at (i, l) and (l, i).
    """
    powers = _powers(common_denominator(logarithm.coefficients[: n + 1]), n, n)
    scales = [d * factorial(j) for j, (_, d) in enumerate(powers)]
    common = lcm(*scales)
    # columns[i][j] = [u^i] Q_j * common, nonzero only for j <= i.
    columns = [
        [p[i] * (common // s) for (p, _), s in zip(powers[: i + 1], scales)] for i in range(n + 1)
    ]
    hankel, denominator = common_denominator(
        [c * factorial(k) for k, c in enumerate(exponential.coefficients[: n + 1])]
    )
    # halves[i][m] = sum_j [u^i] Q_j * A_(j+m), over denominator * common,
    # for the rows i <= n - i that an entry with i <= l reads.
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


CHOW = TheoryModel(0, INTEGERS)
CHOW_Q = TheoryModel(0, RATIONALS)
K_THEORY = TheoryModel(1, INTEGERS)


def twist_theory(base: TheoryModel, series: TruncatedSeries) -> TheoryModel:
    """The theory with pushforwards f_*(F_x(T_f)^(-1) * -).

    Only one twist layer is kept: twisting a twisted theory multiplies
    the stored series, which composes the pushforward corrections.
    """
    if base.twist is not None:
        series = base.twist * series
    return TheoryModel(base.beta, RATIONALS, series)


def ring_of(theory: TheoryModel, dims) -> RingSpec:
    """The theory's ring on P^d1 x ... x P^dk: one bound-d_i generator per factor."""
    return _ring(theory.generator_symbol, _dims(dims), theory.scalars)


@lru_cache(maxsize=None)
def _ring(symbol: str, dims: Dims, scalars: str) -> RingSpec:
    # One shared spec per shape, so its packing layout is built once.
    return RingSpec(_names(symbol, len(dims)), dims, scalars)


def k_line_class(n: int, m: int) -> RingElement:
    """[O(m)] in the K-theory ring of P^n: (1 - t)^(-m), t = 1 - [O(-1)].

    One binomial row for either sign of m: t^r has the coefficient
    c_r = binom(m + r - 1, r), and c_(r+1) = c_r * (m + r) / (r + 1) is exact.
    """
    terms, c = {}, 1
    for r in range(n + 1):
        if c:
            terms[(r,)] = c
        c = c * (m + r) // (r + 1)
    return ring_of(K_THEORY, (n,)).element(terms)


def tangent_class(theory: TheoryModel, n: int) -> BundleClass:
    """The tangent bundle of P^n: rank n, total Chern class (1 + g)^(n+1).

    The Euler sequence presents the tangent bundle as (n+1) copies of
    O(1) minus a trivial line, and g is the theory's first Chern class
    of O(1) in either model, so one formula serves both.
    """
    return space_tangent(theory, (n,))


def space_tangent(theory: TheoryModel, dims) -> BundleClass:
    """Tangent bundle of a product: factor tangents pulled back and summed."""
    dims = _dims(dims)
    spec = ring_of(theory, dims)
    total = spec.one()
    for i, d in enumerate(dims):
        total = total * (spec.one() + spec.generator(i)) ** (d + 1)
    return BundleClass(sum(dims), total)


@_record
class Morphism:
    """A supported map f: source -> target, as a shape valid in every theory.

    f acts on factor `factor` and is the identity on the others.  A
    linear immersion keeps the factor count and does not lower the acted
    factor; a projection drops it.  Any other shape is refused.  Nothing
    here belongs to a theory, so one descriptor serves K(X), CH(X) tensor
    Q and every twist of them.
    """

    source: Dims
    target: Dims
    factor: int

    def __post_init__(self):
        # Tuples of ints, so that descriptors of one shape compare and
        # hash equal whatever sequences built them.
        source, target, j = _dims(self.source), _dims(self.target), self.factor
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        if not 0 <= j < len(source):
            raise ValueError(f"no factor {j} in {source}")
        rest = source[:j] + source[j + 1 :]
        if self.is_immersion and target[:j] + target[j + 1 :] == rest:
            if target[j] < source[j]:
                raise ValueError("an immersion cannot lower the dimension")
        elif target != rest:
            raise ValueError(f"{source} -> {target} neither immerses nor drops factor {j}")

    @property
    def is_immersion(self) -> bool:
        return len(self.target) == len(self.source)


def point_projection(theory: TheoryModel, n: int) -> Morphism:
    """p: P^n -> point, the one-factor projection; `theory` does not shape it."""
    return factor_projection(theory, (n,), 0)


def factor_projection(theory: TheoryModel, dims, which: int) -> Morphism:
    """Collapse factor `which` of a product; `theory` does not shape the result."""
    dims = _dims(dims)
    return Morphism(dims, dims[:which] + dims[which + 1 :], which)


def linear_immersion(
    theory: TheoryModel, m: int, n: int, *, within=None, factor: int = 0
) -> Morphism:
    """i: P^m into P^n, linearly, on one factor of a product.

    `within` gives the source factor dimensions (default just (m,)); the
    target replaces factor `factor` by n.  `theory` does not shape the
    descriptor, which serves every theory.
    """
    source = _dims(within) if within is not None else (m,)
    f = Morphism(source, source[:factor] + (n,) + source[factor + 1 :], factor)
    if source[factor] != m:
        raise ValueError(f"factor {factor} of {source} is not {m}")
    return f


def relative_tangent(theory: TheoryModel, f: Morphism) -> BundleClass:
    """T_f = T_source - f^*T_target, in the theory's source ring of f."""
    target = space_tangent(theory, f.target)
    pulled = BundleClass(target.rank, pullback(theory, f, target.total_chern))
    return whitney_difference(space_tangent(theory, f.source), pulled)


def pullback(theory: TheoryModel, f: Morphism, a: RingElement) -> RingElement:
    """f^*: substitution on generators, from the target ring to the source."""
    if a.spec != ring_of(theory, f.target):
        raise SpecMismatch(f"{a.spec} is not the target ring of {f}")
    j = f.factor
    if f.is_immersion:
        bound = f.source[j]  # higher powers restrict to zero
        images = [[(e, 1)] if e <= bound else [] for e in range(f.target[j] + 1)]
    else:
        images = [[(0, 1)]]  # the dropped factor comes back with exponent 0
    return _substituted(a, ring_of(theory, f.source), j, images)


def pushforward(theory: TheoryModel, f: Morphism, a: RingElement) -> RingElement:
    """f_*: the theory's direct image, a monomial table on the acted factor.

    * linear immersion P^m in P^n: x^r |-> x^(r + n - m);
    * projections: x^r |-> beta^(top - r) on the collapsed generator;
    * twisted theory: the untwisted pushforward of F_x(T_f)^(-1) * a.  By
      the Euler sequence T_f is -(n - m) copies of O(1) on the acted
      factor for an immersion, and d + 1 copies less a trivial line for
      collapsing P^d, so the correction (1/F)_x(T_f) is a series c in the
      acted generator x alone: F(x)^(n - m), or (1/F)(x)^(d + 1) * F(0),
      each one power F^k (`series._unit_power`) at k = n - m or -(d + 1).
      Multiplying by c and pushing are both maps on x's exponent, so c is
      folded into the table (`_folded`) and `a` is substituted once.  An
      F of order N < top, where x^(N + 1) != 0, raises InsufficientOrder,
      unless n = m.
    """
    if a.spec != ring_of(theory, f.source):
        raise SpecMismatch(f"{a.spec} is not the source ring of {f}")
    j = f.factor
    top = f.source[j]
    if f.is_immersion:
        images = [[(r + f.target[j] - top, 1)] for r in range(top + 1)]
    else:
        weights = (theory.beta ** (top - r) for r in range(top + 1))
        images = [[(0, w)] if w else [] for w in weights]
    scale = 1
    if theory.twist is not None and (not f.is_immersion or f.target[j] > top):
        correction, scale = _euler_correction(theory.twist, f)
        images = _folded(images, correction)
    return _substituted(a, ring_of(theory, f.target), j, images, scale)


def _euler_correction(twist: TruncatedSeries, f: Morphism) -> tuple[list[int], int]:
    """(c, D): the twisted correction c / D of f, at x^0 .. x^top of the acted generator.

    F(x)^(n - m) for an immersion of P^m in P^n, and (1/F)(x)^(d + 1) * F(0)
    for collapsing P^d: one power recurrence (`series._unit_power`) at
    k = n - m or k = -(d + 1), the latter times F(0).  Both are integer
    rows cut after x^top.  Only F through x^top is read, so F must reach it.
    """
    top = f.source[f.factor]
    if twist.order < top:
        n = twist.order
        raise InsufficientOrder(f"series of order {n} is too short: a^0*b^{n + 1} != 0")
    head = twist.coefficients[: top + 1]
    if f.is_immersion:
        return _unit_power(head, f.target[f.factor] - top)[1:]
    _, c, d = _unit_power(head, -(top + 1))
    return [v * head[0].numerator for v in c], d * head[0].denominator


def _folded(images: Images, correction: list[int]) -> Images:
    """The table of x^e |-> sum_g c_g * images[e + g]: c multiplied in before `images`.

    x^(e + g) is zero past the table's top, so g stops there; the terms of
    one row that land on one exponent are summed.
    """
    out = []
    for e in range(len(images)):
        row: dict[int, int] = {}
        for c, image in zip(correction, images[e:]):
            if c:
                for f, w in image:
                    row[f] = row.get(f, 0) + c * w
        out.append([(f, w) for f, w in row.items() if w])
    return out


@lru_cache(maxsize=None)
def _character_images(d: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """(rows, D): row r holds each (f, N) with N / D = [h^f] (1 - e^(-h))^r != 0.

    Row r is the image of t^r on P^d: the r-th power of one series
    truncated at order d, so the table costs d integer products
    (`series._powers`), once per d, and is kept as the nonzero numerators
    over D, the lcm of the rows' denominators.  Row r has no entry with
    f < r.  The universal morphism reads the rows as a matrix, and a
    beta = 1 twisted law as the powers of 1 - e^(-s) in its exp_T.
    """
    image = exp_deficit_series(d).times_t().truncated(d)
    rows = _powers(common_denominator(image.coefficients), d, d)
    denominator = lcm(*(e for _, e in rows))
    images = tuple(
        tuple((f, n * (denominator // e)) for f, n in enumerate(row) if n) for row, e in rows
    )
    return images, denominator


def universal_morphism(a: RingElement) -> RingElement:
    """The ring morphism K(X) -> Chow(X) tensor Q with t_i |-> 1 - e^(-h_i).

    Well defined because (1 - e^(-h))^(n+1) = h^(n+1) * unit = 0 in the
    truncated ring; this is the Chern character on line-bundle classes.
    Being a ring morphism fixed on generators, it is linear in each
    factor's exponent: t_i^r becomes row r of the integer matrix of
    `_character_images`, one factor at a time, with no ring product.
    A weighted or capped ring with the K ring's names is refused.
    """
    dims = a.spec.bounds
    if a.spec != _ring("t", dims, a.spec.scalars):
        raise SpecMismatch(f"{a.spec} is not a K-theory ring")
    spec = ring_of(CHOW_Q, dims)
    image = spec.scalar(a.constant_term) if not dims else a  # a point: scalars only
    for i, d in enumerate(dims):
        image = _substituted(image, spec, i, *_character_images(d))
    return image


@_record
class GKClass:
    """A graded-K class: filtration level and its homogeneous representative."""

    level: int
    representative: RingElement

    def __post_init__(self):
        if self.representative != self.representative.graded_component(self.level):
            raise ValueError("representative must be homogeneous of the stated level")


def gk_leading_morphism(a: RingElement, level: int) -> GKClass:
    """Degree-`level` part of the universal morphism, for a in filtration level.

    Raises FiltrationViolation if the image has nonzero components below
    the requested level, i.e. the class does not actually lie that deep.
    """
    image = universal_morphism(a)
    for degree in range(level):
        if not image.graded_component(degree).is_zero():
            raise FiltrationViolation(
                f"degree-{degree} component of the image is nonzero"
            )
    return GKClass(level, image.graded_component(level))


def diagonal_class(theory: TheoryModel, n: int) -> RingElement:
    """The class of the diagonal of P^n x P^n, solved level by level.

    Level k is pinned by three facts: restricting the first factor to a
    hyperplane must give the level k-1 class pushed into the second
    factor; the table is symmetric; and collapsing the first factor
    yields 1.  The first fixes every row but the last, the normalization
    fixes the last row, and symmetry is verified afterwards.  Any failure
    raises SolverInconsistent, since the axioms guarantee a solution.
    """
    (n,) = _dims(n)  # refuses n < 0 like any factor dimension
    delta = ring_of(theory, (0, 0)).one()
    for k in range(1, n + 1):
        include = linear_immersion(theory, k - 1, k, within=(k - 1, k - 1), factor=1)
        pushed = pushforward(theory, include, delta)
        spec = ring_of(theory, (k, k))
        rows = _substituted(pushed, spec, 0, [[(r, 1)] for r in range(k)])  # pushed, in (k, k)
        # Collapsing the first factor must give 1; the rows below k give all
        # of it but the residue, which row k supplies through p_*(x^k).
        collapse = factor_projection(theory, (k, k), 0)
        one = ring_of(theory, (k,)).one()
        residue = one - pushforward(theory, collapse, rows)
        top = _substituted(one, spec, 0, [[(k, 1)]])  # x^k
        pivot = pushforward(theory, collapse, top).constant_term
        if pivot == 0 or theory.scalars == INTEGERS and pivot not in (1, -1):
            raise SolverInconsistent("point pushforward of the top power is not a unit")
        inverse = 1 / Fraction(pivot)  # row k is x^k * residue / pivot
        last = _substituted(residue, spec, 0, [[(k, inverse.numerator)]], inverse.denominator)
        delta = rows + last
        if _transposed(delta) != delta:  # decoded only to name the first asymmetry
            terms = delta.terms
            r, s = next((r, s) for (r, s), c in terms.items() if terms.get((s, r), 0) != c)
            raise SolverInconsistent(f"diagonal table for n={k} is not symmetric at {(r, s)}")
        # Re-check the two defining constraints through the actual maps.
        if pushforward(theory, collapse, delta) != one:
            raise SolverInconsistent(f"(p_* x 1) normalization fails at n={k}")
        restrict = linear_immersion(theory, k - 1, k, within=(k - 1, k), factor=0)
        if pullback(theory, restrict, delta) != pushed:
            raise SolverInconsistent(f"hyperplane restriction fails at n={k}")
    return delta


@_record
class MetricReport:
    """Diagonal coefficient matrix with its exact determinant."""

    matrix: tuple[tuple[Scalar, ...], ...]
    determinant: Scalar
    unit: bool


def metric_check(theory: TheoryModel, n: int) -> MetricReport:
    """The (n+1)x(n+1) diagonal coefficient matrix and whether it is a unit.

    Over the integers the flag asks for determinant +-1; over the
    rationals, merely nonzero.
    """
    terms = diagonal_class(theory, n).terms
    matrix = tuple(tuple(terms.get((r, s), 0) for s in range(n + 1)) for r in range(n + 1))
    determinant = _determinant([list(row) for row in matrix])
    if theory.scalars == INTEGERS:
        determinant = int(determinant)
        unit = determinant in (1, -1)
    else:
        unit = determinant != 0
    return MetricReport(matrix, determinant, unit)


def _determinant(matrix: list[list[Scalar]]) -> Fraction:
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
