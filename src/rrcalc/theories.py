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
exp_T(log_T u + log_T v) once twisted, built per theory one entry at a
time as laws ask for them: an entry F[i, l] reads the rows i and l of
the powers of log_T (row l - 1 for i = 1) and exp_T's head through
t^(i + l), and one series inverse gives the row recurrence of those
powers, so nothing is reverted.  The universal
morphism t_i |-> 1 - e^(-h_i) identifies the multiplicative model with
the additive one over the rationals; its graded leading term is
exposed separately.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, inf, prod
from operator import le, mul

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
)
from .series import (
    TruncatedSeries,
    _record,
    _riordan_rows,
    _unit_power,
    common_denominator,
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
        twisted table is built only over the region of i and l that the
        ring and the arguments let survive.  It is known for i + l <= N,
        the order of its conjugator e(x) = x * twist(x).  Over the integers
        every entry read must be an integer (IntegerDomain otherwise); after
        those reads, InsufficientOrder names the first a^i * b^l != 0 with
        i + l = N + 1.
        """
        if a.spec != b.spec:
            raise SpecMismatch("group law arguments must share a ring")
        known = None if self.twist is None else self.twist.order + 1
        return _eval_bivariate(self._law_table, known, a, b)

    def _law_table(self, columns: list[int]) -> dict[tuple[int, int], Scalar]:
        """The nonzero F[i, l] of the theory's law, at least for l <= columns[i].

        Untwisted: x + y - beta*x*y.  Twisted: the theory's one
        `_TwistedLaw`, which computes the entries of that region it does
        not hold yet, reading the conjugator's head only through the
        largest i + l they reach, and returns all it holds.  A region with
        no entry off row and column 0 (a point ring) builds nothing.
        """
        if self.twist is None:
            return _UNTWISTED_LAWS[self.beta]
        built = self.__dict__.get("_built_law")
        if built is None:
            # Kept in the instance __dict__, which holds no field, so it
            # stays out of the record's ==, hash and repr.
            built = self.__dict__["_built_law"] = _TwistedLaw()
        return built.extended(self, columns)

    def _exponential(self, order: int) -> list[Fraction]:
        """exp_T of the twisted law F(u, v) = exp_T(log_T u + log_T v), through t^order.

        `order` runs from 1 to the conjugator's order N.  The law is
        e(g(u) +_beta g(v)) with e(x) = x * twist(x) and g its reversion,
        and x +_1 y = x + y - xy has exponential 1 - e^(-s); so exp_T = e
        at beta 0 and e(1 - e^(-s)) at beta 1.  The latter is
        sum_r e_r * (1 - e^(-s))^r, the rows of `_character_images(order)`,
        so no series is composed.
        """
        conjugator = [Fraction(0), *self.twist.coefficients[:order]]
        if not self.beta:
            return conjugator
        rows, denominator = _character_images(order)
        e, scale = common_denominator(conjugator)
        exponential = [0] * (order + 1)
        for c, row in zip(e, rows):
            for f, w in row:
                exponential[f] += c * w
        return [Fraction(c, scale * denominator) for c in exponential]

    def group_law(self, order: int) -> RingElement:
        """F(u, v) in scalars[u, v]/(u^(order+1), v^(order+1)): `law` at u and v.

        Its coefficients are the table entries F[i, l] with i, l <= order,
        so a twisted table reads the rows of log_T's powers through order
        and exp_T through 2*order.
        """
        spec = RingSpec(("u", "v"), (order, order), self.scalars)
        return self.law(spec.generator(0), spec.generator(1))


# x + y - beta*x*y as a table: exact at every degree, so never too short.
_UNTWISTED_LAWS = ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1, (1, 1): -1})


class _TwistedLaw:
    """The entries of exp_T(log_T u + log_T v) computed so far, extended on demand.

    log_T is the compositional inverse of exp_T, so the rows of its powers
    D[i][j] = [x^i] log_T^j are a Riordan array with the A-sequence
    a = 1/(exp_T/x) (`series._riordan_rows`), and log_T is never formed.
    With divided powers Q_j = log_T^j / j! and A_k = k! * [s^k] exp_T,
    F[i, l] = sum_(j, m) [u^i] Q_j * A_(j+m) * [v^l] Q_m, a Hankel form on
    rows i and l of D.  F is symmetric, so only the entries i <= l are
    contracted, each written at (i, l) and (l, i).  Row 0 of F is
    F(0, v) = v and column 0 is F(u, 0) = u, known without any row of D.

    What is held has the shape of a request: row i of F is known for
    l <= held[i], and the shape is symmetric like F.  Nothing is built
    before an entry needs it: exp_T, a and the Hankel vector are read
    again only for a larger i + l (the degree); each row of D is built
    once.  Row p's Hankel half, h[m] = sum_j [u^p] Q_j * A_(j+m) times
    degree!/m!, is kept until the Hankel vector is read again; the factor
    takes the 1/m! of Q_m, so an entry (p, l) is one dot product of the
    half with row l of D: O(l) multiply-adds, and one Fraction if it is
    nonzero.  Row 1 reads row l - 1 instead: D[l][m] = sum_k a_k *
    D[l-1][m-1+k] for l >= 1, so its half folded with a, g[n] = sum_k a_k *
    h[n+1-k], dotted with row l - 1 gives the entry, and a row-1 entry one
    column past the rows built needs no new row.
    """

    __slots__ = ("degree", "a", "scale", "hankel", "ratios", "denominator", "halves", "folded",
                 "rows", "held", "table")

    def __init__(self):
        self.degree = 0
        self.rows: list[tuple[list[int], int]] = [([1], 1)]  # D[i] = numerators / d
        self.held: list[float] = [inf]  # row 0 is held whole, every other row at l = 0
        self.table: dict[tuple[int, int], Scalar] = {(1, 0): Fraction(1), (0, 1): Fraction(1)}

    def extended(self, theory: TheoryModel, columns: list[int]) -> dict[tuple[int, int], Scalar]:
        """The table, holding at least every nonzero entry with l <= columns[i].

        A held region is answered by comparing `columns` with `held`.
        """
        held = self.held
        if len(held) < len(columns):
            held += [0] * (len(columns) - len(held))
        if not all(map(le, columns, held)):
            self._grow(theory, columns)
        return self.table

    def _grow(self, theory: TheoryModel, columns: list[int]):
        # The held shape becomes its union with the region and the region's
        # transpose, whose row p ends at `last`, the last row of the region
        # reaching column p; it reaches no row past columns[1].  Each row p
        # whose new end q passes the diagonal is contracted from
        # max(held[p] + 1, p) through q, and q falls as p rises.
        height = len(columns)
        n = max(height, columns[1] + 1)
        shape = self.held + [0] * (n - len(self.held))
        grow, degree, last = [], 0, height - 1
        for p in range(1, n):
            while last and columns[last] < p:
                last -= 1
            q = columns[p] if p < height and columns[p] > last else last
            if q > shape[p]:
                if q >= p:
                    grow.append((p, max(shape[p] + 1, p), q))
                    degree = max(degree, p + q)
                shape[p] = q
        if degree > self.degree:
            exponential = theory._exponential(degree)
            _, self.a, self.scale = _unit_power(exponential[1:], -1)
            self.hankel, denominator = common_denominator(
                [c * factorial(k) for k, c in enumerate(exponential)]
            )
            top = factorial(degree)
            self.ratios = [top // factorial(m) for m in range(degree + 1)]
            self.denominator = denominator * top
            self.halves, self.folded = {}, []  # over the old Hankel vector
            self.degree = degree
        rows, table, halves, a = self.rows, self.table, self.halves, self.a
        # Rows of D through the largest q that a row other than row 1 reads,
        # q - 1 for row 1, and at least row 1 for its half; q falls as p rises.
        top = max(grow[0][2] - (grow[0][0] == 1), grow[1][2] if grow[1:] else 1)
        if top >= len(rows):
            _riordan_rows(rows, a, self.scale, top)
        for p, start, q in grow:
            numerators, d = rows[p]
            f = factorial(p)
            if p not in halves:  # with row p of Q, Q_j * d * p!
                halves[p] = [c * (f // factorial(j)) for j, c in enumerate(numerators)], []
            row, half = halves[p]
            if len(half) <= q:
                hankel, ratios = self.hankel, self.ratios
                for m in range(len(half), q + 1):
                    half.append(sum(map(mul, hankel[m : m + p + 1], row)) * ratios[m])
            vector, shift, scale = half, 0, self.denominator * d * f
            if p == 1:  # g, over one more A-sequence scale, read against row l - 1
                vector, shift, scale = self.folded, 1, scale * self.scale
                for i in range(len(vector), q):
                    vector.append(sum(map(mul, a[: i + 1], reversed(half[1 : i + 2]))))
            for l in range(start, q + 1):
                other, e = rows[l - shift]
                total = sum(map(mul, vector, other))
                if total:
                    table[p, l] = table[l, p] = Fraction(total, scale * e)
        self.held = shape


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

    Row r is the image of t^r on P^d.  Its entries are Stirling numbers of
    the second kind: [h^f] (1 - e^(-h))^r = (-1)^(f - r) * r! * S(f, r) / f!
    (Graham, Knuth & Patashnik, Concrete Mathematics, 6.1), so over
    D = d! the numerator is U(f, r) * d! / f! with U(f, r) =
    (-1)^(f - r) * r! * S(f, r), and S(f, r) = r * S(f-1, r) + S(f-1, r-1)
    gives U(f, r) = r * (U(f-1, r-1) - U(f-1, r)): one integer column per
    f, O(d^2) in all, once per d.  Row r has no entry with f < r.  The
    universal morphism reads the rows as a matrix, and a beta = 1 twisted
    law as the powers of 1 - e^(-s) in its exp_T.
    """
    denominator = factorial(d)
    rows = [[] for _ in range(d + 1)]
    column, weight = [1], denominator  # column[r] = U(f, r), weight = d! / f!
    for f in range(d + 1):
        for r, u in enumerate(column):
            if u:
                rows[r].append((f, u * weight))
        column = [0] + [r * (a - b) for r, (a, b) in enumerate(zip(column, column[1:] + [0]), 1)]
        weight //= f + 1
    return tuple(map(tuple, rows)), denominator


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
    """The class of the diagonal of P^n x P^n: the dual bases of the point pairing.

    Built by `_dual_basis`, then re-checked through the theory's own maps:
    collapsing the first factor yields 1, and restricting the first factor
    to a hyperplane gives the P^(n-1) class pushed into the second factor.
    Any failure raises SolverInconsistent, since the axioms guarantee both.
    """
    (n,) = _dims(n)  # refuses n < 0 like any factor dimension
    delta = _dual_basis(theory, n)
    if pushforward(theory, factor_projection(theory, (n, n), 0), delta) != 1:
        raise SolverInconsistent(f"(p_* x 1) normalization fails at n={n}")
    if n:
        include = linear_immersion(theory, n - 1, n, within=(n - 1, n - 1), factor=1)
        restrict = linear_immersion(theory, n - 1, n, within=(n - 1, n), factor=0)
        pushed = pushforward(theory, include, _dual_basis(theory, n - 1))
        if pullback(theory, restrict, delta) != pushed:
            raise SolverInconsistent(f"hyperplane restriction fails at n={n}")
    return delta


def _dual_basis(theory: TheoryModel, n: int) -> RingElement:
    """sum_r x^r * e_r(y), e_r the basis dual to x^r under (a, b) |-> p_*(ab) on P^n.

    The pairing's matrix G[r, s] = m_(r+s) holds the moments m_k = p_*(x^k),
    zero past n: a triangular Hankel matrix, whose inverse is G^(-1)[r, s] =
    nu_(r+s-n), nu = 1 / (m_n + m_(n-1) z + ... + m_0 z^n) (Fulton,
    Intersection Theory, 16.1).  So the class is sum_(r+s>=n) nu_(r+s-n)
    x^r y^s, from one series inverse: nu = 1 in Chow, 1 - z in K.  The
    moments are one pushforward of sum_k x^k y^k along the first factor,
    read off y^k.  m_n must be a unit: +-1 over the integers, nonzero over
    the rationals.
    """
    spec = ring_of(theory, (n, n))
    tagged = spec.element({(k, k): 1 for k in range(n + 1)})
    moments = pushforward(theory, factor_projection(theory, (n, n), 0), tagged).terms
    pivot = moments.get((n,), 0)
    if pivot == 0 or theory.scalars == INTEGERS and pivot not in (1, -1):
        raise SolverInconsistent("point pushforward of the top power is not a unit")
    nu = TruncatedSeries([moments.get((k,), 0) for k in range(n, -1, -1)]).inverse()
    return spec.element(
        {(r, n + j - r): c for j, c in enumerate(nu.coefficients) if c for r in range(j, n + 1)}
    )


@_record
class MetricReport:
    """Diagonal coefficient matrix with its exact determinant."""

    matrix: tuple[tuple[Scalar, ...], ...]
    determinant: Scalar
    unit: bool


def metric_check(theory: TheoryModel, n: int) -> MetricReport:
    """The (n+1)x(n+1) diagonal coefficient matrix and whether it is a unit.

    The matrix is zero where r + s < n, checked here, so its determinant
    is (-1)^(n(n+1)/2) * prod_r M[r, n - r], with no elimination: an int
    over the integers, a Fraction over the rationals.  Over the integers
    the flag asks for determinant +-1; over the rationals, merely nonzero.
    """
    terms = diagonal_class(theory, n).terms
    if any(r + s < n for r, s in terms):
        raise SolverInconsistent(f"the diagonal class has a term below degree {n}")
    matrix = tuple(tuple(terms.get((r, s), 0) for s in range(n + 1)) for r in range(n + 1))
    sign = Fraction((-1) ** (n * (n + 1) // 2))
    determinant = prod((row[n - r] for r, row in enumerate(matrix)), start=sign)
    if theory.scalars == INTEGERS:
        determinant = int(determinant)
        unit = determinant in (1, -1)
    else:
        unit = determinant != 0
    return MetricReport(matrix, determinant, unit)
