"""Chern-class calculus on virtual bundles.

A bundle is represented by its rank and total Chern class only; Chern
roots are never materialized.  Everything either breaks the total class
into its graded pieces (the individual Chern classes, elementary
symmetric in the roots) or converts between those and the power sums via
Newton's identities, which is all a genus ever needs:

    additive extension        F_+(E) = F(a_1) + ... + F(a_r)
    multiplicative extension  F_x(E) = F(a_1) * ... * F(a_r)

The Chern character is the additive extension of e^t, the Todd class the
multiplicative extension of t/(1 - e^-t).  Expansions in abstract Chern
symbols are the same two extensions applied to the universal bundle, whose
Chern classes are free symbols c_i of weight i.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm

from .rings import (
    RATIONALS,
    InsufficientOrder,
    IntegerDomain,
    NonUnitConstant,
    RingElement,
    RingSpec,
    SpecMismatch,
    _convolve,
    _element,
    _reduced,
    _tables,
    _weighted_sum,
    eval_series,
)
from .series import TruncatedSeries, _log_ratio, _record, exponential_series, todd_series


class RankMismatch(ValueError):
    """A Chern character whose degree-0 part disagrees with the stated rank."""


@_record
class BundleClass:
    """A virtual bundle: integer rank plus total Chern class.

    The total Chern class must have constant term exactly 1; negative
    ranks describe formal differences of bundles.
    """

    rank: int
    total_chern: RingElement

    def __post_init__(self):
        if self.total_chern.constant_term != 1:
            raise ValueError("total Chern class must have constant term 1")

    @property
    def spec(self) -> RingSpec:
        return self.total_chern.spec

    def chern_class(self, n: int) -> RingElement:
        """c_n, the degree-n graded piece of the total Chern class."""
        return self.total_chern.graded_component(n)

    def chern_classes(self) -> list[RingElement]:
        """[c_1, c_2, ...] up to the ring's total nilpotency degree."""
        return self.total_chern.graded_components()[1:]

    @cached_property
    def _power_sums(self) -> list[RingElement]:
        # p_1 .. p_T by Newton's identities, once per bundle for both
        # extensions.  cached_property writes the instance __dict__ directly,
        # past the record's refusal of assignment, and a __dict__ entry is
        # no field, so it stays out of ==, hash and repr; the list and its
        # elements are shared, so never mutated.
        if self.spec.total_degree == 0:
            return []  # a point ring has no positive-degree classes
        return newton_e_to_p(self.chern_classes(), self.spec.total_degree)


def whitney_sum(e: BundleClass, f: BundleClass) -> BundleClass:
    """Direct sum: ranks add, total Chern classes multiply."""
    return BundleClass(e.rank + f.rank, e.total_chern * f.total_chern)


def whitney_difference(e: BundleClass, f: BundleClass) -> BundleClass:
    """Virtual difference e - f; the total Chern class divides out."""
    return BundleClass(e.rank - f.rank, e.total_chern * f.total_chern.inverse())


def _one_ring(elements: Sequence[RingElement], up_to: int) -> RingSpec:
    # The ring of elements[0].  Newton's recursions first mix element n
    # with the earlier ones at step n, so one of another ring is refused
    # if the recursion reaches it.
    spec = elements[0].spec
    for a in elements[1:up_to]:
        if a.spec != spec:
            raise SpecMismatch(f"cannot mix {a.spec} with {spec}")
    return spec


def newton_e_to_p(elementary: Sequence[RingElement], up_to: int) -> list[RingElement]:
    """Power sums p_1..p_m from elementary symmetric functions e_1..e_k.

    Newton's identity p_n = e1*p_(n-1) - e2*p_(n-2) + ... + (-1)^(n-1)*n*e_n,
    with e_i = 0 beyond the supplied list.  Division-free, so it works
    over either scalar domain.

    With e_i = E_i / d over one common denominator d, p_n is kept as
    integer numerators over d^n: term i of the identity is
    (-1)^(i-1) d^(i-1) E_i * P_(n-i), so every step is integer products.
    """
    if not elementary:
        raise ValueError("need at least e_1 (possibly zero) to fix the ring")
    spec = _one_ring(elementary, up_to)
    e, d = _tables(elementary[: max(up_to, 1)])
    # (-1)^(i-1) d^(i-1) E_i, the right factor of every term with e_i.
    e = [[(k, (-d) ** i * v) for k, v in table] for i, table in enumerate(e)]
    (one,), _ = _tables([spec.one()])
    p: list[dict[int, int]] = []
    for n in range(1, up_to + 1):
        sums: dict[int, int] = {}
        if n <= len(e):
            _convolve(spec, [(k, n * v) for k, v in one], e[n - 1], sums)
        for i in range(1, min(n, len(e) + 1)):
            _convolve(spec, p[n - i - 1].items(), e[i - 1], sums)
        p.append({k: v for k, v in sums.items() if v})
    return [_element(spec, table, d**n) for n, table in enumerate(p, start=1)]


def newton_p_to_e(power_sums: Sequence[RingElement], up_to: int) -> list[RingElement]:
    """Elementary symmetric functions from power sums; needs rationals.

    Inverts the same identity: n*e_n = sum_{i=1..n} (-1)^(i-1) e_(n-i) p_i,
    so each step divides by n.

    With p_i = P_i / d over one common denominator d, each e_n is a table
    of integer numerators over its own denominator, reduced by their
    common content after every step.
    """
    if not power_sums:
        raise ValueError("need at least p_1 (possibly zero) to fix the ring")
    spec = power_sums[0].spec
    if spec.scalars != RATIONALS:
        raise IntegerDomain("recovering e_n from power sums divides by n")
    _one_ring(power_sums, up_to)
    p, d = _tables(power_sums[: max(up_to, 1)])
    p = [[(k, (-1) ** i * v) for k, v in table] for i, table in enumerate(p)]
    (one,), _ = _tables([spec.one()])
    e: list[tuple[dict[int, int], int]] = [(dict(one), 1)]
    for n in range(1, up_to + 1):
        terms = [(e[n - i], p[i - 1]) for i in range(1, min(n, len(p)) + 1)]
        common = lcm(*(denominator for (_, denominator), _ in terms))
        sums: dict[int, int] = {}
        for (table, denominator), right in terms:
            scale = common // denominator
            _convolve(spec, [(k, scale * v) for k, v in table.items()], right, sums)
        e.append(_reduced(sums, n * common * d))
    return [_element(spec, table, denominator) for table, denominator in e[1:]]


def additive_extension(series: TruncatedSeries, e: BundleClass) -> RingElement:
    """F(a_1) + ... + F(a_r) = F[0]*rank + sum F[n]*p_n.

    One integer sum over the power sums' common denominator and the lcm
    of the coefficients' denominators.
    """
    spec = e.spec
    tables, d = _tables([spec.scalar(series[0] * e.rank), *e._power_sums])
    summands = [(1, tables[0], d)]
    for n, p_n in enumerate(tables[1:], start=1):
        if not p_n:
            continue
        if n > series.order:
            raise InsufficientOrder(
                f"series of order {series.order} is too short: p_{n} != 0"
            )
        c = spec.coerce(series[n])
        if c:
            summands.append((c, p_n, d))
    return _weighted_sum(spec, summands)


def multiplicative_extension(series: TruncatedSeries, e: BundleClass) -> RingElement:
    """F(a_1) * ... * F(a_r), a unit element.

    Computed log-free in the roots but not in the coefficients: with
    F0 = F(0), the product is F0^rank * exp(sum log(F/F0)(a_i)), the
    exponential of the additive extension of log(F/F0), and both are
    exact truncated series.  The logarithm is read on integer numerators
    as the integral of F'/F (`series._log_ratio`), cut at the ring's
    total degree.  Negative ranks invert: F_x(-E) = F_x(E)^(-1).
    """
    c0 = series[0]
    if c0 == 0:
        raise NonUnitConstant("multiplicative extension needs F(0) invertible")
    if e.spec.scalars != RATIONALS:
        raise IntegerDomain("multiplicative extensions work over rational scalars")
    # Power sums stop at the ring's total degree, so the log is never read
    # beyond it; a shorter series stays whole, and additive_extension
    # raises InsufficientOrder if a nonzero power sum lies beyond it.
    order = min(series.order, e.spec.total_degree)
    exponent = additive_extension(_log_ratio(series.coefficients, order), e)
    value = eval_series(exponential_series(e.spec.total_degree), exponent)
    return value * (Fraction(c0) ** e.rank)


def chern_character(e: BundleClass) -> RingElement:
    """rank + p_1 + p_2/2! + p_3/3! + ..., the additive extension of e^t."""
    return additive_extension(exponential_series(e.spec.total_degree), e)


def todd_class(e: BundleClass) -> RingElement:
    """Multiplicative extension of t/(1 - e^-t)."""
    return multiplicative_extension(todd_series(e.spec.total_degree), e)


def _symbol_bundle(rank: int, symbols: Sequence[str], order: int) -> BundleClass:
    # The universal bundle: total Chern class 1 + c_1 + ... + c_m, with c_i
    # of weight i, in a ring truncated above weight `order`.  A symbol of
    # weight above the order is zero there, so it gets no generator, but a
    # repeated name is refused at every order.
    for index, name in enumerate(symbols):
        if name in symbols[:index]:
            raise ValueError(f"the symbol {name!r} is named twice")
    symbols = symbols[:order]
    weights = tuple(range(1, len(symbols) + 1))
    bounds = tuple(order // w for w in weights)
    spec = RingSpec(tuple(symbols), bounds, RATIONALS, weights, order)
    return BundleClass(rank, sum(spec.generators(), spec.one()))


def character_rows(rank: int, symbols: Sequence[str], order: int) -> list[RingElement]:
    """ch_0 .. ch_order in abstract Chern symbols; entry n is the weight-n row.

    The graded pieces of chern_character of the symbol bundle: row 0 is
    the rank, row n is p_n/n! with p_n the Newton power sum of the
    symbols, so c_1, (c_1^2 - 2c_2)/2, ... with exact coefficients.
    """
    return chern_character(_symbol_bundle(rank, symbols, order)).graded_components()


def todd_rows(symbols: Sequence[str], order: int) -> list[RingElement]:
    """Td_0 .. Td_order in abstract Chern symbols, weight-graded.

    The graded pieces of todd_class of the symbol bundle.  Rank never
    enters: the Todd series has constant term 1.
    """
    return todd_class(_symbol_bundle(0, symbols, order)).graded_components()


def chern_from_character(character: RingElement, rank: int) -> BundleClass:
    """Invert the Chern character: p_n = n! * ch_n, then Newton back to e_n."""
    pieces = character.graded_components()
    if pieces[0] != rank:
        raise RankMismatch(f"degree-0 part {pieces[0]} does not equal rank {rank}")
    power_sums = [piece * factorial(n) for n, piece in enumerate(pieces[1:], start=1)]
    total = character.spec.one()
    if power_sums:
        for e_n in newton_p_to_e(power_sums, len(power_sums)):
            total = total + e_n
    return BundleClass(rank, total)
