"""Polynomial rings with nilpotent generators: A[x1..xk]/(x_i^(d_i+1)).

Chow rings and K-theory rings of products of projective spaces have
exactly this shape, with one degree-1 generator per factor; multiplication
drops any monomial whose exponent overflows its bound, which is the whole
content of the quotient.  Scalars are exact integers or exact rationals,
fixed once per ring.  Generators may carry weights, and a ring may cap
the weighted degree: abstract Chern symbols c_i have weight i, truncated
above an order.

An element stores one packed table, monomial key -> nonzero integer
numerator (see `RingSpec._packing`), over one positive denominator, in
the unique reduced form: the denominator is the lcm of the reduced
coefficient denominators, so 1 over Z.  Arithmetic, series evaluation,
equality and hashing work on these tables; the exponent-vector table
`RingElement.terms` is decoded only when read.  `RingSpec.element`
(`RingElement(spec, terms)`) validates outside input; every element the
library builds goes through the trusted `_element`.  Other modules reach
the kernel through `_tables`, `_convolve`, `_reduced`, `_weighted_sum`,
`_element`, `_substituted`, `_transposed` and `_eval_bivariate` without
knowing the packing.  `_eval_bivariate` is the one evaluation kernel: the
group law calls it, `eval_series` is its one-row case, and it is the one
place in this module that raises InsufficientOrder.  Weighted degrees of
packed keys are read through `_weights`, straight off the keys' slots (a
capped ring's weight slot holds the degree itself), with no table kept.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import le, mul
from types import MappingProxyType

from .series import Scalar, TruncatedSeries, _record, common_denominator

INTEGERS = "integers"
RATIONALS = "rationals"

Exponents = tuple[int, ...]


class SpecMismatch(ValueError):
    """Mixing elements of different rings in one operation."""


class NonUnitConstant(ValueError):
    """Inverting an element whose constant term is not a unit."""


class NonNilpotentArgument(ValueError):
    """Series evaluation at an element with nonzero constant term."""


class OutOfBounds(ValueError):
    """An exponent vector that does not fit the ring's bounds."""


class IntegerDomain(ValueError):
    """A computation that needs rational scalars ran over the integers."""


class InsufficientOrder(ValueError):
    """A series argument was truncated too early for the ring at hand."""


@_record
class RingSpec:
    """Shape of a ring A[x1..xk]/(x_i^(d_i+1)) with A = Z or Q.

    `bounds[i]` is the largest surviving exponent of variable i; k = 0
    describes the coefficient ring itself.  Variable i has weight
    `weights[i]` (default 1), and when `cap` is set every monomial of
    weighted degree above it is zero as well.
    """

    variables: tuple[str, ...]
    bounds: tuple[int, ...]
    scalars: str = INTEGERS
    weights: tuple[int, ...] | None = None
    cap: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))
        weights = (1,) * len(self.variables) if self.weights is None else self.weights
        object.__setattr__(self, "weights", tuple(int(w) for w in weights))
        if not len(self.variables) == len(self.bounds) == len(self.weights):
            raise ValueError("one bound and one weight per variable required")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        if any(b < 0 for b in self.bounds):
            raise ValueError("bounds must be >= 0")
        if any(w < 1 for w in self.weights) or (self.cap is not None and self.cap < 0):
            raise ValueError("weights must be >= 1 and the cap >= 0")
        if self.scalars not in (INTEGERS, RATIONALS):
            raise ValueError(f"unknown scalar domain {self.scalars!r}")

    def __str__(self) -> str:
        ring = "Z" if self.scalars == INTEGERS else "Q"
        if not self.variables:
            return ring
        rels = ", ".join(f"{v}^{d + 1}" for v, d in zip(self.variables, self.bounds))
        if self.cap is not None or set(self.weights) != {1}:
            rels += f"; weights {self.weights}, cap {self.cap}"
        return f"{ring}[{', '.join(self.variables)}]/({rels})"

    @cached_property
    def total_degree(self) -> int:
        """The cap if set, else the weighted degree of the top monomial."""
        return self.weight(self.bounds) if self.cap is None else self.cap

    def weight(self, exponents: Exponents) -> int:
        """Weighted degree sum w_i * e_i of an exponent vector."""
        return sum(map(mul, self.weights, exponents))

    def fits(self, exponents: Exponents) -> bool:
        """Whether a monomial survives: within its bounds and under the cap."""
        within = min(exponents, default=0) >= 0 and all(map(le, exponents, self.bounds))
        return within and (self.cap is None or self.weight(exponents) <= self.cap)

    def coerce(self, value: Scalar) -> Scalar:
        """Bring a scalar into this ring's coefficient domain."""
        if self.scalars == RATIONALS:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
        else:
            if isinstance(value, int):
                return value
            if isinstance(value, Fraction):
                if value.denominator == 1:
                    return value.numerator
                raise IntegerDomain(
                    f"{value} is not an integer; widen the ring to rational scalars"
                )
        raise TypeError(f"cannot use {value!r} as a scalar")

    def check_exponents(self, exponents: Exponents) -> Exponents:
        exponents = tuple(map(int, exponents))
        if len(exponents) != len(self.variables):
            raise OutOfBounds(
                f"expected {len(self.variables)} exponents, got {len(exponents)}"
            )
        if not self.fits(exponents):
            raise OutOfBounds(f"exponent vector {exponents} does not fit {self}")
        return exponents

    def element(self, terms: Mapping[Exponents, Scalar]) -> "RingElement":
        """Build an element from an exponent-vector -> coefficient table, validated."""
        return RingElement(self, terms)

    def zero(self) -> "RingElement":
        return _element(self, {})

    def one(self) -> "RingElement":
        return self.scalar(1)

    def scalar(self, value: Scalar) -> "RingElement":
        value = self.coerce(value)
        return _element(self, {self._packing[3]: value.numerator}, value.denominator)

    def generator(self, index: int) -> "RingElement":
        """The index-th variable as an element; zero when it cannot survive."""
        if not 0 <= index < len(self.variables):
            raise IndexError(f"no variable {index} in {self}")
        exps = tuple(int(i == index) for i in range(len(self.variables)))
        multipliers, _, _, offset, _ = self._packing
        return _element(self, {multipliers[index] + offset: 1} if self.fits(exps) else {})

    def generators(self) -> list["RingElement"]:
        return [self.generator(i) for i in range(len(self.variables))]

    def monomials(self) -> Iterable[Exponents]:
        """All surviving exponent vectors, in graded-lexicographic order."""
        everything = itertools.product(*(range(d + 1) for d in self.bounds))
        return _graded(filter(self.fits, everything))

    @cached_property
    def _packing(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, int]:
        """(multipliers, shifts, masks, offset, guard) for monomials packed in one int.

        Variable i gets a slot of k + 1 bits, k = bounds[i].bit_length(),
        whose top bit is a guard.  Two exponents <= d sum to at most
        2^(k+1) - 2, so packed keys add slot by slot without carries; and
        adding the offset 2^k - 1 - d to a slot sets its guard bit exactly
        when the sum exceeds d.  A capped ring has one more slot on top
        holding the weighted degree, bounded by the cap the same way, so
        the one guard test also drops a monomial above the cap.  The key
        of e is sum e_i * multipliers[i]: 2^shifts[i], plus weights[i] in
        the weight slot.  cached_property writes the instance __dict__
        directly, past the record's refusal of assignment, and a
        `__dict__` entry is no field, so it stays out of ==, hash and
        repr.
        """
        shifts, masks, offset, guard, shift = [], [], 0, 0, 0
        for d in self.bounds if self.cap is None else (*self.bounds, self.cap):
            k = d.bit_length()
            shifts.append(shift)
            masks.append((1 << k) - 1)
            offset |= ((1 << k) - 1 - d) << shift
            guard |= 1 << (shift + k)
            shift += k + 1
        if self.cap is not None:  # the weight slot is added to, never unpacked
            top = shifts.pop()
            masks.pop()
            multipliers = [(1 << s) + (w << top) for s, w in zip(shifts, self.weights)]
        else:
            multipliers = [1 << s for s in shifts]
        return tuple(multipliers), tuple(shifts), tuple(masks), offset, guard


def _graded(monomials: Iterable[Exponents]) -> list[Exponents]:
    # Graded order first; within a degree, larger leading exponents first,
    # so that e.g. x1^2 renders before x1*x2 before x2^2.  Weights never
    # enter.  Two sorts in C: descending tuples, then stably by degree.
    return sorted(sorted(monomials, reverse=True), key=sum)


class RingElement:
    """A sparse polynomial in a :class:`RingSpec`, immutable.

    Stored as a packed table (key -> nonzero integer numerator) over one
    positive denominator, in the reduced form the module docstring gives,
    so that equal elements have equal tables.
    """

    __slots__ = ("spec", "_table", "_denominator")

    spec: RingSpec
    _table: dict[int, int]
    _denominator: int

    def __init__(self, spec: RingSpec, terms: Mapping[Exponents, Scalar]):
        """Validate outside input: vectors within the bounds, scalars of the domain."""
        multipliers, _, _, offset, _ = spec._packing
        coefficients: dict[int, Scalar] = {}
        for exponents, coefficient in terms.items():
            key = sum(map(mul, spec.check_exponents(exponents), multipliers)) + offset
            coefficient = spec.coerce(coefficient)
            if coefficient != 0:
                coefficients[key] = coefficient
        # Reduced coefficients over the lcm of their denominators have content 1.
        numerators, denominator = common_denominator(coefficients.values())
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_table", dict(zip(coefficients, numerators)))
        object.__setattr__(self, "_denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _require_same_spec(self, other: "RingElement"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatch(f"cannot mix {self.spec} with {other.spec}")

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        """Exponent vector -> coefficient, decoded from the stored table on each read."""
        vectors, numerators = _exponents(self.spec, self._table), self._table.values()
        if self.spec.scalars == RATIONALS:
            d = self._denominator
            return MappingProxyType({e: Fraction(n, d) for e, n in zip(vectors, numerators)})
        return MappingProxyType(dict(zip(vectors, numerators)))

    @property
    def constant_term(self) -> Scalar:
        return _scalar(self, self._table.get(self.spec._packing[3], 0))

    def is_zero(self) -> bool:
        return not self._table

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            # Compare without coercing: 1/2 is simply unequal to an integer class.
            if not other:
                return not self._table
            return self._denominator == other.denominator and self._table == {
                self.spec._packing[3]: other.numerator
            }
        if not isinstance(other, RingElement):
            return NotImplemented
        return (
            (self.spec is other.spec or self.spec == other.spec)
            and self._denominator == other._denominator
            and self._table == other._table
        )

    def __hash__(self):
        if self._table.keys() <= {self.spec._packing[3]}:  # a scalar, so hash like it
            return hash(self.constant_term)
        return hash((self.spec, self._denominator, frozenset(self._table.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.scalar(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_spec(other)
        common = lcm(self._denominator, other._denominator)
        scale = common // self._denominator
        out = dict(self._table) if scale == 1 else {k: v * scale for k, v in self._table.items()}
        scale = common // other._denominator
        get = out.get
        for key, v in other._table.items():
            out[key] = get(key, 0) + v * scale
        return _element(self.spec, out, common)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.spec, {k: -v for k, v in self._table.items()}, self._denominator)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.scalar(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.spec.scalar(other) - self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.spec.coerce(other)
            table = {k: v * c.numerator for k, v in self._table.items()} if c else {}
            return _element(self.spec, table, self._denominator * c.denominator)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_spec(other)
        if not (self._table and other._table):
            # Frequent in Newton's recursions; skips the convolution set-up.
            return self.spec.zero()
        sums = _convolve(self.spec, self._table.items(), list(other._table.items()))
        return _element(self.spec, sums, self._denominator * other._denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "RingElement":
        """Multiplicative inverse via the finite geometric series.

        The constant term must be a unit: +-1 over the integers, nonzero
        over the rationals.  The nilpotent part then contributes only
        finitely many correction terms.
        """
        c0 = self.constant_term
        if self.spec.scalars == INTEGERS:
            if c0 not in (1, -1):
                raise NonUnitConstant(f"constant term {c0} is not a unit over Z")
            lead = c0  # 1/c0 = c0 for +-1
        else:
            if c0 == 0:
                raise NonUnitConstant("constant term 0 is not invertible")
            lead = 1 / c0
        # self * lead = 1 - nil with nil nilpotent, so the inverse is the
        # geometric series 1 + nil + nil^2 + ...; it stops by nil^(T + 1) = 0
        # at the total degree T, since every generator has weight >= 1.
        nil = self.spec.one() - self * lead
        geometric = TruncatedSeries([1] * (self.spec.total_degree + 1))
        return eval_series(geometric, nil) * lead

    def graded_component(self, degree: int) -> "RingElement":
        """Sum of the terms of weighted degree `degree`."""
        weights = _weights(self.spec, self._table)
        table = {k: v for (k, v), w in zip(self._table.items(), weights) if w == degree}
        return _element(self.spec, table, self._denominator)

    def graded_components(self) -> list["RingElement"]:
        """Every graded piece, degrees 0..total_degree, in one pass."""
        pieces: list[dict[int, int]] = [{} for _ in range(self.spec.total_degree + 1)]
        for (k, v), w in zip(self._table.items(), _weights(self.spec, self._table)):
            pieces[w][k] = v
        return [_element(self.spec, piece, self._denominator) for piece in pieces]

    def coefficient_of(self, exponents: Exponents) -> Scalar:
        """The coefficient of one monomial; 0 if absent."""
        multipliers, _, _, offset, _ = self.spec._packing
        key = sum(map(mul, self.spec.check_exponents(exponents), multipliers)) + offset
        return _scalar(self, self._table.get(key, 0))

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for exponents in _graded(terms):
            coefficient = terms[exponents]
            body = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.spec.variables, exponents)
                if e
            )
            if not body:
                text = str(abs(coefficient))
            elif abs(coefficient) == 1:
                text = body
            else:
                text = f"{abs(coefficient)}*{body}"
            if not parts:
                parts.append(f"-{text}" if coefficient < 0 else text)
            else:
                parts.append(f"- {text}" if coefficient < 0 else f"+ {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} in {self.spec}>"


def _element(spec: RingSpec, table: dict[int, int], denominator: int = 1) -> RingElement:
    """The trusted constructor: a packed table over `denominator`, stored reduced.

    The table is taken over, not copied.  Nothing is checked: every key
    must come from `spec`'s packing, and over Z the reduced denominator
    must be 1.
    """
    table, denominator = _reduced(table, denominator)
    element = object.__new__(RingElement)
    object.__setattr__(element, "spec", spec)
    object.__setattr__(element, "_table", table)
    object.__setattr__(element, "_denominator", denominator)
    return element


def _scalar(element: RingElement, numerator: int) -> Scalar:
    # One stored numerator as a coefficient of the element's domain.
    if element.spec.scalars == RATIONALS and numerator:
        return Fraction(numerator, element._denominator)
    return numerator


def _exponents(spec: RingSpec, keys: Iterable[int]) -> list[Exponents]:
    # Exponent vectors of packed keys (the inverse of the key sum in
    # `RingElement.__init__`), read one slot at a time for all keys; the
    # weight slot of a capped ring lies above every slot read.
    _, shifts, masks, offset, _ = spec._packing
    keys = [key - offset for key in keys]
    if not shifts:
        return [()] * len(keys)
    return list(zip(*[[(key >> s) & m for key in keys] for s, m in zip(shifts, masks)]))


def _weights(spec: RingSpec, keys: Iterable[int]) -> list[int]:
    # Weighted degrees of packed keys, read off the keys one slot at a time
    # for all keys.  A capped ring's weight slot is the top one, below its
    # guard bit, and holds the weighted degree itself.
    _, shifts, masks, offset, guard = spec._packing
    keys = [key - offset for key in keys]
    if spec.cap is not None:
        top = guard.bit_length() - 1 - spec.cap.bit_length()
        return [key >> top for key in keys]
    degrees = [0] * len(keys)
    for s, m, w in zip(shifts, masks, spec.weights):
        degrees = [d + (key >> s & m) * w for d, key in zip(degrees, keys)]
    return degrees


def _transposed(a: RingElement) -> RingElement:
    """a with its two variables swapped, on packed keys: none is decoded.

    The ring must have exactly two variables with one bound and no cap,
    so the two slots have one width and one offset and swap as blocks.
    """
    width = a.spec._packing[1][1]
    low = (1 << width) - 1
    table = {key >> width | (key & low) << width: v for key, v in a._table.items()}
    return _element(a.spec, table, a._denominator)


def _substituted(
    a: RingElement,
    spec: RingSpec,
    j: int,
    images: Sequence[Sequence[tuple[int, int]]],
    scale: int = 1,
) -> RingElement:
    """Trusted: `a` with each x_j^e replaced by sum w * x_j^f over (f, w) in images[e].

    The result lies in `spec`, over a's denominator times `scale`.  `spec`
    keeps every other variable of a.spec with its bound, and neither ring
    has a cap.  Variable j may change its bound, or be missing on one side:
    a ring without it reads e = 0, a target without it needs f = 0.  The
    bits below and above variable j's slot move as two blocks, so no key
    is decoded.
    """
    _, shifts, masks, offset, _ = a.spec._packing
    _, target_shifts, target_masks, target_offset, _ = spec._packing
    has, target_has = len(shifts) >= len(target_shifts), len(target_shifts) >= len(shifts)
    start = (shifts if has else target_shifts)[j]  # slots below j agree
    mask = masks[j] if has else 0
    end = start + (mask.bit_length() + 1 if has else 0)
    target_end = start + (target_masks[j].bit_length() + 1 if target_has else 0)
    below = (1 << start) - 1
    out: dict[int, int] = {}
    get = out.get
    for key, n in a._table.items():
        key -= offset
        rest = (key & below) + (key >> end << target_end) + target_offset
        for f, w in images[key >> start & mask]:
            k = rest + (f << start)
            out[k] = get(k, 0) + n * w
    return _element(spec, out, a._denominator * scale)


def _tables(elements: Sequence[RingElement]) -> tuple[list[list[tuple[int, int]]], int]:
    """The stored tables of elements of one ring, over their common denominator D.

    Element i is the sum of n / D * x^e over the pairs (key of e, n) in
    out[i].  The one packing convention: a key is the exponent vector
    packed by `RingSpec._packing` plus its offset, in every table that
    `_convolve`, `_reduced`, `_weighted_sum` and `_element` read or return.
    """
    common = 1
    for a in elements:
        common = lcm(common, a._denominator)
    out = []
    for a in elements:
        scale = common // a._denominator
        out.append([(k, v * scale) for k, v in a._table.items()])
    return out, common


def _convolve(
    spec: RingSpec,
    left: Iterable[tuple[int, int]],
    right: list[tuple[int, int]],
    sums: dict[int, int] | None = None,
) -> dict[int, int]:
    """Numerators of a packed product, key -> sum of na * nb; 0 where terms cancel.

    Each left key drops the offset, so a sum carries it once and the
    operands commute; a set guard bit marks an exponent beyond its bound
    or a weight beyond the cap, zero by nilpotency, and the pair is
    skipped.  Given `sums`, the products are added into it.
    """
    _, _, _, offset, guard = spec._packing
    if sums is None:
        sums = {}
    get = sums.get
    for ka, na in left:
        ka -= offset
        for kb, nb in right:
            key = ka + kb
            if not key & guard:
                sums[key] = get(key, 0) + na * nb
    return sums


def _reduced(table: dict[int, int], denominator: int) -> tuple[dict[int, int], int]:
    """A packed table over `denominator` divided by their common content, zeros dropped.

    A table already in that form is returned as it is.
    """
    content = gcd(denominator, *table.values())
    if content == 1 and all(table.values()):
        return table, denominator
    return {k: v // content for k, v in table.items() if v}, denominator // content


def _weighted_sum(
    spec: RingSpec, summands: Sequence[tuple[Scalar, Iterable[tuple[int, int]], int]]
) -> RingElement:
    """sum c * table / d over the (c, packed table, d) triples, on integers over one lcm."""
    common = 1
    for c, _, d in summands:
        common = lcm(common, c.denominator * d)
    total: dict[int, int] = {}
    get = total.get
    for c, table, d in summands:
        scale = c.numerator * (common // (c.denominator * d))
        for key, v in table:
            total[key] = get(key, 0) + scale * v
    return _element(spec, total, common)


def eval_series(series: TruncatedSeries, argument: RingElement) -> RingElement:
    """sum series[n] * argument^n, a finite sum by nilpotency.

    The one-row case of `_eval_bivariate`: F[0, n] = series[n], exact
    through the series' order, at a = 0 and b = argument.  So the
    argument must have zero constant term, series[n] is read only where
    argument^n != 0, and InsufficientOrder is raised when
    argument^(order + 1) != 0, since the result would be wrong.
    """
    coefficients = series.coefficients
    return _eval_bivariate(
        lambda degree: {(0, n): c for n, c in enumerate(coefficients[: degree + 1]) if c},
        series.order,
        argument.spec.zero(),
        argument,
    )


def _eval_bivariate(
    coefficients: Callable[[int], Mapping[tuple[int, int], Scalar]],
    known: int | None,
    a: RingElement,
    b: RingElement,
) -> RingElement:
    """sum F[i, l] * a^i * b^l, for nilpotent a and b of one ring.

    a^i * b^l has weighted degree >= i*da + l*db, da and db the lowest
    degrees of a and b, so it is zero above the ring's top degree.  Hence
    `coefficients(degree)`, F's nonzero entries for i + l <= degree at
    least, is asked with the largest i + l that can survive, and an entry
    is read only when it passes this test and b^l != 0.  Over Z an entry
    read must be an integer (IntegerDomain) unless a^i * b^l = 0, when it
    is dropped; a^i is built only for such an entry.  The table is
    exact through i + l <= `known` (None: at every degree); asked past
    it, the kernel reads the entries up to `known` and then raises
    InsufficientOrder at the first a^i * b^l != 0 with i + l = known + 1.
    When all of those vanish, so does every a^i * b^l past them.

    Horner in a: R_i = R_(i+1) * a + G_i(b), G_i(b) = sum_l F[i, l] * b^l
    summed over the packed powers of b.  R_(i+1) ends up times a^(i+1),
    so its terms above degree top - (i+1)*da are dropped before the
    product, which keeps the products as short as the powers of a.
    Each power of b is a packed table over its own denominator, reduced
    by their common content after every step.
    """
    spec = a.spec
    unit = spec._packing[3]  # the key of the monomial 1
    if unit in a._table or unit in b._table:
        raise NonNilpotentArgument(
            "series can only be evaluated at elements with zero constant term"
        )
    top = spec.total_degree
    # The least weighted degrees of a's and b's monomials; above the top for 0.
    da, db = (min(_weights(spec, x._table), default=top + 1) for x in (a, b))
    degree = top // min(da, db)
    past = known is not None and degree > known
    entries = [
        (i, l, c)
        for (i, l), c in coefficients(known if past else degree).items()
        if i * da + l * db <= top
    ]
    powers = [({unit: 1}, 1)]  # b^0 .. b^l while nonzero, up to the largest l needed
    needed = known + 1 if past else max((l for _, l, _ in entries), default=0)
    if needed and b._table:
        powers.append((b._table, b._denominator))  # b^1 is b's own reduced table
        base, step = list(b._table.items()), b._denominator
        for _ in range(needed - 1):
            last, denominator = powers[-1]
            power = _reduced(_convolve(spec, last.items(), base), denominator * step)
            if not power[0]:
                break
            powers.append(power)
    factor = list(a._table.items())
    rows: dict[int, list[tuple[int, Scalar]]] = {}  # the entries read: b^l != 0
    a_powers = [{unit: 1}]  # a^i, unreduced, built only for an entry Z refuses
    for i, l, c in entries:
        if l < len(powers):
            try:
                c = spec.coerce(c)
            except IntegerDomain:  # harmless unless a^i * b^l != 0
                while len(a_powers) <= i:
                    a_powers.append(_convolve(spec, a_powers[-1].items(), factor))
                if any(_convolve(spec, a_powers[i].items(), list(powers[l][0].items())).values()):
                    raise
                continue
            rows.setdefault(i, []).append((l, c))
    if past:
        n, power = known + 1, {unit: 1}  # a^i, unreduced: only its zeros matter
        for i in range(n + 1):
            if n - i < len(powers) and any(
                _convolve(spec, powers[n - i][0].items(), list(power.items())).values()
            ):
                raise InsufficientOrder(
                    f"series of order {known} is too short: a^{i}*b^{n - i} != 0"
                )
            power = _convolve(spec, power.items(), factor)
    result = spec.zero()
    for i in range(max(rows, default=0), -1, -1):
        summands = [(c, powers[l][0].items(), powers[l][1]) for l, c in rows.get(i, ())]
        terms = result._table
        if terms:  # R = 0 on the first step, so it adds no product
            bound = top - (i + 1) * da
            kept = [item for item, w in zip(terms.items(), _weights(spec, terms)) if w <= bound]
            if kept:
                product = _convolve(spec, kept, factor)
                summands.append((1, product.items(), result._denominator * a._denominator))
        result = _weighted_sum(spec, summands)
    return result
