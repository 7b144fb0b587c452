"""Truncated formal power series with exact rational coefficients.

A :class:`TruncatedSeries` stores the coefficients c0..cN of a series
modulo t^(N+1).  All arithmetic is exact (`fractions.Fraction`), so the
identities the rest of the calculator relies on hold on the nose: the
Todd series really is the reciprocal of (1 - e^-t)/t, reversion really
round-trips, and no coefficient is ever rounded.

The kernels run on integer numerators over one common denominator and
build one `Fraction` per output coefficient: a product is one integer
convolution, `_truncated_product`; every power f^k of a unit f, for any
integer k, is one recurrence over a running lcm, `_unit_power`, O(n^2)
whatever k is, and the inverse is its k = -1 case; the logarithm
log(f/f(0)) is the integral of f' times that inverse, one more product
(`_log_ratio`); reversion projects baby-step/giant-step powers of t/f,
read off 1/(f/t) (Brent & Kung 1978), with about 2*sqrt(n) products,
O(n^2.5).

The module also holds `_record`, the immutable-record decorator every
other module's value classes use, because every module imports this one.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from operator import attrgetter, mul

Scalar = int | Fraction


def _record(cls):
    """Make `cls` an immutable record over its annotated fields, in order.

    It behaves as under `dataclasses.dataclass(frozen=True)`, without that
    module's import cost (it loads `inspect`) or its `exec` per class:
    records are built by position, keyword or class-level default, then
    `__post_init__` runs if defined; `==` holds only between records of
    one class with equal field tuples; `hash` is the field tuple's;
    `repr` reads `Name(field=value, ...)`; assignment and deletion raise
    AttributeError.  A method the class writes itself is kept.  Instances
    keep a `__dict__`, so `cached_property` and explicit `__dict__`
    caches work and, being no fields, stay out of ==, hash and repr.
    Annotations are only named, never evaluated.
    """
    names = cls._fields = tuple(cls.__annotations__)
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes one value per field of {names}")
        fields = self.__dict__
        fields.update(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                fields[name] = kwargs.pop(name)
            elif name in defaults:
                fields[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__} takes exactly the fields {names}")
        if kwargs:
            raise TypeError(f"{cls.__name__} takes one value per field of {names}")
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        # A class that writes __eq__ alone gets __hash__ = None, so None
        # counts as not written, as for a dataclass.
        if cls.__dict__.get(method.__name__) is None:
            setattr(cls, method.__name__, method)
    return cls


class ZeroConstantTerm(ValueError):
    """Inversion of a series whose constant term is zero."""


class NonzeroInnerConstant(ValueError):
    """Composition with an inner series whose constant term is not zero."""


class NotReversible(ValueError):
    """Reversion of a series without c0 = 0 and c1 invertible."""


def common_denominator(values: Collection[Scalar]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator D: values[i] = out[i] / D.

    D is the lcm of the denominators, 1 for integers, so products of
    values become integer products with one division left for the end.
    """
    # A pairwise loop: lcm(*generator) is slower on short inputs and left
    # about 0.8 MB more in the tuple free lists over acceptance criterion 10.
    denominator = 1
    for v in values:
        denominator = lcm(denominator, v.denominator)
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def _truncated_product(left: list[int], right: list[int], n: int) -> list[int]:
    """Integer coefficient lists convolved and cut after t^n."""
    out = [0] * (n + 1)
    for i, a in enumerate(left[: n + 1]):
        if a:
            for j, b in enumerate(right[: n + 1 - i], i):
                if b:
                    out[j] += a * b
    return out


def _reduced_product(left, right, n: int) -> tuple[list[int], int]:
    """Two (numerators, denominator) pairs multiplied, cut after t^n, content divided out."""
    out, denominator = _truncated_product(left[0], right[0], n), left[1] * right[1]
    content = gcd(denominator, *out)
    if content > 1:
        out, denominator = [a // content for a in out], denominator // content
    return out, denominator


def _powers(base, n: int, count: int) -> list[tuple[list[int], int]]:
    """base^0 .. base^count as `_reduced_product` rows, each cut after t^n."""
    powers = [([1] + [0] * n, 1)]
    for _ in range(count):
        powers.append(_reduced_product(powers[-1], base, n))
    return powers


def _unit_power(
    coefficients: Sequence[Fraction], k: int
) -> tuple[list[Fraction], list[int], int]:
    """f^k for any integer k, f(0) != 0: its coefficients, and their numerators over one E.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): g = f^k has
    g_0 = f_0^k and n f_0 g_n = sum_(i>=1) ((k + 1) i - n) f_i g_(n-i).  On
    f = q / D and g_j = N_j / E, the sum is
    (k + 1) * sum i q_i N_(n-i) - n * sum q_i N_(n-i) over E: two integer dot
    products, one at k = -1 (the inverse), and one `Fraction` per
    coefficient, O(n^2) in all, whatever k is.  E is the lcm of the reduced
    denominators so far; it grows, and the stored N_j with it, only when
    g_n's denominator does not divide it.
    """
    q, _ = common_denominator(coefficients)
    first = coefficients[0] ** k
    out, numerators, e = [first], [first.numerator], first.denominator
    n, head, tail = len(q) - 1, q[0], q[:0:-1]  # tail = q_n, ..., q_1
    weighted = [i * c for i, c in zip(range(n, 0, -1), tail)]  # n q_n, ..., 1 q_1
    for m in range(1, n + 1):
        s = n - m
        total = -m * sum(map(mul, tail[s:], numerators))
        if k != -1:  # the (k + 1)-weighted sum is 0 for the inverse
            total += (k + 1) * sum(map(mul, weighted[s:], numerators))
        c = Fraction(total, m * head * e)
        d = c.denominator
        if e % d:
            grown = lcm(e, d)
            numerators = [a * (grown // e) for a in numerators]
            e = grown
        numerators.append(c.numerator * (e // d))
        out.append(c)
    return out, numerators, e


def _log_ratio(coefficients: Sequence[Fraction], n: int) -> TruncatedSeries:
    """log(f / f(0)) through t^n, as the integral of f'/f; f(0) must be nonzero.

    With f = q / D on integer numerators and 1/f = N / E (`_unit_power`),
    f'/f is the one truncated product q' * N over D * E, and t^k of the
    logarithm is its t^(k-1) coefficient over k: O(n^2) integer
    multiply-adds and one `Fraction` per coefficient.
    """
    head = coefficients[: n + 1]
    q, d = common_denominator(head)
    _, inverse, e = _unit_power(head, -1)
    derivative = [k * c for k, c in enumerate(q)][1:]
    quotient = _truncated_product(derivative, inverse, n - 1)
    return TruncatedSeries([0] + [Fraction(c, k * d * e) for k, c in enumerate(quotient, 1)])


def _rational(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"series coefficients must be rational, got {value!r}")


class TruncatedSeries:
    """A series c0 + c1*t + ... + cN*t^N, unknown beyond order N.

    Values are immutable; every operation returns a fresh series.  Binary
    operations between series of different orders truncate to the smaller
    order, since nothing is known about the longer series' tail partner.
    """

    __slots__ = ("coefficients",)

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable[Scalar], order: int | None = None):
        coeffs = [_rational(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("series order must be >= 0")
            del coeffs[order + 1 :]
            coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        # Reading beyond the order would invent information; refuse.
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coefficients[n]

    def truncated(self, order: int) -> "TruncatedSeries":
        """The same series cut down to a smaller order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coefficients[: order + 1])

    def times_t(self) -> "TruncatedSeries":
        """t * self.  Knowledge extends one order further: t*f mod t^(N+2)."""
        return TruncatedSeries((Fraction(0),) + self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coefficients)
        return f"TruncatedSeries([{body}])"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coefficients[k] + other.coefficients[k] for k in range(n + 1)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coefficients])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _rational(other)
            return TruncatedSeries([c * a for a in self.coefficients])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # Convolution of integer numerators; one Fraction per coefficient.
        n = min(self.order, other.order)
        left, da = common_denominator(self.coefficients[: n + 1])
        right, db = common_denominator(other.coefficients[: n + 1])
        out, denominator = _truncated_product(left, right, n), da * db
        return TruncatedSeries([Fraction(c, denominator) for c in out])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse: self * result = 1 up to the order.

        The k = -1 power recurrence (`_unit_power`), on integer numerators
        over a running lcm: O(n^2) integer multiply-adds and one `Fraction`
        per coefficient.
        """
        if self.coefficients[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        return TruncatedSeries(_unit_power(self.coefficients, -1)[0])

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), requiring inner to have zero constant term."""
        if inner.coefficients[0] != 0:
            raise NonzeroInnerConstant(
                "inner series of a composition must have zero constant term"
            )
        n = min(self.order, inner.order)
        # Horner evaluation ((cN*g + cN-1)*g + ...) + c0 at order n, on
        # integer numerators: result = r / D, g = t * h / dg, and each step
        # is reduced by the content of r and D.  r * t * h is r * h shifted
        # by one, and its constant term is the next coefficient.
        h, dg = common_denominator(inner.coefficients[1 : n + 1])
        c = self.coefficients[n]
        r, denominator = [c.numerator] + [0] * n, c.denominator
        for k in range(n - 1, -1, -1):
            out = _truncated_product(r, h, n - 1)
            c = self.coefficients[k]
            step = lcm(denominator * dg, c.denominator)
            scale = step // (denominator * dg)
            if scale != 1:
                out = [a * scale for a in out]
            out.insert(0, c.numerator * (step // c.denominator))
            content = gcd(step, *out)
            if content > 1:
                out = [a // content for a in out]
            r, denominator = out, step // content
        return TruncatedSeries([Fraction(a, denominator) for a in r])

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(t)) = g(self(t)) = t.

        Lagrange inversion, [t^k] g = (1/k) * [t^(k-1)] q^k with q = t/self,
        whose numerators are the power recurrence's 1/(self/t)
        (`_unit_power` at k = -1).  With m = isqrt(n) and k = s*m + r,
        0 <= r < m, that coefficient is one dot product of a baby power q^r
        and a giant power q^(s*m): about m + n/m truncated products at
        order n, O(n^2.5) in all.  Every power is integer numerators over
        one denominator, divided by their content, with one Fraction per
        output coefficient.
        """
        if self.coefficients[0] != 0:
            raise NotReversible("reversion needs zero constant term")
        if self.order < 1 or self.coefficients[1] == 0:
            raise NotReversible("reversion needs an invertible linear coefficient")
        n = self.order
        _, q, e = _unit_power(self.coefficients[1:], -1)
        m = isqrt(n)
        baby = _powers((q, e), n - 1, m)
        giant = baby[0]
        out = [Fraction(0)]
        for k in range(1, n + 1):
            r = k % m
            if r == 0:  # q^(s*m) with s = k // m
                giant = _reduced_product(giant, baby[m], n - 1)
            (b, db), (g, dg) = baby[r], giant
            out.append(Fraction(sum(map(mul, b[:k], g[k - 1 :: -1])), k * db * dg))
        return TruncatedSeries(out)


def exponential_series(order: int) -> TruncatedSeries:
    """e^t = sum t^n / n!."""
    return TruncatedSeries([Fraction(1, factorial(n)) for n in range(order + 1)])


def exp_deficit_series(order: int) -> TruncatedSeries:
    """(1 - e^-t)/t = sum (-1)^n t^n / (n+1)!.

    This is the invertible series whose twist of the additive model
    produces the multiplicative one; its reciprocal is the Todd series.
    """
    return TruncatedSeries(
        [Fraction((-1) ** n, factorial(n + 1)) for n in range(order + 1)]
    )


def todd_series(order: int) -> TruncatedSeries:
    """t / (1 - e^-t) = 1 + t/2 + t^2/12 - t^4/720 + ..."""
    return exp_deficit_series(order).inverse()

