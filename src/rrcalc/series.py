"""Truncated formal power series with exact rational coefficients.

A :class:`TruncatedSeries` stores the coefficients c0..cN of a series
modulo t^(N+1).  All arithmetic is exact (`fractions.Fraction`), so the
identities the rest of the calculator relies on hold on the nose: the
Todd series really is the reciprocal of (1 - e^-t)/t, reversion really
round-trips, and no coefficient is ever rounded.

The kernels run on integer numerators over one common denominator and
build one `Fraction` per output coefficient: a product is one integer
convolution, `_truncated_product`; the inverse keeps its coefficients
over a running lcm, so each step is one integer dot product (O(n^2) in
all); reversion projects baby-step/giant-step powers of t/f (Brent & Kung
1978) with about 2*sqrt(n) products, O(n^2.5).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from operator import mul
from typing import Collection, Iterable, Sequence, Union

Scalar = Union[int, Fraction]


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


def _inverse(coefficients: Sequence[Fraction]) -> tuple[list[Fraction], list[int], int]:
    """The coefficients of 1/f, and their integer numerators over one denominator E.

    With f = q / D on integer numerators q, and the coefficients so far
    b_j = N_j / E, the next one is b_k = -(sum_(i>=1) q_i N_(k-i)) / (q_0 E):
    one integer dot product and one `Fraction`.  E is the lcm of the
    reduced denominators so far; it grows, and the stored N_j with it,
    only when b_k's denominator does not divide it.
    """
    q, _ = common_denominator(coefficients)
    first = 1 / coefficients[0]
    out, numerators, e = [first], [first.numerator], first.denominator
    n, head, tail = len(q) - 1, q[0], q[:0:-1]  # tail = q_n, ..., q_1
    for k in range(1, n + 1):
        c = Fraction(-sum(map(mul, tail[n - k :], numerators)), head * e)
        d = c.denominator
        if e % d:
            grown = lcm(e, d)
            numerators = [a * (grown // e) for a in numerators]
            e = grown
        numerators.append(c.numerator * (e // d))
        out.append(c)
    return out, numerators, e


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

        On integer numerators over a running lcm (`_inverse`): O(n^2)
        integer multiply-adds and one `Fraction` per coefficient.
        """
        if self.coefficients[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        return TruncatedSeries(_inverse(self.coefficients)[0])

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
        read from the numerators of `_inverse(self/t)`.  With m = isqrt(n)
        and k = s*m + r, 0 <= r < m, that coefficient is one dot product
        of a baby power q^r and a giant power q^(s*m): about m + n/m
        truncated products at order n, O(n^2.5) in all.  Every power is
        integer numerators over one denominator, divided by their content,
        with one Fraction per output coefficient.
        """
        if self.coefficients[0] != 0:
            raise NotReversible("reversion needs zero constant term")
        if self.order < 1 or self.coefficients[1] == 0:
            raise NotReversible("reversion needs an invertible linear coefficient")
        n = self.order
        _, q, e = _inverse(self.coefficients[1:])
        m = isqrt(n)
        unit = ([1] + [0] * (n - 1), 1)
        baby = [unit, (q, e)]
        while len(baby) <= m:  # q^0 .. q^m
            baby.append(_reduced_product(baby[-1], baby[1], n - 1))
        giant = unit
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


def log_one_plus_series(order: int) -> TruncatedSeries:
    """log(1 + t) = sum (-1)^(n+1) t^n / n."""
    coeffs = [Fraction(0)]
    coeffs.extend(Fraction((-1) ** (n + 1), n) for n in range(1, order + 1))
    return TruncatedSeries(coeffs)

