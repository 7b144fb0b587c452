"""Riemann-Roch identities and the closed-form consequences.

K-theory is the universal theory for the law x + y - xy, and the
additive model twisted by F = (1 - e^-t)/t carries that same law, so
the universal morphism phi: t |-> 1 - e^(-h) commutes with direct
images into the twisted theory.  The central check is the residual

    phi(f_!(a)) - f^tw_*(phi(a))

for a map f: Y -> X carrying a K-theory class a; the twisted
pushforward multiplies by Td(T_f) = (1/F)_x(T_f), which the Euler
sequence makes a power of the Todd series or of its reciprocal at one
generator, before pushing, so the residual vanishes exactly when the
Grothendieck-Riemann-Roch square commutes for that pair.  The rest of
the module specializes the same identity to numbers: Euler
characteristics on projective spaces, chi for abstract curves and
surfaces given by intersection data, adjunction for hypersurfaces,
Chern classes of structure sheaves, and the Zeuthen-Segre count for
surfaces fibered by a pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import chern_from_character, todd_class
from .rings import RingElement, SpecMismatch, eval_series
from .series import exp_deficit_series
from .theories import (
    CHOW,
    CHOW_Q,
    K_THEORY,
    Morphism,
    TheoryModel,
    k_line_class,
    point_projection,
    pushforward,
    ring_of,
    space_tangent,
    twist_theory,
    universal_morphism,
)


class GRRMismatch(ValueError):
    """Two routes to the same Euler characteristic returned different values."""


class NonIntegerChi(ValueError):
    """A chi formula produced a non-integer, so the input data is inconsistent."""


@dataclass(frozen=True)
class AbstractCurve:
    """A curve known only through its genus; deg K = 2g - 2."""

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be >= 0")


@dataclass(frozen=True)
class CurveBundle:
    rank: int
    deg_c1: int


@dataclass(frozen=True)
class AbstractSurface:
    """A surface known through deg K^2 and the topological Euler number."""

    K2: int
    chi_top: int


@dataclass(frozen=True)
class SurfaceBundle:
    rank: int
    c1_dot_K: int
    c1_sq: int
    deg_c2: int


@dataclass(frozen=True)
class FormSingularityData:
    """Divisor and singularity data of a meromorphic 1-form on a surface."""

    D_dot_K: int
    D_sq: int
    total_length: int

    def __post_init__(self):
        if self.total_length < 0:
            raise ValueError("total singularity length must be >= 0")


def _todd_twist(n: int) -> TheoryModel:
    """CHOW_Q twisted by (1 - e^-t)/t at order n, enough for any T_f on an n-dim source."""
    return twist_theory(CHOW_Q, exp_deficit_series(n))


def verify_grr(n: int, f: Morphism, a: RingElement) -> RingElement:
    """The Riemann-Roch residual of (f, a), in the rational additive ring.

    `n` is the dimension of the source, as a guard against mixing up
    descriptors; `a` is a K-theory class on the source.  The residual
    is phi(f_!(a)) - f^tw_*(phi(a)), with phi the universal morphism and
    f^tw_* the pushforward of the Todd-twisted additive theory, and a
    zero return value verifies the identity for this pair.
    """
    if sum(f.source) != n:
        raise SpecMismatch(f"source of {f} has dimension {sum(f.source)}, not {n}")
    direct = universal_morphism(pushforward(TheoryModel(1, a.spec.scalars), f, a))
    return direct - pushforward(_todd_twist(n), f, universal_morphism(a))


def euler_characteristic_pn(n: int, d: int) -> int:
    """chi(P^n, O(d)) computed two independent ways.

    The K-theory point pushforward gives it directly; the rational
    route pushes ch(O(d)) to the point in the Todd-twisted additive
    theory, which integrates Td(T) * ch(O(d)).  The two must agree, or
    the models themselves are broken.
    """
    bundle = k_line_class(n, d)
    p = point_projection(K_THEORY, n)
    direct = pushforward(K_THEORY, p, bundle).constant_term
    graded = pushforward(_todd_twist(n), p, universal_morphism(bundle)).constant_term
    if graded != direct:
        raise GRRMismatch(
            f"chi(P^{n}, O({d})): K pushforward gives {direct}, "
            f"the Todd integral gives {graded}"
        )
    return int(direct)


def _integer(value: Fraction, context: str) -> int:
    value = Fraction(value)
    if value.denominator != 1:
        raise NonIntegerChi(f"{context} = {value} is not an integer")
    return value.numerator


def chi_curve(c: AbstractCurve, e: CurveBundle) -> int:
    """deg c_1(E) - (r/2) deg K; equals d + r(1 - g)."""
    value = Fraction(e.deg_c1) - Fraction(e.rank, 2) * (2 * c.genus - 2)
    return _integer(value, "chi of the curve bundle")


def chi_surface(s: AbstractSurface, e: SurfaceBundle) -> int:
    """r(K^2 + chi_top)/12 - K.c_1/2 + c_1^2/2 - deg c_2.

    The rank-1 trivial case is the Noether value (K^2 + chi_top)/12, so
    the integrality assertion is a divisibility test on the input data.
    """
    value = (
        Fraction(e.rank * (s.K2 + s.chi_top), 12)
        - Fraction(e.c1_dot_K, 2)
        + Fraction(e.c1_sq, 2)
        - e.deg_c2
    )
    return _integer(value, "chi of the surface bundle")


def canonical_degree_hypersurface(n: int, q: int) -> int:
    """Degree of the pushed-forward canonical class of a degree-q hypersurface.

    Expands Y(K + Y) with Y = q*h and K = -(n+1)*h in the additive ring
    of the ambient space and reads off the h^2 coefficient, q(q-n-1).
    For n = 2 this is deg K of a plane curve, q(q-3).
    """
    if n < 2:
        raise ValueError("the ambient space must have dimension >= 2")
    if q < 1:
        raise ValueError("the hypersurface degree must be >= 1")
    spec = ring_of(CHOW, n)
    h = spec.generator(0)
    hypersurface = q * h
    canonical = -(n + 1) * h
    return int(
        (hypersurface * (canonical + hypersurface)).coefficient_of((2,))
    )


def hypersurface_grr_identity(n: int, q: int) -> RingElement:
    """Difference of the two expansions of the direct image of a hypersurface.

    (1 - e^(-Y)) * Td(T) is the structure sheaf's character times the
    ambient Todd class; through degree two it must match Y - Y(K+Y)/2,
    the pushed-forward Todd class of the hypersurface itself.  Returns
    (first expansion truncated to degree 2) minus the second; zero means
    the adjunction bookkeeping is consistent.
    """
    if n < 2:
        raise ValueError("the ambient space must have dimension >= 2")
    spec = ring_of(CHOW_Q, n)
    h = spec.generator(0)
    hypersurface = q * h
    character = eval_series(exp_deficit_series(n).times_t(), hypersurface)
    expansion = character * todd_class(space_tangent(CHOW_Q, (n,)))
    truncated = sum(expansion.graded_components()[:3], spec.zero())
    canonical = -(n + 1) * h
    direct = hypersurface - Fraction(1, 2) * (
        hypersurface * (canonical + hypersurface)
    )
    return truncated - direct


def structure_sheaf_chern(d: int) -> list[int]:
    """c_1 .. c_d of a codimension-d cycle class, as integer multiples of Y.

    Works in the additive ring of a space of dimension 2d with Y = h^d,
    feeding ch = Y (rank 0) through the Newton inversion.  Everything
    below degree d vanishes and c_d = (-1)^(d-1) (d-1)! Y.
    """
    if d < 1:
        raise ValueError("codimension must be >= 1")
    spec = ring_of(CHOW_Q, 2 * d)
    cycle = spec.generator(0) ** d
    total = chern_from_character(cycle, 0).total_chern
    multiples = []
    for i, piece in enumerate(total.graded_components()[1 : d + 1], start=1):
        coefficient = Fraction(piece.coefficient_of((i,)))
        if coefficient.denominator != 1:
            raise NonIntegerChi(f"c_{i} = {coefficient} Y is not integral")
        multiples.append(coefficient.numerator)
    return multiples


SIGN_NOTE = (
    "c_d(O_Y) = (-1)^(d-1) (d-1)! Y by Newton's identities; a printed form "
    "with (-1)^d fails already at d = 1, where c_1(O_Y) = +Y."
)


def zeuthen_segre(data: FormSingularityData) -> int:
    """deg c_2(T_S) from a 1-form's divisor and singularities: D.K - D^2 + lengths."""
    return data.D_dot_K - data.D_sq + data.total_length
