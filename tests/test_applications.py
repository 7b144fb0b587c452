"""Tests for the Riemann-Roch applications: residuals, chi formulas, counts."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from rrcalc import (
    CHOW,
    CHOW_Q,
    K_THEORY,
    SIGN_NOTE,
    AbstractCurve,
    AbstractSurface,
    CurveBundle,
    FormSingularityData,
    NonIntegerChi,
    SpecMismatch,
    SurfaceBundle,
    TheoryModel,
    canonical_degree_hypersurface,
    chi_curve,
    chi_surface,
    euler_characteristic_pn,
    factor_projection,
    hypersurface_grr_identity,
    k_line_class,
    linear_immersion,
    point_projection,
    pushforward,
    relative_tangent,
    ring_of,
    space_tangent,
    structure_sheaf_chern,
    todd_class,
    universal_morphism,
    verify_grr,
    zeuthen_segre,
)
from rrcalc import acceptance, applications
from rrcalc.applications import _todd_twist
from rrcalc.rings import INTEGERS, RATIONALS


# ---------------------------------------------------------------- the residual


def test_grr_residual_vanishes_for_a_line_in_the_plane():
    f = linear_immersion(K_THEORY, 1, 2)
    a = ring_of(K_THEORY, (1,)).one()
    residual = verify_grr(1, f, a)
    assert residual.is_zero()


def test_grr_direct_side_for_a_line_in_the_plane():
    # ch(i_! O_line) = 1 - [O(-1)] |-> 1 - e^(-h) = h - h^2/2
    f = linear_immersion(K_THEORY, 1, 2)
    a = ring_of(K_THEORY, (1,)).one()
    direct = universal_morphism(pushforward(K_THEORY, f, a))
    spec = ring_of(CHOW_Q, (2,))
    h = spec.generator(0)
    assert direct == h - Fraction(1, 2) * h**2


def test_grr_residual_vanishes_for_twisted_points():
    for n in range(4):
        f = point_projection(K_THEORY, n)
        for d in range(-n - 1, n + 2):
            assert verify_grr(n, f, k_line_class(n, d)).is_zero()


def _grr_residual_by_todd_classes(n, f, a, k_pushforward=pushforward):
    """ch(f_! a) - Td(T_X)^(-1) * f_*(Td(T_Y) * ch(a)), from the two Todd classes.

    The Todd-sandwich formula, assembled by hand: an independent route to
    the residual that `verify_grr` reads off the Todd-twisted theory.
    `k_pushforward` stands in for the K-theory direct image.
    """
    assert sum(f.source) == n
    direct = universal_morphism(k_pushforward(TheoryModel(1, a.spec.scalars), f, a))
    source_todd = todd_class(space_tangent(CHOW_Q, f.source))
    target_todd = todd_class(space_tangent(CHOW_Q, f.target))
    pushed = pushforward(CHOW_Q, f, source_todd * universal_morphism(a))
    return direct - target_todd.inverse() * pushed


def _k_pushforward_plus_one(theory, f, a):
    """The direct image, with 1 added on the K-theory side only."""
    pushed = pushforward(theory, f, a)
    return pushed + 1 if theory.beta == 1 else pushed


def _seeded_grr_cases(count, seed):
    """(morphism, K-class) pairs: every morphism shape, Z and Q classes in turn."""
    rng = random.Random(seed)
    for index in range(count):
        f = acceptance._random_morphism(rng, K_THEORY)
        k_theory = TheoryModel(1, (INTEGERS, RATIONALS)[index % 2])
        yield f, acceptance._random_element(rng, ring_of(k_theory, f.source))


def _shape(f):
    if f.is_immersion:
        return "immersion in a product" if len(f.source) > 1 else "immersion"
    return "point projection" if not f.target else "factor projection"


def test_grr_residual_matches_the_todd_class_route_on_seeded_cases():
    seen = Counter()
    for f, a in _seeded_grr_cases(400, 1010):
        n = sum(f.source)
        residual = verify_grr(n, f, a)
        assert residual == _grr_residual_by_todd_classes(n, f, a)
        assert residual.is_zero()
        seen[_shape(f), a.spec.scalars] += 1
    shapes = ("point projection", "factor projection", "immersion", "immersion in a product")
    assert set(seen) == {(shape, s) for shape in shapes for s in (INTEGERS, RATIONALS)}
    assert min(seen.values()) >= 10


def test_a_shifted_k_pushforward_leaves_residual_one_on_both_routes(monkeypatch):
    monkeypatch.setattr(applications, "pushforward", _k_pushforward_plus_one)
    for f, a in _seeded_grr_cases(60, 1011):
        n = sum(f.source)
        assert verify_grr(n, f, a) == 1
        assert _grr_residual_by_todd_classes(n, f, a, _k_pushforward_plus_one) == 1


def _morphism_shapes():
    for width in (1, 2, 3):
        for dims in itertools.product(range(3), repeat=width):
            for j, d in enumerate(dims):
                yield factor_projection(K_THEORY, dims, j)
                if width < 3:
                    for codim in range(3):
                        yield linear_immersion(K_THEORY, d, d + codim, within=dims, factor=j)


def test_each_twisted_correction_is_the_relative_todd_class():
    # The Euler-sequence correction pushes forward like Td(T_f) built from
    # the relative tangent bundle by the multiplicative extension.
    for f in _morphism_shapes():
        tw = _todd_twist(sum(f.source))
        todd = todd_class(relative_tangent(CHOW_Q, f))
        assert pushforward(tw, f, ring_of(tw, f.source).one()) == pushforward(CHOW_Q, f, todd)


def test_grr_checks_the_stated_dimension():
    f = point_projection(K_THEORY, 2)
    a = ring_of(K_THEORY, (2,)).one()
    with pytest.raises(SpecMismatch):
        verify_grr(3, f, a)


# ---------------------------------------------------------------- chi on P^n


def test_euler_characteristic_spot_values():
    assert euler_characteristic_pn(2, 1) == 3
    assert euler_characteristic_pn(1, -1) == 0
    assert euler_characteristic_pn(3, -4) == -1
    assert euler_characteristic_pn(0, 5) == 1
    for n in range(5):
        assert euler_characteristic_pn(n, 0) == 1


def test_euler_characteristic_matches_binomials():
    for n in range(1, 5):
        for d in range(0, 6):
            assert euler_characteristic_pn(n, d) == comb(n + d, n)


def test_euler_characteristic_duality():
    # Serre duality on P^n: chi(O(d)) = (-1)^n chi(O(-d - n - 1))
    for n in range(1, 5):
        for d in range(-3, 4):
            lhs = euler_characteristic_pn(n, d)
            rhs = (-1) ** n * euler_characteristic_pn(n, -d - n - 1)
            assert lhs == rhs


# ---------------------------------------------------------------- abstract chi


def test_chi_curve_values():
    assert chi_curve(AbstractCurve(0), CurveBundle(1, 0)) == 1
    assert chi_curve(AbstractCurve(2), CurveBundle(1, 3)) == 2
    assert chi_curve(AbstractCurve(1), CurveBundle(3, 5)) == 5
    # rank 0 sheaves still make sense as formal classes
    assert chi_curve(AbstractCurve(4), CurveBundle(0, 7)) == 7


def test_chi_curve_matches_projective_line():
    for d in range(-4, 5):
        expected = euler_characteristic_pn(1, d)
        assert chi_curve(AbstractCurve(0), CurveBundle(1, d)) == expected


def test_chi_curve_rejects_non_integer_output():
    bad = CurveBundle(1, Fraction(1, 2))
    with pytest.raises(NonIntegerChi):
        chi_curve(AbstractCurve(0), bad)


def test_genus_must_be_non_negative():
    with pytest.raises(ValueError):
        AbstractCurve(-1)


def test_chi_surface_noether_case():
    plane = AbstractSurface(9, 3)
    assert chi_surface(plane, SurfaceBundle(1, 0, 0, 0)) == 1


def test_chi_surface_matches_projective_plane():
    plane = AbstractSurface(9, 3)
    for d in range(-3, 5):
        twist = SurfaceBundle(1, -3 * d, d * d, 0)
        assert chi_surface(plane, twist) == euler_characteristic_pn(2, d)


def test_chi_surface_tangent_bundle():
    # chi(P^2, T) = 8: rank 2, c1 = 3h, c2 = 3h^2
    plane = AbstractSurface(9, 3)
    tangent = SurfaceBundle(2, -9, 9, 3)
    assert chi_surface(plane, tangent) == 8


def test_chi_surface_rejects_non_integer_output():
    fake = AbstractSurface(1, 0)
    with pytest.raises(NonIntegerChi):
        chi_surface(fake, SurfaceBundle(1, 0, 0, 0))


# ---------------------------------------------------------------- hypersurfaces


def test_canonical_degree_values():
    assert canonical_degree_hypersurface(2, 1) == -2
    assert canonical_degree_hypersurface(2, 3) == 0
    assert canonical_degree_hypersurface(2, 4) == 4
    assert canonical_degree_hypersurface(3, 2) == -4


def test_canonical_degree_guards():
    with pytest.raises(ValueError):
        canonical_degree_hypersurface(1, 2)
    with pytest.raises(ValueError):
        canonical_degree_hypersurface(2, 0)


def test_hypersurface_identity_holds():
    for n in range(2, 5):
        for q in range(1, 6):
            assert hypersurface_grr_identity(n, q).is_zero()


def test_plane_curve_genus_from_canonical_degree():
    # 2g - 2 = deg K for q = 4: g = (4-1)(4-2)/2 = 3
    assert canonical_degree_hypersurface(2, 4) == 2 * 3 - 2


# ---------------------------------------------------------------- sheaf Chern classes


def test_structure_sheaf_chern_frozen_values():
    assert structure_sheaf_chern(1) == [1]
    assert structure_sheaf_chern(2) == [0, -1]
    assert structure_sheaf_chern(3) == [0, 0, 2]
    assert structure_sheaf_chern(4) == [0, 0, 0, -6]


def test_structure_sheaf_chern_closed_form():
    from math import factorial

    for d in range(1, 6):
        values = structure_sheaf_chern(d)
        assert values[:-1] == [0] * (d - 1)
        assert values[-1] == (-1) ** (d - 1) * factorial(d - 1)


def test_structure_sheaf_chern_guard():
    with pytest.raises(ValueError):
        structure_sheaf_chern(0)


def test_sign_note_states_the_correct_exponent():
    assert "(-1)^(d-1)" in SIGN_NOTE
    assert "c_1(O_Y) = +Y" in SIGN_NOTE


# ---------------------------------------------------------------- surface counts


def test_zeuthen_segre_values():
    # a holomorphic form with smooth zero divisor contributes only lengths
    assert zeuthen_segre(FormSingularityData(0, 0, 5)) == 5
    assert zeuthen_segre(FormSingularityData(6, 4, 1)) == 3


def test_zeuthen_segre_matches_plane_tangent_count():
    # on P^2 the invariant equals deg c_2(T) = 3
    from rrcalc import tangent_class

    plane_tangent = tangent_class(CHOW, 2)
    c2 = plane_tangent.chern_class(2)
    spec = ring_of(CHOW, (2,))
    assert c2 == 3 * spec.generator(0) ** 2
    assert zeuthen_segre(FormSingularityData(6, 4, 1)) == 3


def test_singularity_length_must_be_non_negative():
    with pytest.raises(ValueError):
        FormSingularityData(0, 0, -1)
