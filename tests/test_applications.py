"""Tests for the Riemann-Roch applications: residuals, chi formulas, counts."""

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
    canonical_degree_hypersurface,
    chi_curve,
    chi_surface,
    euler_characteristic_pn,
    exp_deficit_series,
    hypersurface_grr_identity,
    k_line_class,
    linear_immersion,
    point_projection,
    pushforward,
    ring_of,
    space_tangent,
    structure_sheaf_chern,
    todd_class,
    twist_theory,
    universal_morphism,
    verify_grr,
    zeuthen_segre,
)
from rrcalc import acceptance
from rrcalc.acceptance import run_criterion
from rrcalc.applications import _space_todd, _space_todd_inverse
from rrcalc.rings import RingElement


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
    spec = ring_of(CHOW, (2,)).rationalized()
    h = spec.generator(0)
    assert direct == h - Fraction(1, 2) * h**2


def test_grr_residual_vanishes_for_twisted_points():
    for n in range(4):
        f = point_projection(K_THEORY, n)
        for d in range(-n - 1, n + 2):
            assert verify_grr(n, f, k_line_class(n, d)).is_zero()


def test_cached_classes_are_unchanged_by_the_grr_grid():
    # The cached Todd classes and twist corrections are shared elements;
    # running criterion 3 twice must leave their terms as they were.
    tw = twist_theory(CHOW_Q, exp_deficit_series(12))
    f = linear_immersion(tw, 1, 3)
    line = ring_of(tw, (1,)).generator(0)
    pushforward(tw, f, line)
    correction = tw._corrections[f]
    todds = {dims: _space_todd(dims) for dims in ((3,), (5,), (6,))}
    before = [dict(correction.terms)] + [dict(t.terms) for t in todds.values()]
    for _ in range(2):
        assert run_criterion(3).passed
        pushforward(tw, f, line)
    assert tw._corrections[f] is correction
    for dims, todd in todds.items():
        assert _space_todd(dims) is todd
        assert todd == todd_class(space_tangent(CHOW_Q, dims))
    assert [dict(correction.terms)] + [dict(t.terms) for t in todds.values()] == before


def test_grr_grid_inverts_each_target_todd_class_once(monkeypatch):
    _space_todd_inverse.cache_clear()
    inverted, targets, residuals = [], set(), [[], []]
    invert, verify = RingElement.inverse, acceptance.verify_grr

    def recording_inverse(self):
        inverted.append(self)
        return invert(self)

    monkeypatch.setattr(RingElement, "inverse", recording_inverse)
    for run in residuals:

        def recording_verify(n, f, a):
            targets.add(f.target)
            run.append(verify(n, f, a))
            return run[-1]

        monkeypatch.setattr(acceptance, "verify_grr", recording_verify)
        assert run_criterion(3).passed
        if run is residuals[0]:
            cached = {dims: dict(_space_todd_inverse(dims).terms) for dims in targets}
    # Both runs together invert each target's Todd class at most once.
    todds = [e for e in inverted if any(e is _space_todd(dims) for dims in targets)]
    assert len(todds) == len({id(e) for e in todds}) <= len(targets)
    assert residuals[0] == residuals[1]
    assert {dims: dict(_space_todd_inverse(dims).terms) for dims in targets} == cached
    for dims in targets:
        assert _space_todd_inverse(dims) * _space_todd(dims) == 1


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
