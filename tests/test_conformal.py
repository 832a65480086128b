"""Tests for axisymmetric conformal geometry on the three-sphere."""

import json
import math

import numpy as np
import pytest

from widthlab import conformal as cf

from oracles import cosine_series_jacobi_q, mc_tilted_sphere_area

PI = math.pi
ROUND_VOLUME = 2.0 * PI**2
EQUATOR_AREA = 4.0 * PI


def bump(n, amplitude=0.3):
    return cf.AxisymProfile.from_function(lambda t: 1.0 + amplitude * np.cos(t), n)


def double_bump(n, amplitude=0.3):
    return cf.AxisymProfile.from_function(lambda t: 1.0 + amplitude * np.cos(2 * t), n)


class TestAxisymProfile:
    def test_grid_layout(self):
        g = cf.AxisymProfile(np.ones(9))
        assert g.n == 9
        assert g.thetas[0] == 0.0
        assert g.thetas[-1] == pytest.approx(np.pi)
        assert g.spacing == pytest.approx(np.pi / 8.0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            cf.AxisymProfile(np.ones(4))

    def test_non_finite_rejected(self):
        values = np.ones(6)
        values[3] = np.nan
        with pytest.raises(ValueError):
            cf.AxisymProfile(values)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            cf.AxisymProfile(np.ones((9, 2)))

    def test_positive_required(self):
        with pytest.raises(cf.ProfileError):
            cf.AxisymProfile(np.linspace(-0.1, 1.0, 101))

    def test_pole_regularity_rejects_conical_profile(self):
        with pytest.raises(cf.ProfileError):
            cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.sin(t), 101)

    def test_smooth_profiles_accepted(self):
        bump(101)
        double_bump(101)
        cf.AxisymProfile.round_profile(101, radius_factor=2.5)

    def test_interp_matches_nodes(self):
        p = bump(101)
        assert p.interp_u(p.thetas[37]) == pytest.approx(p.u[37], rel=1e-15)

    def test_json_round_trip(self, tmp_path):
        p = bump(101)
        path = tmp_path / "profile.json"
        cf.save_profile(p, str(path), description="one-bump test profile")
        loaded = cf.load_profile(str(path))
        assert loaded.n == p.n
        np.testing.assert_allclose(loaded.u, p.u, rtol=0, atol=0)
        assert json.loads(path.read_text())["description"] == "one-bump test profile"

    def test_load_rejects_inconsistent_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 7, "u": [1.0, 1.0, 1.0, 1.0, 1.0]}))
        with pytest.raises(cf.ProfileError):
            cf.load_profile(str(path))


class TestScalarCurvatureField:
    def test_round_is_exact(self):
        field = cf.scalar_curvature_field(cf.AxisymProfile.round_profile(201))
        assert np.max(np.abs(field - 6.0)) < 1e-8

    def test_constant_scaling(self):
        field = cf.scalar_curvature_field(
            cf.AxisymProfile.round_profile(201, radius_factor=2.0)
        )
        assert np.max(np.abs(field - 6.0 / 16.0)) < 1e-8

    def test_bump_against_analytic_solution(self):
        # u = 1 + 0.3cos(theta) has lap(u) = -0.9cos(theta) exactly, giving
        # R = (6 + 9cos(theta))/u^5.  The ghost-node pole rows are as accurate
        # as the interior (measured sup error 3.7e-4).
        p = bump(401)
        exact = (6.0 + 9.0 * np.cos(p.thetas)) / (1.0 + 0.3 * np.cos(p.thetas)) ** 5
        err = np.abs(cf.scalar_curvature_field(p) - exact)
        assert np.max(err) < 5e-4

    def test_second_order_convergence(self):
        sups = []
        for n in (401, 801, 1601):
            p = bump(n)
            exact = (6.0 + 9.0 * np.cos(p.thetas)) / (
                1.0 + 0.3 * np.cos(p.thetas)
            ) ** 5
            sups.append(np.max(np.abs(cf.scalar_curvature_field(p) - exact)))
        assert sups[0] / sups[1] > 3.5
        assert sups[1] / sups[2] > 3.5


class TestVolume:
    def test_round(self):
        assert abs(cf.volume(cf.AxisymProfile.round_profile(201)) - ROUND_VOLUME) < 1e-8

    def test_constant_scaling(self):
        p = cf.AxisymProfile.round_profile(201, radius_factor=2.0)
        assert abs(cf.volume(p) - ROUND_VOLUME * 2.0**6) < 1e-8

    def test_refinement_agreement(self):
        coarse = cf.volume(bump(401))
        fine = cf.volume(bump(3201))
        assert abs(coarse - fine) / fine < 1e-6

    def test_refinement_envelope(self):
        # The smooth even integrand makes the composite rule superconvergent,
        # so the measured errors sit at roundoff; the envelope asserts the
        # declared minimum order without penalizing the faster reality.
        ref = cf.volume(bump(6401))
        errs = [abs(cf.volume(bump(n)) - ref) for n in (401, 801, 1601)]
        assert errs[1] <= errs[0] / 3.5 + 1e-13
        assert errs[2] <= errs[1] / 3.5 + 1e-13


class TestSphereArea:
    def test_round_equator(self):
        p = cf.AxisymProfile.round_profile(101)
        assert cf.sphere_area(p, PI / 2) == pytest.approx(EQUATOR_AREA, abs=1e-12)

    def test_pole_degenerates(self):
        assert cf.sphere_area(bump(101), 0.0) == 0.0

    def test_constant_scaling(self):
        p = cf.AxisymProfile.round_profile(101, radius_factor=1.3)
        assert cf.sphere_area(p, PI / 2) == pytest.approx(
            EQUATOR_AREA * 1.3**4, rel=1e-12
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cf.sphere_area(bump(101), -0.1)
        with pytest.raises(ValueError):
            cf.sphere_area(bump(101), PI + 0.1)


class TestMinimalCoordinateSpheres:
    def test_round_equator_only(self):
        spheres = cf.minimal_coordinate_spheres(cf.AxisymProfile.round_profile(201))
        assert len(spheres) == 1
        assert spheres[0].theta == pytest.approx(PI / 2, abs=1e-12)
        assert spheres[0].area == pytest.approx(EQUATOR_AREA, rel=1e-12)

    def test_bump_maximizer_against_dense_oracle(self):
        spheres = cf.minimal_coordinate_spheres(bump(401))
        assert len(spheres) == 1
        dense = bump(200001)
        theta_dense = dense.thetas[int(np.argmax(cf.area_profile(dense)))]
        assert abs(spheres[0].theta - theta_dense) < 1e-3
        assert spheres[0].theta == pytest.approx(1.1240721, abs=1e-4)

    def test_double_bump_has_three(self):
        spheres = cf.minimal_coordinate_spheres(double_bump(401))
        areas = [s.area for s in spheres]
        assert len(spheres) == 3
        assert areas[0] > areas[1] < areas[2]
        assert spheres[1].theta == pytest.approx(PI / 2, abs=1e-10)
        assert areas[1] == pytest.approx(4.0 * PI * 0.7**4, rel=1e-10)


class TestWidthUpperBound:
    def test_round(self):
        assert abs(cf.width_upper_bound(cf.AxisymProfile.round_profile(201)) - 4 * PI) < 1e-8

    def test_constant_scaling(self):
        p = cf.AxisymProfile.round_profile(201, radius_factor=1.7)
        assert abs(cf.width_upper_bound(p) - 4 * PI * 1.7**4) < 1e-6

    def test_bump_against_dense_oracle(self):
        coarse = cf.width_upper_bound(bump(401))
        dense = cf.width_upper_bound(bump(200001))
        assert abs(coarse - dense) / dense < 1e-6

    def test_refinement_envelope(self):
        ref = cf.width_upper_bound(bump(6401))
        errs = [abs(cf.width_upper_bound(bump(n)) - ref) for n in (401, 801, 1601)]
        assert errs[1] <= errs[0] / 3.5 + 1e-12
        assert errs[2] <= errs[1] / 3.5 + 1e-12

    def test_area_derivative_telescopes_to_zero(self):
        # A(0) = A(pi) = 0 to roundoff (sin(pi) is ~1e-16 in floats), so the
        # discrete integral of A' telescopes to a negligible total.
        for profile in (bump(401), double_bump(401)):
            areas = cf.area_profile(profile)
            cap = 1e-28 * np.max(areas)
            assert abs(areas[0]) <= cap and abs(areas[-1]) <= cap
            total = np.trapezoid(
                np.gradient(areas, profile.spacing), dx=profile.spacing
            )
            assert abs(total) < 1e-10 * np.max(areas)


def tilt_axis(alpha):
    """A unit vector at angle alpha from the axis, off the coordinate planes."""
    direction = np.array([1.0, 2.0, 2.0]) / 3.0
    return np.append(math.sin(alpha) * direction, math.cos(alpha))


def sweepout_max(p, alpha):
    """The certified maximum of the single sweep-out at tilt alpha."""
    spheres = cf._TiltedSpheres(p)
    return cf._certified_max(spheres, alpha, spheres.area(alpha, spheres.thetas))


class TestTiltedSweepouts:
    def test_zero_tilt_is_latitude_area(self):
        p = bump(401)
        for c in (-0.9, -0.3, 0.0, 0.42, 0.95):
            assert cf.tilted_sphere_area(p, 0.0, c) == pytest.approx(
                cf.sphere_area(p, math.acos(c)), rel=1e-13
            )

    def test_area_against_fine_quadrature_in_s(self):
        # Midpoint rule in s on the same piecewise-linear interpolant.
        p = bump(401)
        m = 400_000
        s = (np.arange(m) + 0.5) * (2.0 / m) - 1.0
        for alpha, c in ((0.3, -0.5), (PI / 4, 0.7), (PI / 2, 0.0)):
            x4 = c * math.cos(alpha) - math.sqrt(1.0 - c * c) * math.sin(alpha) * s
            u4 = np.interp(np.arccos(x4), p.thetas, p.u) ** 4
            reference = 2.0 * PI * (1.0 - c * c) * np.sum(u4) * (2.0 / m)
            assert cf.tilted_sphere_area(p, alpha, c) == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("factor", [1.0, 1.3])
    def test_round_maximum_is_equator(self, factor):
        p = cf.AxisymProfile.round_profile(101, radius_factor=factor)
        exact = EQUATOR_AREA * factor**4
        for alpha in cf.TILT_ANGLES:
            result = sweepout_max(p, alpha)
            assert exact <= result.bound <= exact * (1.0 + 1e-8)
        assert exact <= cf.tilted_width_bound(p).bound <= exact * (1.0 + 1e-8)

    @pytest.mark.parametrize("make", [bump, double_bump])
    def test_maximum_never_underestimated(self, make):
        p = make(401)
        for alpha in (0.0, PI / 8, PI / 2):
            result = sweepout_max(p, alpha)
            assert cf.tilted_sphere_area(p, alpha, result.c) == pytest.approx(
                result.area, rel=1e-12
            )
            levels = np.clip(result.c + np.linspace(-0.02, 0.02, 1001), -1.0, 1.0)
            dense = max(cf.tilted_sphere_area(p, alpha, c) for c in levels)
            assert dense <= result.bound
            assert result.bound - dense <= 1e-8 * result.bound

    def test_point_budget_keeps_bound_valid(self, monkeypatch):
        p = bump(401)
        full = sweepout_max(p, PI / 2)
        monkeypatch.setattr(cf, "_MAX_REFINE_POINTS", 16)
        cut = sweepout_max(p, PI / 2)
        assert cut.max_error > full.max_error
        assert cut.bound >= full.area

    @pytest.mark.parametrize("alpha", [PI / 4, PI / 2])
    def test_maximum_matches_monte_carlo_sphere_area(self, alpha):
        p = bump(401)
        result = sweepout_max(p, alpha)
        estimate = mc_tilted_sphere_area(
            lambda t: np.interp(t, p.thetas, p.u), tilt_axis(alpha), result.c,
            samples=1_000_000, seed=2026,
        )
        assert abs(estimate - result.area) / result.area < 3e-3

    def test_tighter_than_latitude_for_squashed_profile(self):
        p = bump(401)
        result = cf.tilted_width_bound(p)
        assert result.alpha == pytest.approx(PI / 2)
        assert result.bound == pytest.approx(14.84865, abs=1e-5)
        assert result.bound < cf.width_upper_bound(p) - 1.0
        assert 0.0 < result.max_error + result.rounding_error < 1e-8

    def test_argument_validation(self):
        p = bump(101)
        with pytest.raises(ValueError):
            cf.tilted_sphere_area(p, -0.1, 0.0)
        with pytest.raises(ValueError):
            cf.tilted_sphere_area(p, 0.5, 1.5)


class TestSecondVariationOracle:
    def test_round_unstable_direction(self):
        p = cf.AxisymProfile.round_profile(201)
        assert cf.second_variation_oracle(p, PI / 2, 0, 1e-2) == pytest.approx(
            -2.0, abs=1e-3
        )

    def test_round_rotation_nullity(self):
        p = cf.AxisymProfile.round_profile(201)
        assert abs(cf.second_variation_oracle(p, PI / 2, 1, 1e-2)) < 1e-3

    def test_round_degree_two_positive(self):
        p = cf.AxisymProfile.round_profile(201)
        value = cf.second_variation_oracle(p, PI / 2, 2, 1e-2)
        assert value == pytest.approx(4.0, abs=1e-3)

    def test_non_critical_latitude_rejected(self):
        with pytest.raises(ValueError):
            cf.second_variation_oracle(cf.AxisymProfile.round_profile(201), PI / 4, 0, 1e-2)

    def test_argument_validation(self):
        p = cf.AxisymProfile.round_profile(201)
        with pytest.raises(ValueError):
            cf.second_variation_oracle(p, PI / 2, -1, 1e-2)
        with pytest.raises(ValueError):
            cf.second_variation_oracle(p, PI / 2, 0, 0.0)
        with pytest.raises(ValueError):
            cf.second_variation_oracle(p, PI / 2, 0, 0.3)
        with pytest.raises(ValueError):
            cf.second_variation_oracle(p, 0.0, 0, 1e-2)

    def test_matches_eigenvalue_formula_off_round(self):
        # Dual route: the k = 2 quadratic form measured directly by the
        # oracle against k(k+1)/radius^2 - Q with Q in closed form.  The
        # graph offsets must span several cells, so the grid is fine: at
        # n = 401 the oracle gives 2.49125 against 2.59763.
        p = bump(801)
        theta = cf.max_latitude_sphere(p).theta
        spectrum = cf.jacobi_spectrum(p, theta, 2)
        lam2 = dict((k, lam) for k, lam, _ in spectrum.eigenvalues)[2]
        direct = cf.second_variation_oracle(p, theta, 2, 1e-2)
        assert abs(direct - lam2) < 0.01


class TestJacobiSpectrum:
    def test_round_equator(self):
        spectrum = cf.jacobi_spectrum(cf.AxisymProfile.round_profile(201), PI / 2, 4)
        assert spectrum.jacobi_Q == pytest.approx(2.0, abs=1e-12)
        assert spectrum.index == 1
        assert spectrum.nullity == 3
        expected = {0: -2.0, 1: 0.0, 2: 4.0, 3: 10.0, 4: 18.0}
        for k, lam, mult in spectrum.eigenvalues:
            assert lam == pytest.approx(expected[k], abs=1e-12)
            assert mult == 2 * k + 1

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            cf.jacobi_spectrum(cf.AxisymProfile.round_profile(201), PI / 2, 1)
        with pytest.raises(ValueError, match="k_max"):
            cf.jacobi_spectrum(
                cf.AxisymProfile.round_profile(201), PI / 2, cf.MAX_JACOBI_DEGREE + 1
            )
        spectrum = cf.jacobi_spectrum(
            cf.AxisymProfile.round_profile(201), PI / 2, cf.MAX_JACOBI_DEGREE
        )
        assert len(spectrum.eigenvalues) == cf.MAX_JACOBI_DEGREE + 1

    @pytest.mark.parametrize("c", [1.0, 0.5, 2.0])
    def test_constant_profile_exact(self, c):
        spectrum = cf.jacobi_spectrum(cf.AxisymProfile.round_profile(201, c), PI / 2, 4)
        assert spectrum.jacobi_Q * c**4 == 2.0
        assert (spectrum.index, spectrum.nullity) == (1, 3)

    @pytest.mark.parametrize("n", [201, 401, 801])
    def test_matches_analytic_q(self, n):
        # Q against the analytic Q of the cosine series at the reported
        # latitude, with index and nullity recounted from the analytic Q.
        rtol = {201: 2e-3, 401: 2e-4, 801: 4e-5}[n]
        rng = np.random.default_rng(20261018 + n)
        series = [[0.0], [0.3], [0.0, 0.3]]
        series += [list(rng.uniform(-0.12, 0.12, size=4)) for _ in range(3)]
        checked = 0
        for a in series:
            p = cf.AxisymProfile.from_function(
                lambda t, a=a: 1.0 + sum(ak * np.cos(k * t) for k, ak in enumerate(a, 1)), n
            )
            for sphere in cf.minimal_coordinate_spheres(p):
                spectrum = cf.jacobi_spectrum(p, sphere.theta, 4)
                q = cosine_series_jacobi_q(a, sphere.theta)
                assert abs(spectrum.jacobi_Q - q) <= rtol * max(1.0, abs(q))
                lams = [(k * (k + 1) / spectrum.induced_radius_sq - q, 2 * k + 1)
                        for k in range(5)]
                index = sum(m for lam, m in lams if lam < -cf.ZERO_EIGENVALUE_TOL)
                nullity = sum(m for lam, m in lams if abs(lam) <= cf.ZERO_EIGENVALUE_TOL)
                assert (spectrum.index, spectrum.nullity) == (index, nullity)
                checked += 1
        assert checked >= 8

    def test_bump_maximizer_unstable(self):
        p = bump(401)
        spectrum = cf.jacobi_spectrum(p, cf.max_latitude_sphere(p).theta, 4)
        assert spectrum.index == 4
        assert spectrum.nullity == 0
        assert spectrum.jacobi_Q == pytest.approx(1.93303, abs=1e-5)

    def test_double_bump_neck_stable_with_area_second_difference_sign(self):
        p = double_bump(401)
        spectrum = cf.jacobi_spectrum(p, PI / 2, 4)
        assert spectrum.index == 0
        assert spectrum.nullity == 0
        lam0 = spectrum.eigenvalues[0][1]
        areas = cf.area_profile(p)
        i = (p.n - 1) // 2
        second_diff = (
            areas[i + 1] - 2 * areas[i] + areas[i - 1]
        ) / p.spacing**2
        assert math.copysign(1.0, lam0) == math.copysign(1.0, second_diff)

    def test_analyze_sphere_fills_fields(self):
        p = cf.AxisymProfile.round_profile(201)
        sphere = cf.minimal_coordinate_spheres(p)[0]
        assert sphere.index is None
        analyzed = cf.analyze_sphere(p, sphere)
        assert analyzed.index == 1
        assert analyzed.nullity == 3
        assert analyzed.jacobi_Q == pytest.approx(2.0, abs=1e-12)


class TestLatitudeSphereInvariants:
    def test_area_radius_consistency_enforced(self):
        with pytest.raises(ValueError):
            cf.LatitudeSphere(
                theta=1.0, area=10.0, minimality_residual=0.0, induced_radius_sq=1.0
            )

    def test_interior_latitude_enforced(self):
        with pytest.raises(ValueError):
            cf.LatitudeSphere(
                theta=0.0, area=0.0, minimality_residual=0.0, induced_radius_sq=0.0
            )

    def test_counts_must_be_nonnegative_integers(self):
        with pytest.raises(ValueError):
            cf.LatitudeSphere(
                theta=1.0,
                area=4 * PI,
                minimality_residual=0.0,
                induced_radius_sq=1.0,
                index=-1,
            )


class TestStarScan:
    def test_round_holds(self):
        report = cf.star_scan(cf.AxisymProfile.round_profile(201))
        assert report.star_holds_on_axisym_candidates
        assert len(report.minimal_spheres) == 1
        assert report.minimal_spheres[0].index == 1

    def test_scaled_round_holds(self):
        report = cf.star_scan(cf.AxisymProfile.round_profile(201, radius_factor=2.0))
        assert report.star_holds_on_axisym_candidates

    def test_deep_neck_violates(self):
        report = cf.star_scan(double_bump(401))
        assert not report.star_holds_on_axisym_candidates
        neck = min(report.minimal_spheres, key=lambda s: s.area)
        assert neck.index == 0 and neck.nullity == 0
        assert neck.area < report.width_upper_bound
        assert neck.area == pytest.approx(3.017186, abs=1e-4)
        assert report.width_upper_bound == pytest.approx(6.370383, abs=1e-4)


class TestCurvatureIntegral:
    def test_round_equality(self):
        p = cf.AxisymProfile.round_profile(201)
        assert cf.curvature_integral_over_sphere(p, PI / 2) == pytest.approx(
            24 * PI, rel=1e-10
        )

    def test_scale_invariance(self):
        p = cf.AxisymProfile.round_profile(201, radius_factor=1.6)
        assert cf.curvature_integral_over_sphere(p, PI / 2) == pytest.approx(
            24 * PI, rel=1e-10
        )

    def test_small_bump_exceeds_round_value_at_maximizer(self):
        # The maximal latitude sphere of 1 + 0.1cos(theta) is not a great
        # sphere of a round metric; its curvature integral sits above 24*pi
        # at second order in the amplitude (measured excess 2.70).
        p = cf.AxisymProfile.from_function(lambda t: 1.0 + 0.1 * np.cos(t), 401)
        theta = cf.max_latitude_sphere(p).theta
        value = cf.curvature_integral_over_sphere(p, theta)
        assert value == pytest.approx(78.0987, abs=5e-3)
        assert value > 24 * PI + 1e-3


class TestIsoperimetricCheck:
    def test_round_equality(self):
        check = cf.isoperimetric_check(cf.AxisymProfile.round_profile(201))
        assert check.passed
        assert check.max_profile_area == pytest.approx(
            check.round_equator_area_same_volume, abs=1e-10
        )

    def test_scaled_round(self):
        check = cf.isoperimetric_check(
            cf.AxisymProfile.round_profile(201, radius_factor=1.4)
        )
        assert check.passed
        assert check.max_profile_area == pytest.approx(4 * PI * 1.4**4, rel=1e-8)

    def test_small_bump_conservative_check_fails(self):
        # The sweep-out maximum of 1 + a*cos(theta) exceeds the equal-volume
        # round equator by about 6*pi*a^2 (measured 0.04654 at a = 0.05), so
        # the conservative upper-bound comparison reports a failure even
        # though the true isoperimetric maximum is smaller.
        check = cf.isoperimetric_check(
            cf.AxisymProfile.from_function(lambda t: 1.0 + 0.05 * np.cos(t), 401)
        )
        assert not check.passed
        excess = check.max_profile_area - check.round_equator_area_same_volume
        assert excess == pytest.approx(0.046535, abs=1e-3)


class TestGreatSphereAverage:
    def test_constant_function_exact(self):
        check = cf.great_sphere_average_check(
            lambda x: np.ones(len(x)), samples=10_000, seed=2026
        )
        assert check.lhs == 1.0
        assert check.rhs == 1.0
        assert check.rel_err == 0.0

    def test_coordinate_squared(self):
        check = cf.great_sphere_average_check(
            lambda x: x[:, 3] ** 2, samples=100_000, seed=2026
        )
        assert check.rel_err < 2e-2
        assert check.lhs == pytest.approx(0.25, abs=5e-3)

    def test_odd_function_near_zero(self):
        check = cf.great_sphere_average_check(
            lambda x: x[:, 3], samples=100_000, seed=2026
        )
        assert abs(check.lhs) < 2e-2
        assert abs(check.rhs) < 2e-2

    def test_seed_reproducibility(self):
        first = cf.great_sphere_average_check(
            lambda x: x[:, 3] ** 2, samples=5_000, seed=7
        )
        second = cf.great_sphere_average_check(
            lambda x: x[:, 3] ** 2, samples=5_000, seed=7
        )
        assert first == second

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            cf.great_sphere_average_check(lambda x: np.ones(len(x)), 999, 0)


class TestConformalScalingCoherence:
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_volume_area_curvature_scaling(self, c):
        base = bump(401)
        scaled = cf.AxisymProfile.from_function(
            lambda t: c * (1.0 + 0.3 * np.cos(t)), 401
        )
        assert cf.volume(scaled) == pytest.approx(c**6 * cf.volume(base), rel=1e-12)
        assert cf.sphere_area(scaled, 1.0) == pytest.approx(
            c**4 * cf.sphere_area(base, 1.0), rel=1e-12
        )
        expected = cf.scalar_curvature_field(base) / c**4
        # The bump curvature crosses zero, so pointwise relative comparison
        # is ill-posed there; measure roundoff against the field scale.
        np.testing.assert_allclose(
            cf.scalar_curvature_field(scaled),
            expected,
            rtol=1e-10,
            atol=1e-10 * float(np.max(np.abs(expected))),
        )

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_normalized_width_invariant(self, c):
        base = bump(401)
        scaled = cf.AxisymProfile.from_function(
            lambda t: c * (1.0 + 0.3 * np.cos(t)), 401
        )
        nw_base = cf.width_upper_bound(base) / cf.volume(base) ** (2.0 / 3.0)
        nw_scaled = cf.width_upper_bound(scaled) / cf.volume(scaled) ** (2.0 / 3.0)
        assert abs(nw_scaled - nw_base) < 1e-10

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_curvature_integral_and_index_invariant(self, c):
        base = bump(401)
        scaled = cf.AxisymProfile.from_function(
            lambda t: c * (1.0 + 0.3 * np.cos(t)), 401
        )
        theta_b = cf.max_latitude_sphere(base).theta
        theta_s = cf.max_latitude_sphere(scaled).theta
        assert theta_s == pytest.approx(theta_b, abs=1e-10)
        assert cf.curvature_integral_over_sphere(
            scaled, theta_s
        ) == pytest.approx(cf.curvature_integral_over_sphere(base, theta_b), rel=1e-10)
        spec_b = cf.jacobi_spectrum(base, theta_b, 2)
        spec_s = cf.jacobi_spectrum(scaled, theta_s, 2)
        assert (spec_s.index, spec_s.nullity) == (spec_b.index, spec_b.nullity)
