"""Tests for the volume-normalized conformal curvature flow."""

import json
import math

import numpy as np
import pytest

from widthlab.conformal import (
    AxisymProfile,
    max_latitude_sphere,
    scalar_curvature_field,
    tilted_width_bound,
)
from widthlab import conformal, yamabe
from widthlab.numerics import latitude_grid

from oracles import (
    ReferenceFlowKernel,
    composite_simpson,
    explicit_flow_reference,
    implicit_flow_reference,
    reference_implicit_advance,
)

ROUND_ENERGY = 6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0)
ROUND_NORMALIZED_WIDTH = (16.0 / math.pi) ** (1.0 / 3.0)


def bump_profile(n, amplitude=0.3):
    return AxisymProfile.from_function(lambda t: 1.0 + amplitude * np.cos(t), n)


def advance(*args):
    """``yamabe._advance`` under the warning state that run and step give it."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return yamabe._advance(*args)


@pytest.fixture(scope="module")
def converging_trace():
    """The bump flow at n = 101, dt = 1e-4; it converges at t = 1.2261."""
    return yamabe.run(bump_profile(101), t_end=3.0, dt=1e-4, sample_every=200)


class TestAverageScalarCurvature:
    def test_round_value(self):
        p = AxisymProfile.round_profile(201)
        assert abs(yamabe.average_scalar_curvature(p) - 6.0) < 1e-8

    def test_constant_scaling(self):
        p = AxisymProfile.from_function(lambda t: 2.0 + 0.0 * t, 201)
        assert abs(yamabe.average_scalar_curvature(p) - 6.0 / 16.0) < 1e-8

    def test_matches_grid_refinement(self):
        coarse = yamabe.average_scalar_curvature(bump_profile(401))
        fine = yamabe.average_scalar_curvature(bump_profile(1601))
        assert abs(coarse - fine) / abs(fine) < 1e-5


class TestHilbertEinsteinEnergy:
    def test_round_value(self):
        p = AxisymProfile.round_profile(201)
        assert abs(yamabe.hilbert_einstein_energy(p) - ROUND_ENERGY) < 1e-6

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, c):
        base = yamabe.hilbert_einstein_energy(bump_profile(401))
        scaled = yamabe.hilbert_einstein_energy(
            AxisymProfile.from_function(lambda t: c * (1.0 + 0.3 * np.cos(t)), 401)
        )
        assert abs(scaled - base) < 1e-10

    def test_round_minimizes_in_conformal_class(self):
        assert yamabe.hilbert_einstein_energy(bump_profile(401)) > ROUND_ENERGY + 0.1


class TestStep:
    def test_round_is_fixed_point(self):
        state = yamabe.flow_state(AxisymProfile.round_profile(101))
        after = yamabe.step(state, 1e-3)
        assert np.max(np.abs(after.profile.u - 1.0)) < 1e-14

    def test_constant_profile_is_fixed_point(self):
        p = AxisymProfile.from_function(lambda t: 1.4 + 0.0 * t, 101)
        after = yamabe.step(yamabe.flow_state(p), 1e-3)
        assert np.max(np.abs(after.profile.u - 1.4)) < 1e-10

    def test_energy_and_volume_after_one_step(self):
        state = yamabe.flow_state(bump_profile(401))
        after = yamabe.step(state, 1e-5)
        assert after.energy <= state.energy + 1e-12
        assert abs(after.volume - state.volume) < 1e-12

    def test_large_dt_is_stable(self):
        # The stabilized implicit step has no CFL limit: a step about 250 times
        # the explicit limit h^2 min(u)^4 / 6 still produces a valid state.
        state = yamabe.flow_state(bump_profile(101))
        after = yamabe.step(state, 1e-2)
        assert np.all(after.profile.u > 0.0)
        assert after.energy < state.energy

    def test_nonpositive_dt_rejected(self):
        state = yamabe.flow_state(bump_profile(101))
        with pytest.raises(ValueError):
            yamabe.step(state, 0.0)
        with pytest.raises(ValueError):
            yamabe.step(state, -1e-5)
        with pytest.raises(ValueError, match="finite"):
            yamabe.step(state, np.inf)

    def test_unstable_override_loses_positivity(self, monkeypatch):
        # A zero stabilizer makes the step explicit Euler; far above its CFL
        # limit it blows up, and that must surface as a flow error, not
        # silent garbage.
        monkeypatch.setattr(yamabe, "STABILIZER", 0.0)
        with pytest.raises(yamabe.FlowError, match="positive finite"):
            yamabe.run(bump_profile(101), t_end=0.1, dt=1e-3)

    def test_irregular_pole_is_flow_error(self, monkeypatch):
        # With the stabilizer halved, the pole rows of 1 + 0.3 cos(theta) at
        # n = 401 go unstable at dt = 4e-5, and the state after 61 steps
        # fails pole regularity: a failure of the flow, not of its input.
        monkeypatch.setattr(yamabe, "STABILIZER", 0.75)
        with pytest.raises(yamabe.FlowError, match="pole regularity"):
            yamabe.run(bump_profile(401), t_end=0.03, dt=4e-5)
        state = yamabe.flow_state(bump_profile(401))
        with pytest.raises(yamabe.FlowError, match="pole regularity"):
            for _ in range(100):
                state = yamabe.step(state, 4e-5)

    def test_step_leaving_floating_point_is_flow_error(self):
        # On u ~ 1e-40 the curvature is ~1e160, so dt (u/4)(r - R) ~ 1e117:
        # the step leaves the range where u^6 is finite.
        p = AxisymProfile.from_function(lambda t: 1e-40 * (1.0 + 0.3 * np.cos(t)), 11)
        with pytest.raises(yamabe.FlowError, match="volume overflowed"):
            yamabe.step(yamabe.flow_state(p), 1e-3)

    def test_curvature_overflow_is_flow_error(self):
        # u^5 underflows to 0 at the one node of 1e-70, so R is infinite
        # there; the step fails on its own check, with no numpy warning.
        u = np.ones(101)
        u[50] = 1e-70
        with pytest.raises(yamabe.FlowError, match="positive finite"):
            yamabe.run(AxisymProfile(u), t_end=0.01, dt=1e-3)

    @pytest.mark.parametrize("huge", ["one node", "every node"])
    def test_volume_overflow_in_step_is_flow_error(self, huge):
        # The evaluation of the round profile has R = r, so the step leaves
        # u as it is and u^6 overflows; the volume check must not let inf
        # through to a renormalization by 0.
        grid = latitude_grid(101)
        u = np.ones(101)
        if huge == "one node":
            u[50] = 1e52
        else:
            u[:] = 1e52
        evaluation = grid.evaluate(np.ones(101))
        with pytest.raises(yamabe.FlowError, match="volume overflowed"):
            advance(grid, u, 1e-4, 1.0, evaluation)

    def test_stabilizer_overflow_is_flow_error(self):
        grid = latitude_grid(101)
        u = np.ones(101)
        u[50] = 1e-80
        with pytest.raises(yamabe.FlowError, match="stabilizer"):
            advance(grid, u, 1e-4, 1.0, grid.evaluate(np.ones(101)))

    def test_underflowed_volume_rejected(self):
        # u^6 = 1e-360 underflows to 0, so the volume is 0.
        p = AxisymProfile.round_profile(101, 1e-60)
        for quantity in (yamabe.flow_state, yamabe.average_scalar_curvature,
                         yamabe.hilbert_einstein_energy):
            with pytest.raises(ValueError, match="volume"):
                quantity(p)

    def test_volume_underflow_in_substep_is_flow_error(self):
        # The evaluation of the round profile has R = r, so the step leaves
        # u = 1e-60 as it is and its volume underflows to 0.
        grid = latitude_grid(101)
        evaluation = grid.evaluate(np.ones(101))
        with pytest.raises(yamabe.FlowError, match="volume underflowed"):
            advance(grid, np.full(101, 1e-60), 1e-4, 1.0, evaluation)


class TestRun:
    def test_round_converges_immediately(self):
        trace = yamabe.run(AxisymProfile.round_profile(101), t_end=1.0, dt=1e-3)
        assert trace.status == "converged"
        assert trace.monitors["t"].size == 1

    def test_bad_arguments(self):
        p = bump_profile(101)
        with pytest.raises(ValueError):
            yamabe.run(p, t_end=0.0, dt=1e-4)
        with pytest.raises(ValueError):
            yamabe.run(p, t_end=1.0, dt=-1e-4)
        with pytest.raises(ValueError):
            yamabe.run(p, t_end=1.0, dt=1e-4, sample_every=0)

    def test_sampling_cadence(self):
        trace = yamabe.run(
            bump_profile(101), t_end=0.01, dt=1e-4, sample_every=30,
            convergence_tol=1e-12,
        )
        assert trace.status == "completed"
        times = [s.time for s in trace.states]
        assert times == pytest.approx([0.0, 30e-4, 60e-4, 90e-4, 0.01])

    def test_perturbed_profile_converges_to_mobius_round(self, converging_trace):
        trace = converging_trace
        mon = trace.monitors
        assert trace.status == "converged"
        assert mon["sup_R_minus_r"][-1] < 1e-3
        assert mon["volume_drift"].max() < 1e-12
        assert np.all(np.diff(mon["energy"]) <= 1e-8)
        assert np.all(mon["r_avg"] >= mon["r_avg"][-1] - 1e-6)
        final = trace.states[-1]
        normalized = final.width_bound / final.volume ** (2.0 / 3.0)
        assert abs(normalized - ROUND_NORMALIZED_WIDTH) / ROUND_NORMALIZED_WIDTH < 5e-3
        # The limit is a conformal (Moebius) image of the round metric:
        # 1/u^2 is affine in cos(theta) for that family.
        u = final.profile.u
        design = np.vstack([np.ones(final.profile.n), np.cos(final.profile.thetas)]).T
        coef, *_ = np.linalg.lstsq(design, 1.0 / u**2, rcond=None)
        assert np.max(np.abs(design @ coef - 1.0 / u**2)) < 5e-4


class TestWidthDerivativeMonitor:
    def test_needs_three_states(self):
        trace = yamabe.run(
            bump_profile(101), t_end=2e-4, dt=1e-4, sample_every=1000,
            convergence_tol=1e-12,
        )
        assert len(trace.states) == 2
        with pytest.raises(ValueError):
            yamabe.width_derivative_monitor(trace)

    def test_round_is_stationary(self):
        trace = yamabe.run(
            AxisymProfile.round_profile(101), t_end=5e-3, dt=1e-3,
            sample_every=1, convergence_tol=0.0,
        )
        for record in yamabe.width_derivative_monitor(trace):
            assert abs(record["lhs"]) < 1e-9
            assert abs(record["rhs"]) < 1e-9

    @pytest.mark.parametrize("amplitude", [0.3, 0.1])
    def test_lhs_is_derivative_of_width_bound(self, amplitude):
        # Move every node area along its flow rate, u^4 -> u^4 (1 + e (r - R)),
        # and difference the package's own width estimate.
        state = yamabe.flow_state(bump_profile(201, amplitude))
        field = scalar_curvature_field(state.profile)
        rate = state.r_avg - field
        areas = conformal.area_profile(state.profile)

        def width(e):
            u = state.profile.u * (1.0 + e * rate) ** 0.25
            return conformal.width_upper_bound(AxisymProfile(u))

        e = 1e-5
        centered = (width(e) - width(-e)) / (2.0 * e)
        chain = yamabe._width_rate(areas, areas * rate)
        assert chain == pytest.approx(centered, rel=1e-6)

    def test_rate_where_the_estimate_is_a_node_area(self):
        rates = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        # Largest area at an end node.
        assert yamabe._width_rate(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), rates) == 1.0
        assert yamabe._width_rate(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), rates) == 5.0
        # a - 2b + c rounds to 0: the estimate is the node area.
        flat = np.array([0.0, 1.0 - 2.0**-53, 1.0, 1.0, 0.0])
        assert flat[1] - 2.0 * flat[2] + flat[3] == 0.0
        assert yamabe._width_rate(flat, rates) == 3.0
        # Symmetric neighbours: the vertex is the node itself.
        assert yamabe._width_rate(np.array([0.0, 1.0, 2.0, 1.0, 0.0]), rates) == 3.0

    def test_sampled_difference_tracks_the_chain_rule(self):
        # At a fixed sample spacing tau = 10 dt, the centered difference of
        # the width bound differs from the chain-rule derivative by the
        # scheme's O(dt) time error plus O(tau^2).  Compare only windows
        # whose three samples share the node of the largest area: across a
        # switch of that node the estimate jumps and the gap grows like
        # 1 / tau.
        def gap(dt):
            trace = yamabe.run(bump_profile(401), t_end=0.01, dt=dt, sample_every=10,
                               convergence_tol=0.0)
            nodes = [int(np.argmax(conformal.area_profile(s.profile)))
                     for s in trace.states]
            kept = [record for i, record in enumerate(
                        yamabe.width_derivative_monitor(trace), 1)
                    if nodes[i - 1] == nodes[i] == nodes[i + 1]]
            assert kept
            return (max(abs(r["lhs_sampled"] - r["lhs"]) for r in kept)
                    / max(abs(r["lhs"]) for r in kept))

        gaps = [gap(dt) for dt in (8e-5, 4e-5, 2e-5, 1e-5, 5e-6)]
        orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert min(orders) >= 0.9, (gaps, orders)

    def test_residual_small_against_formula(self):
        trace = yamabe.run(bump_profile(101), t_end=2.0, dt=1e-4, sample_every=50)
        records = yamabe.width_derivative_monitor(trace)
        residual = max(abs(r["residual"]) for r in records)
        magnitude = max(abs(r["rhs"]) for r in records)
        assert residual <= 0.02 * magnitude


class TestTheorem1Monitor:
    def test_round_equality(self):
        trace = yamabe.run(AxisymProfile.round_profile(101), t_end=1.0, dt=1e-3)
        report = yamabe.theorem1_monitor(trace)
        assert report.passed
        assert abs(report.product_at_max - 24.0 * math.pi) < 1e-4

    def test_small_bump_product_exceeds_bound_at_start(self):
        # The latitude-sphere width bound is not tight at t = 0 for
        # translation-mode perturbations: the product overshoots 24*pi at
        # second order in the amplitude even though the flow limit is round.
        trace = yamabe.run(
            bump_profile(201, amplitude=0.1), t_end=0.05, dt=2e-5, sample_every=250
        )
        report = yamabe.theorem1_monitor(trace)
        assert report.latitude_tau_star == 0.0
        assert report.latitude_product_at_max == pytest.approx(76.45719, abs=2e-3)
        assert not report.latitude_passed
        # The tilted sweep-outs bound the same width tighter at t = 0.
        start = trace.states[0]
        tight = tilted_width_bound(start.profile).bound
        assert tight * start.r_avg < report.latitude_product_at_max

    def test_monotone_r_along_trace(self, converging_trace):
        trace = converging_trace
        assert trace.states[-1].time < 2.0
        r_values = trace.monitors["r_avg"]
        assert np.all(r_values >= r_values[-1] - 1e-6)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            yamabe.theorem1_monitor(
                yamabe.FlowTrace(
                    states=[], step_size=1e-4, status="completed",
                    target_volume=1.0, monitors={},
                )
            )


def profile_volume(profile):
    integrand = profile.u**6 * np.sin(profile.thetas) ** 2
    return 4.0 * np.pi * composite_simpson(integrand, profile.spacing)


class TestMaximumTestDirection:
    def test_zero_direction(self):
        p = bump_profile(101)
        report = yamabe.maximum_test_direction(p, np.zeros(101))
        assert report.trace_integral_over_max_sphere == 0.0

    def test_mean_zero_enforced(self):
        p = bump_profile(101)
        f = np.cos(p.thetas) ** 2
        report = yamabe.maximum_test_direction(p, f)
        adjusted = report.variation.f
        integrand = adjusted * p.u**6 * np.sin(p.thetas) ** 2
        assert abs(4.0 * np.pi * composite_simpson(integrand, p.spacing)) < 1e-10

    def test_family_velocity_and_volume(self):
        p = bump_profile(101)
        report = yamabe.maximum_test_direction(p, np.cos(p.thetas))
        variation = report.variation
        assert abs(profile_volume(variation.profile_at(0.3)) - profile_volume(p)) < 1e-10
        h = 1e-4
        fd = (variation.profile_at(h).u**4 - variation.profile_at(-h).u**4) / (2 * h)
        expected = variation.f * p.u**4
        assert np.max(np.abs(fd - expected)) < 1e-6 * np.max(np.abs(expected))

    def test_reconciles_with_width_derivative_sign(self):
        p = AxisymProfile.from_function(lambda t: 1.0 + 0.05 * np.cos(2 * t), 201)
        field = scalar_curvature_field(p)
        r = yamabe.average_scalar_curvature(p)
        report = yamabe.maximum_test_direction(p, field - r)
        sphere = max_latitude_sphere(p)
        width_rhs = (
            r - float(np.interp(sphere.theta, p.thetas, field))
        ) * sphere.area
        assert abs(report.trace_integral_over_max_sphere + width_rhs) < 1e-10

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            yamabe.maximum_test_direction(bump_profile(101), np.zeros(51))

    def test_non_finite_direction_rejected(self):
        f = np.zeros(101)
        f[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            yamabe.maximum_test_direction(bump_profile(101), f)

    def test_leaving_positive_cone_rejected(self):
        p = bump_profile(101)
        report = yamabe.maximum_test_direction(p, np.cos(p.thetas))
        with pytest.raises(ValueError):
            report.variation.profile_at(1.5)


class TestTraceOutputs:
    def test_csv_round_trip(self, tmp_path):
        trace = yamabe.run(
            bump_profile(101), t_end=0.01, dt=1e-4, sample_every=50,
            convergence_tol=1e-12,
        )
        path = tmp_path / "trace.csv"
        yamabe.write_trace_csv(trace, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,volume,r_avg,energy,width_bound,max_theta,sup_R_minus_r"
        assert len(lines) == 1 + len(trace.states)
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == trace.states[0].volume

    def test_json_summary(self, tmp_path, converging_trace):
        trace = converging_trace
        assert trace.states[-1].time < 2.0
        path = tmp_path / "summary.json"
        yamabe.write_run_summary_json(trace, str(path), config={"n": 101, "dt": 1e-4})
        payload = json.loads(path.read_text())
        assert payload["format"] == "widthlab-report/1"
        assert payload["status"] == "converged"
        assert payload["config"] == {"n": 101, "dt": 1e-4}
        assert payload["max_volume_drift"] < 1e-12
        assert payload["theorem1"]["bound"] == pytest.approx(24.0 * math.pi)
        assert abs(
            payload["final"]["normalized_width"] - ROUND_NORMALIZED_WIDTH
        ) < 1e-2

    def test_json_summary_reports_tight_and_latitude_products(self, tmp_path):
        trace = yamabe.run(
            bump_profile(101, amplitude=0.1), t_end=0.01, dt=1e-4, sample_every=20
        )
        path = tmp_path / "summary.json"
        report = yamabe.write_run_summary_json(trace, str(path))
        assert report == yamabe.theorem1_monitor(trace)
        block = json.loads(path.read_text())["theorem1"]
        assert block["product_at_max"] == report.product_at_max
        assert block["latitude_product_at_max"] == report.latitude_product_at_max
        assert block["product_at_max"] < block["latitude_product_at_max"]
        assert 0.0 < block["error_term"] < 1e-6

    def test_deterministic_bytes(self, tmp_path):
        trace = yamabe.run(
            bump_profile(101), t_end=0.005, dt=1e-4, sample_every=10,
            convergence_tol=1e-12,
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        yamabe.write_run_summary_json(trace, str(a), config={"n": 101})
        yamabe.write_run_summary_json(trace, str(b), config={"n": 101})
        assert a.read_bytes() == b.read_bytes()


class TestFusedStepMatchesReference:
    """The fused flow step reproduces the unfused reference bit for bit."""

    @pytest.mark.parametrize(
        "n, dt, t_end, sample_every, substeps",
        [
            (101, 1e-3, 0.05, 7, (1, 1)),  # 25 times the explicit CFL limit
            (401, 1e-5, 2e-3, 40, (1, 1)),  # the criterion-6 grid and step
            (101, 1e-5, 1e-3, 25, (1, 1)),  # below the explicit CFL limit
        ],
    )
    def test_run_matches_reference(self, n, dt, t_end, sample_every, substeps):
        profile = bump_profile(n)
        trace = yamabe.run(profile, t_end=t_end, dt=dt, sample_every=sample_every)
        samples, monitors = implicit_flow_reference(
            profile.u, t_end, dt, sample_every, 1e-3, yamabe.STABILIZER
        )
        assert trace.monitors["t"].size == round(t_end / dt)
        assert len(trace.states) == len(samples)
        for state, u in zip(trace.states, samples):
            assert np.array_equal(state.profile.u, u)
        assert trace.monitors.keys() == monitors.keys()
        for key, values in monitors.items():
            assert np.array_equal(trace.monitors[key], values), key
        counts = trace.monitors["substeps"]
        assert substeps[0] <= counts.min() and counts.max() <= substeps[1]

    def test_step_matches_reference(self):
        state = yamabe.flow_state(bump_profile(101))
        after = yamabe.step(state, 1e-3)
        kernel = ReferenceFlowKernel(101)
        u, _ = reference_implicit_advance(
            kernel, state.profile.u.copy(), 1e-3, state.volume, yamabe.STABILIZER
        )
        assert np.array_equal(after.profile.u, u)
        vol = kernel.volume(u)
        assert after.volume == vol
        assert after.r_avg == kernel.average_r(kernel.scalar_curvature(u), u, vol)

    def test_energies_match_reference(self):
        profile = bump_profile(201)
        kernel = ReferenceFlowKernel(201)
        u = profile.u
        vol = kernel.volume(u)
        r = kernel.average_r(kernel.scalar_curvature(u), u, vol)
        assert yamabe.average_scalar_curvature(profile) == r
        assert yamabe.hilbert_einstein_energy(profile) == r * vol ** (2.0 / 3.0)

    def test_convergence_time_matches_explicit_scheme(self):
        # The explicit Euler reference under its CFL rule is an independent
        # route to the same flow: with criterion 6's profile and step, the
        # two schemes converge at the same time to 1e-3 relative (measured
        # 5.2e-4 here, 4.3e-4 at criterion 6's n = 401 and tolerance 1e-3).
        # n = 101 and tolerance 3e-2 keep the explicit run to 52,000 steps.
        profile = bump_profile(101)
        trace = yamabe.run(profile, t_end=1.0, dt=1e-5, sample_every=10**6,
                           convergence_tol=3e-2)
        _, monitors = explicit_flow_reference(profile.u, 1.0, 1e-5, 10**6, 3e-2)
        assert trace.status == "converged"
        implicit, explicit = trace.monitors["t"][-1], monitors["t"][-1]
        assert monitors["sup_R_minus_r"][-1] < 3e-2
        assert abs(implicit - explicit) <= 1e-3 * explicit


def four_mode_profile(n, seed):
    """u = 1 + sum_{k<=4} a_k cos(k theta), a_k drawn in [-0.12, 0.12]."""
    coeffs = np.random.default_rng(seed).uniform(-0.12, 0.12, size=4)
    return AxisymProfile.from_function(
        lambda t: 1.0 + sum(a * np.cos(k * t) for k, a in enumerate(coeffs, 1)), n
    )


FIELD_PROFILES = {
    "round": AxisymProfile.round_profile,
    "bump": bump_profile,
    **{f"modes{seed}": lambda n, seed=seed: four_mode_profile(n, seed) for seed in range(4)},
}


class TestStaticFieldsMatchFlow:
    """``conformal`` and the flow evaluate on one grid, to the bit."""

    @pytest.mark.parametrize("n", [101, 201, 401, 801])
    @pytest.mark.parametrize("name", sorted(FIELD_PROFILES))
    def test_volume_and_curvature_field(self, name, n):
        profile = FIELD_PROFILES[name](n)
        flow_field, flow_volume, flow_r = latitude_grid(n).evaluate(profile.u)
        state = yamabe.flow_state(profile)
        assert conformal.volume(profile) == state.volume == flow_volume
        assert state.r_avg == flow_r
        field = conformal.scalar_curvature_field(profile)
        assert np.array_equal(field, flow_field)
        assert np.array_equal(field, ReferenceFlowKernel(n).scalar_curvature(profile.u))

