"""Tests for the volume-normalized conformal curvature flow."""

import dataclasses
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
from widthlab import cli, conformal, yamabe
from widthlab.numerics import LatitudeGrid, latitude_grid

from oracles import (
    ReferenceFlowKernel,
    composite_simpson,
    explicit_flow_reference,
    implicit_flow_reference,
    maximum_test_direction,
    reference_implicit_advance,
    save_profile,
    textbook_evaluation,
)

ROUND_ENERGY = 6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0)
ROUND_NORMALIZED_WIDTH = (16.0 / math.pi) ** (1.0 / 3.0)


def average_curvature(profile):
    """The volume average of R, from the profile's evaluation."""
    return profile.evaluation[2]


def bump_profile(n, amplitude=0.3):
    return AxisymProfile.from_function(lambda t: 1.0 + amplitude * np.cos(t), n)


def advance(grid, u, dt, target_volume, evaluation):
    """``yamabe._advance`` from u and ``evaluation = grid.evaluate(...)``,
    under the warning state that run and step give it."""
    scalar, _, r = evaluation
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return yamabe._advance(grid, u, dt, target_volume, float(u.min()), r - scalar)


@pytest.fixture(scope="module")
def converging_trace():
    """The bump flow at n = 101, dt = 1e-4; it converges at t = 1.2261."""
    return yamabe.run(bump_profile(101), t_end=3.0, dt=1e-4, sample_every=200)


class TestAverageScalarCurvature:
    def test_round_value(self):
        p = AxisymProfile.round_profile(201)
        assert abs(p.evaluation[2] - 6.0) < 1e-8

    def test_constant_scaling(self):
        p = AxisymProfile.from_function(lambda t: 2.0 + 0.0 * t, 201)
        assert abs(p.evaluation[2] - 6.0 / 16.0) < 1e-8

    def test_matches_grid_refinement(self):
        coarse = bump_profile(401).evaluation[2]
        fine = bump_profile(1601).evaluation[2]
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
        # silent garbage.  The pole rows go first: the step check stops the
        # run there, before u loses positivity.
        monkeypatch.setattr(yamabe, "STABILIZER", 0.0)
        with pytest.raises(yamabe.FlowError, match="pole regularity"):
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

    def test_irregular_pole_stops_run_at_the_step_that_breaks_it(self, monkeypatch):
        # Every step is checked, not only the sampled states: with the
        # default sampling the run fails at step 61 (t = 0.00244), not at
        # its first sample (step 500).
        monkeypatch.setattr(yamabe, "STABILIZER", 0.75)
        advance_step = yamabe._advance
        steps = []

        def counting(*args):
            steps.append(args[2])
            return advance_step(*args)

        monkeypatch.setattr(yamabe, "_advance", counting)
        with pytest.raises(yamabe.FlowError, match="pole regularity"):
            yamabe.run(bump_profile(401), t_end=0.03, dt=4e-5)
        assert len(steps) == 61
        assert math.isclose(sum(steps), 0.00244)

    def test_pole_flow_error_carries_the_profile_rule(self, monkeypatch):
        # The flow judges each state by AxisymProfile's pole rule, not by a
        # copy of it: the error names the failing state with the rule's own
        # words, and the rule is fed the max(u) the flow carries, which must
        # be the one AxisymProfile finds afresh.
        monkeypatch.setattr(yamabe, "STABILIZER", 0.75)
        rule = yamabe._pole_irregularity
        judged = []

        def recording(u, top, h):
            judged.append((u.copy(), top))
            return rule(u, top, h)

        monkeypatch.setattr(yamabe, "_pole_irregularity", recording)
        with pytest.raises(yamabe.FlowError) as flow_error:
            yamabe.run(bump_profile(401), t_end=0.03, dt=4e-5)
        assert len(judged) == 61
        assert all(top == u.max() for u, top in judged)
        with pytest.raises(conformal.ProfileError) as profile_error:
            AxisymProfile(judged[-1][0])
        assert str(flow_error.value) == (
            f"a step of size 4.000e-05 left no valid profile: {profile_error.value}"
        )

    def test_step_leaving_floating_point_is_flow_error(self):
        # On u ~ 1e-40 the curvature is ~1e160, so dt (u/4)(r - R) ~ 1e117:
        # the step leaves the range where u^6 is finite.
        p = AxisymProfile.from_function(lambda t: 1e-40 * (1.0 + 0.3 * np.cos(t)), 11)
        with pytest.raises(yamabe.FlowError, match="volume overflowed"):
            yamabe.step(yamabe.flow_state(p), 1e-3)

    @pytest.mark.parametrize("u", ["one-node", "every-node"])
    def test_initial_overflow_is_profile_error(self, u):
        # u^5 underflows to 0 where u is 1e-70, so R is infinite there, and
        # u^6 = 1e-360 underflows to a volume of 0: run judges its initial
        # profile by the rule of AxisymProfile.evaluation, once, and names
        # the overflow instead of failing its first step.
        if u == "one-node":
            u = np.ones(101)
            u[50] = 1e-70
        else:
            u = np.full(101, 1e-60)
        profile = AxisymProfile(u)
        with pytest.raises(conformal.ProfileError) as rejected:
            yamabe.run(profile, t_end=0.01, dt=1e-3)
        assert "overflows or underflows" in str(rejected.value)
        with pytest.raises(conformal.ProfileError) as evaluated:
            profile.evaluation
        assert str(rejected.value) == str(evaluated.value)

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

    def test_step_out_of_floating_point_is_flow_error(self):
        # One step of 1e307 on 1 + 0.9 sin^2(theta) takes the update out of
        # floating point (min(u) is nan), which the positivity check reports
        # before any volume is formed.
        state = yamabe.flow_state(
            AxisymProfile.from_function(lambda t: 1.0 + 0.9 * np.sin(t) ** 2, 101))
        with pytest.raises(yamabe.FlowError, match="left the positive finite range"):
            yamabe.step(state, 1e307)

    def test_underflowed_volume_rejected(self):
        # u^6 = 1e-360 underflows to 0, so the volume is 0.
        p = AxisymProfile.round_profile(101, 1e-60)
        for quantity in (yamabe.flow_state, average_curvature,
                         yamabe.hilbert_einstein_energy):
            with pytest.raises(ValueError, match="volume"):
                quantity(p)

    @pytest.mark.parametrize("n", [101, 100])
    @pytest.mark.parametrize("node", ["interior", "pole-0", "pole-n-1"])
    def test_overflowing_curvature_is_profile_error(self, tmp_path, node, n):
        # u^5 underflows to 0 where u is 1e-70, so R is infinite there: every
        # reader of the evaluation rejects the profile by load_profile's
        # rule, in its words and with no numpy warning, instead of returning
        # inf or nan.  At a pole the next node is 1e-70 as well, so the
        # profile stays regular there.
        u = np.ones(n)
        u[{"interior": [n // 2], "pole-0": [0, 1], "pole-n-1": [-2, -1]}[node]] = 1e-70
        profile = AxisymProfile(u)
        path = tmp_path / "p.json"
        save_profile(profile, str(path))
        with pytest.raises(conformal.ProfileError) as loaded:
            conformal.load_profile(str(path))
        for quantity in (yamabe.flow_state, average_curvature,
                         yamabe.hilbert_einstein_energy, conformal.volume,
                         conformal.scalar_curvature_field):
            with pytest.raises(conformal.ProfileError) as rejected:
                quantity(profile)
            assert str(loaded.value) == f"profile file {path}: {rejected.value}"

    def test_step_to_overflowing_curvature_is_flow_error(self, monkeypatch):
        # A step whose state passes the step's own checks but whose curvature
        # leaves floating point ends in a FlowError, not a nan state.
        u = np.ones(101)
        u[50] = 1e-70
        monkeypatch.setattr(yamabe, "_advance", lambda *args: (u, 1e-70))
        state = yamabe.flow_state(bump_profile(101))
        with pytest.raises(yamabe.FlowError, match=(
            r"a step of size 1\.000e-04 left no valid profile: volume or scalar "
            r"curvature overflows")):
            yamabe.step(state, 1e-4)

    def test_run_to_overflowing_curvature_is_flow_error(self, monkeypatch):
        # The average integrates S u, which stays finite where u^5 underflows,
        # so run judges each stepped state by its sup|R - r|: a state with an
        # infinite R ends the run in a FlowError, not in a recorded state.
        u = np.ones(101)
        u[50] = 1e-70
        monkeypatch.setattr(yamabe, "_advance", lambda *args: (u, 1e-70))
        with pytest.raises(yamabe.FlowError, match=(
            r"a step of size 1\.000e-04 left no valid profile: volume or scalar "
            r"curvature overflows")):
            yamabe.run(bump_profile(101), t_end=1e-4, dt=1e-4)

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

    def test_dt_above_t_end_is_refused(self):
        # One step of dt would end the run at ten times t_end.
        with pytest.raises(ValueError, match=r"t_end=0\.0001, dt=0\.001"):
            yamabe.run(bump_profile(101), t_end=1e-4, dt=1e-3)
        assert yamabe.run(bump_profile(101), t_end=1e-4, dt=1e-4).monitors["t"].size == 1

    def test_node_steps_are_capped_before_any_step(self, monkeypatch):
        # At the 20,001-node cap, 20,048 steps are within MAX_NODE_STEPS and
        # reach the first step; 20,049 are refused before it.
        class Stepped(Exception):
            pass

        def stepped(*args):
            raise Stepped

        monkeypatch.setattr(yamabe, "_advance", stepped)
        profile = AxisymProfile.round_profile(conformal.MAX_PROFILE_NODES)
        assert yamabe.MAX_NODE_STEPS // profile.n == 20_048
        with pytest.raises(Stepped):
            yamabe.run(profile, t_end=20_048.0, dt=1.0)
        with pytest.raises(ValueError, match="20001 nodes times 20049 outer steps"):
            yamabe.run(profile, t_end=20_049.0, dt=1.0)

    def test_sampling_cadence(self):
        trace = yamabe.run(
            bump_profile(101), t_end=0.01, dt=1e-4, sample_every=30,
            convergence_tol=1e-12,
        )
        assert trace.status == "completed"
        times = [s.time for s in trace.states]
        assert times == pytest.approx([0.0, 30e-4, 60e-4, 90e-4, 0.01])

    def test_each_state_is_evaluated_once(self, monkeypatch):
        # One evaluation per outer step plus one of the initial profile; the
        # sampled states are built from those, not evaluated again.
        evaluate = LatitudeGrid.evaluate
        calls = []

        def counting(grid, u, *work):
            calls.append(u.size)
            return evaluate(grid, u, *work)

        monkeypatch.setattr(LatitudeGrid, "evaluate", counting)
        trace = yamabe.run(bump_profile(201), t_end=0.01, dt=1e-4, sample_every=10,
                           convergence_tol=0.0)
        assert trace.monitors["t"].size == 100 and len(trace.states) == 11
        assert calls == [201] * 101

    @pytest.mark.parametrize("job, evaluations", [
        ("chained-steps", 11), ("conformal-analyze", 1), ("roundcheck", 2),
        ("yamabe-run", 101),
    ])
    def test_each_profile_is_evaluated_once(self, monkeypatch, tmp_path, job, evaluations):
        # Every evaluation runs the one kernel; a profile keeps its own, so
        # step does not evaluate its input again and the CLI reports what
        # load_profile evaluated.  run starts from the evaluation its
        # initial profile keeps and evaluates each of its 100 steps itself.
        evaluate = LatitudeGrid.evaluate
        calls = []

        def counting(grid, u, *work):
            calls.append(u.size)
            return evaluate(grid, u, *work)

        monkeypatch.setattr(LatitudeGrid, "evaluate", counting)
        path = str(tmp_path / "profile.json")
        save_profile(bump_profile(201), path)
        out = ["--output", str(tmp_path / "report.json")]
        if job == "chained-steps":
            state = yamabe.flow_state(bump_profile(201))
            for _ in range(10):
                state = yamabe.step(state, 1e-4)
        elif job == "conformal-analyze":
            assert cli.main([job, "--input", path, *out]) == 0
        elif job == "roundcheck":
            assert cli.main([job, *out]) == 0
        else:
            assert cli.main([job, "--profile", path, "--t-end", "0.01", "--dt", "1e-4",
                             "--convergence-tol", "0", *out]) == 0
        assert len(calls) == evaluations

    def test_states_equal_flow_state(self):
        # Each sampled state, the initial one and the converged last one
        # among them, is the snapshot flow_state takes of its profile, bit
        # for bit.
        trace = yamabe.run(bump_profile(201, amplitude=0.1), t_end=3.0, dt=4e-4,
                           sample_every=7)
        assert trace.status == "converged" and trace.monitors["t"].size % 7 != 0
        names = [f.name for f in dataclasses.fields(yamabe.FlowState) if f.name != "profile"]
        for state in trace.states:
            fresh = yamabe.flow_state(state.profile, state.time)
            for name in names:
                assert getattr(state, name) == getattr(fresh, name), (state.time, name)

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
        chain = conformal._vertex(areas, state.profile.spacing)[3] @ (areas * rate)
        assert chain == pytest.approx(centered, rel=1e-6)

    def test_rate_where_the_estimate_is_a_node_area(self):
        rates = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

        def rate(areas):
            return conformal._vertex(areas, 0.1)[3] @ rates

        # Largest area at an end node.
        assert rate(np.array([5.0, 4.0, 3.0, 2.0, 1.0])) == 1.0
        assert rate(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 5.0
        # a - 2b + c rounds to 0: the estimate is the node area.
        flat = np.array([0.0, 1.0 - 2.0**-53, 1.0, 1.0, 0.0])
        assert flat[1] - 2.0 * flat[2] + flat[3] == 0.0
        assert rate(flat) == 3.0
        # Symmetric neighbours: the vertex is the node itself.
        assert rate(np.array([0.0, 1.0, 2.0, 1.0, 0.0])) == 3.0

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

    @pytest.mark.parametrize("times", [(0.0, 0.0), (0.0, 2e-4, 1e-4)])
    def test_trace_times_must_increase(self, converging_trace, times):
        states = [dataclasses.replace(converging_trace.states[0], time=t) for t in times]
        with pytest.raises(ValueError, match="strictly increasing"):
            yamabe.FlowTrace(states=states, status="completed",
                             target_volume=1.0, monitors={})

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            yamabe.theorem1_monitor(
                yamabe.FlowTrace(
                    states=[], status="completed",
                    target_volume=1.0, monitors={},
                )
            )


def profile_volume(profile):
    integrand = profile.u**6 * np.sin(profile.thetas) ** 2
    return 4.0 * np.pi * composite_simpson(integrand, profile.spacing)


class TestMaximumTestDirection:
    def test_zero_direction(self):
        p = bump_profile(101)
        report = maximum_test_direction(p, np.zeros(101))
        assert report.trace_integral_over_max_sphere == 0.0

    def test_mean_zero_enforced(self):
        p = bump_profile(101)
        f = np.cos(p.thetas) ** 2
        report = maximum_test_direction(p, f)
        adjusted = report.variation.f
        integrand = adjusted * p.u**6 * np.sin(p.thetas) ** 2
        assert abs(4.0 * np.pi * composite_simpson(integrand, p.spacing)) < 1e-10

    def test_family_velocity_and_volume(self):
        p = bump_profile(101)
        report = maximum_test_direction(p, np.cos(p.thetas))
        variation = report.variation
        assert abs(profile_volume(variation.profile_at(0.3)) - profile_volume(p)) < 1e-10
        h = 1e-4
        fd = (variation.profile_at(h).u**4 - variation.profile_at(-h).u**4) / (2 * h)
        expected = variation.f * p.u**4
        assert np.max(np.abs(fd - expected)) < 1e-6 * np.max(np.abs(expected))

    def test_reconciles_with_width_derivative_sign(self):
        p = AxisymProfile.from_function(lambda t: 1.0 + 0.05 * np.cos(2 * t), 201)
        field = scalar_curvature_field(p)
        r = p.evaluation[2]
        report = maximum_test_direction(p, field - r)
        sphere = max_latitude_sphere(p)
        width_rhs = (
            r - float(np.interp(sphere.theta, p.thetas, field))
        ) * sphere.area
        assert abs(report.trace_integral_over_max_sphere + width_rhs) < 1e-10

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximum_test_direction(bump_profile(101), np.zeros(51))

    def test_non_finite_direction_rejected(self):
        f = np.zeros(101)
        f[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            maximum_test_direction(bump_profile(101), f)

    def test_leaving_positive_cone_rejected(self):
        p = bump_profile(101)
        report = maximum_test_direction(p, np.cos(p.thetas))
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

    def test_long_run_with_moving_minimum_matches_reference(self):
        # Two dips of nearly equal depth: the narrow one fills first, so the
        # node of min(u), which the step carries through the renormalization,
        # moves across the grid and ends at the pole.
        profile = AxisymProfile.from_function(
            lambda t: 1.0 - 0.25 * np.exp(-(((t - 1.0) / 0.12) ** 2))
            - 0.24 * np.exp(-(((t - 2.2) / 0.3) ** 2)),
            201,
        )
        dt, steps, sample_every = 4e-5, 2000, 50
        trace = yamabe.run(profile, t_end=steps * dt, dt=dt, sample_every=sample_every)
        samples, monitors = implicit_flow_reference(
            profile.u, steps * dt, dt, sample_every, 1e-3, yamabe.STABILIZER
        )
        assert trace.monitors["t"].size == steps
        lows = {int(np.argmin(u)) for u in samples}
        assert len(lows) > 10 and int(np.argmin(samples[-1])) == 200
        assert len(trace.states) == len(samples)
        for state, u in zip(trace.states, samples):
            assert np.array_equal(state.profile.u, u)
        for key, values in monitors.items():
            assert np.array_equal(trace.monitors[key], values), key

    def test_step_matches_reference(self):
        state = yamabe.flow_state(bump_profile(101))
        after = yamabe.step(state, 1e-3)
        kernel = ReferenceFlowKernel(101)
        u, _ = reference_implicit_advance(
            kernel, state.profile.u.copy(), 1e-3, state.volume, yamabe.STABILIZER
        )
        assert np.array_equal(after.profile.u, u)
        _, vol, r = kernel.evaluate(u)
        assert after.volume == vol
        assert after.r_avg == r

    def test_energies_match_reference(self):
        profile = bump_profile(201)
        kernel = ReferenceFlowKernel(201)
        _, vol, r = kernel.evaluate(profile.u)
        assert profile.evaluation[2] == r
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


class TestFusedKernel:
    """The one kernel's invariants: exact on the round profile, and the
    textbook formulas to a rounding bound.  (The flow's sampled states equal
    ``flow_state`` of their profiles bit for bit:
    ``TestRun.test_states_equal_flow_state``.)"""

    @pytest.mark.parametrize("n", [101, 201, 401, 801])
    def test_round_profile_is_exactly_six(self, n):
        # Differences first: a constant u has S = 6 u exactly, so R = 6 at
        # every node, and a step moves no node.  r is a ratio of two dots,
        # so it may differ from 6 in the last bit; sup|R - r| is then |r - 6|.
        profile = AxisymProfile.round_profile(n)
        grid = latitude_grid(n)
        assert np.all(grid.evaluate(profile.u)[0] == 6.0)
        state = yamabe.flow_state(profile)
        assert np.all(state.profile.evaluation[0] == 6.0)
        assert state.sup_R_minus_r == abs(state.r_avg - 6.0) <= 4 * np.finfo(float).eps
        assert np.array_equal(yamabe.step(state, 1e-3).profile.u, profile.u)

    @pytest.mark.parametrize("n", [101, 201, 401, 801])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_textbook_formulas(self, n, seed):
        # The textbook route forms (u+ - 2u + u-) / h^2: each of its roundings
        # is at most eps max(u), so the second difference carries up to about
        # 4 eps max(u) / h^2, times 8 in S and over min(u)^5 in R; the bound
        # doubles that for the cot term and the fused side's own roundings,
        # and the powers add a few eps of |R|.  The integrals are sums of n terms, each
        # rounded a few times: at most (8 + 2n) eps relative for the positive
        # volume, and the bound on R plus (16 + 4n) eps max|R| for r.
        u = four_mode_profile(n, seed).u
        grid = latitude_grid(n)
        field, vol, r = grid.evaluate(u)
        ref_field, ref_vol, ref_r = textbook_evaluation(u)
        eps = np.finfo(float).eps
        top = float(np.max(np.abs(ref_field)))
        field_bound = 64 * eps * u.max() / (grid.h2 * u.min() ** 5) + 16 * eps * top
        assert np.max(np.abs(field - ref_field)) <= field_bound
        assert abs(vol - ref_vol) <= (8 + 2 * n) * eps * ref_vol
        assert abs(r - ref_r) <= field_bound + (16 + 4 * n) * eps * top
