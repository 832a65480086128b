"""Acceptance suite: the twelve release criteria at pinned tolerances.

Each test prints one summary line (``[criterion NN] PASS/FAIL ...``) and then
asserts, so a red criterion is visible both in the pytest report and in the
captured output.  Expensive flow traces are shared across criteria through
module-scoped fixtures.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import widthlab.berger as bg
import widthlab.conformal as cf
import widthlab.equidist as eq
import widthlab.yamabe as ym

from oracles import equivalence_harness, mc_berger_volume

ROUND_NW = (16.0 / math.pi) ** (1.0 / 3.0)
PRODUCT_BOUND = 24.0 * math.pi

# Collected verdict lines; conftest echoes them in the terminal summary so
# they are visible even though pytest captures stdout of passing tests.
CRITERION_LINES: list[str] = []


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f" — {detail}" if detail else ""
    line = f"[criterion {num:02d}] {tag} {name}{suffix}"
    CRITERION_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def flow_trace_401():
    """Criterion-6 configuration, shared with criterion 7."""
    profile = cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(t), 401)
    return ym.run(profile, t_end=5.0, dt=1e-5, sample_every=500, convergence_tol=1e-3)


def test_criterion_01_round_berger_values():
    nw = bg.normalized_width(1.0)
    w = bg.width(1.0)
    nw_ok = abs(nw - ROUND_NW) < 1e-6
    w_ok = abs(w - 4.0 * math.pi) < 1e-5
    _report(1, "round normalized width and width", nw_ok and w_ok,
            f"nw = {nw:.8f} (target {ROUND_NW:.8f}), width = {w:.8f}")
    assert nw_ok and w_ok


def test_criterion_02_local_minimum_at_round():
    results = []
    for h in (1e-2, 1e-3):
        certificate = bg.local_min_certificate(h, first_tol=1e-4)
        results.append(certificate)
    ok = all(
        abs(c.first_difference) < 1e-4 and c.second_difference > 0.0 for c in results
    )
    _report(2, "normalized width local minimum at rho = 1", ok,
            ", ".join(f"h={c.h:g}: d1={c.first_difference:.2e}, "
                      f"d2={c.second_difference:.4f}" for c in results))
    assert ok


def test_criterion_03_unbounded_both_directions():
    base = bg.normalized_width(1.0)
    small = bg.normalized_width(1e-3)
    large = bg.normalized_width(1e4)
    ricci_ok = bg.has_positive_ricci(1e-3)
    ok = small > 5.0 * base and large > 5.0 * base and ricci_ok
    _report(3, "normalized width divergence with positive-Ricci witness", ok,
            f"nw(1e-3) = {small:.2f}, nw(1e4) = {large:.2f}, 5x base = {5 * base:.2f}, "
            f"Ricci > 0 at rho = 1e-3: {ricci_ok}")
    assert ok


def test_criterion_04_product_bound_on_grid_with_mc_volume():
    # The closed-form volume feeding the product bound is validated first by
    # an independent Monte Carlo integration of the metric volume element.
    mc_ok = True
    for rho in (0.5, 1.0, 1.7):
        estimate = mc_berger_volume(rho, samples=1_000_000, seed=2026)
        mc_ok &= abs(estimate - bg.volume(rho)) / bg.volume(rho) < 5e-3
    rhos = np.geomspace(1e-2, 1.99, 100)
    checks = [bg.scalar_normalized_bound_check(r, tol=1e-4) for r in rhos]
    below = all(c.product <= PRODUCT_BOUND + 1e-4 for c in checks)
    equality_only_at_round = all(
        abs(c.rho - 1.0) < 0.05 for c in checks if c.equality
    )
    at_round = bg.scalar_normalized_bound_check(1.0, tol=1e-4)
    ok = mc_ok and below and equality_only_at_round and at_round.equality
    _report(4, "width * (8 - 2 rho^2) <= 24 pi on (0, 2)", ok,
            f"MC volume ok = {mc_ok}, max product = {max(c.product for c in checks):.6f}, "
            f"bound = {PRODUCT_BOUND:.6f}, equality at rho = 1: {at_round.equality}")
    assert ok


def test_criterion_05_round_geometry_suite():
    profile = cf.AxisymProfile.round_profile(401)
    vol = cf.volume(profile)
    curvature = cf.scalar_curvature_field(profile)
    area = cf.sphere_area(profile, math.pi / 2.0)
    spectrum = cf.jacobi_spectrum(profile, math.pi / 2.0)
    vol_ok = abs(vol - 2.0 * math.pi**2) < 1e-8
    r_ok = float(np.max(np.abs(curvature - 6.0))) < 1e-8
    area_ok = abs(area - 4.0 * math.pi) < 1e-10
    q_ok = abs(spectrum.jacobi_Q - 2.0) < 1e-12
    morse_ok = spectrum.index == 1 and spectrum.nullity == 3
    ok = vol_ok and r_ok and area_ok and q_ok and morse_ok
    _report(5, "round-metric geometry suite", ok,
            f"volume = {vol:.10f}, sup|R - 6| = {np.max(np.abs(curvature - 6.0)):.2e}, "
            f"Q = {spectrum.jacobi_Q:.6f}, index = {spectrum.index}, "
            f"nullity = {spectrum.nullity}")
    assert ok


def test_criterion_06_flow_conservation_and_monotonicity(flow_trace_401):
    trace = flow_trace_401
    monitors = trace.monitors
    drift = float(np.max(np.abs(monitors["volume_drift"])))
    energy_steps = np.diff(monitors["energy"])
    max_energy_rise = float(energy_steps.max()) if energy_steps.size else 0.0
    r = monitors["r_avg"]
    r_floor_ok = bool(np.min(r) >= r[-1] - 1e-6)
    converged = trace.status == "converged"
    final_gap = float(monitors["sup_R_minus_r"][-1])
    ok = (
        drift <= 1e-12
        and max_energy_rise <= 1e-8
        and r_floor_ok
        and converged
        and final_gap < 1e-3
    )
    _report(6, "flow volume/energy/r monotonicity and convergence", ok,
            f"max drift = {drift:.2e}, max energy step = {max_energy_rise:.2e}, "
            f"status = {trace.status} at t = {trace.states[-1].time:.5f}, "
            f"final sup|R - r| = {final_gap:.2e}")
    assert ok


def test_criterion_07_product_bound_along_trace(flow_trace_401):
    report = ym.theorem1_monitor(flow_trace_401, tol=1e-3)
    final_ok = abs(report.final_normalized_width - ROUND_NW) <= 0.005 * ROUND_NW
    ok = report.passed and final_ok
    _report(7, "trace product bound and final normalized width", ok,
            f"width * r = {report.product_at_max:.5f} (error terms "
            f"{report.error_term:.1e} included) vs {report.bound:.5f} + 1e-3 "
            f"at tau* = {report.tau_star}; latitude "
            f"bound * r = {report.latitude_product_at_max:.5f} at tau* = "
            f"{report.latitude_tau_star}; final nw = {report.final_normalized_width:.7f} "
            f"({'within' if final_ok else 'outside'} 0.5% of round)")
    # Frozen measurement: the latitude product peaks at the initial squashed
    # profile.
    assert report.latitude_tau_star == 0.0
    assert report.latitude_product_at_max == pytest.approx(82.11740, abs=2e-3)
    assert final_ok
    assert report.passed, (
        f"width * r = {report.product_at_max:.5f} exceeds {report.bound:.5f} "
        f"+ 1e-3 at tau* = {report.tau_star}. The width is bounded by the least "
        "maximal sphere of the tilted round-sphere sweep-outs (the latitude "
        f"family among them), error terms {report.error_term:.1e} included; "
        "even this tight bound exceeds 24 pi along the trace."
    )


def test_grid_gap_inside_criterion_07_margin(flow_trace_401):
    # Criterion 7's flow on every second node: its product at the width
    # maximum moves from the n = 401 value by less than criterion 7's margin
    # below 24 pi + 1e-3 (measured: a gap of 3.6e-4 against a margin of
    # 2.1e-3), so the grid does not decide the verdict.  The gap behaves as
    # second order (9.1e-5 from n = 401 to 801), so the n = 401 error is
    # about a quarter of it.
    profile = cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(t), 201)
    coarse = ym.run(profile, t_end=5.0, dt=1e-5, sample_every=500, convergence_tol=1e-3)
    fine_report = ym.theorem1_monitor(flow_trace_401, tol=1e-3)
    coarse_report = ym.theorem1_monitor(coarse, tol=1e-3)
    margin = fine_report.bound + 1e-3 - fine_report.product_at_max
    gap = abs(fine_report.product_at_max - coarse_report.product_at_max)
    assert coarse.status == "converged"
    assert gap < margin


def test_criterion_08_derivative_formula_refinement():
    def monitor_ratio(n: int, dt: float, sample_every: int):
        profile = cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(t), n)
        trace = ym.run(profile, t_end=0.01, dt=dt, sample_every=sample_every,
                       convergence_tol=0.0)
        records = ym.width_derivative_monitor(trace)
        residual = max(abs(r["residual"]) for r in records)
        scale = max(abs(r["rhs"]) for r in records)
        return residual / scale

    coarse = monitor_ratio(201, 4e-5, 25)
    medium = monitor_ratio(401, 2e-5, 50)
    fine = monitor_ratio(801, 1e-5, 100)
    order_cm = math.log2(coarse / medium)
    order_mf = math.log2(medium / fine)
    ok = fine <= 0.05 and order_cm >= 1.0 and order_mf >= 1.0
    _report(8, "width derivative formula residual and refinement order", ok,
            f"relative residuals = {coarse:.4f} / {medium:.4f} / {fine:.4f} "
            f"(n = 201/401/801), orders = {order_cm:.2f}, {order_mf:.2f}")
    assert ok


def test_criterion_09_great_sphere_averages():
    squared = cf.great_sphere_average_check(lambda x: x[:, 3] ** 2, 100_000, seed=2026)
    odd = cf.great_sphere_average_check(lambda x: x[:, 3], 100_000, seed=2026)
    squared_again = cf.great_sphere_average_check(
        lambda x: x[:, 3] ** 2, 100_000, seed=2026
    )
    rel_ok = squared.rel_err < 2e-2
    abs_ok = abs(odd.lhs - odd.rhs) < 2e-2
    repro_ok = squared == squared_again
    ok = rel_ok and abs_ok and repro_ok
    _report(9, "great-sphere vs volume averages (Monte Carlo)", ok,
            f"x4^2: lhs = {squared.lhs:.6f}, rhs = {squared.rhs:.6f}, "
            f"rel = {squared.rel_err:.2e}; x4: |lhs - rhs| = {abs(odd.lhs - odd.rhs):.2e}; "
            f"seed-reproducible = {repro_ok}")
    assert ok


def test_criterion_10_equivalence_harness():
    report = equivalence_harness(seed=42, trials=200)
    ok = report.passed and report.trials == 200
    _report(10, "membership equivalence harness (200 seeded instances)", ok,
            f"{report.member_count} members, {report.non_member_count} non-members, "
            f"{len(report.inconsistencies)} inconsistencies")
    assert report.inconsistencies == ()
    assert ok


def test_criterion_11_rational_approximation_self_check():
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        alphas = rng.uniform(0.001, 1.0, size=n)
        eps = 1e-2 if trial % 2 == 0 else 1e-4
        result = eq.rational_approximation(alphas, eps)
        assert all(
            abs(a - c / result.d) < eps / n
            for a, c in zip(alphas, result.numerators)
        )
        checked += 1
    ok = checked == 1000
    _report(11, "rational approximation bound on 1000 random vectors", ok,
            "eps in {1e-2, 1e-4}, every output re-verified")
    assert ok


def test_criterion_12_scale_invariance_suite():
    base = cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(t), 201)
    base_nw = cf.width_upper_bound(base) / cf.volume(base) ** (2.0 / 3.0)
    base_energy = ym.hilbert_einstein_energy(base)
    theta_star = cf.minimal_coordinate_spheres(base)[0].theta
    base_spectrum = cf.jacobi_spectrum(base, theta_star)
    ok = True
    details = []
    for c in (0.5, 2.0, 10.0):
        scaled = cf.AxisymProfile.from_function(
            lambda t: c * (1.0 + 0.3 * np.cos(t)), 201
        )
        nw = cf.width_upper_bound(scaled) / cf.volume(scaled) ** (2.0 / 3.0)
        energy = ym.hilbert_einstein_energy(scaled)
        spectrum = cf.jacobi_spectrum(
            scaled, cf.minimal_coordinate_spheres(scaled)[0].theta
        )
        nw_ok = abs(nw - base_nw) < 1e-10 * base_nw
        energy_ok = abs(energy - base_energy) < 1e-6 * abs(base_energy)
        morse_ok = (
            spectrum.index == base_spectrum.index
            and spectrum.nullity == base_spectrum.nullity
        )
        ok &= nw_ok and energy_ok and morse_ok
        details.append(f"c={c:g}: nw ok={nw_ok}, E ok={energy_ok}, morse ok={morse_ok}")
    _report(12, "scale invariance of normalized width, energy, Morse data", ok,
            "; ".join(details))
    assert ok
