"""Tests for the Berger-sphere invariants."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from widthlab.berger import (
    MAX_SCAN_POINTS,
    BergerReport,
    ROUND_NORMALIZED_WIDTH,
    _g,
    has_positive_ricci,
    local_min_certificate,
    normalized_width,
    report_at,
    scalar_curvature,
    scalar_normalized_bound_check,
    scan,
    volume,
    width,
    write_scan_csv,
)

from oracles import mc_berger_volume, parse_scan_csv, quad_berger_normalized_width



class TestClosedForms:
    def test_scalar_curvature_values(self):
        assert scalar_curvature(1.0) == pytest.approx(6.0)
        assert scalar_curvature(0.5) == pytest.approx(7.5)
        assert scalar_curvature(2.0) == pytest.approx(0.0)

    def test_ricci_window(self):
        assert has_positive_ricci(0.3)
        assert has_positive_ricci(1.0)
        assert has_positive_ricci(1.41)
        assert not has_positive_ricci(math.sqrt(2.0))
        assert not has_positive_ricci(1.5)

    def test_volume_linear_in_rho(self):
        assert volume(1.0) == pytest.approx(2.0 * np.pi**2, abs=1e-12)
        assert volume(0.25) == pytest.approx(0.5 * np.pi**2, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_domain_validation(self, bad):
        with pytest.raises(ValueError):
            scalar_curvature(bad)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 1.7])
    def test_volume_against_monte_carlo(self, rho):
        # Independent route: integrate the metric volume element over the
        # sphere; nothing here knows the closed form is linear in rho.
        mc = mc_berger_volume(rho, samples=100_000, seed=42)
        assert abs(mc - volume(rho)) / volume(rho) < 5e-3


class TestWidth:
    def test_round_normalized_width(self):
        value = normalized_width(1.0)
        assert abs(value - (16.0 / np.pi) ** (1.0 / 3.0)) < 1e-10
        assert abs(value - ROUND_NORMALIZED_WIDTH) < 1e-10

    def test_round_width_is_equator_area(self):
        assert abs(width(1.0) - 4.0 * np.pi) < 1e-9

    def test_small_rho_asymptote(self):
        # As rho -> 0 the integrand degenerates to |cos s| * rho^(-2/3), so
        # nw * rho^(2/3) -> (2/pi)^(1/3) * integral sin|cos| = (2/pi)^(1/3).
        limit = (2.0 / np.pi) ** (1.0 / 3.0)
        assert abs(normalized_width(1e-3) * (1e-3) ** (2.0 / 3.0) - limit) < 1e-4

    def test_large_rho_asymptote(self):
        # As rho -> infinity, nw * rho^(-1/3) -> (2/pi)^(1/3) * pi/2.
        limit = (2.0 / np.pi) ** (1.0 / 3.0) * np.pi / 2.0
        assert abs(normalized_width(1e4) * (1e4) ** (-1.0 / 3.0) - limit) < 1e-4 * limit

    def test_divergence_both_directions(self):
        assert normalized_width(1e-3) > normalized_width(1e-2) > normalized_width(0.5)
        assert normalized_width(1e3) > normalized_width(1e2) > normalized_width(2.0)
        # Doubling checks at the extremes.
        assert normalized_width(1e-3) > normalized_width(1e-2)
        assert normalized_width(1e3) > normalized_width(1e2)

    def test_matches_quadrature_oracle(self):
        # A log grid over the scanned range, then the round point's
        # neighbourhood, where the series takes over from asinh/asin.
        near_round = [1.0 + sign * 10.0**-k for k in range(2, 9) for sign in (1.0, -1.0)]
        for rho in [*np.geomspace(1e-3, 1e4, 51), *near_round]:
            oracle = quad_berger_normalized_width(rho)
            assert abs(normalized_width(rho) - oracle) <= 1e-12 * oracle, rho

    @pytest.mark.parametrize("z", [1e-3, -1e-3])
    def test_series_meets_elementary_formula(self, z):
        # The series serves |z| < 1e-3; at the switch point it must agree
        # with the asinh/asin formula it replaces.
        root = math.sqrt(abs(z))
        elementary = (math.asinh(root) if z > 0 else math.asin(root)) / root
        series = _g(math.nextafter(z, 0.0))
        assert abs(series - elementary) <= 1e-15 * elementary
        assert _g(z) == elementary

    @pytest.mark.parametrize("rho", [7.4e-155, 1e-200, 1e-232, 1e-300])
    def test_leaving_floating_point_raises(self, rho):
        # z overflows below rho ~ 7.5e-155 (G(inf) is nan), rho^(-4/3)
        # below rho ~ 1e-231.
        with pytest.raises(ArithmeticError, match=f"at rho={rho!r}$"):
            normalized_width(rho)
        with pytest.raises(ArithmeticError):
            report_at(rho)

    @pytest.mark.parametrize(
        "rho, finite",
        [
            # rho^2 overflows above rho ~ 9.5e153; the volume and the width
            # stay finite there.
            (1e154, ("volume", "width", "normalized_width")),
            # 2 pi^2 rho overflows above rho ~ 9.1e306; the width takes the
            # volume's error.  The normalized width stays finite.
            (1e307, ("normalized_width",)),
            (1.7e308, ("normalized_width",)),
        ],
    )
    def test_large_rho_leaving_floating_point_raises(self, rho, finite):
        named = f"at rho={re.escape(repr(rho))}$"
        for fn in (scalar_curvature, volume, width, normalized_width):
            if fn.__name__ in finite:
                assert math.isfinite(fn(rho))
            else:
                with pytest.raises(ArithmeticError, match=named):
                    fn(rho)
        with pytest.raises(ArithmeticError, match=named):
            report_at(rho)

    def test_width_normalization_consistency(self):
        for rho in (0.3, 1.0, 1.9):
            rep = report_at(rho)
            assert rep.width / rep.volume ** (2.0 / 3.0) == pytest.approx(
                rep.normalized_width, rel=1e-13
            )


class TestScan:
    def test_grid_is_log_spaced_and_monotone(self):
        reports = scan(0.1, 10.0, 5)
        rhos = [rep.rho for rep in reports]
        assert rhos == sorted(rhos)
        ratios = np.diff(np.log(rhos))
        assert np.allclose(ratios, ratios[0])

    def test_middle_of_symmetric_window_is_smallest(self):
        reports = scan(0.9, 1.1, 3)
        values = [rep.normalized_width for rep in reports]
        assert values[1] < values[0]
        assert values[1] < values[2]

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            scan(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            scan(2.0, 1.0, 3)
        with pytest.raises(ValueError):
            scan(0.5, 1.5, 1)
        with pytest.raises(ValueError):
            scan(0.5, 1.5, MAX_SCAN_POINTS + 1)
        for lo, hi in ((0.5, np.inf), (np.nan, 1.0), (0.5, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                scan(lo, hi, 3)

    def test_csv_round_trip_byte_identical(self, tmp_path):
        reports = scan(0.5, 2.0, 4)
        first = tmp_path / "scan.csv"
        second = tmp_path / "scan2.csv"
        write_scan_csv(reports, str(first))
        recovered = parse_scan_csv(str(first))
        assert recovered == reports
        write_scan_csv(recovered, str(second))
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()[0]
        assert header == "rho,scalar_curvature,ricci_positive,volume,width,normalized_width"


class TestLocalMinCertificate:
    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_round_metric_is_strict_local_min(self, h):
        cert = local_min_certificate(h)
        assert cert.passed
        assert abs(cert.first_difference) < 1e-4
        assert cert.second_difference > 0.0

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_differences_bit_for_bit(self, h):
        lo, mid, hi = normalized_width(1.0 - h), normalized_width(1.0), normalized_width(1.0 + h)
        cert = local_min_certificate(h)
        assert cert.first_difference == (hi - lo) / (2.0 * h)
        assert cert.second_difference == (lo - 2.0 * mid + hi) / (h * h)

    def test_second_difference_magnitude(self):
        # Frozen from the quadrature of the analytic second derivative of the
        # width integrand at rho = 1 (value 0.7111 * (2/pi)^(1/3) = 0.6117).
        cert = local_min_certificate(1e-2)
        assert cert.second_difference == pytest.approx(0.61174, abs=5e-4)

    @pytest.mark.parametrize("h", [0.0, 0.5, 0.7, -1e-3])
    def test_step_domain(self, h):
        with pytest.raises(ValueError):
            local_min_certificate(h)


class TestProductBound:
    def test_equality_at_round(self):
        check = scalar_normalized_bound_check(1.0)
        assert check.passed
        assert check.equality
        assert check.product == pytest.approx(24.0 * np.pi, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.2, 0.5, 1.5, 1.9])
    def test_strict_inequality_off_round(self, rho):
        check = scalar_normalized_bound_check(rho)
        assert check.passed
        assert not check.equality
        assert check.product < 24.0 * np.pi

    @pytest.mark.parametrize("rho", [2.0, 2.5])
    def test_domain_cutoff(self, rho):
        with pytest.raises(ValueError):
            scalar_normalized_bound_check(rho)


class TestReportValidation:
    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
    def test_rho_must_be_positive(self, rho):
        with pytest.raises(ValueError, match="report requires rho > 0"):
            BergerReport(
                rho=rho,
                scalar_curvature=6.0,
                ricci_positive=True,
                volume=2.0 * np.pi**2,
                width=4.0 * np.pi,
                normalized_width=4.0 * np.pi / (2.0 * np.pi**2) ** (2.0 / 3.0),
            )

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            BergerReport(
                rho=1.0,
                scalar_curvature=6.0,
                ricci_positive=True,
                volume=2.0 * np.pi**2,
                width=4.0 * np.pi,
                normalized_width=1.9,
            )
