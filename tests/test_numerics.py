"""Tests for the quadrature and uniform-grid kernels."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from widthlab.conformal import AxisymProfile
from widthlab.numerics import (
    QuadratureConfig,
    QuadratureError,
    central_second_difference,
    critical_points,
    integrate_adaptive,
    latitude_grid,
)

from oracles import composite_simpson


class TestIntegrateAdaptive:
    def test_sin_over_period_half(self):
        result = integrate_adaptive(np.sin, 0.0, np.pi, QuadratureConfig(abs_tol=1e-12))
        assert abs(result - 2.0) < 1e-12

    def test_polynomial_exact(self):
        # Simpson is exact on cubics, so the adaptive driver should terminate
        # immediately and reproduce the closed form.
        result = integrate_adaptive(lambda x: x**3 - 2.0 * x, 0.0, 2.0, QuadratureConfig(1e-13, 4))
        assert abs(result - 0.0) < 1e-13

    def test_sqrt_singularity_within_tolerance(self):
        result = integrate_adaptive(np.sqrt, 0.0, 1.0, QuadratureConfig(abs_tol=1e-10))
        assert abs(result - 2.0 / 3.0) < 1e-9

    def test_empty_interval(self):
        assert integrate_adaptive(np.exp, 1.5, 1.5) == 0.0

    def test_depth_exhaustion_carries_estimate(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_adaptive(np.sqrt, 0.0, 1.0, QuadratureConfig(abs_tol=1e-14, max_depth=3))
        err = excinfo.value
        assert abs(err.estimate - 2.0 / 3.0) < 2e-3
        assert err.error_bound > 1e-14

    def test_non_finite_integrand_rejected(self):
        f = lambda x: np.inf if x == 0.0 else 1.0 / x
        with pytest.raises(ValueError):
            integrate_adaptive(f, 0.0, 1.0)

    def test_linearity_within_tolerance(self):
        # |I(a f + b g) - a I(f) - b I(g)| should stay within 2 * abs_tol.
        tol = 1e-9
        cfg = QuadratureConfig(abs_tol=tol)
        rng = np.random.default_rng(7)
        for _ in range(5):
            alpha, beta = rng.uniform(-3.0, 3.0, size=2)
            f = np.sin
            g = lambda x: np.exp(-x) * np.cos(3.0 * x)
            combined = integrate_adaptive(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, cfg)
            separate = alpha * integrate_adaptive(f, 0.0, 2.0, cfg) + beta * integrate_adaptive(
                g, 0.0, 2.0, cfg
            )
            assert abs(combined - separate) <= 2.0 * tol * (1.0 + abs(alpha) + abs(beta))

    def test_even_symmetry_halving(self):
        cfg = QuadratureConfig(abs_tol=1e-11)
        f = lambda x: np.cos(x) ** 2 + 0.3 * x**4
        full = integrate_adaptive(f, -1.2, 1.2, cfg)
        half = integrate_adaptive(f, 0.0, 1.2, cfg)
        assert abs(full - 2.0 * half) <= 2.0 * cfg.abs_tol

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=1e-8, max_depth=0)


class TestCentralSecondDifference:
    def test_quadratic_is_exact(self):
        value = central_second_difference(lambda x: 3.0 * x**2 + x - 1.0, 0.7, 1e-3)
        assert abs(value - 6.0) < 1e-8

    def test_cosine(self):
        value = central_second_difference(np.cos, 0.0, 1e-4)
        assert abs(value - (-1.0)) < 1e-6

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            central_second_difference(np.cos, 0.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            central_second_difference(lambda x: np.inf, 0.0, 0.1)


def sampled(fn, n):
    """Values of fn at the nodes of the n-node latitude grid."""
    return fn(latitude_grid(n).thetas)


class TestCriticalPoints:
    def test_sin_squared_single_max(self):
        g = sampled(lambda t: np.sin(t) ** 2, 101)
        assert critical_points(g) == [(50, "max")]

    def test_constant_is_one_flat_run(self):
        g = np.full(11, 2.5)
        points = critical_points(g)
        assert len(points) == 1
        assert points[0][1] == "saddle-flat"

    def test_double_bump(self):
        g = sampled(lambda t: np.sin(2.0 * t) ** 2 + 0.1 * np.sin(t), 201)
        kinds = [kind for _, kind in critical_points(g)]
        assert kinds == ["max", "min", "max"]

    def test_shift_invariance(self):
        # Adding a constant must not change the reported critical points.
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.standard_normal(41))
        base = critical_points(values)
        shifted = critical_points(values + 17.25)
        assert base == shifted

    def test_flow_style_profile(self):
        # Area profile of the standard one-bump conformal factor: single max.
        u = lambda t: 1.0 + 0.3 * np.cos(t)
        g = sampled(lambda t: np.sin(t) ** 2 * u(t) ** 4, 401)
        points = critical_points(g)
        assert len(points) == 1
        assert points[0][1] == "max"


SIMPSON_TABLE = [(5, 1e-12), (6, 6e-3), (7, 1e-12), (101, 1e-9), (128, 1e-7)]


class TestCompositeSimpson:
    @pytest.mark.parametrize("n,tol", SIMPSON_TABLE)
    def test_matches_closed_form(self, n, tol):
        grid = latitude_grid(n)
        value = grid.simpson @ np.sin(grid.thetas) ** 2
        assert value == pytest.approx(np.pi / 2.0, abs=tol)

    @pytest.mark.parametrize("n", [n for n, _ in SIMPSON_TABLE])
    def test_weights_match_sample_rule(self, n):
        # The weight of node i is the sample-based rule applied to e_i.
        grid = latitude_grid(n)
        expected = np.array([composite_simpson(e, grid.h) for e in np.eye(n)])
        np.testing.assert_allclose(grid.simpson, expected, rtol=1e-15, atol=0.0)

    def test_fourth_order_convergence(self):
        exact = np.expm1(np.pi)
        e1, e2 = (
            abs(latitude_grid(n).simpson @ np.exp(latitude_grid(n).thetas) - exact)
            for n in (33, 65)
        )
        assert e1 / e2 > 12.0  # order ~4 gives ratio ~16


class TestLatitudeGrid:
    def test_shared_per_size(self):
        assert latitude_grid(101) is latitude_grid(101)
        assert AxisymProfile.round_profile(101).thetas is latitude_grid(101).thetas

    def test_nodes(self):
        grid = latitude_grid(101)
        assert np.array_equal(grid.thetas, np.linspace(0.0, np.pi, 101))
        assert grid.h == np.pi / 100 and grid.h2 == grid.h * grid.h

    def test_shared_arrays_are_read_only(self):
        # One grid per n is shared by every caller, so none of its arrays,
        # and no scratch buffer, may be written.
        grid = latitude_grid(101)
        arrays = [value for value in vars(grid).values() if isinstance(value, np.ndarray)]
        assert len(arrays) >= 5
        for values in arrays:
            with pytest.raises(ValueError):
                values[1] = 0.0

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            latitude_grid(4)
        with pytest.raises(ValueError):
            AxisymProfile.from_function(np.cos, 4)


def neumann_matrix(n: int, a: float) -> np.ndarray:
    """Dense ``I - a D2`` with the ghost-node rows ``[-2, 2] / h^2`` at the ends."""
    h2 = latitude_grid(n).h2
    d2 = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    d2[0, 1] = d2[-1, -2] = 2.0
    return np.eye(n) - a * d2 / h2


class TestNeumannSolve:
    @pytest.mark.parametrize("n", [5, 11, 401])
    @pytest.mark.parametrize("a", [0.0, 1e-5, 1e-3, 1e-2])
    def test_matches_dense_solve(self, n, a):
        rhs = np.random.default_rng(n).standard_normal(n)
        expected = np.linalg.solve(neumann_matrix(n, a), rhs)
        solved = latitude_grid(n).neumann_solve(a, rhs)
        assert np.max(np.abs(solved - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [5, 11, 401])
    def test_eigenvalues(self, n):
        # mu_k are the eigenvalues of -D2, with the cosines as eigenvectors.
        grid = latitude_grid(n)
        d2 = np.eye(n) - neumann_matrix(n, 1.0)
        expected = np.sort(np.linalg.eigvals(-d2).real)
        assert np.allclose(grid.mu, expected, rtol=1e-10, atol=1e-10 * grid.mu[-1])
        k = n // 3
        mode = np.cos(k * grid.thetas)
        assert np.allclose(d2 @ mode, -grid.mu[k] * mode, atol=1e-9 * grid.mu[k])

    def test_input_is_not_modified(self):
        rhs = np.linspace(0.0, 1.0, 11)
        latitude_grid(11).neumann_solve(1e-3, rhs)
        assert np.array_equal(rhs, np.linspace(0.0, 1.0, 11))


def test_cli_import_does_not_load_numpy_fft():
    # Only the flow's implicit step reaches numpy.fft, so the subcommands
    # that do not run the flow pay no import time or memory for it.
    src = pathlib.Path(__file__).parent.parent / "src"
    probe = (
        "import sys; import numpy; before = 'numpy.fft' in sys.modules; "
        "import widthlab.cli; print(before, 'numpy.fft' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.fft with numpy itself")
    assert out == ["False", "False"]
