"""Shared numerical kernels: adaptive quadrature and the latitude grid.

The module has two primitives: an adaptive Simpson integrator with
Richardson error control, and ``latitude_grid(n)``, the one discretization of
the uniform grid theta_i = i * pi / (n - 1) over [0, pi]: nodes, composite
Simpson weights, the scalar-curvature stencil of conformal metrics
``u^4 g_round``, and the Neumann second-difference solve of the flow's
implicit step.  Volumes, areas, curvature fields and the flow all evaluate
through it.  A grid holds only read-only arrays, so one instance per n is
shared; data on the grid are plain float arrays of the n node values.  The
Berger width and the Jacobi term are closed forms, so the adaptive
integrator serves only the fine-grid cross-check
``conformal.second_variation_oracle`` and the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "LatitudeGrid",
    "latitude_grid",
    "integrate_adaptive",
    "central_second_difference",
    "critical_points",
]

# Grids held by ``latitude_grid``; a run touches one or two sizes at a time.
GRID_CACHE_SIZE = 8


class QuadratureError(RuntimeError):
    """Raised when adaptive subdivision exhausts its depth budget.

    The best available estimate and the achieved (not requested) error bound
    are attached so callers can decide whether the partial result is usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance and recursion budget for adaptive integration."""

    abs_tol: float = 1e-10
    max_depth: int = 48

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive Simpson subdivision.

    Each interval is accepted when the Richardson error estimate
    ``|S_halves - S_whole| / 15`` falls below its share of the absolute
    tolerance; the returned value includes the Richardson correction, so the
    discretization error on accepted intervals is O(h^6) per interval.

    Raises:
        QuadratureError: if some subinterval still fails its local tolerance
            at ``max_depth``.  The exception carries the best estimate of the
            whole integral and the achieved error bound.
        ValueError: if ``f`` returns a non-finite value.
    """
    if config is None:
        config = QuadratureConfig()
    if a == b:
        return 0.0

    def evaluate(x: float) -> float:
        y = float(f(x))
        if not np.isfinite(y):
            raise ValueError(f"integrand returned non-finite value {y} at x={x}")
        return y

    fa, fb = evaluate(a), evaluate(b)
    m = 0.5 * (a + b)
    fm = evaluate(m)
    whole = _simpson(fa, fm, fb, b - a)

    total = 0.0
    achieved = 0.0
    exhausted = False
    eps_machine = float(np.finfo(float).eps)
    # Explicit stack of (a, m, b, fa, fm, fb, S, tol, depth); keeps recursion
    # depth independent of max_depth.
    stack = [(a, m, b, fa, fm, fb, whole, config.abs_tol, 1)]
    while stack:
        xa, xm, xb, ya, ym, yb, s_whole, tol, depth = stack.pop()
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        ylm, yrm = evaluate(lm), evaluate(rm)
        s_left = _simpson(ya, ylm, ym, xm - xa)
        s_right = _simpson(ym, yrm, yb, xb - xm)
        err = (s_left + s_right - s_whole) / 15.0
        # An error estimate at the roundoff scale of the local values cannot
        # be improved by subdividing; accept it to keep the tolerance shares
        # from chasing noise below machine precision on large integrands.
        limit = max(tol, 16.0 * eps_machine * (abs(s_left) + abs(s_right)))
        if abs(err) <= limit or depth >= config.max_depth:
            total += s_left + s_right + err
            achieved += abs(err)
            if abs(err) > limit:
                exhausted = True
        else:
            half_tol = 0.5 * tol
            stack.append((xa, lm, xm, ya, ylm, ym, s_left, half_tol, depth + 1))
            stack.append((xm, rm, xb, ym, yrm, yb, s_right, half_tol, depth + 1))

    # Individual intervals may blow their per-interval share at max_depth (the
    # shares shrink geometrically near integrable singularities) while the
    # summed achieved bound still meets the caller's request; only a genuine
    # miss of the requested tolerance is an error.
    if exhausted and achieved > config.abs_tol:
        raise QuadratureError(
            f"adaptive Simpson exhausted max_depth={config.max_depth} "
            f"(estimate {total!r}, achieved error bound {achieved:.3e}, "
            f"requested {config.abs_tol:.3e})",
            estimate=total,
            error_bound=achieved,
        )
    return total


def central_second_difference(f: Callable[[float], float], x: float, h: float) -> float:
    """Second derivative estimate ``(f(x-h) - 2 f(x) + f(x+h)) / h**2``."""
    if not (h > 0.0):
        raise ValueError(f"step h must be positive, got {h}")
    values = (f(x - h), f(x), f(x + h))
    if not all(np.isfinite(v) for v in values):
        raise ValueError(f"non-finite evaluation in second difference at x={x}, h={h}")
    return (values[0] - 2.0 * values[1] + values[2]) / (h * h)


class LatitudeGrid:
    """Nodes, Simpson weights and curvature stencil of one latitude grid.

    Holds ``h``, ``h2``, ``thetas``, ``sin2 = sin(thetas)^2``, the interior
    ``cot_inner``, the composite Simpson weights ``simpson`` (with a 3/8 tail
    when the interval count is odd) and the eigenvalues ``mu`` of the Neumann
    second difference (see ``neumann_solve``).  ``latitude_grid`` shares one
    instance per n, so its arrays are read-only; the grid has no other
    state, and every method returns fresh arrays or floats.
    """

    def __init__(self, n: int):
        if n < 5:
            raise ValueError(f"grid needs at least 5 nodes, got {n}")
        self.h = np.pi / (n - 1)
        self.h2 = self.h * self.h
        self.thetas = np.linspace(0.0, np.pi, n)
        self.sin2 = np.sin(self.thetas) ** 2
        self.cot_inner = 1.0 / np.tan(self.thetas[1:-1])
        w = np.zeros(n)
        m = n - 1
        if m % 2 == 0:
            w[0] = w[-1] = 1.0
            w[1:-1:2] = 4.0
            w[2:-2:2] = 2.0
            w *= self.h / 3.0
        else:
            head = m - 3
            if head > 0:
                w[0] = 1.0
                w[1:head:2] = 4.0
                w[2:head:2] = 2.0
                w[head] = 1.0
                w[:head + 1] *= self.h / 3.0
            w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * self.h / 8.0)
        self.simpson = w
        self.mu = 4.0 * np.sin(np.arange(n) * (np.pi / (2 * m))) ** 2 / self.h2
        for shared in (self.thetas, self.sin2, self.cot_inner, self.simpson, self.mu):
            shared.flags.writeable = False

    def scalar_curvature(self, u: np.ndarray) -> np.ndarray:
        """Scalar curvature ``(-8 lap(u) + 6 u) / u^5`` of ``u^4 g_round``.

        ``lap(u) = u'' + 2 cot(theta) u'`` takes centered differences in the
        interior and, at the poles, the even-symmetry ghost-node rows
        ``lap(0) = 6 (u_1 - u_0) / h^2`` (and mirrored at pi): second order
        for smooth axisymmetric profiles, and damping as flow dynamics.
        """
        up, dn = u[2:], u[:-2]
        scalar = np.empty_like(u)
        lap = scalar[1:-1]
        np.subtract(up, 2.0 * u[1:-1], out=lap)
        lap += dn
        lap /= self.h2
        lap += self.cot_inner * (up - dn) / self.h
        scalar[0] = 6.0 * (u.item(1) - u.item(0)) / self.h2
        scalar[-1] = 6.0 * (u.item(-2) - u.item(-1)) / self.h2
        scalar *= -8.0
        scalar += 6.0 * u
        scalar /= u**5.0
        return scalar

    def evaluate(self, u: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Scalar curvature, volume and volume-averaged curvature of u.

        ``u^6`` is formed once and serves both integrals.  A volume that is
        not positive (``u^6`` underflowed) raises ``ValueError``.
        """
        scalar = self.scalar_curvature(u)
        u6 = u**6.0
        vol = 4.0 * np.pi * float(self.simpson.dot(u6 * self.sin2))
        if not vol > 0.0:
            raise ValueError(f"volume {vol!r} is not positive (min(u) = {u.min():.3e})")
        r = 4.0 * np.pi * float(self.simpson.dot(scalar * u6 * self.sin2)) / vol
        return scalar, vol, r

    def volume(self, u: np.ndarray) -> float:
        """Volume ``4 pi * integral u^6 sin^2(theta) d theta``."""
        return 4.0 * np.pi * float(self.simpson.dot(u**6.0 * self.sin2))

    def neumann_solve(self, a: float, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - a D2) x = rhs`` for ``a >= 0`` by a DCT-I.

        D2 is the Neumann three-point second difference:
        ``(x[i-1] - 2 x[i] + x[i+1]) / h^2`` inside and the ghost-node rows
        ``2 (x[1] - x[0]) / h^2`` (mirrored at pi) at the ends.  Its
        eigenvectors are the cosines ``cos(pi j k / (n - 1))`` with
        eigenvalues ``-mu_k``, ``mu_k = 4 sin^2(pi k / (2 (n - 1))) / h^2``,
        so the solve divides the DCT-I of rhs by ``1 + a mu_k`` and
        transforms back.  The DCT-I is the real FFT of the even extension
        ``rhs[0], ..., rhs[n-1], rhs[n-2], ..., rhs[1]``.
        """
        even = np.concatenate((rhs, rhs[-2:0:-1]))
        spectrum = np.fft.rfft(even)
        spectrum /= self.mu * a + 1.0
        return np.fft.irfft(spectrum, even.size)[:rhs.size]

    def average_r(self, scalar: np.ndarray, u: np.ndarray, vol: float) -> float:
        """Volume average of a field, given the volume of u."""
        return 4.0 * np.pi * float(self.simpson @ (scalar * u**6 * self.sin2)) / vol


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def latitude_grid(n: int) -> LatitudeGrid:
    """The shared ``LatitudeGrid`` with n nodes."""
    return LatitudeGrid(n)


def critical_points(values: np.ndarray) -> list[tuple[int, str]]:
    """Locate interior extrema of node values on the latitude grid.

    Sign changes of the forward difference ``d = np.diff(values)`` mark the
    strict extrema; the discrete second difference ``d_i - d_{i-1}`` decides
    between ``"max"`` and ``"min"``.  Maximal runs of exactly-zero forward
    differences are reported once as ``"saddle-flat"`` at the run's middle
    interior node.

    Returns:
        List of ``(index, kind)`` pairs with kind in
        ``{"max", "min", "saddle-flat"}``, ordered by index.
    """
    d = np.diff(values)
    results: list[tuple[int, str]] = []
    i = 0
    while i < d.size:
        if d[i] == 0.0:
            j = i
            while j < d.size and d[j] == 0.0:
                j += 1
            # Flat run of nodes i..j; report its middle interior node.
            mid = (i + j) // 2
            mid = min(max(mid, 1), values.size - 2)
            results.append((mid, "saddle-flat"))
            i = j
        else:
            i += 1
    for i in range(1, d.size):
        if d[i - 1] > 0.0 and d[i] < 0.0:
            results.append((i, "max"))
        elif d[i - 1] < 0.0 and d[i] > 0.0:
            results.append((i, "min"))
    results.sort(key=lambda pair: pair[0])
    return results
