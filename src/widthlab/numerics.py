"""Shared numerical kernels: adaptive quadrature and uniform-grid helpers.

The module has two primitives: an adaptive Simpson integrator with
Richardson error control, and finite-difference and Simpson utilities for
functions sampled on the uniform grid theta_i = i * pi / (n - 1) over
[0, pi].  The grid utilities serve the conformal volume and area functionals
and the flow diagnostics.  The Berger width and the Jacobi term are closed
forms and finite differences of areas, so the adaptive integrator serves only
the quadrature reference ``conformal.second_variation_oracle`` and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "GridFunction",
    "integrate_adaptive",
    "central_second_difference",
    "critical_points",
    "composite_simpson",
]


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


@dataclass(frozen=True)
class GridFunction:
    """Real samples on the uniform grid ``theta_i = i*pi/(n-1)`` over [0, pi]."""

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"grid values must be one-dimensional, got shape {values.shape}")
        if values.size < 5:
            raise ValueError(f"grid needs at least 5 nodes, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", values.size)

    @property
    def spacing(self) -> float:
        return np.pi / (self.n - 1)

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.n)

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], n: int) -> "GridFunction":
        thetas = np.linspace(0.0, np.pi, n)
        return cls(np.asarray(fn(thetas), dtype=float))


def critical_points(grid: GridFunction) -> list[tuple[int, str]]:
    """Locate interior extrema of a gridded function.

    Sign changes of the forward difference ``d_i = v[i+1] - v[i]`` mark the
    strict extrema; the discrete second difference ``d_i - d_{i-1}`` decides
    between ``"max"`` and ``"min"``.  Maximal runs of exactly-zero forward
    differences are reported once as ``"saddle-flat"`` at the run's middle
    interior node.

    Returns:
        List of ``(index, kind)`` pairs with kind in
        ``{"max", "min", "saddle-flat"}``, ordered by index.
    """
    v = grid.values
    d = np.diff(v)
    results: list[tuple[int, str]] = []
    i = 0
    while i < d.size:
        if d[i] == 0.0:
            j = i
            while j < d.size and d[j] == 0.0:
                j += 1
            # Flat run of nodes i..j; report its middle interior node.
            mid = (i + j) // 2
            mid = min(max(mid, 1), grid.n - 2)
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


def composite_simpson(values: Sequence[float] | np.ndarray, spacing: float) -> float:
    """Composite Simpson rule on uniformly spaced samples.

    Handles any sample count >= 2: an even interval count uses pure Simpson;
    an odd count finishes with a Simpson 3/8 block, keeping O(h^4) accuracy.
    """
    y = np.asarray(values, dtype=float)
    m = y.size - 1
    if m < 1:
        raise ValueError("composite Simpson needs at least two samples")
    if m == 1:
        return 0.5 * spacing * (y[0] + y[1])
    if m == 2:
        return spacing * (y[0] + 4.0 * y[1] + y[2]) / 3.0
    if m % 2 == 0:
        return spacing * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])) / 3.0
    head = composite_simpson(y[: m - 2], spacing) if m > 3 else 0.0
    tail = 3.0 * spacing * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1]) / 8.0
    return head + tail
