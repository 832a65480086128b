"""Shared numerical kernels: adaptive quadrature and the latitude grid.

The module has two primitives: an adaptive Simpson integrator with
Richardson error control, and ``latitude_grid(n)``, the one discretization of
the uniform grid theta_i = i * pi / (n - 1) over [0, pi]: nodes, composite
Simpson weights, the one curvature kernel of conformal metrics
``u^4 g_round``, and the Neumann second-difference solve of the flow's
implicit step.  Volumes, areas, curvature fields and the flow all evaluate
through it.

The kernel (``LatitudeGrid.evaluate``) is fused: the stencil
``S = A (u+ - u) + B (u- - u) + 6 u`` with ``A, B = -8 (1/h^2 +- cot/h)``
takes differences first, so the round profile has R = 6 exactly;
``u^5`` and ``u^6`` come from one chain of products; ``R = S / u^5``; and
the volume and the curvature integral are two dots with the one weight
vector ``4 pi * simpson * sin^2``, the integral as ``weights . (S u)``
because ``R u^6 = S u``.  Static fields and the flow call this one kernel,
so they agree to the bit.

A grid holds only read-only arrays, so one instance per n is shared; data
on the grid are plain float arrays of the n node values, and scratch
arrays live in a ``Workspace`` that the caller allocates and owns.  The
Berger width and the Jacobi term are closed forms, so the adaptive
integrator serves only the fine-grid cross-check
``conformal.second_variation_oracle`` and the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy import add, copyto, divide, multiply, subtract

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "LatitudeGrid",
    "Workspace",
    "latitude_grid",
    "integrate_adaptive",
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


class Workspace(NamedTuple):
    """Scratch arrays of one ``LatitudeGrid`` and their views, made once.

    ``diff`` holds the n - 1 forward differences, ``even`` the 2n - 2
    values of the even extension and ``spectrum`` its n Fourier
    coefficients; every other array holds n values.  ``u6`` and ``u5`` hold
    the powers of the last kernel call and ``stencil`` its S.  The views
    ``stencil_head``, ``stencil_tail`` and ``scratch_head`` drop the last or
    first node; ``rhs = even[:n]`` holds the solve's right-hand side, then
    its solution; ``mirror = even[n:]`` takes ``mirrored = even[n-2:0:-1]``.
    The 0-d ``operand`` carries each scalar into its ufunc call, to the bit
    as a Python float would, minus numpy's 0.2 us conversion of one.
    """

    diff: np.ndarray
    scratch: np.ndarray
    stencil: np.ndarray
    u6: np.ndarray
    u5: np.ndarray
    scalar: np.ndarray
    even: np.ndarray
    spectrum: np.ndarray
    stencil_head: np.ndarray
    stencil_tail: np.ndarray
    scratch_head: np.ndarray
    rhs: np.ndarray
    mirror: np.ndarray
    mirrored: np.ndarray
    operand: np.ndarray


class LatitudeGrid:
    """Nodes, weights and the one curvature kernel of one latitude grid.

    Holds ``h``, ``h2``, ``thetas``, ``sin2 = sin(thetas)^2``, the composite
    Simpson weights ``simpson`` (with a 3/8 tail when the interval count is
    odd), the volume weights ``weights = 4 pi * simpson * sin2``, the
    stencil coefficients ``ahead`` and ``behind`` (see ``evaluate``)
    and the eigenvalues ``mu`` of the Neumann second difference (see
    ``neumann_solve``).  ``latitude_grid`` shares one instance per n, so its
    arrays are read-only; the grid has no other state.  Scratch arrays come
    from ``workspace``, which the caller owns.
    """

    def __init__(self, n: int):
        if n < 5:
            raise ValueError(f"grid needs at least 5 nodes, got {n}")
        self.h = np.pi / (n - 1)
        self.h2 = self.h * self.h
        self.thetas = np.linspace(0.0, np.pi, n)
        self.sin2 = np.sin(self.thetas) ** 2
        w = np.zeros(n)
        m = n - 1
        if m % 2 == 0:
            w[0] = w[-1] = 1.0
            w[1:-1:2] = 4.0
            w[2:-2:2] = 2.0
            w *= self.h / 3.0
        else:
            head = m - 3  # at least 2, as m >= 5
            w[0] = 1.0
            w[1:head:2] = 4.0
            w[2:head:2] = 2.0
            w[head] = 1.0
            w[:head + 1] *= self.h / 3.0
            w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * self.h / 8.0)
        self.simpson = w
        self.weights = 4.0 * np.pi * w * self.sin2
        # S_i = A_i (u_{i+1} - u_i) + B_i (u_{i-1} - u_i) + 6 u_i inside, with
        # A, B = -8 (1/h^2 +- cot(theta_i)/h), and the ghost-node pole rows
        # -48 (u_1 - u_0)/h^2 + 6 u_0 (mirrored at pi).  On the forward
        # differences d_i = u_{i+1} - u_i the terms are ahead_i d_i and
        # behind_i d_{i-1}, behind = -B: the sign is exact, so the products
        # are the stencil's to the bit.
        cot = 1.0 / np.tan(self.thetas[1:-1])
        self.ahead = np.concatenate(([-48.0 / self.h2], -8.0 * (1.0 / self.h2 + cot / self.h)))
        self.behind = np.concatenate((8.0 * (1.0 / self.h2 - cot / self.h), [48.0 / self.h2]))
        self.mu = 4.0 * np.sin(np.arange(n) * (np.pi / (2 * m))) ** 2 / self.h2
        for shared in (self.thetas, self.sin2, self.simpson, self.weights, self.ahead,
                       self.behind, self.mu):
            shared.flags.writeable = False

    def workspace(self) -> Workspace:
        """Fresh scratch arrays and views for the kernel and the Neumann solve.

        The methods write into the workspace they are given and return
        arrays of it, so a caller that passes one workspace to several calls
        (as ``yamabe.run`` does) has each call overwrite what the last
        returned.
        """
        n = self.thetas.size
        scratch, stencil, u6, u5 = np.empty((4, n))
        even = np.empty(2 * n - 2)
        return Workspace(
            np.empty(n - 1), scratch, stencil, u6, u5, np.empty(n), even,
            np.empty(n, dtype=complex), stencil[:-1], stencil[1:], scratch[:-1],
            even[:n], even[n:], even[n - 2:0:-1], np.empty(()),
        )

    def evaluate(
        self, u: np.ndarray, work: Workspace | None = None
    ) -> tuple[np.ndarray, float, float]:
        """Scalar curvature ``R = S / u^5`` of ``u^4 g_round``, volume and
        volume-averaged curvature of u.

        ``S = -8 lap(u) + 6 u``, ``lap(u) = u'' + 2 cot(theta) u'`` by
        centered differences inside and the even-symmetry ghost-node rows
        ``lap(0) = 6 (u_1 - u_0) / h^2`` (mirrored at pi) at the poles:
        second order for smooth axisymmetric profiles, and damping as flow
        dynamics.  S sums ``ahead * d``, ``behind * d`` and ``6 u`` in that
        order over the forward differences d (see ``__init__``), so a
        constant u has S = 6 u exactly and the round profile R = 6.
        ``volume`` gives the powers and ``weights . u^6``, then
        ``u^5 = u^4 u``, and the curvature integral is ``weights . (S u)``,
        as ``R u^6 = S u``.  Nothing is checked here
        (``conformal.AxisymProfile.evaluation`` holds the rule), so a volume
        of 0 gives an r of inf or nan.  The field is an array of ``work``
        (fresh without it), which keeps S and ``u^6`` too.
        """
        w = self.workspace() if work is None else work
        d, scratch, stencil, u5, behind = w.diff, w.scratch, w.stencil, w.u5, w.scratch_head
        subtract(u[1:], u[:-1], d)
        multiply(self.ahead, d, w.stencil_head)
        stencil[-1] = 0.0
        multiply(self.behind, d, behind)
        add(w.stencil_tail, behind, w.stencil_tail)
        w.operand[()] = 6.0
        multiply(u, w.operand, scratch)
        add(stencil, scratch, stencil)
        vol = self.volume(u, w)
        scalar = divide(stencil, multiply(u5, u, u5), w.scalar)
        return scalar, vol, float(self.weights.dot(multiply(stencil, u, scratch)) / vol)

    def volume(self, u: np.ndarray, work: Workspace | None = None) -> float:
        """Volume ``weights . u^6``, the powers from one chain: ``u^2``,
        ``u^4`` (left in ``work.u5``) and ``u^6 = u^4 u^2`` (in ``work.u6``)."""
        w = self.workspace() if work is None else work
        u6, u4 = w.u6, w.u5
        multiply(u, u, u6)
        multiply(u6, u6, u4)
        return float(self.weights.dot(multiply(u4, u6, u6)))

    def neumann_solve(
        self, a: float, rhs: np.ndarray, work: Workspace | None = None
    ) -> np.ndarray:
        """Solve ``(I - a D2) x = rhs`` for ``a >= 0`` by a DCT-I.

        D2 is the Neumann three-point second difference:
        ``(x[i-1] - 2 x[i] + x[i+1]) / h^2`` inside and the ghost-node rows
        ``2 (x[1] - x[0]) / h^2`` (mirrored at pi) at the ends.  Its
        eigenvectors are the cosines ``cos(pi j k / (n - 1))`` with
        eigenvalues ``-mu_k``, ``mu_k = 4 sin^2(pi k / (2 (n - 1))) / h^2``,
        so the solve divides the DCT-I of rhs by ``1 + a mu_k`` and
        transforms back.  The DCT-I is the real FFT of the even extension
        ``rhs[0], ..., rhs[n-1], rhs[n-2], ..., rhs[1]``.  The solve writes
        into ``work`` (its ``even``, ``spectrum``, ``scratch`` and
        ``operand``; fresh when None) and x is ``work.rhs``, a view of
        ``work.even``.  A caller that
        forms rhs in ``work.rhs`` is solved in place; any other rhs is
        copied there first, so it may be any array of ``work`` but ``even``.
        The ``out`` arguments of ``numpy.fft`` need numpy 2.
        """
        w = self.workspace() if work is None else work
        even, spectrum, x, operand = w.even, w.spectrum, w.rhs, w.operand
        if rhs is not x:
            copyto(x, rhs)
        copyto(w.mirror, w.mirrored)
        np.fft.rfft(even, out=spectrum)
        operand[()] = a
        denominators = multiply(self.mu, operand, w.scratch)
        operand[()] = 1.0
        add(denominators, operand, denominators)
        spectrum /= denominators
        np.fft.irfft(spectrum, even.size, out=even)
        return x


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def latitude_grid(n: int) -> LatitudeGrid:
    """The shared ``LatitudeGrid`` with n nodes."""
    return LatitudeGrid(n)


def critical_points(values: np.ndarray) -> list[tuple[int, str]]:
    """Locate interior extrema of node values on the latitude grid.

    With ``d = np.diff(values)``, a jump of ``np.sign(d)`` from +1 to -1 at
    node i marks a strict ``"max"`` and from -1 to +1 a strict ``"min"``.
    Each maximal run of exactly-zero differences, found from the edges of
    the mask ``d == 0``, is reported once as ``"saddle-flat"`` at the run's
    middle node, clamped to the interior nodes 1..n-2.  A flat middle node
    is never a strict extremum, so the indices are distinct and one sort by
    index merges the two.

    Returns:
        List of ``(index, kind)`` pairs with kind in
        ``{"max", "min", "saddle-flat"}``, ordered by index.
    """
    d = np.diff(values)
    zero = np.concatenate(([False], d == 0.0, [False]))
    runs = np.flatnonzero(zero[1:] != zero[:-1]).reshape(-1, 2)  # (start, stop) in d
    flat = np.minimum(np.maximum(runs.sum(axis=1) // 2, 1), values.size - 2)
    turns = np.diff(np.sign(d))
    strict = np.flatnonzero(np.abs(turns) == 2.0)
    index = np.concatenate((flat, strict + 1))
    kind = np.concatenate((
        np.full(flat.size, "saddle-flat"), np.where(turns[strict] < 0.0, "max", "min")
    ))
    order = np.argsort(index, kind="stable")
    return list(zip(index[order].tolist(), kind[order].tolist()))
