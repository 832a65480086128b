"""Independent numerical oracles used to freeze expected values in tests.

The oracles import none of the implementation's closed forms: volumes come from
Monte Carlo integration of metric volume elements, widths from adaptive
quadrature of their integrands, extrema from dense-grid searches, grid
integrals from a sample-based composite Simpson rule, the Jacobi term Q
from exact derivatives of a cosine series, the critical points of node
values from a walk over the nodes, and the stability survey of a profile from
the package's public per-sphere calls, each checked against the sphere
finder again.  The stabilized implicit flow
step is kept here in its unfused form, one numpy expression per quantity in
the fused kernel's operation order, as the reference the fused step in
``widthlab.yamabe`` must match bit for bit; the textbook curvature, volume
and average formulas, in another order, check the fused kernel to a
rounding bound; the explicit Euler step under its CFL rule, which the
package ran before, stays as an independent cross-check of the flow's
convergence.  The
membership LP is kept here as the dense two-phase simplex over
``fractions.Fraction`` whose phase 1 the integer tableau in
``widthlab.equidist`` must match pivot for pivot (``integer_phase_one``
feeds that tableau the integer image of rational data and reads its
integers back as rationals), with the LP that
minimizes the sup-norm defect of a conic combination as the reference for
near-member verdicts, and the greedy Cesaro loop as the allocating numpy
loop whose traces the buffered one must equal.  Tests compare the package against these
routes.

The test-only constructions live here as well, so the package holds only
what its commands and criteria run: the profile and instance writers, the
tilted sphere area at one level (the package's own closed form, the
per-level reference of the certified sweep-out maximum), the curvature
integral over a latitude sphere, and the volume-preserving conformal
variation with its integral over the maximal sphere.

The membership equivalence harness (``equivalence_harness``) drives the
package's membership LP, certificates and Cesaro sequences, and the paper's
conditions i) and ii) as a predicate and a violator (both kept here), on
seeded random instances against ``bruteforce_member``, an oracle that
enumerates generator subsets and solves each in exact rationals.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from widthlab import conformal
from widthlab.berger import BergerReport
from widthlab.conformal import (
    AxisymProfile,
    StarReport,
    analyze_sphere,
    max_latitude_sphere,
    minimal_coordinate_spheres,
    scalar_curvature_field,
    sphere_area,
    width_upper_bound,
)
from widthlab.equidist import (
    EquidistTrace,
    FamilyStructure,
    FiniteMeasure,
    MeasureFamily,
    _Simplex,
    cesaro_sequence,
    cone_hull_membership,
    weighted_cesaro_structured,
)
from widthlab._fsio import atomic_write_text, json_text
from widthlab.numerics import QuadratureConfig, integrate_adaptive, latitude_grid

ROUND_S3_VOLUME = 2.0 * np.pi**2


def sample_unit_s3(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform points on the unit three-sphere via normalized Gaussians."""
    x = rng.standard_normal((count, 4))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def hopf_field(x: np.ndarray) -> np.ndarray:
    """Unit Hopf-fibre vector field on S^3 in ambient coordinates."""
    v = np.empty_like(x)
    v[:, 0] = -x[:, 1]
    v[:, 1] = x[:, 0]
    v[:, 2] = -x[:, 3]
    v[:, 3] = x[:, 2]
    return v


def mc_berger_volume(rho: float, samples: int, seed: int, chunk: int = 100_000) -> float:
    """Monte Carlo volume of the fibre-squashed metric on S^3.

    At each sample point the ambient metric tensor G = I + (rho^2 - 1) V V^T
    (V the unit Hopf field) is restricted to the tangent hyperplane with the
    projector P = I - x x^T; padding the normal direction with a unit
    eigenvalue makes the restricted Gram determinant computable as a plain
    4x4 determinant.  The volume is the round-sphere volume times the mean
    density sqrt(det(P G P + x x^T)).
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = samples
    eye = np.eye(4)
    while remaining > 0:
        m = min(chunk, remaining)
        x = sample_unit_s3(rng, m)
        v = hopf_field(x)
        g = eye[None, :, :] + (rho**2 - 1.0) * v[:, :, None] * v[:, None, :]
        proj = eye[None, :, :] - x[:, :, None] * x[:, None, :]
        restricted = proj @ g @ proj + x[:, :, None] * x[:, None, :]
        total += np.sqrt(np.linalg.det(restricted)).sum()
        remaining -= m
    return ROUND_S3_VOLUME * total / samples


def quad_berger_normalized_width(rho: float) -> float:
    """Normalized Berger width by adaptive quadrature of its integrand in s.

    ``(2/pi)^(1/3) * integral_0^pi sin(s) * sqrt(cos^2 s * rho^(-4/3) +
    sin^2 s * rho^(2/3)) ds`` at absolute tolerance 1e-12.
    """
    a = rho ** (-4.0 / 3.0)
    b = rho ** (2.0 / 3.0)

    def integrand(s: float) -> float:
        sin2 = math.sin(s) ** 2
        return math.sin(s) * math.sqrt((1.0 - sin2) * a + sin2 * b)

    integral = integrate_adaptive(integrand, 0.0, math.pi, QuadratureConfig(abs_tol=1e-12))
    return (2.0 / math.pi) ** (1.0 / 3.0) * integral


def parse_scan_csv(path: str) -> list[BergerReport]:
    """Rows of a Berger scan CSV, parsed with the ``csv`` module.

    The header must be the ``BergerReport`` field list and every
    ``ricci_positive`` cell ``true`` or ``false``; the other cells are read
    with ``float``, so comparing the result with the written reports checks
    each ``%.17g`` cell for exact round trip.
    """
    names = [f.name for f in fields(BergerReport)]
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows and rows[0] == names, f"scan CSV header {rows[:1]} is not {names}"
    reports = []
    for row in rows[1:]:
        cells = dict(zip(names, row, strict=True))
        flag = cells.pop("ricci_positive")
        assert flag in ("true", "false"), row
        numbers = {name: float(cell) for name, cell in cells.items()}
        reports.append(BergerReport(ricci_positive=flag == "true", **numbers))
    return reports


def mc_tilted_sphere_area(
    u: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    c: float,
    samples: int,
    seed: int,
    chunk: int = 100_000,
) -> float:
    """Monte Carlo area of the round sphere {x . v = c} under u(theta)^4 g_round.

    An orthonormal basis of the hyperplane v^perp comes from a QR
    factorization; uniform points of the unit two-sphere in that basis,
    shifted by c v, are uniform on the sphere of radius sqrt(1 - c^2).  The
    conformal area is its round area times the mean of u(arccos x4)^4.
    """
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(4)]))
    basis = q[:, 1:]
    radius = np.sqrt(1.0 - c * c)
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        w = rng.standard_normal((m, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        x = c * v + radius * (w @ basis.T)
        total += np.sum(u(np.arccos(np.clip(x[:, 3], -1.0, 1.0))) ** 4)
        remaining -= m
    return 4.0 * np.pi * radius**2 * total / samples


def cosine_series_jacobi_q(coeffs: Sequence[float], theta: float) -> float:
    """Analytic Jacobi Q of ``u = 1 + sum_k a_k cos(k theta)`` at ``theta``.

    ``Q = u^-4 [2 - 2 w'' - 2 cot(theta) w'] + 2 u^-4 (cot(theta) + w')^2``
    with ``w = 2 ln u``, from the exact u, u' and u'' of the series.
    """
    modes = list(enumerate(coeffs, start=1))
    u = 1.0 + sum(a * math.cos(k * theta) for k, a in modes)
    du = -sum(k * a * math.sin(k * theta) for k, a in modes)
    d2u = -sum(k * k * a * math.cos(k * theta) for k, a in modes)
    dw = 2.0 * du / u
    d2w = 2.0 * (d2u / u - (du / u) ** 2)
    cot = 1.0 / math.tan(theta)
    return (2.0 - 2.0 * d2w - 2.0 * cot * dw + 2.0 * (cot + dw) ** 2) / u**4


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


def dense_grid_argmax(fn: Callable[[np.ndarray], np.ndarray], n: int = 200_001) -> tuple[float, float]:
    """Brute-force maximum of a smooth function of latitude over [0, pi]."""
    t = np.linspace(0.0, np.pi, n)
    y = fn(t)
    i = int(np.argmax(y))
    return float(t[i]), float(y[i])


def dense_grid_extrema(
    fn: Callable[[np.ndarray], np.ndarray], n: int = 200_001
) -> list[tuple[float, str]]:
    """All interior sign-change extrema of a function on a very fine grid."""
    t = np.linspace(0.0, np.pi, n)
    y = fn(t)
    d = np.diff(y)
    out = []
    for i in range(1, d.size):
        if d[i - 1] > 0.0 and d[i] < 0.0:
            out.append((float(t[i]), "max"))
        elif d[i - 1] < 0.0 and d[i] > 0.0:
            out.append((float(t[i]), "min"))
    return out


def reference_critical_points(values: np.ndarray) -> list[tuple[int, str]]:
    """The node walk ``widthlab.numerics.critical_points`` must match.

    Flat runs of exactly-zero forward differences first, each at its middle
    node clamped to the interior, then strict extrema from the signs of the
    differences either side of each node, all sorted stably by index.
    """
    d = np.diff(values)
    results: list[tuple[int, str]] = []
    i = 0
    while i < d.size:
        if d[i] == 0.0:
            j = i
            while j < d.size and d[j] == 0.0:
                j += 1
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


def reference_star_scan(profile: AxisymProfile) -> StarReport:
    """The stability survey ``widthlab.conformal.star_scan`` must equal field
    for field: the width estimate, then ``analyze_sphere`` on every sphere
    the finder returns (each call runs the finder again to check that its
    latitude is critical), then the verdict on strictly stable spheres."""
    bound = width_upper_bound(profile)
    spheres = [analyze_sphere(profile, s) for s in minimal_coordinate_spheres(profile)]
    violating = [s for s in spheres if s.index == 0 and s.nullity == 0 and s.area <= bound]
    return StarReport(
        width_upper_bound=bound,
        minimal_spheres=spheres,
        star_holds_on_axisym_candidates=not violating,
    )


class ReferenceFlowKernel:
    """Grid data and the unfused curvature, volume and average evaluations.

    Each array operation is the fused kernel's (``LatitudeGrid.evaluate``),
    in its order, written out the textbook way: the stencil ``S = A (u+ - u)
    + B (u- - u) + 6 u`` with ``A, B = -8 (1/h^2 +- cot/h)`` and the pole
    rows ``-48/h^2 (u1 - u0) + 6 u0``; the powers ``u^2, u^4, u^6 = u^4 u^2,
    u^5 = u^4 u``; ``R = S / u^5``; the volume ``W . u^6`` and the curvature
    integral ``W . (S u)`` with ``W = 4 pi simpson sin^2``.  So its results
    equal the package's bit for bit; ``textbook_evaluation`` is the
    independent check of the formulas.
    """

    def __init__(self, n: int):
        self.n = n
        self.h = np.pi / (n - 1)
        self.thetas = np.linspace(0.0, np.pi, n)
        self.sin2 = np.sin(self.thetas) ** 2
        self.cot = np.zeros(n)
        self.cot[1:-1] = 1.0 / np.tan(self.thetas[1:-1])
        # Composite Simpson weights (3/8 tail when the interval count is odd).
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
        self.weights = 4.0 * np.pi * self.simpson * self.sin2
        # Eigenvalues of minus the Neumann second difference.
        self.mu = 4.0 * np.sin(np.arange(n) * (np.pi / (2 * m))) ** 2 / (self.h * self.h)

    def stencil(self, u: np.ndarray) -> np.ndarray:
        """``S = -8 lap(u) + 6 u`` node by node."""
        h2 = self.h * self.h
        a = -8.0 * (1.0 / h2 + self.cot[1:-1] / self.h)
        b = -8.0 * (1.0 / h2 - self.cot[1:-1] / self.h)
        s = np.empty_like(u)
        s[1:-1] = a * (u[2:] - u[1:-1]) + b * (u[:-2] - u[1:-1]) + 6.0 * u[1:-1]
        s[0] = (-48.0 / h2) * (u[1] - u[0]) + 6.0 * u[0]
        s[-1] = (-48.0 / h2) * (u[-2] - u[-1]) + 6.0 * u[-1]
        return s

    @staticmethod
    def powers(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``u^5`` and ``u^6`` from one chain of products."""
        u2 = u * u
        u4 = u2 * u2
        return u4 * u, u4 * u2

    def scalar_curvature(self, u: np.ndarray) -> np.ndarray:
        return self.stencil(u) / self.powers(u)[0]

    def volume(self, u: np.ndarray) -> float:
        return float(self.weights @ self.powers(u)[1])

    def evaluate(self, u: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Curvature field, volume and average curvature ``W . (S u) / V``."""
        s = self.stencil(u)
        u5, u6 = self.powers(u)
        vol = float(self.weights @ u6)
        return s / u5, vol, float(self.weights @ (s * u)) / vol

    def average(self, f: np.ndarray, u: np.ndarray) -> float:
        """Volume average ``W . (f u^6) / V`` of node values f."""
        u6 = self.powers(u)[1]
        return float(self.weights @ (f * u6)) / float(self.weights @ u6)


def textbook_evaluation(u: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Curvature field, volume and average curvature by the textbook formulas.

    ``lap(u) = (u+ - 2u + u-)/h^2 + cot(theta) (u+ - u-)/h`` inside and
    ``6 (u1 - u0)/h^2`` at the poles, ``R = (-8 lap + 6 u) / u^5``,
    ``V = 4 pi int u^6 sin^2`` and ``r = 4 pi int R u^6 sin^2 / V`` by
    ``composite_simpson``, with numpy's powers: the same discretization as
    the fused kernel in another operation order, so the two agree to
    rounding only.
    """
    n = u.size
    h = np.pi / (n - 1)
    h2 = h * h
    thetas = np.linspace(0.0, np.pi, n)
    sin2 = np.sin(thetas) ** 2
    lap = np.empty_like(u)
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2 + (
        np.cos(thetas[1:-1]) / np.sin(thetas[1:-1])
    ) * (u[2:] - u[:-2]) / h
    lap[0] = 6.0 * (u[1] - u[0]) / h2
    lap[-1] = 6.0 * (u[-2] - u[-1]) / h2
    scalar = (-8.0 * lap + 6.0 * u) / u**5
    vol = 4.0 * np.pi * composite_simpson(u**6 * sin2, h)
    r = 4.0 * np.pi * composite_simpson(scalar * u**6 * sin2, h) / vol
    return scalar, vol, r


def reference_implicit_advance(
    kernel: ReferenceFlowKernel,
    u: np.ndarray,
    dt: float,
    target_volume: float,
    stabilizer: float,
) -> tuple[np.ndarray, int]:
    """One stabilized semi-implicit Euler step, then volume renormalization.

    ``u* = u + (I - dt c D2)^-1 [(dt/4) u (r - R)]`` with
    ``c = stabilizer * 2 min(u)^-4``; the solve is a DCT-I, the real FFT of
    the even extension.  The state is evaluated from scratch.
    """
    n = u.size
    scalar, _, r = kernel.evaluate(u)
    a = dt * (stabilizer * 2.0 / float(np.min(u)) ** 4)
    rhs = u * (dt / 4.0) * (r - scalar)
    even = np.concatenate([rhs, rhs[-2:0:-1]])
    u = u + np.fft.irfft(np.fft.rfft(even) / (a * kernel.mu + 1.0), even.size)[:n]
    if not np.all(u > 0.0) or not np.all(np.isfinite(u)):
        raise RuntimeError(f"positivity lost in a step of size {dt:.3e}")
    u = u * (target_volume / kernel.volume(u)) ** (1.0 / 6.0)
    return u, 1


def reference_advance(
    kernel: ReferenceFlowKernel,
    u: np.ndarray,
    dt: float,
    target_volume: float,
    cfl: float,
    max_substeps: int,
) -> tuple[np.ndarray, int]:
    """Explicit Euler sub-steps under the CFL rule, each renormalized.

    Every sub-step evaluates its state from scratch.
    """
    remaining = dt
    substeps = 0
    h2 = kernel.h * kernel.h
    while remaining > 0.0:
        stable = cfl * h2 * float(np.min(u)) ** 4
        sub = min(remaining, stable)
        substeps += 1
        if substeps > max_substeps:
            raise RuntimeError(f"more than {max_substeps} sub-steps")
        scalar, _, r = kernel.evaluate(u)
        u = u + sub * (u / 4.0) * (r - scalar)
        if not np.all(u > 0.0) or not np.all(np.isfinite(u)):
            raise RuntimeError(f"positivity lost in a sub-step of size {sub:.3e}")
        u = u * (target_volume / kernel.volume(u)) ** (1.0 / 6.0)
        remaining -= sub
    return u, substeps


def explicit_flow_reference(
    u0: np.ndarray,
    t_end: float,
    dt: float,
    sample_every: int,
    convergence_tol: float,
    cfl: float = 0.125,
    max_substeps: int = 100_000,
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """The flow run loop with explicit Euler sub-steps under the CFL rule.

    ``cfl`` keeps a 25% margin below the measured stability limit
    ``h^2 min(u)^4 / 6`` of the explicit update.
    """
    return flow_reference(
        u0, t_end, dt, sample_every, convergence_tol,
        lambda kernel, u, dt, volume: reference_advance(
            kernel, u, dt, volume, cfl, max_substeps
        ),
    )


def implicit_flow_reference(
    u0: np.ndarray,
    t_end: float,
    dt: float,
    sample_every: int,
    convergence_tol: float,
    stabilizer: float,
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """The flow run loop with one stabilized implicit step per outer step."""
    return flow_reference(
        u0, t_end, dt, sample_every, convergence_tol,
        lambda kernel, u, dt, volume: reference_implicit_advance(
            kernel, u, dt, volume, stabilizer
        ),
    )


def flow_reference(
    u0: np.ndarray,
    t_end: float,
    dt: float,
    sample_every: int,
    convergence_tol: float,
    advance: Callable[[ReferenceFlowKernel, np.ndarray, float, float], tuple[np.ndarray, int]],
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """The flow run loop on the unfused kernel: sampled u and monitors.

    ``advance(kernel, u, dt, target_volume)`` takes one outer step and
    returns the new u and its sub-step count.  Samples and monitors follow
    ``widthlab.yamabe.run``: the initial state, every ``sample_every``-th
    outer step, the last step and a converged step are sampled; the
    monitors hold one entry per outer step.
    """
    kernel = ReferenceFlowKernel(u0.size)
    u = u0.copy()
    target_volume = kernel.volume(u)
    n_steps = max(int(round(t_end / dt)), 1)
    samples = [u.copy()]
    rows = []
    for i in range(n_steps):
        u, subs = advance(kernel, u, dt, target_volume)
        taken = i + 1
        scalar, vol, r = kernel.evaluate(u)
        sup_dev = float(np.max(np.abs(scalar - r)))
        rows.append(
            (taken * dt, abs(vol - target_volume), r * vol ** (2.0 / 3.0), r, sup_dev, subs)
        )
        converged = sup_dev < convergence_tol
        if taken % sample_every == 0 or taken == n_steps or converged:
            samples.append(u.copy())
        if converged:
            break
    names = ("t", "volume_drift", "energy", "r_avg", "sup_R_minus_r", "substeps")
    columns = list(zip(*rows))
    monitors = {name: np.array(col) for name, col in zip(names, columns)}
    monitors["substeps"] = monitors["substeps"].astype(int)
    return samples, monitors


# ---------------------------------------------------------------------------
# Constructions only the tests use: the profile and instance writers, the
# tilted sphere area at one level, the curvature integral over a latitude
# sphere, and the volume-preserving conformal variation with its integral
# over the maximal sphere.
# ---------------------------------------------------------------------------


def save_profile(profile: AxisymProfile, path: str, description: str | None = None) -> None:
    """Write a profile as the JSON that ``conformal.load_profile`` reads."""
    payload: dict = {"n": profile.n, "u": [float(v) for v in profile.u]}
    if description is not None:
        payload["description"] = description
    atomic_write_text(path, json_text(payload))


def save_instance(path: str, mu0: FiniteMeasure, family: MeasureFamily) -> None:
    """Write an instance as the JSON that ``equidist.load_instance`` reads:
    fields n, mu0, Y and optional structure."""
    payload: dict = {
        "n": mu0.n,
        "mu0": [float(v) for v in mu0.weights],
        "Y": [[float(v) for v in m.weights] for m in family.members],
    }
    if family.structure is not None:
        payload["structure"] = {
            "W": [[float(v) for v in m.weights] for m in family.structure.base],
            "mass_bounds": [float(v) for v in family.structure.mass_bounds],
        }
    atomic_write_text(path, json_text(payload))


def tilted_sphere_area(profile: AxisymProfile, alpha: float, c: float) -> float:
    """Area of the round sphere ``{x . v = c}`` with v at angle alpha from the axis.

    u is taken piecewise linear in theta between nodes (as in
    ``sphere_area``); the area ``2 pi (1 - c^2) integral_{-1}^{1} u(x4)^4 ds``
    with ``x4 = c cos(alpha) - sqrt(1 - c^2) sin(alpha) s`` is evaluated in
    closed form by the package's tilted sweep-outs.  At alpha = 0 it is
    ``sphere_area`` at ``theta = arccos(c)``.
    """
    if not (0.0 <= alpha <= 0.5 * np.pi):
        raise ValueError(f"tilt angle must lie in [0, pi/2], got {alpha}")
    if not (-1.0 <= c <= 1.0):
        raise ValueError(f"sphere level must lie in [-1, 1], got {c}")
    spheres = conformal._TiltedSpheres(profile)
    return float(spheres.area(float(alpha), np.array([math.acos(c)]))[0])


def curvature_integral_over_sphere(profile: AxisymProfile, theta_star: float) -> float:
    """``R(theta_star) * area(theta_star)``; R is constant on each latitude."""
    field = scalar_curvature_field(profile)
    r_star = float(np.interp(theta_star, profile.thetas, field))
    return r_star * sphere_area(profile, theta_star)


@dataclass(frozen=True)
class ConformalVariation:
    """Volume-preserving conformal family ``g(t)`` seeded by a mean-zero f.

    ``g(t) = V^(2/3) (1 + t f) g / V((1+t f) g)^(2/3)``; at t = 0 the
    variation velocity is exactly ``f g`` and the volume is constant in t.
    ``f`` holds the n node values of the direction on the grid of ``base``.
    """

    base: AxisymProfile
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _direction(self.f, self.base.n))

    def profile_at(self, t: float) -> AxisymProfile:
        factor = 1.0 + t * self.f
        if not np.all(factor > 0.0):
            raise ValueError(f"variation parameter t={t} leaves the metric cone")
        grid = latitude_grid(self.base.n)
        base_vol = grid.volume(self.base.u)
        u_t = self.base.u * factor**0.25
        vol_t = grid.volume(u_t)
        return AxisymProfile(u_t * (base_vol / vol_t) ** (1.0 / 6.0))


@dataclass(frozen=True)
class VariationReport:
    """Mean-zero test direction and its integral over the maximal sphere."""

    variation: ConformalVariation
    trace_integral_over_max_sphere: float


def _direction(f: np.ndarray, n: int) -> np.ndarray:
    """f as a float array, checked to hold n finite node values."""
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise ValueError(f"direction must hold {n} node values, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("direction values must be finite")
    return f


def maximum_test_direction(profile: AxisymProfile, f: np.ndarray) -> VariationReport:
    """Build the volume-preserving family for f and integrate it at the top.

    The direction is made mean-zero by subtracting its volume average
    (a precondition of the family construction), then integrated over the
    maximal latitude sphere: at a time where the width bound is maximal this
    integral is non-positive for admissible directions.
    """
    f = _direction(f, profile.n)
    kernel = ReferenceFlowKernel(profile.n)
    u = profile.u
    adjusted = f - kernel.average(f, u)
    sphere = max_latitude_sphere(profile)
    f_at_top = float(np.interp(sphere.theta, profile.thetas, adjusted))
    return VariationReport(
        variation=ConformalVariation(base=profile, f=adjusted),
        trace_integral_over_max_sphere=f_at_top * sphere.area,
    )


# ---------------------------------------------------------------------------
# Exact rational simplex (dense tableau, Bland's rule) and the greedy loop.
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fractions(values) -> list[Fraction]:
    """Exact rationals of float data, one ``Fraction(float(v))`` per value."""
    return [Fraction(float(v)) for v in values]


def integer_phase_one(columns: list[list[Fraction]], b: list[Fraction], simplex=_Simplex):
    """Phase 1 of the package's integer simplex (``simplex``, a subclass of
    ``widthlab.equidist._Simplex`` that may record its pivots) on rational
    data, for comparison with ``FractionSimplex``.

    The integer input is the data times the lcm L of its denominators; the
    integer outputs over d come back as rationals, the objective over d L,
    which is the data's own.  Returns ``(objective, x, y)`` and the simplex.
    """
    scale = math.lcm(*(v.denominator for col in columns for v in col),
                     *(v.denominator for v in b))
    solver = simplex([[int(v * scale) for v in col] for col in columns],
                     [int(v * scale) for v in b])
    objective, x, y, d = solver.solve()
    rationals = [Fraction(v, d) for v in x], [Fraction(v, d) for v in y]
    return (Fraction(objective, d * scale), *rationals), solver


class FractionSimplex:
    """Minimal dense two-phase simplex over exact rationals.

    Solves min c.x subject to A x = b, x >= 0 where b >= 0.  Bland's rule
    guarantees termination; the problem sizes here are desk scale, so no
    sparsity or revised-form machinery is needed.
    """

    def __init__(self, columns: list[list[Fraction]], b: list[Fraction], costs: list[Fraction]):
        self.m = len(b)
        self.n_rows_original = self.m
        self.n_struct = len(columns)
        # Tableau columns: structural variables then artificials then rhs.
        self.tab = [
            [columns[j][i] for j in range(self.n_struct)]
            + [(_ONE if i == k else _ZERO) for k in range(self.m)]
            + [b[i]]
            for i in range(self.m)
        ]
        self.basis = [self.n_struct + i for i in range(self.m)]
        self.row_ids = list(range(self.m))
        self.costs = costs

    def _pivot(self, row: int, col: int) -> None:
        tab = self.tab
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for r in range(self.m):
            if r != row and tab[r][col] != 0:
                factor = tab[r][col]
                tab[r] = [v - factor * p for v, p in zip(tab[r], tab[row])]
        self.basis[row] = col

    def _reduced_costs(self, cost_of) -> tuple[list[Fraction], list[Fraction]]:
        # y solves y . B = c_B implicitly through the updated tableau:
        # reduced cost of column j is c_j - sum_r c_{basis r} * tab[r][j].
        cb = [cost_of(j) for j in self.basis]
        width = len(self.tab[0]) - 1 if self.tab else 0
        reduced = []
        for j in range(width):
            val = cost_of(j)
            for r in range(self.m):
                if self.tab[r][j] != 0:
                    val -= cb[r] * self.tab[r][j]
            reduced.append(val)
        return reduced, cb

    def _minimize(self, cost_of, width: int) -> None:
        while True:
            reduced, _ = self._reduced_costs(cost_of)
            entering = next((j for j in range(width) if reduced[j] < 0), None)
            if entering is None:
                return
            best_row = None
            best_ratio = None
            for r in range(self.m):
                coeff = self.tab[r][entering]
                if coeff > 0:
                    ratio = self.tab[r][-1] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < self.basis[best_row])
                    ):
                        best_ratio = ratio
                        best_row = r
            if best_row is None:
                raise ArithmeticError("unbounded linear program")
            self._pivot(best_row, entering)

    def solve(self) -> tuple[Fraction, list[Fraction], list[Fraction]]:
        """Two-phase solve; returns (objective, x, y) with y the final duals."""
        art_cost = lambda j: _ONE if j >= self.n_struct else _ZERO
        self._minimize(art_cost, self.n_struct + self.n_rows_original)
        phase1 = sum(
            self.tab[r][-1] for r in range(self.m) if self.basis[r] >= self.n_struct
        )
        if phase1 > 0:
            return self._finish(art_cost, phase1)
        # Drive residual zero-level artificials out of the basis when possible;
        # rows where no structural pivot exists are redundant constraints and
        # are dropped (their dual components are reported as zero).
        for r in range(self.m):
            if self.basis[r] >= self.n_struct:
                col = next(
                    (j for j in range(self.n_struct) if self.tab[r][j] != 0), None
                )
                if col is not None:
                    self._pivot(r, col)
        keep = [r for r in range(self.m) if self.basis[r] < self.n_struct]
        if len(keep) < self.m:
            self.tab = [self.tab[r] for r in keep]
            self.basis = [self.basis[r] for r in keep]
            self.row_ids = [self.row_ids[r] for r in keep]
            self.m = len(keep)
        struct_cost = lambda j: self.costs[j] if j < self.n_struct else _ONE
        # Entering restricted to structural columns: artificials stay out.
        self._minimize(struct_cost, self.n_struct)
        objective = sum(
            struct_cost(self.basis[r]) * self.tab[r][-1] for r in range(self.m)
        )
        return self._finish(struct_cost, objective)

    def _finish(self, cost_of, objective):
        x = [_ZERO] * self.n_struct
        for r, j in enumerate(self.basis):
            if j < self.n_struct:
                x[j] = self.tab[r][-1]
        # Duals: y_i = c_B . column of the i-th artificial in the tableau,
        # indexed by original row (dropped redundant rows contribute zero).
        cb = [cost_of(j) for j in self.basis]
        y = [_ZERO] * self.n_rows_original
        for row_id in self.row_ids:
            col = self.n_struct + row_id
            y[row_id] = sum(cb[r] * self.tab[r][col] for r in range(self.m))
        return objective, x, y


def defect_program(b: list[Fraction], cols: list[list[Fraction]]):
    """Columns, rhs and costs of the LP whose optimum is the least sup-norm
    defect ``t = ||sum x_j col_j - b||_inf`` over x >= 0; the membership
    verdict at tolerance tol is ``t <= tol``:

    rows i:      (A x)_i - t + s1_i = b_i
    rows n + i:  (A x)_i + t - s2_i = b_i
    """
    n = len(b)
    columns: list[list[Fraction]] = []
    costs: list[Fraction] = []
    for col in cols:
        columns.append(col + col)
        costs.append(_ZERO)
    columns.append([-_ONE] * n + [_ONE] * n)  # t
    costs.append(_ONE)
    for i in range(n):  # s1
        columns.append([_ONE if r == i else _ZERO for r in range(2 * n)])
        costs.append(_ZERO)
    for i in range(n):  # s2
        columns.append([-_ONE if r == n + i else _ZERO for r in range(2 * n)])
        costs.append(_ZERO)
    return columns, b + b, costs


def reference_greedy_trace(
    target: np.ndarray,
    candidates: np.ndarray,
    masses: np.ndarray,
    k_max: int,
    weighted: bool,
) -> EquidistTrace:
    """Greedy nearest-mean selection shared by both Cesaro variants."""
    running = np.zeros_like(target)
    total_mass = 0.0
    sequence = []
    errors = []
    for k in range(1, k_max + 1):
        if weighted:
            trial = (running + candidates) / (total_mass + masses)[:, None]
        else:
            trial = (running + candidates) / float(k)
        dists = np.max(np.abs(trial - target), axis=1)
        pick = int(np.argmin(dists))  # argmin takes the lowest index on ties
        sequence.append(pick)
        errors.append(float(dists[pick]))
        running = running + candidates[pick]
        total_mass += masses[pick]
    return EquidistTrace(sequence=tuple(sequence), cesaro_errors=tuple(errors))


# ---------------------------------------------------------------------------
# Membership equivalence harness: the package's LP, certificates and Cesaro
# sequences against a subset-enumeration oracle.
# ---------------------------------------------------------------------------


def _solve_exact(columns: list[list[Fraction]], b: list[Fraction]):
    """Unique exact solution of a full-column-rank system, or None."""
    m = len(b)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None  # rank-deficient subset; a smaller subset covers it
        aug[row], aug[pivot] = aug[pivot], aug[row]
        piv = aug[row][col]
        aug[row] = [v / piv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[row])]
        pivots.append(row)
        row += 1
        if row == m:
            break
    x = [aug[r][-1] for r in range(len(pivots))]
    # Consistency of the remaining rows.
    for r in range(row, m):
        if aug[r][-1] != 0:
            return None
    return x


def bruteforce_member(mu0: FiniteMeasure, family: MeasureFamily) -> bool:
    """Conic Caratheodory oracle: search all generator subsets exactly."""
    b = fractions(mu0.weights)
    if all(v == 0 for v in b):
        return True
    cols = [fractions(m.weights) for m in family.members]
    indices = range(len(cols))
    max_size = min(len(cols), mu0.n)
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(indices, size):
            x = _solve_exact([cols[j] for j in subset], b)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def condition_i_predicate(
    mu0: FiniteMeasure, family: MeasureFamily, f: np.ndarray
) -> bool:
    """Test direction i) of the equivalence: if ``<f, mu0> < 0`` then some
    family member must also pair non-positively with f; otherwise the
    predicate holds vacuously."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mu0.n,):
        raise ValueError("functional dimension must match the ground set")
    if float(f @ mu0.weights) >= 0.0:
        return True
    return any(float(f @ m.weights) <= 0.0 for m in family.members)


def condition_ii_violator(mu0: FiniteMeasure, f: np.ndarray) -> np.ndarray:
    """Shift a separating functional into a violator of condition ii).

    ``f0 = <f, mu0>/mu0(X) - f`` pairs to exactly zero with mu0 while
    pairing strictly positively with every positive-mass measure that f
    separates, witnessing the failure of "positive on the family implies
    positive on the target".
    """
    if mu0.total_mass <= 0.0:
        raise ValueError("the target measure must have positive mass")
    f = np.asarray(f, dtype=float)
    mean = float(f @ mu0.weights) / mu0.total_mass
    return mean - f


@dataclass(frozen=True)
class HarnessReport:
    """Cross-check results over random instances of the equivalence."""

    trials: int
    member_count: int
    non_member_count: int
    inconsistencies: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.inconsistencies


def random_instance(rng: np.random.Generator):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    members = []
    for _ in range(m):
        while True:
            w = rng.integers(0, 16, size=n) / 16.0
            if w.sum() > 0:
                break
        members.append(FiniteMeasure(w))
    family = MeasureFamily(members=tuple(members))
    if rng.random() < 0.5:
        while True:
            coeffs = rng.integers(0, 9, size=m) / 8.0
            mu0 = np.zeros(n)
            for c, mem in zip(coeffs, members):
                mu0 = mu0 + c * mem.weights  # dyadic grid keeps this exact
            if mu0.sum() > 0:
                break
    else:
        mu0 = rng.integers(1, 17, size=n) / 16.0
    return FiniteMeasure(mu0), family


def equivalence_harness(
    seed: int, trials: int, k_max: int = 10_000, cesaro_tol: float = 5e-2
) -> HarnessReport:
    """Cross-validate the four equivalent membership characterizations.

    Each trial draws a dyadic random instance (so float arithmetic is exact)
    and checks: the exact LP verdict against a subset-enumeration oracle;
    exact validity of whichever certificate was produced; on non-members,
    that the shifted functional violates condition ii); on members, that
    randomly sampled functionals satisfy condition i) and that both greedy
    Cesaro variants reach `cesaro_tol` by `k_max`.

    Raises:
        ValueError: trials < 1.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    inconsistencies: list[str] = []
    member_count = 0
    non_member_count = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        mu0, family = random_instance(rng)
        certificate = cone_hull_membership(mu0, family, tol=1e-9)
        oracle = bruteforce_member(mu0, family)
        verdict_member = certificate.verdict == "member"
        if verdict_member != oracle:
            inconsistencies.append(
                f"trial {trial}: LP says {certificate.verdict}, oracle says "
                f"{'member' if oracle else 'non_member'}"
            )
            continue
        if verdict_member:
            member_count += 1
            recon = np.zeros(mu0.n)
            for j, coeff in certificate.coefficients:
                recon = recon + coeff * family.members[j].weights
            if np.max(np.abs(recon - mu0.weights)) > 1e-9:
                inconsistencies.append(f"trial {trial}: member reconstruction defect")
            for _ in range(5):
                f = rng.standard_normal(mu0.n)
                if float(f @ mu0.weights) > 0.0:
                    f = -f
                if not condition_i_predicate(mu0, family, f):
                    inconsistencies.append(
                        f"trial {trial}: condition i) fails on a member instance"
                    )
            trace = cesaro_sequence(mu0, family, k_max)
            if trace.cesaro_errors[-1] >= cesaro_tol:
                inconsistencies.append(
                    f"trial {trial}: plain Cesaro error "
                    f"{trace.cesaro_errors[-1]:.3e} at k={k_max}"
                )
            base = tuple(m for m in family.members if m.total_mass > 0.0)
            masses = [m.total_mass for m in base]
            structured = MeasureFamily(
                members=family.members,
                structure=FamilyStructure(base=base, mass_bounds=(min(masses), max(masses))),
            )
            wtrace = weighted_cesaro_structured(mu0, structured, k_max)
            if wtrace.cesaro_errors[-1] >= cesaro_tol:
                inconsistencies.append(
                    f"trial {trial}: weighted Cesaro error "
                    f"{wtrace.cesaro_errors[-1]:.3e} at k={k_max}"
                )
        else:
            non_member_count += 1
            f = certificate.separating_f
            # The package verifies the sign conditions by integer sums before
            # converting f to float; here allow roundoff on pairings whose
            # exact value is zero (boundary-touching members).
            pairing_noise = 1e-12 * (1.0 + float(np.max(np.abs(f))))
            if not (float(f @ mu0.weights) > 0.0) or any(
                float(f @ m.weights) > pairing_noise * (1.0 + m.total_mass)
                for m in family.members
            ):
                inconsistencies.append(f"trial {trial}: separating functional invalid")
            f0 = condition_ii_violator(mu0, f)
            pair0 = float(f0 @ mu0.weights)
            scale = 1.0 + float(np.abs(f) @ mu0.weights)
            if abs(pair0) > 1e-10 * scale:
                inconsistencies.append(
                    f"trial {trial}: ii)-violator does not annihilate the target"
                )
            for m in family.members:
                pairing = float(f0 @ m.weights)
                if m.total_mass > 0.0 and pairing <= 0.0:
                    inconsistencies.append(
                        f"trial {trial}: ii)-violator not positive on the family"
                    )
            try:
                cesaro_sequence(mu0, family, 10)
            except ValueError:
                pass
            else:
                inconsistencies.append(
                    f"trial {trial}: Cesaro accepted a non-member target"
                )
    return HarnessReport(
        trials=trials,
        member_count=member_count,
        non_member_count=non_member_count,
        inconsistencies=tuple(inconsistencies),
    )
