"""Independent numerical oracles used to freeze expected values in tests.

Nothing in here imports the implementation's closed forms: volumes come from
Monte Carlo integration of metric volume elements, widths from adaptive
quadrature of their integrands, extrema from dense-grid searches.  The
explicit flow step is kept here in its unfused form, one numpy expression per
quantity, as the reference the fused step in ``widthlab.yamabe`` must match
bit for bit.  Tests compare the package against these routes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from widthlab.numerics import QuadratureConfig, integrate_adaptive

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


class ReferenceFlowKernel:
    """Grid data and the unfused curvature, volume and average evaluations."""

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

    def scalar_curvature(self, u: np.ndarray) -> np.ndarray:
        h2 = self.h * self.h
        lap = np.empty_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2 + self.cot[1:-1] * (
            u[2:] - u[:-2]
        ) / self.h
        lap[0] = 6.0 * (u[1] - u[0]) / h2
        lap[-1] = 6.0 * (u[-2] - u[-1]) / h2
        return (-8.0 * lap + 6.0 * u) / u**5

    def volume(self, u: np.ndarray) -> float:
        return 4.0 * np.pi * float(self.simpson @ (u**6 * self.sin2))

    def average_r(self, scalar: np.ndarray, u: np.ndarray, vol: float) -> float:
        return 4.0 * np.pi * float(self.simpson @ (scalar * u**6 * self.sin2)) / vol


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
        scalar = kernel.scalar_curvature(u)
        vol = kernel.volume(u)
        r = kernel.average_r(scalar, u, vol)
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
    cfl: float,
    max_substeps: int,
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """The flow run loop on the unfused kernel: sampled u and monitors.

    Samples and monitors follow ``widthlab.yamabe.run``: the initial state,
    every ``sample_every``-th outer step, the last step and a converged
    step are sampled; the monitors hold one entry per outer step.
    """
    kernel = ReferenceFlowKernel(u0.size)
    u = u0.copy()
    target_volume = kernel.volume(u)
    n_steps = max(int(round(t_end / dt)), 1)
    samples = [u.copy()]
    rows = []
    for i in range(n_steps):
        u, subs = reference_advance(kernel, u, dt, target_volume, cfl, max_substeps)
        taken = i + 1
        scalar = kernel.scalar_curvature(u)
        vol = kernel.volume(u)
        r = kernel.average_r(scalar, u, vol)
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
