"""Axisymmetric conformal metrics g = u^4 g_round on the three-sphere.

A metric in this class is described by a positive profile u(theta) sampled on
the uniform latitude grid; the latitude two-spheres {theta = const} have area
``A(theta) = 4 pi u(theta)^4 sin^2(theta)`` and sweep the sphere from pole to
pole, so ``max_theta A`` bounds the sweep-out width from above.
``width_upper_bound`` estimates that maximum from the node areas (it may
fall on either side of it).  The largest sphere of any other sweep-out is a
bound as well: the round spheres ``{x . v = c}`` for a unit v tilted off the
axis give a tighter one for squashed profiles, and ``tilted_width_bound``
certifies its maximum.

The module provides the discrete scalar curvature of g, volume and areas,
location of the minimal (critical-area) coordinate spheres, and their
stability: the Jacobi eigenvalues of a latitude sphere are
``lambda_k = k(k+1)/radius^2 - Q`` on the zonal harmonics of degree k, with
``Q = Ric(N,N) + |A|^2``.  ``jacobi_spectrum`` evaluates Q in closed form
from the profile's first and second derivatives at the sphere, and counts
index and nullity exactly, up to the first positive eigenvalue.
``second_variation_oracle`` instead differences the area of a normal graph
with zonal-harmonic height in the graph amplitude, by quadrature, for any k.

A separately seeded Monte Carlo check verifies the round-metric identity
that averaging a function over uniformly random great two-spheres equals its
volume average.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._fsio import is_number_list, read_json
from .numerics import (
    QuadratureConfig,
    critical_points,
    integrate_adaptive,
    latitude_grid,
)

__all__ = [
    "ProfileError",
    "MAX_PROFILE_NODES",
    "MAX_VARIATION_EPS",
    "POLE_REG_FACTOR",
    "AxisymProfile",
    "LatitudeSphere",
    "SpectrumReport",
    "StarReport",
    "IsoperimetricCheck",
    "GreatSphereCheck",
    "load_profile",
    "scalar_curvature_field",
    "volume",
    "sphere_area",
    "area_profile",
    "minimal_coordinate_spheres",
    "second_variation_oracle",
    "jacobi_spectrum",
    "analyze_sphere",
    "width_upper_bound",
    "max_latitude_sphere",
    "TILT_ANGLES",
    "SweepoutMax",
    "tilted_width_bound",
    "star_scan",
    "isoperimetric_check",
    "great_sphere_average_check",
]

ZERO_EIGENVALUE_TOL = 1e-6
# Largest graph amplitude of a second variation.
MAX_VARIATION_EPS = 0.25
# Cap on the nodes of a profile file; six times the finest grid in the tests.
MAX_PROFILE_NODES = 20_001
# Pole regularity admits |u_1 - u_0| up to this factor times max(u) * h^2.
POLE_REG_FACTOR = 5.0


class ProfileError(ValueError):
    """Raised for profiles that fail positivity or pole-regularity checks."""


def _pole_irregularity(u: np.ndarray, top: float, h: float) -> str | None:
    """Why positive node values u with maximum ``top`` at spacing h fail pole
    regularity (see ``AxisymProfile``), or None when they pass.

    The caller passes ``top = max(u)``: the flow already holds it.
    """
    bound = POLE_REG_FACTOR * top * h * h
    defect = max(abs(u.item(1) - u.item(0)), abs(u.item(-1) - u.item(-2)))
    if defect > bound:
        return (
            f"pole regularity violated: one-sided difference {defect:.3e} "
            f"exceeds {bound:.3e}; profiles need vanishing derivative at both poles"
        )
    return None


def _evaluation_fault(u: np.ndarray, curvature: np.ndarray, vol: float, r: float) -> str | None:
    """Why the evaluation ``(curvature, vol, r)`` of node values u left
    floating point, or None when the volume is positive and finite and r and
    every curvature value finite.

    The average does not vouch for the field: it integrates ``S u``, which
    stays finite where ``u^5`` underflows and R is infinite.
    """
    if 0.0 < vol < math.inf and math.isfinite(r) and np.isfinite(curvature).all():
        return None
    return (
        f"volume or scalar curvature overflows or underflows in floating "
        f"point (volume {vol:.3g}, u from {u.min():.3g} to {u.max():.3g})"
    )


@dataclass(frozen=True)
class AxisymProfile:
    """Positive conformal profile u on the uniform latitude grid.

    ``u`` holds the n node values at ``theta_i = i * pi / (n - 1)``; it must
    be one-dimensional, finite, of at least 5 nodes and strictly positive.
    Smooth axisymmetric metrics require ``u'(0) = u'(pi) = 0``; discretely
    this is enforced as ``|u_1 - u_0| <= POLE_REG_FACTOR * max(u) * h^2``
    (and mirrored at pi), which admits pole second derivatives up to about
    ``2 * POLE_REG_FACTOR * max(u)`` while rejecting conical profiles whose
    one-sided difference decays only like h.  Violations of the first three
    rules raise ``ValueError``, of the last two ``ProfileError``.  ``u`` is
    a read-only copy, so the values the profile keeps cannot go stale; a
    read-only array of its own (another profile's ``u``) is not copied.
    """

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.flags.writeable or u.base is not None:
            u = u.copy()
        if u.ndim != 1:
            raise ValueError(f"grid values must be one-dimensional, got shape {u.shape}")
        h = latitude_grid(u.size).h  # raises for fewer than 5 nodes
        if not np.all(np.isfinite(u)):
            raise ValueError("grid values must be finite")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        if not np.all(u > 0.0):
            raise ProfileError("conformal profile must be strictly positive")
        irregularity = _pole_irregularity(u, float(u.max()), h)
        if irregularity:
            raise ProfileError(irregularity)

    @property
    def n(self) -> int:
        return self.u.size

    @property
    def thetas(self) -> np.ndarray:
        return latitude_grid(self.n).thetas

    @property
    def spacing(self) -> float:
        return latitude_grid(self.n).h

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], n: int) -> "AxisymProfile":
        return cls(fn(latitude_grid(n).thetas))

    @classmethod
    def round_profile(cls, n: int, radius_factor: float = 1.0) -> "AxisymProfile":
        return cls(np.full(n, float(radius_factor)))

    def interp_u(self, theta: float) -> float:
        """Linear interpolation of the profile between grid nodes."""
        return float(np.interp(theta, self.thetas, self.u))

    @functools.cached_property
    def evaluation(self) -> tuple[np.ndarray, float, float]:
        """Curvature field (read-only), volume and average curvature, kept
        from first use; not a field, so ``==`` and ``replace`` ignore it.

        ``LatitudeGrid.evaluate`` under the one floating-point rule of
        ``_evaluation_fault``: a ``ProfileError`` (and no numpy warning)
        unless the volume is positive and finite and the average and every
        node's curvature finite.
        """
        u = self.u
        with np.errstate(all="ignore"):
            curvature, vol, r = latitude_grid(self.n).evaluate(u)
            fault = _evaluation_fault(u, curvature, vol, r)
        if fault:
            raise ProfileError(fault)
        curvature.flags.writeable = False
        return curvature, vol, r

    @functools.cached_property
    def latitude_max(self) -> tuple[float, int, float, float]:
        """``width_upper_bound`` and the vertex of the maximal latitude sphere
        (node, offset, residual) from one area pass, kept like
        ``evaluation``; the residual is nan where the areas overflowed."""
        areas = area_profile(self)
        i, offset, width, _ = _vertex(areas, self.spacing)
        if not math.isfinite(width):
            return width, i, offset, math.nan
        i, residual = _anchor(areas, i, self.spacing)
        return width, i, offset, residual

    @functools.cached_property
    def _max_sphere(self) -> LatitudeSphere:
        """The sphere of ``max_latitude_sphere``, built on first use."""
        width, *vertex = self.latitude_max
        if not math.isfinite(width):
            raise OverflowError(f"no maximal latitude sphere: the width estimate is {width}")
        return _sphere_at(self, *vertex)

    @functools.cached_property
    def critical_spheres(self) -> tuple[LatitudeSphere, ...]:
        """The spheres of ``minimal_coordinate_spheres``, kept like ``evaluation``."""
        values = area_profile(self)
        spheres = []
        for i, kind in critical_points(values):
            sign = {"max": 1.0, "min": -1.0}.get(kind)
            offset = _vertex(sign * values[i - 1:i + 2], self.spacing)[1] if sign else 0.0
            i, residual = _anchor(values, i, self.spacing)
            spheres.append(_sphere_at(self, i, offset, residual))
        return tuple(spheres)


def load_profile(path: str) -> AxisymProfile:
    """Read a profile from JSON ``{"n": ..., "u": [...], "description": ...}``.

    Raises:
        ProfileError: a malformed file, a ``u`` that is not a list of
            numbers, an ``n`` that is not an integer equal to the number of
            samples, more than ``MAX_PROFILE_NODES`` nodes, samples that
            make no valid profile (fewer than 5, not finite, not positive or
            not regular at the poles), or a profile whose volume or scalar
            curvature overflows or underflows in floating point (checked by
            ``evaluation``, which the returned profile keeps).
        ValueError: a file that is not JSON.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or "n" not in payload or "u" not in payload:
        raise ProfileError(f"profile file {path} must contain 'n' and 'u'")
    if not is_number_list(payload["u"]):
        raise ProfileError(f"profile file {path}: 'u' must be a list of numbers")
    u = np.asarray(payload["u"], dtype=float)
    if u.size > MAX_PROFILE_NODES:
        raise ProfileError(
            f"profile file {path}: {u.size} nodes exceed the cap of {MAX_PROFILE_NODES}"
        )
    n = payload["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n != u.size:
        raise ProfileError(
            f"profile file {path}: 'n' must be the integer sample count {u.size}, got {n!r}"
        )
    try:
        profile = AxisymProfile(u)
        profile.evaluation  # raises by the floating-point rule
    except ValueError as exc:
        raise ProfileError(f"profile file {path}: {exc}") from None
    return profile


def scalar_curvature_field(profile: AxisymProfile) -> np.ndarray:
    """Discrete scalar curvature ``u^-5 (-8 lap(u) + 6 u)`` node by node.

    The round-metric Laplacian of an axisymmetric function is
    ``lap(u) = u'' + 2 cot(theta) u'``, discretized with centered second-order
    differences in the interior.  At the poles the regular limit is
    ``3 u''(0)``, taken from the even-symmetry ghost node as
    ``6 (u_1 - u_0) / h^2``.  This is the field the flow evolves by, bit
    for bit: the read-only array of ``profile.evaluation``, which may raise.
    """
    return profile.evaluation[0]


def volume(profile: AxisymProfile) -> float:
    """Total volume ``4 pi * integral u^6 sin^2(theta) d theta``, from
    ``profile.evaluation``, which may raise."""
    return profile.evaluation[1]


def sphere_area(profile: AxisymProfile, theta: float) -> float:
    """Area ``4 pi u(theta)^4 sin^2(theta)`` of one latitude sphere."""
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"latitude must lie in [0, pi], got {theta}")
    return 4.0 * np.pi * profile.interp_u(theta) ** 4 * math.sin(theta) ** 2


def area_profile(profile: AxisymProfile) -> np.ndarray:
    """Latitude-sphere areas sampled at the grid nodes."""
    return 4.0 * np.pi * profile.u**4 * latitude_grid(profile.n).sin2


@dataclass(frozen=True)
class LatitudeSphere:
    """One latitude two-sphere, with stability data once analyzed.

    ``area`` is ``4 pi u(theta)^4 sin^2(theta)``.  ``jacobi_Q``, ``index``
    and ``nullity`` are None until a spectrum computation fills them in.
    """

    theta: float
    area: float
    minimality_residual: float
    jacobi_Q: float | None = None
    index: int | None = None
    nullity: int | None = None

    def __post_init__(self):
        if not (0.0 < self.theta < np.pi):
            raise ValueError(f"latitude sphere must be interior, got theta={self.theta}")
        for name in ("index", "nullity"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 0):
                raise ValueError(f"{name} must be a nonnegative integer, got {value}")


def _anchor(areas: np.ndarray, i: int, h: float) -> tuple[int, float]:
    """Node i moved off a pole node, and the centered difference |A'| of
    ``areas`` there, the minimality residual of a sphere anchored at it."""
    i = min(max(i, 1), areas.size - 2)
    return i, float(abs(areas[i + 1] - areas[i - 1]) / (2.0 * h))


def _sphere_at(profile: AxisymProfile, i: int, offset: float, residual: float) -> LatitudeSphere:
    """The sphere at ``offset`` from the interior node i, with the given
    minimality residual."""
    theta = float(profile.thetas[i] + offset)
    return LatitudeSphere(
        theta=theta, area=sphere_area(profile, theta), minimality_residual=residual
    )


def _vertex(areas: np.ndarray, h: float) -> tuple[int, float, float, np.ndarray]:
    """The node i of the largest area b, and the parabola through b and the
    areas a, c at nodes i -+ 1: its vertex's offset from node i, its vertex
    value W (the width estimate) and the gradient of W in the node areas.

    Node values are exact samples, so W gains two orders of accuracy over b.
    As b is largest, ``a - 2b + c <= 0`` in floating point too, so the offset
    is at most h / 2 and W >= b.  At an end node, or where ``a - 2b + c``
    rounds to 0 (a within an ulp of b), W is b.
    """
    i = int(np.argmax(areas))
    gradient = np.zeros(areas.size)
    b = float(areas[i])
    if 0 < i < areas.size - 1:
        a, c = float(areas[i - 1]), float(areas[i + 1])
        denom = a - 2.0 * b + c
        if denom != 0.0:
            slope = c - a
            ratio = slope / (4.0 * denom)
            curve = 2.0 * ratio * ratio
            gradient[i - 1:i + 2] = (ratio + curve, 1.0 - 2.0 * curve, curve - ratio)
            return i, 0.5 * h * (a - c) / denom, b - 0.5 * slope * ratio, gradient
    gradient[i] = 1.0
    return i, 0.0, b, gradient


def minimal_coordinate_spheres(profile: AxisymProfile) -> list[LatitudeSphere]:
    """Latitude spheres at the interior critical points of the area profile.

    Strict extrema are refined off-node by ``_vertex`` on the three areas
    around them (negated at a minimum); saddle-flat runs are reported at
    their middle node.  The ``minimality_residual`` is the centered
    difference |A'| at the anchoring node, which vanishes to grid order at a
    genuine critical latitude.  A new list of ``profile.critical_spheres``.
    """
    return list(profile.critical_spheres)


def width_upper_bound(profile: AxisymProfile) -> float:
    """Estimate of the maximal latitude-sphere area.

    The vertex of the parabola through the largest node area and its two
    neighbours.  The exact maximum bounds the sweep-out width from above,
    but this estimate can fall on either side of it by its interpolation
    error, so it is not a bound; ``tilted_width_bound`` is one.
    """
    return profile.latitude_max[0]


def max_latitude_sphere(profile: AxisymProfile) -> LatitudeSphere:
    """The latitude sphere realizing the sweep-out maximum, built from the
    kept vertex on first use and then kept; OverflowError where the areas
    overflow, though ``width_upper_bound`` returns there."""
    return profile._max_sphere


_EPS = float(np.finfo(float).eps)
TILT_ANGLES = tuple(k * math.pi / 16.0 for k in range(9))
_SWEEPOUT_MAX_RTOL = 1e-10
_SUBDIVISIONS = 8
_MAX_REFINE_POINTS = 1 << 16


class _TiltedSpheres:
    """Exact areas of the round spheres ``{x . v = cos(beta)}`` under u^4 g_round.

    u is the piecewise-linear interpolant of the nodes in theta.  A unit
    ``v`` at angle alpha from the axis gives spheres whose points lie at
    polar angles ``theta_lo = |beta - alpha|`` to ``theta_hi = min(beta +
    alpha, 2 pi - beta - alpha)``, and by Archimedes' theorem their area
    element is uniform in ``x4 = cos(theta)``.  The area is therefore

        ``A(alpha, beta) = 2 pi sin(beta) / sin(alpha) * [F(theta_hi) - F(theta_lo)]``

    with ``F(theta) = integral_0^theta u^4 sin``, which is integrated in
    closed form on every cell (repeated integration by parts of a quartic
    times sin), so no quadrature error enters.  At alpha = 0 the family is
    the latitude family, ``A = 4 pi u(beta)^4 sin^2(beta)``.

    Rounding is estimated, not bounded: every cell antiderivative is at most
    ``phi_max`` in size and costs about 15 operations, and F sums n of them,
    so ``moment_rounding = 32 n eps phi_max`` is a first-order estimate of
    the error of F with a factor-2 margin.
    """

    def __init__(self, profile: AxisymProfile):
        self.u = profile.u
        self.thetas = profile.thetas
        self.h = profile.spacing
        self.slopes = np.diff(self.u) / self.h
        cells = np.arange(self.u.size - 1)
        self.phi_start = self._antiderivative(cells, self.thetas[:-1])
        increments = self._antiderivative(cells, self.thetas[1:]) - self.phi_start
        self.moments = np.concatenate(([0.0], np.cumsum(increments)))
        umax = float(np.max(self.u))
        bmax = float(np.max(np.abs(self.slopes)))
        self.umax, self.bmax = umax, bmax
        # Bound on |antiderivative| over every cell.
        phi_max = (
            umax**4 + 4.0 * bmax * umax**3 + 12.0 * bmax**2 * umax**2
            + 24.0 * bmax**3 * umax + 24.0 * bmax**4
        )
        self.moment_rounding = 32.0 * self.u.size * _EPS * phi_max

    def _antiderivative(self, cell: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Antiderivative of ``q^4 sin`` for the linear piece q of ``cell``."""
        b = self.slopes[cell]
        q = self.u[cell] + b * (theta - self.thetas[cell])
        q2, b2 = q * q, b * b
        return -np.cos(theta) * (q2 * q2 - 12.0 * b2 * q2 + 24.0 * b2 * b2) + np.sin(
            theta
        ) * (4.0 * b * q * q2 - 24.0 * b2 * b * q)

    def moment(self, theta: np.ndarray) -> np.ndarray:
        cell = np.minimum((theta / self.h).astype(int), self.u.size - 2)
        return self.moments[cell] + self._antiderivative(cell, theta) - self.phi_start[cell]

    def area(self, alpha: float, beta: np.ndarray) -> np.ndarray:
        if alpha == 0.0:
            return 4.0 * np.pi * np.interp(beta, self.thetas, self.u) ** 4 * np.sin(beta) ** 2
        lo = np.abs(beta - alpha)
        hi = beta + alpha
        hi = np.where(hi > np.pi, 2.0 * np.pi - hi, hi)
        scale = 2.0 * np.pi / math.sin(alpha)
        return scale * np.sin(beta) * (self.moment(hi) - self.moment(lo))

    def curvature_bound(self, alpha: float) -> float:
        """Bound M on |d^2 A / d beta^2| wherever it exists.

        dA/dbeta is continuous on [0, pi] for alpha > 0 (F is C^1), but only
        inside each grid cell at alpha = 0, so there M holds cell by cell.
        """
        u, b = self.umax, self.bmax
        if alpha == 0.0:
            return 4.0 * np.pi * (2.0 * u**4 + 8.0 * u**3 * b + 12.0 * u**2 * b**2)
        # A = K sin(beta) D with |D| <= min(F(pi), 2 alpha u^4), |D'| <= 2 u^4
        # and |D''| <= 2 Lip(u^4 sin) <= 2 (4 u^3 b + u^4).
        span = min(float(self.moments[-1]), 2.0 * alpha * u**4)
        return 2.0 * np.pi / math.sin(alpha) * (span + 6.0 * u**4 + 8.0 * u**3 * b)

    def rounding_error(self, alpha: float, area: float) -> float:
        if alpha == 0.0:
            return 16.0 * _EPS * area
        return 4.0 * np.pi / math.sin(alpha) * self.moment_rounding + 16.0 * _EPS * area


@dataclass(frozen=True)
class SweepoutMax:
    """Certified maximal area of the sweep-out ``{x . v = c}``, c in [-1, 1].

    ``area`` is the area of the sphere at level ``c``, so it is attained;
    ``max_error`` bounds how far the maximum over c can exceed it, and
    ``rounding_error`` is a first-order estimate of the floating-point error
    of the computed areas.  ``bound`` adds both.  It bounds the width of the
    metric from above; the only part of it that is estimated rather than
    proven is the rounding term, some 1e-11 relative on a unit profile.
    """

    alpha: float
    c: float
    area: float
    max_error: float
    rounding_error: float

    @property
    def bound(self) -> float:
        return self.area + self.max_error + self.rounding_error


def _certified_max(spheres: _TiltedSpheres, alpha: float, values: np.ndarray) -> SweepoutMax:
    """Branch and bound for ``max_beta A(alpha, beta)`` from the node grid.

    On a cell of width d, a function with |A''| <= M lies below its linear
    interpolant plus ``M d^2 / 8``, so each cell's maximum is at most
    ``max(A at the ends) + M d^2 / 8``.  Cells whose bound exceeds the best
    value found are split in eight until the largest bound is within
    ``_SWEEPOUT_MAX_RTOL`` of that value (or the point budget is spent, which
    leaves the bound valid but looser).  ``values`` are the areas at the
    nodes.
    """
    curvature = spheres.curvature_bound(alpha)
    left = spheres.thetas[:-1]
    width = spheres.h
    i = int(np.argmax(values))
    best_beta, best = float(spheres.thetas[i]), float(values[i])
    ends = np.stack([values[:-1], values[1:]], axis=1)
    while True:
        upper = ends.max(axis=1) + curvature * width * width / 8.0
        keep = upper > best
        left, ends, upper = left[keep], ends[keep], upper[keep]
        gap = float(upper.max()) - best if upper.size else 0.0
        if gap <= _SWEEPOUT_MAX_RTOL * best or left.size * _SUBDIVISIONS > _MAX_REFINE_POINTS:
            break
        width /= _SUBDIVISIONS
        steps = np.arange(1, _SUBDIVISIONS) * width
        inner = spheres.area(alpha, (left[:, None] + steps).ravel()).reshape(left.size, -1)
        i = int(np.argmax(inner))
        if inner.flat[i] > best:
            best = float(inner.flat[i])
            best_beta = float(left[i // inner.shape[1]] + steps[i % inner.shape[1]])
        grid = np.concatenate([ends[:, :1], inner, ends[:, 1:]], axis=1)
        left = (left[:, None] + np.arange(_SUBDIVISIONS) * width).ravel()
        ends = np.stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()], axis=1)
    return SweepoutMax(
        alpha=float(alpha),
        c=math.cos(best_beta),
        area=best,
        max_error=max(gap, 0.0),
        rounding_error=spheres.rounding_error(alpha, best),
    )


def tilted_width_bound(profile: AxisymProfile) -> SweepoutMax:
    """``min over alpha of max over c`` of the tilted sphere areas.

    alpha runs over ``TILT_ANGLES``; alpha = 0 is the latitude family.  Each
    tilted family sweeps out the three-sphere, so every alpha gives an upper
    bound for the width and any finite set of angles gives a rigorous one;
    the set only decides how tight it is.  The bound holds for the metric
    ``u^4 g_round`` with u piecewise linear in theta between the nodes.
    Returns the sweep-out with the least ``bound``.

    A sweep-out's largest node area is attained, so a sweep-out whose node
    maximum already reaches the best bound found cannot win and is not
    refined.
    """
    spheres = _TiltedSpheres(profile)
    nodal = sorted(
        (float(values.max()), alpha, values)
        for alpha, values in ((a, spheres.area(a, spheres.thetas)) for a in TILT_ANGLES)
    )
    best = None
    for floor, alpha, values in nodal:
        if best is not None and floor >= best.bound:
            break
        candidate = _certified_max(spheres, alpha, values)
        if best is None or candidate.bound < best.bound:
            best = candidate
    return best


def _check_critical(profile: AxisymProfile, theta_star: float) -> None:
    """Raise unless the sphere finder (``profile.critical_spheres``, found
    once per profile) has a sphere within one cell h of ``theta_star``.  The
    finder is the one definition of a critical latitude, so every sphere it
    returns passes.  A latitude off the open interval (0, pi) fails first."""
    if not (0.0 < theta_star < np.pi):
        raise ValueError(f"theta_star must be interior, got {theta_star}")
    cells = min(
        (abs(s.theta - theta_star) / profile.spacing for s in profile.critical_spheres),
        default=math.inf,
    )
    if not cells <= 1.0:
        raise ValueError(
            f"theta={theta_star} is not a critical latitude "
            f"(the nearest sphere found is {cells:.3g} cells away)"
        )


def _legendre_pair(k: int, x: float) -> tuple[float, float]:
    """Legendre polynomial P_k(x) and the polar derivative helper.

    Returns (P_k(x), P_k'(x)); the recurrence is exact for the small degrees
    used by the spectrum computations.
    """
    if k == 0:
        return 1.0, 0.0
    p_prev, p = 1.0, x
    for m in range(1, k):
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
    denom = 1.0 - x * x
    if denom < 1e-14:
        # At the poles P'_k(+-1) = +-... k(k+1)/2 * x^(k+1); only the product
        # sin(phi) * P'_k is ever used there, so the exact value is immaterial.
        return p, 0.5 * k * (k + 1) * (x ** (k + 1))
    return p, k * (p_prev - x * p) / denom


def _graph_setup(
    profile: AxisymProfile, theta_star: float, k: int, eps: float
) -> tuple[float, float]:
    """Validate a zonal-graph second variation and return ``(c, norm_sq)``.

    ``c = 1 / u(theta_star)^2`` turns a height against the unit normal of g
    into a latitude offset, and ``norm_sq`` is the squared L^2 norm of
    ``P_k`` on the unperturbed sphere.

    Raises:
        ValueError: for non-critical ``theta_star``, degree k < 0, an eps
            outside (0, MAX_VARIATION_EPS], or an eps so large the graph
            would leave the latitude band around the sphere.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"harmonic degree must be a nonnegative integer, got {k}")
    _check_critical(profile, theta_star)
    u_star = profile.interp_u(theta_star)
    c = 1.0 / (u_star * u_star)
    margin = min(theta_star, np.pi - theta_star)
    if not (0.0 < eps <= MAX_VARIATION_EPS):
        raise ValueError(f"eps={eps} out of range: need 0 < eps <= {MAX_VARIATION_EPS}")
    if eps * c > 0.5 * margin:
        raise ValueError(
            f"eps={eps} too large for the sphere at theta*={theta_star:.6g}: the "
            f"graph must stay within half its distance to a pole "
            f"(eps/u(theta*)^2 <= {0.5 * margin:.3e}), so eps <= "
            f"{0.5 * margin / c:.6g} there"
        )
    norm_sq = 4.0 * np.pi * u_star**4 * math.sin(theta_star) ** 2 / (2 * k + 1)
    return c, norm_sq


def second_variation_oracle(
    profile: AxisymProfile,
    theta_star: float,
    k: int,
    eps: float,
) -> float:
    """Finite-difference Jacobi quadratic form on a zonal harmonic, by quadrature.

    Perturbs the critical latitude sphere to the normal graph
    ``theta(omega) = theta_star + eps * P_k(cos phi) / u(theta_star)^2``
    (height ``eps * P_k`` against the unit normal of g), computes its area by
    adaptive quadrature in phi, and returns the second difference in eps
    divided by the squared L^2 norm of the harmonic on the unperturbed
    sphere.  For an exact Jacobi field this converges to
    ``k(k+1)/radius^2 - Q`` as eps -> 0; in particular the k = 0 value is
    ``-Q``.  The piecewise-linear interpolant of u bends only at nodes, so
    this is accurate only where the offset ``eps / u(theta_star)^2`` spans
    several cells: at eps = 1e-2 on ``1 + 0.3 cos(theta)`` the k = 0 value
    is 11% off at n = 201 and the k = 2 value 4% off at n = 401, and at
    n = 801 they are within 4e-5 and 2e-3 of ``jacobi_spectrum``'s closed
    form.  It cross-checks that closed form on fine grids only.

    Raises:
        ValueError: for non-critical ``theta_star``, degree k < 0, or an eps
            so large the graph would leave the latitude band around the
            sphere.
    """
    c, norm_sq = _graph_setup(profile, theta_star, k, eps)
    # Tolerance scales with the sphere area so conformally scaled profiles
    # integrate at the same relative precision.
    quad = QuadratureConfig(abs_tol=1e-12 * max(1.0, sphere_area(profile, theta_star)))
    thetas = profile.thetas
    u = profile.u

    def graph_area(amplitude: float) -> float:
        def integrand(phi: float) -> float:
            x = math.cos(phi)
            p_k, dp_k = _legendre_pair(k, x)
            theta = theta_star + amplitude * c * p_k
            u_theta = float(np.interp(theta, thetas, u))
            sin_theta = math.sin(theta)
            grad_sq = (math.sin(phi) * dp_k) ** 2
            stretch = math.sqrt(
                1.0 + (amplitude * c) ** 2 * grad_sq / (sin_theta * sin_theta)
            )
            return 2.0 * math.pi * u_theta**4 * sin_theta**2 * stretch * math.sin(phi)

        return integrate_adaptive(integrand, 0.0, math.pi, quad)

    base = graph_area(0.0)
    second_diff = (graph_area(eps) - 2.0 * base + graph_area(-eps)) / (eps * eps)
    return second_diff / norm_sq


@dataclass(frozen=True)
class SpectrumReport:
    """Jacobi spectrum of one latitude sphere via the measured Q."""

    theta: float
    jacobi_Q: float
    induced_radius_sq: float
    eigenvalues: list[tuple[int, float, int]]  # (degree, eigenvalue, multiplicity)
    index: int
    nullity: int


def jacobi_spectrum(profile: AxisymProfile, theta_star: float) -> SpectrumReport:
    """Morse index and nullity of a critical latitude sphere.

    Q is taken in closed form at ``theta*``, with ``w = 2 ln u``:
    ``Q = u^-4 [2 - 2 w'' - 2 cot(theta) w'] + 2 u^-4 (cot(theta) + w')^2``,
    which is ``Ric(N, N) + |A|^2`` and equals ``-A'' / (u^4 A)`` where A' = 0.
    w' and w'' are central differences at the grid step h of w through the
    linear interpolant of u, whose values at ``theta*`` and ``theta* +- h``
    are the node values linearly interpolated with one weight.  Within one
    cell of a pole the interpolant clamps to the pole value, which pole
    regularity makes a second-order stand-in for the even reflection.
    Against the analytic Q of the round profile, ``1 + 0.3 cos(theta)``,
    ``1 + 0.3 cos(2 theta)`` and seeded four-mode cosine series, the largest
    error relative to ``max(1, |Q|)`` is 1.3e-3 / 9.5e-5 / 1.7e-5 at
    n = 201 / 401 / 801; on constant profiles Q is exact.  The eigenvalues
    ``lambda_k = k(k+1)/radius^2 - Q`` (multiplicity 2k+1) are listed from
    k = 0 to the first positive one, about ``sqrt(Q radius^2)`` of them; all
    later ones are larger, so index and nullity are exact.  Zeros are
    detected at ``ZERO_EIGENVALUE_TOL`` on the scale-free ``lambda_k
    radius^2 = k(k+1) - Q radius^2``.

    Raises:
        ValueError: if ``theta_star`` is not interior, or not within one
            cell of a sphere that ``minimal_coordinate_spheres`` finds (each
            of those passes; the profile keeps them, so the finder runs once).
        ArithmeticError: if ``Q radius^2`` is not finite, where the count
            would not end.
    """
    _check_critical(profile, theta_star)
    h = profile.spacing
    # np.interp works point by point: the bits of three scalar calls.
    stencil = np.interp(theta_star + np.array([-h, 0.0, h]), profile.thetas, profile.u)
    w_lo, w_mid, w_hi = (2.0 * math.log(float(v)) for v in stencil)
    dw = (w_hi - w_lo) / (2.0 * h)
    d2w = (w_lo - 2.0 * w_mid + w_hi) / (h * h)
    cot = 1.0 / math.tan(theta_star)
    u4 = float(stencil[1]) ** 4
    q = (2.0 - 2.0 * d2w - 2.0 * cot * dw) / u4 + 2.0 * (cot + dw) ** 2 / u4
    radius_sq = u4 * math.sin(theta_star) ** 2
    q_scaled = q * radius_sq
    if not math.isfinite(q_scaled):
        raise ArithmeticError(f"Q * radius^2 = {q_scaled} at theta={theta_star}")
    eigenvalues = []
    index = nullity = 0
    for k in itertools.count():
        scaled = k * (k + 1) - q_scaled
        eigenvalues.append((k, k * (k + 1) / radius_sq - q, 2 * k + 1))
        if scaled > ZERO_EIGENVALUE_TOL:
            break
        if scaled < -ZERO_EIGENVALUE_TOL:
            index += 2 * k + 1
        else:
            nullity += 2 * k + 1
    return SpectrumReport(
        theta=float(theta_star),
        jacobi_Q=q,
        induced_radius_sq=radius_sq,
        eigenvalues=eigenvalues,
        index=index,
        nullity=nullity,
    )


def analyze_sphere(profile: AxisymProfile, sphere: LatitudeSphere) -> LatitudeSphere:
    """Fill a sphere's jacobi_Q, index and nullity from ``jacobi_spectrum``."""
    spectrum = jacobi_spectrum(profile, sphere.theta)
    return replace(sphere, jacobi_Q=spectrum.jacobi_Q, index=spectrum.index,
                   nullity=spectrum.nullity)


@dataclass(frozen=True)
class StarReport:
    """Stability survey of the latitude sweep-out.

    The verdict is explicitly restricted to axisymmetric coordinate-sphere
    candidates: ``star_holds_on_axisym_candidates`` is true when no listed
    sphere is strictly stable (index 0, nullity 0) with area at most the
    sweep-out maximum.  Non-axisymmetric minimal spheres are out of scope.
    """

    width_upper_bound: float
    minimal_spheres: list[LatitudeSphere]
    star_holds_on_axisym_candidates: bool


def star_scan(profile: AxisymProfile) -> StarReport:
    """Analyze every critical latitude sphere and test the stability verdict.

    Raises:
        ProfileError: the latitude areas overflow in floating point, so no
            width estimate or critical latitude can be read from them.
    """
    bound = width_upper_bound(profile)
    if not math.isfinite(bound):
        raise ProfileError(
            f"latitude areas overflow in floating point (width estimate {bound}, "
            f"u up to {profile.u.max():.3g})"
        )
    spheres = [analyze_sphere(profile, s) for s in minimal_coordinate_spheres(profile)]
    violating = any(s.index == 0 and s.nullity == 0 and s.area <= bound for s in spheres)
    return StarReport(
        width_upper_bound=bound,
        minimal_spheres=spheres,
        star_holds_on_axisym_candidates=not violating,
    )


@dataclass(frozen=True)
class IsoperimetricCheck:
    """Sweep-out maximum against the round equator at equal volume.

    ``max_profile_area`` is ``width_upper_bound``, the profile's kept
    estimate of the maximal latitude-sphere area.  That area bounds the
    isoperimetric profile maximum from above, so ``passed`` supports the
    sharp comparison up to the estimate's interpolation error without
    certifying it; failing this conservative check is no counterexample.
    """

    max_profile_area: float
    round_equator_area_same_volume: float
    passed: bool


def isoperimetric_check(profile: AxisymProfile) -> IsoperimetricCheck:
    """Judge ``width_upper_bound`` against the round equator of the profile's
    volume (both kept), with a slack of 1e-3 in area."""
    max_area, vol = width_upper_bound(profile), volume(profile)
    round_area = 4.0 * np.pi * (vol / (2.0 * np.pi**2)) ** (2.0 / 3.0)
    return IsoperimetricCheck(max_profile_area=max_area, round_equator_area_same_volume=round_area,
                              passed=max_area <= round_area + 1e-3)


@dataclass(frozen=True)
class GreatSphereCheck:
    """Great-sphere average of f against its volume average (round metric)."""

    lhs: float
    rhs: float
    rel_err: float


def great_sphere_average_check(
    f: Callable[[np.ndarray], np.ndarray],
    samples: int,
    seed: int,
) -> GreatSphereCheck:
    """Monte Carlo test of the great-sphere integral identity.

    ``lhs`` draws `samples` uniformly random great two-spheres of the round
    three-sphere (unit normals in R^4) with one uniform point on each, giving
    an unbiased estimate of the averaged normalized sphere integral of f;
    ``rhs`` estimates the volume average of f from `samples` independent
    uniform points of the same seeded stream.  For the round metric the two
    agree; ``rel_err`` is |lhs - rhs| / |rhs| (inf when rhs = 0).

    Args:
        f: vectorized callable on arrays of shape (m, 4) of unit vectors.
        samples: number of Monte Carlo draws, at least 1000.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((samples, 4))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    raw = rng.standard_normal((samples, 4))
    tangent = raw - np.sum(raw * normals, axis=1, keepdims=True) * normals
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    lhs = float(np.mean(f(tangent)))
    direct = rng.standard_normal((samples, 4))
    direct /= np.linalg.norm(direct, axis=1, keepdims=True)
    rhs = float(np.mean(f(direct)))
    rel_err = abs(lhs - rhs) / abs(rhs) if rhs != 0.0 else float("inf")
    return GreatSphereCheck(lhs=lhs, rhs=rhs, rel_err=rel_err)
