"""Berger-sphere invariants: curvature, volume, and sweep-out width.

The one-parameter family g_rho squashes the round three-sphere along the
Hopf fibres; rho = 1 is the round metric.  Closed forms exist for the scalar
curvature (8 - 2 rho^2), the Ricci-positivity window (0 < rho < sqrt 2), the
volume (2 pi^2 rho) and the sweep-out width, whose one-dimensional integral
has an elementary antiderivative (asinh or asin; a series takes over at the
round point, where both tend to 0/0).  The *normalized* width divides out
volume^(2/3), making it scale invariant.

The module also provides the two desk checks used throughout the test
suite: a finite-difference certificate that rho = 1 is a strict local
minimum of the normalized width, and the product bound
width * scalar_curvature <= 24 pi with equality only at the round metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._fsio import atomic_write_text, csv_text

__all__ = [
    "BergerReport",
    "LocalMinCertificate",
    "BoundCheck",
    "scalar_curvature",
    "has_positive_ricci",
    "volume",
    "normalized_width",
    "width",
    "report_at",
    "scan",
    "write_scan_csv",
    "local_min_certificate",
    "scalar_normalized_bound_check",
]

ROUND_NORMALIZED_WIDTH = (16.0 / math.pi) ** (1.0 / 3.0)
PRODUCT_BOUND = 24.0 * math.pi
# Work cap on scan grids, far finer than any plot of the family needs.
MAX_SCAN_POINTS = 100_000


def _require_positive_rho(rho: float) -> float:
    rho = float(rho)
    if not (rho > 0.0) or not math.isfinite(rho):
        raise ValueError(f"Berger parameter must be a positive finite number, got {rho}")
    return rho


def _finite(value: float, name: str, rho: float) -> float:
    """value, or ``ArithmeticError`` naming rho where it left floating point."""
    if not math.isfinite(value):
        raise ArithmeticError(f"{name} leaves floating point at rho={rho!r}")
    return value


def scalar_curvature(rho: float) -> float:
    """Scalar curvature of g_rho, namely ``8 - 2 rho^2``.

    Raises:
        ArithmeticError: for rho above about 9.5e153, where ``rho^2``
            overflows.
    """
    rho = _require_positive_rho(rho)
    return _finite(8.0 - 2.0 * rho * rho, "scalar curvature", rho)


def has_positive_ricci(rho: float) -> bool:
    """True exactly on the Ricci-positive window ``0 < rho < sqrt(2)``."""
    rho = _require_positive_rho(rho)
    return rho < math.sqrt(2.0)


def volume(rho: float) -> float:
    """Total volume ``2 pi^2 rho`` (linear in the fibre-squashing factor).

    Raises:
        ArithmeticError: for rho above about 9.1e306, where the product
            overflows.
    """
    rho = _require_positive_rho(rho)
    return _finite(2.0 * math.pi**2 * rho, "volume", rho)


# Below this |z| the series of G replaces the elementary formulas, which
# tend to 0/0 at the round point z = 0.
_SERIES_RADIUS = 1e-3


def _g(z: float) -> float:
    """``G(z) = integral_0^1 dx / sqrt(1 + z x^2)`` for z >= -1.

    ``asinh(sqrt z)/sqrt z`` for z > 0 and ``asin(sqrt -z)/sqrt -z`` for
    z < 0; near 0 its Taylor series, whose first omitted term is below
    3e-17 on ``|z| < _SERIES_RADIUS``.
    """
    if abs(z) < _SERIES_RADIUS:
        return 1.0 + z * (-1 / 6 + z * (3 / 40 + z * (-5 / 112 + z * 35 / 1152)))
    if z > 0.0:
        root = math.sqrt(z)
        return math.asinh(root) / root
    root = math.sqrt(-z)
    return math.asin(root) / root


def normalized_width(rho: float) -> float:
    """Scale-invariant sweep-out width of g_rho.

    The width integral ``integral_0^pi sin(s) * sqrt(a cos^2 s + b sin^2 s) ds``
    with ``a = rho^(-4/3)`` and ``b = rho^(2/3)`` becomes, with x = cos s,
    ``integral_-1^1 sqrt(b + (a - b) x^2) dx = sqrt(a) + sqrt(b) G(z)`` with
    ``z = (a - b)/b``; the normalized width is ``(2/pi)^(1/3)`` times it.
    At rho = 1 the integral is 2 and the value is ``(16/pi)^(1/3)``.

    Raises:
        ArithmeticError: where the value leaves floating point, i.e. for
            rho below about 7.5e-155, where z overflows.
    """
    rho = _require_positive_rho(rho)
    try:
        a = rho ** (-4.0 / 3.0)
        b = rho ** (2.0 / 3.0)
        integral = math.sqrt(a) + math.sqrt(b) * _g((a - b) / b)
        value = (2.0 / math.pi) ** (1.0 / 3.0) * integral
    except OverflowError:
        value = math.inf
    return _finite(value, "normalized width", rho)


def width(rho: float) -> float:
    """Sweep-out width, i.e. ``normalized_width * volume^(2/3)``.

    Raises:
        ArithmeticError: where either factor leaves floating point (see
            ``normalized_width`` and ``volume``).  The product is about
            ``10 rho`` for large rho, half the volume, so it is finite
            wherever both factors are.
    """
    return normalized_width(rho) * volume(rho) ** (2.0 / 3.0)


@dataclass(frozen=True)
class BergerReport:
    """One scan row of the closed-form invariants at a given rho."""

    rho: float
    scalar_curvature: float
    ricci_positive: bool
    volume: float
    width: float
    normalized_width: float

    def __post_init__(self):
        if not (self.rho > 0.0):
            raise ValueError(f"report requires rho > 0, got {self.rho}")
        if self.volume > 0.0 and self.normalized_width > 0.0:
            residual = abs(self.width / self.volume ** (2.0 / 3.0) - self.normalized_width)
            if residual > 1e-12 * self.normalized_width:
                raise ValueError(
                    f"width/volume^(2/3) inconsistent with normalized width at rho={self.rho}"
                )


def report_at(rho: float) -> BergerReport:
    """Assemble the full invariant report at a single parameter value.

    Raises:
        ArithmeticError: where a value leaves floating point (see the
            closed forms).
    """
    nw = normalized_width(rho)
    vol = volume(rho)
    return BergerReport(
        rho=float(rho),
        scalar_curvature=scalar_curvature(rho),
        ricci_positive=has_positive_ricci(rho),
        volume=vol,
        width=nw * vol ** (2.0 / 3.0),
        normalized_width=nw,
    )


def scan(rho_min: float, rho_max: float, count: int) -> list[BergerReport]:
    """Evaluate reports on a logarithmically spaced parameter grid.

    Args:
        rho_min, rho_max: strictly increasing positive finite endpoints.
        count: number of grid points, from 2 to ``MAX_SCAN_POINTS``.
    """
    if not (0.0 < rho_min < rho_max) or not math.isfinite(rho_max):
        raise ValueError(f"need finite 0 < rho_min < rho_max, got [{rho_min}, {rho_max}]")
    if not (2 <= count <= MAX_SCAN_POINTS):
        raise ValueError(f"scan needs 2 to {MAX_SCAN_POINTS} points, got {count}")
    return [report_at(r) for r in np.geomspace(rho_min, rho_max, count)]


_SCAN_COLUMNS = tuple(f.name for f in fields(BergerReport))


def write_scan_csv(reports: list[BergerReport], path: str) -> None:
    """Write scan rows as CSV, one column per ``BergerReport`` field, with
    ``%.17g`` floats (round-trip exact).

    The file is written atomically: a sibling temporary file is populated and
    renamed over the target.
    """
    columns = {name: [getattr(rep, name) for rep in reports] for name in _SCAN_COLUMNS}
    atomic_write_text(path, csv_text(columns))


@dataclass(frozen=True)
class LocalMinCertificate:
    """Finite-difference evidence that rho = 1 minimizes normalized width."""

    h: float
    first_difference: float
    second_difference: float
    passed: bool


def local_min_certificate(h: float, first_tol: float = 1e-4) -> LocalMinCertificate:
    """Certify the strict local minimum of normalized width at rho = 1.

    Computes the central differences ``(nw(1+h) - nw(1-h)) / (2h)`` and
    ``(nw(1-h) - 2 nw(1) + nw(1+h)) / h^2`` at rho = 1; passes when the
    former vanishes within ``first_tol`` and the latter is strictly positive.

    Args:
        h: finite-difference step, required to satisfy 0 < h < 0.5 so both
            probe points stay well inside the parameter domain.
    """
    if not (0.0 < h < 0.5):
        raise ValueError(f"step must satisfy 0 < h < 0.5, got {h}")
    lo, mid, hi = normalized_width(1.0 - h), normalized_width(1.0), normalized_width(1.0 + h)
    first = (hi - lo) / (2.0 * h)
    second = (lo - 2.0 * mid + hi) / (h * h)
    passed = abs(first) <= first_tol and second > 0.0
    return LocalMinCertificate(h=h, first_difference=first, second_difference=second, passed=passed)


@dataclass(frozen=True)
class BoundCheck:
    """Result of the width * scalar-curvature product bound at one rho."""

    rho: float
    product: float
    bound: float
    passed: bool
    equality: bool


def scalar_normalized_bound_check(rho: float, tol: float = 1e-4) -> BoundCheck:
    """Check ``width(rho) * (8 - 2 rho^2) <= 24 pi`` on 0 < rho < 2.

    The product equals 24 pi exactly at the round metric and falls away from
    it on either side; ``equality`` flags values within ``tol`` of the bound.

    Raises:
        ValueError: when rho >= 2, where the scalar curvature is no longer
            positive and the product bound is not meaningful.
    """
    rho = _require_positive_rho(rho)
    if rho >= 2.0:
        raise ValueError(f"product bound requires 0 < rho < 2, got {rho}")
    product = width(rho) * scalar_curvature(rho)
    return BoundCheck(
        rho=rho,
        product=product,
        bound=PRODUCT_BOUND,
        passed=product <= PRODUCT_BOUND + tol,
        equality=abs(product - PRODUCT_BOUND) < tol,
    )
