"""Output checks for benchmark jobs, with references of the benchmark's own.

Every check returns a list of failure messages; an empty list means the
job's output is correct.  The references never call the code under test:

* Berger rows are compared with the closed form of the width integral,
  ``int_{-1}^{1} sqrt(b + (a - b) x^2) dx`` with ``a = rho^(-4/3)`` and
  ``b = rho^(2/3)``, using a series for ``asinh(c)/c`` and ``asin(c)/c``
  near the round point, to relative tolerance ``BERGER_RTOL``.
* Conformal volumes are compared with a Gauss-Legendre integral of the
  analytic profile, to relative tolerance ``VOLUME_RTOL``; the width bound
  with the analytic maximal latitude area, and sphere areas with the
  analytic area at their latitude, to the discretization error of the
  program's declared interpolants (``width_rtol``, ``interpolation_rtol``).
* Membership certificates are verified in exact ``Fraction`` arithmetic.
* Cesaro error traces are compared with a replay of the greedy selection.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np

BERGER_RTOL = 1e-9
VOLUME_RTOL = 1e-8
ROUNDOFF = 1e-12
WIDTH_RTOL_PER_H3 = 4.0
CESARO_RTOL = 1e-12
PRODUCT_BOUND = 24.0 * math.pi
ROUND_NW = (16.0 / math.pi) ** (1.0 / 3.0)


def _exit(code) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def _load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Berger family.
# ---------------------------------------------------------------------------


def _asinh_over(c: float) -> float:
    if c < 1e-3:
        c2 = c * c
        return 1.0 - c2 / 6.0 + 3.0 * c2 * c2 / 40.0 - 5.0 * c2**3 / 112.0
    return math.asinh(c) / c


def _asin_over(c: float) -> float:
    if c < 1e-3:
        c2 = c * c
        return 1.0 + c2 / 6.0 + 3.0 * c2 * c2 / 40.0 + 5.0 * c2**3 / 112.0
    return math.asin(c) / c


def berger_normalized_width(rho: float) -> float:
    """Closed form of the Berger normalized width."""
    a = rho ** (-4.0 / 3.0)
    b = rho ** (2.0 / 3.0)
    if a >= b:
        integral = math.sqrt(a) + math.sqrt(b) * _asinh_over(math.sqrt((a - b) / b))
    else:
        integral = math.sqrt(a) + math.sqrt(b) * _asin_over(math.sqrt((b - a) / b))
    return (2.0 / math.pi) ** (1.0 / 3.0) * integral


def berger_row(rho: float) -> dict:
    volume = 2.0 * math.pi**2 * rho
    nw = berger_normalized_width(rho)
    return {
        "scalar_curvature": 8.0 - 2.0 * rho * rho,
        "ricci_positive": rho < math.sqrt(2.0),
        "volume": volume,
        "width": nw * volume ** (2.0 / 3.0),
        "normalized_width": nw,
    }


def berger_scan(code, path: str, item: dict) -> list[str]:
    errors = _exit(code)
    if errors:
        return errors
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    rhos = np.geomspace(item["rho_min"], item["rho_max"], item["n"])
    if len(rows) != len(rhos):
        return [f"{len(rows)} scan rows, expected {len(rhos)}"]
    for row, rho in zip(rows, rhos):
        if _rel(float(row["rho"]), float(rho)) > 1e-14:
            errors.append(f"row rho {row['rho']} != grid value {rho!r}")
            continue
        ref = berger_row(float(row["rho"]))
        if (row["ricci_positive"] == "true") != ref["ricci_positive"]:
            errors.append(f"rho={row['rho']}: wrong Ricci flag")
        for key, tol in (("scalar_curvature", 1e-12), ("volume", 1e-12),
                         ("width", BERGER_RTOL), ("normalized_width", BERGER_RTOL)):
            if _rel(float(row[key]), ref[key]) > tol:
                errors.append(f"rho={row['rho']}: {key} {row[key]} vs closed form {ref[key]!r}")
    return errors


def berger_certify(code, path: str, item: dict) -> list[str]:
    errors = _exit(code)
    if errors:
        return errors
    report = _load_json(path)
    if not report["local_min"]["passed"]:
        errors.append("local minimum certificate did not pass")
    max_product = report["product_bound"]["max_product"]
    if not max_product <= PRODUCT_BOUND + 1e-4:
        errors.append(f"max product {max_product!r} above 24 pi + 1e-4")
    grid = np.geomspace(1e-2, 1.99, item["grid_n"])
    ref = max(berger_row(float(r))["width"] * (8.0 - 2.0 * r * r) for r in grid)
    if _rel(max_product, ref) > BERGER_RTOL:
        errors.append(f"max product {max_product!r} vs closed form {ref!r}")
    return errors


# ---------------------------------------------------------------------------
# Conformal metrics.
# ---------------------------------------------------------------------------


def profile_values(coeffs, thetas) -> np.ndarray:
    """``u = 1 + sum_k a_k cos(k theta)``, k = 1..len(coeffs)."""
    u = np.ones_like(np.asarray(thetas, dtype=float))
    for k, a in enumerate(coeffs, start=1):
        u = u + a * np.cos(k * thetas)
    return u


def critical_latitudes(coeffs) -> int:
    """Interior critical points of the analytic area ``u^4 sin^2``, counted
    as sign changes of its derivative on a fine grid."""
    thetas = np.linspace(0.0, math.pi, 4001)
    area = profile_values(coeffs, thetas) ** 4 * np.sin(thetas) ** 2
    slope = np.sign(np.diff(area))
    return int(np.count_nonzero(slope[1:] != slope[:-1]))


def profile_volume(coeffs) -> float:
    """``4 pi int_0^pi u^6 sin^2`` by 96-point Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(96)
    thetas = 0.5 * math.pi * (x + 1.0)
    u = profile_values(coeffs, thetas)
    return 4.0 * math.pi * 0.5 * math.pi * float(np.sum(w * u**6 * np.sin(thetas) ** 2))


def latitude_area(coeffs, thetas) -> np.ndarray:
    """Analytic latitude-sphere area ``4 pi u^4 sin^2``."""
    thetas = np.asarray(thetas, dtype=float)
    return 4.0 * math.pi * profile_values(coeffs, thetas) ** 4 * np.sin(thetas) ** 2


def max_latitude_area(coeffs) -> float:
    """Maximum of the analytic latitude area: the best node of a fine grid,
    refined by ternary search over its two neighbouring cells."""
    thetas = np.linspace(0.0, math.pi, 20001)
    i = int(np.argmax(latitude_area(coeffs, thetas)))
    lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, thetas.size - 1)]
    for _ in range(80):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if latitude_area(coeffs, m1) < latitude_area(coeffs, m2):
            lo = m1
        else:
            hi = m2
    return float(latitude_area(coeffs, 0.5 * (lo + hi)))


def width_rtol(n: int) -> float:
    """Relative tolerance of the width bound, the vertex of a parabola fitted
    to three node areas: ``WIDTH_RTOL_PER_H3 * h^3``.  The measured error
    is at most about ``1.5 h^3``; the raw node maximum is off by ``O(h^2)``."""
    h = math.pi / (n - 1)
    return WIDTH_RTOL_PER_H3 * h**3 + ROUNDOFF


def interpolation_rtol(coeffs, n: int) -> float:
    """Bound on the relative error of a sphere area computed from the linear
    interpolant of u, which is off by at most ``h^2/8 max|u''|`` between
    nodes; ``max|u''| <= sum k^2 |a_k|`` and ``u >= 1 - sum |a_k|``."""
    h = math.pi / (n - 1)
    curvature = sum(k * k * abs(a) for k, a in enumerate(coeffs, start=1))
    u_min = 1.0 - sum(abs(a) for a in coeffs)
    return (1.0 + h * h * curvature / (8.0 * u_min)) ** 4 - 1.0 + ROUNDOFF


def conformal_analyze(code, path: str, item: dict) -> list[str]:
    errors = _exit(code)
    if errors:
        return errors
    report = _load_json(path)
    coeffs, n = item["coeffs"], item["n"]
    ref = profile_volume(coeffs)
    if _rel(report["volume"], ref) > VOLUME_RTOL:
        errors.append(f"volume {report['volume']!r} vs Gauss-Legendre {ref!r}")
    bound = report["width_upper_bound"]
    ref = max_latitude_area(coeffs)
    if _rel(bound, ref) > width_rtol(n):
        errors.append(f"width bound {bound!r} vs analytic maximal area {ref!r}")
    # A sphere area exceeds the width bound by at most the discretization
    # errors of the two: u is interpolated linearly between nodes for the
    # sphere, while the bound refines the node areas by a parabola.
    area_rtol = interpolation_rtol(coeffs, n)
    slack = area_rtol + width_rtol(n)
    spheres = report["minimal_spheres"]
    for sphere in spheres:
        theta, area = sphere["theta"], sphere["area"]
        ref = float(latitude_area(coeffs, theta))
        if _rel(area, ref) > area_rtol:
            errors.append(f"sphere at theta={theta} has area {area!r}, analytic {ref!r}")
        if area > bound * (1.0 + slack):
            errors.append(f"sphere at theta={theta} has area above the width bound")
    if not any(coeffs):
        morse = [(s["index"], s["nullity"]) for s in spheres]
        if morse != [(1, 3)]:
            errors.append(f"round profile Morse data {morse}, expected [(1, 3)]")
    return errors


def roundcheck(code, path: str) -> list[str]:
    errors = _exit(code)
    if errors:
        return errors
    report = _load_json(path)
    failed = [i["name"] for i in report["items"] if not i["passed"]]
    if not report["passed"] or failed or len(report["items"]) != 4:
        errors.append(f"roundcheck items failed: {failed}")
    return errors


# ---------------------------------------------------------------------------
# Flow.
# ---------------------------------------------------------------------------


def flow_run(code, path: str, csv_path: str) -> list[str]:
    """Criteria 6 and 7 (second clause) on the summary and the trace CSV."""
    errors = _exit(code)
    if errors:
        return errors
    report = _load_json(path)
    if report["status"] != "converged":
        errors.append(f"flow status {report['status']}")
    if not report["max_volume_drift"] <= 1e-12:
        errors.append(f"volume drift {report['max_volume_drift']!r} above 1e-12")
    if not report["max_energy_increase"] <= 1e-8:
        errors.append(f"energy rise {report['max_energy_increase']!r} above 1e-8")
    if not report["final"]["sup_R_minus_r"] < 1e-3:
        errors.append("final sup|R - r| not below 1e-3")
    nw = report["theorem1"]["final_normalized_width"]
    if not abs(nw - ROUND_NW) <= 0.005 * ROUND_NW:
        errors.append(f"final normalized width {nw!r} outside 0.5% of round")
    with open(csv_path) as handle:
        rows = list(csv.DictReader(handle))
    every = report["config"]["sample_every"]
    steps = report["steps"]
    expected = 1 + steps // every + (1 if steps % every else 0)
    if len(rows) != expected:
        return errors + [f"trace has {len(rows)} rows, expected {expected}"]
    if float(rows[0]["t"]) != 0.0 or float(rows[-1]["t"]) != report["final"]["t"]:
        errors.append("trace does not span the run")
    r_avg = [float(row["r_avg"]) for row in rows]
    if min(r_avg) < r_avg[-1] - 1e-6:
        errors.append("average curvature dips below its final value")
    if not os.path.exists(csv_path + ".meta.json"):
        errors.append("trace sidecar missing")
    return errors


def refinement_ratio(records: list[dict]) -> float:
    """Relative residual of the width-derivative monitor (criterion 8)."""
    residual = max(abs(r["residual"]) for r in records)
    scale = max(abs(r["rhs"]) for r in records)
    return residual / scale


def refinement_orders(ratios: dict[int, float]) -> list[str]:
    """Both refinement orders of the triple must be at least 1."""
    if len(ratios) != 3:
        return [f"refinement triple incomplete: {sorted(ratios)}"]
    coarse, medium, fine = (ratios[n] for n in sorted(ratios))
    orders = (math.log2(coarse / medium), math.log2(medium / fine))
    if not all(o >= 1.0 for o in orders):
        return [f"refinement orders {orders} below 1"]
    return []


# ---------------------------------------------------------------------------
# Membership and Cesaro sequences (dyadic data, exact in binary floating point).
# ---------------------------------------------------------------------------


def _dyadic_row(rng, n: int) -> np.ndarray:
    while True:
        row = rng.integers(0, 16, size=n) / 16.0
        if row.sum() > 0.0:
            return row


def planted_member(rng, n: int) -> tuple[list[float], list[list[float]]]:
    """A full-rank family and a non-negative dyadic combination of it."""
    while True:
        family = np.stack([_dyadic_row(rng, n) for _ in range(n)])
        if np.linalg.matrix_rank(family) == n:
            break
    while True:
        coeffs = rng.integers(0, 9, size=n) / 8.0
        if coeffs.any():
            break
    mu0 = coeffs @ family  # dyadic products and sums are exact
    return [float(v) for v in mu0], [[float(v) for v in row] for row in family]


def planted_non_member(rng, n: int) -> tuple[list[float], list[list[float]]]:
    """A family on which a planted sign functional f is <= 0, and a target
    on which it is positive, so the target lies outside the cone."""
    signs = np.ones(n)
    negative = rng.permutation(n)[: max(1, n // 2)]
    signs[negative] = -1.0
    positive = np.flatnonzero(signs > 0)
    family = []
    for _ in range(n):
        row = _dyadic_row(rng, n)
        excess = float(signs @ row)
        if excess > 0.0:
            row[rng.choice(negative)] += excess + rng.integers(0, 4) / 16.0
        family.append(row)
    mu0 = rng.integers(1, 17, size=n) / 16.0
    excess = float(signs @ mu0)
    if excess < 1.0 / 16.0:
        mu0[rng.choice(positive)] += 1.0 / 16.0 - excess + rng.integers(0, 4) / 16.0
    return [float(v) for v in mu0], [[float(v) for v in row] for row in family]


def membership(code, path: str, item: dict) -> list[str]:
    errors = _exit(code)
    if errors:
        return errors
    report = _load_json(path)
    expected = "member" if item["member"] else "non_member"
    if report["verdict"] != expected:
        return [f"verdict {report['verdict']}, expected {expected}"]
    family = [[Fraction(v) for v in row] for row in item["family"]]
    mu0 = [Fraction(v) for v in item["mu0"]]
    if item["member"]:
        recon = [Fraction(0)] * len(mu0)
        for j, c in report["coefficients"]:
            c = Fraction(c)
            if not (0 <= j < len(family)) or c < 0:
                return [f"invalid coefficient ({j}, {c})"]
            recon = [r + c * y for r, y in zip(recon, family[j])]
        if recon != mu0:
            errors.append("coefficients do not reconstruct the target exactly")
    else:
        f = [Fraction(v) for v in report["separating_f"]]
        scale = max(abs(v) for v in f)
        if not sum(a * b for a, b in zip(f, mu0)) > 0:
            errors.append("separating functional not positive on the target")
        for j, row in enumerate(family):
            # f was rounded to binary64 after exact verification, so pairings
            # that are exactly zero may come back as roundoff of either sign.
            noise = Fraction(1, 10**12) * scale * sum(row)
            if sum(a * b for a, b in zip(f, row)) > noise:
                errors.append(f"separating functional positive on member {j}")
    return errors


def cesaro_errors(item: dict, weighted: bool, k_max: int) -> list[float]:
    """Replay the greedy nearest-mean selection and return its error trace."""
    mu0 = np.asarray(item["mu0"])
    family = np.asarray(item["family"])
    target = mu0 / mu0.sum()
    masses = family.sum(axis=1)
    candidates = family if weighted else family / masses[:, None]
    running = np.zeros_like(target)
    total = 0.0
    errors = []
    for k in range(1, k_max + 1):
        denom = (total + masses)[:, None] if weighted else float(k)
        dists = np.max(np.abs((running + candidates) / denom - target), axis=1)
        pick = int(np.argmin(dists))
        errors.append(float(dists[pick]))
        running = running + candidates[pick]
        total += masses[pick]
    return errors


def cesaro(code, path: str, item: dict, weighted: bool, k_max: int) -> list[str]:
    errors = _exit(code)
    if errors:
        return errors
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    if [int(r["k"]) for r in rows] != list(range(1, k_max + 1)):
        return [f"trace has {len(rows)} rows, expected k = 1..{k_max}"]
    ref = cesaro_errors(item, weighted, k_max)
    for row, want in zip(rows, ref):
        got = float(row["error"])
        if abs(got - want) > CESARO_RTOL * want + 1e-15:
            return [f"Cesaro error at k={row['k']}: {got!r} vs replay {want!r}"]
    return errors
