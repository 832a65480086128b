"""Volume-normalized conformal curvature flow on axisymmetric profiles.

The metric g = u^4 g_round evolves by ``dg/dt = (r - R) g`` with r the
volume average of the scalar curvature; in conformal-factor form the update
is ``u_t = (u/4)(r - R)``, which follows from ``d(u^4)/dt = (r - R) u^4``.

Grid: every evaluation goes through ``numerics.latitude_grid(n)``, the one
shared discretization, so the flow and the static fields of ``conformal``
(``scalar_curvature_field``, ``volume``) agree to the bit.

Pole handling: the pole Laplacian is the even-symmetry ghost-node stencil
``lap(0) = 6 (u1 - u0) / h^2``, second order for smooth axisymmetric
profiles.  The three-point one-sided stencil is second order as well, but it
is centered at the node next to the pole, so as a *dynamical* update its pole
row is anti-diffusive — a measured runaway rate of ``+6 / (h^2 u^4)`` at any
step size — while the symmetric row damps.

Scheme: one stabilized semi-implicit Euler step per outer step (Chen & Shen,
Comput. Phys. Commun. 108 (1998); Shen & Yang, DCDS-A 28 (2010)),

    ``u* = u + (I - dt c D2)^-1 [dt (u/4)(r - R)]``,

followed by exact volume renormalization ``u = u* (V_target/V(u*))^(1/6)``,
so every accepted state has the initial volume to machine precision.  D2 is
the Neumann three-point second difference, solved by a DCT-I in
``LatitudeGrid.neumann_solve``.  The curvature term stays explicit; the
stabilizer ``dt c D2`` damps the stiff modes that made explicit Euler obey
the CFL rule ``dt <= h^2 min(u)^4 / 6``.  The leading diffusion coefficient
of the update is ``2 u^-4``, and ``c = STABILIZER * 2 min(u)^-4`` with
STABILIZER = 1.5.  Measured margin from ``1 + 0.3 cos(theta)`` at n = 401: a
factor of 0.75 let the energy rise by 2.2e-4 at dt = 2e-5, and at dt = 4e-5
the pole rows went unstable (the first sampled state failed pole
regularity).  Factor 1.5 converges with the energy non-increasing at every
dt from 4e-5 to 1e-3, and at the criterion-6 step dt = 1e-5 its largest
energy rise is 8.2e-12.  The stabilizer adds an O(dt) time error, the same
order as the Euler step: criterion 6 converges at t = 0.93707, against
0.93667 under explicit Euler.

Cost: each outer step evaluates its state once.  ``LatitudeGrid.evaluate``
returns the curvature, the volume and the average curvature from one pass
that forms ``u^6`` once, and the evaluation at the end of an outer step (which
``run`` records in its monitors) is reused by the next step.

Diagnostics: the volume-normalized total-curvature energy
``E = (integral R dV) / V^(1/3)`` is non-increasing along the flow, and the
time derivative of the maximal latitude area (estimated by
``conformal.width_upper_bound``) is compared against the first variation
``(r - R(theta*)) * area(theta*)`` of the maximal latitude sphere.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from ._fsio import atomic_write_text, csv_text, report_text
from .conformal import (
    AxisymProfile,
    LatitudeSphere,
    ProfileError,
    area_profile,
    max_latitude_sphere,
    scalar_curvature_field,
    tilted_width_bound,
    width_upper_bound,
)
from .numerics import LatitudeGrid, latitude_grid

__all__ = [
    "FlowError",
    "FlowState",
    "FlowTrace",
    "STABILIZER",
    "average_scalar_curvature",
    "hilbert_einstein_energy",
    "flow_state",
    "step",
    "run",
    "write_trace_csv",
    "width_derivative_monitor",
    "theorem1_monitor",
    "Theorem1Report",
    "write_run_summary_json",
    "ConformalVariation",
    "VariationReport",
    "maximum_test_direction",
]

# The stabilizer c of the implicit step, in units of the leading diffusion
# coefficient 2 min(u)^-4 of the update.
STABILIZER = 1.5
# Cap on the outer steps of one run (each holds six monitor entries); twice
# the criterion-6 run of t_end = 5 at dt = 1e-5.
MAX_STEPS = 1_000_000


class FlowError(RuntimeError):
    """A flow step produced no valid state.

    The implicit step has no stability limit to break.  What remains is a
    step too large for the state, which leaves floating point:
    - the conformal factor is not positive and finite after the step (the
      stabilizer does not damp the mean of the update);
    - the volume ``u^6`` overflows to inf (or nan, inf times 0 at a pole) or
      underflows to 0.  On u ~ 1e-40 the curvature is ~1e160, and one step
      of 1e-3 moves u to ~1e117;
    - the stabilizer ``c`` overflows because min(u) is below about 1e-77;
    - a state the flow records is no valid ``AxisymProfile`` (its poles
      lost regularity: with the stabilizer halved, 1 + 0.3 cos(theta) at
      n = 401 and dt = 4e-5 does so after 61 steps).

    ``run`` and ``step`` silence numpy's overflow, invalid-value and
    division warnings, because they check every result themselves, so the
    error is the one report of a failure.
    """


def average_scalar_curvature(profile: AxisymProfile) -> float:
    """Volume average ``(integral R dV) / V`` of the scalar curvature."""
    return latitude_grid(profile.n).evaluate(profile.u)[2]


def hilbert_einstein_energy(profile: AxisymProfile) -> float:
    """Scale-invariant curvature energy ``(integral R dV) / V^(1/3)``."""
    _, vol, r = latitude_grid(profile.n).evaluate(profile.u)
    return r * vol ** (2.0 / 3.0)


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the flow with its standard diagnostics.

    ``sup_R_minus_r`` is ``max |R - r|`` over the nodes, the convergence
    measure of ``run``.  ``width_bound`` is ``conformal.width_upper_bound``:
    an estimate of the maximal latitude-sphere area, not a rigorous width
    bound.
    """

    time: float
    profile: AxisymProfile
    volume: float
    r_avg: float
    energy: float
    sup_R_minus_r: float
    width_bound: float
    max_sphere: LatitudeSphere


def flow_state(profile: AxisymProfile, time: float = 0.0) -> FlowState:
    """Assemble the diagnostic snapshot for a profile."""
    scalar, vol, r = latitude_grid(profile.n).evaluate(profile.u)
    return FlowState(
        time=float(time),
        profile=profile,
        volume=vol,
        r_avg=r,
        energy=r * vol ** (2.0 / 3.0),
        sup_R_minus_r=float(np.max(np.abs(scalar - r))),
        width_bound=width_upper_bound(profile),
        max_sphere=max_latitude_sphere(profile),
    )


def _advance(
    grid: LatitudeGrid,
    u: np.ndarray,
    dt: float,
    target_volume: float,
    evaluation: tuple[np.ndarray, float, float],
) -> tuple[np.ndarray, tuple[np.ndarray, float, float]]:
    """One stabilized semi-implicit step of size dt, then renormalization.

    ``evaluation`` is ``grid.evaluate(u)``; the evaluation of the returned
    state comes back with it, so each state is evaluated once.
    """
    scalar, _, r = evaluation
    lo = float(u.min())
    quartic = lo**4
    a = dt * (STABILIZER * 2.0 / quartic) if quartic > 0.0 else math.inf
    if not a < math.inf:
        raise FlowError(f"stabilizer overflowed: min(u) = {lo:.3e} is too small")
    u = u + grid.neumann_solve(a, dt * (u / 4.0) * (r - scalar))
    # Positive and finite: a NaN passes through min and max and fails both.
    lo, hi = float(u.min()), float(u.max())
    if not (lo > 0.0 and hi < math.inf):
        raise FlowError(
            f"conformal factor left the positive finite range in a step of size "
            f"{dt:.3e} (min(u) = {lo:.3e}, max(u) = {hi:.3e})"
        )
    vol = grid.volume(u)
    if not 0.0 < vol < math.inf:
        # u is positive and finite here, so u^6 overflowed (inf, or inf * 0 =
        # nan at a pole) or underflowed (0).
        kind = "underflowed" if vol == 0.0 else "overflowed"
        raise FlowError(
            f"volume {kind} in floating point (got {vol!r}; min(u) = {lo:.3e}, "
            f"max(u) = {hi:.3e})"
        )
    u = u * (target_volume / vol) ** (1.0 / 6.0)
    return u, grid.evaluate(u)


def _flowed_state(u: np.ndarray, time: float) -> FlowState:
    """``flow_state`` of a state the flow reached; an invalid one is a FlowError."""
    try:
        profile = AxisymProfile(u)
    except ProfileError as exc:
        raise FlowError(f"flow state at t = {time:.6g} is no valid profile: {exc}") from None
    return flow_state(profile, time)


def step(state: FlowState, dt: float) -> FlowState:
    """One caller-facing flow step of size dt, volume held at state.volume.

    The step is one stabilized semi-implicit Euler step (see the module
    docstring) followed by exact volume renormalization; no step size is
    refused for stability.

    Raises:
        FlowError: when the step leaves floating point or the valid
            profiles (see ``FlowError``).
        ValueError: for a dt that is not positive and finite, or a state of
            zero volume.
    """
    if not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid = latitude_grid(state.profile.n)
    u = state.profile.u
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, _ = _advance(grid, u, dt, state.volume, grid.evaluate(u))
        return _flowed_state(u, state.time + dt)


@dataclass
class FlowTrace:
    """Sampled states plus per-outer-step monitor arrays.

    ``states`` holds the initial state, every ``sample_every``-th state and
    the final one; each is a row of the trace CSV.  ``monitors`` maps names
    to arrays of length equal to the number of outer steps taken: ``t``,
    ``volume_drift`` (|V - V0| after renormalization), ``energy``,
    ``r_avg``, ``sup_R_minus_r`` and ``substeps`` (1 for every outer step:
    the implicit step takes no sub-steps).
    """

    states: list[FlowState]
    step_size: float
    status: str
    target_volume: float
    monitors: dict[str, np.ndarray]

    def __post_init__(self):
        times = [s.time for s in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trace times must be strictly increasing")


def run(
    profile: AxisymProfile,
    t_end: float,
    dt: float,
    sample_every: int = 500,
    convergence_tol: float = 1e-3,
) -> FlowTrace:
    """Run the flow from ``profile`` until ``t_end`` or convergence.

    A state snapshot is recorded every ``sample_every`` outer steps (plus the
    initial and final states).  The run stops early with status
    ``"converged"`` once ``sup|R - r| < convergence_tol`` at the end of an
    outer step; otherwise the status is ``"completed"``.

    Raises:
        ValueError: for non-positive or non-finite dt/t_end, more than
            ``MAX_STEPS`` outer steps, or sample_every < 1.
        FlowError: when a step leaves floating point or the valid profiles
            (see ``FlowError``).
    """
    if not (0.0 < dt < math.inf) or not (0.0 < t_end < math.inf):
        raise ValueError(
            f"t_end and dt must be positive and finite, got t_end={t_end}, dt={dt}"
        )
    if t_end / dt > MAX_STEPS:
        raise ValueError(
            f"t_end/dt = {t_end / dt:.3g} outer steps exceeds the cap of {MAX_STEPS}"
        )
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    grid = latitude_grid(profile.n)
    u = profile.u
    n_steps = max(int(round(t_end / dt)), 1)
    mon_t = np.empty(n_steps)
    mon_drift = np.empty(n_steps)
    mon_energy = np.empty(n_steps)
    mon_r = np.empty(n_steps)
    mon_sup = np.empty(n_steps)

    status = "completed"
    taken = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        evaluation = grid.evaluate(u)
        target_volume = evaluation[1]
        states = [flow_state(profile, 0.0)]
        for i in range(n_steps):
            u, evaluation = _advance(grid, u, dt, target_volume, evaluation)
            taken = i + 1
            time = taken * dt
            scalar, vol, r = evaluation
            sup_dev = float(np.max(np.abs(scalar - r)))
            mon_t[i] = time
            mon_drift[i] = abs(vol - target_volume)
            mon_energy[i] = r * vol ** (2.0 / 3.0)
            mon_r[i] = r
            mon_sup[i] = sup_dev
            converged = sup_dev < convergence_tol
            if taken % sample_every == 0 or taken == n_steps or converged:
                states.append(_flowed_state(u, time))
            if converged:
                status = "converged"
                break

    monitors = {
        "t": mon_t[:taken],
        "volume_drift": mon_drift[:taken],
        "energy": mon_energy[:taken],
        "r_avg": mon_r[:taken],
        "sup_R_minus_r": mon_sup[:taken],
        "substeps": np.ones(taken, dtype=int),
    }
    return FlowTrace(
        states=states,
        step_size=dt,
        status=status,
        target_volume=target_volume,
        monitors=monitors,
    )


# Column name -> value of one sampled state, for the trace CSV and the
# summary's "final" block.
_TRACE_COLUMNS = {
    "t": attrgetter("time"),
    "volume": attrgetter("volume"),
    "r_avg": attrgetter("r_avg"),
    "energy": attrgetter("energy"),
    "width_bound": attrgetter("width_bound"),
    "max_theta": attrgetter("max_sphere.theta"),
    "sup_R_minus_r": attrgetter("sup_R_minus_r"),
}


def write_trace_csv(trace: FlowTrace, path: str) -> None:
    """Write the sampled states as CSV with %.17g floats, atomically."""
    columns = {name: list(map(get, trace.states)) for name, get in _TRACE_COLUMNS.items()}
    atomic_write_text(path, csv_text(columns))


def _width_rate(areas: np.ndarray, rates: np.ndarray) -> float:
    """Time derivative of ``conformal.width_upper_bound`` by the chain rule.

    ``areas`` are the node areas and ``rates`` their time derivatives.  The
    estimate is the vertex value ``W = b - (c - a)^2 / (8 (a - 2b + c))`` of
    the areas a, b, c around the largest, or the largest area itself where
    it sits at an end node, the parabola is flat, or the clamp
    ``max(fitted, values[i])`` binds; there dW/dt is that node's rate.
    """
    i = int(np.argmax(areas))
    if i == 0 or i == areas.size - 1:
        return float(rates[i])
    a, b, c = (float(x) for x in areas[i - 1:i + 2])
    da, db, dc = (float(x) for x in rates[i - 1:i + 2])
    denom = a - 2.0 * b + c
    if denom >= 0.0:
        # A flat parabola (denom rounds to 0 when a is within an ulp of b),
        # or one opening upwards, where the clamp would bind.
        return db
    slope = c - a
    return (
        db
        - slope * (dc - da) / (4.0 * denom)
        + slope * slope * (da - 2.0 * db + dc) / (8.0 * denom * denom)
    )


def width_derivative_monitor(trace: FlowTrace) -> list[dict]:
    """Compare the width estimate's time derivative with its first variation.

    For each interior sampled state, ``lhs`` is dW/dt at that state, where W
    is ``conformal.width_upper_bound`` (the ``width_bound`` column): the
    chain rule on its vertex formula (see ``_width_rate``), with every node
    area moving at its flow rate ``dA_j/dt = A_j (r - R_j)``.  ``rhs = (r -
    R(theta*)) * area(theta*)`` is the first variation of the area of the
    maximal latitude sphere.  Both sides are taken at the same state and no
    time step enters either, so ``residual = lhs - rhs`` is the spatial
    error of the first-variation formula on the grid alone, and it decays
    under grid refinement.

    ``lhs_sampled`` is the centered difference of ``width_bound`` over the
    neighbouring samples, kept as a check of time consistency.  Where the
    three samples share the node of the largest area, it differs from
    ``lhs`` by the scheme's O(dt) time error plus the O(tau^2) error of the
    difference (tau the sample spacing); at a fixed tau / dt the gap falls
    at first order.  Where they straddle a switch of that node, W jumps
    (the vertex moves to another node triple), so the gap there grows like
    1 / tau instead.

    Raises:
        ValueError: if the trace holds fewer than three sampled states.
    """
    states = trace.states
    if len(states) < 3:
        raise ValueError("width-derivative monitor needs at least 3 sampled states")
    records = []
    for i in range(1, len(states) - 1):
        before, here, after = states[i - 1], states[i], states[i + 1]
        sampled = (after.width_bound - before.width_bound) / (after.time - before.time)
        field = scalar_curvature_field(here.profile)
        areas = area_profile(here.profile)
        lhs = _width_rate(areas, areas * (here.r_avg - field))
        theta = here.max_sphere.theta
        r_at_max = float(np.interp(theta, here.profile.thetas, field))
        rhs = (here.r_avg - r_at_max) * here.max_sphere.area
        records.append({
            "t": here.time, "lhs": lhs, "lhs_sampled": sampled, "rhs": rhs,
            "residual": lhs - rhs,
        })
    return records


@dataclass(frozen=True)
class Theorem1Report:
    """Product bound ``width * r <= 24 pi`` at the width's maximum in time.

    The width of each state is bounded by ``conformal.tilted_width_bound``,
    the least maximal sphere among the tilted round-sphere sweep-outs (the
    latitude family of the piecewise-linear profile among them), error terms
    included.  ``tau_star``, ``product_at_max`` and ``passed`` use this
    bound; ``error_term`` is the part of ``product_at_max`` that its error
    terms contribute (the certified gap of the maximum over c and the
    rounding estimate).  The ``latitude_*`` fields repeat the evaluation
    with the latitude estimate ``FlowState.width_bound`` alone.
    """

    tau_star: float
    product_at_max: float
    bound: float
    passed: bool
    final_normalized_width: float
    error_term: float
    latitude_tau_star: float
    latitude_product_at_max: float
    latitude_passed: bool


def theorem1_monitor(trace: FlowTrace, tol: float = 1e-3) -> Theorem1Report:
    """Evaluate the width-curvature product at the trace's width maximum.

    Also reports the final ``width_bound / volume^(2/3)``, which approaches
    ``(16/pi)^(1/3)`` when the flow converges to a constant-curvature limit.
    """
    if not trace.states:
        raise ValueError("empty trace")
    bound = 24.0 * math.pi
    tilted = [tilted_width_bound(state.profile) for state in trace.states]
    i = max(range(len(tilted)), key=lambda k: tilted[k].bound)
    width, peak = tilted[i], trace.states[i]
    latitude = max(trace.states, key=lambda s: s.width_bound)
    product = width.bound * peak.r_avg
    latitude_product = latitude.width_bound * latitude.r_avg
    final = trace.states[-1]
    return Theorem1Report(
        tau_star=peak.time,
        product_at_max=product,
        bound=bound,
        passed=product <= bound + tol,
        final_normalized_width=final.width_bound / final.volume ** (2.0 / 3.0),
        error_term=(width.max_error + width.rounding_error) * peak.r_avg,
        latitude_tau_star=latitude.time,
        latitude_product_at_max=latitude_product,
        latitude_passed=latitude_product <= bound + tol,
    )


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
    grid = latitude_grid(profile.n)
    u = profile.u
    vol = grid.volume(u)
    adjusted = f - grid.average_r(f, u, vol)
    sphere = max_latitude_sphere(profile)
    f_at_top = float(np.interp(sphere.theta, profile.thetas, adjusted))
    return VariationReport(
        variation=ConformalVariation(base=profile, f=adjusted),
        trace_integral_over_max_sphere=f_at_top * sphere.area,
    )


def write_run_summary_json(
    trace: FlowTrace,
    path: str,
    config: dict | None = None,
) -> Theorem1Report:
    """Write a JSON summary of a flow run (final state plus monitors).

    Returns the trace's ``theorem1_monitor`` report, which the summary holds.
    """
    final = trace.states[-1]
    report = theorem1_monitor(trace)
    monitors = trace.monitors
    text = report_text(
        config or {},
        status=trace.status,
        steps=int(monitors["t"].size),
        target_volume=trace.target_volume,
        final={
            **{name: get(final) for name, get in _TRACE_COLUMNS.items()},
            "normalized_width": final.width_bound / final.volume ** (2.0 / 3.0),
        },
        max_volume_drift=float(np.max(monitors["volume_drift"])),
        max_energy_increase=float(
            np.max(np.diff(monitors["energy"])) if monitors["energy"].size > 1 else 0.0
        ),
        theorem1=asdict(report),
    )
    atomic_write_text(path, text)
    return report
