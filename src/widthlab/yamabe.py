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
the pole rows went unstable (the state after 61 steps failed pole
regularity).  Factor 1.5 converges with the energy non-increasing at every
dt from 4e-5 to 1e-3, and at the criterion-6 step dt = 1e-5 its largest
energy rise is 8.9e-12.  The stabilizer adds an O(dt) time error, the same
order as the Euler step: criterion 6 converges at t = 0.93707, against
0.93667 under explicit Euler.

Cost: each state is evaluated once, by the fused kernel
``LatitudeGrid.evaluate``.  ``AxisymProfile.evaluation`` keeps its result
for ``flow_state``, ``step``, the energy functions and the initial state of
``run``, which calls the kernel directly on every later state and keeps no
array on its sampled profiles.  ``run`` makes its work arrays once per
call, a ``LatitudeGrid.workspace()`` with the views of its arrays, the
state and ``r - R``, binds the step and the kernel once, and steps in
place: the right-hand side ``(dt/4) u (r - R)`` is formed in the first n
values of the even extension, which one ``copyto`` mirrors for the DCT-I
(two ``numpy.fft`` calls with ``out``), and every scalar operand reaches
its ufunc as a 0-d array.  It forms ``r - R`` of each state once, for its
monitor ``sup|R - r|`` and for the next step, and carries min(u) and
max(u) through the renormalization instead of reducing u again: rounding
is monotone, so for a scale s > 0 the extremes of ``u * s`` are the
extremes of u times s, to the bit.  Beyond its ufuncs, a step pays for
the two ``numpy.fft`` wrappers and six Python calls.

Diagnostics: the volume-normalized total-curvature energy
``E = (integral R dV) / V^(1/3)`` is non-increasing along the flow, and the
time derivative of the maximal latitude area (estimated by
``conformal.width_upper_bound``) is compared against the first variation
``(r - R(theta*)) * area(theta*)`` of the maximal latitude sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ._fsio import atomic_write_text, csv_text, report_text
from .conformal import (
    AxisymProfile,
    LatitudeSphere,
    ProfileError,
    _evaluation_fault,
    _pole_irregularity,
    _vertex,
    area_profile,
    max_latitude_sphere,
    tilted_width_bound,
    width_upper_bound,
)
from .numerics import LatitudeGrid, Workspace, latitude_grid

__all__ = [
    "FlowError",
    "FlowState",
    "FlowTrace",
    "STABILIZER",
    "hilbert_einstein_energy",
    "flow_state",
    "step",
    "run",
    "write_trace_csv",
    "width_derivative_monitor",
    "theorem1_monitor",
    "Theorem1Report",
    "write_run_summary_json",
]

# The stabilizer c of the implicit step, in units of the leading diffusion
# coefficient 2 min(u)^-4 of the update.
STABILIZER = 1.5
# Cap on the outer steps of one run (each holds six monitor entries); twice
# the criterion-6 run of t_end = 5 at dt = 1e-5.
MAX_STEPS = 1_000_000
# Cap on nodes times outer steps of one run, which bounds its time: twice the
# criterion-6 run at n = 401, or 20,048 steps at the 20,001-node profile cap.
MAX_NODE_STEPS = 401 * MAX_STEPS


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
    - the step leaves the poles irregular under the rule of
      ``AxisymProfile``, which every step checks (with the stabilizer
      halved, 1 + 0.3 cos(theta) at n = 401 and dt = 4e-5 does so at step
      61);
    - ``step``'s new state (the one it evaluates) fails ``flow_state``'s
      rule, or a state of ``run`` has a curvature or average that left
      floating point (a node where ``u^5`` underflows, say: the average
      integrates ``S u`` and may stay finite there).

    ``run`` and ``step`` silence numpy's overflow, invalid-value and
    division warnings, because they check every result themselves, so the
    error is the one report of a failure.
    """


def hilbert_einstein_energy(profile: AxisymProfile) -> float:
    """Scale-invariant energy ``(integral R dV) / V^(1/3)``; raises as ``flow_state``."""
    _, vol, r = profile.evaluation
    return r * vol ** (2.0 / 3.0)


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the flow with its standard diagnostics.

    ``sup_R_minus_r`` is ``max |R - r|`` over the nodes, the convergence
    measure of ``run``.  ``width_bound`` is ``conformal.width_upper_bound``:
    an estimate of the maximal latitude-sphere area, not a rigorous width
    bound; ``max_sphere`` is ``conformal.max_latitude_sphere``.  Each state
    is built from one evaluation and one area pass of its profile.
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
    """Assemble the diagnostic snapshot for a profile.

    Raises:
        ProfileError: by the rule of ``AxisymProfile.evaluation``.
    """
    scalar, vol, r = profile.evaluation
    sup_dev = float(np.maximum.reduce(np.absolute(np.subtract(r, scalar))))
    return _state(profile, time, vol, r, sup_dev)


def _state(profile, time, vol, r, sup_dev) -> FlowState:
    """The snapshot of a profile from its evaluation: volume, r, sup|R - r|."""
    return FlowState(
        time=float(time), profile=profile, volume=vol, r_avg=r,
        energy=r * vol ** (2.0 / 3.0), sup_R_minus_r=sup_dev,
        width_bound=width_upper_bound(profile), max_sphere=max_latitude_sphere(profile),
    )


def _advance(
    grid: LatitudeGrid,
    u: np.ndarray,
    dt: float,
    target_volume: float,
    lo: float,
    deviation: np.ndarray,
    work: Workspace | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """One stabilized semi-implicit step of size dt, then renormalization.

    ``lo`` is ``min(u)`` and ``deviation`` is ``r - R`` at u, which the
    caller already holds.  ``work`` is a ``grid.workspace()`` (fresh when
    None) and ``out`` receives the new state (fresh when None; u itself is
    allowed).  Returns the new state and its minimum; the state is a valid
    ``AxisymProfile``: positive, finite and regular at the poles.
    """
    quartic = lo**4
    a = dt * (STABILIZER * 2.0 / quartic) if quartic > 0.0 else math.inf
    if not a < math.inf:
        raise FlowError(f"stabilizer overflowed: min(u) = {lo:.3e} is too small")
    w = grid.workspace() if work is None else work
    operand = w.operand
    operand[()] = 0.25 * dt
    rhs = np.multiply(u, operand, w.rhs)
    np.multiply(rhs, deviation, rhs)
    u = np.add(u, grid.neumann_solve(a, rhs, w), out)
    # Positive and finite: a NaN passes through min and max and fails both.
    lo, hi = float(np.minimum.reduce(u)), float(np.maximum.reduce(u))
    if not (lo > 0.0 and hi < math.inf):
        raise FlowError(
            f"conformal factor left the positive finite range in a step of size "
            f"{dt:.3e} (min(u) = {lo:.3e}, max(u) = {hi:.3e})"
        )
    vol = grid.volume(u, w)
    if not 0.0 < vol < math.inf:
        # u is positive and finite here, so u^6 overflowed (inf, or inf * 0 =
        # nan at a pole) or underflowed (0).
        kind = "underflowed" if vol == 0.0 else "overflowed"
        raise FlowError(
            f"volume {kind} in floating point (got {vol!r}; min(u) = {lo:.3e}, "
            f"max(u) = {hi:.3e})"
        )
    scale = (target_volume / vol) ** (1.0 / 6.0)
    operand[()] = scale
    np.multiply(u, operand, u)
    # Rounding is monotone, so lo * scale and hi * scale are min and max of u.
    irregularity = _pole_irregularity(u, hi * scale, grid.h)
    if irregularity:
        raise FlowError(f"a step of size {dt:.3e} left no valid profile: {irregularity}")
    return u, lo * scale


def step(state: FlowState, dt: float) -> FlowState:
    """One caller-facing flow step of size dt, volume held at state.volume.

    The step is one stabilized semi-implicit Euler step (see the module
    docstring) followed by exact volume renormalization; no step size is
    refused for stability.

    Raises:
        FlowError: when the step leaves floating point or the valid
            profiles (see ``FlowError``).
        ValueError: for a dt that is not positive and finite, or a state
            whose profile fails ``AxisymProfile.evaluation``.
    """
    if not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    u = state.profile.u
    scalar, _, r = state.profile.evaluation
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, _ = _advance(latitude_grid(u.size), u, dt, state.volume,
                        float(np.minimum.reduce(u)), r - scalar)
    try:
        return flow_state(AxisymProfile(u), state.time + dt)
    except ProfileError as exc:
        raise FlowError(f"a step of size {dt:.3e} left no valid profile: {exc}") from None


@dataclass
class FlowTrace:
    """Sampled states plus per-outer-step monitor arrays.

    ``states`` holds the initial state, every ``sample_every``-th state and
    the final one; each is a row of the trace CSV.  ``monitors`` maps names
    to arrays of length equal to the number of outer steps taken: ``t``,
    ``volume_drift`` (|V - V0| after renormalization), ``energy``,
    ``r_avg``, ``sup_R_minus_r`` and ``substeps`` (1 for every outer step:
    the implicit step takes no sub-steps).  The step size is not kept; a
    caller that reports it echoes the ``dt`` it passed to ``run``.
    """

    states: list[FlowState]
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
        ValueError: for non-positive or non-finite dt/t_end, a dt above
            t_end, more than ``MAX_STEPS`` outer steps, more than
            ``MAX_NODE_STEPS`` nodes times outer steps, or sample_every < 1.
        ProfileError: for an initial profile that fails the floating-point
            rule of ``AxisymProfile.evaluation``, whose result run reads.
        FlowError: when a step leaves floating point or the valid profiles
            (see ``FlowError``).
    """
    if not (0.0 < dt < math.inf) or not (0.0 < t_end < math.inf):
        raise ValueError(
            f"t_end and dt must be positive and finite, got t_end={t_end}, dt={dt}"
        )
    if dt > t_end:
        raise ValueError(f"dt must not exceed t_end, got t_end={t_end}, dt={dt}")
    if t_end / dt > MAX_STEPS:
        raise ValueError(
            f"t_end/dt = {t_end / dt:.3g} outer steps exceeds the cap of {MAX_STEPS}"
        )
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    n_steps = round(t_end / dt)  # at least 1, as dt <= t_end
    if profile.n * n_steps > MAX_NODE_STEPS:
        raise ValueError(
            f"{profile.n} nodes times {n_steps} outer steps exceeds the cap of "
            f"{MAX_NODE_STEPS} node-steps"
        )
    grid = latitude_grid(profile.n)
    work = grid.workspace()
    advance, evaluate = _advance, grid.evaluate  # bound once per run
    scratch, operand = work.scratch, work.operand
    u = profile.u.copy()  # the state, stepped in place
    deviation = np.empty_like(u)
    mon_drift = np.empty(n_steps)
    mon_energy = np.empty(n_steps)
    mon_r = np.empty(n_steps)
    mon_sup = np.empty(n_steps)

    status = "completed"
    taken = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = [flow_state(profile)]
        scalar, target_volume, r = profile.evaluation
        np.subtract(r, scalar, deviation)
        lo = float(np.minimum.reduce(u))
        for i in range(n_steps):
            u, lo = advance(grid, u, dt, target_volume, lo, deviation, work, u)
            scalar, vol, r = evaluate(u, work)
            operand[()] = r
            sup_dev = float(np.maximum.reduce(
                np.absolute(np.subtract(operand, scalar, deviation), scratch)))
            if not sup_dev < math.inf:
                raise FlowError(
                    f"a step of size {dt:.3e} left no valid profile: "
                    f"{_evaluation_fault(u, scalar, vol, r)}"
                )
            taken = i + 1
            mon_drift[i] = abs(vol - target_volume)
            mon_energy[i] = r * vol ** (2.0 / 3.0)
            mon_r[i] = r
            mon_sup[i] = sup_dev
            converged = sup_dev < convergence_tol
            if taken % sample_every == 0 or taken == n_steps or converged:
                states.append(_state(AxisymProfile(u), taken * dt, vol, r, sup_dev))
            if converged:
                status = "converged"
                break

    monitors = {
        "t": np.multiply(t := np.arange(1.0, taken + 1), dt, out=t),  # in place: one array
        "volume_drift": mon_drift[:taken],
        "energy": mon_energy[:taken],
        "r_avg": mon_r[:taken],
        "sup_R_minus_r": mon_sup[:taken],
        "substeps": np.ones(taken, dtype=int),
    }
    return FlowTrace(
        states=states,
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


def width_derivative_monitor(trace: FlowTrace) -> list[dict]:
    """Compare the width estimate's time derivative with its first variation.

    For each interior sampled state, ``lhs`` is dW/dt at that state, where W
    is ``conformal.width_upper_bound`` (the ``width_bound`` column): the
    gradient of its vertex value in the node areas (``conformal._vertex``)
    dotted with their flow rates ``dA_j/dt = A_j (r - R_j)``.  ``rhs = (r -
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
        # The kernel, as in run, so that no sampled profile keeps an evaluation.
        field = latitude_grid(here.profile.n).evaluate(here.profile.u)[0]
        areas = area_profile(here.profile)
        lhs = float(_vertex(areas, here.profile.spacing)[3] @ (areas * (here.r_avg - field)))
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


def write_run_summary_json(
    trace: FlowTrace,
    path: str,
    config: dict | None = None,
) -> Theorem1Report:
    """Write a JSON summary of a flow run (final state plus monitors).

    Returns the trace's ``theorem1_monitor`` report, which the summary holds.
    """
    report = theorem1_monitor(trace)
    monitors = trace.monitors
    text = report_text(
        config or {},
        status=trace.status,
        steps=int(monitors["t"].size),
        target_volume=trace.target_volume,
        final={
            **{name: get(trace.states[-1]) for name, get in _TRACE_COLUMNS.items()},
            "normalized_width": report.final_normalized_width,
        },
        max_volume_drift=float(np.max(monitors["volume_drift"])),
        max_energy_increase=float(
            np.max(np.diff(monitors["energy"])) if monitors["energy"].size > 1 else 0.0
        ),
        theorem1=report,
    )
    atomic_write_text(path, text)
    return report
