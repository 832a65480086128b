"""Seeded inputs and job lists of the three benchmark workloads.

A workload is built in two steps.  ``generate`` draws every input from the
seed and writes the input files the program reads (profiles, instances);
``jobs`` turns those inputs into the fixed list of jobs one pass runs.  Each
job calls the program once, through ``widthlab.cli.main`` wherever a
subcommand exists and through the public library function otherwise, and
carries the check that its output must pass.

Draws are stratified (one berger-scan per decade, a fixed number of profiles
per critical-latitude count, fixed instance counts per size) so that the work
in a pass barely moves with the seed while the inputs themselves do.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("geometry-survey", "flow-squashed", "membership-mixed")

# Job-latency percentile reported as job_tail_ms: the highest percentile with
# at least ten jobs of one pass beyond it (38 jobs in geometry-survey, 44 in
# membership-mixed).  flow-squashed has ten jobs, so its tail is the slowest.
TAIL_PERCENTILE = {"geometry-survey": 70, "flow-squashed": 100, "membership-mixed": 75}

# Conformal profiles per grid size, by number of critical latitudes.
PROFILES = {1: 7, 3: 2}

# (members, non-members) of membership-mixed per size n = m.  n = 20 has no
# non-member: one such LP takes a third of the pass and its cost varies by
# +-20% between instances, which alone spread run_s by 12% across seeds.
MEMBERSHIP_COUNTS = {4: (4, 4), 8: (3, 3), 12: (1, 2), 16: (1, 2), 20: (2, 0)}

# Criterion-6 flow configuration and the criterion-8 refinement triple.  The
# flow's cost grows by a third from a = 0.25 to a = 0.35, so its amplitude is
# drawn close to criterion 6's 0.3.  The triple keeps criterion 8's own
# a = 0.3: its order test fails at other amplitudes (a = 0.25, a = 0.2983),
# where the n = 401 residual nearly cancels.
FLOW_CONFIG = {"n": 401, "dt": 1e-5, "t_end": 5.0, "sample_every": 500, "tol": 1e-3}
FLOW_AMPLITUDE = (0.295, 0.305)
REFINEMENT = ((201, 4e-5, 25), (401, 2e-5, 50), (801, 1e-5, 100))
REFINEMENT_AMPLITUDE = 0.3
# The triple runs three times a pass, so that job_p50_ms (a refinement run)
# is a median of repeated jobs rather than of two single ones.
REFINEMENT_REPEATS = 3


@dataclass
class Job:
    """One call into the program plus the check of what it produced.

    ``run`` returns whatever ``check`` needs besides the files on disk (an
    exit code for CLI jobs, the returned object for library jobs); ``check``
    returns a list of failure messages, empty when the output is correct.
    ``output`` names the file a repeated run must reproduce byte for byte.
    """

    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    output: str | None = None


@dataclass
class Inputs:
    """Everything ``generate`` drew, keyed for ``jobs``."""

    workload: str
    size: str
    items: list[dict] = field(default_factory=list)


def _cli(argv: list[str]) -> int:
    # Looked up at call time so that the traced run sees its wrapper.
    from widthlab import cli

    return cli.main(argv)


# ---------------------------------------------------------------------------
# geometry-survey
# ---------------------------------------------------------------------------


def _geometry(rng: np.random.Generator, root: str, tiny: bool) -> list[dict]:
    items: list[dict] = []
    # One berger-scan per decade of [1e-3, 1e4], on a half-decade inside it.
    decades = range(-3, 4) if not tiny else (-1,)
    for d in decades:
        lo = d + rng.uniform(0.0, 0.5)
        hi = lo + 0.5
        items.append(
            {"kind": "berger-scan", "rho_min": 10.0**lo, "rho_max": 10.0**hi,
             "n": 8 if not tiny else 3}
        )
    for _ in range(2 if not tiny else 1):
        items.append(
            {"kind": "berger-certify", "h": 10.0 ** rng.uniform(-3.0, -2.0),
             "grid_n": 100 if not tiny else 5}
        )
    # Profiles u = 1 + sum_k a_k cos k theta, drawn until each grid size has
    # PROFILES[1] profiles with one critical latitude and PROFILES[3] with
    # three, so that every pass analyzes the same number of spheres.
    sizes = (201, 401, 801) if not tiny else (201,)
    index = 0
    for n in sizes:
        wanted = dict(PROFILES) if not tiny else {1: 1, 3: 0}
        while any(wanted.values()):
            coeffs = [float(c) for c in rng.uniform(-0.12, 0.12, size=4)]
            count = checks.critical_latitudes(coeffs)
            if wanted.get(count, 0) > 0:
                wanted[count] -= 1
                items.append(_profile_item(root, index, n, coeffs))
                index += 1
    items.append(_profile_item(root, index, 401 if not tiny else 201, [0.0] * 4))
    items.append({"kind": "roundcheck"})
    return items


def _profile_item(root: str, index: int, n: int, coeffs: list[float]) -> dict:
    path = os.path.join(root, f"profile{index:02d}.json")
    thetas = np.linspace(0.0, math.pi, n)
    u = checks.profile_values(coeffs, thetas)
    _write_json(path, {"n": n, "u": [float(v) for v in u]})
    return {"kind": "conformal-analyze", "input": path, "n": n, "coeffs": coeffs}


def _geometry_job(item: dict, out: str, job_id: str) -> Job:
    kind = item["kind"]
    if kind == "berger-scan":
        argv = ["berger-scan", "--rho-min", repr(item["rho_min"]),
                "--rho-max", repr(item["rho_max"]), "--n", str(item["n"]),
                "--output", out]
        check = lambda code: checks.berger_scan(code, out, item)
    elif kind == "berger-certify":
        argv = ["berger-certify", "--h", repr(item["h"]),
                "--grid-n", str(item["grid_n"]), "--output", out]
        check = lambda code: checks.berger_certify(code, out, item)
    elif kind == "conformal-analyze":
        argv = ["conformal-analyze", "--input", item["input"], "--output", out]
        check = lambda code: checks.conformal_analyze(code, out, item)
    else:
        argv = ["roundcheck", "--output", out]
        check = lambda code: checks.roundcheck(code, out)
    return Job(job_id, kind, lambda: _cli(argv), check, out)


# ---------------------------------------------------------------------------
# flow-squashed
# ---------------------------------------------------------------------------


def _flow(rng: np.random.Generator, root: str, tiny: bool) -> list[dict]:
    a = float(rng.uniform(*FLOW_AMPLITUDE))
    cfg = dict(FLOW_CONFIG)
    if tiny:
        cfg.update(n=101, dt=1e-4, sample_every=50)
    path = os.path.join(root, "flow_profile.json")
    thetas = np.linspace(0.0, math.pi, cfg["n"])
    _write_json(path, {"n": cfg["n"], "u": [float(v) for v in 1.0 + a * np.cos(thetas)]})
    items = [{"kind": "yamabe-run", "input": path, "a": a, **cfg}]
    for _ in range(REFINEMENT_REPEATS if not tiny else 1):
        for n, dt, every in REFINEMENT:
            items.append({"kind": "refinement", "a": REFINEMENT_AMPLITUDE, "n": n, "dt": dt,
                          "sample_every": every})
    return items


def _refinement_run(item: dict) -> list[dict]:
    from widthlab import conformal, yamabe

    a = item["a"]
    profile = conformal.AxisymProfile.from_function(
        lambda t: 1.0 + a * np.cos(t), item["n"]
    )
    trace = yamabe.run(profile, t_end=0.01, dt=item["dt"],
                       sample_every=item["sample_every"], convergence_tol=0.0)
    return yamabe.width_derivative_monitor(trace)


def _flow_jobs(items: list[dict], out_dir: str, prefix: str) -> list[Job]:
    jobs = []
    ratios: dict[int, float] = {}  # filled by the checks, which run in job order
    for i, item in enumerate(items):
        job_id = f"{prefix}/{i:02d}-{item['kind']}"
        if item["kind"] == "yamabe-run":
            out = os.path.join(out_dir, f"job{i:02d}.json")
            csv = os.path.join(out_dir, f"job{i:02d}.csv")
            argv = ["yamabe-run", "--profile", item["input"],
                    "--t-end", repr(item["t_end"]), "--dt", repr(item["dt"]),
                    "--sample-every", str(item["sample_every"]),
                    "--convergence-tol", repr(item["tol"]),
                    "--trace-csv", csv, "--output", out]
            jobs.append(Job(job_id, item["kind"], lambda argv=argv: _cli(argv),
                            lambda code, out=out, csv=csv: checks.flow_run(code, out, csv),
                            out))
            continue
        last = item["n"] == REFINEMENT[-1][0]

        def check(records, n=item["n"], last=last):
            ratios[n] = checks.refinement_ratio(records)
            if not math.isfinite(ratios[n]):
                return [f"refinement ratio {ratios[n]!r} at n={n}"]
            return checks.refinement_orders(ratios) if last else []

        jobs.append(Job(job_id, item["kind"], lambda item=item: _refinement_run(item), check))
    return jobs


# ---------------------------------------------------------------------------
# membership-mixed
# ---------------------------------------------------------------------------


def _membership(rng: np.random.Generator, root: str, tiny: bool) -> list[dict]:
    counts = MEMBERSHIP_COUNTS if not tiny else {4: (1, 1)}
    items = []
    index = 0
    for n, (members, non_members) in counts.items():
        for member in [True] * members + [False] * non_members:
            mu0, family = (checks.planted_member if member else checks.planted_non_member)(rng, n)
            path = os.path.join(root, f"instance{index:02d}.json")
            masses = [float(sum(row)) for row in family]
            _write_json(path, {
                "n": n,
                "mu0": mu0,
                "Y": family,
                "structure": {"W": family, "multiplicity_bound": 1,
                              "mass_bounds": [min(masses), max(masses)]},
            })
            items.append({"kind": "instance", "input": path, "n": n, "member": member,
                          "mu0": mu0, "family": family})
            index += 1
    return items


def _membership_jobs(items: list[dict], out_dir: str, prefix: str, k_max: int) -> list[Job]:
    jobs = []
    for i, item in enumerate(items):
        out = os.path.join(out_dir, f"check{i:02d}.json")
        argv = ["equidist-check", "--input", item["input"], "--output", out]
        jobs.append(Job(f"{prefix}/{i:02d}-check", "equidist-check",
                        lambda argv=argv: _cli(argv),
                        lambda code, out=out, item=item: checks.membership(code, out, item),
                        out))
        if not item["member"]:
            continue
        for weighted in (False, True):
            name = "weighted" if weighted else "plain"
            csv = os.path.join(out_dir, f"seq{i:02d}-{name}.csv")
            argv = ["equidist-sequence", "--input", item["input"],
                    "--k-max", str(k_max), "--output", csv]
            if weighted:
                argv.append("--weighted")
            jobs.append(Job(f"{prefix}/{i:02d}-{name}", "equidist-sequence",
                            lambda argv=argv: _cli(argv),
                            lambda code, csv=csv, item=item, weighted=weighted:
                            checks.cesaro(code, csv, item, weighted, k_max), csv))
    return jobs


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def generate(workload: str, seed: int, root: str, size: str = "full") -> Inputs:
    """Draw the workload's inputs from ``seed`` and write them under ``root``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tiny = size == "tiny"
    draw = {"geometry-survey": _geometry, "flow-squashed": _flow,
            "membership-mixed": _membership}[workload]
    return Inputs(workload, size, draw(rng, root, tiny))


def jobs(inputs: Inputs, out_dir: str, prefix: str) -> list[Job]:
    """The job list of one pass, writing its outputs under ``out_dir``."""
    if inputs.workload == "geometry-survey":
        return [
            _geometry_job(item, os.path.join(out_dir, f"job{i:02d}.out"),
                          f"{prefix}/{i:02d}-{item['kind']}")
            for i, item in enumerate(inputs.items)
        ]
    if inputs.workload == "flow-squashed":
        return _flow_jobs(inputs.items, out_dir, prefix)
    k_max = 10_000 if inputs.size != "tiny" else 200
    return _membership_jobs(inputs.items, out_dir, prefix, k_max)
