"""One workload run in a fresh process: set up, run passes, check, report.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to sample set-up time).  Set-up covers the interpreter
start, the widthlab import, input generation and writing the input files;
it is measured from ``--started``, the wall-clock time at which the parent
launched the process.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--tmp", required=True, help="temporary directory, removed by the caller")
    p.add_argument("--result", required=True)
    p.add_argument("--started", type=float, required=True)
    p.add_argument("--spans", help="write the traced pass's spans here (JSON lines)")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


# One job per workload runs a second time and must reproduce its output.
REPEATED_JOB = {"geometry-survey": "conformal-analyze", "flow-squashed": "refinement",
                "membership-mixed": "equidist-check"}


def _fingerprint(job, value) -> bytes:
    if job.output is not None:
        with open(job.output, "rb") as handle:
            return handle.read()
    return json.dumps(value, sort_keys=True).encode()


def run_pass(workloads, inputs, out_dir: str, prefix: str, tracer=None, keep=None,
             only=None):
    """Run one pass back to back (or only the job with id ``only``), then
    check it.

    Returns ((start, end) perf_counter times of each job, failures,
    (id, fingerprint) of the first correct job of kind ``keep``, or None).
    """
    os.makedirs(out_dir)
    jobs = [j for j in workloads.jobs(inputs, out_dir, prefix) if only in (None, j.id)]
    results = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for job in jobs:
            err = io.StringIO()
            if tracer is not None:
                tracer.job = job.id
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    value, exc = job.run(), None
            except Exception as e:  # a raising job is a failed job
                value, exc = None, e
            results.append((job, value, exc, (t0, time.perf_counter()), err.getvalue()))
    failures = []
    fingerprint = None
    for job, value, exc, _, stderr in results:
        try:
            errors = [f"raised {exc!r}"] if exc is not None else job.check(value)
        except Exception as e:  # unreadable or malformed output
            errors = [f"check raised {e!r}"]
        if errors:
            failures.append({"job": job.id, "errors": errors[:3], "stderr": stderr[-500:]})
        elif keep is not None and fingerprint is None and job.kind == keep:
            fingerprint = (job.id, _fingerprint(job, value))
    shutil.rmtree(out_dir)
    return [r[3] for r in results], failures, fingerprint


def main(argv=None) -> int:
    args = _parse(argv)
    import numpy  # noqa: F401  (part of what set-up pays for)
    from widthlab import _fsio, berger, cli, conformal, equidist, numerics, yamabe

    import probe
    import tracing
    import workloads

    os.makedirs(args.tmp, exist_ok=True)
    input_dir = os.path.join(args.tmp, "inputs")
    os.makedirs(input_dir)
    inputs = workloads.generate(args.workload, args.seed, input_dir, args.size)
    setup_wall = time.time() - args.started
    speed = probe.Probe()
    speed.calibrate()
    result: dict = {"setup_wall_s": setup_wall,
                    "setup_s": setup_wall * probe.NOMINAL_PROBE_S
                    / statistics.mean(speed.durations)}
    if args.setup_only:
        _write(args.result, result)
        return 0

    keep = REPEATED_JOB[args.workload]
    passes, failures = [], []
    fingerprint = None
    with speed:
        while True:
            index = len(passes)
            spans, fails, fp = run_pass(
                workloads, inputs, os.path.join(args.tmp, f"pass{index}"), f"p{index}",
                keep=keep if index == 0 else None)
            passes.append(spans)
            failures.extend(fails)
            fingerprint = fingerprint or fp
            # Start another pass only if at least half of it fits in --seconds.
            used = passes[-1][-1][1] - passes[0][0][0]
            if used + 0.5 * (spans[-1][1] - spans[0][0]) >= args.seconds:
                break
        if args.trace:
            modules = {"numerics": numerics, "berger": berger, "conformal": conformal,
                       "yamabe": yamabe, "equidist": equidist, "cli": cli, "_fsio": _fsio}
            tracer = tracing.Tracer(modules)
            try:
                traced, fails, _ = run_pass(
                    workloads, inputs, os.path.join(args.tmp, "traced"), "traced", tracer)
            finally:
                tracer.close()
            failures.extend(fails)
    attempted = sum(len(p) for p in passes)
    latencies = [[speed.normalized(*span) for span in p] for p in passes]
    result.update(latencies=latencies, wall=[p[-1][1] - p[0][0] for p in passes])

    if args.trace:
        attempted += len(traced)
        # Span times are rescaled to nominal speed by the pass's own factor.
        traced_wall = traced[-1][1] - traced[0][0]
        traced_s = sum(speed.normalized(*span) for span in traced)
        layers = tracing.layer_metrics(tracer.spans, traced_wall, traced_s / traced_wall)
        layers["trace.run_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - statistics.median(sum(p) for p in latencies)
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)

    # Repeat the kept job in a directory of the same name, so that the paths
    # echoed in its output are the same too.
    attempted += 1
    if fingerprint is None:
        failures.append({"job": "repeat", "errors": [f"no correct {keep} job to repeat"]})
    else:
        _, fails, fp = run_pass(workloads, inputs, os.path.join(args.tmp, "pass0"),
                                "p0", keep=keep, only=fingerprint[0])
        failures.extend(fails)
        if fp != fingerprint:
            failures.append({"job": fingerprint[0], "errors": ["repeated run differs"]})

    result.update(
        attempted=attempted,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    _write(args.result, result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main())
