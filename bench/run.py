"""widthlab benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload geometry-survey --seed 1 --seconds 20 --trace 0

Each run starts one fresh, single-threaded workload process (``worker.py``)
that sets up, runs the workload's job list back to back as a closed loop
with one client until ``--seconds`` are used, and checks every job's output.
Set-up time is sampled in ``SETUP_SAMPLES`` fresh processes in all and
reported as their median.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of an extra, traced pass, whose spans
are written to ``.bench_out/spans-<workload>-<seed>.jsonl`` when it ends.
Times are wall-clock seconds rescaled to a nominal machine speed by the
probe in ``probe.py``; the raw wall-clock figures are printed alongside.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0

sys.path.insert(0, BENCH)
from tracing import unit_of  # noqa: E402
from workloads import TAIL_PERCENTILE, WORKLOADS  # noqa: E402


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Run one widthlab benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small jobs per workload, for the self-test")
    return p.parse_args(argv)


def _worker(args, tmp: str, tag: str, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               WIDTHLAB_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]))
    result = os.path.join(tmp, f"{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--tmp", os.path.join(tmp, tag), "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace and not setup_only:
        cmd += ["--spans", os.path.join(ROOT, ".bench_out",
                                        f"spans-{args.workload}-{args.seed}.jsonl")]
    cmd += ["--started", repr(time.time())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result) as handle:
        return json.load(handle)


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "widthlab", "cli.py")):
        print(f"error: no widthlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    tmp = os.path.join(tmp_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        probes = [_worker(args, tmp, f"setup{i}", deadline, True)
                  for i in range(SETUP_SAMPLES - 1)]
        run = _worker(args, tmp, "run", deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    setups = [r["setup_s"] for r in probes + [run]]
    setup_walls = [r["setup_wall_s"] for r in probes + [run]]

    # Each job's latency is its median over the run's passes.
    latencies_ms = [1e3 * statistics.median(t) for t in zip(*run["latencies"])]
    if args.trace:
        metrics = {name: (value, unit_of(name)) for name, value in run["layers"].items()}
    else:
        metrics = {
            "run_s": (sum(latencies_ms) / 1e3, "s"),
            "job_p50_ms": (statistics.median(latencies_ms), "ms"),
            "job_tail_ms": (_percentile(latencies_ms, TAIL_PERCENTILE[args.workload]), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    failed = len({f["job"] for f in run["failures"]})
    attempted = run["attempted"]

    passes = len(run["latencies"])
    print(f"workload {args.workload}, seed {args.seed}, {passes} pass(es) of "
          f"{len(latencies_ms)} jobs, trace {args.trace}")
    print(f"  wall-clock pass time: median {statistics.median(run['wall']):.6g} s; set-up: "
          f"median {statistics.median(setup_walls):.6g} s")
    if not args.trace:
        print(f"  job_tail_ms is the p{TAIL_PERCENTILE[args.workload]} latency of "
              f"{len(latencies_ms)} jobs")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for failure in run["failures"]:
        print(f"  FAILED {failure['job']}: {'; '.join(failure['errors'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
