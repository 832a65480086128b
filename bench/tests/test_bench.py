"""Self-test of the benchmark: metric emission and the output checks.

Run from the repository root:

    python3 -m pytest -q bench/tests

A tiny-size run of every workload must print every metric BENCHMARK.json
names, with its unit.  Each output check must pass on a genuine output and
fail on a deliberately corrupted one, which shows that it can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name in result["metrics"]:
        assert f"  {name} = " in proc.stdout
    if trace:
        # Per-layer self times plus the benchmark's own time make up the pass.
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert layers + values["trace.bench_s"] == pytest.approx(values["trace.run_s"])


def test_run_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "geometry-survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Each check passes on a genuine output and fails on a corrupted one.
# ---------------------------------------------------------------------------


def _run_jobs(workload, tmp_path, seed=5):
    inputs_dir = tmp_path / "inputs"
    inputs_dir.mkdir()
    inputs = workloads.generate(workload, seed, str(inputs_dir), "tiny")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    jobs = workloads.jobs(inputs, str(out_dir), "t")
    values = []
    with contextlib.redirect_stdout(io.StringIO()):
        for job in jobs:
            values.append(job.run())
    return inputs, jobs, values


def _edit_json(path, edit):
    with open(path) as handle:
        payload = json.load(handle)
    edit(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _edit_lines(path, edit):
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(edit(lines)) + "\n")


def _by_kind(jobs, values, kind):
    return next((j, v) for j, v in zip(jobs, values) if j.kind == kind)


def _corruptions_fail(job, value, path, corruptions, editor):
    """The genuine output passes; each corruption, applied alone, fails."""
    assert job.check(value) == []
    with open(path) as handle:
        pristine = handle.read()
    for corrupt in corruptions:
        editor(path, corrupt)
        assert job.check(value) != [], corrupt
        with open(path, "w") as handle:
            handle.write(pristine)


def _set_cell(column, factor):
    def edit(lines):
        header = lines[0].split(",")
        cells = lines[1].split(",")
        i = header.index(column)
        cells[i] = repr(float(cells[i]) * factor)
        return [lines[0], ",".join(cells)] + lines[2:]
    return edit


def test_geometry_checks_catch_corruption(tmp_path):
    _, jobs, values = _run_jobs("geometry-survey", tmp_path)
    job, code = _by_kind(jobs, values, "berger-scan")
    _corruptions_fail(job, code, job.output, [
        _set_cell("normalized_width", 1.0 + 1e-6),
        _set_cell("scalar_curvature", 1.01),
        lambda lines: lines[:-1],  # truncated scan
    ], _edit_lines)

    job, code = _by_kind(jobs, values, "berger-certify")
    _corruptions_fail(job, code, job.output, [
        lambda p: p["local_min"].update(passed=False),
        lambda p: p["product_bound"].update(max_product=24 * math.pi + 1e-3),
    ], _edit_json)

    round_job = [(j, v) for j, v in zip(jobs, values) if j.kind == "conformal-analyze"][-1]
    job, code = round_job

    def area_above_bound(p):
        p["minimal_spheres"][0]["area"] = p["width_upper_bound"] * 1.001

    _corruptions_fail(job, code, job.output, [
        lambda p: p.update(volume=p["volume"] * (1 + 1e-6)),
        lambda p: p.update(width_upper_bound=p["width_upper_bound"] * (1 - 1e-4)),
        area_above_bound,
        lambda p: p["minimal_spheres"][0].update(index=0),
        lambda p: p["minimal_spheres"][0].update(nullity=1),
    ], _edit_json)

    job, code = _by_kind(jobs, values, "conformal-analyze")
    _corruptions_fail(job, code, job.output, [
        lambda p: p["minimal_spheres"][0].update(area=p["minimal_spheres"][0]["area"] * 0.999),
        lambda p: p.update(width_upper_bound=p["width_upper_bound"] * (1 + 1e-4)),
    ], _edit_json)

    job, code = _by_kind(jobs, values, "roundcheck")
    _corruptions_fail(job, code, job.output, [
        lambda p: p["items"][1].update(passed=False),
    ], _edit_json)
    assert job.check(2) != []  # a non-zero exit is a failure


def test_flow_checks_catch_corruption(tmp_path):
    _, jobs, values = _run_jobs("flow-squashed", tmp_path)
    job, code = _by_kind(jobs, values, "yamabe-run")
    _corruptions_fail(job, code, job.output, [
        lambda p: p.update(status="completed"),
        lambda p: p.update(max_volume_drift=1e-11),
        lambda p: p.update(max_energy_increase=1e-7),
        lambda p: p["theorem1"].update(final_normalized_width=1.8),
    ], _edit_json)
    csv_path = job.output[: -len(".json")] + ".csv"
    _corruptions_fail(job, code, csv_path, [
        lambda lines: lines[:-1],  # truncated trace
        _set_cell("r_avg", 0.5),  # average curvature dips
    ], _edit_lines)

    refinements = [(j, v) for j, v in zip(jobs, values) if j.kind == "refinement"]
    assert [j.check(v) for j, v in refinements] == [[]] * len(refinements)
    assert checks.refinement_orders({201: 0.1, 401: 0.06, 801: 0.01}) != []
    assert checks.refinement_orders({201: 0.1, 401: 0.01}) != []


def test_membership_checks_catch_corruption(tmp_path):
    _, jobs, values = _run_jobs("membership-mixed", tmp_path)
    checks_ = [(j, v) for j, v in zip(jobs, values) if j.kind == "equidist-check"]
    (member, m_code), (non_member, n_code) = checks_

    def flip_coefficient(p):
        j, c = p["coefficients"][0]
        p["coefficients"][0] = [j, c + 2.0**-20]

    _corruptions_fail(member, m_code, member.output, [
        flip_coefficient,
        lambda p: p.update(verdict="non_member"),
    ], _edit_json)
    _corruptions_fail(non_member, n_code, non_member.output, [
        lambda p: p.update(separating_f=[-v for v in p["separating_f"]]),
        lambda p: p.update(verdict="member"),
    ], _edit_json)

    sequence, s_code = _by_kind(jobs, values, "equidist-sequence")
    path = sequence.output

    def bump_error(lines):
        k, err = lines[5].split(",")
        return lines[:5] + [f"{k},{float(err) * (1 + 1e-9)!r}"] + lines[6:]

    _corruptions_fail(sequence, s_code, path, [
        lambda lines: lines[:-1],  # truncated trace
        bump_error,
    ], _edit_lines)


def test_repeated_job_comparison_detects_a_change(tmp_path, monkeypatch):
    inputs = workloads.generate("geometry-survey", 5, str(tmp_path), "tiny")
    out = str(tmp_path / "pass0")
    *_, first = worker.run_pass(workloads, inputs, out, "p0", keep="conformal-analyze")
    *_, again = worker.run_pass(workloads, inputs, out, "p0", keep="conformal-analyze",
                                only=first[0])
    assert again == first
    from widthlab import cli

    monkeypatch.setattr(cli, "FORMAT_VERSION", "widthlab-report/other")
    *_, changed = worker.run_pass(workloads, inputs, out, "p0", keep="conformal-analyze",
                                  only=first[0])
    assert changed[0] == first[0] and changed[1] != first[1]
