"""Spans around calls into widthlab's modules, recorded from the outside.

The tracer replaces module attributes with timing wrappers, in every module
namespace that holds the function, so each call is seen as its caller looks
it up (``berger.integrate_adaptive``, ``yamabe.width_upper_bound``, ...).
Spans stay in memory until ``layer_metrics`` reduces them; a span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("numerics", "berger", "conformal", "yamabe", "equidist", "cli")
MEMBERSHIP_SIZES = (4, 8, 12, 16, 20)

# (home module, attribute) of every traced function.  The span name is
# "<home>.<attribute>", except that the shared atomic writer is reported
# under the cli layer, which owns the output files.
TRACED = {
    "numerics": ("integrate_adaptive",),
    "berger": ("normalized_width", "width", "report_at", "scan", "write_scan_csv",
               "local_min_certificate", "scalar_normalized_bound_check"),
    "conformal": ("load_profile", "scalar_curvature_field", "volume",
                  "minimal_coordinate_spheres", "width_upper_bound",
                  "max_latitude_sphere", "second_variation_oracle",
                  "jacobi_spectrum", "analyze_sphere", "star_scan",
                  "isoperimetric_check"),
    "yamabe": ("run", "step", "flow_state", "width_derivative_monitor",
               "theorem1_monitor", "write_trace_csv", "write_run_summary_json"),
    "equidist": ("load_instance", "cone_hull_membership", "cesaro_sequence",
                 "weighted_cesaro_structured", "write_trace_csv"),
    "cli": ("main",),
    "_fsio": ("atomic_write_text",),
}


@dataclass
class Span:
    name: str
    layer: str
    job: str | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs wrappers on import, records spans, restores on ``close``."""

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        namespaces = [modules[name] for name in LAYERS]
        for home, attrs in TRACED.items():
            for attr in attrs:
                fn = getattr(modules[home], attr)
                layer = "cli" if home == "_fsio" else home
                wrapper = self._wrap(fn, f"{layer}.{attr}", layer)
                for module in namespaces:
                    if module.__dict__.get(attr) is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def close(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, name: str, layer: str):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, self.job, stack[-1] if stack else None)
            if hook is not None:
                args = hook(span, args, None, False)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            if hook is not None:
                hook(span, args, result, True)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "parent": s.parent, "job": s.job,
                          "start": s.start, "end": s.end, "self_s": s.self_s,
                          "error": s.error, **s.attrs}
                handle.write(json.dumps(record) + "\n")


# Hooks run before the call (``done`` false; they may replace the positional
# arguments) and after it, to count work where it happens.


def _count_evals(span, args, result, done):
    if not done:
        f = args[0]
        span.attrs["evals"] = 0

        def counted(x):
            span.attrs["evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])
    return args


def _count_spheres(span, args, result, done):
    if done:
        span.attrs["spheres"] = len(result)
    return args


def _flow_steps(span, args, result, done):
    if not done:
        span.attrs["n"] = args[0].n
    else:
        span.attrs["outer_steps"] = int(result.monitors["t"].size)
        span.attrs["substeps"] = int(result.monitors["substeps"].sum())
    return args


def _lp_instance(span, args, result, done):
    if not done:
        span.attrs["n"] = args[0].n
        span.attrs["instance"] = hash(args[0].weights.tobytes())
    else:
        span.attrs["verdict"] = result.verdict
    return args


def _sequence_steps(span, args, result, done):
    if done:
        span.attrs["steps"] = len(result.sequence)
    return args


def _output_bytes(span, args, result, done):
    if not done:
        span.attrs["bytes"] = len(args[1].encode())
    return args


_HOOKS = {
    "numerics.integrate_adaptive": _count_evals,
    "conformal.minimal_coordinate_spheres": _count_spheres,
    "yamabe.run": _flow_steps,
    "equidist.cone_hull_membership": _lp_instance,
    "equidist.cesaro_sequence": _sequence_steps,
    "equidist.weighted_cesaro_structured": _sequence_steps,
    "cli.atomic_write_text": _output_bytes,
}


# ---------------------------------------------------------------------------
# Reduction to the per-layer metrics.
# ---------------------------------------------------------------------------


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_us", ".us_per_step")) or ".us_per_substep." in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], run_s: float, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced pass that took ``run_s`` seconds.

    Every time is multiplied by ``scale`` (the benchmark's machine-speed
    normalization of the pass); counts are not.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def self_s(name):
        return scale * sum(s.self_s for s in group(name))

    def total_s(name):
        return scale * sum(s.duration for s in group(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in group(name))

    m: dict[str, float] = {}
    m["numerics.integrate_adaptive.calls"] = calls("numerics.integrate_adaptive")
    m["numerics.integrate_adaptive.evals"] = attr_sum("numerics.integrate_adaptive", "evals")
    m["numerics.integrate_adaptive.self_s"] = self_s("numerics.integrate_adaptive")

    m["berger.normalized_width.calls"] = calls("berger.normalized_width")
    m["berger.normalized_width.p50_us"] = 1e6 * scale * _median(
        [s.duration for s in group("berger.normalized_width")])
    m["berger.normalized_width.self_s"] = self_s("berger.normalized_width")
    for name in ("scan", "local_min_certificate", "scalar_normalized_bound_check"):
        m[f"berger.{name}.s"] = total_s(f"berger.{name}")

    for name in ("jacobi_spectrum", "second_variation_oracle", "width_upper_bound"):
        m[f"conformal.{name}.calls"] = calls(f"conformal.{name}")
        m[f"conformal.{name}.self_s"] = self_s(f"conformal.{name}")
    m["conformal.minimal_coordinate_spheres.spheres"] = attr_sum(
        "conformal.minimal_coordinate_spheres", "spheres")
    m["conformal.star_scan.s"] = total_s("conformal.star_scan")
    m["conformal.max_latitude_sphere.self_s"] = self_s("conformal.max_latitude_sphere")
    m["conformal.scalar_curvature_field.self_s"] = self_s("conformal.scalar_curvature_field")

    runs = group("yamabe.run")
    m["yamabe.run.self_s"] = self_s("yamabe.run")
    m["yamabe.run.outer_steps"] = attr_sum("yamabe.run", "outer_steps")
    m["yamabe.run.substeps"] = attr_sum("yamabe.run", "substeps")
    for n in (201, 401, 801):
        at_n = [s for s in runs if s.attrs.get("n") == n]
        substeps = sum(s.attrs.get("substeps", 0) for s in at_n)
        m[f"yamabe.run.us_per_substep.n{n}"] = (
            1e6 * scale * sum(s.self_s for s in at_n) / substeps if substeps else 0.0)
    m["yamabe.flow_state.calls"] = calls("yamabe.flow_state")
    m["yamabe.flow_state.self_s"] = self_s("yamabe.flow_state")
    m["yamabe.width_derivative_monitor.s"] = total_s("yamabe.width_derivative_monitor")
    m["yamabe.theorem1_monitor.s"] = total_s("yamabe.theorem1_monitor")

    lps = group("equidist.cone_hull_membership")
    m["equidist.cone_hull_membership.calls"] = len(lps)
    for verdict in ("member", "non_member"):
        ms = [1e3 * scale * s.duration for s in lps if s.attrs.get("verdict") == verdict]
        m[f"equidist.cone_hull_membership.{verdict}.p50_ms"] = _median(ms)
        if verdict == "non_member":
            m["equidist.cone_hull_membership.non_member.max_ms"] = max(ms, default=0.0)
    for n in MEMBERSHIP_SIZES:
        m[f"equidist.cone_hull_membership.n{n}.s"] = scale * sum(
            s.duration for s in lps if s.attrs.get("n") == n)
    instances = {s.attrs["instance"] for s in lps if "instance" in s.attrs}
    m["equidist.lp_solves_per_instance"] = len(lps) / len(instances) if instances else 0.0
    sequences = group("equidist.cesaro_sequence") + group("equidist.weighted_cesaro_structured")
    steps = sum(s.attrs.get("steps", 0) for s in sequences)
    m["equidist.cesaro.steps"] = steps
    m["equidist.cesaro.us_per_step"] = (
        1e6 * scale * sum(s.self_s for s in sequences) / steps if steps else 0.0)

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.output_bytes"] = attr_sum("cli.atomic_write_text", "bytes")
    m["cli.atomic_write_text.s"] = total_s("cli.atomic_write_text")

    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans if s.layer == layer and s.error)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = scale * sum(s.self_s for s in spans if s.layer == layer)
    top = sum(s.duration for s in spans if s.parent is None)
    m["trace.bench_s"] = scale * (run_s - top)
    return m
