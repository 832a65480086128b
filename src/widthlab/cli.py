"""Batch command-line front end for the width analyses.

Every subcommand runs one analysis and writes machine-readable output (JSON
for structured reports, CSV for curves and scans; CSV files get a JSON
sidecar at ``<path>.meta.json``).  Each emitted file embeds the fully
resolved configuration and the format version string, and repeated runs
with identical configuration produce byte-identical files.

Each subcommand is declared once, in ``_SUBCOMMANDS``: handler, help, default
output, input flag, and per parameter its default (whose type is the flag's
type), help and validity rule.  The parser, the defaults that ``--config`` and
the flags override, and the range checks all derive from it; every value is
checked before any input file is read.

Exit codes: 0 on success, 1 on validation errors (bad flags, unreadable
input, precondition violations), 2 on numerical failure (flow positivity
loss or a failed self-test item).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import berger, conformal, equidist, yamabe
from ._fsio import atomic_write_text, read_json, report_text

__all__ = [
    "FORMAT_VERSION",
    "RunConfig",
    "RoundcheckItem",
    "RoundcheckReport",
    "roundcheck",
    "dispatch",
    "main",
]

FORMAT_VERSION = "widthlab-report/1"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description for one dispatch."""

    command: str
    output_path: str
    input_path: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = _SUBCOMMANDS.get(self.command)
        if spec is None:
            raise ValueError(f"unknown command {self.command!r}")
        if spec.input_flag and not self.input_path:
            raise ValueError(f"{self.command} requires an input path ({spec.input_flag})")

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "input_path": self.input_path,
            "output_path": self.output_path,
            **self.params,
        }


def _write_sidecar(csv_path: str, cfg: RunConfig) -> None:
    atomic_write_text(csv_path + ".meta.json", report_text(cfg.as_dict()))


# ---------------------------------------------------------------------------
# Command handlers.
# ---------------------------------------------------------------------------


def _run_berger_scan(cfg: RunConfig) -> None:
    p = cfg.params
    reports = berger.scan(p["rho_min"], p["rho_max"], p["n"])
    berger.write_scan_csv(reports, cfg.output_path)
    _write_sidecar(cfg.output_path, cfg)
    print(f"wrote {len(reports)} scan rows to {cfg.output_path}")


def _run_berger_certify(cfg: RunConfig) -> None:
    p = cfg.params
    if not p["grid_lo"] < p["grid_hi"]:
        raise ValueError(
            f"need --grid-lo < --grid-hi, got [{p['grid_lo']}, {p['grid_hi']}]"
        )
    certificate = berger.local_min_certificate(p["h"], first_tol=p["tol"])
    rhos = np.geomspace(p["grid_lo"], p["grid_hi"], p["grid_n"])
    checks = [berger.scalar_normalized_bound_check(r, tol=p["tol"]) for r in rhos]
    holds = all(c.passed for c in checks)
    text = report_text(
        cfg.as_dict(),
        local_min=certificate,
        product_bound={
            "bound": berger.PRODUCT_BOUND,
            "max_product": max(c.product for c in checks),
            "all_below_bound": holds,
            "equality_rhos": [c.rho for c in checks if c.equality],
        },
    )
    atomic_write_text(cfg.output_path, text)
    print(
        f"local min passed={certificate.passed}, bound holds={holds} "
        f"on {p['grid_n']} grid points"
    )


def _load_profile(cfg: RunConfig) -> conformal.AxisymProfile:
    """The input profile, which holds its evaluation (see ``load_profile``)."""
    try:
        return conformal.load_profile(cfg.input_path)
    except conformal.ProfileError as exc:
        flag = _SUBCOMMANDS[cfg.command].input_flag
        raise conformal.ProfileError(f"{flag}: {exc}") from None


def _run_conformal_analyze(cfg: RunConfig) -> None:
    profile = _load_profile(cfg)
    curvature, volume, _ = profile.evaluation
    star = conformal.star_scan(profile)
    text = report_text(
        cfg.as_dict(),
        n=profile.n,
        volume=volume,
        scalar_curvature={
            "min": float(np.min(curvature)),
            "max": float(np.max(curvature)),
        },
        width_upper_bound=star.width_upper_bound,
        normalized_width_bound=star.width_upper_bound / volume ** (2.0 / 3.0),
        minimal_spheres=star.minimal_spheres,
        star_holds_on_axisym_candidates=star.star_holds_on_axisym_candidates,
        isoperimetric=conformal.isoperimetric_check(profile),
    )
    atomic_write_text(cfg.output_path, text)
    print(
        f"analyzed {cfg.input_path}: {len(star.minimal_spheres)} minimal "
        f"spheres, width bound {star.width_upper_bound:.6f}"
    )


def _run_yamabe_run(cfg: RunConfig) -> None:
    p = cfg.params
    profile = _load_profile(cfg)
    trace = yamabe.run(
        profile,
        t_end=p["t_end"],
        dt=p["dt"],
        sample_every=p["sample_every"],
        convergence_tol=p["convergence_tol"],
    )
    report = yamabe.write_run_summary_json(trace, cfg.output_path, config=cfg.as_dict())
    if p["trace_csv"]:
        yamabe.write_trace_csv(trace, p["trace_csv"])
        _write_sidecar(p["trace_csv"], cfg)
    final = trace.states[-1]
    print(
        f"flow {trace.status} at t={final.time:.6g}: r_avg={final.r_avg:.6f}, "
        f"normalized width bound {report.final_normalized_width:.7f}; width * r "
        f"{report.product_at_max:.5f} at t={report.tau_star:.6g} "
        f"(latitude {report.latitude_product_at_max:.5f} at "
        f"t={report.latitude_tau_star:.6g}), bound {report.bound:.5f}"
    )


def _run_equidist_check(cfg: RunConfig) -> None:
    mu0, family = equidist.load_instance(cfg.input_path)
    certificate = equidist.cone_hull_membership(mu0, family, tol=cfg.params["tol"])
    text = report_text(cfg.as_dict(), **vars(certificate))
    atomic_write_text(cfg.output_path, text)
    print(f"{cfg.input_path}: {certificate.verdict}")


def _run_equidist_sequence(cfg: RunConfig) -> None:
    p = cfg.params
    mu0, family = equidist.load_instance(cfg.input_path)
    if p["weighted"]:
        trace = equidist.weighted_cesaro_structured(
            mu0, family, p["k_max"], tol=p["tol"]
        )
    else:
        trace = equidist.cesaro_sequence(mu0, family, p["k_max"], tol=p["tol"])
    equidist.write_trace_csv(trace, cfg.output_path)
    _write_sidecar(cfg.output_path, cfg)
    print(
        f"wrote {len(trace.sequence)} steps to {cfg.output_path}; "
        f"final error {trace.cesaro_errors[-1]:.3e}"
    )


# ---------------------------------------------------------------------------
# Round-metric self-test.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundcheckItem:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RoundcheckReport:
    items: tuple[RoundcheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def _berger_item() -> RoundcheckItem:
    nw = berger.normalized_width(1.0)
    w = berger.width(1.0)
    ok = (
        abs(nw - berger.ROUND_NORMALIZED_WIDTH) < 1e-6
        and abs(w - 4.0 * math.pi) < 1e-5
    )
    return RoundcheckItem(
        "berger-round-width",
        ok,
        f"normalized width {nw:.7f} (target {berger.ROUND_NORMALIZED_WIDTH:.7f})",
    )


def _conformal_item() -> RoundcheckItem:
    profile = conformal.AxisymProfile.round_profile(201)
    vol_ok = abs(conformal.volume(profile) - 2.0 * math.pi**2) < 1e-8
    curvature = conformal.scalar_curvature_field(profile)
    r_ok = float(np.max(np.abs(curvature - 6.0))) < 1e-8
    width_ok = abs(conformal.width_upper_bound(profile) - 4.0 * math.pi) < 1e-8
    spectrum = conformal.jacobi_spectrum(profile, math.pi / 2.0)
    spec_ok = spectrum.index == 1 and spectrum.nullity == 3
    return RoundcheckItem(
        "conformal-round-geometry",
        vol_ok and r_ok and width_ok and spec_ok,
        f"volume/R/width ok={vol_ok and r_ok and width_ok}, "
        f"equator index {spectrum.index}, nullity {spectrum.nullity}",
    )


def _yamabe_item() -> RoundcheckItem:
    # The flow moves u by (u/4)(r - R), so R = r everywhere is stationarity;
    # checking it needs no flow step.
    state = yamabe.flow_state(conformal.AxisymProfile.round_profile(101))
    ok = state.sup_R_minus_r < 1e-8 and abs(state.r_avg - 6.0) < 1e-8
    return RoundcheckItem(
        "yamabe-round-stationary",
        ok,
        f"sup|R - r| = {state.sup_R_minus_r:.3e}, r_avg = {state.r_avg:.7f}",
    )


def _equidist_item() -> RoundcheckItem:
    ray = equidist.FiniteMeasure(np.array([1.0, 1.0]))
    family = equidist.MeasureFamily(members=(ray,))
    member = equidist.cone_hull_membership(
        equidist.FiniteMeasure(np.array([3.0, 3.0])), family
    )
    non_member = equidist.cone_hull_membership(
        equidist.FiniteMeasure(np.array([1.0, 2.0])), family
    )
    alternating = equidist.cesaro_sequence(
        equidist.FiniteMeasure(np.array([1.0, 1.0])),
        equidist.MeasureFamily(
            members=(
                equidist.FiniteMeasure(np.array([1.0, 0.0])),
                equidist.FiniteMeasure(np.array([0.0, 1.0])),
            )
        ),
        100,
    )
    ok = (
        member.verdict == "member"
        and member.coefficients == ((0, 3.0),)
        and non_member.verdict == "non_member"
        and alternating.cesaro_errors[-1] == 0.0
    )
    return RoundcheckItem(
        "equidist-trivial-instances",
        ok,
        f"ray member={member.verdict}, off-ray={non_member.verdict}, "
        f"alternating error {alternating.cesaro_errors[-1]:.1e}",
    )


def roundcheck() -> RoundcheckReport:
    """One-shot self-test of all four analysis engines on round data."""
    items = []
    for builder in (_berger_item, _conformal_item, _yamabe_item, _equidist_item):
        try:
            items.append(builder())
        except Exception as exc:  # a crashed item is a failed item
            name = builder.__name__.strip("_").replace("_", "-")
            items.append(RoundcheckItem(name, False, f"raised {exc!r}"))
    return RoundcheckReport(items=tuple(items))


def _run_roundcheck(cfg: RunConfig) -> int:
    report = roundcheck()
    for item in report.items:
        print(f"{'PASS' if item.passed else 'FAIL'} {item.name}: {item.detail}")
    text = report_text(cfg.as_dict(), passed=report.passed, items=report.items)
    atomic_write_text(cfg.output_path, text)
    if not report.passed:
        print("numerical failure: roundcheck self-test failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# The subcommand table, and the dispatch, parser, defaults and range checks
# derived from it.
# ---------------------------------------------------------------------------


def _between(lo, hi) -> tuple:
    return (lambda v: lo <= v <= hi), f"between {lo} and {hi}"


def _inside(lo, hi) -> tuple:
    return (lambda v: lo < v < hi), f"in ({lo}, {hi})"


_POSITIVE = (lambda v: 0.0 < v < math.inf), "finite and > 0"
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf), "finite and >= 0"
_AT_LEAST_ONE = (lambda v: v >= 1), ">= 1"


@dataclass(frozen=True)
class _Param:
    """Config key ``key``, flag ``--key`` with dashes.  The default's type is
    the flag's type (a bool is an on-switch, None a path).  ``rule`` is a
    ``(predicate, text)`` pair: a failing value is ``--flag must be <text>``."""

    key: str
    default: object
    help: str | None = None
    rule: tuple | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


@dataclass(frozen=True)
class _Subcommand:
    handler: Callable[[RunConfig], int | None]
    help: str
    output: str
    input_flag: str | None = None
    input_help: str | None = None
    params: tuple[_Param, ...] = ()


_SUBCOMMANDS = {
    "berger-scan": _Subcommand(
        _run_berger_scan, "normalized width over a log grid", "berger_scan.csv",
        params=(
            _Param("rho_min", 1e-3, rule=_POSITIVE),
            _Param("rho_max", 1e4, rule=_POSITIVE),
            _Param("n", 50, "number of grid points", _between(2, berger.MAX_SCAN_POINTS)),
        ),
    ),
    "berger-certify": _Subcommand(
        _run_berger_certify, "round local minimum and product bound certificates",
        "berger_certify.json",
        params=(
            _Param("h", 1e-2, "finite-difference step", _inside(0, 0.5)),
            _Param("grid_lo", 1e-2, rule=_inside(0, 2)),
            _Param("grid_hi", 1.99, rule=_inside(0, 2)),
            _Param("grid_n", 100, rule=_between(1, berger.MAX_SCAN_POINTS)),
            _Param("tol", 1e-4, rule=_POSITIVE),
        ),
    ),
    "conformal-analyze": _Subcommand(
        _run_conformal_analyze, "minimal spheres, width bound, and stability",
        "conformal_analyze.json", "--input", "profile JSON",
    ),
    "yamabe-run": _Subcommand(
        _run_yamabe_run, "normalized Yamabe flow from a profile", "yamabe_run.json",
        "--profile", "initial profile JSON",
        params=(
            _Param("t_end", 1.0, rule=_POSITIVE),
            _Param("dt", 1e-4, rule=_POSITIVE),
            _Param("sample_every", 500, rule=_AT_LEAST_ONE),
            _Param("convergence_tol", 1e-3, rule=_NONNEGATIVE),
            _Param("trace_csv", None, "also write the monitor CSV"),
        ),
    ),
    "equidist-check": _Subcommand(
        _run_equidist_check, "cone-hull membership certificate", "equidist_check.json",
        "--input", "instance JSON", params=(_Param("tol", 1e-9, rule=_POSITIVE),),
    ),
    "equidist-sequence": _Subcommand(
        _run_equidist_sequence, "greedy Cesaro error trace", "equidist_trace.csv",
        "--input", "instance JSON",
        params=(
            _Param("k_max", 10_000, rule=_between(1, equidist.MAX_SEQUENCE_STEPS)),
            _Param("tol", 1e-9, rule=_POSITIVE),
            _Param("weighted", False, "use the mass-weighted structured variant"),
        ),
    ),
    "roundcheck": _Subcommand(
        _run_roundcheck, "one-shot round-metric self-test", "roundcheck.json"
    ),
}


def dispatch(cfg: RunConfig) -> int:
    """Run one resolved configuration and map failures to exit codes.

    Handlers return None on success; the self-test returns its exit code.
    """
    try:
        code = _SUBCOMMANDS[cfg.command].handler(cfg)
    except (yamabe.FlowError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if code is None else code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Building it costs far more than parsing one command line, and parsing
    leaves the parser unchanged, so one instance serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="Width, curvature-flow, and equidistribution analyses "
        "with machine-readable output.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, spec in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--output", dest="output_path", help="output file path")
        if spec.input_flag:
            sp.add_argument(spec.input_flag, dest="input_path", help=spec.input_help)
        for p in spec.params:
            if isinstance(p.default, bool):
                sp.add_argument(p.flag, action="store_const", const=True, help=p.help)
            else:
                kind = None if p.default is None else type(p.default)
                sp.add_argument(p.flag, type=kind, help=p.help)
    return parser


def _check_config_type(key: str, value, default) -> None:
    """A config-file value must have its default's type.

    Integers are not booleans, numbers may be integers, and paths are
    strings (or null where the default is null).
    """
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = is_int, "an integer"
    elif isinstance(default, float):
        ok, kind = is_int or isinstance(value, float), "a number"
    else:
        ok = isinstance(value, str) or (value is None and default is None)
        kind = "a path string"
    if not ok:
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, optional JSON config file, and explicit flags, then
    check every parameter against its rule, before any input is read.

    The config key ``input_path`` exists only where the subcommand has an
    input flag; elsewhere the echoed ``input_path`` stays null.
    """
    spec = _SUBCOMMANDS[args.command]
    merged = {"input_path": None, "output_path": spec.output,
              **{p.key: p.default for p in spec.params}}
    if getattr(args, "config", None):
        file_values = read_json(args.config)
        if not isinstance(file_values, dict):
            raise ValueError(
                f"config file {args.config} must hold a JSON object, "
                f"got {type(file_values).__name__}"
            )
        keys = set(merged) if spec.input_flag else set(merged) - {"input_path"}
        unknown = set(file_values) - keys
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        for key, value in file_values.items():
            _check_config_type(key, value, merged[key])
        merged.update(file_values)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for p in spec.params:
        if p.rule is not None and not p.rule[0](merged[p.key]):
            raise ValueError(f"{p.flag} must be {p.rule[1]}, got {merged[p.key]!r}")
    return RunConfig(
        command=args.command,
        output_path=merged.pop("output_path"),
        input_path=merged.pop("input_path"),
        params=merged,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage itself; normalize its exit code contract.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
