"""Tests for the batch command-line front end: config resolution, output
formats, determinism, and exit codes."""

import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import widthlab.berger as berger
import widthlab.cli as cli
import widthlab.conformal as cf
import widthlab.equidist as eq
import widthlab.yamabe as yamabe

from oracles import parse_scan_csv, save_instance, save_profile
from test_reports import write_reports


@pytest.fixture
def round_profile_path(tmp_path):
    path = str(tmp_path / "round.json")
    save_profile(cf.AxisymProfile.round_profile(61), path)
    return path


@pytest.fixture
def bump_profile_path(tmp_path):
    path = str(tmp_path / "bump.json")
    save_profile(
        cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(t), 201), path
    )
    return path


@pytest.fixture
def member_instance_path(tmp_path):
    path = str(tmp_path / "member.json")
    save_instance(
        path,
        eq.FiniteMeasure(np.array([1.0, 1.0])),
        eq.MeasureFamily(
            members=(
                eq.FiniteMeasure(np.array([1.0, 0.0])),
                eq.FiniteMeasure(np.array([0.0, 1.0])),
            )
        ),
    )
    return path


@pytest.fixture
def nonmember_instance_path(tmp_path):
    path = str(tmp_path / "nonmember.json")
    save_instance(
        path,
        eq.FiniteMeasure(np.array([1.0, 2.0])),
        eq.MeasureFamily(members=(eq.FiniteMeasure(np.array([1.0, 1.0])),)),
    )
    return path


def assert_only_error_line(capsys, named):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


class TestArgumentHandling:
    def test_unknown_command_exits_one(self, capsys):
        assert cli.main(["no-such-command"]) == 1

    def test_no_command_prints_usage(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        # The README's commands reach main through ``python -m widthlab.cli``:
        # it writes what an in-process main writes for the same argv and path,
        # and exits 1 with no subcommand.
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}
        path = tmp_path / "roundcheck.json"
        argv = ["roundcheck", "--output", str(path)]
        child = subprocess.run([sys.executable, "-m", "widthlab.cli", *argv],
                               capture_output=True, env=env)
        assert child.returncode == 0
        written = path.read_bytes()
        path.unlink()
        assert cli.main(argv) == 0
        assert path.read_bytes() == written
        bare = subprocess.run([sys.executable, "-m", "widthlab.cli"],
                              capture_output=True, env=env)
        assert bare.returncode == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_missing_required_input(self, capsys):
        assert cli.main(["equidist-check"]) == 1
        assert "input" in capsys.readouterr().err

    def test_unreadable_input(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        code = cli.main(
            ["equidist-check", "--input", str(tmp_path / "nope.json"), "--output", out]
        )
        assert code == 1

    def test_run_config_validation(self):
        with pytest.raises(ValueError, match="unknown command"):
            cli.RunConfig(command="zap", output_path="x.json")
        with pytest.raises(ValueError, match="input"):
            cli.RunConfig(command="equidist-check", output_path="x.json")

    def test_config_file_and_flag_precedence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rho_min": 0.5, "rho_max": 2.0, "n": 4}))
        code = cli.main(
            ["berger-scan", "--config", str(cfg_path), "--n", "6", "--output", "s.csv"]
        )
        assert code == 0
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        # Flag overrides the file; file overrides the default.
        assert meta["config"]["n"] == 6
        assert meta["config"]["rho_min"] == 0.5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert cli.main(["berger-scan", "--config", str(cfg_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        assert cli.main(["berger-scan", "--seed", "1"]) == 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1}))
        assert cli.main(["berger-scan", "--config", str(cfg_path)]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, values, key",
        [
            ("berger-certify", {"grid_n": "5"}, "grid_n"),
            ("berger-certify", {"grid_n": 5.0}, "grid_n"),
            ("berger-scan", {"n": 2.5}, "n"),
            ("berger-scan", {"n": True}, "n"),
            ("berger-scan", {"rho_min": "0.5"}, "rho_min"),
            ("berger-scan", {"rho_max": False}, "rho_max"),
            ("equidist-sequence", {"weighted": 1}, "weighted"),
            ("yamabe-run", {"trace_csv": 3}, "trace_csv"),
            ("berger-scan", {"output_path": None}, "output_path"),
        ],
    )
    def test_config_value_types(self, tmp_path, capsys, command, values, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        assert_only_error_line(capsys, repr(key))

    def test_config_accepts_int_for_float_and_null_path(self, tmp_path,
                                                        round_profile_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rho_min": 1, "rho_max": 2, "n": 3}))
        out = str(tmp_path / "s.csv")
        assert cli.main(["berger-scan", "--config", str(cfg_path), "--output", out]) == 0
        cfg_path.write_text(json.dumps({"trace_csv": None, "t_end": 1}))
        out = str(tmp_path / "flow.json")
        assert cli.main(["yamabe-run", "--config", str(cfg_path), "--profile",
                         round_profile_path, "--output", out]) == 0
        assert json.loads(open(out).read())["config"]["trace_csv"] is None

    def test_shared_parser_keeps_no_state_between_calls(self, tmp_path,
                                                         member_instance_path):
        assert cli._build_parser() is cli._build_parser()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["equidist-check", "--input", member_instance_path,
                         "--tol", "1e-3", "--output", str(first)]) == 0
        assert cli.main(["equidist-check", "--input", member_instance_path,
                         "--output", str(second)]) == 0
        assert json.loads(first.read_text())["config"]["tol"] == 1e-3
        assert json.loads(second.read_text())["config"]["tol"] == 1e-9

    def test_param_defaults_match_parser_flags(self):
        # Every config key is a flag of its subcommand and vice versa, so a
        # removed flag cannot leave a dead config key behind.
        subparsers = next(
            a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        shared = {"help", "config", "output_path", "input_path"}
        assert set(subparsers.choices) == set(cli._SUBCOMMANDS)
        for command, sp in subparsers.choices.items():
            dests = {a.dest for a in sp._actions} - shared
            assert dests == {p.key for p in cli._SUBCOMMANDS[command].params}, command

    @pytest.mark.parametrize("content", ["5", "[[1]]"])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        assert cli.main(["berger-scan", "--config", str(cfg_path)]) == 1
        assert_only_error_line(capsys, "JSON object")

    @pytest.mark.parametrize(
        "command, flag",
        [("berger-scan", "--config"), ("conformal-analyze", "--input"),
         ("equidist-check", "--input"), ("yamabe-run", "--profile")],
    )
    def test_file_that_is_not_json_is_named(self, tmp_path, capsys, command, flag):
        path = tmp_path / "garbage.json"
        path.write_text("garbage")
        out = tmp_path / "out.json"
        assert cli.main([command, flag, str(path), "--output", str(out)]) == 1
        assert_only_error_line(capsys, f"{path} is not a JSON file")
        assert not out.exists()

    def test_input_path_is_a_config_key_only_with_an_input_flag(self, tmp_path, capsys,
                                                                round_profile_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input_path": "nothing.json"}))
        out = tmp_path / "s.csv"
        assert cli.main(["berger-scan", "--config", str(cfg_path),
                         "--output", str(out)]) == 1
        assert_only_error_line(capsys, "unknown config keys")
        assert not out.exists()
        cfg_path.write_text(json.dumps({"input_path": round_profile_path}))
        out = tmp_path / "ana.json"
        assert cli.main(["conformal-analyze", "--config", str(cfg_path),
                         "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["input_path"] == round_profile_path

    def test_echoed_config_has_no_seed_or_threads(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert cli.main(["berger-scan", "--n", "3", "--output", out]) == 0
        config = json.loads(open(out + ".meta.json").read())["config"]
        assert "seed" not in config and "threads" not in config


RULED = [
    (command, param)
    for command, spec in cli._SUBCOMMANDS.items()
    for param in spec.params
    if param.rule is not None
]


@pytest.fixture
def inputs_unread(monkeypatch):
    def unreachable(path):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr(cf, "load_profile", unreachable)
    monkeypatch.setattr(eq, "load_instance", unreachable)


def command_line(command, tmp_path, *flags):
    spec = cli._SUBCOMMANDS[command]
    argv = [command, *flags, "--output", str(tmp_path / "out")]
    if spec.input_flag:
        argv += [spec.input_flag, "input.json"]
    return argv


class _ReadRecorder(dict):
    """Config parameters that remember which keys a handler looked up; the
    config echo copies the dict without lookups."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestParameterRules:
    def test_every_declared_param_is_read(self, tmp_path, monkeypatch):
        # Each subcommand runs once on the small inputs of the frozen
        # reports; a declared key its handler never reads is a knob that
        # does nothing.
        recorded = {}
        resolve = cli._resolve_config

        def recording_resolve(args):
            cfg = resolve(args)
            params = recorded[cfg.command] = _ReadRecorder(cfg.params)
            return cli.RunConfig(cfg.command, cfg.output_path, cfg.input_path, params)

        monkeypatch.setattr(cli, "_resolve_config", recording_resolve)
        write_reports(tmp_path)
        assert set(recorded) == set(cli._SUBCOMMANDS)
        for command, params in recorded.items():
            declared = {p.key for p in cli._SUBCOMMANDS[command].params}
            assert params.read == declared, command

    def test_defaults_pass_their_rules(self):
        assert RULED
        for command, param in RULED:
            assert param.rule[0](param.default), (command, param.key)

    @pytest.mark.parametrize(
        "command, param", RULED, ids=[f"{c}{p.flag}" for c, p in RULED]
    )
    def test_bad_value_rejected_before_work(self, tmp_path, capsys, inputs_unread,
                                            command, param):
        bad_values = ["0", "-1"] if isinstance(param.default, int) else ["nan", "inf", "-1"]
        for bad in bad_values:
            assert cli.main(command_line(command, tmp_path, param.flag, bad)) == 1
            assert_only_error_line(capsys, f"{param.flag} must be")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, values, flag",
        [
            ("equidist-check", {"tol": float("inf")}, "--tol"),
            ("berger-certify", {"tol": -1}, "--tol"),
            ("yamabe-run", {"convergence_tol": -1.0}, "--convergence-tol"),
            ("equidist-sequence", {"k_max": 0}, "--k-max"),
        ],
    )
    def test_config_file_values_follow_the_rules(self, tmp_path, capsys, inputs_unread,
                                                 command, values, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        assert cli.main(command_line(command, tmp_path, "--config", str(cfg_path))) == 1
        assert_only_error_line(capsys, f"{flag} must be")
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_zero_convergence_tol_runs_to_t_end(self, tmp_path, round_profile_path):
        out = tmp_path / "flow.json"
        assert cli.main(["yamabe-run", "--profile", round_profile_path,
                         "--t-end", "0.001", "--convergence-tol", "0",
                         "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["status"] != "converged"
        assert data["final"]["t"] == pytest.approx(0.001)


class TestBergerScan:
    def test_spec_example_flags(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        code = cli.main(
            ["berger-scan", "--rho-min", "1e-3", "--rho-max", "1e4", "--n", "50",
             "--output", out]
        )
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0].startswith("rho,")
        assert len(lines) == 51
        # Every cell round-trips exactly, and each row re-validates its
        # internal invariants as a BergerReport.
        reports = parse_scan_csv(out)
        assert reports == berger.scan(1e-3, 1e4, 50)
        assert reports[0].rho == pytest.approx(1e-3)
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["format"] == "widthlab-report/1"
        assert meta["config"]["command"] == "berger-scan"
        assert meta["config"]["n"] == 50

    @pytest.mark.parametrize(
        "flags",
        [["--rho-max", "inf"], ["--rho-min", "nan"], ["--n", "1"], ["--n", "1000000000"]],
    )
    def test_bad_input_prints_only_the_error(self, tmp_path, capsys, flags):
        out = str(tmp_path / "scan.csv")
        assert cli.main(["berger-scan", *flags, "--output", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


    @pytest.mark.parametrize(
        "flags, rho",
        [
            # z = (a - b)/b overflows below rho ~ 7.5e-155 and G(inf) is nan.
            (["--rho-min", "1e-200", "--rho-max", "1e-150", "--n", "3"], "1e-200"),
            # rho^(-4/3) itself overflows below rho ~ 1e-231.
            (["--rho-min", "1e-300"], "1e-300"),
        ],
    )
    def test_small_rho_is_numerical_failure(self, tmp_path, capsys, flags, rho):
        out = tmp_path / "scan.csv"
        assert cli.main(["berger-scan", *flags, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert f"rho={rho}" in err
        assert list(tmp_path.iterdir()) == []

    def test_large_rho_is_numerical_failure(self, tmp_path, capsys):
        # 8 - 2 rho^2 overflows to -inf above rho ~ 9.5e153 and 2 pi^2 rho to
        # inf above rho ~ 9.1e306; no row may carry them.
        out = tmp_path / "scan.csv"
        flags = ["--rho-min", "1e150", "--rho-max", "1e308", "--n", "3"]
        assert cli.main(["berger-scan", *flags, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "numerical failure: scalar curvature leaves floating point at rho=1e+229\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestBergerCertify:
    def test_certificates(self, tmp_path):
        out = str(tmp_path / "cert.json")
        code = cli.main(
            ["berger-certify", "--h", "1e-2", "--grid-n", "30", "--output", out]
        )
        assert code == 0
        data = json.loads(open(out).read())
        assert data["format"] == "widthlab-report/1"
        assert data["local_min"]["passed"] is True
        assert data["local_min"]["second_difference"] > 0.0
        assert data["product_bound"]["all_below_bound"] is True
        assert data["product_bound"]["max_product"] <= 24.0 * np.pi + 1e-4

    def test_local_min_is_the_certificate_record(self, tmp_path):
        out = tmp_path / "cert.json"
        assert cli.main(["berger-certify", "--grid-n", "3", "--output", str(out)]) == 0
        local_min = json.loads(out.read_text())["local_min"]
        certificate = berger.local_min_certificate(1e-2, first_tol=1e-4)
        assert local_min == {
            f.name: getattr(certificate, f.name)
            for f in dataclasses.fields(berger.LocalMinCertificate)
        }

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--grid-n", "0"], "--grid-n"),
            (["--grid-n", "-3"], "--grid-n"),
            (["--grid-n", "1000000000"], "--grid-n"),
            (["--grid-lo", "0"], "--grid-lo"),
            (["--grid-lo", "1.5", "--grid-hi", "1.0"], "--grid-hi"),
            (["--grid-hi", "2"], "--grid-hi"),
            (["--grid-hi", "inf"], "--grid-hi"),
            (["--grid-lo", "nan"], "--grid-lo"),
        ],
    )
    def test_bad_grid_rejected(self, tmp_path, capsys, flags, named):
        out = str(tmp_path / "cert.json")
        assert cli.main(["berger-certify", *flags, "--output", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""


    def test_small_rho_is_numerical_failure(self, tmp_path, capsys):
        # A nan product at rho = 1e-200 read as a counterexample to the bound.
        out = tmp_path / "cert.json"
        code = cli.main(["berger-certify", "--grid-lo", "1e-200", "--grid-n", "3",
                         "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "rho=1e-200" in err
        assert not out.exists()


class TestConformalAnalyze:
    def test_bump_report(self, tmp_path, bump_profile_path):
        out = str(tmp_path / "ana.json")
        code = cli.main(["conformal-analyze", "--input", bump_profile_path,
                         "--output", out])
        assert code == 0
        data = json.loads(open(out).read())
        assert data["format"] == "widthlab-report/1"
        profile = cf.load_profile(bump_profile_path)
        assert data["volume"] == pytest.approx(cf.volume(profile), rel=1e-12)
        assert len(data["minimal_spheres"]) == 1
        sphere = data["minimal_spheres"][0]
        assert sphere["theta"] == pytest.approx(1.1240721, abs=1e-3)
        assert sphere["index"] == 4 and sphere["nullity"] == 0
        assert data["star_holds_on_axisym_candidates"] is True
        assert data["isoperimetric"]["passed"] is False

    def test_sphere_and_isoperimetric_blocks_are_records(self, tmp_path):
        # Three spheres on 1 + 0.3 cos(2 theta); each block carries exactly
        # its dataclass's fields.
        path = str(tmp_path / "double.json")
        profile = cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(2 * t), 41)
        save_profile(profile, path)
        out = tmp_path / "ana.json"
        assert cli.main(["conformal-analyze", "--input", path, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        star = cf.star_scan(profile)
        assert data["minimal_spheres"] == [dataclasses.asdict(s) for s in star.minimal_spheres]
        assert len(data["minimal_spheres"]) == 3
        assert data["isoperimetric"] == dataclasses.asdict(cf.isoperimetric_check(profile))

    def test_eps_is_not_an_option(self, tmp_path, round_profile_path, capsys):
        assert cli.main(["conformal-analyze", "--input", round_profile_path,
                         "--eps", "0.01"]) == 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eps": 0.01}))
        assert cli.main(["conformal-analyze", "--input", round_profile_path,
                         "--config", str(cfg_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_small_constant_profile_analyzes(self, tmp_path):
        # The equator of u = 0.5 is a round sphere of radius 1/4.
        path = write_constant_profile(tmp_path / "half.json", 0.5, 61)
        out = tmp_path / "ana.json"
        assert cli.main(["conformal-analyze", "--input", path, "--output", str(out)]) == 0
        spheres = json.loads(out.read_text())["minimal_spheres"]
        assert [(s["index"], s["nullity"]) for s in spheres] == [(1, 3)]

    def test_k_max_is_not_an_option(self, tmp_path, round_profile_path, capsys):
        # The Morse data are counted to the first positive eigenvalue, so
        # there is no degree cap to set.
        assert cli.main(["conformal-analyze", "--input", round_profile_path,
                         "--k-max", "4"]) == 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k_max": 4}))
        assert cli.main(["conformal-analyze", "--input", round_profile_path,
                         "--config", str(cfg_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_index_beyond_degree_four(self, tmp_path):
        # The equator of this bump has Q r^2 = 31.6: degrees 0..5 are
        # negative, index 1 + 3 + ... + 11 = 36.  A count capped at degree
        # 4 reported 25.
        path = str(tmp_path / "wide.json")
        save_profile(cf.AxisymProfile.from_function(
            lambda t: 1.0 + 0.5 * np.exp(-(((t - np.pi / 2) / 0.3) ** 2)), 801), path)
        out = tmp_path / "ana.json"
        assert cli.main(["conformal-analyze", "--input", path, "--output", str(out)]) == 0
        spheres = json.loads(out.read_text())["minimal_spheres"]
        assert [(s["index"], s["nullity"]) for s in spheres] == [(36, 0)]

    @pytest.mark.parametrize("height, center, width, n", [
        pytest.param(0.3, 0.8, 0.1, 201, id="h0.3-c0.8-w0.1-n201"),
        pytest.param(1.0, 1.4, 0.05, 201, id="h1-c1.4-w0.05-n201"),
        pytest.param(0.3, 1.4, 0.05, 101, id="h0.3-c1.4-w0.05-n101"),
    ])
    def test_narrow_bump_spheres_are_critical(self, tmp_path, height, center, width, n):
        # Narrow bumps bend the area sharply, and the last two put a sphere
        # 0.0012 rad from a neighbour near pi/2: every sphere that
        # minimal_coordinate_spheres finds is critical.
        path = str(tmp_path / "narrow.json")
        save_profile(cf.AxisymProfile.from_function(
            lambda t: 1.0 + height * np.exp(-(((t - center) / width) ** 2)), n), path)
        out = tmp_path / "ana.json"
        assert cli.main(["conformal-analyze", "--input", path, "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["minimal_spheres"]) == 3

    def test_tiny_constant_profile_is_round(self, tmp_path):
        # u = 1e-45 gives areas near 1e-179: the vertex of the area parabola
        # must not square its curvature, which underflows to 0.
        reports = {}
        for value in (1e-45, 1.0):
            path = write_constant_profile(tmp_path / f"{value}.json", value, 41)
            out = tmp_path / f"{value}-ana.json"
            assert cli.main(["conformal-analyze", "--input", path, "--output", str(out)]) == 0
            reports[value] = json.loads(out.read_text())
        tiny = reports[1e-45]
        assert [(s["index"], s["nullity"]) for s in tiny["minimal_spheres"]] == [(1, 3)]
        assert tiny["normalized_width_bound"] == pytest.approx(
            reports[1.0]["normalized_width_bound"], rel=1e-12, abs=0.0)


def write_constant_profile(path, value, n):
    path.write_text(json.dumps({"n": n, "u": [value] * n}))
    return str(path)


class TestProfileInput:
    @pytest.mark.parametrize("value", [1e52, 1e-80])
    @pytest.mark.parametrize(
        "command, flag", [("conformal-analyze", "--input"), ("yamabe-run", "--profile")]
    )
    def test_profile_outside_float_range_rejected(self, tmp_path, capsys, value,
                                                  command, flag):
        path = write_constant_profile(tmp_path / "p.json", value, 11)
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, flag, path, "--output", str(out)])
        assert code == 1
        assert_only_error_line(capsys, flag)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag", [("conformal-analyze", "--input"), ("yamabe-run", "--profile")]
    )
    def test_node_cap(self, tmp_path, capsys, command, flag):
        path = write_constant_profile(tmp_path / "p.json", 1.0, cf.MAX_PROFILE_NODES + 1)
        assert cli.main([command, flag, path, "--output", str(tmp_path / "o")]) == 1
        assert_only_error_line(capsys, flag)

    @pytest.mark.parametrize("declared", [11.9, 11.0, "11", True, None, 10])
    @pytest.mark.parametrize(
        "command, flag", [("conformal-analyze", "--input"), ("yamabe-run", "--profile")]
    )
    def test_sample_count_must_be_the_integer_n(self, tmp_path, capsys, declared,
                                                 command, flag):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": declared, "u": [1.0] * 11}))
        out = tmp_path / "out.json"
        assert cli.main([command, flag, str(path), "--output", str(out)]) == 1
        assert_only_error_line(capsys, flag)
        assert not out.exists()

    @pytest.mark.parametrize("u", [{"a": 1}, "abc", [1.0] * 10 + ["1.0"], [True] * 11])
    @pytest.mark.parametrize(
        "command, flag", [("conformal-analyze", "--input"), ("yamabe-run", "--profile")]
    )
    def test_samples_must_be_numbers(self, tmp_path, capsys, u, command, flag):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 11, "u": u}))
        out = tmp_path / "out.json"
        assert cli.main([command, flag, str(path), "--output", str(out)]) == 1
        assert_only_error_line(capsys, flag)
        assert not out.exists()

    @pytest.mark.parametrize("content", ['{"n": 3, "u": [1.0, 1.0, 1.0]}',
                                         '{"n": 11, "u": [1.0, NaN' + ', 1.0' * 9 + ']}'])
    @pytest.mark.parametrize(
        "command, flag", [("conformal-analyze", "--input"), ("yamabe-run", "--profile")]
    )
    def test_invalid_grid_names_file_and_flag(self, tmp_path, capsys, content,
                                              command, flag):
        path = tmp_path / "p.json"
        path.write_text(content)
        out = tmp_path / "out.json"
        assert cli.main([command, flag, str(path), "--output", str(out)]) == 1
        assert_only_error_line(capsys, f"{flag}: profile file {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("payload", [{"u": [1.0] * 11}, {"n": 11}, [1.0] * 11])
    @pytest.mark.parametrize(
        "command, flag", [("conformal-analyze", "--input"), ("yamabe-run", "--profile")]
    )
    def test_profile_needs_n_and_u(self, tmp_path, capsys, payload, command, flag):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(cf.ProfileError, match="must contain 'n' and 'u'") as refused:
            cf.load_profile(str(path))
        assert f"profile file {path} " in str(refused.value)
        out = tmp_path / "out.json"
        assert cli.main([command, flag, str(path), "--output", str(out)]) == 1
        assert_only_error_line(capsys, f"{flag}: profile file {path} must contain")
        assert not out.exists()

    def test_node_cap_admits_cap(self, tmp_path):
        path = write_constant_profile(tmp_path / "p.json", 1.0, cf.MAX_PROFILE_NODES)
        assert cf.load_profile(path).n == cf.MAX_PROFILE_NODES


class TestYamabeRun:
    def test_round_profile_converges(self, tmp_path, round_profile_path, capsys):
        out = str(tmp_path / "flow.json")
        code = cli.main(["yamabe-run", "--profile", round_profile_path,
                         "--t-end", "1", "--output", out])
        assert code == 0
        data = json.loads(open(out).read())
        assert data["format"] == "widthlab-report/1"
        assert data["status"] == "converged"
        assert data["config"]["t_end"] == 1.0
        assert "converged" in capsys.readouterr().out

    def test_reports_tight_and_latitude_products(self, tmp_path, round_profile_path,
                                                 capsys):
        out = str(tmp_path / "flow.json")
        code = cli.main(["yamabe-run", "--profile", round_profile_path,
                         "--t-end", "0.01", "--output", out])
        assert code == 0
        block = json.loads(open(out).read())["theorem1"]
        stdout = capsys.readouterr().out
        assert f"width * r {block['product_at_max']:.5f}" in stdout
        assert f"(latitude {block['latitude_product_at_max']:.5f}" in stdout

    def test_trace_csv_with_sidecar(self, tmp_path, round_profile_path):
        out = str(tmp_path / "flow.json")
        trace = str(tmp_path / "trace.csv")
        code = cli.main(["yamabe-run", "--profile", round_profile_path,
                         "--t-end", "0.001", "--output", out, "--trace-csv", trace])
        assert code == 0
        lines = open(trace).read().strip().split("\n")
        assert lines[0].startswith("t,")
        meta = json.loads(open(trace + ".meta.json").read())
        assert meta["config"]["command"] == "yamabe-run"

    def test_nonfinite_volume_is_numerical_failure(self, tmp_path, capsys):
        # On u ~ 1e-40 one step of 1e-3 moves u by ~1e117, so u^6 overflows.
        path = str(tmp_path / "thin.json")
        save_profile(
            cf.AxisymProfile.from_function(lambda t: 1e-40 * (1.0 + 0.3 * np.cos(t)), 11),
            path,
        )
        out = str(tmp_path / "flow.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["yamabe-run", "--profile", path, "--t-end", "0.01",
                             "--dt", "1e-3", "--output", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "volume overflowed" in err
        assert not (tmp_path / "flow.json").exists()
        # The one line is all of stderr: numpy warns of nothing before it.
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_irregular_pole_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # With the stabilizer halved the pole rows go unstable at dt = 4e-5;
        # the flow broke the profile, so this is no input error.
        monkeypatch.setattr(yamabe, "STABILIZER", 0.75)
        path = str(tmp_path / "bump.json")
        save_profile(
            cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(t), 401), path
        )
        out = str(tmp_path / "flow.json")
        code = cli.main(["yamabe-run", "--profile", path, "--t-end", "0.03",
                         "--dt", "4e-5", "--output", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "pole regularity" in err
        assert not (tmp_path / "flow.json").exists()

    def test_node_step_cap_exits_one(self, tmp_path, capsys, monkeypatch):
        def stepped(*args):
            raise AssertionError("a flow step ran")

        monkeypatch.setattr(yamabe, "_advance", stepped)
        path = write_constant_profile(tmp_path / "p.json", 1.0, cf.MAX_PROFILE_NODES)
        out = tmp_path / "flow.json"
        code = cli.main(["yamabe-run", "--profile", path, "--t-end", "20049",
                         "--dt", "1", "--output", str(out)])
        assert code == 1
        assert_only_error_line(capsys, "node-steps")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--t-end", "inf"], ["--dt", "1e-300"], ["--dt", "nan"]]
    )
    def test_bad_time_input_exits_one(self, tmp_path, round_profile_path, capsys,
                                      flags):
        out = str(tmp_path / "flow.json")
        code = cli.main(["yamabe-run", "--profile", round_profile_path, *flags,
                         "--output", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_dt_above_t_end_exits_one(self, tmp_path, round_profile_path, capsys):
        out = tmp_path / "flow.json"
        code = cli.main(["yamabe-run", "--profile", round_profile_path,
                         "--t-end", "1e-4", "--dt", "1e-3", "--output", str(out)])
        assert code == 1
        assert_only_error_line(capsys, "t_end=0.0001, dt=0.001")
        assert not out.exists()


class TestEquidistCommands:
    def test_check_member(self, tmp_path, member_instance_path):
        out = str(tmp_path / "cert.json")
        code = cli.main(["equidist-check", "--input", member_instance_path,
                         "--output", out])
        assert code == 0
        data = json.loads(open(out).read())
        assert data["verdict"] == "member"
        assert data["separating_f"] is None
        assert data["config"]["tol"] == 1e-9

    def test_check_non_member(self, tmp_path, nonmember_instance_path):
        out = str(tmp_path / "cert.json")
        code = cli.main(["equidist-check", "--input", nonmember_instance_path,
                         "--output", out])
        assert code == 0
        data = json.loads(open(out).read())
        assert data["verdict"] == "non_member"
        assert len(data["separating_f"]) == 2

    def test_sequence_trace(self, tmp_path, member_instance_path):
        out = str(tmp_path / "trace.csv")
        code = cli.main(["equidist-sequence", "--input", member_instance_path,
                         "--k-max", "200", "--output", out])
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "k,error"
        assert len(lines) == 201

    def test_sequence_weighted(self, tmp_path):
        path = str(tmp_path / "structured.json")
        base = (eq.FiniteMeasure(np.array([2.0, 0.0])),
                eq.FiniteMeasure(np.array([0.0, 1.0])))
        save_instance(
            path,
            eq.FiniteMeasure(np.array([2.0, 1.0])),
            eq.MeasureFamily(
                members=base,
                structure=eq.FamilyStructure(base=base, mass_bounds=(1.0, 2.0)),
            ),
        )
        out = str(tmp_path / "trace.csv")
        code = cli.main(["equidist-sequence", "--input", path, "--weighted",
                         "--k-max", "100", "--output", out])
        assert code == 0
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["config"]["weighted"] is True

    @pytest.mark.parametrize("k_max", [0, eq.MAX_SEQUENCE_STEPS + 1])
    def test_sequence_step_cap(self, tmp_path, member_instance_path, capsys, k_max):
        out = str(tmp_path / "trace.csv")
        code = cli.main(["equidist-sequence", "--input", member_instance_path,
                         "--k-max", str(k_max), "--output", out])
        assert code == 1
        assert_only_error_line(capsys, "--k-max")

    @pytest.mark.parametrize("command", ["equidist-check", "equidist-sequence"])
    @pytest.mark.parametrize(
        "payload", [[1.0, 2.0], {"n": True, "mu0": [1.0], "Y": [[1.0]]}]
    )
    def test_malformed_instance_exits_one(self, tmp_path, capsys, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main([command, "--input", str(path), "--output", str(out)]) == 1
        assert_only_error_line(capsys, str(path))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["equidist-check", "equidist-sequence"])
    def test_infinite_mass_instance_exits_one(self, tmp_path, capsys, command):
        # Each weight is finite, but mu0's mass overflows: normalizing it
        # gave the target (0, 0) and wrong errors, after a numpy warning
        # (which the suite turns into an error).
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"n": 2, "mu0": [1e308, 1e308], "Y": [[1e308, 0.0], [0.0, 1e308]]}
        ))
        out = tmp_path / "out"
        assert cli.main([command, "--input", str(path), "--output", str(out)]) == 1
        assert_only_error_line(capsys, f"{path}: measure weights must have a finite total mass")
        assert not out.exists()

    def test_image_scale_above_cap_exits_one(self, tmp_path, capsys, monkeypatch):
        # Eighth-dyadic members, a target off their cone and one subnormal
        # member weight, which would make the integer image's scale 2**1074:
        # refused before any elimination or pivot.
        rows = np.random.default_rng(1074).integers(1, 9, size=(32, 32)) / 8.0
        rows[:, -1] = 0.0
        rows[0, 0] = 5e-324
        path = str(tmp_path / "subnormal.json")
        save_instance(path, eq.FiniteMeasure(np.ones(32)),
                      eq.MeasureFamily(members=tuple(map(eq.FiniteMeasure, rows))))
        for name in ("_eliminate", "_Simplex"):
            monkeypatch.setattr(eq, name, None)
        out = tmp_path / "cert.json"
        assert cli.main(["equidist-check", "--input", path, "--output", str(out)]) == 1
        assert_only_error_line(capsys, "weights times 2**1074 to make them integers, "
                                       "above the cap of 2**128")
        assert not out.exists()

    def test_sequence_rejects_non_member(self, tmp_path, nonmember_instance_path,
                                         capsys):
        out = str(tmp_path / "trace.csv")
        code = cli.main(["equidist-sequence", "--input", nonmember_instance_path,
                         "--k-max", "10", "--output", out])
        assert code == 1
        assert "cone_hull_membership" in capsys.readouterr().err


class TestRoundcheck:
    def test_all_items_pass(self, tmp_path, capsys):
        out = str(tmp_path / "rc.json")
        code = cli.main(["roundcheck", "--output", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 4 and "FAIL" not in printed
        data = json.loads(open(out).read())
        assert data["passed"] is True
        assert [i["name"] for i in data["items"]] == [
            "berger-round-width",
            "conformal-round-geometry",
            "yamabe-round-stationary",
            "equidist-trivial-instances",
        ]
        assert data["items"] == [dataclasses.asdict(i) for i in cli.roundcheck().items]

    def test_report_object(self):
        report = cli.roundcheck()
        assert report.passed
        assert len(report.items) == 4

    def test_failed_item_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def broken():
            raise RuntimeError("forced failure")

        monkeypatch.setattr(cli, "_yamabe_item", broken)
        out = str(tmp_path / "rc.json")
        assert cli.main(["roundcheck", "--output", out]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and "forced failure" in captured.out
        assert "roundcheck self-test failed" in captured.err
        data = json.loads(open(out).read())
        assert data["passed"] is False
        assert [i["passed"] for i in data["items"]] == [True, True, False, True]


class TestNoQuadratureOnCommandPaths:
    @pytest.mark.parametrize("command", ["conformal-analyze", "roundcheck"])
    def test_runs_without_adaptive_quadrature(self, tmp_path, bump_profile_path,
                                              monkeypatch, capsys, command):
        def forbidden(*args, **kwargs):
            raise RuntimeError("adaptive quadrature reached")

        monkeypatch.setattr(cf, "integrate_adaptive", forbidden)
        args = [command, "--output", str(tmp_path / "out.json")]
        if command == "conformal-analyze":
            args += ["--input", bump_profile_path]
        assert cli.main(args) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, round_profile_path):
        out = str(tmp_path / "flow.json")
        assert cli.main(["yamabe-run", "--profile", round_profile_path,
                         "--t-end", "0.002", "--output", out]) == 0
        first = open(out, "rb").read()
        assert cli.main(["yamabe-run", "--profile", round_profile_path,
                         "--t-end", "0.002", "--output", out]) == 0
        assert open(out, "rb").read() == first

    def test_scan_byte_identical(self, tmp_path):
        out = str(tmp_path / "s.csv")
        args = ["berger-scan", "--rho-min", "0.5", "--rho-max", "2.0", "--n", "5",
                "--output", out]
        assert cli.main(args) == 0
        first = open(out, "rb").read()
        first_meta = open(out + ".meta.json", "rb").read()
        assert cli.main(args) == 0
        assert open(out, "rb").read() == first
        assert open(out + ".meta.json", "rb").read() == first_meta
