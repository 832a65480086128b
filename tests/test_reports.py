"""Every report writer, frozen byte for byte.

``write_reports`` runs each subcommand once on small deterministic inputs,
with relative paths so that the echoed config is the same in any directory.
The expected files under ``tests/golden/`` are its output.  A change that
alters a report on purpose re-freezes them (write the output of
``write_reports`` over the directory) and records the change in CHANGES.md.
"""

import contextlib
import io
import os
import pathlib

import numpy as np
import pytest

import widthlab.cli as cli
import widthlab.conformal as cf
import widthlab.equidist as eq

from widthlab._fsio import atomic_write_text, json_text

from oracles import save_instance, save_profile

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = [
    ["berger-scan", "--rho-min", "0.5", "--rho-max", "2", "--n", "3",
     "--output", "scan.csv"],
    ["berger-certify", "--h", "0.01", "--grid-n", "3", "--output", "certify.json"],
    ["conformal-analyze", "--input", "bump.json", "--output", "analyze.json"],
    ["conformal-analyze", "--input", "double_bump.json", "--output", "analyze_three.json"],
    ["yamabe-run", "--profile", "bump.json", "--t-end", "0.002", "--dt", "1e-4",
     "--sample-every", "5", "--trace-csv", "trace.csv", "--output", "run.json"],
    ["equidist-check", "--input", "member.json", "--output", "member_check.json"],
    ["equidist-check", "--input", "nonmember.json", "--output", "nonmember_check.json"],
    ["equidist-sequence", "--input", "member.json", "--k-max", "6",
     "--output", "sequence.csv"],
    ["roundcheck", "--output", "roundcheck.json"],
]
INPUTS = {"bump.json", "double_bump.json", "member.json", "nonmember.json"}


def write_reports(directory) -> None:
    """Write the inputs and run every command of ``COMMANDS`` in ``directory``."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        save_profile(
            cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(t), 41),
            "bump.json",
        )
        # Three spheres: at 0.72, pi/2 (index 0) and 2.42.
        save_profile(
            cf.AxisymProfile.from_function(lambda t: 1.0 + 0.3 * np.cos(2 * t), 41),
            "double_bump.json",
        )
        unit = (eq.FiniteMeasure(np.array([1.0, 0.0])),
                eq.FiniteMeasure(np.array([0.0, 1.0])))
        save_instance("member.json", eq.FiniteMeasure(np.array([1.0, 2.0])),
                      eq.MeasureFamily(members=unit))
        save_instance("nonmember.json", eq.FiniteMeasure(np.array([1.0, 2.0])),
                      eq.MeasureFamily(members=(eq.FiniteMeasure(np.array([1.0, 1.0])),)))
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in COMMANDS:
                assert cli.main(argv) == 0, argv
    finally:
        os.chdir(here)


def test_every_report_matches_its_frozen_bytes(tmp_path):
    write_reports(tmp_path)
    written = {p.name for p in tmp_path.iterdir()} - INPUTS
    assert written == {p.name for p in GOLDEN.iterdir()}
    for name in sorted(written):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("scalar", [np.int64(1), np.float32(0.5), np.bool_(True)])
def test_numpy_scalar_is_not_encoded(scalar):
    # Every record the package writes holds Python scalars; a numpy scalar
    # in a report fails loudly instead of being converted.
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_text({"value": scalar})


def test_failed_atomic_write_leaves_no_temp_file(tmp_path):
    # The rename onto a directory fails after the temp file is written; the
    # temp file is removed and the target is left as it was.
    target = tmp_path / "report.json"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(str(target), "{}\n")
    assert target.is_dir() and list(target.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
