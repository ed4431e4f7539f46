"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import logging
import math
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import linegeo
from linegeo import (
    CRITICAL_RADIUS,
    MIN_ORBIT_RATIO,
    analysis,
    blowup_time,
    checks,
    geodesics,
    turning_points,
)
from linegeo import cli
from linegeo.cli import main
from oracles import (
    invariance_checks,
    normalization_check,
    orbit_checks,
    sampling_loops,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- normalize ----------------------------------------------------------------


def test_normalize_example(capsys):
    code, out, _ = run_cli(
        capsys, "normalize", "--beta1", "1", "0", "--beta2", "0", "2", "--beta3", "3", "0"
    )
    assert code == 0
    cert = json.loads(out)
    assert abs(cert["result"]["c"] - math.sqrt(20.0)) < 1e-12
    assert cert["intermediate_gamma"] == [2.0, 0.0]
    assert cert["intermediate_c"] == 2.0


def test_normalize_identity_case(capsys):
    code, out, _ = run_cli(
        capsys, "normalize", "--beta1", "0", "0", "--beta2", "0", "2", "--beta3", "0", "0"
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["result"]["c"] == 2.0
    assert cert["rotation"]["alpha2"] == [1.0, 0.0]
    assert cert["rotation"]["alpha3"] == [0.0, 0.0]
    assert cert["translation"]["alpha1"] == [0.0, 0.0]


def test_normalize_output_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "normalize", "--beta1", "1", "1", "--beta2", "0", "0", "--beta3",
        "0", "0", "--output", str(path),
    )
    assert code == 0 and out == ""
    cert = json.loads(path.read_text())
    assert abs(cert["result"]["c"] - math.sqrt(2.0)) < 1e-12  # c = sqrt(4|gamma|^2), gamma=(1+i)/2


@pytest.mark.parametrize(
    "beta1, beta2", [(("1e155", "0"), ("0", "1")), (("0", "0"), ("0", "1e155"))]
)
def test_normalize_a_section_whose_c_squared_overflows(capsys, beta1, beta2):
    code, out, err = run_cli(
        capsys, "normalize", "--beta1", *beta1, "--beta2", *beta2, "--beta3", "0", "0"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["c"] == 1e155


def test_normalize_a_standard_form_beyond_doubles_exit_3(capsys):
    # c = sqrt(1e616 + 4 (1e308)^2) exceeds the largest double
    code, out, err = run_cli(
        capsys, "normalize", "--beta1", "1e308", "0", "--beta2", "0", "1", "--beta3", "1e308", "0"
    )
    assert (code, out) == (3, "")
    assert err.startswith("linegeo: the standard form does not fit in doubles")


def test_negative_numbers_in_exponent_form_are_values(capsys):
    # the CSV writes small values as -1.0000000000000001e-05; argparse on
    # some supported Pythons took that form for an option
    for exponent_form, plain in [
        (["geodesic", "--xi", "0.1", "0", "--xidot", "-1e-3", "0", "--t-max", "0.1"],
         ["geodesic", "--xi", "0.1", "0", "--xidot", "-0.001", "0", "--t-max", "0.1"]),
        (["analyze", "turning-points", "--I1", "20", "--I2", "-1e-0"],
         ["analyze", "turning-points", "--I1", "20", "--I2", "-1"]),
    ]:
        got = run_cli(capsys, *exponent_form)
        assert got[0] == 0
        assert got == run_cli(capsys, *plain)
    # a section too small to square in doubles: c^2 + 4|gamma|^2 underflows to 0
    code, out, err = run_cli(
        capsys, "normalize", "--beta1", "0", "0", "--beta2", "0", "0",
        "--beta3", "-1.1233609679946154e-268", "0",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["c"] == 1.1233609679946154e-268
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "turning-points", "--I1", "20", "--I2", "-1e-0", "--bogus"])
    assert exc.value.code == 2


def test_malformed_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--beta1", "oops", "0", "--beta2", "0", "0", "--beta3", "0", "0"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # an unknown one is named in argparse's usage error
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert "linegeo: error: argument command: invalid choice: 'bogus'" in capsys.readouterr().err


def test_one_parser_serves_every_subcommand():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    for argv, handler in [
        (["check"], cli.cmd_check),
        (["geodesic", "--xi", "0", "0", "--xidot", "1", "0"], cli.cmd_geodesic),
        (["analyze", "blowup", "--I1", "1"], cli.cmd_analyze),
    ]:
        assert parser.parse_args(argv).handler is handler


# -- JSON layout ----------------------------------------------------------------


def _layout(text):
    """The keys, in order, and the value types of a JSON text, not its
    digits: an object as a list of (key, layout) pairs, an array as a
    list of layouts."""

    def layout(value):
        if isinstance(value, tuple):
            return (value[0], layout(value[1]))
        if isinstance(value, list):
            return [layout(item) for item in value]
        return type(value).__name__

    return layout(json.loads(text, object_pairs_hook=list))


COMPLEX = ["float", "float"]  # [re, im]
CHECK_RESULT = [("name", "str"), ("passed", "bool"), ("threshold", "float"),
                ("observed", "float"), ("margin", "float"), ("detail", "str")]


@pytest.mark.parametrize("argv, layout", [
    # the certificate's translation, rotation and standard sphere are objects
    (["normalize", "--beta1", "1", "0", "--beta2", "0", "-2", "--beta3", "3", "0"], [
        ("translation", [("alpha1", COMPLEX), ("a1", "float")]),
        ("rotation", [("alpha2", COMPLEX), ("alpha3", COMPLEX)]),
        ("result", [("c", "float")]),
        ("intermediate_gamma", COMPLEX),
        ("intermediate_c", "float"),
    ]),
    (["analyze", "turning-points", "--I1", "20", "--I2", "1"],
     [("R_min", "float"), ("R_max", "float"), ("ratio", "float")]),
    (["check"], [
        ("config", [("samples", "int"), ("trajectories", "int"), ("tol", "float"),
                    ("t_span", "float"), ("seed", "int")]),
        ("all_passed", "bool"),
        ("checks", [CHECK_RESULT] * 6),
    ]),
], ids=["normalize", "turning-points", "check"])
def test_value_types_are_written_by_their_fields(capsys, argv, layout):
    assert _layout(run_cli(capsys, *argv)[1]) == layout


def test_the_encoder_refuses_what_is_not_a_value_type():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        json.dumps({"a": {1.0}}, default=cli._fields)


# -- geodesic -----------------------------------------------------------------


@pytest.mark.parametrize("xidot, bound", [(("0.6", "0.8"), 1e-12), (("1", "0"), 0.0)])
def test_geodesic_radial_drift_of_i2_is_measured_against_sqrt_i1(capsys, xidot, bound):
    # I2 starts at exactly 0; along an oblique ray it stays at rounding level,
    # along the real axis it stays exactly 0
    code, out, _ = run_cli(capsys, "geodesic", "--xi", "0", "0", "--xidot", *xidot,
                           "--output", os.devnull)
    assert code == 0
    summary = json.loads(out)
    assert summary["I2"] == 0.0
    assert summary["max_drift_I2"] <= bound


def test_geodesic_radial_summary(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "geodesic", "--xi", "0", "0", "--xidot", "1", "0",
        "--tol", "1e-6", "--output", str(csv_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["termination"] == "equator_reached"
    assert abs(summary["t_hit"] - 0.599070) < 1e-4
    assert abs(summary["I1"] - 1.0) < 1e-14
    assert summary["I2"] == 0.0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,R,theta,xi_re,xi_im,xidot_re,xidot_im,I1,I2"
    assert len(lines) == summary["n_samples"] + 1


def test_geodesic_trial_stage_exactly_on_equator(tmp_path, capsys):
    # stage 2 of the first step lands exactly on xi = 1 + 0j; the stepper
    # must reject that step and go on to the equator, not raise
    code, out, _ = run_cli(
        capsys, "geodesic", "--xi", "0.9999999850988388", "0",
        "--xidot", "2.832912194916926e-05", "0", "--t-max", "1",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["termination"] == "equator_reached"
    assert summary["rejected_steps"] >= 1


@pytest.mark.parametrize("argv", [
    ["--xi", "0", "0", "--xidot", "1", "0", "--tol", "0.5"],
    ["--polar", "0.5", "0", "0.5", "1", "--tol", "0.1", "--t-max", "20"],
])
def test_geodesic_at_a_loose_tol_keeps_to_its_side_of_the_equator(tmp_path, capsys, argv):
    # a proposed point past the cutoff band across the equator is rejected,
    # so these runs neither overflow beyond it (the first) nor carry their
    # samples over (the second, to 1 - R^2 = -43.6 without the rule)
    csv_path = tmp_path / "loose.csv"
    code, _, err = run_cli(capsys, "geodesic", *argv, "--output", str(csv_path))
    assert code == 0, err
    radii = [float(row.split(",")[1]) for row in csv_path.read_text().splitlines()[1:]]
    assert min(1.0 - r * r for r in radii) >= -geodesics.EQUATOR_CUTOFF


@pytest.mark.parametrize("tol", ["1", "1e300"])
def test_check_at_a_loose_tol_reports_its_drift(tol):
    # the suite's thresholds hold for its one plan: an orbit pass at a
    # looser tol fails conservation_drift, with a finite drift to report
    drift, _ = checks._orbit_checks(1, float(tol), checks.T_SPAN, random.Random(2025), 1e-8)
    assert drift.name == "conservation_drift" and not drift.passed
    assert math.isfinite(drift.observed)


def test_geodesic_csv_to_stdout_summary_to_stderr(capsys):
    code, out, err = run_cli(
        capsys, "geodesic", "--xi", "0.2", "0", "--xidot", "0", "0.5", "--t-max", "1"
    )
    assert code == 0
    assert out.startswith("t,R,theta,")
    summary = json.loads(err)
    assert summary["termination"] == "time_limit"


def test_geodesic_output_file_matches_stdout_bytes(tmp_path, capsys):
    args = ["geodesic", "--integrals", "0.6", "0.16", "0.5", "--t-max", "10", "--tol", "1e-10"]
    path = tmp_path / "t.csv"
    # "-" for both is no clash: the summary then goes to stderr
    code, csv_text, summary_to_stderr = run_cli(capsys, *args, "--output", "-", "--summary", "-")
    assert code == 0
    code, summary_to_stdout, _ = run_cli(capsys, *args, "--output", str(path))
    assert code == 0
    assert path.read_bytes() == csv_text.encode()
    assert summary_to_stdout == summary_to_stderr
    assert len(csv_text.splitlines()) == json.loads(summary_to_stdout)["n_samples"] + 1


def test_geodesic_summary_reports_max_steps(tmp_path, capsys, monkeypatch):
    # the first 50 step attempts from this start are all accepted
    monkeypatch.setattr(geodesics, "MAX_STEPS", 50)
    code, out, _ = run_cli(
        capsys, "geodesic", "--xi", "0.6", "0", "--xidot", "0", "0.1",
        "--t-max", "100", "--tol", "1e-10", "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["termination"] == "max_steps"
    assert summary["n_samples"] == 51
    assert summary["rejected_steps"] == 0
    assert summary["rhs_evals"] == 1 + 12 * 50
    assert summary["t_hit"] is None


def test_geodesic_summary_reports_step_cost(tmp_path, capsys):
    # the two cost keys are appended to the existing ones; every step
    # attempt costs 12 right-hand-side evaluations, after one at the start
    code, out, _ = run_cli(
        capsys, "geodesic", "--xi", "0.3", "0", "--xidot", "0.2", "0.1",
        "--t-max", "10", "--tol", "1e-10", "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0
    summary = json.loads(out)
    assert list(summary) == [
        "termination", "t_hit", "t_final", "I1", "I2", "max_drift_I1", "max_drift_I2",
        "n_samples", "observed_R_min", "observed_R_max", "rejected_steps", "rhs_evals",
        "chart",
    ]
    assert summary["chart"] == "xi"
    assert summary["rejected_steps"] > 0
    attempts = summary["n_samples"] - 1 + summary["rejected_steps"]
    assert summary["rhs_evals"] == 1 + 12 * attempts


def test_geodesic_oscillation_range(tmp_path, capsys):
    ratio = 1.5 * MIN_ORBIT_RATIO
    i2 = math.sqrt(1.0 / ratio)
    tp = turning_points(1.0, i2)
    code, out, _ = run_cli(
        capsys, "geodesic", "--integrals", "1.0", str(i2), str(tp.R_min),
        "--tol", "1e-10", "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["observed_R_min"] - tp.R_min) < 1e-4
    assert abs(summary["observed_R_max"] - tp.R_max) < 1e-4


def test_geodesic_constant_trajectory(capsys):
    code, out, err = run_cli(
        capsys, "geodesic", "--xi", "0.3", "0.1", "--xidot", "0", "0", "--t-max", "2"
    )
    assert code == 0
    assert json.loads(err)["termination"] == "time_limit"


def test_geodesic_polar_input(capsys):
    code, out, err = run_cli(
        capsys, "geodesic", "--polar", "0.4", "0", "0.2", "1.2", "--t-max", "1"
    )
    assert code == 0
    summary = json.loads(err)
    assert abs(summary["observed_R_min"] - 0.4) < 0.05


@pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0, 1.0 + 1e-12])
def test_turning_points_radii_launch_geodesics(capsys, scale):
    # at the edges of the collapse band around 6 sqrt(3) both commands
    # accept the integrals, and every reported radius launches an orbit
    k = repr(scale * MIN_ORBIT_RATIO)
    code, out, _ = run_cli(capsys, "analyze", "turning-points", "--I1", k, "--I2", "1")
    assert code == 0
    tp = json.loads(out)
    for radius in (tp["R_min"], tp["R_max"]):
        code, _, err = run_cli(
            capsys, "geodesic", "--integrals", k, "1", repr(radius), "--t-max", "1",
            "--output", os.devnull,
        )
        assert code == 0, err


def test_geodesic_inadmissible_integrals_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--integrals", "10.0", "1.0", "0.5"
    )
    assert code == 3
    assert "no orbit" in err


def test_geodesic_conflicting_initial_conditions_exit_2(tmp_path, capsys):
    # a usage error exits through argparse, as a malformed flag does: the
    # launch modes are its exclusive group, under the geodesic usage line,
    # a flag that only goes with one mode is refused with any other, and
    # a summary written over the CSV is refused before any work
    xi, polar = ["--xi", "0.3", "0", "--xidot", "0", "1"], ["--polar", "0.5", "0", "0", "1"]
    csv_path = str(tmp_path / "orbit.csv")
    same = "--summary names the --output file"
    for argv, prog, message in [
        ([*xi, *polar], "linegeo geodesic", "argument --polar: not allowed with argument --xi"),
        ([], "linegeo geodesic", "one of the arguments --xi --polar --integrals is required"),
        (["--c", "1", *xi], "linegeo", "unrecognized arguments: --c 1"),
        (["--xi", "0", "0"], "linegeo", "--xi requires --xidot"),
        (["--xidot", "1", "0", *polar], "linegeo", "--xidot requires --xi"),
        ([*xi, "--inward", "--theta0", "2"], "linegeo", "--theta0 requires --integrals"),
        ([*polar, "--theta0", "1"], "linegeo", "--theta0 requires --integrals"),
        ([*xi, "--inward"], "linegeo", "--inward requires --integrals"),
        ([*polar, "--inward"], "linegeo", "--inward requires --integrals"),
        ([*xi, "--output", csv_path, "--summary", csv_path], "linegeo", same),
        ([*xi, "--output", csv_path, "--summary", os.path.join(tmp_path, ".", "orbit.csv")],
         "linegeo", same),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["geodesic", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: {prog} ")
        assert captured.err.endswith(f"\n{prog}: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_geodesic_outputs_on_one_regular_file_exit_2_and_a_device_twice_is_written(
    tmp_path, capsys
):
    # the refusal is of one regular file behind both flags, by any names:
    # two hard links to it are refused and left as they were, while
    # /dev/null given twice discards both outputs
    xi = ["geodesic", "--xi", "0", "0", "--xidot", "1", "0"]
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text("kept\n")
    os.link(a, b)
    with pytest.raises(SystemExit) as exc:
        main([*xi, "--output", str(a), "--summary", str(b)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\nlinegeo: error: --summary names the --output file\n")
    assert a.read_text() == b.read_text() == "kept\n" and os.path.samefile(a, b)
    assert run_cli(capsys, *xi, "--output", os.devnull, "--summary", os.devnull) == (0, "", "")


@pytest.mark.parametrize("argv, kind", [
    (["normalize", "--beta1", "1", "0", "--beta2", "0", "2", "--beta3", "3", "0",
      "--output", "{}"], "missing"),
    (["geodesic", "--xi", "0", "0", "--xidot", "1", "0", "--output", "{}"], "missing"),
    (["geodesic", "--xi", "0", "0", "--xidot", "1", "0", "--output", "{csv}",
      "--summary", "{}"], "missing"),
    (["analyze", "blowup", "--I1", "1", "--output", "{}"], "directory"),
    (["analyze", "series-check", "--num", "400", "--r-hi", "0.99", "--output", "{}"], "missing"),
    (["check", "--output", "{}"], "missing"),
])
def test_an_output_path_that_cannot_be_opened_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, kind
):
    # one line naming the path, exit 2, as argparse's own "can't open";
    # main opens every output path before the handler computes, so none
    # reaches the stepper, the push-forward or the series, and geodesic
    # leaves no CSV behind
    from linegeo import line_space

    for owner, name in ((geodesics, "geod_integrate"), (line_space, "push_forward"),
                        (analysis, "appell_f1_series")):
        def ran(*args, name=name):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(owner, name, ran)
    path = str(tmp_path / "missing" / "out" if kind == "missing" else tmp_path)
    csv_path = tmp_path / "orbit.csv"
    code, out, err = run_cli(capsys, *[arg.format(path, csv=csv_path) for arg in argv])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert re.fullmatch(rf"linegeo: \[Errno \d+\] .*: '{re.escape(path)}'\n", err)
    assert not csv_path.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "blowup", "--I1", "nan"],
    ["analyze", "turning-points", "--I1", "10", "--I2", "1"],
    ["analyze", "potential", "--r-lo", "1e-200"],
    ["analyze", "series-check", "--r-lo", "0.5", "--r-hi", "0.4"],
    # I1 overflows at the second sample of the run
    ["geodesic", "--integrals", "1.797e308", "1", "7.459778999860975e-155", "--t-max", "1"],
    # with at most 10 anti-diagonals the series at R = 0.9 does not converge
    ["analyze", "series-check", "--r-lo", "0.1", "--r-hi", "0.9", "--num", "2"],
    # c overflows
    ["normalize", "--beta1", "1e308", "0", "--beta2", "0", "1e308", "--beta3", "1e308", "0"],
    ["geodesic", "--xi", "0", "0", "--xidot", "1", "0", "--tol", "0"],
    ["geodesic", "--xi", "0", "0", "--xidot", "1", "0", "--t-max", "nan"],
    # a range that runs up to R close to 1, where the series needs more
    # anti-diagonals than its cap
    ["analyze", "series-check", "--r-lo", "0.9", "--r-hi", "0.999999", "--num", "2"],
])
def test_invalid_input_is_refused_before_the_output_opens(tmp_path, capsys, monkeypatch, argv):
    # each subcommand refuses and computes before it opens an output: no
    # file is created, and one that was already there keeps what it held
    monkeypatch.setattr(analysis, "SERIES_MAX_DIAGONALS", 10)
    created, existing = tmp_path / "created.txt", tmp_path / "existing.txt"
    existing.write_text("kept\n")
    for path in (created, existing):
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out) == (3, "") and err.startswith("linegeo: ")
    assert not created.exists() and existing.read_text() == "kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_csv_that_cannot_be_written_leaves_no_summary(capsys):
    # the CSV is flushed and closed before the summary opens, so the
    # failed write is the only output of the run
    code, out, err = run_cli(capsys, "geodesic", "--xi", "0", "0", "--xidot", "1", "0",
                             "--output", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "linegeo: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_summary_that_cannot_be_written_leaves_no_csv_the_run_created(tmp_path, capsys):
    # the CSV is written and closed before the summary opens; when the
    # summary write then fails, the CSV is removed if this run created it,
    # and a file that was already there keeps the CSV written over it
    argv = ["geodesic", "--xi", "0", "0", "--xidot", "1", "0"]
    created, existing = tmp_path / "created.csv", tmp_path / "existing.csv"
    existing.write_text("kept\n")
    for path in (created, existing):
        code, out, err = run_cli(capsys, *argv, "--output", str(path), "--summary", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "linegeo: [Errno 28] No space left on device\n"
    assert not created.exists()
    assert existing.read_text() == run_cli(capsys, *argv)[1]


def test_a_dangling_symlink_output_is_written_through(tmp_path, capsys):
    # the link is kept, and the file the run writes is its target
    link, target = tmp_path / "link.txt", tmp_path / "target.txt"
    link.symlink_to(target.name)
    code, out, err = run_cli(capsys, "analyze", "blowup", "--I1", "1", "--output", str(link))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and target.read_text() == "0.59907011736779614\n"


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "blowup", "--I1", "-1", "--output", "{}"], 3),
    pytest.param(["geodesic", "--xi", "0", "0", "--xidot", "1", "0", "--output", "{}",
                  "--summary", "/dev/full"], 2,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="needs /dev/full")),
])
def test_a_failed_run_leaves_a_dangling_symlink_output_dangling(
    tmp_path, capsys, argv, expected
):
    # a refusal or a failed write removes the file the run created, which
    # is the link's target, not the link
    link = tmp_path / "link.txt"
    link.symlink_to("target.txt")
    code, out, err = run_cli(capsys, *[arg.format(link) for arg in argv])
    assert (code, out) == (expected, "") and err.startswith("linegeo: ")
    assert link.is_symlink() and os.listdir(tmp_path) == ["link.txt"]


def test_geodesic_integrals_overflowing_along_the_run_exit_3(tmp_path, capsys):
    # a launch at R_min for k = 1.797e308, where U(R_min) is still finite:
    # I1 overflows at the second sample; neither the CSV nor a summary
    # holding Infinity is written
    csv_path, summary_path = tmp_path / "traj.csv", tmp_path / "summary.json"
    code, out, err = run_cli(
        capsys, "geodesic", "--integrals", "1.797e308", "1", "7.459778999860975e-155",
        "--t-max", "1", "--output", str(csv_path), "--summary", str(summary_path),
    )
    assert code == 3 and out == ""
    assert "first integrals must be finite doubles along the run, got I1 = inf" in err
    assert not csv_path.exists() and not summary_path.exists()
    with pytest.raises(ValueError):
        cli._json_text({"max_drift_I1": math.inf})


@pytest.mark.parametrize("xi, xidot, i1", [
    ("0", "1e200", "inf"),
    ("0", "2e154", "inf"),
    # the run is in zeta = 1/xi, and I1 is named in the xi sense
    ("2", "1e160", "-inf"),
])
def test_geodesic_initial_integrals_overflowing_exit_3(capsys, xi, xidot, i1):
    code, out, err = run_cli(capsys, "geodesic", "--xi", xi, "0", "--xidot", xidot, "0")
    assert (code, out) == (3, "")
    assert err == ("linegeo: first integrals must be finite doubles along the run, "
                   f"got I1 = {i1}, I2 = 0.0 at t = 0.0\n")


def test_geodesic_on_equator_exit_3(capsys):
    code, _, err = run_cli(capsys, "geodesic", "--xi", "1", "0", "--xidot", "0", "1")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "--xi", "0", "0", "--xidot", "1", "0", "--t-max", "nan"],
        ["geodesic", "--xi", "0", "0", "--xidot", "1", "0", "--t-max", "inf"],
        ["geodesic", "--xi", "0.2", "0", "--xidot", "0", "1", "--tol", "nan"],
        ["analyze", "blowup", "--I1", "nan"],
        ["analyze", "blowup", "--I1", "inf"],
        ["analyze", "turning-points", "--I1", "nan", "--I2", "1"],
        ["analyze", "turning-points", "--I1", "20", "--I2", "nan"],
        # I1/I2^2 underflows the denominator or overflows the quotient
        ["analyze", "turning-points", "--I1", "1", "--I2", "1e-200"],
        ["analyze", "turning-points", "--I1", "1e300", "--I2", "1e-10"],
        ["geodesic", "--integrals", "1", "1e-200", "0.5"],
        # the initial I1 overflows in the run's chart: |xidot|^2 in xi, and
        # |zetadot|^2 in zeta = 1/xi
        ["geodesic", "--xi", "0.5", "0", "--xidot", "1e300", "0", "--t-max", "1"],
        ["geodesic", "--xi", "1.5", "0", "--xidot", "1e300", "0", "--t-max", "1"],
        # non-finite initial data, in each launch mode
        ["geodesic", "--xi", "nan", "0", "--xidot", "1", "0", "--t-max", "1"],
        ["geodesic", "--xi", "0.5", "0", "--xidot", "0", "inf", "--t-max", "1"],
        ["geodesic", "--polar", "0.5", "0", "inf", "1", "--t-max", "1"],
        ["geodesic", "--integrals", "1", "0", "0.5", "--theta0", "nan", "--t-max", "1"],
        # non-finite data at a lower-hemisphere start is refused before the
        # change to zeta = 1/xi
        ["geodesic", "--xi", "1.5", "inf", "--xidot", "1", "0", "--t-max", "1"],
        ["geodesic", "--xi", "2", "0", "--xidot", "0", "nan", "--t-max", "1"],
        # U(R) is not a finite double: R^2 underflows to 0, or U overflows
        ["analyze", "potential", "--r-lo", "1e-170", "--r-hi", "0.5", "--num", "3"],
        ["analyze", "potential", "--r-lo", "1e-155", "--r-hi", "0.5", "--num", "3"],
        # -inf and -nan are values, not options, in each flag's plain form
        ["analyze", "blowup", "--I1", "-inf"],
        ["normalize", "--beta1", "-inf", "0", "--beta2", "0", "0", "--beta3", "0", "0"],
        ["geodesic", "--xi", "-nan", "0", "--xidot", "1", "0"],
    ],
)
def test_non_finite_inputs_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "must be" in err


def _run_quiet(*argv):
    """``main`` with stdout and stderr caught here, not by a fixture, so
    that hypothesis can call it once per example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run_over_kept(*argv):
    """``_run_quiet`` with ``--output`` a new file that holds "kept\\n":
    the exit code, what the file holds after the run, stdout and stderr."""
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("kept\n")
        code, out, err = _run_quiet(*argv, "--output", path)
        with open(path) as fh:
            return code, fh.read(), out, err
    finally:
        os.remove(path)


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


#: every double, with as many draws again from [-2, 2], where the analyses
#: have their domains, and again from the special values, which st.floats()
#: alone rarely draws in a derandomised run (-inf hardly ever)
ANY_FLOAT = st.floats() | st.floats(-2.0, 2.0) | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1.8e308, -1.8e308]
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ANY_FLOAT, ANY_FLOAT)
def test_analyze_blowup_prints_a_finite_time_or_exits_3(i1, r_start):
    # --name=value; the plain "--I1 -inf" is read as a value too
    code, written, out, err = _run_over_kept(
        "analyze", "blowup", f"--I1={i1!r}", f"--r-start={r_start!r}"
    )
    if code == 0:
        assert math.isfinite(float(written)) and out == err == ""
    else:
        assert (code, written, out) == (3, "kept\n", "") and err.startswith("linegeo: ")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ANY_FLOAT, ANY_FLOAT)
def test_analyze_turning_points_prints_strict_json_or_exits_3(i1, i2):
    code, written, out, err = _run_over_kept(
        "analyze", "turning-points", f"--I1={i1!r}", f"--I2={i2!r}"
    )
    if code == 0:
        fields = json.loads(written, parse_constant=_reject_constant)
        assert set(fields) == {"R_min", "R_max", "ratio"} and out == err == ""
    else:
        assert (code, written, out) == (3, "kept\n", "") and err.startswith("linegeo: ")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[ANY_FLOAT] * 6))
# -inf as the first and the second value of a flag: the 300 draws hold none
@example((-math.inf, 0.0, 0.0, 1.0, 0.0, 0.0))
@example((0.0, 0.0, 0.0, 1.0, 0.0, -math.inf))
def test_normalize_prints_strict_json_or_exits_3(parts):
    # the plain "--betaN RE IM" form: the multi-value flags have no other
    argv = ["normalize"]
    for n in range(3):
        argv += [f"--beta{n + 1}", repr(parts[2 * n]), repr(parts[2 * n + 1])]
    code, written, out, err = _run_over_kept(*argv)
    if code == 0:
        c = json.loads(written, parse_constant=_reject_constant)["result"]["c"]
        assert math.isfinite(c) and c >= 0.0 and out == err == ""
    else:
        assert (code, written, out) == (3, "kept\n", "") and err.startswith("linegeo: ")


#: (r_lo, r_hi): any two doubles, with as many draws again of an ordered
#: pair in [0, 1], since two independent doubles almost never make a range
RADIUS_PAIRS = st.tuples(ANY_FLOAT, ANY_FLOAT) | st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0)
).map(sorted)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(RADIUS_PAIRS, st.integers(-2, 40))
def test_analyze_potential_writes_a_finite_table_or_exits_3(radii, num):
    r_lo, r_hi = radii
    code, written, out, err = _run_over_kept(
        "analyze", "potential", f"--r-lo={r_lo!r}", f"--r-hi={r_hi!r}", f"--num={num}"
    )
    if code == 0:
        header, *lines = written.splitlines()
        rows = [[float(value) for value in line.split(",")] for line in lines]
        assert (header, len(rows), out, err) == ("R,U_eff", num, "", "")
        assert all(len(row) == 2 and all(map(math.isfinite, row)) for row in rows)
        column = [big_r for big_r, _ in rows]
        assert all(0.0 < big_r < 1.0 for big_r in column) and column == sorted(column)
    else:
        assert (code, written, out) == (3, "kept\n", "") and err.startswith("linegeo: ")


#: each launch mode of ``geodesic``, as the flags it takes from four doubles
LAUNCH_MODES = {
    "polar": lambda v: ["--polar", *v],
    "xi": lambda v: ["--xi", v[0], v[1], "--xidot", v[2], v[3]],
    "integrals": lambda v: ["--integrals", v[0], v[1], v[2], "--theta0", v[3]],
}


@pytest.mark.parametrize("mode", LAUNCH_MODES)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[ANY_FLOAT] * 4), ANY_FLOAT)
# a radial --integrals launch where R0^2 underflows to 0 (it exited 1)
@example((1.0, -0.0, 1e-300, 0.0), 1.0)
def test_geodesic_prints_a_strict_json_summary_or_exits_3(mode, values, t_max):
    # the plain form of the multi-value flags, as normalize's; 500 step
    # attempts bound each run, and a run that they cut short still exits 0
    argv = ["geodesic", *LAUNCH_MODES[mode]([repr(v) for v in values]), f"--t-max={t_max!r}"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geodesics, "MAX_STEPS", 500)
        code, written, out, err = _run_over_kept(*argv)
    if code == 0:
        summary = json.loads(out, parse_constant=_reject_constant)
        assert summary["termination"] in {t.value for t in geodesics.Termination}
        assert math.isfinite(summary["t_final"]) and err == ""
        lines = written.splitlines()
        assert lines[0] == geodesics.CSV_HEADER.replace("xi", summary["chart"])
        assert len(lines) == summary["n_samples"] + 1
    else:
        assert (code, written, out) == (3, "kept\n", "") and err.startswith("linegeo: ")


@pytest.mark.parametrize("i1", ["nan", "inf"])
def test_geodesic_non_finite_integrals_are_named(capsys, i1):
    code, out, err = run_cli(capsys, "geodesic", "--integrals", i1, "0", "0.5")
    assert (code, out) == (3, "")
    assert err == f"linegeo: first integrals must be finite doubles, got I1 = {i1}, I2 = 0.0\n"


def test_non_finite_sphere_coefficient_is_named(capsys):
    code, out, err = run_cli(
        capsys, "normalize", "--beta1", "nan", "0", "--beta2", "0", "1", "--beta3", "0", "0"
    )
    assert (code, out) == (3, "")
    assert err.startswith("linegeo: beta1 must be finite")


#: lower-hemisphere starts, run in zeta = 1/xi: radially out from |xi| = 1.5
#: through the south pole zeta = 0 to the equator (with a little angular
#: momentum the orbit passes close to the pole), and starts far out,
#: at |xi| = 1e9 and 1e50, where zeta barely moves before t_max; at
#: |xi| = 1e60, 1e200 and 1e300 the integrals overflow in xi but are
#: finite in zeta (I1 = -1e-240, and -0.0 where zetadot underflows to 0)
LOWER_HEMISPHERE_STARTS = [
    (["--xi", "1.5", "0", "--xidot", "1", "0", "--t-max", "10"], "equator_reached"),
    (["--xi", "1.5", "0", "--xidot", "1", "1e-8", "--t-max", "10"], "equator_reached"),
    (["--xi", "1.5", "0", "--xidot", "1", "1e-10", "--t-max", "10"], "equator_reached"),
    (["--xi", "1.5", "0", "--xidot", "1", "1e-12", "--t-max", "10"], "equator_reached"),
    (["--xi", "1e9", "0", "--xidot", "1", "0", "--t-max", "1"], "time_limit"),
    (["--xi", "1e50", "0", "--xidot", "1e40", "0", "--t-max", "1e11"], "time_limit"),
    (["--xi", "1e60", "0", "--xidot", "1", "0", "--t-max", "1"], "time_limit"),
    (["--xi", "1e200", "0", "--xidot", "1e-200", "0", "--t-max", "1"], "time_limit"),
    (["--xi", "1e300", "0", "--xidot", "1", "0", "--t-max", "1"], "time_limit"),
]


@pytest.mark.parametrize("argv, termination", LOWER_HEMISPHERE_STARTS)
def test_lower_hemisphere_starts_run_in_zeta(tmp_path, capsys, argv, termination):
    csv_path = tmp_path / "south.csv"
    code, out, err = run_cli(capsys, "geodesic", *argv, "--output", str(csv_path))
    assert code == 0, err
    summary = json.loads(out)
    assert summary["termination"] == termination
    assert summary["chart"] == "zeta"
    assert math.copysign(1.0, summary["I1"]) == -1.0  # negative in the xi sense
    assert summary["observed_R_max"] < 1.0  # |zeta| stays inside the equator
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,R,theta,zeta_re,zeta_im,zetadot_re,zetadot_im,I1,I2"
    assert len(lines) == summary["n_samples"] + 1
    xi0 = float(argv[1])
    assert float(lines[1].split(",")[1]) == 1.0 / xi0  # the first row is zeta = 1/xi


def test_radial_orbit_through_the_south_pole_hits_at_the_closed_form(capsys):
    # zeta runs in from 2/3 through the pole and out to the equator: the
    # travel time is (Q(2/3) + Q(1)) / sqrt(|I1|), with Q the radial primitive
    code, _, err = run_cli(
        capsys, "geodesic", "--xi", "1.5", "0", "--xidot", "1", "0", "--output", "-"
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["termination"] == "equator_reached"
    f = (1.0 - 1.5**2) / (1.0 + 1.5**2) ** 3
    assert math.isclose(summary["I1"], f, rel_tol=1e-15)  # |xidot| = 1
    ref = (analysis.radial_quadrature(2.0 / 3.0) + analysis.radial_quadrature(1.0)) / math.sqrt(-f)
    assert abs(summary["t_hit"] - ref) <= 10 * 1e-6 * ref  # the default tol


def _boom(*args):
    raise RuntimeError("boom")


def test_internal_error_exit_1_with_traceback(capsys, monkeypatch):
    monkeypatch.delenv("GEODESIC_LOG", raising=False)
    # as in a process that configured no logging (pytest's capture handlers
    # sit on the root logger): the last-resort handler writes to stderr
    monkeypatch.setattr(logging.root, "handlers", [])
    monkeypatch.setattr(analysis, "blowup_time", _boom)
    code, out, err = run_cli(capsys, "analyze", "blowup", "--I1", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error\nTraceback (most recent call last):\n")
    assert err.endswith("\nRuntimeError: boom\nlinegeo: internal error: boom\n")


# -- analyze ------------------------------------------------------------------


def test_analyze_blowup(capsys):
    code, out, _ = run_cli(capsys, "analyze", "blowup", "--I1", "1")
    assert code == 0
    assert abs(float(out.strip()) - 0.599070) < 1e-6 + 2e-7  # paper value, 6 digits
    # Q(1), which test_analysis holds to 4e-16 of E(-1) - K(-1)
    assert float(out.strip()) == blowup_time(1.0) == analysis.radial_quadrature(1.0)


def test_analyze_turning_points(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "turning-points", "--I1", "10.6667", "--I2", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["R_max"] - 1.0 / math.sqrt(3.0)) < 1e-4
    assert 0.0 < doc["R_min"] < CRITICAL_RADIUS


def test_analyze_turning_points_no_orbit_exit_3(capsys):
    code, _, err = run_cli(capsys, "analyze", "turning-points", "--I1", "10", "--I2", "1")
    assert code == 3
    assert "below 6*sqrt(3)" in err


def test_analyze_potential_csv(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "potential", "--r-lo", "0.2", "--r-hi", "0.8", "--num", "7"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,U_eff"
    assert len(lines) == 8
    from linegeo import effective_potential

    for line in lines[1:]:
        big_r, u = map(float, line.split(","))
        assert abs(u - effective_potential(big_r)) < 1e-12
    # the bytes: each value of the library's table to 17 significant digits
    rows = analysis.potential_curve(0.2, 0.8, 7)
    assert lines == ["R,U_eff", *(",".join(format(v, ".17g") for v in row) for row in rows)]


def test_analyze_series_check_csv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "series-check", "--num", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,series,quadrature,diff"
    for line in lines[1:]:
        fields = list(map(float, line.split(",")))
        assert abs(fields[3]) < 1e-10
    rows = analysis.series_quadrature_table(0.05, 0.95, 7)
    assert lines == [
        "R,series,quadrature,diff", *(",".join(format(v, ".17g") for v in row) for row in rows)
    ]


def test_analyze_series_check_close_to_one(capsys):
    # the series needs 13,622 anti-diagonals at R = 0.999
    code, out, err = run_cli(
        capsys, "analyze", "series-check", "--r-lo", "0.5", "--r-hi", "0.999", "--num", "3"
    )
    assert code == 0, err
    lines = out.strip().split("\n")
    assert len(lines) == 4
    for line in lines[1:]:
        assert abs(float(line.split(",")[3])) <= 1e-10


@pytest.mark.parametrize("argv, given", [
    (["--r-hi", "inf"], "(0.05, inf)"),
    (["--r-lo", "0.5", "--r-hi", "0.4"], "(0.5, 0.4)"),
    (["--r-lo", "0.5", "--r-hi", "0.5", "--num", "1"], "(0.5, 0.5)"),
    (["--r-lo", "nan"], "(nan, 0.95)"),
    (["--r-lo", "-0.1"], "(-0.1, 0.95)"),
    (["--r-hi", "1"], "(0.05, 1.0)"),
])
def test_analyze_series_check_refuses_a_bad_range_naming_it(capsys, argv, given):
    # as analyze potential does: a descending table is refused, and a
    # non-finite bound is named as given
    code, out, err = run_cli(capsys, "analyze", "series-check", *argv)
    assert (code, out) == (3, "")
    assert err == f"linegeo: need 0 <= r_lo < r_hi < 1, got {given}\n"


def test_analyze_series_check_of_one_sample(capsys):
    code, out, _ = run_cli(capsys, "analyze", "series-check", "--r-lo", "0.3", "--num", "1")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["R", "0.29999999999999999"]


# -- check ---------------------------------------------------------------------


def run_check(capsys, tmp_path, *argv):
    """Exit code and report of ``check``, written through ``--output`` and
    parsed strictly: no NaN or Infinity."""
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "check", *argv, "--output", str(path))
    assert out == ""
    return code, json.loads(path.read_text(), parse_constant=_reject_constant)


def test_check_passes(capsys, tmp_path):
    code, report = run_check(capsys, tmp_path)
    assert code == 0
    assert report["all_passed"] is True
    assert report["config"] == {
        "samples": 1000, "trajectories": 6, "tol": 1e-10, "t_span": 6.0, "seed": 2025,
    }
    names = {c["name"] for c in report["checks"]}
    assert {
        "isometry_metric",
        "symplectomorphism",
        "conservation_drift",
        "triple_agreement",
        "energy_identity",
        "normalization_residual",
    } <= names
    for c in report["checks"]:
        assert c["passed"] and c["margin"] > 1.0


def test_the_check_suite_itself_logs_nothing(caplog):
    # the library only returns its results; the CLI logs them
    caplog.set_level(logging.DEBUG)
    checks.run_checks(3)
    assert caplog.records == []


@pytest.mark.parametrize("argv", [
    ["check", "--samples", "10"],
    ["check", "--trajectories", "1"],
    ["check", "--tol", "1e-10"],
    ["check", "--t-span", "6"],
    ["analyze", "blowup", "--I1", "1", "--format", "json"],
])
def test_retired_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in captured.err


def test_check_detects_injected_bias(capsys, tmp_path, monkeypatch):
    # bias the I2 samples the stepper returns, which ``integrate`` reports
    exact = geodesics.geod_integrate

    def biased(*args):
        *result, i2s = exact(*args)
        return (*result, [i2 + 1e-3 for i2 in i2s])

    monkeypatch.setattr(geodesics, "geod_integrate", biased)
    code, report = run_check(capsys, tmp_path)
    assert code == 1
    assert report["all_passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "energy_identity" in failed


def test_check_reports_a_radial_run_that_stops_short(capsys, tmp_path, monkeypatch):
    # the report stays valid JSON: the error of a run that never reached
    # the equator is measured where it stopped
    exact = geodesics.integrate
    monkeypatch.setattr(geodesics, "integrate", lambda state, t_max, tol: exact(state, 0.3, tol))
    code, report = run_check(capsys, tmp_path)
    assert code == 1
    triple = next(c for c in report["checks"] if c["name"] == "triple_agreement")
    assert not triple["passed"]
    assert triple["observed"] == abs(0.3 - blowup_time(1.0)) / blowup_time(1.0)
    assert triple["detail"].endswith("; radial run terminated by time_limit")


def test_energy_identity_squares_r_as_the_potential_does(monkeypatch):
    # at these radii R**2 != R*R; with I2 = 0 and I1 = f Rdot^2 for the
    # f that effective_potential's rounding of R^2 gives, the residual is 0
    radii = [0.13654154110028494, 0.5968012891611402, 0.6217995581576036]
    xi = [complex(r, 0.0) for r in radii]
    xidot = [complex(0.3, 0.0)] * len(radii)
    assert all(r**2 != r * r for r in radii)
    i1 = []
    for z, zdot in zip(xi, xidot):
        r = abs(z)
        rdot = (z.conjugate() * zdot).real / r
        i1.append((1.0 - r * r) / (1.0 + r * r) ** 3 * rdot**2)

    class Samples:
        max_drift = (0.0, 0.0)

    samples = Samples()
    samples.xi, samples.xidot, samples.integrals = xi, xidot, (i1, [0.0] * len(radii))
    monkeypatch.setattr(checks, "sample_orbit_state", lambda rng: None)
    monkeypatch.setattr(geodesics, "integrate", lambda state, t_max, tol: samples)
    _, result = checks._orbit_checks(1, 1e-10, 1.0, random.Random(0), 1e-8)
    assert result.observed == 0.0 and result.detail == "3 samples"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "series-check", "--num", "0"],
        ["analyze", "series-check", "--num", "-1"],
    ],
)
def test_empty_sample_counts_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "at least 1" in err


# a seed whose suite pairs near-cancelling tangent vectors: its smallest
# metric value is 8.0e-7 of the size of the terms it is summed from, the
# smallest of seeds 0..599, and its rounding error relative to the value
# alone reads 1.3e-11, a hundred times the bound the invariance test allows
NEAR_CANCELLING_SEEDS = [80]
#: the near-cancelling seed and some ordinary ones, the default among them
INVARIANCE_SEEDS = NEAR_CANCELLING_SEEDS + [70, 72, 82, 380, 437, 534, 2025]
INVARIANCE_CHECKS = {"isometry_metric", "symplectomorphism"}


@pytest.mark.parametrize("seed", NEAR_CANCELLING_SEEDS)
def test_near_cancelling_seed_draws_a_near_cancelling_pairing(capsys, monkeypatch, seed):
    from linegeo import line_space

    exact = checks._pairing_scale
    ratios = []

    def recording(u, v):
        scale = exact(u, v)
        ratios.append(abs(line_space.metric(u, v)) / scale)
        return scale

    monkeypatch.setattr(checks, "_pairing_scale", recording)
    code, _, _ = run_cli(
        capsys, "check", "--seed", str(seed)
    )
    assert code == 0 and len(ratios) == 1000
    assert min(ratios) < 1e-5


@pytest.mark.parametrize("seed", INVARIANCE_SEEDS)
def test_check_invariance_passes_near_cancelling_seeds(capsys, tmp_path, seed):
    code, report = run_check(capsys, tmp_path, "--seed", str(seed))
    assert code == 0 and report["all_passed"] is True
    for c in report["checks"]:
        if c["name"] in INVARIANCE_CHECKS:
            assert c["observed"] < 1e-13


def test_check_detects_tampered_push_forward(capsys, tmp_path, monkeypatch):
    from linegeo import TangentVector, line_space

    exact = line_space.push_forward

    def tampered(m, u):
        w = exact(m, u)
        return TangentVector(w.base, w.dxi * (1.0 + 1e-8), w.deta)

    monkeypatch.setattr(line_space, "push_forward", tampered)
    for seed in INVARIANCE_SEEDS:
        code, report = run_check(capsys, tmp_path, "--seed", str(seed))
        assert code == 1
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed == INVARIANCE_CHECKS


def _raise_c(monkeypatch):
    from linegeo import NormalizationCertificate, StandardSphere, sections

    exact = sections.normalize

    def tampered(sec):
        cert = exact(sec)
        return NormalizationCertificate(
            cert.translation, cert.rotation, StandardSphere(cert.result.c + 5e-10),
            cert.intermediate_gamma, cert.intermediate_c,
        )

    monkeypatch.setattr(sections, "normalize", tampered)


def _raise_series(monkeypatch):
    exact = analysis.appell_f1_series
    monkeypatch.setattr(analysis, "appell_f1_series", lambda big_r: exact(big_r) + 5e-10)


@pytest.mark.parametrize("tamper, name", [
    (_raise_series, "triple_agreement"), (_raise_c, "normalization_residual"),
])
def test_a_check_failing_its_second_criterion_reports_no_headroom(
    capsys, tmp_path, monkeypatch, tamper, name
):
    # the error that fails the check lies below the threshold the margin
    # is taken against: threshold/observed would read as headroom
    tamper(monkeypatch)
    code, report = run_check(capsys, tmp_path)
    assert code == 1
    checks = report["checks"]
    assert {c["name"] for c in checks if not c["passed"]} == {name}
    failed = next(c for c in checks if c["name"] == name)
    assert failed["observed"] < failed["threshold"]
    assert failed["margin"] == 1.0
    for c in checks:
        assert (c["margin"] > 1.0) == c["passed"]


@pytest.mark.parametrize("form", ["metric", "symplectic_form"])
def test_check_detects_a_tampered_form_alone(capsys, tmp_path, monkeypatch, form):
    # the two invariance checks share their samples, not their verdicts: a
    # pairing that is not invariant fails its own check and no other
    from linegeo import line_space

    exact = getattr(line_space, form)

    def tampered(u, v):
        return exact(u, v) * (1.0 + 1e-8 * abs(u.base.xi))

    monkeypatch.setattr(line_space, form, tampered)
    expected = {"metric": "isometry_metric", "symplectic_form": "symplectomorphism"}[form]
    for seed in INVARIANCE_SEEDS:
        code, report = run_check(capsys, tmp_path, "--seed", str(seed))
        assert code == 1
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed == {expected}


def test_normal_pair_parts_are_independent_standard_normals():
    normal = checks._normal_pairs(random.Random(4242)).__next__
    draws = [normal() for _ in range(20_000)]
    re = [z.real for z in draws]
    im = [z.imag for z in draws]
    for part in (re, im):
        assert abs(statistics.fmean(part)) < 0.03
        assert abs(statistics.pvariance(part) - 1.0) < 0.03
    assert abs(statistics.correlation(re, im)) < 0.03


@pytest.mark.parametrize("samples", [1, 7, checks.SAMPLES])
@pytest.mark.parametrize("seed", INVARIANCE_SEEDS + list(range(0, 600, 50)))
def test_check_sampling_loops_match_their_oracle_copies(seed, samples):
    # the inlined loops draw the stream in the same order as one helper
    # call per draw, and score every sample as max() would
    assert sampling_loops(
        seed, samples, checks._invariance_checks, checks._normalization_check
    ) == sampling_loops(seed, samples, invariance_checks, normalization_check)


@pytest.mark.parametrize("seed", range(0, 600, 30))
def test_energy_identity_check_matches_its_inline_f_copy(seed):
    # the orbit pass takes f from the flow's one definition; its drift and
    # residuals are those of the copy that writes f out
    args = (checks.TRAJECTORIES, checks.TOL, checks.T_SPAN)
    assert checks._orbit_checks(*args, random.Random(seed), 1e-8) == (
        orbit_checks(*args, random.Random(seed), 1e-8)
    )


@pytest.mark.parametrize("seed", range(0, 600, 37))
def test_check_passes_across_seeds(capsys, tmp_path, seed):
    code, report = run_check(capsys, tmp_path, "--seed", str(seed))
    assert code == 0 and report["all_passed"] is True


# -- determinism and logging (subprocess level) ----------------------------------


def _child_env(env_extra=None):
    """The environment of a child interpreter that imports the same
    linegeo as this process."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(linegeo.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


def _python(args, env_extra=None):
    """Run a child interpreter that imports the same linegeo as this process."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_child_env(env_extra)
    )


def _run(args, env_extra=None):
    return _python(["-m", "linegeo.cli", *args], env_extra)


def test_a_reader_that_closes_stdout_ends_the_run_quietly():
    # stdout block-buffered, as by default on a pipe
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    # `linegeo analyze potential --num 200000 | head -1`: the CSV is far
    # larger than a pipe holds, so the run meets the closed pipe mid-write
    argv = [sys.executable, "-m", "linegeo.cli", "analyze", "potential", "--num", "200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"R,U_eff\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")
    # a pipe closed before the run starts: the one buffered line meets it
    # only at the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "linegeo.cli", "analyze", "blowup", "--I1", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_output_is_opened_once_and_written_as_a_stream(tmp_path):
    # one reader opens the FIFO once and reads to the end of the stream, as
    # `cat fifo` does: a second open of the output would leave it an empty
    # stream, then block with no reader left, so the run has a time limit
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    read = "import sys; sys.stdout.write(open(sys.argv[1]).read())"
    argv = [sys.executable, "-m", "linegeo.cli", "analyze", "blowup", "--I1", "1",
            "--output", fifo]
    with subprocess.Popen([sys.executable, "-c", read, fifo], stdout=subprocess.PIPE,
                          text=True) as reader, \
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=_child_env()) as proc:
        try:
            got = reader.communicate(timeout=30)[0]
            out, err = proc.communicate(timeout=30)
        finally:
            reader.kill()
            proc.kill()
    assert (proc.returncode, out, err) == (0, "", "")
    assert got == "0.59907011736779614\n"


def test_cli_outputs_are_deterministic():
    args = ["geodesic", "--polar", "0.4", "0.3", "0.2", "1.1", "--t-max", "2", "--tol", "1e-8"]
    first = _run(args)
    second = _run(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr

    assert _run(["check"]).stdout == _run(["check"]).stdout


def test_geodesic_log_env_controls_stderr():
    args = ["analyze", "blowup", "--I1", "1"]
    quiet = _run(args)
    noisy = _run(args, {"GEODESIC_LOG": "debug"})
    assert quiet.returncode == noisy.returncode == 0
    assert quiet.stderr == ""
    # the normalize path logs at info level; blowup may not, so use normalize
    args = ["normalize", "--beta1", "1", "0", "--beta2", "0", "2", "--beta3", "3", "0"]
    noisy = _run(args, {"GEODESIC_LOG": "info"})
    assert "linegeo.cli" in noisy.stderr
    assert _run(args).stderr == ""


def test_check_logs_each_result_on_the_cli_logger(tmp_path):
    path = tmp_path / "report.json"
    result = _run(["check", "--output", str(path)], {"GEODESIC_LOG": "info"})
    assert (result.returncode, result.stdout) == (0, "")
    report = json.loads(path.read_text())
    assert len(report["checks"]) == 6
    assert result.stderr.splitlines() == [
        f"linegeo.cli INFO: check {c['name']:<24} PASS "
        f"observed={c['observed']:.3e} threshold={c['threshold']:.1e}"
        for c in report["checks"]
    ]


#: modules a cold call should load only when its subcommand runs them: the
#: dataclasses machinery (with the inspect import it brings), logging (only
#: for GEODESIC_LOG), the stepper, the radial analysis, the invariant suite
#: and the line-space geometry; numpy and scipy, which no call loads
LAZY_MODULES = (
    "dataclasses", "inspect", "logging", "linegeo.analysis", "linegeo.checks",
    "linegeo.geodesics", "linegeo.line_space", "numpy", "scipy",
)
LOADED_LAZY_MODULES = (
    f"import sys; print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules), "
    "file=sys.stderr)"
)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (None, []),
        (
            ["normalize", "--beta1", "1", "0", "--beta2", "0", "2", "--beta3", "3", "0"],
            ["linegeo.line_space"],
        ),
        (["analyze", "blowup", "--I1", "1"], ["linegeo.analysis"]),
        (["analyze", "turning-points", "--I1", "20", "--I2", "1"], ["linegeo.analysis"]),
        (["analyze", "series-check"], ["linegeo.analysis"]),
        (["analyze", "potential"], ["linegeo.analysis"]),
        (["geodesic", "--xi", "0", "0", "--xidot", "1", "0"], ["linegeo.geodesics"]),
        # a radial launch from its integrals needs no orbit annulus
        (["geodesic", "--integrals", "1", "0", "0.5"], ["linegeo.geodesics"]),
        (
            ["check"],
            ["linegeo.analysis", "linegeo.checks", "linegeo.geodesics", "linegeo.line_space"],
        ),
        # leading NAME=value items set the environment, as in a shell
        (["GEODESIC_LOG=debug", "analyze", "blowup", "--I1", "1"], ["linegeo.analysis", "logging"]),
    ],
)
def test_cold_calls_import_only_what_they_use(argv, loaded):
    code = "import linegeo"
    env = {}
    if argv is not None:
        while "=" in argv[0]:
            name, value = argv[0].split("=", 1)
            env[name] = value
            argv = argv[1:]
        argv = [*argv, "--output", os.devnull]
        code = f"from linegeo.cli import main; assert main({argv!r}) == 0"
    result = _python(["-c", f"{code}; {LOADED_LAZY_MODULES}"], env)
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip().splitlines()[-1] == repr(loaded)


def test_cold_package_names_resolve_on_first_access():
    code = (
        "import sys, linegeo\n"
        "assert not [m for m in sys.modules if m.startswith('linegeo.')]\n"
        "assert linegeo.BACKEND == 'python'\n"
        "assert linegeo.turning_points is linegeo.analysis.turning_points\n"
        "assert linegeo.geodesics.integrate is linegeo.integrate\n"
        "assert {'integrate', 'sections'} <= set(dir(linegeo))\n"
    )
    result = _python(["-c", code])
    assert result.returncode == 0, result.stderr


def test_cold_geodesics_import_loads_no_line_space_geometry():
    # the flow is the same on every twisting sphere, so geodesics names no
    # sphere and loads no module of the line-space geometry
    code = (
        "import sys, linegeo.geodesics\n"
        "assert not {'linegeo.sections', 'linegeo.line_space'} & set(sys.modules)\n"
    )
    result = _python(["-c", code])
    assert result.returncode == 0, result.stderr


def test_cold_internal_error_exit_1_with_traceback():
    # the failure path imports logging on demand; unconfigured, its
    # last-resort handler prints the traceback
    code = (
        "import sys; from linegeo import analysis; from linegeo.cli import main\n"
        "def boom(*args): raise RuntimeError('boom')\n"
        "analysis.blowup_time = boom\n"
        "sys.exit(main(['analyze', 'blowup', '--I1', '1']))"
    )
    result = _python(["-c", code], {"GEODESIC_LOG": ""})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("internal error\nTraceback (most recent call last):\n")
    assert result.stderr.endswith("\nRuntimeError: boom\nlinegeo: internal error: boom\n")


def test_console_entry_point_exists():
    result = _run(["--help"])
    assert result.returncode == 0
    assert "normalize" in result.stdout and "geodesic" in result.stdout


@pytest.mark.parametrize("argv, code", [(["analyze", "blowup", "--I1", "1"], 0),
                                        (["analyze", "blowup", "--I1", "nan"], 3)])
def test_console_script_exits_with_the_code_of_main(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["linegeo", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == code


def test_console_script_names_main_entry():
    # tomllib is missing on 3.10, so the script table is read as text
    pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "pyproject.toml")
    with open(pyproject) as fh:
        scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", fh.read(), re.M | re.S)
    assert scripts is not None
    assert re.search(r'^linegeo\s*=\s*"linegeo\.cli:main_entry"\s*$', scripts.group(1), re.M)
