"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import random
import re
import stat
import statistics
import subprocess
import sys
import tempfile
import threading
from typing import NamedTuple

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
from oracles import invariance_checks, sampling_loops


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


def test_geodesic_conflicting_initial_conditions_exit_2(capsys):
    # a usage error exits through argparse, as a malformed flag does: the
    # launch modes are its exclusive group, under the geodesic usage line,
    # and a flag that only goes with one mode is refused with any other
    xi, polar = ["--xi", "0.3", "0", "--xidot", "0", "1"], ["--polar", "0.5", "0", "0", "1"]
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
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["geodesic", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: {prog} ")
        assert captured.err.endswith(f"\n{prog}: error: {message}\n")


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
    monkeypatch.setattr(analysis, "blowup_time", _boom)
    code, out, err = run_cli(capsys, "analyze", "blowup", "--I1", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error\nTraceback (most recent call last):\n")
    assert err.endswith("\nRuntimeError: boom\nlinegeo: internal error: boom\n")


def test_each_call_logs_to_the_stderr_of_its_own_time(monkeypatch):
    monkeypatch.setenv("GEODESIC_LOG", "info")
    argv = ["normalize", "--beta1", "1", "0", "--beta2", "0", "2", "--beta3", "3", "0",
            "--output", os.devnull]
    line = f"linegeo.cli INFO: normalized section to c = {math.sqrt(20.0):.17g}\n"
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 0
        assert err.getvalue() == line


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


def test_the_check_suite_itself_logs_nothing(capfd, monkeypatch):
    # the library only returns its results; the CLI logs them
    monkeypatch.setenv("GEODESIC_LOG", "debug")
    checks.run_checks(3)
    assert capfd.readouterr() == ("", "")


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


def test_the_most_eccentric_sampled_orbit_stays_inside_the_unit_disk():
    # the orbit pass divides by R and evaluates U(R) at every sample, so
    # the annulus of every orbit it samples must lie inside (0, 1)
    tp = turning_points(checks.MAX_ORBIT_RATIO, 1.0)
    assert 0.1 < tp.R_min and tp.R_max < 0.95


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
    # the inlined loop draws the stream in the same order as one helper
    # call per draw, and scores every sample as max() would
    assert sampling_loops(seed, samples, checks._invariance_checks) == (
        sampling_loops(seed, samples, invariance_checks)
    )


@pytest.mark.parametrize("seed", range(0, 600, 37))
def test_check_passes_across_seeds(capsys, tmp_path, seed):
    code, report = run_check(capsys, tmp_path, "--seed", str(seed))
    assert code == 0 and report["all_passed"] is True


# -- child interpreters ---------------------------------------------------------


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


def test_a_reader_that_closes_stdout_ends_the_run_quietly(tmp_path):
    # `linegeo analyze potential --num 200000 | head -1`, stdout
    # block-buffered as by default on a pipe: the CSV is far larger than a
    # pipe holds, so the run meets the closed pipe mid-write, while its
    # reader is still reading, which no row of IO_CONTRACT can express;
    # stderr goes to a file, which no unread pipe can block
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "linegeo.cli", "analyze", "potential", "--num", "200000"]
    err = tmp_path / "err"
    with open(err, "wb") as fh, subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=fh,
                                                 env=env) as proc:
        assert proc.stdout.readline() == b"R,U_eff\n"
        proc.stdout.close()
    assert (proc.returncode, err.read_bytes()) == (1, b"")


# -- the I/O contract, one row per run -------------------------------------------

OPEN, CLOSED, READ_ONLY, NO_READER = "open", "closed", "read-only", "no-reader"


class Run(NamedTuple):
    """One row of the CLI's I/O contract: ``argv``, run in a new directory
    holding ``before``, with fd 1 and fd 2 in the states ``fds``, exits
    ``code``, writes exactly ``out`` to stdout and ``err`` to stderr (a fd
    that is not open catches nothing), and leaves the directory holding
    ``after`` (by default ``before``).  A file is its text, or ("symlink",
    target), ("hardlink", an earlier name) or ("fifo", what one reader read
    from it to the end).  ``patch`` is Python run first, whose
    ``patch(owner, name, value)`` replaces a library attribute.  A run with
    both fds open calls ``main`` in this process; any other runs
    ``main_entry`` in a child with default (buffered) streams, as the
    console script does."""

    argv: str
    code: int = 0
    out: str = ""
    err: str = ""
    fds: tuple = (OPEN, OPEN)
    before: dict = {}
    after: dict | None = None
    env: dict = {}
    patch: str = ""


#: a start at rest, which the stepper carries to t_max in four steps
AT_REST = "geodesic --xi 0.3 0.1 --xidot 0 0 --t-max 2"
REST_CSV = "t,R,theta,xi_re,xi_im,xidot_re,xidot_im,I1,I2\n" + "".join(
    f"{t},0.31622776601683794,0.32175055439664224,0.29999999999999999,0.10000000000000001,"
    "0,0,0,0\n" for t in ("0", "0.01", "0.069999999999999993", "0.42999999999999999", "2")
)
REST_SUMMARY = json.dumps({
    "termination": "time_limit", "t_hit": None, "t_final": 2.0, "I1": 0.0, "I2": 0.0,
    "max_drift_I1": 0.0, "max_drift_I2": 0.0, "n_samples": 5,
    "observed_R_min": 0.31622776601683794, "observed_R_max": 0.31622776601683794,
    "rejected_steps": 0, "rhs_evals": 49, "chart": "xi",
}, indent=2) + "\n"
Q1 = "0.59907011736779614\n"  # `analyze blowup --I1 1`
NORMALIZE = "normalize --beta1 1 0 --beta2 0 2 --beta3 3 0"
QUIET_NORMALIZE = f"{NORMALIZE} --output /dev/null"
NORMALIZED = "linegeo.cli INFO: normalized section to c = 4.4721359549995796\n"
USAGE = cli.build_parser().format_usage()  # argparse's, which differs between Pythons
SAME_FILE = f"{USAGE}linegeo: error: --summary names the --output file\n"
ENOENT = "linegeo: [Errno 2] No such file or directory: 'missing/out'\n"
ENOSPC = "linegeo: [Errno 28] No space left on device\n"
EBADF = "linegeo: [Errno 9] Bad file descriptor\n"
INFO = {"GEODESIC_LOG": "info"}
KEPT = {"kept": "kept\n"}
LINK = {"link": ("symlink", "target")}
#: the stdout of a run that ``main`` makes in this process with both fds open
IN_PROCESS = object()
#: every subcommand's work raises: a row that expects no internal error
#: shows that its run did none
BOOM = (
    "from linegeo import analysis, checks, geodesics, sections\n"
    "def boom(*args): raise RuntimeError('boom')\n"
    "for owner, name in [(sections, 'normalize'), (geodesics, 'integrate'),\n"
    "                    (analysis, 'blowup_time'), (analysis, 'series_quadrature_table'),\n"
    "                    (checks, 'run_checks')]:\n"
    "    patch(owner, name, boom)\n"
)
#: ``check`` gets two made-up results, the second failing
TWO_CHECKS = (
    "from linegeo import checks\n"
    "patch(checks, 'run_checks', lambda seed: [\n"
    "    checks.CheckResult('isometry_metric', True, 1e-10, 2.5e-12),\n"
    "    checks.CheckResult('triple_agreement', False, 1e-8, 3e-8)])\n"
)
#: inputs that each subcommand refuses, and the line that names the fault
REFUSALS = [
    ("analyze blowup --I1 nan", "I1 must be positive and finite, got nan"),
    ("analyze turning-points --I1 10 --I2 1",
     "no orbit: I1/I2^2 = 10.000000 below 6*sqrt(3) = 10.392305"),
    ("analyze potential --r-lo 1e-200",
     "effective potential must be a finite double; U(1e-200) overflows"),
    ("analyze series-check --r-lo 0.5 --r-hi 0.4", "need 0 <= r_lo < r_hi < 1, got (0.5, 0.4)"),
    # I1 overflows at the second sample of the run
    ("geodesic --integrals 1.797e308 1 7.459778999860975e-155 --t-max 1",
     "first integrals must be finite doubles along the run, got I1 = inf, "
     "I2 = 1.0000000000000002 at t = 7.459778999860975e-157"),
    # with at most 10 anti-diagonals (FEW_DIAGONALS) the series does not
    # converge at R = 0.9
    ("analyze series-check --r-lo 0.1 --r-hi 0.9 --num 2",
     "series did not meet the tail threshold within 10 anti-diagonals at R = 0.9"),
    ("normalize --beta1 1e308 0 --beta2 0 1e308 --beta3 1e308 0",
     "the standard form does not fit in doubles: c overflows"),
    ("geodesic --xi 0 0 --xidot 1 0 --tol 0", "tolerance must be positive and finite, got 0.0"),
    ("geodesic --xi 0 0 --xidot 1 0 --t-max nan", "t_max must be finite, got nan"),
    ("analyze series-check --r-lo 0.9 --r-hi 0.999999 --num 2",
     "series did not meet the tail threshold within 10 anti-diagonals at R = 0.9"),
]
FEW_DIAGONALS = "from linegeo import analysis\npatch(analysis, 'SERIES_MAX_DIAGONALS', 10)\n"

#: the CLI's I/O contract: each entry is the test of that name, a dict of
#: its cases by id, or a tuple of the runs it makes in turn
IO_CONTRACT = {
    # the first output with no file goes to stdout, the second to stderr
    "test_geodesic_routes_each_output_by_its_flags": {
        "no_flags": Run(AT_REST, out=REST_CSV, err=REST_SUMMARY),
        "--output=-": Run(f"{AT_REST} --output=-", out=REST_CSV, err=REST_SUMMARY),
        "--output=-,--summary=-": Run(f"{AT_REST} --output=- --summary=-",
                                      out=REST_CSV, err=REST_SUMMARY),
        "--output=f": Run(f"{AT_REST} --output=f", out=REST_SUMMARY, after={"f": REST_CSV}),
        "--output=f,--summary=-": Run(f"{AT_REST} --output=f --summary=-",
                                      out=REST_SUMMARY, after={"f": REST_CSV}),
        "--summary=s": Run(f"{AT_REST} --summary=s", out=REST_CSV, after={"s": REST_SUMMARY}),
        "--output=f,--summary=s": Run(f"{AT_REST} --output=f --summary=s",
                                      after={"f": REST_CSV, "s": REST_SUMMARY}),
    },
    # one regular file behind both flags, by any names, is refused before
    # any work and left as it was; a device given twice takes both outputs
    "test_geodesic_outputs_on_one_regular_file_exit_2_and_a_device_twice_is_written": (
        Run(f"{AT_REST} --output orbit.csv --summary orbit.csv", 2, err=SAME_FILE, patch=BOOM),
        Run(f"{AT_REST} --output orbit.csv --summary ./orbit.csv", 2, err=SAME_FILE, patch=BOOM),
        Run(f"{AT_REST} --output kept --summary link", 2, err=SAME_FILE, patch=BOOM,
            before={**KEPT, "link": ("hardlink", "kept")}),
        Run(f"{AT_REST} --output /dev/null --summary /dev/null"),
    ),
    # one line naming the path, exit 2, as argparse's own "can't open",
    # before any work; the CSV path opened first is removed
    "test_an_output_path_that_cannot_be_opened_is_a_usage_error": {
        "argv0-missing": Run(f"{NORMALIZE} --output missing/out", 2, err=ENOENT, patch=BOOM),
        "argv1-missing": Run(f"{AT_REST} --output missing/out", 2, err=ENOENT, patch=BOOM),
        "argv2-missing": Run(f"{AT_REST} --output orbit.csv --summary missing/out", 2,
                             err=ENOENT, patch=BOOM),
        "argv3-directory": Run("analyze blowup --I1 1 --output .", 2,
                               err="linegeo: [Errno 21] Is a directory: '.'\n", patch=BOOM),
        "argv4-missing": Run("analyze series-check --num 400 --r-hi 0.99 --output missing/out", 2,
                             err=ENOENT, patch=BOOM),
        "argv5-missing": Run("check --output missing/out", 2, err=ENOENT, patch=BOOM),
    },
    # a refusal comes before any output is written: no file is created,
    # and one that was there keeps what it held
    "test_invalid_input_is_refused_before_the_output_opens": {
        f"argv{i}": tuple(
            Run(f"{argv} --output {name}", 3, err=f"linegeo: {message}\n", before=before,
                patch=FEW_DIAGONALS) for name, before in (("new", {}), ("kept", KEPT))
        ) for i, (argv, message) in enumerate(REFUSALS)
    },
    # the CSV is written and closed before the summary opens: a failed CSV
    # write is the run's only output, and a failed summary write removes a
    # CSV the run created and leaves an existing file holding the CSV
    "test_a_csv_that_cannot_be_written_leaves_no_summary": (
        Run(f"{AT_REST} --output /dev/full", 2, err=ENOSPC),
    ),
    "test_a_summary_that_cannot_be_written_leaves_no_csv_the_run_created": (
        Run(f"{AT_REST} --output new --summary /dev/full", 2, err=ENOSPC),
        Run(f"{AT_REST} --output kept --summary /dev/full", 2, err=ENOSPC, before=KEPT,
            after={"kept": REST_CSV}),
    ),
    # a symlink is written through, and a failed run removes the file it
    # created, the link's target, not the link
    "test_a_dangling_symlink_output_is_written_through": (
        Run("analyze blowup --I1 1 --output link", before=LINK, after={**LINK, "target": Q1}),
    ),
    "test_a_failed_run_leaves_a_dangling_symlink_output_dangling": {
        "argv0-3": Run("analyze blowup --I1 -1 --output link", 3, before=LINK,
                       err="linegeo: I1 must be positive and finite, got -1.0\n"),
        "argv1-2": Run(f"{AT_REST} --output link --summary /dev/full", 2, err=ENOSPC,
                       before=LINK),
    },
    # opened once and written as a stream: a second open, or a truncation,
    # would fail or leave the one reader an empty stream
    "test_a_fifo_output_is_opened_once_and_written_as_a_stream": (
        Run("analyze blowup --I1 1 --output fifo", before={"fifo": ("fifo", "")},
            after={"fifo": ("fifo", Q1)}),
    ),
    # GEODESIC_LOG=info or debug, in any case and padding, adds the CLI's
    # diagnostics on stderr; blowup has none
    "test_geodesic_log_env_controls_stderr": (
        Run(QUIET_NORMALIZE),
        Run(QUIET_NORMALIZE, err=NORMALIZED, env=INFO),
        Run(QUIET_NORMALIZE, err=NORMALIZED, env={"GEODESIC_LOG": " DEBUG "}),
        Run(QUIET_NORMALIZE, env={"GEODESIC_LOG": "warning"}),
        Run("analyze blowup --I1 1", out=Q1, env={"GEODESIC_LOG": "debug"}),
    ),
    "test_check_logs_each_result_on_the_cli_logger": (
        Run("check --output /dev/null", 1, env=INFO, patch=TWO_CHECKS, err=(
            "linegeo.cli INFO: check isometry_metric          PASS "
            "observed=2.500e-12 threshold=1.0e-10\n"
            "linegeo.cli INFO: check triple_agreement         FAIL "
            "observed=3.000e-08 threshold=1.0e-08\n")),
    ),
    # a closed stdout (`>&-`), or a pipe whose reader left before the run,
    # is a closed pipe: exit 1, quietly
    "test_a_closed_stdout_exits_1_with_nothing_on_stderr": (
        Run("analyze blowup --I1 1", 1, fds=(CLOSED, OPEN)),
        Run("analyze blowup --I1 1", 1, fds=(NO_READER, OPEN)),
    ),
    # ... refused before any work, where an output would go to stdout; the
    # file the run created for the CSV is removed
    "test_a_closed_stdout_is_refused_before_any_work": {
        "check": Run("check", 1, fds=(CLOSED, OPEN), patch=BOOM),
        "summary": Run(f"{AT_REST} --output new", 1, fds=(CLOSED, OPEN), patch=BOOM),
    },
    # a stdout that refuses the bytes is an unwritable output, whether they
    # meet it at a write (unbuffered) or at the flush (buffered)
    "test_a_stdout_that_refuses_writes_exits_2": {
        "buffered": Run("analyze blowup --I1 1", 2, err=EBADF, fds=(READ_ONLY, OPEN)),
        "unbuffered": Run("analyze blowup --I1 1", 2, err=EBADF, fds=(READ_ONLY, OPEN),
                          env={"PYTHONUNBUFFERED": "1"}),
    },
    # a closed or refusing stderr loses its text, not the exit code or stdout
    "test_a_closed_stderr_loses_its_text_not_the_exit_code_or_stdout": {
        f"{case}-{state}": run._replace(fds=(OPEN, state)) for case, run in {
            "diagnostics": Run(AT_REST, out=REST_CSV, env=INFO),
            "refusal": Run("analyze blowup --I1 nan", 3),
            "summary-on-stderr": Run(AT_REST, out=REST_CSV),
            "internal-error": Run("analyze blowup --I1 1", 1, env=INFO, patch=BOOM),
            "usage-error": Run("bogus", 2),
            "unwritable-output": Run("analyze blowup --I1 1 --output missing/out", 2),
        }.items() for state in (CLOSED, READ_ONLY)
    },
    # a run in a new process writes what this one writes; with every output
    # in a file, a closed stdout and stderr take nothing from the run
    "test_cli_outputs_are_deterministic": (
        Run(f"{AT_REST} --output f --summary s", fds=(CLOSED, CLOSED),
            after={"f": REST_CSV, "s": REST_SUMMARY}),
        Run("check", out=IN_PROCESS, fds=(OPEN, CLOSED)),
    ),
}


def _child(run):
    """Run ``main_entry`` in a child interpreter that imports the same
    linegeo as this process: its exit code, stdout and stderr."""
    read_only, (read_end, no_reader) = os.open(os.devnull, os.O_RDONLY), os.pipe()
    os.close(read_end)
    # a closed fd is inherited, then closed in the child
    stream = {OPEN: subprocess.PIPE, CLOSED: None, READ_ONLY: read_only, NO_READER: no_reader}
    closed = [fd for fd, state in zip((1, 2), run.fds) if state == CLOSED]
    code = f"patch = setattr\n{run.patch}from linegeo.cli import main_entry; main_entry()"
    try:
        done = subprocess.run([sys.executable, "-c", code, *run.argv.split()],
                              env=_child_env(run.env), stdout=stream[run.fds[0]],
                              stderr=stream[run.fds[1]],
                              preexec_fn=lambda: [os.close(fd) for fd in closed], timeout=60)
    finally:
        os.close(read_only)
        os.close(no_reader)
    return done.returncode, (done.stdout or b"").decode(), (done.stderr or b"").decode()


def _files(root, fifo_reads):
    """What ``root`` holds, in the form of ``Run.before``."""
    files, names = {}, {}
    for path in sorted(root.iterdir()):
        if path.is_symlink():
            files[path.name] = ("symlink", os.readlink(path))
        elif stat.S_ISFIFO((st := path.stat()).st_mode):
            files[path.name] = ("fifo", fifo_reads.get(path.name))
        elif (st.st_dev, st.st_ino) in names:
            files[path.name] = ("hardlink", names[st.st_dev, st.st_ino])
        else:
            names[st.st_dev, st.st_ino] = path.name
            files[path.name] = path.read_bytes().decode()
    return files


def _outcome(run, root, monkeypatch, capsys):
    """Make ``run`` in the new directory ``root``: its exit code, stdout,
    stderr and the files it leaves."""
    root.mkdir()
    fifo_reads, readers = {}, []
    for name, spec in run.before.items():
        path = root / name
        if isinstance(spec, str):
            path.write_bytes(spec.encode())
        elif spec[0] == "symlink":
            path.symlink_to(spec[1])
        elif spec[0] == "hardlink":
            os.link(root / spec[1], path)
        else:  # one reader reads the FIFO to the end, as `cat` does
            os.mkfifo(path)
            readers.append(threading.Thread(
                target=lambda path=path: fifo_reads.update({path.name: path.read_text()}),
                daemon=True))
            readers[-1].start()
    with monkeypatch.context() as patch:
        patch.chdir(root)
        for name in ("GEODESIC_LOG", "PYTHONUNBUFFERED"):  # a child's streams stay buffered
            patch.delenv(name, raising=False)
        if run.fds != (OPEN, OPEN):
            outcome = _child(run)
        else:
            for name, value in run.env.items():
                patch.setenv(name, value)
            exec(run.patch, {"patch": patch.setattr})
            capsys.readouterr()
            try:
                code = main(run.argv.split())
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            outcome = (code, *capsys.readouterr())
    for reader in readers:
        reader.join(timeout=30)
    return (*outcome, _files(root, fifo_reads))


def _contract_test(cells):
    """The test of one entry of ``IO_CONTRACT``: a dict's cases by id, as
    parameters, or a tuple's runs in turn; each run gets a new directory."""

    def check(runs, tmp_path, monkeypatch, capsys):
        for i, run in enumerate((runs,) if isinstance(runs, Run) else runs):
            if "/dev/full" in run.argv and not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            out = run.out
            if out is IN_PROCESS:
                same = run._replace(fds=(OPEN, OPEN))
                out = _outcome(same, tmp_path / f"{i}-in-process", monkeypatch, capsys)[1]
            files = run.before if run.after is None else run.after
            assert _outcome(run, tmp_path / str(i), monkeypatch, capsys) == (
                run.code, out, run.err, files
            ), run

    if isinstance(cells, dict):
        return pytest.mark.parametrize("runs", list(cells.values()), ids=list(cells))(check)
    return lambda tmp_path, monkeypatch, capsys: check(cells, tmp_path, monkeypatch, capsys)


# each entry of the table is the test of that name
globals().update((name, _contract_test(cells)) for name, cells in IO_CONTRACT.items())


# -- cold calls and the console script ------------------------------------------


#: modules a cold call should load only when its subcommand runs them: the
#: dataclasses machinery (with the inspect import it brings), the stepper,
#: the radial analysis, the invariant suite and the line-space geometry;
#: traceback, which only an internal error loads; logging, numpy and scipy,
#: which no call loads
LAZY_MODULES = (
    "dataclasses", "inspect", "logging", "linegeo.analysis", "linegeo.checks",
    "linegeo.geodesics", "linegeo.line_space", "numpy", "scipy", "traceback",
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
        (["GEODESIC_LOG=debug", "analyze", "blowup", "--I1", "1"], ["linegeo.analysis"]),
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


@pytest.mark.parametrize("level, first_line", [
    pytest.param("", "internal error", id="quiet"),
    pytest.param("info", "linegeo.cli ERROR: internal error", id="info"),
])
def test_cold_internal_error_exit_1_with_traceback(level, first_line):
    code, out, err = _child(Run("analyze blowup --I1 1", env={"GEODESIC_LOG": level}, patch=BOOM))
    assert (code, out) == (1, "")
    assert err.startswith(f"{first_line}\nTraceback (most recent call last):\n")
    assert err.endswith("\nRuntimeError: boom\nlinegeo: internal error: boom\n")


def test_console_entry_point_exists():
    result = _python(["-m", "linegeo.cli", "--help"])
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
