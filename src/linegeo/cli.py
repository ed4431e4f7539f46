"""Command-line front end.

Subcommands: ``normalize`` (sphere to standard form), ``geodesic``
(trajectory integration with CSV export; a lower-hemisphere start is
integrated and exported in zeta = 1/xi, which the CSV header and the
summary's ``chart`` key name, with I1 in the xi sense, so negative),
``analyze`` (blow-up time, effective potential, turning points, series
cross-check) and ``check`` (the cross-module invariant suite).  Each
handler imports the modules it runs, so a cold call loads only those;
the parser is built once per process.  ``main`` opens each output
flag's path once, for appending, before the handler runs, so a path that
cannot be opened costs no work, and refuses two flags on one regular
file.  A handler refuses and computes, then returns its exit code and
outputs, which ``main`` writes in order (a regular file emptied only
then, a FIFO or a device as a stream, a symlink through to its target).
A refusal, a failed write or an interrupt removes every file the run
created (at a link's target), so a run that exits 3 leaves every
existing output as it was.  JSON writes each value type by its fields,
in slot order (``_fields``).

Exit codes: 0 success, 1 internal error, failed checks or a closed
stdout (``>&-`` is refused before any work), 2 usage errors or an
unwritable output (a stdout that refuses writes too, under any
buffering), 3 domain errors (invalid region, no orbit).  A closed or
refusing stderr loses the diagnostics, the refusal line and a summary
routed there, never the exit code or stdout.  ``GEODESIC_LOG=debug`` or
``info`` (the same lines; the library writes nothing) gives
``linegeo.cli INFO: ...`` diagnostics.
"""

import argparse
import functools
import io
import os
import re
import stat
import sys

from .errors import LineGeoError, Record, write_table


def _diagnostics_on() -> bool:
    return os.environ.get("GEODESIC_LOG", "").strip().lower() in ("debug", "info")


class _Stderr(io.TextIOBase):
    def write(self, text):
        """To the current sys.stderr; a None (``2>&-``) or refusing one loses the text."""
        try:
            sys.stderr.write(text)
        except (AttributeError, OSError):  # dropped, or its buffer fails the exit flush (120)
            sys.stderr = None


_STDERR = _Stderr()  # every byte the CLI writes to stderr goes through it


def _log_info(msg, *args):
    if _diagnostics_on():
        _STDERR.write("linegeo.cli INFO: " + msg % args + "\n")


def _write_outputs(outputs, files):
    """Write each ``(flag, content)`` in turn, ``content`` text or a
    callable that writes to a stream, into the open ``files[flag]``; the
    first flag with no file goes to the current stdout, a later one to
    ``_STDERR``, which may lose it."""
    consoles = iter((sys.stdout, _STDERR))
    for flag, content in outputs:
        write = content if callable(content) else lambda fh, text=content: fh.write(text)
        if flag not in files:
            write(console := next(consoles))
            console.flush()  # a stdout that refuses the bytes fails here under any buffering
            continue
        with files[flag] as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not a FIFO or a device
                fh.truncate(0)  # appending, the writes then start at 0
            write(fh)


def _fields(obj):
    """The JSON form of a value type: a ``Record`` as the dict of its
    fields in slot order, a complex as [re, im]."""
    if isinstance(obj, Record):
        return dict(zip(obj.__slots__, obj._values()))
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj):
    import json

    return json.dumps(obj, indent=2, allow_nan=False, default=_fields) + "\n"


# -- subcommand handlers ------------------------------------------------------


def cmd_normalize(args):
    from . import sections

    sec = sections.QuadraticSection(
        complex(*args.beta1), complex(*args.beta2), complex(*args.beta3)
    )
    cert = sections.normalize(sec)
    _log_info("normalized section to c = %.17g", cert.result.c)
    return 0, [("output", _json_text(cert))]


def _geodesic_usage_error(args) -> str | None:
    """What is wrong with the flags that go with ``geodesic``'s launch mode,
    if anything (argparse makes the modes exclusive, but ties no flag to
    one)."""
    if args.xidot is not None and args.xi is None:
        return "--xidot requires --xi"
    if args.xi is not None and args.xidot is None:
        return "--xi requires --xidot"
    if args.integrals is None and args.theta0 is not None:
        return "--theta0 requires --integrals"
    if args.integrals is None and args.inward:
        return "--inward requires --integrals"
    return None


def _initial_state(args) -> "geodesics.GeodesicState":
    from . import geodesics

    if args.xi is not None:
        return geodesics.GeodesicState(0.0, complex(*args.xi), complex(*args.xidot))
    if args.polar is not None:
        big_r, theta, rdot, thetadot = args.polar
        return geodesics.state_from_polar(big_r, theta, rdot, thetadot)
    i1, i2, r0 = args.integrals
    theta0 = 0.0 if args.theta0 is None else args.theta0  # keeps the sign of -0
    return geodesics.state_from_integrals(i1, i2, r0, theta0=theta0, outward=not args.inward)


def cmd_geodesic(args):
    from . import geodesics

    traj = geodesics.integrate(_initial_state(args), args.t_max, args.tol)
    _log_info("integrated %d samples, termination %s", len(traj), traj.termination.value)
    big_r = traj.radius
    text = _json_text({
        "termination": traj.termination.value,
        "t_hit": traj.t_hit, "t_final": traj.t[-1],
        "I1": traj.integrals0.I1, "I2": traj.integrals0.I2,
        "max_drift_I1": traj.max_drift[0], "max_drift_I2": traj.max_drift[1],
        "n_samples": len(traj),
        "observed_R_min": min(big_r), "observed_R_max": max(big_r),
        "rejected_steps": traj.rejected_steps,
        "rhs_evals": traj.stats["rhs_evals"],
        "chart": traj.chart,
    })
    return 0, [("output", functools.partial(geodesics.write_csv, traj)), ("summary", text)]


def cmd_analyze(args):
    from . import analysis

    if args.what == "blowup":
        return 0, [("output", f"{analysis.blowup_time(args.I1, args.r_start):.17g}\n")]
    if args.what == "turning-points":
        return 0, [("output", _json_text(analysis.turning_points(args.I1, args.I2)))]
    if args.what == "potential":
        header, rows = "R,U_eff", analysis.potential_curve(args.r_lo, args.r_hi, args.num)
    else:  # series-check
        header = "R,series,quadrature,diff"
        rows = analysis.series_quadrature_table(args.r_lo, args.r_hi, args.num)
    return 0, [("output", functools.partial(write_table, header, rows))]


def cmd_check(args):
    from . import checks  # only this subcommand needs the invariant suite

    results = checks.run_checks(args.seed)
    for r in results:
        _log_info("check %-24s %s observed=%.3e threshold=%.1e",
                  r.name, "PASS" if r.passed else "FAIL", r.observed, r.threshold)
    all_passed = all(r.passed for r in results)
    config = {"samples": checks.SAMPLES, "trajectories": checks.TRAJECTORIES,
              "tol": checks.TOL, "t_span": checks.T_SPAN, "seed": args.seed}
    text = _json_text({"config": config, "all_passed": all_passed, "checks": results})
    return 0 if all_passed else 1, [("output", text)]


# -- parser -------------------------------------------------------------------


def _add_normalize(p_norm):
    for name in ("beta1", "beta2", "beta3"):
        p_norm.add_argument(
            f"--{name}", nargs=2, type=float, required=True, metavar=("RE", "IM")
        )
    p_norm.add_argument("--output", help="write the certificate JSON here (default stdout)")


def _add_geodesic(p_geo):
    launch = p_geo.add_mutually_exclusive_group(required=True)
    launch.add_argument("--xi", nargs=2, type=float, metavar=("RE", "IM"))
    launch.add_argument("--polar", nargs=4, type=float, metavar=("R", "THETA", "RDOT", "THETADOT"))
    launch.add_argument(
        "--integrals",
        nargs=3,
        type=float,
        metavar=("I1", "I2", "R0"),
        help="launch at radius R0 with the given first integrals",
    )
    p_geo.add_argument("--xidot", nargs=2, type=float, metavar=("RE", "IM"))
    p_geo.add_argument("--theta0", type=float, help="launch angle (--integrals only; default 0)")
    p_geo.add_argument("--inward", action="store_true", help="launch inward (--integrals only)")
    p_geo.add_argument("--t-max", type=float, default=10.0)
    p_geo.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="per-step relative error (default 1e-6; radial blow-up runs "
        "need a moderate tolerance to reach the equator cutoff)",
    )
    p_geo.add_argument("--output", help="trajectory CSV path (default stdout)")
    p_geo.add_argument(
        "--summary",
        help="summary JSON path (default: stderr if the CSV is on stdout, else stdout)",
    )


def _add_analyze(p_ana):
    ana_sub = p_ana.add_subparsers(dest="what", required=True)

    p_blow = ana_sub.add_parser("blowup", help="equator arrival time for radial motion")
    p_blow.add_argument("--I1", type=float, required=True)
    p_blow.add_argument("--r-start", type=float, default=0.0)
    p_pot = ana_sub.add_parser("potential", help="CSV of the effective potential")
    p_tp = ana_sub.add_parser("turning-points", help="orbit annulus for given integrals")
    p_tp.add_argument("--I1", type=float, required=True)
    p_tp.add_argument("--I2", type=float, required=True)
    p_sc = ana_sub.add_parser(
        "series-check", help="CSV comparing series and quadrature evaluations"
    )
    for p_csv, num in ((p_pot, 181), (p_sc, 19)):  # the two tables of R in [r-lo, r-hi]
        p_csv.add_argument("--r-lo", type=float, default=0.05)
        p_csv.add_argument("--r-hi", type=float, default=0.95)
        p_csv.add_argument("--num", type=int, default=num)
    for p in (p_blow, p_pot, p_tp, p_sc):
        p.add_argument("--output")


def _add_check(p_chk):
    p_chk.add_argument("--seed", type=int, default=2025)
    p_chk.add_argument("--output")


#: each subcommand's help line, handler and arguments, in ``-h`` order
_SUBCOMMANDS = {
    "normalize": ("put a quadratic sphere in standard form", cmd_normalize, _add_normalize),
    "geodesic": ("integrate a geodesic and export CSV", cmd_geodesic, _add_geodesic),
    "analyze": ("radial analysis outputs", cmd_analyze, _add_analyze),
    "check": ("run the invariant suite", cmd_check, _add_check),
}


class _Parser(argparse.ArgumentParser):
    """Takes "-" or "-." and a digit, or "-" and inf or nan in any case,
    for a number: argparse took -1e-3 for an option on Python 3.11, and
    -inf and -nan on every Python.  Its subparsers share it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse's usage and error lines, through _STDERR
        _STDERR.write(f"{self.format_usage()}{self.prog}: error: {message}\n")
        sys.exit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, every subcommand with its handler and
    arguments; built once per process."""
    parser = _Parser(
        prog="linegeo",
        description="Geometry of oriented-line space and geodesics on twisting spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, add_arguments) in _SUBCOMMANDS.items():
        p_cmd = sub.add_parser(name, help=help_line)
        p_cmd.set_defaults(handler=handler)
        add_arguments(p_cmd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "geodesic":
        problem = _geodesic_usage_error(args)
        if problem is not None:
            parser.error(problem)  # exits with code 2
    files, created = {}, []
    try:
        # each flag's path opened once, truncating nothing: a bad one costs no work
        for flag in ("output", "summary"):
            if (path := getattr(args, flag, None)) not in (None, "-"):
                new = not os.path.exists(path)
                files[flag] = open(path, "a", newline="")
                if new:
                    created.append(os.path.realpath(path))
        # a summary written over the CSV; a device such as /dev/null takes both
        stats = [os.fstat(fh.fileno()) for fh in files.values()]
        if len(stats) == 2 and os.path.samestat(*stats) and stat.S_ISREG(stats[0].st_mode):
            parser.error("--summary names the --output file")  # exits with code 2
        if sys.stdout is None and any(f not in files for f in ("output", "summary") if f in args):
            return 1  # started with fd 1 closed (`>&-`): as a closed pipe, before any work
        code, outputs = args.handler(args)
        _write_outputs(outputs, files)
        created = []  # every output is written: keep them
        return code
    except BrokenPipeError:  # a reader that closed the output early (`| head`)
        return 1
    except (LineGeoError, OSError) as exc:  # a refusal, or an unwritable output: one line
        _STDERR.write(f"linegeo: {exc}\n")
        return 3 if isinstance(exc, LineGeoError) else 2
    except Exception as exc:  # internal failure
        import traceback

        _STDERR.write(("linegeo.cli ERROR: " if _diagnostics_on() else "") + "internal error\n"
                      + traceback.format_exc() + f"linegeo: internal error: {exc}\n")
        return 1
    finally:
        for fh in files.values():
            fh.close()
        for path in created:
            os.remove(path)


def main_entry():
    code = main()
    try:
        if sys.stdout is not None:  # None when started with fd 1 closed (`>&-`)
            sys.stdout.flush()
    except OSError:
        # main reported the failed write; send the interpreter's last flush
        # of what is still buffered to devnull, which keeps main's exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
