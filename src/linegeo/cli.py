"""Command-line front end.

Subcommands: ``normalize`` (sphere to standard form), ``geodesic``
(trajectory integration with CSV export; a lower-hemisphere start is
integrated and exported in zeta = 1/xi, which the CSV header and the
summary's ``chart`` key name, with I1 in the xi sense, so negative),
``analyze`` (blow-up time, effective potential, turning points, series
cross-check) and ``check`` (the cross-module invariant suite).  Each
handler imports the modules it runs, so a cold call loads only those.

Exit codes: 0 success, 1 internal error or failed checks, 2 usage
errors, 3 domain errors (invalid region, no orbit).  Set
``GEODESIC_LOG=debug`` or ``info`` for diagnostics on stderr; ``logging``
is imported only then or on an internal error.
"""

import argparse
import os
import sys
from contextlib import contextmanager

from .errors import DomainError, LineGeoError


def _log_info(msg, *args):
    # without `logging` loaded no handler exists that could show the record;
    # _configure_logging loads it when GEODESIC_LOG asks, or a host program has
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("linegeo.cli").info(msg, *args)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@contextmanager
def _out_stream(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_json(obj, path, fallback=None):
    import json

    text = json.dumps(obj, indent=2) + "\n"
    if path is None or path == "-":
        (fallback if fallback is not None else sys.stdout).write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _complex_flag(values) -> complex:
    return complex(values[0], values[1])


# -- subcommand handlers ------------------------------------------------------


def cmd_normalize(args) -> int:
    from . import sections

    sec = sections.QuadraticSection(
        _complex_flag(args.beta1), _complex_flag(args.beta2), _complex_flag(args.beta3)
    )
    cert = sections.normalize(sec)
    _log_info("normalized section to c = %.17g", cert.result.c)
    _write_json(sections.certificate_to_dict(cert), args.output)
    return 0


def _initial_state_usage_error(args) -> str | None:
    """What is wrong with the initial-condition flags of ``geodesic``, if
    anything (argparse cannot express these combinations)."""
    if args.xidot is not None and args.xi is None:
        return "--xidot requires --xi"
    given = [args.xi is not None, args.polar is not None, args.integrals is not None]
    if sum(given) != 1:
        return "give exactly one of --xi/--xidot, --polar or --integrals"
    if args.xi is not None and args.xidot is None:
        return "--xi requires --xidot"
    return None


def _initial_state(args) -> "geodesics.GeodesicState":
    from . import geodesics

    if args.xi is not None:
        return geodesics.GeodesicState(0.0, _complex_flag(args.xi), _complex_flag(args.xidot))
    if args.polar is not None:
        big_r, theta, rdot, thetadot = args.polar
        return geodesics.PolarState(big_r, theta, rdot, thetadot).to_state()
    i1, i2, r0 = args.integrals
    return geodesics.state_from_integrals(
        i1, i2, r0, theta0=args.theta0, outward=not args.inward
    )


def cmd_geodesic(args) -> int:
    from . import geodesics, sections

    state = _initial_state(args)
    sphere = sections.StandardSphere(args.c)
    traj = geodesics.integrate(state, sphere, args.t_max, args.tol)
    _log_info("integrated %d samples, termination %s", len(traj), traj.termination.value)

    with _out_stream(args.output) as fh:
        geodesics.write_csv(traj, fh)

    big_r = traj.radius
    summary = {
        "termination": traj.termination.value,
        "t_hit": traj.t_hit,
        "t_final": traj.t[-1],
        "I1": traj.integrals0.I1,
        "I2": traj.integrals0.I2,
        "max_drift_I1": traj.max_drift[0],
        "max_drift_I2": traj.max_drift[1],
        "n_samples": len(traj),
        "observed_R_min": min(big_r),
        "observed_R_max": max(big_r),
        "rejected_steps": traj.rejected_steps,
        "rhs_evals": traj.stats["rhs_evals"],
        "chart": traj.chart,
    }
    # keep the CSV stream clean: summary goes to stderr when the CSV
    # occupies stdout, to stdout once the CSV went to a file
    fallback = sys.stderr if args.output in (None, "-") else sys.stdout
    _write_json(summary, args.summary, fallback=fallback)
    return 0


def cmd_analyze(args) -> int:
    from . import analysis

    if args.what == "blowup":
        value = analysis.blowup_time(args.I1, args.r_start)
        if args.format == "json":
            _write_json(
                {"t_blowup": value, "I1": args.I1, "r_start": args.r_start}, args.output
            )
        else:
            with _out_stream(args.output) as fh:
                fh.write(_fmt(value) + "\n")
        return 0

    if args.what == "potential":
        rows = analysis.potential_curve(args.r_lo, args.r_hi, args.num)
        with _out_stream(args.output) as fh:
            fh.write("R,U_eff\n")
            for big_r, u in rows:
                fh.write(f"{_fmt(big_r)},{_fmt(u)}\n")
        return 0

    if args.what == "turning-points":
        tp = analysis.turning_points(args.I1, args.I2)
        _write_json(
            {"R_min": tp.R_min, "R_max": tp.R_max, "ratio": tp.ratio}, args.output
        )
        return 0

    # series-check
    if args.num < 1:
        raise DomainError(f"need at least 1 sample, got {args.num}")
    rs = analysis.linspace(args.r_lo, args.r_hi, args.num)
    rows = analysis.series_quadrature_table(rs)
    with _out_stream(args.output) as fh:
        fh.write("R,series,quadrature,diff\n")
        for big_r, s, q, d in rows:
            fh.write(f"{_fmt(big_r)},{_fmt(s)},{_fmt(q)},{_fmt(d)}\n")
    return 0


def cmd_check(args) -> int:
    from . import checks  # only this subcommand needs the invariant suite

    results = checks.run_checks(
        samples=args.samples,
        trajectories=args.trajectories,
        tol=args.tol,
        t_span=args.t_span,
        seed=args.seed,
    )
    all_passed = all(r.passed for r in results)
    report = {
        "config": {
            "samples": args.samples,
            "trajectories": args.trajectories,
            "tol": args.tol,
            "t_span": args.t_span,
            "seed": args.seed,
        },
        "all_passed": all_passed,
        "checks": [r.to_dict() for r in results],
    }
    _write_json(report, args.output)
    return 0 if all_passed else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linegeo",
        description="Geometry of oriented-line space and geodesics on twisting spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="put a quadratic sphere in standard form")
    for name in ("beta1", "beta2", "beta3"):
        p_norm.add_argument(
            f"--{name}", nargs=2, type=float, required=True, metavar=("RE", "IM")
        )
    p_norm.add_argument("--output", help="write the certificate JSON here (default stdout)")
    p_norm.set_defaults(handler=cmd_normalize)

    p_geo = sub.add_parser("geodesic", help="integrate a geodesic and export CSV")
    p_geo.add_argument("--c", type=float, default=1.0, help="sphere coefficient (c > 0)")
    p_geo.add_argument("--xi", nargs=2, type=float, metavar=("RE", "IM"))
    p_geo.add_argument("--xidot", nargs=2, type=float, metavar=("RE", "IM"))
    p_geo.add_argument(
        "--polar", nargs=4, type=float, metavar=("R", "THETA", "RDOT", "THETADOT")
    )
    p_geo.add_argument(
        "--integrals",
        nargs=3,
        type=float,
        metavar=("I1", "I2", "R0"),
        help="launch at radius R0 with the given first integrals",
    )
    p_geo.add_argument("--theta0", type=float, default=0.0)
    p_geo.add_argument(
        "--inward", action="store_true", help="negative initial radial velocity"
    )
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
    p_geo.set_defaults(handler=cmd_geodesic)

    p_ana = sub.add_parser("analyze", help="radial analysis outputs")
    ana_sub = p_ana.add_subparsers(dest="what", required=True)

    p_blow = ana_sub.add_parser("blowup", help="equator arrival time for radial motion")
    p_blow.add_argument("--I1", type=float, required=True)
    p_blow.add_argument("--r-start", type=float, default=0.0)
    p_blow.add_argument("--format", choices=("text", "json"), default="text")
    p_blow.add_argument("--output")
    p_blow.set_defaults(handler=cmd_analyze)

    p_pot = ana_sub.add_parser("potential", help="CSV of the effective potential")
    p_pot.add_argument("--r-lo", type=float, default=0.05)
    p_pot.add_argument("--r-hi", type=float, default=0.95)
    p_pot.add_argument("--num", type=int, default=181)
    p_pot.add_argument("--output")
    p_pot.set_defaults(handler=cmd_analyze)

    p_tp = ana_sub.add_parser("turning-points", help="orbit annulus for given integrals")
    p_tp.add_argument("--I1", type=float, required=True)
    p_tp.add_argument("--I2", type=float, required=True)
    p_tp.add_argument("--output")
    p_tp.set_defaults(handler=cmd_analyze)

    p_sc = ana_sub.add_parser(
        "series-check", help="CSV comparing series and quadrature evaluations"
    )
    p_sc.add_argument("--r-lo", type=float, default=0.05)
    p_sc.add_argument("--r-hi", type=float, default=0.95)
    p_sc.add_argument("--num", type=int, default=19)
    p_sc.add_argument("--output")
    p_sc.set_defaults(handler=cmd_analyze)

    p_chk = sub.add_parser("check", help="run the invariant suite")
    p_chk.add_argument("--samples", type=int, default=1000)
    p_chk.add_argument("--trajectories", type=int, default=6)
    p_chk.add_argument("--tol", type=float, default=1e-10)
    p_chk.add_argument("--t-span", type=float, default=6.0)
    p_chk.add_argument("--seed", type=int, default=2025)
    p_chk.add_argument("--output")
    p_chk.set_defaults(handler=cmd_check)

    return parser


def _configure_logging():
    level_name = os.environ.get("GEODESIC_LOG", "").strip().lower()
    if level_name in ("debug", "info"):
        import logging

        logging.basicConfig(
            stream=sys.stderr,
            level=level_name.upper(),
            format="%(name)s %(levelname)s: %(message)s",
        )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "geodesic":
        problem = _initial_state_usage_error(args)
        if problem is not None:
            parser.error(problem)  # exits with code 2
    try:
        return args.handler(args)
    except LineGeoError as exc:
        print(f"linegeo: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal failure
        import logging  # with no handler configured, its last resort prints to stderr

        logging.getLogger("linegeo.cli").exception("internal error")
        print(f"linegeo: internal error: {exc}", file=sys.stderr)
        return 1


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
