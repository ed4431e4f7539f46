"""Seeded operation mixes, their reference values and the output checks.

Every workload is closed loop: one client issues the next operation when
the previous one has finished.  Operations come in cycles whose make-up
is fixed, so each run sees the same mix whatever its seed and length.
The program only ever sees the generated argv; every reference value is
computed here, from the argv strings, independently of ``linegeo``.
"""

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath

MIN_RATIO = 6.0 * math.sqrt(3.0)
CRITICAL_RADIUS = math.sqrt(2.0 - math.sqrt(3.0))
#: orbits with I1/I2^2 up to this keep R_max below 0.83; more eccentric
#: orbits pass close to the equator and their first integrals drift past
#: 1e-8 by t = 100 at tol 1e-10 (the drift grows linearly in t)
MAX_ORBIT_RATIO = 22.0
#: radial runs reach the equator at this tolerance (6000 of 6000 sampled
#: starts); from 1e-7 down some stop in step_underflow (ROADMAP Open item
#: 4), and the timed workloads hold only operations that succeed
RADIAL_TOL = "1e-6"
#: tolerances at which radial runs stop in step_underflow today: 1.5% of
#: starts at 1e-7, about half at 1e-8..1e-9, nearly all at 1e-10..1e-12
UNDERFLOW_TOLS = ("1e-7", "1e-8", "1e-9", "1e-10", "1e-11", "1e-12")
#: ``check --seed`` values in 0..599 whose suite fails an invariance check
#: on a near-zero pairing (relative error of a pairing of order 1e-6)
FAILING_CHECK_SEEDS = (70, 72, 380, 437, 534)
CHECK_SEEDS = tuple(s for s in range(600) if s not in FAILING_CHECK_SEEDS)


@dataclass
class Op:
    kind: str
    argv: list
    ref: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # role -> path the op writes


def arg(x):
    """Fixed-point text for a flag value: argparse would read a negative
    number in exponent form as an option."""
    return format(x, ".12f")


def travel_time(r):
    """Radial travel-time primitive Q(R) = int_0^R sqrt(1-r^2)/(1+r^2)^{3/2} dr."""
    with mpmath.workdps(30):
        return mpmath.quad(lambda s: mpmath.sqrt(1 - s * s) / (1 + s * s) ** 1.5, [0, r])


@lru_cache(maxsize=None)
def equator_constant():
    """Q(1) = 0.599070..., the blow-up time from the pole at I1 = 1."""
    return float(travel_time(1))


def potential(r):
    r2 = r * r
    return (1.0 + r2) ** 3 / ((1.0 - r2) * r2)


def annulus(ratio):
    """The two roots of U(R) = ratio, by bisection on each side of the
    potential minimum."""

    def root(lo, hi, rising):
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if (potential(mid) > ratio) == rising:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return root(1e-9, CRITICAL_RADIUS, False), root(CRITICAL_RADIUS, 1.0 - 1e-15, True)


# -- operation generators ----------------------------------------------------


def _radial(rng, tol, csv_path, summary_path=None):
    v, phi = rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi)
    vre, vim = arg(v * math.cos(phi)), arg(v * math.sin(phi))
    argv = ["geodesic", "--xi", "0", "0", "--xidot", vre, vim, "--t-max", "10",
            "--tol", tol, "--output", csv_path]
    files = {"csv": csv_path}
    if summary_path is not None:
        argv += ["--summary", summary_path]
        files["summary"] = summary_path
    i1 = float(vre) ** 2 + float(vim) ** 2
    return Op("radial", argv, {"t_hit": equator_constant() / math.sqrt(i1)}, files)


def cli_cold_cycle(rng, tmp):
    """normalize, blow-up on the series and on the quadrature branch,
    turning points, series check and a radial geodesic export."""
    b = [arg(rng.uniform(-10.0, 10.0)) for _ in range(6)]
    beta1, beta2, beta3 = (complex(float(b[i]), float(b[i + 1])) for i in (0, 2, 4))
    normalize = Op(
        "normalize",
        ["normalize", "--beta1", b[0], b[1], "--beta2", b[2], b[3], "--beta3", b[4], b[5]],
        {"c": math.sqrt(beta2.imag ** 2 + abs(beta1 + beta3.conjugate()) ** 2)},
    )

    ops = [normalize]
    for lo, hi in ((0.0, 0.95), (0.95, 0.999)):  # series branch, quadrature branch
        i1, r0 = arg(rng.uniform(0.25, 4.0)), arg(rng.uniform(lo, hi))
        travelled = travel_time(float(r0))
        ref = float((travel_time(1) - travelled) / mpmath.sqrt(float(i1)))
        ops.append(Op("blowup", ["analyze", "blowup", "--I1", i1, "--r-start", r0], {"t": ref}))

    i2 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)
    ratio = MIN_RATIO * rng.uniform(1.001, 20.0)
    i1s, i2s = arg(ratio * i2 * i2), arg(i2)
    ops.append(Op("turning_points", ["analyze", "turning-points", "--I1", i1s, "--I2", i2s],
                  {"ratio": float(i1s) / float(i2s) ** 2}))

    num = rng.randint(10, 30)
    ops.append(Op("series_check", ["analyze", "series-check", "--r-lo", arg(rng.uniform(0.01, 0.3)),
                                   "--r-hi", arg(rng.uniform(0.6, 0.95)), "--num", str(num)],
                  {"rows": num}))
    ops.append(_radial(rng, RADIAL_TOL, f"{tmp}/cli_cold.csv"))
    rng.shuffle(ops)
    return ops


def _polar_orbit(rng):
    # rejection sampling as in the check suite's orbit sampler, with the
    # speed held in a band so that the cost of an orbit stays comparable
    while True:
        big_r, theta = rng.uniform(0.15, 0.8), rng.uniform(0.0, 2.0 * math.pi)
        rdot, thetadot = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
        f = (1.0 - big_r ** 2) / (1.0 + big_r ** 2) ** 3
        i1 = f * (rdot ** 2 + (big_r * thetadot) ** 2)
        i2 = f * big_r ** 2 * thetadot
        if i2 != 0.0 and 0.4 <= i1 <= 0.8 and i1 / i2 ** 2 <= MAX_ORBIT_RATIO:
            return ["--polar", arg(big_r), arg(theta), arg(rdot), arg(thetadot)]


def _integrals_orbit(rng):
    i1, ratio = rng.uniform(0.4, 0.8), rng.uniform(11.0, MAX_ORBIT_RATIO)
    i2 = rng.choice((-1.0, 1.0)) * math.sqrt(i1 / ratio)
    r_min, r_max = annulus(ratio)
    r0 = r_min + (r_max - r_min) * rng.uniform(0.1, 0.9)
    argv = ["--integrals", arg(i1), arg(i2), arg(r0), "--theta0", arg(rng.uniform(0.0, 6.28))]
    return argv + (["--inward"] if rng.random() < 0.5 else [])


def geodesic_export_cycle(rng, tmp):
    """Eight long oscillating orbits at tol 1e-10 with t_max stratified
    over 50..100, and two radial blow-ups at RADIAL_TOL."""
    csv_path, summary_path = f"{tmp}/geodesic.csv", f"{tmp}/geodesic.json"
    files = {"csv": csv_path, "summary": summary_path}
    strata = list(range(8))
    rng.shuffle(strata)
    ops = []
    for slot, stratum in enumerate(strata):
        start = _integrals_orbit(rng) if slot < 4 else _polar_orbit(rng)
        t_max = arg(50.0 + 50.0 * (stratum + rng.random()) / 8)
        argv = ["geodesic", *start, "--t-max", t_max, "--tol", "1e-10",
                "--output", csv_path, "--summary", summary_path]
        ops.append(Op("orbit", argv, {}, dict(files)))
    for _ in range(2):
        ops.append(_radial(rng, RADIAL_TOL, csv_path, summary_path))
    rng.shuffle(ops)
    return ops


def check_suite_cycle(rng, tmp):
    """One default-size invariant suite with a seed drawn from CHECK_SEEDS."""
    path = f"{tmp}/check.json"
    return [Op("check", ["check", "--seed", str(rng.choice(CHECK_SEEDS)), "--output", path],
               {}, {"report": path})]


class Workload:
    """A named, seeded stream of operation cycles."""

    def __init__(self, name, seed, tmp):
        self.name = name
        self.in_process = name != "cli_cold"
        self.rng = random.Random(f"{name}:{seed}")
        self.tmp = tmp
        self.cycles = 0

    def _cycle(self, rng):
        if self.name == "cli_cold":
            return cli_cold_cycle(rng, self.tmp)
        if self.name == "geodesic_export":
            return geodesic_export_cycle(rng, self.tmp)
        return check_suite_cycle(rng, self.tmp)

    def next_cycle(self):
        self.cycles += 1
        return self._cycle(self.rng)

    def warmup_op(self):
        """An operation drawn from a fixed seed (a long orbit on
        geodesic_export), so that set-up does the same work whatever the
        seed."""
        cycle = self._cycle(random.Random(f"{self.name}:warm-up"))
        return next((op for op in cycle if op.kind == "orbit"), cycle[0])


WORKLOADS = ("cli_cold", "geodesic_export", "check_suite")


def known_defect_ops(tmp, starts=20):
    """Operations that fail today: ``starts`` radial runs at each of
    UNDERFLOW_TOLS and the checks of FAILING_CHECK_SEEDS.  They are kept
    out of the timed workloads and run untimed by ``bench/report.py``."""
    rng = random.Random("known-defects")
    ops = [_radial(rng, tol, f"{tmp}/defect.csv", f"{tmp}/defect.json")
           for tol in UNDERFLOW_TOLS for _ in range(starts)]
    path = f"{tmp}/defect-check.json"
    ops += [Op("check", ["check", "--seed", str(s), "--output", path], {}, {"report": path})
            for s in FAILING_CHECK_SEEDS]
    return ops


# -- output checks -----------------------------------------------------------


class Mismatch(Exception):
    """An operation's output disagrees with its reference."""


class KnownDefect(Mismatch):
    """A failure the program is known to have, not a wrong answer: a
    radial run that stops in step_underflow short of the equator (ROADMAP
    Open item 4), or a ``check`` whose only failures are invariance
    checks tripped by relative error on a near-zero pairing."""


#: an invariance check failing below this is the near-zero-pairing defect
INVARIANCE_DEFECT_LIMIT = 1e-8


def _check_report(op, rc):
    with open(op.files["report"]) as fh:
        report = json.load(fh)
    failing = [c for c in report["checks"] if not c["passed"]]
    if rc == 0 and report["all_passed"] is True and not failing:
        return
    if rc == 1 and failing and all(
        c["name"] in ("isometry_metric", "symplectomorphism")
        and c["observed"] < INVARIANCE_DEFECT_LIMIT
        for c in failing
    ):
        raise KnownDefect("invariance check failed on a near-zero pairing: "
                          + ", ".join(f"{c['name']} {c['observed']:.2e}" for c in failing))
    raise Mismatch(f"exit code {rc}, failing checks {[c['name'] for c in failing]}")


def _summary(op, stdout):
    if "summary" in op.files:
        with open(op.files["summary"]) as fh:
            return json.load(fh)
    return json.loads(stdout)


def _check_csv(path, n_samples):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != n_samples + 1:
        raise Mismatch(f"CSV has {len(rows)} rows, expected n_samples + 1 = {n_samples + 1}")
    if any(len(row) != 9 for row in rows):
        raise Mismatch("CSV row without 9 columns")


def _check_geodesic(op, stdout):
    summary = _summary(op, stdout)
    term = summary["termination"]
    if op.kind == "radial":
        if term == "step_underflow":
            raise KnownDefect(f"radial run at tol {op.argv[op.argv.index('--tol') + 1]} ended in step_underflow")
        if term != "equator_reached":
            raise Mismatch(f"radial run ended in {term}")
        err = abs(summary["t_hit"] - op.ref["t_hit"]) / op.ref["t_hit"]
        if not err <= 1e-4:
            raise Mismatch(f"t_hit relative error {err:.3e} > 1e-4")
    else:
        if term != "time_limit":
            raise Mismatch(f"orbit ended in {term}")
        drift = max(summary["max_drift_I1"], summary["max_drift_I2"])
        if not drift <= 1e-8:
            raise Mismatch(f"peak drift {drift:.3e} > 1e-8")
    _check_csv(op.files["csv"], summary["n_samples"])
    return summary["n_samples"] - 1


def check(op, rc, stdout):
    """Raise Mismatch unless the operation's output matches its reference.
    Returns the number of exported integrator steps."""
    if op.kind == "check":
        _check_report(op, rc)
        return 0
    if rc != 0:
        raise Mismatch(f"exit code {rc}")
    if op.kind in ("orbit", "radial"):
        return _check_geodesic(op, stdout)
    if op.kind == "normalize":
        c = json.loads(stdout)["result"]["c"]
        if not abs(c - op.ref["c"]) <= 1e-9:
            raise Mismatch(f"c = {c!r}, reference {op.ref['c']!r}")
    elif op.kind == "blowup":
        t = float(stdout)
        if not abs(t - op.ref["t"]) <= 1e-10:
            raise Mismatch(f"blow-up time {t!r}, reference {op.ref['t']!r}")
    elif op.kind == "turning_points":
        tp = json.loads(stdout)
        ratio = op.ref["ratio"]
        for key in ("R_min", "R_max"):
            err = abs(potential(tp[key]) - ratio) / ratio
            if not err <= 1e-6:
                raise Mismatch(f"U({key}) relative error {err:.3e} > 1e-6")
        if not tp["R_min"] <= CRITICAL_RADIUS <= tp["R_max"]:
            raise Mismatch("annulus does not contain sqrt(2 - sqrt(3))")
    elif op.kind == "series_check":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != op.ref["rows"]:
            raise Mismatch(f"{len(rows)} rows, expected {op.ref['rows']}")
        worst = max(abs(float(row["diff"])) for row in rows)
        if not worst <= 1e-10:
            raise Mismatch(f"series-quadrature |diff| {worst:.3e} > 1e-10")
    return 0
