"""Cross-module invariant suite behind the ``check`` CLI command.

Each check samples randomly (seeded), records the worst observed error
against its threshold, and reports a margin; the two invariance checks
share their samples, and the two orbit checks (conservation_drift and
energy_identity) their orbits.  The suite only returns its results; the
CLI reports and logs them.
"""

import random
from cmath import rect
from math import hypot, log, pi, sqrt, tau

from . import analysis, geodesics, line_space, sections
from .errors import Record
from .line_space import ComplexPair, Rotation, TangentVector, Translation
from .sections import QuadraticSection, rotate_section, translate_section


#: the suite's one plan: invariance draws, sampled orbits, their tolerance
#: and span; the thresholds below hold for this plan, which CI runs on
#: seeds 0..599
SAMPLES, TRAJECTORIES, TOL, T_SPAN = 1000, 6, 1e-10, 6.0


class CheckResult(Record):
    """One check's outcome: the worst observed error against its threshold,
    and the margin threshold/observed, capped at 1e12, and at 1 on a
    failure (a second criterion's), so that a margin above 1 means a pass."""

    __slots__ = ("name", "passed", "threshold", "observed", "margin", "detail")

    def __init__(self, name, passed, threshold, observed, detail=""):
        margin = min(threshold / max(observed, 1e-300), 1e12 if passed else 1.0)
        self._init_fields(name, passed, threshold, observed, margin, detail)


def _normal_pairs(rng):
    """Complex numbers with independent standard normal parts, each by one
    Box-Muller draw: a Rayleigh modulus at a uniform angle."""
    draw = rng.random
    while True:
        yield rect(sqrt(-2.0 * log(1.0 - draw())), tau * draw())


def _pairing_scale(u, v):
    """Size of the terms the metric and the symplectic form sum before
    they cancel: 2(1+4|xi||eta|/(1+|xi|^2)) |u| |v| / (1+|xi|^2)^2.
    A near-cancelling pairing has |result| far below its rounding error,
    which scales with this size instead."""
    r = abs(u.base.xi)
    pp = 1.0 + r**2
    norm_u = hypot(abs(u.dxi), abs(u.deta))
    norm_v = hypot(abs(v.dxi), abs(v.deta))
    twist = 4.0 * r * abs(u.base.eta) / pp
    return 2.0 * (1.0 + twist) * norm_u * norm_v / pp**2


def _invariance_checks(samples, rng, threshold):
    """isometry_metric and symplectomorphism in one pass: each draw is
    pushed forward once, and the metric and the symplectic form compared.
    Each sample draws a base point, u and v, then a motion: a translation
    or a rotation with even odds."""
    metric, omega, push = line_space.metric, line_space.symplectic_form, line_space.push_forward
    pairing_scale = _pairing_scale
    normal = _normal_pairs(rng).__next__
    draw, gauss = rng.random, rng.gauss
    worst_g = worst_w = 0.0
    for _ in range(samples):
        base = ComplexPair(normal(), normal())
        u = TangentVector(base, normal(), normal())
        v = TangentVector(base, normal(), normal())
        if draw() < 0.5:
            m = Translation(normal(), gauss(0.0, 1.0))
        else:
            m = Rotation(normal(), normal())
        pu, pv = push(m, u), push(m, v)
        scale = pairing_scale(u, v)
        # each error relative to the larger of |before| and scale; the
        # conditionals pick what max() would, NaN included
        before = metric(u, v)
        size = abs(before)
        err = abs(metric(pu, pv) - before) / (scale if scale > size else size)
        if err > worst_g:
            worst_g = err
        before = omega(u, v)
        size = abs(before)
        err = abs(omega(pu, pv) - before) / (scale if scale > size else size)
        if err > worst_w:
            worst_w = err
    return [CheckResult(name, worst < threshold, threshold, worst, f"{samples} samples")
            for name, worst in (("isometry_metric", worst_g), ("symplectomorphism", worst_w))]


#: the largest I1/I2^2 of a sampled orbit; keeps its annulus off the equator
MAX_ORBIT_RATIO = 60.0


def sample_orbit_state(rng):
    """A generic oscillating initial condition on the upper hemisphere,
    with I1/I2^2 at most ``MAX_ORBIT_RATIO``."""
    while True:
        big_r = rng.uniform(0.15, 0.8)
        theta = rng.uniform(0.0, 2.0 * pi)
        rdot = rng.uniform(-1.0, 1.0)
        thetadot = rng.uniform(-2.0, 2.0)
        state = geodesics.state_from_polar(big_r, theta, rdot, thetadot)
        ints = geodesics.first_integrals(state)
        if ints.I2 != 0.0 and ints.I1 / ints.I2**2 <= MAX_ORBIT_RATIO:
            return state


def _orbit_checks(trajectories, tol, t_span, rng, threshold):
    """conservation_drift and energy_identity in one pass: each orbit is
    drawn and integrated once, and its drift and the residual of
    I1 = U(R) I2^2 + f Rdot^2 measured on it at every sample, whose R
    ``MAX_ORBIT_RATIO`` keeps inside (0, 1)."""
    worst_drift = worst_energy = 0.0
    scored = 0
    for _ in range(trajectories):
        traj = geodesics.integrate(sample_orbit_state(rng), t_span, tol)
        worst_drift = max(worst_drift, *traj.max_drift)
        for xi, xidot, i1, i2 in zip(traj.xi, traj.xidot, *traj.integrals):
            big_r = abs(xi)
            rdot = (xi.conjugate() * xidot).real / big_r
            u, f = analysis.effective_potential(big_r), geodesics._conformal(big_r * big_r)
            worst_energy = max(worst_energy, abs(i1 - u * i2**2 - f * rdot**2))
            scored += 1
    return [
        CheckResult("conservation_drift", worst_drift < threshold, threshold, worst_drift,
                    f"{trajectories} trajectories, tol={tol:g}, span={t_span:g}"),
        CheckResult("energy_identity", worst_energy < threshold, threshold, worst_energy,
                    f"{scored} samples"),
    ]


def _triple_agreement_check(threshold_pair, threshold_ode):
    table = analysis.series_quadrature_table()
    worst_pair = max(abs(diff) for *_, diff in table)
    # one radial blow-up cross-check against the ODE hit time
    state = geodesics.GeodesicState(0.0, 0.0, 1.0)
    traj = geodesics.integrate(state, 10.0, 1e-6)
    reached = traj.termination is geodesics.Termination.EQUATOR_REACHED
    predicted = analysis.blowup_time(1.0)
    # a run that stops short is measured by where it stopped, so that the
    # report holds a finite error
    ode_err = abs((traj.t_hit if reached else traj.t[-1]) - predicted) / predicted
    passed = reached and worst_pair < threshold_pair and ode_err < threshold_ode
    return CheckResult(
        "triple_agreement",
        passed,
        threshold_ode,
        max(worst_pair, ode_err),
        f"series-quadrature worst {worst_pair:.3e} (limit {threshold_pair:g}), "
        f"ODE hit-time relative error {ode_err:.3e}"
        + ("" if reached else f"; radial run terminated by {traj.termination.value}"),
    )


def _normalization_check(samples, rng, threshold_resid, threshold_inv):
    worst_resid = 0.0
    worst_inv = 0.0
    for _ in range(samples):
        b1r, b1i, b2r, b2i, b3r, b3i = [rng.uniform(-10.0, 10.0) for _ in range(6)]
        sec = QuadraticSection(complex(b1r, b1i), complex(b2r, b2i), complex(b3r, b3i))
        cert = sections.normalize(sec)
        c = cert.result.c
        moved = rotate_section(translate_section(sec, cert.translation), cert.rotation)
        worst_resid = max(
            worst_resid,
            abs(moved.beta1),
            abs(moved.beta3),
            abs(moved.beta2.real),
            abs(moved.beta2.imag - c),
        )
        invariant = sqrt(
            sec.beta2.imag ** 2 + abs(sec.beta1 + sec.beta3.conjugate()) ** 2
        )
        worst_inv = max(worst_inv, abs(c - invariant))
    passed = worst_resid < threshold_resid and worst_inv < threshold_inv
    return CheckResult(
        "normalization_residual",
        passed,
        threshold_resid,
        max(worst_resid, worst_inv),
        f"{samples} sections; invariant worst {worst_inv:.3e} (limit {threshold_inv:g})",
    )


def run_checks(seed: int = 2025) -> list[CheckResult]:
    """Run the full invariant suite on the plan above, drawing from
    ``random.Random(seed)``; returns one result per check."""
    rng = random.Random(seed)
    results = _invariance_checks(SAMPLES, rng, 1e-10)
    conservation, energy = _orbit_checks(TRAJECTORIES, TOL, T_SPAN, rng, 1e-8)
    results += [
        conservation,
        _triple_agreement_check(1e-10, 1e-4),
        energy,
        _normalization_check(SAMPLES // 5, rng, 1e-9, 1e-10),
    ]
    return results
