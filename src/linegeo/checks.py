"""Cross-module invariant suite behind the ``check`` CLI command.

Each check samples randomly (seeded), records the worst observed error
against its threshold, and reports a margin; the two invariance checks
share their samples.  Results are logged on ``linegeo.checks`` at info
level once ``logging`` is loaded (the CLI loads it when ``GEODESIC_LOG``
is set).
"""

import cmath
import math
import random
import sys

from . import analysis, geodesics, line_space, sections
from .errors import DomainError, Record
from .line_space import ComplexPair, Rotation, TangentVector, Translation


class CheckResult(Record):
    """One check's outcome: the worst observed error against its threshold."""

    __slots__ = ("name", "passed", "threshold", "observed", "detail")

    def __init__(self, name, passed, threshold, observed, detail=""):
        self._init_fields(name, passed, threshold, observed, detail)

    @property
    def margin(self) -> float:
        return min(self.threshold / max(self.observed, 1e-300), 1e12)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "threshold": self.threshold,
            "observed": self.observed,
            "margin": self.margin,
            "detail": self.detail,
        }


def _normal_pair(rng):
    """A complex number with independent standard normal parts, by one
    Box-Muller draw: a Rayleigh modulus at a uniform angle."""
    modulus = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
    return cmath.rect(modulus, 2.0 * math.pi * rng.random())


def _random_motion(rng):
    if rng.random() < 0.5:
        return Translation(_normal_pair(rng), rng.gauss(0.0, 1.0))
    return Rotation(_normal_pair(rng), _normal_pair(rng))


def _random_tangent(rng, base):
    return TangentVector(base, _normal_pair(rng), _normal_pair(rng))


def _pairing_scale(u, v):
    """Size of the terms the metric and the symplectic form sum before
    they cancel: 2(1+4|xi||eta|/(1+|xi|^2)) |u| |v| / (1+|xi|^2)^2.
    A near-cancelling pairing has |result| far below its rounding error,
    which scales with this size instead."""
    pp = 1.0 + abs(u.base.xi) ** 2
    norm_u = math.hypot(abs(u.dxi), abs(u.deta))
    norm_v = math.hypot(abs(v.dxi), abs(v.deta))
    twist = 4.0 * abs(u.base.xi) * abs(u.base.eta) / pp
    return 2.0 * (1.0 + twist) * norm_u * norm_v / pp**2


def _invariance_checks(samples, rng, threshold):
    """isometry_metric and symplectomorphism in one pass: each draw is
    pushed forward once, and the metric and the symplectic form compared."""
    metric, omega, push = line_space.metric, line_space.symplectic_form, line_space.push_forward
    worst_g = worst_w = 0.0
    for _ in range(samples):
        base = ComplexPair(_normal_pair(rng), _normal_pair(rng))
        u = _random_tangent(rng, base)
        v = _random_tangent(rng, base)
        m = _random_motion(rng)
        pu, pv = push(m, u), push(m, v)
        scale = _pairing_scale(u, v)
        before = metric(u, v)
        worst_g = max(worst_g, abs(metric(pu, pv) - before) / max(abs(before), scale))
        before = omega(u, v)
        worst_w = max(worst_w, abs(omega(pu, pv) - before) / max(abs(before), scale))
    return [CheckResult(name, worst < threshold, threshold, worst, f"{samples} samples")
            for name, worst in (("isometry_metric", worst_g), ("symplectomorphism", worst_w))]


def sample_orbit_state(rng, max_ratio=60.0):
    """A generic oscillating initial condition on the upper hemisphere,
    with the orbit annulus kept away from the degenerate equator."""
    while True:
        big_r = rng.uniform(0.15, 0.8)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rdot = rng.uniform(-1.0, 1.0)
        thetadot = rng.uniform(-2.0, 2.0)
        state = geodesics.PolarState(big_r, theta, rdot, thetadot).to_state()
        ints = geodesics.first_integrals(state)
        if ints.I2 != 0.0 and ints.I1 / ints.I2**2 <= max_ratio:
            return state


def _conservation_check(trajectories, tol, t_span, rng, threshold):
    sphere = sections.StandardSphere(1.0)
    worst = 0.0
    for _ in range(trajectories):
        state = sample_orbit_state(rng)
        traj = geodesics.integrate(state, sphere, t_span, tol)
        worst = max(worst, *traj.max_drift)
    return CheckResult("conservation_drift", worst < threshold, threshold, worst,
                       f"{trajectories} trajectories, tol={tol:g}, span={t_span:g}")


def _triple_agreement_check(threshold_pair, threshold_ode):
    rs = analysis.linspace(0.05, 0.95, 19)
    worst_pair = max(
        abs(analysis.appell_f1_series(r) - analysis.radial_quadrature(r)) for r in rs
    )
    # one radial blow-up cross-check against the ODE hit time
    state = geodesics.GeodesicState(0.0, 0.0, 1.0)
    traj = geodesics.integrate(state, sections.StandardSphere(1.0), 10.0, 1e-6)
    if traj.termination is not geodesics.Termination.EQUATOR_REACHED:
        return CheckResult(
            "triple_agreement", False, threshold_ode, math.inf,
            f"radial run terminated by {traj.termination.value}",
        )
    predicted = analysis.blowup_time(1.0)
    ode_err = abs(traj.t_hit - predicted) / predicted
    passed = worst_pair < threshold_pair and ode_err < threshold_ode
    return CheckResult(
        "triple_agreement",
        passed,
        threshold_ode,
        max(worst_pair, ode_err),
        f"series-quadrature worst {worst_pair:.3e} (limit {threshold_pair:g}), "
        f"ODE hit-time relative error {ode_err:.3e}",
    )


def _energy_identity_check(tol, t_span, rng, threshold):
    sphere = sections.StandardSphere(1.0)
    state = sample_orbit_state(rng)
    traj = geodesics.integrate(state, sphere, t_span, tol)
    worst = 0.0
    kept = 0
    for xi, xidot, i1, i2 in zip(traj.xi, traj.xidot, *traj.integral_series()):
        big_r = abs(xi)
        if not 1e-3 <= big_r <= 1.0 - 1e-3:
            continue
        r2 = big_r**2
        u = (1.0 + r2) ** 3 / ((1.0 - r2) * r2)
        f = (1.0 - r2) / (1.0 + r2) ** 3
        rdot = (xi.conjugate() * xidot).real / big_r
        worst = max(worst, abs(i1 - u * i2**2 - f * rdot**2))
        kept += 1
    return CheckResult("energy_identity", worst < threshold, threshold, worst, f"{kept} samples")


def _normalization_check(samples, rng, threshold_resid, threshold_inv):
    worst_resid = 0.0
    worst_inv = 0.0
    for _ in range(samples):
        z = [rng.uniform(-10.0, 10.0) for _ in range(6)]
        sec = sections.QuadraticSection(
            complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5])
        )
        cert = sections.normalize(sec)
        moved = sections.transform_section(
            sections.transform_section(sec, cert.translation), cert.rotation
        )
        worst_resid = max(
            worst_resid,
            abs(moved.beta1),
            abs(moved.beta3),
            abs(moved.beta2.real),
            abs(moved.beta2.imag - cert.result.c),
        )
        invariant = math.sqrt(
            sec.beta2.imag ** 2 + abs(sec.beta1 + sec.beta3.conjugate()) ** 2
        )
        worst_inv = max(worst_inv, abs(cert.result.c - invariant))
    passed = worst_resid < threshold_resid and worst_inv < threshold_inv
    return CheckResult(
        "normalization_residual",
        passed,
        threshold_resid,
        max(worst_resid, worst_inv),
        f"{samples} sections; invariant worst {worst_inv:.3e} (limit {threshold_inv:g})",
    )


def run_checks(
    samples: int = 1000,
    trajectories: int = 6,
    tol: float = 1e-10,
    t_span: float = 6.0,
    seed: int = 2025,
) -> list[CheckResult]:
    """Run the full invariant suite; returns one result per check.

    Raises DomainError unless ``samples`` and ``trajectories`` are at
    least 1, so that every check checks something.
    """
    if samples < 1 or trajectories < 1:
        raise DomainError(
            f"samples and trajectories must be at least 1, got {samples} and {trajectories}"
        )
    rng = random.Random(seed)
    results = [
        *_invariance_checks(samples, rng, 1e-10),
        _conservation_check(trajectories, tol, t_span, rng, 1e-8),
        _triple_agreement_check(1e-10, 1e-4),
        _energy_identity_check(tol, t_span, rng, 1e-8),
        _normalization_check(max(samples // 5, 10), rng, 1e-9, 1e-10),
    ]
    logging = sys.modules.get("logging")  # unloaded, it has no handler to show them
    if logging is not None:
        logger = logging.getLogger("linegeo.checks")
        for r in results:
            logger.info(
                "check %-24s %s observed=%.3e threshold=%.1e",
                r.name, "PASS" if r.passed else "FAIL", r.observed, r.threshold,
            )
    return results
