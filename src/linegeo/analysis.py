"""Radial analysis of the flow: travel time, effective potential, orbits.

For zero angular momentum the radial travel time is an explicit
primitive, computable two independent ways: fixed 16-node
Gauss-Legendre quadrature of sqrt(1-r^2)/(1+r^2)^{3/2} in the variable
phi = asin r, or the hypergeometric double series
R F1(1/2; -1/2, 3/2; 3/2; R^2, -R^2), summed here in plain Python by
``_appell_f1``.  Both give the finite equator arrival time
t = 0.599070... / sqrt(I1) from the pole.

For nonzero angular momentum the radial motion is governed by the
effective potential U(R) = (1+R^2)^3/((1-R^2)R^2): real radial speed
requires U(R) <= I1/I2^2, confining the orbit to an annulus whose edges
are the two roots of U(R) = I1/I2^2 around the potential minimum
6*sqrt(3) at R = sqrt(2-sqrt(3)).

The functions of the flow import ``geodesics`` when called, so that the
travel-time evaluations load no other module of the package than
``errors``.
"""

import math

from .errors import ConvergenceError, DomainError, NoOrbitError, Record

#: radius of the circular orbit, the minimiser of the effective potential
CRITICAL_RADIUS = math.sqrt(2.0 - math.sqrt(3.0))

#: anti-diagonal tail threshold for the series
SERIES_TAIL_TOL = 1e-14

#: hard cap on the number of anti-diagonals
SERIES_MAX_DIAGONALS = 10_000

#: 16-node Gauss-Legendre rule on [-1, 1], the values of
#: numpy.polynomial.legendre.leggauss(16); 12 nodes leave errors near
#: 1e-11, 16 reach rounding level on all of [0, 1]
_GL_NODES = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_WEIGHTS = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)


def radial_quadrature(big_r: float) -> float:
    """Travel-time primitive int_0^R sqrt(1-r^2)/(1+r^2)^{3/2} dr.

    Substituting r = sin(phi) turns it into
    int_0^{asin R} cos^2(phi)/(1+sin^2(phi))^{3/2} dphi, whose integrand
    is analytic, so a fixed 16-node Gauss-Legendre rule converges to
    rounding level (about 1e-15) on all of [0, 1], R = 1 included.
    """
    big_r = float(big_r)
    if not 0.0 <= big_r <= 1.0:
        raise DomainError(f"radius must lie in [0, 1], got {big_r}")
    half = 0.5 * math.asin(big_r)
    total = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        phi = half * (node + 1.0)
        sin_phi = math.sin(phi)
        total += weight * math.cos(phi) ** 2 / (1.0 + sin_phi * sin_phi) ** 1.5
    return half * total


def _appell_f1(R, tail_tol, max_diagonals):
    """R * F1(1/2; -1/2, 3/2; 3/2; R^2, -R^2) by anti-diagonal summation.

    The double sum over (k, l) is grouped by m = k + l.  Pochhammer
    symbols follow the recurrence (a)_{k+1} = (a)_k (a+k); they are kept
    as the per-term ratios (-1/2)_k/k!, (-1)^l (3/2)_l/l! and
    (1/2)_m/(3/2)_m, since the raw values overflow a double near m=150.

    Summation stops once three consecutive anti-diagonal contributions
    are below ``tail_tol`` in magnitude and non-increasing (the decay
    check; for R^2 < 1 the tail decays geometrically).

    Returns (value, diagonals_used, converged).
    """
    x = R * R
    a = [1.0]  # (-1/2)_k / k!
    b = [1.0]  # (-1)^l (3/2)_l / l!
    ratio = 1.0  # (1/2)_m / (3/2)_m
    total = 0.0
    rpow = R  # R^(2m+1)
    small = 0
    prev = math.inf
    for m in range(max_diagonals):
        if m > 0:
            a.append(a[-1] * (-0.5 + m - 1) / m)
            b.append(b[-1] * (-(1.5 + m - 1)) / m)
            ratio *= (0.5 + m - 1) / (1.5 + m - 1)
            rpow *= x
        conv = 0.0
        for kk in range(m + 1):
            conv += a[kk] * b[m - kk]
        term = ratio * conv * rpow
        total += term
        if abs(term) <= tail_tol and abs(term) <= prev:
            small += 1
            if small >= 3:
                return total, m + 1, True
        else:
            small = 0
        prev = abs(term)
    return total, max_diagonals, False


def appell_f1_series(big_r: float) -> float:
    """The same primitive as a hypergeometric double series.

    Evaluates R F1(1/2; -1/2, 3/2; 3/2; R^2, -R^2) by anti-diagonal
    summation with Pochhammer recurrences (``_appell_f1``).
    Valid for 0 <= R < 1 where the double series converges.
    """
    big_r = float(big_r)
    if not 0.0 <= big_r < 1.0:
        raise ConvergenceError(
            f"series converges only for 0 <= R < 1, got {big_r}; "
            "use radial_quadrature at R = 1"
        )
    value, _, converged = _appell_f1(big_r, SERIES_TAIL_TOL, SERIES_MAX_DIAGONALS)
    if not converged:
        raise ConvergenceError(
            f"series did not meet the tail threshold within "
            f"{SERIES_MAX_DIAGONALS} anti-diagonals at R = {big_r}"
        )
    return value


def blowup_time(i1: float, r_start: float = 0.0) -> float:
    """Parameter time for a zero-angular-momentum geodesic to reach the
    equator from radius ``r_start``: (Q(1) - Q(R_start)) / sqrt(I1)."""
    if not (math.isfinite(i1) and i1 > 0.0):
        raise DomainError(f"I1 must be positive and finite, got {i1}")
    if not 0.0 <= r_start < 1.0:
        raise DomainError(f"start radius must lie in [0, 1), got {r_start}")
    return (radial_quadrature(1.0) - radial_quadrature(r_start)) * i1**-0.5


class TurningPoints(Record):
    """Orbit annulus [R_min, R_max] at level ratio = I1/I2^2."""

    __slots__ = ("R_min", "R_max", "ratio")

    def __init__(self, R_min: float, R_max: float, ratio: float):
        self._init_fields(R_min, R_max, ratio)


def _bisect(fn, lo, hi, flo):
    # fn changes sign on [lo, hi]; flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if (flo > 0.0) == (fmid > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def turning_points(i1: float, i2: float) -> TurningPoints:
    """Solve U(R) = I1/I2^2 for the two turning radii.

    The potential decreases on (0, R_c) and increases on (R_c, 1) with
    R_c = sqrt(2-sqrt(3)), so each side holds exactly one root, found by
    bisection to 1e-12.  A ratio at the minimum (within 1e-12) collapses
    the annulus to the circular orbit.

    Raises
    ------
    NoOrbitError
        If the ratio lies below the potential minimum 6*sqrt(3).
    DomainError
        If I1 or I2 is not finite, I1 <= 0, I2 = 0 (radial motion has
        no turning points; use ``blowup_time``), or I1/I2^2 is not a
        finite double.
    """
    from .geodesics import MIN_ORBIT_RATIO, FirstIntegrals, effective_potential

    integrals = FirstIntegrals(i1, i2)
    if i2 == 0.0:
        raise DomainError("I2 = 0 is radial motion; use blowup_time instead")
    if i1 <= 0.0:
        raise DomainError(f"I1 must be positive, got {i1}")
    ratio = integrals.ratio
    if ratio < MIN_ORBIT_RATIO - 1e-12 * max(1.0, ratio):
        raise NoOrbitError(
            f"no orbit: I1/I2^2 = {ratio:.6f} below 6*sqrt(3) = {MIN_ORBIT_RATIO:.6f}"
        )
    if abs(ratio - MIN_ORBIT_RATIO) <= 1e-12 * max(1.0, ratio):
        return TurningPoints(CRITICAL_RADIUS, CRITICAL_RADIUS, ratio)

    def level(big_r):
        return effective_potential(big_r) - ratio

    # walk out from the minimum until the level is bracketed on each side
    lo = CRITICAL_RADIUS
    while level(lo) < 0.0:
        lo *= 0.5
        if lo < 1e-300:  # pragma: no cover - U diverges at 0, cannot happen
            raise ConvergenceError("failed to bracket the inner turning point")
    gap = 1.0 - CRITICAL_RADIUS
    hi = CRITICAL_RADIUS
    while level(hi) < 0.0:
        gap *= 0.5
        hi = 1.0 - gap
        if gap < 1e-300:  # pragma: no cover
            raise ConvergenceError("failed to bracket the outer turning point")
    r_min = _bisect(level, lo, min(2.0 * lo, CRITICAL_RADIUS), level(lo))
    r_max = _bisect(level, 1.0 - 2.0 * gap, hi, level(1.0 - 2.0 * gap))
    return TurningPoints(r_min, r_max, ratio)


class OscillationReport(Record):
    """Observed radial extremes of a trajectory against the predicted
    annulus.  ``conclusive`` is False when the trajectory span did not
    cover a full radial sweep, so an extreme may not have been attained."""

    __slots__ = (
        "observed_min", "observed_max", "predicted", "discrepancy_min", "discrepancy_max",
        "radial_turnings", "conclusive",
    )

    def __init__(self, observed_min, observed_max, predicted, discrepancy_min, discrepancy_max,
                 radial_turnings, conclusive):
        self._init_fields(observed_min, observed_max, predicted, discrepancy_min,
                          discrepancy_max, radial_turnings, conclusive)


def oscillation_check(traj: "geodesics.Trajectory") -> OscillationReport:
    """Compare a trajectory's radial extremes to the potential's roots.

    Counts interior sign changes of Rdot along the samples; fewer than
    two means the orbit has not visited both edges of the annulus and
    the report is flagged inconclusive (a near-circular orbit with a
    collapsed annulus is treated as conclusive directly).
    """
    from .geodesics import Termination

    i2 = traj.integrals0.I2
    if i2 == 0.0:
        raise DomainError("oscillation check requires nonzero angular momentum")
    predicted = turning_points(traj.integrals0.I1, i2)

    big_r = traj.radius
    obs_min = min(big_r)
    obs_max = max(big_r)

    # Rdot = Re(conj(xi) xidot)/R has the sign of its numerator; R > 0
    # along orbits with I2 != 0
    rdots = [(xi.conjugate() * xidot).real for xi, xidot in zip(traj.xi, traj.xidot)]
    signs = [rdot > 0.0 for rdot in rdots if rdot != 0.0]
    turnings = sum(a != b for a, b in zip(signs, signs[1:]))

    collapsed = predicted.R_max - predicted.R_min < 1e-6 and obs_max - obs_min < 1e-6
    conclusive = turnings >= 2 or collapsed
    if traj.termination is not Termination.TIME_LIMIT:
        conclusive = False  # the orbit was cut short by the integrator

    return OscillationReport(
        observed_min=obs_min,
        observed_max=obs_max,
        predicted=predicted,
        discrepancy_min=abs(obs_min - predicted.R_min),
        discrepancy_max=abs(obs_max - predicted.R_max),
        radial_turnings=turnings,
        conclusive=conclusive,
    )


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from ``start`` to ``stop``, bit for bit
    the values of numpy.linspace: start + i*step, the last one ``stop``."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def potential_curve(
    r_lo: float = 0.05, r_hi: float = 0.95, num: int = 181
) -> list[tuple[float, float]]:
    """Sampled (R, U(R)) rows for plotting."""
    from .geodesics import effective_potential

    if not (0.0 < r_lo < r_hi < 1.0):
        raise DomainError(f"need 0 < r_lo < r_hi < 1, got ({r_lo}, {r_hi})")
    if num < 2:
        raise DomainError(f"need at least 2 samples, got {num}")
    return [(r, effective_potential(r)) for r in linspace(r_lo, r_hi, num)]


def series_quadrature_table(r_values) -> list[tuple[float, float, float, float]]:
    """Rows (R, series, quadrature, difference) comparing the two
    evaluations of the travel-time primitive."""
    rows = []
    for big_r in r_values:
        s = appell_f1_series(big_r)
        q = radial_quadrature(big_r)
        rows.append((big_r, s, q, s - q))
    return rows
