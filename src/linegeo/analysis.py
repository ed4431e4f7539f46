"""Closed forms of the radial problem: travel time, potential, orbit annulus.

For zero angular momentum the travel time from the pole is the primitive
Q(R) = int_0^R sqrt(1-r^2)/(1+r^2)^{3/2} dr, an incomplete elliptic
integral evaluated in Carlson's form, and independently the paper's
double series R F1(1/2; -1/2, 3/2; 3/2; R^2, -R^2), summed by
``_appell_f1``.  Both give the finite equator arrival time
t = Q(1)/sqrt(I1) = 0.599070.../sqrt(I1).

For nonzero angular momentum the effective potential
U(R) = (1+R^2)^3/((1-R^2)R^2) confines the orbit to U(R) <= I1/I2^2, an
annulus whose edges are the roots of a cubic in R^2 around the minimum
6*sqrt(3) at R = sqrt(2-sqrt(3)), solved in closed form.

Only ``oscillation_check`` imports ``geodesics`` (when called); the rest
loads no other module of the package than ``errors``.
"""

import math

from .errors import ConvergenceError, DomainError, NoOrbitError, Record

#: radius of the circular orbit, the minimiser of the effective potential
CRITICAL_RADIUS = math.sqrt(2.0 - math.sqrt(3.0))

#: minimum of the effective potential, at CRITICAL_RADIUS; orbits with
#: angular momentum exist only for I1/I2^2 at or above this
MIN_ORBIT_RATIO = 6.0 * math.sqrt(3.0)

#: relative rounding allowed in I1/I2^2 at the potential minimum: a ratio
#: this close below it is still an orbit, and one this close either side
#: is the circular orbit
_RATIO_RTOL = 1e-12

#: anti-diagonal tail threshold for the series
SERIES_TAIL_TOL = 1e-14

#: hard cap on the number of anti-diagonals, whatever R: the series needs
#: about ln(tail tol)/ln(R^2) of them, 1.25 million at R = 0.99999 (about
#: 0.7 s), so radii closer to 1 fail fast instead of summing for hours
SERIES_MAX_DIAGONALS = 2_000_000


def _carlson_rd(x, y, z):
    """Carlson's R_D(x, y, z) for x, y >= 0 and z > 0, by duplication
    (Carlson, Numer. Algorithms 10 (1995); DLMF 19.36.2), stopping once
    4^-m max|A0 - x0| < (eps/4)^(1/6) |A_m|, where the fifth-order
    expansion about the mean A_m is exact to rounding."""
    a0 = a = (x + y + 3.0 * z) / 5.0
    dx, dy = a0 - x, a0 - y
    q = 512.0 * max(abs(dx), abs(dy), abs(a0 - z))  # (2^-52/4)^(-1/6) = 512
    total, scale = 0.0, 1.0
    while scale * q >= a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        total += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z, a = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25, (a + lam) * 0.25
    dx, dy = dx * scale / a, dy * scale / a
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz, 3.0 * (xy - zz) * zz, xy * zz * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return scale * series / (a * math.sqrt(a)) + 3.0 * total


def radial_quadrature(big_r: float) -> float:
    """Travel-time primitive Q(R) = int_0^R sqrt(1-r^2)/(1+r^2)^{3/2} dr.

    In Legendre form E(phi|-1) - F(phi|-1) + R sqrt((1-R^2)/(1+R^2)) with
    phi = asin R; evaluated in Carlson's (DLMF 19.25), with the same last
    term plus (R^3/3) R_D(1-R^2, 1+R^2, 1), to about 2e-16 absolute on
    [0, 1].  Q(1) = R_D(0, 2, 1)/3 = E(-1) - K(-1).
    """
    big_r = float(big_r)
    if not 0.0 <= big_r <= 1.0:
        raise DomainError(f"radius must lie in [0, 1], got {big_r}")
    r2 = big_r * big_r
    x, y = 1.0 - r2, 1.0 + r2
    return r2 * big_r / 3.0 * _carlson_rd(x, y, 1.0) + big_r * math.sqrt(x / y)


def _diagonal_coefficients():
    """Taylor coefficients c_0, c_1, ... of g(y) = (1-y)^{1/2} (1+y)^{-3/2},
    by (m+1) c_{m+1} = -2 c_m + m c_{m-1} from (1-y^2) g' = (y-2) g."""
    c_prev, c, m = 0.0, 1.0, 0
    while True:
        yield c
        c_prev, c, m = c, (m * c_prev - 2.0 * c) / (m + 1), m + 1


def _appell_f1(R, tail_tol, max_diagonals):
    """R * F1(1/2; -1/2, 3/2; 3/2; R^2, -R^2) by anti-diagonal summation.

    The double sum over (k, l) is grouped by m = k + l.  Anti-diagonal m
    is c_m R^(2m+1)/(2m+1): (1/2)_m/(3/2)_m = 1/(2m+1), and the sum over
    k + l = m of (-1/2)_k/k! (-1)^l (3/2)_l/l! is the coefficient c_m of
    ``_diagonal_coefficients``, one recurrence step per anti-diagonal.

    Summation stops once three consecutive anti-diagonal contributions
    are below ``tail_tol`` in magnitude and non-increasing (the decay
    check; for R^2 < 1 the tail decays geometrically).

    Returns (value, diagonals_used, converged).
    """
    x = R * R
    total = 0.0
    rpow = R  # R^(2m+1)
    small = 0
    prev = math.inf
    for m, c in zip(range(max_diagonals), _diagonal_coefficients()):
        term = c * rpow / (2 * m + 1)
        total += term
        if abs(term) <= tail_tol and abs(term) <= prev:
            small += 1
            if small >= 3:
                return total, m + 1, True
        else:
            small = 0
        prev = abs(term)
        rpow *= x
    return total, max_diagonals, False


def appell_f1_series(big_r: float) -> float:
    """The same primitive as a hypergeometric double series.

    Evaluates R F1(1/2; -1/2, 3/2; 3/2; R^2, -R^2) by anti-diagonal
    summation, one recurrence step per anti-diagonal (``_appell_f1``),
    with as many anti-diagonals as R needs, up to SERIES_MAX_DIAGONALS.
    Valid for 0 <= R < 1 where the double series converges.
    """
    big_r = float(big_r)
    if not 0.0 <= big_r < 1.0:
        raise ConvergenceError(
            f"series converges only for 0 <= R < 1, got {big_r}; "
            "use radial_quadrature at R = 1"
        )
    # anti-diagonal m is at most R^(2m) in magnitude (|c_m| <= 2m+1), so past
    # ln(tail tol)/ln(R^2) every one meets the threshold; the margin covers
    # the three-term decay check
    x = big_r * big_r
    cap = 8 if x == 0.0 else 8 + int(math.log(SERIES_TAIL_TOL) / math.log(x))
    cap = min(cap, SERIES_MAX_DIAGONALS)
    value, _, converged = _appell_f1(big_r, SERIES_TAIL_TOL, cap)
    if not converged:
        raise ConvergenceError(
            f"series did not meet the tail threshold within "
            f"{cap} anti-diagonals at R = {big_r}"
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


def effective_potential(big_r: float) -> float:
    """U(R) = (1+R^2)^3 / ((1-R^2) R^2) on 0 < R < 1.

    Raises DomainError when U(R) is not a finite double (R^2 underflows
    to 0 below R of about 1e-162, and U overflows below about 7.5e-155).
    """
    big_r = float(big_r)
    if not 0.0 < big_r < 1.0:
        raise DomainError(f"effective potential has poles at 0 and 1; got R = {big_r}")
    r2 = big_r * big_r
    u = (1.0 + r2) ** 3 / ((1.0 - r2) * r2) if r2 != 0.0 else math.inf
    if not math.isfinite(u):
        raise DomainError(f"effective potential must be a finite double; U({big_r!r}) overflows")
    return u


class TurningPoints(Record):
    """Orbit annulus [R_min, R_max] at level ratio = I1/I2^2."""

    __slots__ = ("R_min", "R_max", "ratio")

    def __init__(self, R_min: float, R_max: float, ratio: float):
        self._init_fields(R_min, R_max, ratio)


def turning_points(i1: float, i2: float) -> TurningPoints:
    """Solve U(R) = I1/I2^2 for the two turning radii, in closed form.

    With x = R^2 and k = I1/I2^2 the equation is the cubic
    x^3 + (3+k) x^2 + (3-k) x + 1 = 0, whose roots are x1 < x2 in (0, 1)
    and x3 < 0.  Viete's trigonometric form gives x3, a simple root far
    from the other two, and the quotient by x - x3 is x^2 + beta x + gamma
    with gamma = x1 x2 = -1/x3 and beta = -gamma (gamma + k - 3).  The
    radii sqrt(x1) and sqrt(x2) are good to a few ulps away from the
    double root at the minimum; a ratio within a relative 1e-12 of the
    minimum collapses the annulus to the circular orbit.

    Raises
    ------
    NoOrbitError
        If the ratio lies below the potential minimum 6*sqrt(3) by more
        than a relative 1e-12 (rounding in the integrals).
    DomainError
        If I1 or I2 is not finite, I1 <= 0, I2 = 0 (radial motion has
        no turning points; use ``blowup_time``), or I1/I2^2 is not a
        finite double.
    """
    if not (math.isfinite(i1) and math.isfinite(i2)):
        raise DomainError(f"first integrals must be finite doubles, got I1 = {i1!r}, I2 = {i2!r}")
    if i2 == 0.0:
        raise DomainError("I2 = 0 is radial motion; use blowup_time instead")
    if i1 <= 0.0:
        raise DomainError(f"I1 must be positive, got {i1}")
    i2_sq = i2 * i2
    k = i1 / i2_sq if i2_sq != 0.0 else math.inf
    if not math.isfinite(k):
        raise DomainError(f"I1/I2^2 must be a finite double, got I1 = {i1!r}, I2 = {i2!r}")
    if k < MIN_ORBIT_RATIO * (1.0 - _RATIO_RTOL):
        raise NoOrbitError(
            f"no orbit: I1/I2^2 = {k:.6f} below 6*sqrt(3) = {MIN_ORBIT_RATIO:.6f}"
        )
    if k <= MIN_ORBIT_RATIO * (1.0 + _RATIO_RTOL):
        return TurningPoints(CRITICAL_RADIUS, CRITICAL_RADIUS, k)

    # x = t - (3+k)/3 gives t^3 - 3 r^2 t + q with r = sqrt(k(k+9))/3 = n/3 and
    # q = k(2k^2+27k+54)/27, so x3 = 2r cos(acos(cos3)/3 + 2 pi/3) - (3+k)/3 with
    # cos3 = -q/(2r^3); each quotient is arranged to stay finite for every finite k
    sk, sk9 = math.sqrt(k), math.sqrt(k + 9.0)
    n, a = sk * sk9, 3.0 + k
    cos3 = -(sk / sk9 + 4.5 * ((k + 6.0) / (k + 9.0)) / n)
    c = math.cos(math.acos(max(cos3, -1.0)) / 3.0 + 2.0 * math.pi / 3.0)
    gamma = (3.0 / a) / (1.0 - 2.0 * (n / a) * c)  # -1/x3
    beta = -gamma * (gamma + k - 3.0)
    x2 = (math.sqrt(max(beta * beta - 4.0 * gamma, 0.0)) - beta) / 2.0
    return TurningPoints(math.sqrt(gamma / x2), math.sqrt(x2), k)


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
