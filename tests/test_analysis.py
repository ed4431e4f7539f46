"""Radial quadrature, hypergeometric series, potential and orbits."""

import math

import mpmath
import numpy as np
import pytest

from linegeo import (
    CRITICAL_RADIUS,
    MIN_ORBIT_RATIO,
    ConvergenceError,
    DomainError,
    GeodesicState,
    NoOrbitError,
    StandardSphere,
    Termination,
    appell_f1_series,
    blowup_time,
    effective_potential,
    first_integrals_arrays,
    integrate,
    oscillation_check,
    potential_curve,
    radial_quadrature,
    series_quadrature_table,
    state_from_integrals,
    turning_points,
)
from linegeo import analysis

SPHERE = StandardSphere(1.0)

# frozen via adaptive quadrature (and confirmed by the series, the
# high-precision hypergeometric oracle, and the ODE hit time)
FULL_TRAVEL_TIME = 0.599070117367796


def mp_reference(big_r):
    """High-precision independent evaluation of the travel-time primitive."""
    mpmath.mp.dps = 30
    v = big_r * mpmath.appellf1("0.5", "-0.5", "1.5", "1.5", big_r**2, -(big_r**2))
    return float(v)


def mp_quad_reference(big_r):
    """High-precision tanh-sinh quadrature of the primitive in r itself,
    valid up to R = 1 where the hypergeometric oracle is not."""
    with mpmath.workdps(40):
        v = mpmath.quad(lambda r: mpmath.sqrt(1 - r * r) / (1 + r * r) ** 1.5, [0, big_r])
    return float(v)


# -- quadrature -----------------------------------------------------------------


def test_quadrature_at_zero():
    assert radial_quadrature(0.0) == 0.0


def test_quadrature_full_interval():
    assert abs(radial_quadrature(1.0) - FULL_TRAVEL_TIME) < 1e-12
    with mpmath.workdps(40):
        exact = mpmath.ellipe(-1) - mpmath.ellipk(-1)  # Q(1) = R_D(0, 2, 1)/3
    assert abs(radial_quadrature(1.0) - exact) <= 4e-16


def test_carlson_rd_against_mpmath():
    # the grid the travel time uses: x = 1 - R^2, y = 1 + R^2, z = 1
    points = [(i / 20, 1.0 + j / 20) for i in range(21) for j in range(21)] + [(0.0, 2.0)]
    with mpmath.workdps(40):
        for x, y in points:
            exact = mpmath.elliprd(x, y, 1)
            assert abs(analysis._carlson_rd(x, y, 1.0) - exact) <= 1e-15 * exact, (x, y)


def test_quadrature_against_legendre_form():
    # Q(R) = E(phi|-1) - F(phi|-1) + R sqrt((1-R^2)/(1+R^2)), phi = asin R
    radii = [i / 200 for i in range(201)] + [1e-8, 1.0 - 1e-8, 0.999999]
    with mpmath.workdps(40):
        for big_r in radii:
            r = mpmath.mpf(big_r)
            phi = mpmath.asin(r)
            exact = (
                mpmath.ellipe(phi, -1) - mpmath.ellipf(phi, -1)
                + r * mpmath.sqrt((1 - r * r) / (1 + r * r))
            )
            assert abs(radial_quadrature(big_r) - exact) <= 1e-15, big_r


def test_quadrature_domain():
    with pytest.raises(DomainError):
        radial_quadrature(-0.1)
    with pytest.raises(DomainError):
        radial_quadrature(1.1)


# -- series -----------------------------------------------------------------------


def test_series_at_zero():
    assert appell_f1_series(0.0) == 0.0


def test_series_leading_term():
    # first anti-diagonal contributes exactly R; the next is -2R^3/3
    assert abs(appell_f1_series(0.01) - 0.01) < 1e-6
    for big_r in (0.01, 0.03, 0.1):
        assert abs(appell_f1_series(big_r) - big_r) <= big_r**3


def test_series_against_high_precision_oracle():
    for big_r in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert abs(appell_f1_series(big_r) - mp_reference(big_r)) < 1e-13
    # the closed form against quadrature in r itself, R = 1 included
    for big_r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.999999, 1.0):
        assert abs(radial_quadrature(big_r) - mp_quad_reference(big_r)) < 1e-14


def test_series_against_quadrature():
    for big_r in np.linspace(0.0, 0.95, 20):
        assert abs(appell_f1_series(big_r) - radial_quadrature(big_r)) < 1e-10


def test_series_convergence_domain():
    with pytest.raises(ConvergenceError):
        appell_f1_series(1.0)
    with pytest.raises(ConvergenceError):
        appell_f1_series(-0.5)


def test_series_close_to_one_still_converges():
    assert abs(appell_f1_series(0.99) - radial_quadrature(0.99)) < 1e-10


def test_series_coefficients_match_taylor_coefficients():
    # anti-diagonal m of the series carries the m-th Taylor coefficient of
    # (1-y)^(1/2) (1+y)^(-3/2), which a three-term recurrence generates
    with mpmath.workdps(40):
        exact = mpmath.taylor(lambda y: mpmath.sqrt(1 - y) * (1 + y) ** -1.5, 0, 60)
    for c, c_exact in zip(analysis._diagonal_coefficients(), exact):
        assert abs(c - c_exact) <= 1e-14 * abs(c_exact)


def test_series_kernel_reports_non_convergence():
    _, used, converged = analysis._appell_f1(0.999999, 1e-14, 50)
    assert converged is False
    assert used == 50


# -- blow-up time ------------------------------------------------------------------


def test_blowup_time_reference_value():
    assert abs(blowup_time(1.0) - FULL_TRAVEL_TIME) < 1e-12


def test_blowup_time_quarter_speed():
    assert abs(blowup_time(4.0) - FULL_TRAVEL_TIME / 2.0) < 1e-12


def test_blowup_time_scaling_law():
    base = blowup_time(1.3, 0.25)
    # exact for power-of-two rescaling (pure float multiply)
    assert blowup_time(4.0 * 1.3, 0.25) == 0.5 * base
    assert blowup_time(0.25 * 1.3, 0.25) == 2.0 * base
    assert abs(blowup_time(3.0 * 1.3, 0.25) - base / math.sqrt(3.0)) < 1e-15


def test_blowup_time_from_inner_radius():
    # remaining time = total minus the travelled primitive
    for r0 in (0.2, 0.5, 0.96):
        expected = radial_quadrature(1.0) - radial_quadrature(r0)
        assert abs(blowup_time(1.0, r0) - expected) < 1e-11


def test_blowup_time_domain():
    with pytest.raises(DomainError):
        blowup_time(0.0)
    with pytest.raises(DomainError):
        blowup_time(1.0, 1.0)
    for i1 in (math.nan, math.inf):
        with pytest.raises(DomainError):
            blowup_time(i1)


def test_blowup_time_matches_ode_hit():
    traj = integrate(GeodesicState(0.0, 0.0, 1.0), SPHERE, 10.0, 1e-6)
    assert traj.termination is Termination.EQUATOR_REACHED
    assert abs(traj.t_hit - blowup_time(1.0)) / blowup_time(1.0) < 1e-4


# -- effective potential -------------------------------------------------------------


def test_potential_exact_value():
    assert abs(effective_potential(1.0 / math.sqrt(3.0)) - 32.0 / 3.0) < 1e-13


def test_potential_minimum_by_golden_section():
    # independent minimisation oracle
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-3, 1.0 - 1e-3
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while b - a > 1e-12:
        if effective_potential(c) < effective_potential(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    r_star = 0.5 * (a + b)
    assert abs(r_star - CRITICAL_RADIUS) < 1e-6
    assert abs(effective_potential(r_star) - 6.0 * math.sqrt(3.0)) < 1e-10
    assert abs(CRITICAL_RADIUS - math.sqrt(2.0 - math.sqrt(3.0))) == 0.0
    assert abs(MIN_ORBIT_RATIO - 6.0 * math.sqrt(3.0)) == 0.0


def test_potential_diverges_at_both_ends():
    assert effective_potential(1e-6) > 1e11
    assert effective_potential(1.0 - 1e-9) > 1e8
    with pytest.raises(DomainError):
        effective_potential(0.0)
    with pytest.raises(DomainError):
        effective_potential(1.0)
    # R^2 underflows to 0, and U(R) overflows: neither is a finite double
    for big_r in (1e-170, 1e-155):
        with pytest.raises(DomainError, match="must be a finite double"):
            effective_potential(big_r)


# -- turning points --------------------------------------------------------------------


def test_turning_points_critical_collapse():
    tp = turning_points(MIN_ORBIT_RATIO, 1.0)
    assert tp.R_min == tp.R_max == CRITICAL_RADIUS


def test_turning_points_known_root():
    tp = turning_points(32.0 / 3.0, 1.0)
    assert abs(tp.R_max - 1.0 / math.sqrt(3.0)) < 1e-12
    assert 0.0 < tp.R_min < CRITICAL_RADIUS


def test_turning_points_solve_the_level_equation():
    for ratio_scale in (1.01, 1.5, 3.0, 10.0, 100.0):
        ratio = ratio_scale * MIN_ORBIT_RATIO
        tp = turning_points(ratio, 1.0)
        assert abs(effective_potential(tp.R_min) - ratio) < 1e-7 * ratio
        assert abs(effective_potential(tp.R_max) - ratio) < 1e-7 * ratio
        assert 0.0 < tp.R_min <= CRITICAL_RADIUS <= tp.R_max < 1.0


def test_turning_points_no_orbit():
    with pytest.raises(NoOrbitError):
        turning_points(10.0, 1.0)


def test_turning_points_radial_rejected():
    with pytest.raises(DomainError):
        turning_points(1.0, 0.0)
    for i1, i2 in (
        (math.nan, 1.0),
        (20.0, math.nan),
        (math.inf, 1.0),
        (20.0, math.inf),
        (1.0, 1e-200),  # I2^2 underflows to zero
        (1e300, 1e-10),  # I1/I2^2 overflows
    ):
        with pytest.raises(DomainError):
            turning_points(i1, i2)


def mp_turning_radii(k):
    """(R_min, R_max) from the positive roots of x^3 + (3+k)x^2 + (3-k)x + 1,
    x = R^2, by mpmath.polyroots at 50 digits."""
    with mpmath.workdps(50):
        k = mpmath.mpf(k)
        roots = mpmath.polyroots([1, 3 + k, 3 - k, 1], maxsteps=200, extraprec=200)
        x1, x2 = sorted(mpmath.re(x) for x in roots if mpmath.re(x) > 0)
        return mpmath.sqrt(x1), mpmath.sqrt(x2)


def test_turning_points_against_high_precision_roots():
    # 201 log-spaced k / 6 sqrt(3) in [1.001, 1e10] to 1e-14 relative; next to
    # the double root the annulus is ill-conditioned, so 1e-11 there
    scales = [1.001 * (1e10 / 1.001) ** (i / 200) for i in range(201)]
    cases = [(s, 1e-14) for s in scales] + [(1.0 + 1e-9, 1e-11), (1.0 + 1e-6, 1e-11)]
    for scale, rel in cases:
        k = scale * MIN_ORBIT_RATIO
        tp = turning_points(k, 1.0)
        r_min, r_max = mp_turning_radii(k)
        assert abs(tp.R_min - r_min) <= rel * r_min, scale
        assert abs(tp.R_max - r_max) <= rel * r_max, scale


def test_turning_points_stay_finite_for_every_finite_ratio():
    # x1 ~ 1/k and 1 - x2 ~ 8/k: past k ~ 1e16 R_max rounds to within an ulp of 1
    for k in (1e16, 1e100, 1e300, 1.7976931348623157e308):
        tp = turning_points(k, 1.0)
        assert math.isclose(tp.R_min, k**-0.5, rel_tol=1e-15)
        assert 1.0 - 5e-16 <= tp.R_max <= 1.0


def _raises_no_orbit(fn, *args):
    try:
        fn(*args)
    except NoOrbitError:
        return True
    except DomainError:  # e.g. a launch radius just outside the annulus
        pass
    return False


def test_one_no_orbit_threshold():
    # state_from_integrals and turning_points share the threshold
    # 6 sqrt(3) (1 - 1e-12): both raise NoOrbitError below it, neither at or above
    edge = MIN_ORBIT_RATIO * (1.0 - 1e-12)
    below = [math.nextafter(edge, 0.0), edge * (1.0 - 1e-15), 0.99 * MIN_ORBIT_RATIO]
    above = [edge, math.nextafter(edge, math.inf), MIN_ORBIT_RATIO]
    for i2 in (1.0, -2.0):
        for ratio, expected in [(r, True) for r in below] + [(r, False) for r in above]:
            i1 = ratio * i2 * i2  # exact: i2^2 is a power of two
            assert _raises_no_orbit(turning_points, i1, i2) is expected, ratio
            assert _raises_no_orbit(state_from_integrals, i1, i2, CRITICAL_RADIUS) is expected


def test_state_from_integrals_accepts_the_turning_radii():
    # the launch check is membership of the annulus turning_points reports,
    # so its edges launch at zero radial speed and a radius just past
    # either edge is rejected
    for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 3e-12, 1.0 + 1e-9, 1.5, 10.0, 1e6):
        for i2 in (1.0, -0.3):
            i1 = scale * MIN_ORBIT_RATIO * i2 * i2
            tp = turning_points(i1, i2)
            for radius in (tp.R_min, tp.R_max):
                st = state_from_integrals(i1, i2, radius)
                assert abs(st.to_polar().Rdot) < 1e-5 * math.sqrt(i1)
            for radius in (math.nextafter(tp.R_min, 0.0), math.nextafter(tp.R_max, 1.0)):
                with pytest.raises(DomainError, match="outside the orbit annulus"):
                    state_from_integrals(i1, i2, radius)


def test_turning_points_bracket_the_critical_radius_past_the_collapse():
    ratio = MIN_ORBIT_RATIO * (1.0 + 1e-12)
    assert turning_points(ratio, 1.0).R_min == CRITICAL_RADIUS  # still collapsed
    for _ in range(200):
        ratio = math.nextafter(ratio, math.inf)
        tp = turning_points(ratio, 1.0)
        assert tp.R_min < CRITICAL_RADIUS < tp.R_max
    for scale in (1.0 + 2e-12, 1.0 + 1e-11, 1.0 + 1e-10):
        tp = turning_points(scale * MIN_ORBIT_RATIO, 1.0)
        assert tp.R_min < CRITICAL_RADIUS < tp.R_max


# -- oscillation check -------------------------------------------------------------------


def test_oscillation_from_inner_turning_point():
    i1 = 1.0
    ratio = 1.5 * MIN_ORBIT_RATIO
    i2 = math.sqrt(i1 / ratio)
    tp = turning_points(i1, i2)
    st = state_from_integrals(i1, i2, tp.R_min)
    traj = integrate(st, SPHERE, 10.0, 1e-10)
    report = oscillation_check(traj)
    assert report.conclusive
    assert report.discrepancy_min < 1e-4
    assert report.discrepancy_max < 1e-4
    assert report.radial_turnings >= 2


def test_oscillation_circular_orbit():
    i1 = 1.0
    i2 = math.sqrt(i1 / MIN_ORBIT_RATIO)
    st = state_from_integrals(i1, i2, CRITICAL_RADIUS)
    traj = integrate(st, SPHERE, 10.0, 1e-10)
    assert np.max(np.abs(np.asarray(traj.radius) - CRITICAL_RADIUS)) < 1e-6
    report = oscillation_check(traj)
    assert report.conclusive


def test_oscillation_requires_angular_momentum():
    traj = integrate(GeodesicState(0.0, 0.2, 0.5), SPHERE, 1.0, 1e-8)
    with pytest.raises(DomainError):
        oscillation_check(traj)


def test_oscillation_short_run_flagged_inconclusive():
    i1 = 1.0
    i2 = math.sqrt(i1 / (1.5 * MIN_ORBIT_RATIO))
    tp = turning_points(i1, i2)
    st = state_from_integrals(i1, i2, tp.R_min)
    traj = integrate(st, SPHERE, 0.05, 1e-10)  # far less than a radial period
    report = oscillation_check(traj)
    assert not report.conclusive


# -- energy identity ----------------------------------------------------------------------


def test_energy_identity_along_trajectories():
    rng = np.random.default_rng(91004)
    for _ in range(3):
        st = state_from_integrals(
            1.0, math.sqrt(1.0 / (rng.uniform(1.2, 4.0) * MIN_ORBIT_RATIO)), 0.45
        )
        traj = integrate(st, SPHERE, 8.0, 1e-10)
        xi, xidot = np.asarray(traj.xi), np.asarray(traj.xidot)
        i1s, i2s = map(np.asarray, first_integrals_arrays(traj.xi, traj.xidot))
        big_r = np.abs(xi)
        keep = (big_r >= 1e-3) & (big_r <= 1.0 - 1e-3)
        r2 = big_r[keep] ** 2
        u = (1.0 + r2) ** 3 / ((1.0 - r2) * r2)
        f = (1.0 - r2) / (1.0 + r2) ** 3
        rdot = (xi[keep].conjugate() * xidot[keep]).real / big_r[keep]
        resid = i1s[keep] - u * i2s[keep] ** 2 - f * rdot**2
        assert np.max(np.abs(resid)) < 1e-8


# -- table emitters -----------------------------------------------------------------------


def test_linspace_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(91005)
    cases = [(0.05, 0.95, 19), (0.3, 0.3, 4), (0.2, 0.8, 1), (0.2, 0.8, 2), (0.95, 0.05, 7)]
    cases += [(rng.uniform(0.0, 0.3), rng.uniform(0.6, 0.95), int(rng.integers(1, 200)))
              for _ in range(200)]
    for start, stop, num in cases:
        assert analysis.linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


def test_potential_curve_rows():
    rows = np.asarray(potential_curve(0.1, 0.9, 17))
    assert rows.shape == (17, 2)
    assert rows[0, 0] == 0.1 and rows[-1, 0] == 0.9
    for big_r, u in rows:
        assert abs(u - effective_potential(big_r)) < 1e-12
    with pytest.raises(DomainError):
        potential_curve(0.5, 0.4, 10)


def test_series_quadrature_table():
    rows = np.asarray(series_quadrature_table([0.1, 0.5, 0.9]))
    assert rows.shape == (3, 4)
    assert np.all(np.abs(rows[:, 3]) < 1e-10)
    assert np.all(np.abs(rows[:, 1] - rows[:, 2] - rows[:, 3]) == 0.0)
