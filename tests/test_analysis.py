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
from linegeo import _kernels_py

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
    # the fixed Gauss-Legendre rule has no error estimate of its own
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


def test_series_kernel_reports_non_convergence():
    _, used, converged = _kernels_py.appell_f1(0.999999, 1e-14, 50)
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
    assert np.max(np.abs(traj.radius - CRITICAL_RADIUS)) < 1e-6
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
        i1s, i2s = first_integrals_arrays(traj.xi, traj.xidot)
        big_r = traj.radius
        keep = (big_r >= 1e-3) & (big_r <= 1.0 - 1e-3)
        r2 = big_r[keep] ** 2
        u = (1.0 + r2) ** 3 / ((1.0 - r2) * r2)
        f = (1.0 - r2) / (1.0 + r2) ** 3
        rdot = (traj.xi[keep].conjugate() * traj.xidot[keep]).real / big_r[keep]
        resid = i1s[keep] - u * i2s[keep] ** 2 - f * rdot**2
        assert np.max(np.abs(resid)) < 1e-8


# -- table emitters -----------------------------------------------------------------------


def test_potential_curve_rows():
    rows = potential_curve(0.1, 0.9, 17)
    assert rows.shape == (17, 2)
    assert rows[0, 0] == 0.1 and rows[-1, 0] == 0.9
    for big_r, u in rows:
        assert abs(u - effective_potential(big_r)) < 1e-12
    with pytest.raises(DomainError):
        potential_curve(0.5, 0.4, 10)


def test_series_quadrature_table():
    rows = series_quadrature_table([0.1, 0.5, 0.9])
    assert rows.shape == (3, 4)
    assert np.all(np.abs(rows[:, 3]) < 1e-10)
    assert np.all(np.abs(rows[:, 1] - rows[:, 2] - rows[:, 3]) == 0.0)
