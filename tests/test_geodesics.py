"""Geodesic ODE, first integrals, adaptive integration."""

import cmath
import io
import math

import numpy as np
import pytest

from linegeo import (
    DegeneracyError,
    DomainError,
    GeodesicState,
    NoOrbitError,
    PolarState,
    StandardSphere,
    Termination,
    blowup_time,
    christoffel,
    first_integrals,
    integrate,
    rhs,
    state_from_integrals,
    turning_points,
    write_csv,
)
from linegeo.geodesics import CSV_HEADER

RNG = np.random.default_rng(91003)
SPHERE = StandardSphere(1.0)


def random_orbit_state(max_ratio=60.0):
    while True:
        big_r = RNG.uniform(0.15, 0.8)
        st = PolarState(
            big_r, RNG.uniform(0, 2 * math.pi), RNG.uniform(-1, 1), RNG.uniform(-2, 2)
        ).to_state()
        ints = first_integrals(st)
        if ints.I2 != 0.0 and ints.I1 / ints.I2**2 <= max_ratio:
            return st


# -- christoffel / rhs ----------------------------------------------------------


def test_christoffel_vanishes_at_pole():
    assert christoffel(0.0) == 0.0


def test_christoffel_frozen_values():
    # -0.5/0.75 - 1.5/1.25 = -28/15
    assert abs(christoffel(0.5) - (-28.0 / 15.0)) < 1e-14
    # conjugate-linear image on the imaginary axis
    assert abs(christoffel(0.5j) - (28.0j / 15.0)) < 1e-14


def log_metric_derivative(xi, eps=1e-7):
    """Central finite difference of ln[(1-xi xibar)/(1+xi xibar)^3] in xi
    with xibar held fixed (independent-variable trick; evaluated as g'/g
    to stay off the logarithm's branch cut on the lower hemisphere)."""
    xb = xi.conjugate()

    def g(z):
        return (1.0 - z * xb) / (1.0 + z * xb) ** 3

    return (g(xi + eps) - g(xi - eps)) / (2.0 * eps) / g(xi)


def test_christoffel_matches_finite_difference():
    for _ in range(50):
        z = RNG.normal(scale=0.4, size=2)
        xi = complex(z[0], z[1])
        if abs(1.0 - abs(xi) ** 2) < 0.05:
            continue
        assert abs(christoffel(xi) - log_metric_derivative(xi)) < 1e-6


def test_christoffel_degeneracy_error():
    with pytest.raises(DegeneracyError):
        christoffel(1.0)


def test_rhs_examples():
    dxi, dxidot = rhs(GeodesicState(0.0, 0.0, 1.0))
    assert dxi == 1.0 and dxidot == 0.0
    dxi, dxidot = rhs(GeodesicState(0.0, 0.5, 1.0))
    assert abs(dxidot - 28.0 / 15.0) < 1e-14
    dxi, dxidot = rhs(GeodesicState(0.0, 0.3 + 0.2j, 0.0))
    assert dxi == 0.0 and dxidot == 0.0


# -- first integrals -------------------------------------------------------------


def test_first_integrals_at_pole():
    ints = first_integrals(GeodesicState(0.0, 0.0, 1.0))
    assert ints.I1 == 1.0 and ints.I2 == 0.0


def test_first_integrals_tangential_exact_value():
    # xi = 0.5, xidot = i v: I2 = (0.75 * 0.5 * v) / 1.25^3
    v = 1.3
    ints = first_integrals(GeodesicState(0.0, 0.5, 1j * v))
    assert abs(ints.I2 - 0.75 * 0.5 * v / 1.953125) < 1e-15


def test_first_integrals_polar_oracle():
    for _ in range(100):
        st = random_orbit_state()
        p = st.to_polar()
        f = (1.0 - p.R**2) / (1.0 + p.R**2) ** 3
        i1 = f * (p.Rdot**2 + p.R**2 * p.thetadot**2)
        i2 = f * p.R**2 * p.thetadot
        ints = first_integrals(st)
        assert abs(ints.I1 - i1) < 1e-13 * max(1.0, abs(i1))
        assert abs(ints.I2 - i2) < 1e-13 * max(1.0, abs(i2))


def test_radial_data_has_zero_angular_momentum():
    st = GeodesicState(0.0, 0.4, 0.9)  # xidot parallel to xi, both real
    assert first_integrals(st).I2 == 0.0


def test_polar_round_trip():
    st = random_orbit_state()
    back = st.to_polar().to_state()
    assert abs(back.xi - st.xi) < 1e-14
    assert abs(back.xidot - st.xidot) < 1e-14
    with pytest.raises(DomainError):
        GeodesicState(0.0, 0.0, 1.0).to_polar()


# -- state_from_integrals ---------------------------------------------------------


def test_state_from_integrals_round_trip():
    for _ in range(30):
        i1 = RNG.uniform(0.2, 4.0)
        ratio = RNG.uniform(1.1, 5.0) * 6.0 * math.sqrt(3.0)
        i2 = math.copysign(math.sqrt(i1 / ratio), RNG.uniform(-1, 1))
        tp = turning_points(i1, i2)
        r0 = RNG.uniform(tp.R_min, tp.R_max)
        st = state_from_integrals(i1, i2, r0, theta0=RNG.uniform(0, 2 * math.pi))
        ints = first_integrals(st)
        assert abs(ints.I1 - i1) < 1e-11 * i1
        assert abs(ints.I2 - i2) < 1e-11 * abs(i2)


def test_state_from_integrals_no_orbit():
    with pytest.raises(NoOrbitError):
        state_from_integrals(10.0, 1.0, 0.5)


def test_state_from_integrals_outside_annulus():
    tp = turning_points(1.0, math.sqrt(1.0 / (2.0 * 6.0 * math.sqrt(3.0))))
    with pytest.raises(DomainError):
        state_from_integrals(1.0, math.sqrt(1.0 / (2.0 * 6.0 * math.sqrt(3.0))), tp.R_min / 2.0)


def test_state_from_integrals_inward_sign():
    st = state_from_integrals(1.0, 0.2, 0.5, outward=False)
    assert st.to_polar().Rdot <= 0.0


# -- integrate --------------------------------------------------------------------


def test_integrate_radial_blowup_hit_time():
    traj = integrate(GeodesicState(0.0, 0.0, 1.0), SPHERE, 10.0, 1e-6)
    assert traj.termination is Termination.EQUATOR_REACHED
    predicted = blowup_time(1.0)
    assert abs(traj.t_hit - predicted) / predicted < 1e-4
    assert traj.t_hit >= traj.t[-1]


def test_integrate_constant_solution():
    traj = integrate(GeodesicState(0.0, 0.3 + 0.1j, 0.0), SPHERE, 5.0, 1e-10)
    assert traj.termination is Termination.TIME_LIMIT
    assert np.all(np.abs(traj.xi - (0.3 + 0.1j)) < 1e-14)
    assert traj.t[-1] == 5.0


def test_integrate_conservation_drift():
    for _ in range(5):
        st = random_orbit_state()
        traj = integrate(st, SPHERE, 10.0, 1e-10)
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.max_drift[0] < 1e-8
        assert traj.max_drift[1] < 1e-8


def test_integrate_radial_invariance_of_argument():
    st = GeodesicState(0.0, 0.3 * cmath.exp(0.7j), 0.5 * cmath.exp(0.7j))
    assert abs(first_integrals(st).I2) < 1e-16
    traj = integrate(st, SPHERE, 10.0, 1e-10)
    args = np.angle(traj.xi)
    assert np.max(np.abs(args - 0.7)) < 1e-9


def test_integrate_time_reversal():
    st = random_orbit_state()
    for tol in (1e-10, 1e-8):
        fwd = integrate(st, SPHERE, 3.0, tol)
        end = fwd.final_state()
        back = integrate(GeodesicState(0.0, end.xi, -end.xidot), SPHERE, 3.0, tol)
        rec = back.final_state()
        assert abs(rec.xi - st.xi) < 100.0 * tol
        assert abs(-rec.xidot - st.xidot) < 100.0 * tol


def test_integrate_hemisphere_confinement():
    st = random_orbit_state()
    ints = first_integrals(st)
    tp = turning_points(ints.I1, ints.I2)
    traj = integrate(st, SPHERE, 10.0, 1e-10)
    r2 = np.abs(traj.xi) ** 2
    assert np.min(r2) >= tp.R_min**2 - 1e-6
    assert np.max(r2) <= tp.R_max**2 + 1e-6


def test_integrate_lower_hemisphere():
    # radially inward from R = 1.5: negative I1, equator reached
    traj = integrate(GeodesicState(0.0, 1.5, -1.0), SPHERE, 10.0, 1e-6)
    assert traj.integrals0.I1 < 0.0
    assert traj.termination is Termination.EQUATOR_REACHED
    assert traj.max_drift[0] < 1e-4


def test_integrate_samples_strictly_increasing():
    traj = integrate(random_orbit_state(), SPHERE, 4.0, 1e-8)
    assert np.all(np.diff(traj.t) > 0.0)
    states = traj.samples
    assert len(states) == len(traj)
    assert states[0].t == 0.0 and isinstance(states[0], GeodesicState)


def test_integrate_step_underflow_reported():
    # a min_step above the natural step size forces underflow on any
    # curving orbit at a tight tolerance
    traj = integrate(random_orbit_state(), SPHERE, 10.0, 1e-10, min_step=5e-2)
    assert traj.termination is Termination.STEP_UNDERFLOW
    assert traj.t_hit is None


def test_integrate_preconditions():
    st = GeodesicState(0.0, 0.2, 1.0)
    with pytest.raises(DomainError):
        integrate(st, StandardSphere(0.0), 1.0, 1e-8)
    with pytest.raises(DomainError):
        integrate(st, SPHERE, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(st, SPHERE, -1.0, 1e-8)
    with pytest.raises(DomainError):
        integrate(GeodesicState(0.0, 1.0, 1.0), SPHERE, 1.0, 1e-8)  # on the equator
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            integrate(st, SPHERE, bad, 1e-8)
        with pytest.raises(DomainError):
            integrate(st, SPHERE, 1.0, bad)


def test_integrate_nonzero_start_time():
    st = GeodesicState(2.0, 0.2, 0.5j)
    traj = integrate(st, SPHERE, 3.0, 1e-8)
    assert traj.t[0] == 2.0
    assert traj.t[-1] == 3.0


# -- trajectory export -------------------------------------------------------------


def test_csv_schema_and_round_trip():
    traj = integrate(random_orbit_state(), SPHERE, 2.0, 1e-8)
    buf = io.StringIO()
    write_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == CSV_HEADER == "t,R,theta,xi_re,xi_im,xidot_re,xidot_im,I1,I2"
    assert len(lines) == len(traj) + 1
    # 17 significant digits round-trip exactly
    first = lines[1].split(",")
    assert float(first[0]) == traj.t[0]
    assert float(first[3]) == traj.xi[0].real
    assert float(first[4]) == traj.xi[0].imag
    last = lines[-1].split(",")
    assert float(last[5]) == traj.xidot[-1].real
    i1s, i2s = traj.integral_series()
    assert float(last[7]) == i1s[-1]
    assert float(last[8]) == i2s[-1]
    assert float(last[1]) == traj.radius[-1]


def test_max_drift_definition():
    traj = integrate(random_orbit_state(), SPHERE, 5.0, 1e-9)
    i1s, i2s = traj.integral_series()
    d1 = np.max(np.abs(i1s - i1s[0])) / max(abs(i1s[0]), 1e-30)
    d2 = np.max(np.abs(i2s - i2s[0])) / max(abs(i2s[0]), 1e-30)
    assert traj.max_drift == (d1, d2)
