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
from linegeo import _kernels_py as kernels
from linegeo.geodesics import CSV_CHUNK_ROWS, CSV_HEADER, EQUATOR_CUTOFF, MIN_STEP

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
    assert len(traj.xi) == len(traj.xidot) == len(traj)
    assert traj.t[0] == 0.0 and isinstance(traj.final_state(), GeodesicState)


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


def test_integrate_max_steps_returns_partial_trajectory():
    # the first 50 step attempts from this start are all accepted
    traj = integrate(GeodesicState(0.0, 0.3, 0.2 + 0.1j), SPHERE, 100.0, 1e-10, max_steps=50)
    assert traj.termination is Termination.MAX_STEPS
    assert traj.termination.value == "max_steps"
    assert len(traj) == 51
    assert 0.0 < traj.t[-1] < 100.0
    assert traj.t_hit is None


# -- kernel against the generic tableau loop ------------------------------------------


def reference_geod_integrate(xi0, xidot0, t_span, tol, equator_cut, h_min, max_steps):
    """The Dormand-Prince stepper as a generic loop over the tableau tuples;
    ``geod_integrate`` must reproduce it bit for bit."""
    t = 0.0
    y0, y1 = complex(xi0), complex(xidot0)
    ts = [0.0]
    xis = [y0]
    xds = [y1]
    h = min(1e-2, 1e-2 * (1.0 + abs(y0)) / (1.0 + abs(y1)), t_span)
    k = [None] * 7
    k[0] = kernels.geod_rhs(y0, y1)
    status = kernels.STATUS_MAX_STEPS
    t_hit = math.nan
    for _ in range(max_steps):
        clipped = t + h >= t_span
        if clipped:
            h = t_span - t
        for i in range(1, 7):
            a = kernels._A[i]
            s0 = 0.0j
            s1 = 0.0j
            for j in range(i):
                s0 += a[j] * k[j][0]
                s1 += a[j] * k[j][1]
            k[i] = kernels.geod_rhs(y0 + h * s0, y1 + h * s1)
        i0 = i1 = e0 = e1 = 0.0j
        for i in range(7):
            i0 += kernels._B5[i] * k[i][0]
            i1 += kernels._B5[i] * k[i][1]
            e0 += kernels._ERR[i] * k[i][0]
            e1 += kernels._ERR[i] * k[i][1]
        y0n = y0 + h * i0
        y1n = y1 + h * i1
        e0 *= h
        e1 *= h
        err = abs(e0.real) / (1.0 + max(abs(y0.real), abs(y0n.real)))
        err = max(err, abs(e0.imag) / (1.0 + max(abs(y0.imag), abs(y0n.imag))))
        err = max(err, abs(e1.real) / (1.0 + max(abs(y1.real), abs(y1n.real))))
        err = max(err, abs(e1.imag) / (1.0 + max(abs(y1.imag), abs(y1n.imag))))
        err /= tol
        if err <= 1.0:
            y0o = y0
            t = t_span if clipped else t + h
            y0, y1 = y0n, y1n
            k[0] = k[6]
            ts.append(t)
            xis.append(y0)
            xds.append(y1)
            s_new = 1.0 - (y0 * y0.conjugate()).real
            if abs(s_new) <= equator_cut:
                s_old = 1.0 - (y0o * y0o.conjugate()).real
                t_hit = t + s_new * (ts[-1] - ts[-2]) / (s_old - s_new)
                status = kernels.STATUS_EQUATOR
                break
            if t >= t_span:
                status = kernels.STATUS_TIME_LIMIT
                break
        if err == 0.0:
            fac = 5.0
        elif math.isnan(err):
            fac = 0.2
        else:
            fac = min(5.0, max(0.2, 0.9 * err**-0.2))
        h *= fac
        if h < h_min:
            status = kernels.STATUS_UNDERFLOW
            break
    return (
        np.asarray(ts, dtype=np.float64),
        np.asarray(xis, dtype=np.complex128),
        np.asarray(xds, dtype=np.complex128),
        status,
        t_hit,
    )


_ORACLE_RUNS = [
    # tol-1e-10 orbits
    pytest.param(0.3, 0.2 + 0.1j, 8.0, 1e-10, kernels.STATUS_TIME_LIMIT, id="orbit-a"),
    pytest.param(0.5j, -0.4 + 0.7j, 8.0, 1e-10, kernels.STATUS_TIME_LIMIT, id="orbit-b"),
    pytest.param(-0.25 + 0.4j, 0.9 - 0.3j, 8.0, 1e-10, kernels.STATUS_TIME_LIMIT, id="orbit-c"),
    pytest.param(0.7, 0.05j, 8.0, 1e-10, kernels.STATUS_TIME_LIMIT, id="orbit-d"),
    # radial runs from the pole: to the equator, and step underflow before it
    pytest.param(0.0, 0.6 + 0.8j, 10.0, 1e-6, kernels.STATUS_EQUATOR, id="radial-1e-6"),
    pytest.param(0.0, 1.0, 10.0, 1e-12, kernels.STATUS_UNDERFLOW, id="radial-1e-12"),
    # a trial stage of the first step lands exactly on xi = 1
    pytest.param(
        0.9999999850988388, 7.450580590301892e-06, 1.0, 1e-6, kernels.STATUS_EQUATOR,
        id="equator-trial-stage",
    ),
]


@pytest.mark.parametrize("xi0, xidot0, t_span, tol, status", _ORACLE_RUNS)
def test_kernel_matches_generic_tableau_loop(xi0, xidot0, t_span, tol, status):
    args = (xi0, xidot0, t_span, tol, EQUATOR_CUTOFF, MIN_STEP, 1_000_000)
    t, xi, xidot, got_status, t_hit = kernels.geod_integrate(*args)
    t_ref, xi_ref, xidot_ref, ref_status, t_hit_ref = reference_geod_integrate(*args)
    assert got_status == ref_status == status
    assert np.array_equal(t, t_ref)
    assert np.array_equal(xi, xi_ref)
    assert np.array_equal(xidot, xidot_ref)
    assert t_hit == t_hit_ref or (math.isnan(t_hit) and math.isnan(t_hit_ref))


def test_kernel_matches_generic_tableau_loop_at_step_cap():
    # the controller rejects several of the first attempts from this start
    args = (0.2, 0.5j, 100.0, 1e-8, EQUATOR_CUTOFF, MIN_STEP, 50)
    got = kernels.geod_integrate(*args)
    ref = reference_geod_integrate(*args)
    assert got[3] == ref[3] == kernels.STATUS_MAX_STEPS
    assert len(got[0]) < 51
    for a, b in zip(got[:3], ref[:3]):
        assert np.array_equal(a, b)


# -- trajectory export -------------------------------------------------------------


def reference_csv(traj):
    """The export schema written value by value with format(v, ".17g")."""
    i1s, i2s = traj.integral_series()
    theta = np.angle(traj.xi)
    lines = [CSV_HEADER]
    for j in range(len(traj)):
        row = (
            traj.t[j], traj.radius[j], theta[j], traj.xi[j].real, traj.xi[j].imag,
            traj.xidot[j].real, traj.xidot[j].imag, i1s[j], i2s[j],
        )
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_per_value_formatting():
    long_traj = integrate(state_from_integrals(0.6, 0.16, 0.5), SPHERE, 20.0, 1e-10)
    assert len(long_traj) > 2 * CSV_CHUNK_ROWS and len(long_traj) % CSV_CHUNK_ROWS != 0
    short_traj = integrate(GeodesicState(0.0, 0.3, 0.2 + 0.1j), SPHERE, 1e-3, 1e-10)
    assert len(short_traj) == 2
    for traj in (long_traj, short_traj):
        buf = io.StringIO()
        write_csv(traj, buf)
        # as lists of lines, so that a failure reports the first differing line
        # instead of diffing the whole text
        got = buf.getvalue().splitlines(keepends=True)
        assert got == reference_csv(traj).splitlines(keepends=True)



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
