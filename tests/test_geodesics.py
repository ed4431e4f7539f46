"""Geodesic ODE, first integrals, adaptive integration."""

import cmath
import inspect
import io
import linecache
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linegeo import (
    CRITICAL_RADIUS,
    MIN_ORBIT_RATIO,
    DomainError,
    GeodesicState,
    NoOrbitError,
    Termination,
    blowup_time,
    first_integrals,
    integrate,
    state_from_integrals,
    state_from_polar,
    turning_points,
    write_csv,
)
from linegeo import geodesics
from linegeo.geodesics import CSV_HEADER, EQUATOR_CUTOFF, MIN_STEP
from linegeo.geodesics import _A as DOP853_A, _B as DOP853_B, _BHH as DOP853_BHH, _E5 as DOP853_E5
from oracles import christoffel, polar, rhs
from oracles import first_integrals_arrays as complex_first_integrals_arrays

RNG = np.random.default_rng(91003)


def random_orbit_state(max_ratio=60.0):
    while True:
        big_r = RNG.uniform(0.15, 0.8)
        st = state_from_polar(
            big_r, RNG.uniform(0, 2 * math.pi), RNG.uniform(-1, 1), RNG.uniform(-2, 2)
        )
        ints = first_integrals(st)
        if ints.I2 != 0.0 and ints.I1 / ints.I2**2 <= max_ratio:
            return st


# -- the Christoffel symbol and the rhs, in complex arithmetic -----------------


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


def flow_points(count, seed):
    """Seeded xi: the four signed zeros of the pole, then a quarter on
    the real axis and a quarter on the imaginary axis, each with a signed
    zero for its other part, the rest at uniform angles; radii uniform in
    [0, 3) or log-uniform in [e^-300, e^100]."""
    rng = random.Random(seed)
    yield from (complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0))
    for k in range(count - 4):
        r = rng.uniform(0.0, 3.0) if rng.random() < 0.5 else math.exp(rng.uniform(-300.0, 100.0))
        x = r if rng.random() < 0.5 else -r
        zero = 0.0 if rng.random() < 0.5 else -0.0
        if k % 4 == 0:
            yield complex(x, zero)
        elif k % 4 == 1:
            yield complex(zero, x)
        else:
            yield cmath.rect(r, rng.uniform(-math.pi, math.pi))


def test_christoffel_is_the_reference_rhs_at_unit_velocity():
    # ties the Gamma above to the stepper: the kernel equals the tableau
    # loop on reference_rhs bit for bit, and reference_rhs(xi, 1) is
    # -Gamma(xi) off the equator, on which no point here lies (== ignores
    # the sign of a part that is exactly zero)
    for xi in [*flow_points(60_000, 2211), 1.0 - 1e-14, cmath.rect(1.0 + 1e-14, 0.7)]:
        assert reference_rhs(xi, 1.0)[1] == -christoffel(xi), xi


def test_first_integrals_arrays_equal_their_complex_oracle_bit_for_bit():
    xis = list(flow_points(50_000, 2212))
    xidots = list(flow_points(50_000, 2213))
    got = geodesics.first_integrals_arrays(xis, xidots)
    want = complex_first_integrals_arrays(xis, xidots)
    for g, w in zip(got, want):
        assert bits(g) == bits(w)


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
        big_r, _, rdot, thetadot = polar(st)
        f = (1.0 - big_r**2) / (1.0 + big_r**2) ** 3
        i1 = f * (rdot**2 + big_r**2 * thetadot**2)
        i2 = f * big_r**2 * thetadot
        ints = first_integrals(st)
        assert abs(ints.I1 - i1) < 1e-13 * max(1.0, abs(i1))
        assert abs(ints.I2 - i2) < 1e-13 * max(1.0, abs(i2))


def test_radial_data_has_zero_angular_momentum():
    st = GeodesicState(0.0, 0.4, 0.9)  # xidot parallel to xi, both real
    assert first_integrals(st).I2 == 0.0


def test_first_integrals_are_evaluated_in_the_chart_of_the_run():
    # a lower-hemisphere state is evaluated in zeta = 1/xi, where integrate
    # runs it, with I1 negated into the xi sense: the run's integrals0 bit
    # for bit, where the xi chart differed in most draws
    rng = random.Random(3512)
    for _ in range(300):
        xi = cmath.rect(rng.uniform(1.02, 5.0), rng.uniform(-math.pi, math.pi))
        st = GeodesicState(0.0, xi, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        assert first_integrals(st) == integrate(st, 1e-3, 1e-8).integrals0
    # (1 + |xi|^2)^3 overflows in xi, not in zeta = 1e-103, where both
    # integrals underflow to zero
    ints = first_integrals(GeodesicState(0.0, 1e103, 1.0))
    assert (ints.I1, math.copysign(1.0, ints.I1), ints.I2) == (0.0, -1.0, 0.0)


def test_polar_round_trip():
    st = random_orbit_state()
    back = state_from_polar(*polar(st))
    assert abs(back.xi - st.xi) < 1e-14
    assert abs(back.xidot - st.xidot) < 1e-14


@pytest.mark.parametrize("polar_values, message", [
    ((math.nan, 0.0, 0.0, 1.0), "R must be finite, got nan"),
    ((0.5, math.inf, 0.0, 1.0), "theta must be finite, got inf"),
    ((0.5, 0.0, -math.inf, 1.0), "Rdot must be finite, got -inf"),
    ((-1.0, 0.0, 0.0, math.nan), "thetadot must be finite, got nan"),  # named before the sign
    ((-1.0, 0.0, 0.0, 1.0), "radius must be >= 0, got -1.0"),
])
def test_state_from_polar_refuses_bad_values(polar_values, message):
    with pytest.raises(DomainError) as info:
        state_from_polar(*polar_values)
    assert str(info.value) == message


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


@pytest.mark.parametrize("i1, i2, r0", [
    (math.nan, 0.0, 0.5), (math.inf, 0.0, 0.5), (-math.inf, 0.2, 0.5), (0.6, math.nan, 0.5),
    (math.nan, 0.0, 2.0),  # named before the radius is looked at
])
def test_state_from_integrals_names_non_finite_integrals(i1, i2, r0):
    with pytest.raises(DomainError) as info:
        state_from_integrals(i1, i2, r0)
    assert str(info.value) == (
        f"first integrals must be finite doubles, got I1 = {i1!r}, I2 = {i2!r}")


def test_state_from_integrals_inward_sign():
    st = state_from_integrals(1.0, 0.2, 0.5, outward=False)
    assert polar(st)[2] <= 0.0


@pytest.mark.parametrize("k", [12.0, 1e4, 1e8, 1e12])
def test_state_from_integrals_launches_at_a_turning_radius_at_rest_radially(k):
    # U(r0) rounds, so I1 - U(r0) I2^2 at a reported turning radius is not
    # exactly 0, and near the equator Rdot = sqrt(disc/f) magnifies that
    tp = turning_points(k, 1.0)
    for r0 in (tp.R_min, tp.R_max):
        for outward in (True, False):
            st = state_from_integrals(k, 1.0, r0, outward=outward)
            assert polar(st)[2] == 0.0
            assert abs(st.xi) == r0


def upper_hemisphere_states(count, seed):
    """Seeded states: R uniform in [0, 0.999), |xidot| log-uniform in
    [1e-3, 1e3], both angles uniform."""
    rng = random.Random(seed)
    for _ in range(count):
        xi = cmath.rect(0.999 * rng.random(), rng.uniform(-math.pi, math.pi))
        xidot = cmath.rect(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-math.pi, math.pi))
        yield GeodesicState(0.0, xi, xidot)


def test_energy_momentum_image_lies_above_the_critical_parabola():
    # I1 = U(R) I2^2 + f Rdot^2 with U >= MIN_ORBIT_RATIO and f > 0 on the
    # upper hemisphere, so (I1, I2) maps into I1 >= 6 sqrt(3) I2^2; the
    # boundary is reached by the circular orbits at CRITICAL_RADIUS
    for state in upper_hemisphere_states(2000, 18):
        ints = first_integrals(state)
        assert ints.I1 >= MIN_ORBIT_RATIO * ints.I2**2 - 1e-12 * ints.I1
    circular = first_integrals(
        state_from_integrals(1.0, 1.0 / math.sqrt(MIN_ORBIT_RATIO), CRITICAL_RADIUS)
    )
    assert abs(circular.I1 - MIN_ORBIT_RATIO * circular.I2**2) / circular.I1 <= 1e-12


def energy_momentum_jacobian(xi, xidot):
    """The 2x4 Jacobian of (I1, I2) = (f |xidot|^2, f Im(conj(xi) xidot))
    in (Re xi, Im xi, Re xidot, Im xidot), with f'(m) = -2(2-m)/(1+m)^4."""
    x, y, u, v = xi.real, xi.imag, xidot.real, xidot.imag
    m = x * x + y * y
    f = (1.0 - m) / (1.0 + m) ** 3
    df = -2.0 * (2.0 - m) / (1.0 + m) ** 4
    speed2, momentum = u * u + v * v, x * v - y * u
    return np.array([
        [2.0 * df * x * speed2, 2.0 * df * y * speed2, 2.0 * f * u, 2.0 * f * v],
        [2.0 * df * x * momentum + f * v, 2.0 * df * y * momentum - f * u, -f * y, f * x],
    ])


def independence(state):
    """sigma_min of the Jacobian with its velocity columns scaled by
    |xidot| and its rows normalised: both then scale alike with the
    speed, so the value depends on the orbit, not on how fast it runs."""
    speed = abs(state.xidot)
    rows = energy_momentum_jacobian(state.xi, state.xidot) * [1.0, 1.0, speed, speed]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return np.linalg.svd(rows, compute_uv=False)[-1]


def test_energy_momentum_jacobian_matches_mpmath_differences():
    def integrals(x, y, u, v):
        f = (1 - x * x - y * y) / (1 + x * x + y * y) ** 3
        return f * (u * u + v * v), f * (x * v - y * u)

    with mpmath.workdps(40):
        h = mpmath.mpf("1e-15")
        for state in upper_hemisphere_states(50, 19):
            point = [mpmath.mpf(p) for p in (state.xi.real, state.xi.imag,
                                             state.xidot.real, state.xidot.imag)]
            columns = []
            for k in range(4):
                up, down = list(point), list(point)
                up[k] += h
                down[k] -= h
                pairs = zip(integrals(*up), integrals(*down))
                columns.append([(a - b) / (2 * h) for a, b in pairs])
            want = np.array(columns, dtype=float).T
            got = energy_momentum_jacobian(state.xi, state.xidot)
            scale = np.linalg.norm(want, axis=1)
            assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * scale)


def test_energy_momentum_map_drops_rank_on_the_circular_orbits():
    circular = state_from_integrals(1.0, 1.0 / math.sqrt(MIN_ORBIT_RATIO), CRITICAL_RADIUS)
    assert independence(circular) < 1e-15
    # tangential launches at R_c (1 + eps): sigma_min ~ sqrt(k / 6 sqrt(3) - 1)
    excess, sigma = [], []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        state = GeodesicState(0.0, CRITICAL_RADIUS * (1.0 + eps), 1j)
        ints = first_integrals(state)
        excess.append(ints.I1 / ints.I2**2 / MIN_ORBIT_RATIO - 1.0)
        sigma.append(independence(state))
    exponent = np.polyfit(np.log(excess), np.log(sigma), 1)[0]
    assert abs(exponent - 0.5) <= 0.01


def test_energy_momentum_independence_falls_like_the_equator_distance():
    # the degenerate equator, not a critical orbit: sigma_min / (1 - |xi|^2)
    # tends to 1/(2 sqrt(2)), at every speed
    for big_r in (0.99, 0.999, 0.9999, 0.99999):
        ratios = [independence(GeodesicState(0.0, big_r, 1j * speed)) / (1.0 - big_r**2)
                  for speed in (1e-3, 1.0, 1e3)]
        assert all(0.34 <= ratio <= 0.36 for ratio in ratios)
        assert max(ratios) - min(ratios) <= 1e-12


def test_energy_momentum_integrals_are_independent_off_the_critical_set():
    # sigma_min >= 1e-3 (1 - |xi|^2) min(1, sqrt(k / 6 sqrt(3) - 1)), with
    # k = I1 / I2^2 (infinite on radial states); the smallest ratio is 0.21
    for state in upper_hemisphere_states(2000, 18):
        ints = first_integrals(state)
        k = ints.I1 / ints.I2**2 if ints.I2 else math.inf
        excess = max(0.0, k / MIN_ORBIT_RATIO - 1.0)
        floor = (1.0 - abs(state.xi) ** 2) * min(1.0, math.sqrt(excess))
        assert independence(state) >= 1e-3 * floor


# -- integrate --------------------------------------------------------------------


def test_integrate_radial_blowup_hit_time():
    traj = integrate(GeodesicState(0.0, 0.0, 1.0), 10.0, 1e-6)
    assert traj.termination is Termination.EQUATOR_REACHED
    predicted = blowup_time(1.0)
    assert abs(traj.t_hit - predicted) / predicted < 1e-4
    assert traj.t_hit >= traj.t[-1]


def test_integrate_constant_solution():
    traj = integrate(GeodesicState(0.0, 0.3 + 0.1j, 0.0), 5.0, 1e-10)
    assert traj.termination is Termination.TIME_LIMIT
    assert np.all(np.abs(np.asarray(traj.xi) - (0.3 + 0.1j)) < 1e-14)
    assert traj.t[-1] == 5.0


def test_integrate_conservation_drift():
    for _ in range(5):
        st = random_orbit_state()
        traj = integrate(st, 10.0, 1e-10)
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.max_drift[0] < 1e-8
        assert traj.max_drift[1] < 1e-8


@pytest.mark.parametrize("xi0, xidot0", [(0.3, 0.2 + 0.1j), (0.5j, -0.4 + 0.7j),
                                          (-0.25 + 0.4j, 0.9 - 0.3j)])
def test_integrate_endpoint_error_follows_tolerance(xi0, xidot0):
    # the global error at t = 10, against a tol-1e-13 run, stays within a
    # small multiple of the requested tolerance (at most 4.9 x tol here)
    st = GeodesicState(0.0, xi0, xidot0)
    ref = integrate(st, 10.0, 1e-13).final_state()
    for tol in (1e-6, 1e-8, 1e-10):
        end = integrate(st, 10.0, tol).final_state()
        assert end.t == ref.t == 10.0
        assert abs(end.xi - ref.xi) <= 10.0 * tol
        assert abs(end.xidot - ref.xidot) <= 10.0 * tol


def test_integrate_eccentric_orbit_drift_to_t_100():
    # I1/I2^2 = 22, the most eccentric orbits of the benchmark, over its longest span
    i1 = 0.6
    i2 = math.sqrt(i1 / 22.0)
    tp = turning_points(i1, i2)
    st = state_from_integrals(i1, i2, 0.5 * (tp.R_min + tp.R_max))
    traj = integrate(st, 100.0, 1e-10)
    assert traj.termination is Termination.TIME_LIMIT
    assert max(traj.max_drift) < 1e-8


#: the closed orbit of rotation number W = 2/3 at I2 = 1: I1/I2^2 = k, and
#: its radial period T = 2 * integral of dR/Rdot between the turning radii,
#: the roots in (0, 1) of the cubic x^3 + (3+k) x^2 + (3-k) x + 1 in x = R^2
#: (mpmath polyroots and quad at 40 digits; the same script gives
#: W = 0.666666666666666681)
W_TWO_THIRDS_K, W_TWO_THIRDS_T = 19.027516150818762, 0.30032967009934616663


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_closure_error_of_a_closed_orbit_grows_like_the_square_of_the_periods(tol):
    # after 3n radial periods the W = 2/3 orbit is back at its start; the
    # stepper neither keeps the integrals nor is symmetric, so its phase
    # error grows like t^2 (measured exponents 2.09 at tol 1e-8 and 2.15 at
    # 1e-10); a method that kept the integrals would grow like t
    start = state_from_integrals(
        W_TWO_THIRDS_K, 1.0, turning_points(W_TWO_THIRDS_K, 1.0).R_max
    )
    errors = []
    for n in (1, 4, 16, 64):
        traj = integrate(start, 3 * n * W_TWO_THIRDS_T, tol)
        assert traj.termination is Termination.TIME_LIMIT
        errors.append(abs(traj.xi[-1] - start.xi))
    assert errors[0] <= 100 * tol  # one revolution closes
    assert errors == sorted(errors)
    exponent = math.log(errors[3] / errors[1]) / math.log(16.0)
    assert 1.8 <= exponent <= 2.4


def test_integrate_radial_invariance_of_argument():
    st = GeodesicState(0.0, 0.3 * cmath.exp(0.7j), 0.5 * cmath.exp(0.7j))
    assert abs(first_integrals(st).I2) < 1e-16
    traj = integrate(st, 10.0, 1e-10)
    args = np.angle(traj.xi)
    assert np.max(np.abs(args - 0.7)) < 1e-9


def test_integrate_time_reversal():
    st = random_orbit_state()
    for tol in (1e-10, 1e-8):
        fwd = integrate(st, 3.0, tol)
        end = fwd.final_state()
        back = integrate(GeodesicState(0.0, end.xi, -end.xidot), 3.0, tol)
        rec = back.final_state()
        assert abs(rec.xi - st.xi) < 100.0 * tol
        assert abs(-rec.xidot - st.xidot) < 100.0 * tol


def test_integrate_hemisphere_confinement():
    st = random_orbit_state()
    ints = first_integrals(st)
    tp = turning_points(ints.I1, ints.I2)
    traj = integrate(st, 10.0, 1e-10)
    r2 = np.abs(traj.xi) ** 2
    assert np.min(r2) >= tp.R_min**2 - 1e-6
    assert np.max(r2) <= tp.R_max**2 + 1e-6


def test_integrate_lower_hemisphere():
    # radially inward from R = 1.5: negative I1, equator reached
    traj = integrate(GeodesicState(0.0, 1.5, -1.0), 10.0, 1e-6)
    assert traj.integrals0.I1 < 0.0
    assert traj.termination is Termination.EQUATOR_REACHED
    assert traj.max_drift[0] < 1e-4


def test_integrate_orbit_running_out_stays_in_the_zeta_chart():
    # radially outward from R = 1.5: the orbit runs out towards xi = infinity,
    # which in zeta = 1/xi is an ordinary passage through the pole zeta = 0
    traj = integrate(GeodesicState(0.0, 1.5, 1.0), 10.0, 1e-6)
    assert traj.chart == "zeta"
    assert traj.termination is Termination.EQUATOR_REACHED
    assert min(traj.radius) < 0.1 and max(traj.radius) < 1.0
    assert traj.xi[0] == 1.0 / 1.5 and traj.xidot[0] == -(1.0 / 1.5) ** 2
    # starts far out, at |xi| = 1e9 and 1e50, are ordinary points near zeta = 0
    for xi0 in (1e9, 1e50):
        traj = integrate(GeodesicState(0.0, xi0, 1.0), 1.0, 1e-6)
        assert traj.chart == "zeta"
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.xi[0] == 1.0 / xi0
    # an upper-hemisphere start keeps the xi chart
    assert integrate(GeodesicState(0.0, 0.5, 1.0), 0.1, 1e-6).chart == "xi"


def test_lower_hemisphere_orbit_agrees_with_the_xi_chart():
    # orbits that stay finite in xi: integrated directly in xi with the
    # tableau loop, whose equator rule keeps either side (the kernel takes
    # only starts inside the unit disk), and by ``integrate`` in
    # zeta = 1/xi; the two agree to a few times tol, and the integrals map
    # as (I1, I2) -> (-I1, I2)
    zeta_orbit = state_from_integrals(0.6, 0.16, 0.5)  # an annulus orbit in zeta
    starts = [
        (1.5, -1.0, 0.4),  # radially inward, 0.03 before the equator
        (1.5, -1.0 + 0.05j, 0.4),
        (1.0 / zeta_orbit.xi, -zeta_orbit.xidot / zeta_orbit.xi**2, 3.0),
    ]
    tol = 1e-10
    for xi0, xidot0, t_max in starts:
        traj = integrate(GeodesicState(0.0, xi0, xidot0), t_max, tol)
        assert traj.chart == "zeta" and traj.termination is Termination.TIME_LIMIT
        t, xis, xds, status, _, _ = reference_geod_integrate(
            xi0, xidot0, t_max, tol, EQUATOR_CUTOFF, MIN_STEP, 1_000_000
        )
        assert status is Termination.TIME_LIMIT and t[-1] == traj.t[-1] == t_max
        zeta, zetadot = traj.xi[-1], traj.xidot[-1]
        assert abs(1.0 / zeta - xis[-1]) <= 10 * tol * abs(xis[-1])
        assert abs(-zetadot / zeta**2 - xds[-1]) <= 10 * tol * abs(xds[-1])
        ints = first_integrals(GeodesicState(0.0, xi0, xidot0))
        assert math.isclose(traj.integrals0.I1, ints.I1, rel_tol=1e-14)
        assert math.isclose(traj.integrals0.I2, ints.I2, rel_tol=1e-14, abs_tol=1e-300)
        assert traj.integrals0.I1 < 0.0


def test_lower_hemisphere_sweep_stays_inside_the_zeta_chart():
    # |xi0| log-uniform in (1.01, 1e12), any direction, speeds in zeta
    # from 0.1 to 3: every run stays in |zeta| < 1 and ends normally
    rng = random.Random(20261018)
    for _ in range(200):
        xi0 = 10.0 ** rng.uniform(math.log10(1.01), 12.0) * cmath.exp(2j * math.pi * rng.random())
        speed = rng.uniform(0.1, 3.0) * abs(xi0) ** 2
        xidot0 = speed * cmath.exp(2j * math.pi * rng.random())
        traj = integrate(GeodesicState(0.0, xi0, xidot0), 3.0, 1e-6)
        assert traj.chart == "zeta"
        assert traj.termination in (Termination.TIME_LIMIT, Termination.EQUATOR_REACHED)
        assert max(traj.radius) < 1.0
        assert traj.integrals0.I1 < 0.0


def test_restart_from_final_state_keeps_the_chart_and_the_sign_of_i1():
    # final_state() is in xi, so integrate continues a zeta run in zeta with
    # the same integrals, starting from the run's last sample
    for xi0, xidot0 in ((1.5, 1.0 + 0.2j), (0.3, 0.2 + 0.1j)):
        first = integrate(GeodesicState(0.0, xi0, xidot0), 1.0, 1e-8)
        end = first.final_state()
        assert end.t == 1.0 and (abs(end.xi) > 1.0) == (first.chart == "zeta")
        again = integrate(end, 2.0, 1e-8)
        assert again.chart == first.chart
        assert abs(again.xi[0] - first.xi[-1]) <= 1e-15 * abs(first.xi[-1])
        assert abs(again.xidot[0] - first.xidot[-1]) <= 1e-15 * abs(first.xidot[-1])
        assert math.isclose(again.integrals0.I1, first.integrals0.I1, rel_tol=1e-7)
        assert (again.integrals0.I1 < 0.0) == (first.chart == "zeta")
    # a zeta run that ends at the pole zeta = 0 has no finite xi state
    traj = integrate(GeodesicState(0.0, 1e308 + 1e308j, 1.0), 1.0, 1e-6)
    assert traj.chart == "zeta" and traj.xi[-1] == 0.0
    with pytest.raises(DomainError):
        traj.final_state()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 0.95), st.booleans(), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 3.0),
    st.floats(0.0, 2.0 * math.pi), st.floats(-8.0, 3.0), st.floats(1e-3, 2.0),
)
def test_integrate_stays_on_its_side_of_the_equator_at_any_tol(
    rho, lower, theta, speed, phi, log_tol, t_max
):
    # starts with |xi0| <= 0.95 or >= 1/0.95 and |xidot0| <= 3, tol from
    # 1e-8 to 1e3: every run returns or raises DomainError, and no sample
    # lies past the cutoff band across the equator of its chart
    if lower:
        rho = 1.0 / max(rho, 1e-3)
    start = GeodesicState(0.0, cmath.rect(rho, theta), cmath.rect(speed, phi))
    try:
        traj = integrate(start, t_max, 10.0 ** log_tol)
    except DomainError:
        return
    assert min(1.0 - abs(z) ** 2 for z in traj.xi) >= -EQUATOR_CUTOFF


def test_integrate_samples_strictly_increasing():
    traj = integrate(random_orbit_state(), 4.0, 1e-8)
    assert np.all(np.diff(traj.t) > 0.0)
    assert len(traj.xi) == len(traj.xidot) == len(traj)
    assert traj.t[0] == 0.0 and isinstance(traj.final_state(), GeodesicState)


def test_integrate_step_underflow_reported(monkeypatch):
    # this orbit's natural steps at tol 1e-10 range from 5e-3 to 0.5: the run
    # grows its step past MIN_STEP, then underflows where the orbit curves
    monkeypatch.setattr(geodesics, "MIN_STEP", 5e-2)
    traj = integrate(GeodesicState(0.0, 0.3, 0.2 + 0.1j), 10.0, 1e-10)
    assert traj.termination is Termination.STEP_UNDERFLOW
    assert traj.t_hit is None
    assert len(traj) > 2 and 0.0 < traj.t[-1] < 10.0


def test_integrate_preconditions():
    st = GeodesicState(0.0, 0.2, 1.0)
    with pytest.raises(DomainError):
        integrate(st, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(st, -1.0, 1e-8)
    with pytest.raises(DomainError):
        integrate(GeodesicState(0.0, 1.0, 1.0), 1.0, 1e-8)  # on the equator
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            integrate(st, bad, 1e-8)
        with pytest.raises(DomainError):
            integrate(st, 1.0, bad)


def test_a_non_finite_start_time_is_a_domain_error(monkeypatch):
    # with the step cap a regression fails fast instead of spinning to MAX_STEPS
    monkeypatch.setattr(geodesics, "MAX_STEPS", 50)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="t must be finite"):
            integrate(GeodesicState(bad, 0.3, 0.1j), 1.0, 1e-8)


def test_integrate_rejects_a_span_that_overflows(monkeypatch):
    monkeypatch.setattr(geodesics, "MAX_STEPS", 50)
    with pytest.raises(DomainError, match="overflows"):
        integrate(GeodesicState(-1e308, 0.3, 0.1j), 1e308, 1e-8)
    with pytest.raises(DomainError, match="t_max must be finite"):
        integrate(GeodesicState(-1e308, 0.3, 0.1j), math.inf, 1e-8)


def test_integrate_nonzero_start_time():
    st = GeodesicState(2.0, 0.2, 0.5j)
    traj = integrate(st, 3.0, 1e-8)
    assert traj.t[0] == 2.0
    assert traj.t[-1] == 3.0


def test_integrate_max_steps_returns_partial_trajectory(monkeypatch):
    # the first 50 step attempts from this start are all accepted
    monkeypatch.setattr(geodesics, "MAX_STEPS", 50)
    traj = integrate(GeodesicState(0.0, 0.6, 0.1j), 100.0, 1e-10)
    assert traj.termination is Termination.MAX_STEPS
    assert traj.termination.value == "max_steps"
    assert len(traj) == 51
    assert traj.stats == {"accepted_steps": 50, "rejected_steps": 0, "rhs_evals": 601}
    assert 0.0 < traj.t[-1] < 100.0
    assert traj.t_hit is None


def test_integrate_max_steps_counts_rejected_attempts(monkeypatch):
    # from this start the controller rejects some of the first 50 attempts;
    # accepted and rejected attempts together spend the cap exactly
    monkeypatch.setattr(geodesics, "MAX_STEPS", 50)
    traj = integrate(GeodesicState(0.0, 0.3, 0.2 + 0.1j), 100.0, 1e-10)
    assert traj.termination is Termination.MAX_STEPS
    stats = traj.stats
    assert stats["rejected_steps"] > 0
    assert stats["accepted_steps"] == len(traj) - 1
    assert stats["accepted_steps"] + stats["rejected_steps"] == 50
    assert stats["rhs_evals"] == 1 + 12 * 50


# -- the DOP853 tableau ---------------------------------------------------------------


def test_dop853_tableau_order_conditions():
    """Every sum in exact arithmetic on the double coefficients: each may
    differ from its exact value by no more than the rounding of its terms
    to doubles, 2^-52 times the sum of their magnitudes."""
    with mpmath.workdps(50):
        s6 = mpmath.sqrt(6)
        nodes = [mpmath.mpf(0), (12 - 2 * s6) / 135, (6 - s6) / 45, (6 - s6) / 30, (6 + s6) / 30]
        nodes += [mpmath.mpf(p) / q for p, q in ((1, 3), (1, 4), (4, 13), (127, 195), (3, 5),
                                                 (6, 7), (1, 1))]

        def check(weights, powers, expected):
            terms = [mpmath.mpf(w) * c**powers for w, c in zip(weights, nodes)]
            assert abs(mpmath.fsum(terms) - expected) <= 2**-52 * mpmath.fsum(map(abs, terms))

        assert len(DOP853_A) == len(DOP853_B) == len(nodes) == 12
        for row, c in zip(DOP853_A, nodes):  # the row sums are the nodes
            check(row, 0, c)
        for k in range(1, 9):  # the eighth-order quadrature
            check(DOP853_B, k - 1, mpmath.mpf(1) / k)
        # the embedded estimates vanish on polynomials of degree below their order
        e3 = [mpmath.mpf(b) - mpmath.mpf(bh) for b, bh in zip(DOP853_B, DOP853_BHH)]
        for k in range(1, 6):
            check(DOP853_E5, k - 1, 0)
        for k in range(1, 4):
            check(e3, k - 1, 0)
        with pytest.raises(AssertionError):  # not a ninth-order quadrature
            check(DOP853_B, 8, mpmath.mpf(1) / 9)


# -- kernel against the generic tableau loop ------------------------------------------


def reference_rhs(xi, xidot):
    """rhs on complex scalars in the operation order of ``rhs``,
    -christoffel(xi) xidot^2 with christoffel = -xibar (1/(1-m) + 3/(1+m)),
    and a complex NaN exactly on the equator m = |xi|^2 = 1."""
    xb = xi.conjugate()
    m = (xi * xb).real
    if m == 1.0:
        return xidot, complex(math.nan, math.nan)
    return xidot, -(-xb * (1.0 / (1.0 - m) + 3.0 / (1.0 + m))) * xidot * xidot


def weighted_sum(weights, stages, part):
    """sum_j weights[j] * stages[j][part] over the nonzero weights, in order."""
    total = None
    for w, k in zip(weights, stages):
        if w != 0.0:
            total = w * k[part] if total is None else total + w * k[part]
    return total


def reference_geod_integrate(xi0, xidot0, t_span, tol, equator_cut, h_min, max_steps):
    """The DOP853 stepper as a generic loop over the tableau tuples;
    ``geod_integrate`` must reproduce it bit for bit from every start
    inside the unit disk.  A NaN stage (a point exactly on the equator)
    rejects the attempt, and so does a proposed point past the cutoff
    band on the far side of the equator from the start, on either side."""
    t = 0.0
    y0, y1 = complex(xi0), complex(xidot0)
    ts = [0.0]
    xis = [y0]
    xds = [y1]
    h = min(1e-2, 1e-2 * (1.0 + abs(y0)) / (1.0 + abs(y1)), t_span)
    facmax = 6.0
    k = [reference_rhs(y0, y1)]
    side = 1.0 if (y0 * y0.conjugate()).real < 1.0 else -1.0
    status = Termination.MAX_STEPS
    t_hit = None
    rejected = 0
    for _ in range(max_steps):
        clipped = t + h >= t_span
        if clipped:
            h = t_span - t
        del k[1:]
        for row in DOP853_A[1:]:
            k.append(reference_rhs(
                y0 + h * weighted_sum(row, k, 0), y1 + h * weighted_sum(row, k, 1)
            ))
        s0 = weighted_sum(DOP853_B, k, 0)
        s1 = weighted_sum(DOP853_B, k, 1)
        y0n = y0 + h * s0
        y1n = y1 + h * s1
        k.append(reference_rhs(y0n, y1n))
        if any(cmath.isnan(q) for _, q in k):
            err = math.nan
        else:
            e5 = weighted_sum(DOP853_E5, k, 0), weighted_sum(DOP853_E5, k, 1)
            e3 = s0 - weighted_sum(DOP853_BHH, k, 0), s1 - weighted_sum(DOP853_BHH, k, 1)
            n5 = n3 = None
            for y, yn, d5, d3 in (
                (y0.real, y0n.real, e5[0].real, e3[0].real),
                (y0.imag, y0n.imag, e5[0].imag, e3[0].imag),
                (y1.real, y1n.real, e5[1].real, e3[1].real),
                (y1.imag, y1n.imag, e5[1].imag, e3[1].imag),
            ):
                w = 1.0 + max(abs(y), abs(yn))
                n5 = abs(d5) / w if n5 is None else max(n5, abs(d5) / w)
                n3 = abs(d3) / w if n3 is None else max(n3, abs(d3) / w)
            n5 *= n5
            deno = n5 + 0.01 * n3 * n3
            err = h * n5 / math.sqrt(deno) / tol if deno else 0.0
        if side * (1.0 - (y0n * y0n.conjugate()).real) < -equator_cut:
            err = math.nan
        if err <= 1.0:
            y0o = y0
            t = t_span if clipped else t + h
            y0, y1 = y0n, y1n
            k[0] = k[12]
            ts.append(t)
            xis.append(y0)
            xds.append(y1)
            s_new = 1.0 - (y0 * y0.conjugate()).real
            if abs(s_new) <= equator_cut:
                s_old = 1.0 - (y0o * y0o.conjugate()).real
                t_hit = t + s_new * (ts[-1] - ts[-2]) / (s_old - s_new)
                status = Termination.EQUATOR_REACHED
                break
            if t >= t_span:
                status = Termination.TIME_LIMIT
                break
            fac = facmax if err == 0.0 else min(facmax, max(1 / 3, 0.8 * err**-0.125))
            facmax = 6.0
        else:
            rejected += 1
            fac = 0.2 if math.isnan(err) else min(facmax, max(1 / 3, 0.8 * err**-0.125))
            facmax = 1.0
        h *= fac
        if h < h_min:
            status = Termination.STEP_UNDERFLOW
            break
    return ts, xis, xds, status, t_hit, rejected


def bits(samples):
    """The samples as text that tells -0.0 from 0.0, which == and
    np.array_equal do not, and the CSV export does."""
    return [repr(v) for v in samples]


#: a start on the real axis whose first trial step, h = 1e-2, puts the
#: stage-2 point xi0 + h a21 xidot0 exactly on xi = 1
EQUATOR_TRIAL_XI0 = 1.0 - 2.0**-26
EQUATOR_TRIAL_XIDOT0 = 2.832912194916926e-05


def test_equator_trial_start_puts_stage_2_on_the_equator():
    xi0, xidot0 = complex(EQUATOR_TRIAL_XI0), complex(EQUATOR_TRIAL_XIDOT0)
    h = min(1e-2, 1e-2 * (1.0 + abs(xi0)) / (1.0 + abs(xidot0)), 1.0)
    assert h == 1e-2
    assert xi0 + h * (DOP853_A[1][0] * xidot0) == 1.0
    assert abs(1.0 - xi0 * xi0) > EQUATOR_CUTOFF  # the start lies outside the cutoff band


#: a lower-hemisphere orbit as ``integrate`` hands it to the stepper: in
#: zeta = 1/xi, with zetadot = -xidot zeta^2
ZETA_XI0, ZETA_XIDOT0 = 1.5 + 0.0j, 1.0 + 0.2j
ZETA0 = 1.0 / ZETA_XI0
ZETADOT0 = -ZETA_XIDOT0 * ZETA0 * ZETA0

_ORACLE_RUNS = [
    # tol-1e-10 orbits
    pytest.param(0.3, 0.2 + 0.1j, 8.0, 1e-10, Termination.TIME_LIMIT, id="orbit-a"),
    pytest.param(0.5j, -0.4 + 0.7j, 8.0, 1e-10, Termination.TIME_LIMIT, id="orbit-b"),
    pytest.param(-0.25 + 0.4j, 0.9 - 0.3j, 8.0, 1e-10, Termination.TIME_LIMIT, id="orbit-c"),
    pytest.param(0.7, 0.05j, 8.0, 1e-10, Termination.TIME_LIMIT, id="orbit-d"),
    # radial runs from the pole: to the equator, and step underflow before it
    pytest.param(0.0, 0.6 + 0.8j, 10.0, 1e-6, Termination.EQUATOR_REACHED, id="radial-1e-6"),
    pytest.param(0.0, 1.0, 10.0, 1e-12, Termination.STEP_UNDERFLOW, id="radial-1e-12"),
    # a trial stage of the first step lands exactly on xi = 1
    pytest.param(
        EQUATOR_TRIAL_XI0, EQUATOR_TRIAL_XIDOT0, 1.0, 1e-6, Termination.EQUATOR_REACHED,
        id="equator-trial-stage",
    ),
    # signed zeros: radial runs on the axes keep a zero component, whose
    # sign the CSV prints
    pytest.param(
        complex(-0.0, 0.0), complex(-1.0, -0.0), 10.0, 1e-6, Termination.EQUATOR_REACHED,
        id="pole-negative-real-axis",
    ),
    pytest.param(
        complex(0.5, -0.0), complex(-0.3, -0.0), 10.0, 1e-6, Termination.EQUATOR_REACHED,
        id="real-axis-through-the-pole",
    ),
    pytest.param(
        complex(-0.0, 0.4), complex(-0.0, 0.7), 10.0, 1e-8, Termination.EQUATOR_REACHED,
        id="imaginary-axis",
    ),
    pytest.param(
        complex(0.3, -0.0), complex(-0.0, -0.0), 2.0, 1e-10, Termination.TIME_LIMIT,
        id="at-rest",
    ),
    # a lower-hemisphere orbit, integrated in zeta
    pytest.param(ZETA0, ZETADOT0, 8.0, 1e-10, Termination.TIME_LIMIT, id="zeta-orbit"),
    # a loose tol: the controller proposes points past the equator, which
    # are rejected; without that rule this run crossed and overflowed
    pytest.param(0.0, 1.0, 10.0, 0.5, Termination.STEP_UNDERFLOW, id="loose-tol-radial"),
]


@pytest.mark.parametrize("xi0, xidot0, t_span, tol, status", _ORACLE_RUNS)
def test_kernel_matches_generic_tableau_loop(xi0, xidot0, t_span, tol, status):
    args = (xi0, xidot0, t_span, tol, EQUATOR_CUTOFF, MIN_STEP, 1_000_000)
    t, xi, xidot, got_status, t_hit, rejected, _, _ = geodesics.geod_integrate(*args[:4])
    t_ref, xi_ref, xidot_ref, ref_status, t_hit_ref, rejected_ref = reference_geod_integrate(*args)
    assert got_status is ref_status is status
    assert bits(t) == bits(t_ref)
    assert bits(xi) == bits(xi_ref)
    assert bits(xidot) == bits(xidot_ref)
    assert t_hit == t_hit_ref
    assert rejected == rejected_ref
    assert (t_hit is None) == (status is not Termination.EQUATOR_REACHED)


def test_kernel_matches_generic_tableau_loop_at_step_cap(monkeypatch):
    # the controller rejects several of the first attempts from this start
    monkeypatch.setattr(geodesics, "MAX_STEPS", 50)
    got = geodesics.geod_integrate(0.2, 0.5j, 100.0, 1e-8)
    ref = reference_geod_integrate(0.2, 0.5j, 100.0, 1e-8, EQUATOR_CUTOFF, MIN_STEP, 50)
    assert got[3] is ref[3] is Termination.MAX_STEPS
    assert len(got[0]) < 51
    assert len(got[0]) - 1 + got[5] == 50
    assert got[5] == ref[5]
    for a, b in zip(got[:3], ref[:3]):
        assert bits(a) == bits(b)


def test_kernel_rejects_every_point_outside_the_disk_from_a_start_outside_it():
    # outside the unit disk past the cutoff band is one rule, whatever the
    # start: from xi0 = 2 every attempt is rejected until the step
    # underflows, where a two-sided rule once accepted points flung far out
    # until (1 + |xi|^2)^3 overflowed
    t, xi, xidot, status, t_hit, rejected, i1s, i2s = geodesics.geod_integrate(
        2.0, -1.0, 10.0, 0.5
    )
    assert status is Termination.STEP_UNDERFLOW
    assert (t, xi, xidot) == ([0.0], [2.0], [-1.0]) and t_hit is None
    assert rejected > 0 and len(i1s) == len(i2s) == 1


_INTEGRAL_SERIES_STARTS = [
    pytest.param(0.3, 0.2 + 0.1j, 1e-10, "xi", id="xi-orbit"),
    pytest.param(1.5, 1.0 + 0.2j, 1e-10, "zeta", id="zeta-orbit"),
    pytest.param(1.5 + 0.0j, complex(-1.0, -0.0), 1e-8, "zeta", id="zeta-real-axis"),
    pytest.param(complex(-0.0, 0.4), complex(-0.0, 0.7), 1e-8, "xi", id="imaginary-axis"),
    pytest.param(complex(0.5, -0.0), complex(-0.3, -0.0), 1e-6, "xi", id="real-axis"),
    pytest.param(complex(-0.0, 0.0), complex(-1.0, -0.0), 1e-6, "xi", id="pole"),
    pytest.param(complex(0.3, -0.0), complex(-0.0, -0.0), 1e-10, "xi", id="at-rest"),
]


@pytest.mark.parametrize("xi0, xidot0, tol, chart", _INTEGRAL_SERIES_STARTS)
def test_integral_series_is_first_integrals_arrays_bit_for_bit(xi0, xidot0, tol, chart):
    # the stepper takes the integrals from its 13th evaluation; they are
    # the floats first_integrals_arrays gives on the samples, with I1
    # negated in zeta
    traj = integrate(GeodesicState(0.0, xi0, xidot0), 10.0, tol)
    assert traj.chart == chart and len(traj) > 5
    i1s, i2s = geodesics.first_integrals_arrays(traj.xi, traj.xidot)
    if chart == "zeta":
        i1s = [-i1 for i1 in i1s]
    got_i1s, got_i2s = traj.integrals
    assert bits(got_i1s) == bits(i1s)
    assert bits(got_i2s) == bits(i2s)


def test_kernel_weights_are_compiled_constants():
    code = geodesics.geod_integrate.__code__
    controller = ("_SAFETY", "_FAC_MIN", "_FAC_MAX")
    assert not {"_A", "_B", "_E5", "_BHH", *controller} & set(code.co_names)
    rows = (*DOP853_A, DOP853_B, DOP853_E5, DOP853_BHH)
    weights = [w for row in rows for w in row if w] + [getattr(geodesics, c) for c in controller]
    assert len(weights) == 72
    assert set(weights) <= set(code.co_consts)


def test_kernel_calls_no_python_helper():
    # every rhs evaluation, stage 1 included, is generated inline
    names = set(geodesics.geod_integrate.__code__.co_names)
    assert not names & {"_christoffel", "christoffel", "_conformal", "first_integrals_arrays"}
    assert not hasattr(geodesics, "_christoffel")


#: the functions compiled from one generated source, in its order
GENERATED = ("_conformal", "first_integrals_arrays", "geod_integrate")


def test_kernel_source_is_the_generated_text():
    filename = geodesics.geod_integrate.__code__.co_filename
    text = "".join(linecache.getlines(filename))
    sources = []
    for name in GENERATED:
        function = getattr(geodesics, name)
        assert function.__code__.co_filename == filename
        sources.append(inspect.getsource(function))
        assert sources[-1].startswith(f"def {name}(")
    assert text == "\n\n".join(sources)
    assert sources[-1].startswith("def geod_integrate(xi0, xidot0, t_span, tol):\n")
    assert "side" not in geodesics.geod_integrate.__code__.co_varnames  # one equator rule
    assert f"{DOP853_A[11][10]!r} * q11i" in sources[-1]
    assert "{" not in text  # every field of the template is filled
    # Gamma, f and (I1, I2) are the lines of the stepper's stage 1 and integrals
    stage1 = geodesics._rhs("a0", "b0", "a1", "b1", "q1r", "q1i")
    integrals = geodesics._integrals("a0", "b0", "a1", "b1")
    conformal_source, arrays_source, kernel_source = sources
    assert integrals[0] in conformal_source
    assert all(line in arrays_source for line in [stage1[0], *integrals])
    assert all(line in kernel_source for line in stage1 + integrals)


# -- trajectory export -------------------------------------------------------------


def reference_csv(traj):
    """The export schema written value by value with format(v, ".17g"),
    R, theta and the first integrals recomputed from each sample."""
    lines = [CSV_HEADER]
    for t, xi, xidot in zip(traj.t, traj.xi, traj.xidot):
        ints = first_integrals(GeodesicState(t, xi, xidot))
        row = (
            t, abs(xi), cmath.phase(xi), xi.real, xi.imag, xidot.real, xidot.imag,
            ints.I1, ints.I2,
        )
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_per_value_formatting():
    long_traj = integrate(state_from_integrals(0.6, 0.16, 0.5), 80.0, 1e-10)
    short_traj = integrate(GeodesicState(0.0, 0.3, 0.2 + 0.1j), 1e-3, 1e-10)
    assert len(short_traj) == 2
    for traj in (long_traj, short_traj):
        buf = io.StringIO()
        write_csv(traj, buf)
        # as lists of lines, so that a failure reports the first differing line
        # instead of diffing the whole text
        got = buf.getvalue().splitlines(keepends=True)
        assert got == reference_csv(traj).splitlines(keepends=True)


class _WriteLog(io.StringIO):
    """A text buffer that records the text of each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_csv_is_written_at_most_one_row_per_write():
    # the export streams its rows: no call passes the stream more than one
    traj = integrate(state_from_integrals(0.6, 0.16, 0.5), 20.0, 1e-10)
    log = _WriteLog()
    write_csv(traj, log)
    assert log.getvalue() == reference_csv(traj)
    assert max(text.count("\n") for text in log.writes) == 1


def test_csv_schema_and_round_trip():
    traj = integrate(random_orbit_state(), 2.0, 1e-8)
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
    i1s, i2s = traj.integrals
    assert float(last[7]) == i1s[-1]
    assert float(last[8]) == i2s[-1]
    assert float(last[1]) == traj.radius[-1]


def test_csv_of_a_zeta_run_names_its_chart():
    # the coordinate columns are zeta's; I1 is in the xi sense, so the
    # negation of the first integral evaluated on the zeta sample
    traj = integrate(GeodesicState(0.0, 1.5, 1.0 + 0.2j), 2.0, 1e-8)
    assert traj.chart == "zeta"
    buf = io.StringIO()
    write_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,R,theta,zeta_re,zeta_im,zetadot_re,zetadot_im,I1,I2"
    assert len(lines) == len(traj) + 1
    for line, t, zeta, zetadot in zip(lines[1:], traj.t, traj.xi, traj.xidot):
        ints = first_integrals(GeodesicState(t, zeta, zetadot))
        row = (t, abs(zeta), cmath.phase(zeta), zeta.real, zeta.imag, zetadot.real,
               zetadot.imag, -ints.I1, ints.I2)
        assert line == ",".join(format(v, ".17g") for v in row)


def test_max_drift_definition():
    traj = integrate(random_orbit_state(), 5.0, 1e-9)
    i1s, i2s = map(np.asarray, traj.integrals)
    d1 = np.max(np.abs(i1s - i1s[0])) / max(abs(i1s[0]), 1e-30)
    d2 = np.max(np.abs(i2s - i2s[0])) / max(abs(i2s[0]), 1e-30)
    assert traj.max_drift == (d1, d2)
