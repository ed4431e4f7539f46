"""Numerical kernels: the adaptive geodesic stepper and the Appell F1 series.

Plain Python on complex scalars; ``geodesics`` and ``analysis`` wrap
them with input validation.
"""

import math

import numpy as np

# termination codes of geod_integrate
STATUS_TIME_LIMIT = 0
STATUS_EQUATOR = 1
STATUS_UNDERFLOW = 2
STATUS_MAX_STEPS = 3

# Dormand-Prince 5(4) tableau; row 7 equals the 5th-order weights (FSAL)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_ERR = tuple(
    b5 - b4
    for b5, b4 in zip(
        _B5,
        (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40),
    )
)

# the tableau as scalars for the straight-line stepper in geod_integrate
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _A[1:]
_B57 = _B5[6]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _ERR


def geod_christoffel(xi):
    """Gamma^xi_xixi of the induced metric, d/dxi of ln[(1-xi xibar)/(1+xi xibar)^3].

    Complex NaN exactly on the equator |xi| = 1, so that a trial stage
    landing there is rejected by the stepper instead of raising.
    """
    xb = xi.conjugate()
    m = (xi * xb).real
    if m == 1.0:
        return complex(math.nan, math.nan)
    return -xb / (1.0 - m) - 3.0 * xb / (1.0 + m)


def geod_rhs(xi, xidot):
    """Right-hand side of the first-order system: (xidot, -Gamma * xidot^2)."""
    return xidot, -geod_christoffel(xi) * xidot * xidot


def geod_first_integrals(xi, xidot):
    """Conserved pair (squared speed, angular momentum) of the flow."""
    m = (xi * xi.conjugate()).real
    f = (1.0 - m) / (1.0 + m) ** 3
    return f * (xidot * xidot.conjugate()).real, f * (xi.conjugate() * xidot).imag


def geod_integrate(xi0, xidot0, t_span, tol, equator_cut, h_min, max_steps):
    """Adaptive Dormand-Prince 5(4) integration of the geodesic system.

    Integrates from t=0 to t=t_span, recording every accepted step;
    ``max_steps`` caps the step attempts, accepted or rejected.
    Returns (t, xi, xidot, status, t_hit) with ``t_hit`` the linear
    interpolation of the equator crossing 1-|xi|^2 = 0 (NaN unless
    status is STATUS_EQUATOR).

    The stages are written out by hand.  Each weighted sum starts from
    0.0j and keeps its zero-weight terms, in tableau order: a NaN stage
    (a trial point exactly on the equator) then reaches the error norm
    and the step is rejected, and the arithmetic matches a generic loop
    over ``_A``, ``_B5`` and ``_ERR`` bit for bit.
    """
    t = 0.0
    y0, y1 = complex(xi0), complex(xidot0)
    ts = [0.0]
    xis = [y0]
    xds = [y1]

    # modest initial step; the controller adapts within a few steps
    h = min(1e-2, 1e-2 * (1.0 + abs(y0)) / (1.0 + abs(y1)), t_span)

    # stage k_i = (p_i, q_i) = rhs(xi, xidot) = (xidot, -Gamma(xi) xidot^2)
    p1 = y1
    q1 = -geod_christoffel(y0) * y1 * y1
    status = STATUS_MAX_STEPS
    t_hit = math.nan

    for _ in range(max_steps):
        clipped = t + h >= t_span
        if clipped:
            h = t_span - t
        p2 = y1 + h * (0.0j + _A21 * q1)
        q2 = -geod_christoffel(y0 + h * (0.0j + _A21 * p1)) * p2 * p2
        p3 = y1 + h * (0.0j + _A31 * q1 + _A32 * q2)
        q3 = -geod_christoffel(y0 + h * (0.0j + _A31 * p1 + _A32 * p2)) * p3 * p3
        p4 = y1 + h * (0.0j + _A41 * q1 + _A42 * q2 + _A43 * q3)
        q4 = -geod_christoffel(y0 + h * (0.0j + _A41 * p1 + _A42 * p2 + _A43 * p3)) * p4 * p4
        p5 = y1 + h * (0.0j + _A51 * q1 + _A52 * q2 + _A53 * q3 + _A54 * q4)
        q5 = (
            -geod_christoffel(y0 + h * (0.0j + _A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4))
            * p5
            * p5
        )
        p6 = y1 + h * (0.0j + _A61 * q1 + _A62 * q2 + _A63 * q3 + _A64 * q4 + _A65 * q5)
        q6 = (
            -geod_christoffel(
                y0 + h * (0.0j + _A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
            )
            * p6
            * p6
        )
        s1 = 0.0j + _A71 * q1 + _A72 * q2 + _A73 * q3 + _A74 * q4 + _A75 * q5 + _A76 * q6
        p7 = y1 + h * s1
        s0 = 0.0j + _A71 * p1 + _A72 * p2 + _A73 * p3 + _A74 * p4 + _A75 * p5 + _A76 * p6
        q7 = -geod_christoffel(y0 + h * s0) * p7 * p7
        # row 7 of _A is _B5[:6] (FSAL): the fifth-order sums are stage 7's
        # sums plus the last, zero, weight
        y0n = y0 + h * (s0 + _B57 * p7)
        y1n = y1 + h * (s1 + _B57 * q7)
        d0 = h * (
            0.0j
            + _E1 * p1 + _E2 * p2 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7
        )
        d1 = h * (
            0.0j
            + _E1 * q1 + _E2 * q2 + _E3 * q3 + _E4 * q4 + _E5 * q5 + _E6 * q6 + _E7 * q7
        )
        # max over the 4 real components, scaled by tol*(1 + component
        # magnitude); `b if b > a else a` is max(a, b) without a call, NaN included
        a, b = abs(y0.real), abs(y0n.real)
        err = abs(d0.real) / (1.0 + (b if b > a else a))
        a, b = abs(y0.imag), abs(y0n.imag)
        c = abs(d0.imag) / (1.0 + (b if b > a else a))
        err = c if c > err else err
        a, b = abs(y1.real), abs(y1n.real)
        c = abs(d1.real) / (1.0 + (b if b > a else a))
        err = c if c > err else err
        a, b = abs(y1.imag), abs(y1n.imag)
        c = abs(d1.imag) / (1.0 + (b if b > a else a))
        err = c if c > err else err
        err = err / tol

        if err <= 1.0:
            y0o = y0
            t = t_span if clipped else t + h
            y0, y1 = y0n, y1n
            p1, q1 = p7, q7  # FSAL: stage 7 was evaluated at the accepted point
            ts.append(t)
            xis.append(y0)
            xds.append(y1)
            s_new = 1.0 - (y0 * y0.conjugate()).real
            if abs(s_new) <= equator_cut:
                s_old = 1.0 - (y0o * y0o.conjugate()).real
                t_hit = t + s_new * (ts[-1] - ts[-2]) / (s_old - s_new)
                status = STATUS_EQUATOR
                break
            if t >= t_span:
                status = STATUS_TIME_LIMIT
                break

        if err == 0.0:
            fac = 5.0
        elif math.isnan(err):  # a trial stage hit the degeneracy exactly
            fac = 0.2
        else:
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac
        if h < h_min:
            status = STATUS_UNDERFLOW
            break

    return (
        np.asarray(ts, dtype=np.float64),
        np.asarray(xis, dtype=np.complex128),
        np.asarray(xds, dtype=np.complex128),
        status,
        t_hit,
    )


def appell_f1(R, tail_tol, max_diagonals):
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
