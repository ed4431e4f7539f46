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


def _err_norm(e0, e1, y0a, y1a, y0b, y1b, tol):
    # max over the 4 real components, scaled by tol*(1 + component magnitude)
    err = abs(e0.real) / (1.0 + max(abs(y0a.real), abs(y1a.real)))
    err = max(err, abs(e0.imag) / (1.0 + max(abs(y0a.imag), abs(y1a.imag))))
    err = max(err, abs(e1.real) / (1.0 + max(abs(y0b.real), abs(y1b.real))))
    err = max(err, abs(e1.imag) / (1.0 + max(abs(y0b.imag), abs(y1b.imag))))
    return err / tol


def geod_integrate(xi0, xidot0, t_span, tol, equator_cut, h_min, max_steps):
    """Adaptive Dormand-Prince 5(4) integration of the geodesic system.

    Integrates from t=0 to t=t_span, recording every accepted step.
    Returns (t, xi, xidot, status, t_hit) with ``t_hit`` the linear
    interpolation of the equator crossing 1-|xi|^2 = 0 (NaN unless
    status is STATUS_EQUATOR).
    """
    t = 0.0
    y0, y1 = complex(xi0), complex(xidot0)
    ts = [0.0]
    xis = [y0]
    xds = [y1]

    # modest initial step; the controller adapts within a few steps
    h = min(1e-2, 1e-2 * (1.0 + abs(y0)) / (1.0 + abs(y1)), t_span)

    k = [None] * 7
    k[0] = geod_rhs(y0, y1)
    status = STATUS_MAX_STEPS
    t_hit = math.nan

    for _ in range(max_steps):
        clipped = t + h >= t_span
        if clipped:
            h = t_span - t
        for i in range(1, 7):
            a = _A[i]
            s0 = 0.0j
            s1 = 0.0j
            for j in range(i):
                s0 += a[j] * k[j][0]
                s1 += a[j] * k[j][1]
            k[i] = geod_rhs(y0 + h * s0, y1 + h * s1)
        i0 = 0.0j
        i1 = 0.0j
        e0 = 0.0j
        e1 = 0.0j
        for i in range(7):
            i0 += _B5[i] * k[i][0]
            i1 += _B5[i] * k[i][1]
            e0 += _ERR[i] * k[i][0]
            e1 += _ERR[i] * k[i][1]
        y0n = y0 + h * i0
        y1n = y1 + h * i1
        err = _err_norm(h * e0, h * e1, y0, y0n, y1, y1n, tol)

        if err <= 1.0:
            y0o = y0
            t = t_span if clipped else t + h
            y0, y1 = y0n, y1n
            k[0] = k[6]  # FSAL: stage 7 was evaluated at the accepted point
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
