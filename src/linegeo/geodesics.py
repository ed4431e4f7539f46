"""Geodesic flow on a twisting sphere.

On the standard sphere eta = c i xi with c > 0 the induced metric is
conformal, and the geodesic equation projected to the xi coordinate
closes on (xi, xidot):

    xiddot = -Gamma(xi) xidot^2,
    Gamma(xi) = -xibar/(1-|xi|^2) - 3 xibar/(1+|xi|^2).

The flow conserves the squared speed I1 and the angular momentum I2;
radial geodesics (I2 = 0) reach the degenerate equator |xi| = 1 at a
finite parameter value where the equation blows up, so the integrator
cuts off just before the equator and reports an interpolated hit time.

All integration happens in the Cartesian (xi, xidot) variables; polar
coordinates (R, theta) are provided for initial data and reporting but
are singular at xi = 0, which radial geodesics cross.  The stepper,
``geod_integrate``, is plain Python on complex scalars; ``integrate``
validates its input and wraps the result in a ``Trajectory``, which
carries the first integrals at every sample and their drift.  All value
types here are immutable ``line_space.Record``s; a trajectory's sample
lists are not copied and are read-only by convention.
"""

import cmath
import enum
import math
from collections.abc import Sequence

from .errors import ChartExitError, DegeneracyError, DomainError, NoOrbitError
from .line_space import CHART_BOUND, Record, finite_complex
from .sections import StandardSphere

#: integration stops once |1 - |xi|^2| falls below this
EQUATOR_CUTOFF = 1e-8

#: an adaptive step below this terminates the run
MIN_STEP = 1e-14

#: christoffel/rhs refuse points closer to the equator than this
DEGENERACY_TOL = 1e-13

_MAX_STEPS = 5_000_000

#: minimum of the effective potential (1+R^2)^3/((1-R^2)R^2); orbits with
#: angular momentum exist only for I1/I2^2 at or above this
MIN_ORBIT_RATIO = 6.0 * math.sqrt(3.0)


class Termination(enum.Enum):
    """Why an integration stopped."""

    TIME_LIMIT = "time_limit"
    EQUATOR_REACHED = "equator_reached"
    STEP_UNDERFLOW = "step_underflow"
    MAX_STEPS = "max_steps"


class GeodesicState(Record):
    """Instantaneous state (t, xi, xidot) of the flow."""

    __slots__ = ("t", "xi", "xidot")

    def __init__(self, t: float, xi: complex, xidot: complex):
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "xi", finite_complex("xi", xi))
        object.__setattr__(self, "xidot", finite_complex("xidot", xidot))

    @property
    def radius(self) -> float:
        return abs(self.xi)

    def to_polar(self) -> "PolarState":
        """Polar view (R, theta, Rdot, thetadot); requires xi != 0."""
        big_r = abs(self.xi)
        if big_r == 0.0:
            raise DomainError("polar coordinates are singular at xi = 0")
        theta = cmath.phase(self.xi)
        w = self.xidot * cmath.exp(-1j * theta)
        return PolarState(big_r, theta, w.real, w.imag / big_r, t=self.t)


class PolarState(Record):
    """Polar parameterisation xi = R e^{i theta} of a geodesic state."""

    __slots__ = ("R", "theta", "Rdot", "thetadot", "t")

    def __init__(self, R: float, theta: float, Rdot: float, thetadot: float, t: float = 0.0):
        for name, v in zip(self.__slots__, (R, theta, Rdot, thetadot, t)):
            v = float(v)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.R < 0.0:
            raise DomainError(f"radius must be >= 0, got {self.R}")

    def to_state(self) -> GeodesicState:
        phase = cmath.exp(1j * self.theta)
        xi = self.R * phase
        xidot = (self.Rdot + 1j * self.R * self.thetadot) * phase
        return GeodesicState(self.t, xi, xidot)


class FirstIntegrals(Record):
    """The conserved pair: I1 the squared speed, I2 the angular momentum."""

    __slots__ = ("I1", "I2")

    def __init__(self, I1: float, I2: float):
        if not (math.isfinite(I1) and math.isfinite(I2)):
            raise DomainError(
                f"first integrals must be finite doubles, got I1 = {I1!r}, I2 = {I2!r}"
            )
        object.__setattr__(self, "I1", I1)
        object.__setattr__(self, "I2", I2)

    @property
    def ratio(self) -> float:
        """I1 / I2^2, the level against the effective potential.

        Raises DomainError when I2 = 0 or the quotient is not a finite
        double (I2^2 underflows to zero or I1 / I2^2 overflows).
        """
        if self.I2 == 0.0:
            raise DomainError("ratio undefined for zero angular momentum")
        i2_sq = self.I2 * self.I2
        ratio = self.I1 / i2_sq if i2_sq != 0.0 else math.inf
        if not math.isfinite(ratio):
            raise DomainError(
                f"I1/I2^2 must be a finite double, got I1 = {self.I1!r}, I2 = {self.I2!r}"
            )
        return ratio


def christoffel(xi: complex) -> complex:
    """The single nonzero Christoffel symbol of the induced metric.

    Equals the xi-derivative (with xibar held fixed) of
    ln[(1-|xi|^2)/(1+|xi|^2)^3].  The mixed and conjugate symbols vanish
    identically for a conformal metric of this form.
    """
    xi = finite_complex("xi", xi)
    if abs(1.0 - (xi * xi.conjugate()).real) < DEGENERACY_TOL:
        raise DegeneracyError(f"metric degenerate at |xi| = 1 (xi = {xi!r})")
    return _christoffel(xi)


def rhs(state: GeodesicState) -> tuple[complex, complex]:
    """Time derivative (xidot, xiddot) of the state."""
    if abs(1.0 - (state.xi * state.xi.conjugate()).real) < DEGENERACY_TOL:
        raise DegeneracyError(f"metric degenerate at |xi| = 1 (xi = {state.xi!r})")
    return state.xidot, -_christoffel(state.xi) * state.xidot * state.xidot


def first_integrals(state: GeodesicState) -> FirstIntegrals:
    """Evaluate both conserved quantities at a state.

    Raises DomainError when either is not a finite double.
    """
    try:
        (i1,), (i2,) = first_integrals_arrays((state.xi,), (state.xidot,))
    except OverflowError:
        i1 = i2 = math.inf
    return FirstIntegrals(i1, i2)


def first_integrals_arrays(xis, xidots):
    """First integrals along samples: the lists (I1, I2), one entry per
    (xi, xidot) pair.

    Raises OverflowError when a float power overflows.
    """
    i1s, i2s = [], []
    for xi, xidot in zip(xis, xidots):
        xb = xi.conjugate()
        m = (xi * xb).real
        f = (1.0 - m) / (1.0 + m) ** 3
        i1s.append(f * (xidot * xidot.conjugate()).real)
        i2s.append(f * (xb * xidot).imag)
    return i1s, i2s


def effective_potential(big_r: float) -> float:
    """U(R) = (1+R^2)^3 / ((1-R^2) R^2) on 0 < R < 1."""
    big_r = float(big_r)
    if not 0.0 < big_r < 1.0:
        raise DomainError(f"effective potential has poles at 0 and 1; got R = {big_r}")
    r2 = big_r * big_r
    return (1.0 + r2) ** 3 / ((1.0 - r2) * r2)


def state_from_integrals(
    i1: float, i2: float, r0: float, theta0: float = 0.0, outward: bool = True
) -> GeodesicState:
    """Construct an upper-hemisphere state at radius ``r0`` realising the
    integrals (I1, I2).

    The angular velocity is fixed by I2 and the radial velocity (up to the
    ``outward`` sign) by the energy relation
    I1 - U_eff(R) I2^2 = (1-R^2)/(1+R^2)^3 Rdot^2.

    Raises
    ------
    NoOrbitError
        If I2 != 0 and I1/I2^2 lies below the potential minimum 6*sqrt(3),
        so no radius admits real radial motion.
    DomainError
        If the requested radius itself gives a negative Rdot^2, or
        I1/I2^2 is not a finite double.
    """
    if not (0.0 < r0 < 1.0):
        raise DomainError(f"launch radius must lie in (0, 1), got {r0}")
    if i1 <= 0.0:
        raise DomainError(f"I1 must be positive on the upper hemisphere, got {i1}")
    if i2 != 0.0:
        ratio = FirstIntegrals(i1, i2).ratio
        if ratio < MIN_ORBIT_RATIO * (1.0 - 1e-12):
            raise NoOrbitError(
                f"no orbit: I1/I2^2 = {ratio:.6f} below 6*sqrt(3) = {MIN_ORBIT_RATIO:.6f}"
            )
    r2 = r0 * r0
    f = (1.0 - r2) / (1.0 + r2) ** 3
    thetadot = i2 / (f * r2)
    disc = (i1 - effective_potential(r0) * i2 * i2) / f
    if disc < -1e-12 * max(i1, 1.0) / f:
        raise DomainError(
            f"radius {r0} is outside the orbit annulus for I1={i1}, I2={i2} "
            "(negative radial speed squared)"
        )
    rdot = math.sqrt(max(disc, 0.0))
    if not outward:
        rdot = -rdot
    return PolarState(r0, theta0, rdot, thetadot).to_state()


class Trajectory(Record):
    """An integrated geodesic: per-step samples plus diagnostics.

    ``t``, ``xi``, ``xidot`` are aligned sequences of floats and complex
    numbers with one entry per accepted step (including the initial
    state), and ``integral_series()`` gives the first integrals at those
    samples.
    ``max_drift`` is the peak relative deviation of (I1, I2) from their
    initial values, with a 1e-30 floor on the normalisation.
    """

    __slots__ = (
        "sphere", "t", "xi", "xidot", "integrals0", "max_drift", "termination", "_integrals",
        "t_hit",
    )

    def __init__(self, sphere, t, xi, xidot, integrals0, max_drift, termination, _integrals,
                 t_hit=None):
        self._init_fields(sphere, t, xi, xidot, integrals0, max_drift, termination, _integrals,
                          t_hit)

    def __len__(self):
        return len(self.t)

    @property
    def radius(self) -> list[float]:
        return [abs(xi) for xi in self.xi]

    def integral_series(self) -> tuple[Sequence[float], Sequence[float]]:
        """(I1, I2) along the samples."""
        return self._integrals

    def final_state(self) -> GeodesicState:
        return GeodesicState(self.t[-1], self.xi[-1], self.xidot[-1])


# -- the adaptive stepper -----------------------------------------------------

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


def _christoffel(xi):
    """Gamma^xi_xixi of the induced metric, d/dxi of ln[(1-xi xibar)/(1+xi xibar)^3].

    Complex NaN exactly on the equator |xi| = 1, so that a trial stage
    landing there is rejected by the stepper instead of raising.
    """
    xb = xi.conjugate()
    m = (xi * xb).real
    if m == 1.0:
        return complex(math.nan, math.nan)
    return -xb / (1.0 - m) - 3.0 * xb / (1.0 + m)


def geod_integrate(xi0, xidot0, t_span, tol, equator_cut, h_min, max_steps):
    """Adaptive Dormand-Prince 5(4) integration of the geodesic system.

    Integrates from t=0 to t=t_span, recording every accepted step;
    ``max_steps`` caps the step attempts, accepted or rejected.
    Returns (t, xi, xidot, termination, t_hit): the samples as lists,
    ``termination`` a ``Termination`` and ``t_hit`` the linear
    interpolation of the equator crossing 1-|xi|^2 = 0 (None unless the
    equator was reached).

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
    q1 = -_christoffel(y0) * y1 * y1
    status = Termination.MAX_STEPS
    t_hit = None

    for _ in range(max_steps):
        clipped = t + h >= t_span
        if clipped:
            h = t_span - t
        p2 = y1 + h * (0.0j + _A21 * q1)
        q2 = -_christoffel(y0 + h * (0.0j + _A21 * p1)) * p2 * p2
        p3 = y1 + h * (0.0j + _A31 * q1 + _A32 * q2)
        q3 = -_christoffel(y0 + h * (0.0j + _A31 * p1 + _A32 * p2)) * p3 * p3
        p4 = y1 + h * (0.0j + _A41 * q1 + _A42 * q2 + _A43 * q3)
        q4 = -_christoffel(y0 + h * (0.0j + _A41 * p1 + _A42 * p2 + _A43 * p3)) * p4 * p4
        p5 = y1 + h * (0.0j + _A51 * q1 + _A52 * q2 + _A53 * q3 + _A54 * q4)
        q5 = (
            -_christoffel(y0 + h * (0.0j + _A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4))
            * p5
            * p5
        )
        p6 = y1 + h * (0.0j + _A61 * q1 + _A62 * q2 + _A63 * q3 + _A64 * q4 + _A65 * q5)
        q6 = (
            -_christoffel(
                y0 + h * (0.0j + _A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
            )
            * p6
            * p6
        )
        s1 = 0.0j + _A71 * q1 + _A72 * q2 + _A73 * q3 + _A74 * q4 + _A75 * q5 + _A76 * q6
        p7 = y1 + h * s1
        s0 = 0.0j + _A71 * p1 + _A72 * p2 + _A73 * p3 + _A74 * p4 + _A75 * p5 + _A76 * p6
        q7 = -_christoffel(y0 + h * s0) * p7 * p7
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
                status = Termination.EQUATOR_REACHED
                break
            if t >= t_span:
                status = Termination.TIME_LIMIT
                break

        if err == 0.0:
            fac = 5.0
        elif math.isnan(err):  # a trial stage hit the degeneracy exactly
            fac = 0.2
        else:
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac
        if h < h_min:
            status = Termination.STEP_UNDERFLOW
            break

    return ts, xis, xds, status, t_hit


def _check_in_chart(xi, which):
    if abs(xi) > CHART_BOUND:
        raise ChartExitError(
            f"|xi| must be within the chart bound {CHART_BOUND:g}; {which} |xi| = {abs(xi):.3e}"
        )


def integrate(
    initial: GeodesicState,
    sphere: StandardSphere,
    t_max: float,
    tol: float,
    equator_cutoff: float = EQUATOR_CUTOFF,
    min_step: float = MIN_STEP,
    max_steps: int = _MAX_STEPS,
) -> Trajectory:
    """Integrate the geodesic flow from ``initial`` until ``t_max``.

    Uses an adaptive embedded Runge-Kutta 5(4) pair with per-step
    relative error bounded by ``tol``.  Every accepted step is recorded.
    Termination:

    * ``TIME_LIMIT`` -- reached ``t_max``;
    * ``EQUATOR_REACHED`` -- ``1 - |xi|^2`` crossed ``equator_cutoff``;
      the trajectory's ``t_hit`` linearly interpolates the parameter
      value of the actual degeneracy 1 - |xi|^2 = 0 (the remaining gap is
      of order cutoff^{3/2}, far below the interpolation error);
    * ``STEP_UNDERFLOW`` -- error control pushed the step below
      ``min_step``.  Near the blow-up the controller shrinks steps
      roughly in proportion to the remaining parameter span, so at very
      tight tolerances (around 1e-9 and below for I1 of order one) the
      step may underflow just before the cutoff band is reached; use a
      moderate tolerance (1e-6 .. 1e-7) when the goal is the hit time;
    * ``MAX_STEPS`` -- ``max_steps`` step attempts (accepted or rejected)
      ran out first; the trajectory holds the steps accepted until then.

    Raises
    ------
    DomainError
        If the sphere is not twisting (c <= 0), tol is not positive and
        finite, t_max is not finite, t_max <= initial.t, the initial I1
        or I2 is not a finite double, or the initial point sits inside
        the cutoff band.
    ChartExitError
        If the initial or the final sample lies past |xi| = CHART_BOUND,
        or the first integrals overflow a double.
    """
    if sphere.c <= 0.0:
        raise DomainError("geodesic flow requires a twisting sphere (c > 0)")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    if t_max <= initial.t:
        raise DomainError(f"t_max = {t_max} does not exceed initial time {initial.t}")
    first_integrals(initial)  # DomainError unless I1 and I2 are finite doubles
    _check_in_chart(initial.xi, "initial")
    s0 = 1.0 - abs(initial.xi) ** 2
    if abs(s0) <= equator_cutoff:
        raise DomainError(
            f"initial point is within the equator cutoff band (1-|xi|^2 = {s0:.3e})"
        )

    ts, xis, xds, termination, t_hit = geod_integrate(
        initial.xi,
        initial.xidot,
        t_max - initial.t,
        tol,
        equator_cutoff,
        min_step,
        max_steps,
    )
    _check_in_chart(xis[-1], "final")
    try:
        i1s, i2s = first_integrals_arrays(xis, xds)
    except OverflowError:
        raise ChartExitError(
            "first integrals must be finite doubles along the trajectory, which "
            f"leaves the chart: |xi| reaches {max(map(abs, xis)):.3e}"
        ) from None
    i10, i20 = i1s[0], i2s[0]
    drift = (
        max([abs(i1 - i10) for i1 in i1s]) / max(abs(i10), 1e-30),
        max([abs(i2 - i20) for i2 in i2s]) / max(abs(i20), 1e-30),
    )
    return Trajectory(
        sphere=sphere,
        t=[t + initial.t for t in ts],
        xi=xis,
        xidot=xds,
        integrals0=FirstIntegrals(i10, i20),
        max_drift=drift,
        termination=termination,
        _integrals=(i1s, i2s),
        t_hit=None if t_hit is None else t_hit + initial.t,
    )


CSV_HEADER = "t,R,theta,xi_re,xi_im,xidot_re,xidot_im,I1,I2"


#: rows formatted and written at a time; bounds what the export holds
CSV_CHUNK_ROWS = 1024

_CSV_ROW = ",".join(["%.17g"] * 9) + "\n"


def write_csv(traj: Trajectory, stream):
    """Write the trajectory CSV to a file-like object.

    One header line, then one row per sample with the columns of
    ``CSV_HEADER``, every value to 17 significant digits (round-trips).
    Rows are formatted and written a chunk at a time, R and theta
    included, so the export never holds a copy of the whole table.
    """
    i1s, i2s = traj.integral_series()
    phase = cmath.phase
    stream.write(CSV_HEADER + "\n")
    for lo in range(0, len(traj), CSV_CHUNK_ROWS):
        hi = lo + CSV_CHUNK_ROWS
        rows = zip(traj.t[lo:hi], traj.xi[lo:hi], traj.xidot[lo:hi], i1s[lo:hi], i2s[lo:hi])
        stream.write("".join([
            _CSV_ROW % (t, abs(xi), phase(xi), xi.real, xi.imag, xidot.real, xidot.imag, i1, i2)
            for t, xi, xidot, i1, i2 in rows
        ]))
