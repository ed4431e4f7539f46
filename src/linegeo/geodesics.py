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
are singular at xi = 0, which radial geodesics cross.
"""

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import kernels
from .errors import DegeneracyError, DomainError, NoOrbitError
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


_STATUS_TO_TERMINATION = {
    kernels.STATUS_TIME_LIMIT: Termination.TIME_LIMIT,
    kernels.STATUS_EQUATOR: Termination.EQUATOR_REACHED,
    kernels.STATUS_UNDERFLOW: Termination.STEP_UNDERFLOW,
}


def _finite_complex(name, z):
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class GeodesicState:
    """Instantaneous state (t, xi, xidot) of the flow."""

    t: float
    xi: complex
    xidot: complex

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "xi", _finite_complex("xi", self.xi))
        object.__setattr__(self, "xidot", _finite_complex("xidot", self.xidot))

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


@dataclass(frozen=True)
class PolarState:
    """Polar parameterisation xi = R e^{i theta} of a geodesic state."""

    R: float
    theta: float
    Rdot: float
    thetadot: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("R", "theta", "Rdot", "thetadot", "t"):
            v = float(getattr(self, name))
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


@dataclass(frozen=True)
class FirstIntegrals:
    """The conserved pair: I1 the squared speed, I2 the angular momentum."""

    I1: float
    I2: float

    @property
    def ratio(self) -> float:
        """I1 / I2^2, the level against the effective potential."""
        if self.I2 == 0.0:
            raise DomainError("ratio undefined for zero angular momentum")
        return self.I1 / (self.I2 * self.I2)


def christoffel(xi: complex) -> complex:
    """The single nonzero Christoffel symbol of the induced metric.

    Equals the xi-derivative (with xibar held fixed) of
    ln[(1-|xi|^2)/(1+|xi|^2)^3].  The mixed and conjugate symbols vanish
    identically for a conformal metric of this form.
    """
    xi = _finite_complex("xi", xi)
    if abs(1.0 - (xi * xi.conjugate()).real) < DEGENERACY_TOL:
        raise DegeneracyError(f"metric degenerate at |xi| = 1 (xi = {xi!r})")
    return kernels.geod_christoffel(xi)


def rhs(state: GeodesicState) -> tuple[complex, complex]:
    """Time derivative (xidot, xiddot) of the state."""
    if abs(1.0 - (state.xi * state.xi.conjugate()).real) < DEGENERACY_TOL:
        raise DegeneracyError(f"metric degenerate at |xi| = 1 (xi = {state.xi!r})")
    return kernels.geod_rhs(state.xi, state.xidot)


def first_integrals(state: GeodesicState) -> FirstIntegrals:
    """Evaluate both conserved quantities at a state."""
    i1, i2 = kernels.geod_first_integrals(state.xi, state.xidot)
    return FirstIntegrals(i1, i2)


def first_integrals_arrays(xi: np.ndarray, xidot: np.ndarray):
    """Vectorised first integrals along sample arrays."""
    m = (xi * xi.conjugate()).real
    f = (1.0 - m) / (1.0 + m) ** 3
    return f * (xidot * xidot.conjugate()).real, f * (xi.conjugate() * xidot).imag


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
        If the requested radius itself gives a negative Rdot^2.
    """
    if not (0.0 < r0 < 1.0):
        raise DomainError(f"launch radius must lie in (0, 1), got {r0}")
    if i1 <= 0.0:
        raise DomainError(f"I1 must be positive on the upper hemisphere, got {i1}")
    if i2 != 0.0 and i1 / (i2 * i2) < MIN_ORBIT_RATIO * (1.0 - 1e-12):
        raise NoOrbitError(
            f"no orbit: I1/I2^2 = {i1 / (i2 * i2):.6f} below 6*sqrt(3) "
            f"= {MIN_ORBIT_RATIO:.6f}"
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


@dataclass(frozen=True)
class Trajectory:
    """An integrated geodesic: per-step samples plus diagnostics.

    ``t``, ``xi``, ``xidot`` are aligned arrays with one entry per
    accepted step (including the initial state).  ``max_drift`` is the
    peak relative deviation of (I1, I2) from their initial values, with
    a 1e-30 floor on the normalisation.
    """

    sphere: StandardSphere
    t: np.ndarray
    xi: np.ndarray
    xidot: np.ndarray
    integrals0: FirstIntegrals
    max_drift: tuple[float, float]
    termination: Termination
    t_hit: float | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self):
        return len(self.t)

    @property
    def samples(self) -> list[GeodesicState]:
        return [
            GeodesicState(float(tt), complex(x), complex(xd))
            for tt, x, xd in zip(self.t, self.xi, self.xidot)
        ]

    @property
    def radius(self) -> np.ndarray:
        if "radius" not in self._cache:
            self._cache["radius"] = np.abs(self.xi)
        return self._cache["radius"]

    def integral_series(self):
        """(I1, I2) arrays along the samples."""
        if "integrals" not in self._cache:
            self._cache["integrals"] = first_integrals_arrays(self.xi, self.xidot)
        return self._cache["integrals"]

    def final_state(self) -> GeodesicState:
        return GeodesicState(float(self.t[-1]), complex(self.xi[-1]), complex(self.xidot[-1]))


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
      moderate tolerance (1e-6 .. 1e-7) when the goal is the hit time.

    Raises
    ------
    DomainError
        If the sphere is not twisting (c <= 0), tol is not positive and
        finite, t_max is not finite, the initial point sits inside the
        cutoff band, or t_max <= initial.t.
    """
    if sphere.c <= 0.0:
        raise DomainError("geodesic flow requires a twisting sphere (c > 0)")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    if t_max <= initial.t:
        raise DomainError(f"t_max = {t_max} does not exceed initial time {initial.t}")
    s0 = 1.0 - abs(initial.xi) ** 2
    if abs(s0) <= equator_cutoff:
        raise DomainError(
            f"initial point is within the equator cutoff band (1-|xi|^2 = {s0:.3e})"
        )

    ts, xis, xds, status, t_hit = kernels.geod_integrate(
        initial.xi,
        initial.xidot,
        t_max - initial.t,
        tol,
        equator_cutoff,
        min_step,
        max_steps,
    )
    if status == kernels.STATUS_MAX_STEPS:
        raise RuntimeError(f"integration exceeded {max_steps} steps; raise max_steps")
    ts = ts + initial.t

    i1s, i2s = first_integrals_arrays(xis, xds)
    integrals0 = FirstIntegrals(float(i1s[0]), float(i2s[0]))
    drift = (
        float(np.max(np.abs(i1s - i1s[0])) / max(abs(i1s[0]), 1e-30)),
        float(np.max(np.abs(i2s - i2s[0])) / max(abs(i2s[0]), 1e-30)),
    )
    termination = _STATUS_TO_TERMINATION[status]
    return Trajectory(
        sphere=sphere,
        t=ts,
        xi=xis,
        xidot=xds,
        integrals0=integrals0,
        max_drift=drift,
        termination=termination,
        t_hit=(float(t_hit) + initial.t) if termination is Termination.EQUATOR_REACHED else None,
        _cache={"integrals": (i1s, i2s)},
    )


CSV_HEADER = "t,R,theta,xi_re,xi_im,xidot_re,xidot_im,I1,I2"


def trajectory_csv_lines(traj: Trajectory):
    """Trajectory rows in the export schema, 17 significant digits."""
    i1s, i2s = traj.integral_series()
    big_r = traj.radius
    theta = np.angle(traj.xi)
    yield CSV_HEADER
    for j in range(len(traj)):
        row = (
            traj.t[j],
            big_r[j],
            theta[j],
            traj.xi[j].real,
            traj.xi[j].imag,
            traj.xidot[j].real,
            traj.xidot[j].imag,
            i1s[j],
            i2s[j],
        )
        yield ",".join(f"{v:.17g}" for v in row)


def write_csv(traj: Trajectory, stream):
    """Write the trajectory CSV to a file-like object."""
    for line in trajectory_csv_lines(traj):
        stream.write(line + "\n")
