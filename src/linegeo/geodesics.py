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

All integration happens in Cartesian variables; polar coordinates
(R, theta) are provided for initial data and reporting but are singular
at xi = 0, which radial geodesics cross.  No geodesic crosses the
equator, so each run keeps the chart it starts in: (xi, xidot) on the
upper hemisphere, and (zeta, zetadot) with zeta = 1/xi on the lower
one, where the same equation holds with I1 negated.  The stepper,
``geod_integrate``, is the Dormand-Prince 8(5,3) pair (DOP853) with
adaptive steps, on real and imaginary parts as floats; ``integrate``
validates its input and wraps the result in a ``Trajectory``, which
carries the first integrals at every sample, their drift and the count
of rejected steps.  All value types here are immutable
``errors.Record``s; a trajectory's sample lists are not copied and are
read-only by convention.  The closed forms of the radial motion (travel
time, effective potential, turning radii) are in ``analysis``.
"""

import cmath
import enum
import math
from collections.abc import Sequence

from .errors import DegeneracyError, DomainError, Record, finite_complex
from .sections import StandardSphere

#: integration stops once |1 - |xi|^2| falls below this
EQUATOR_CUTOFF = 1e-8

#: an adaptive step below this terminates the run
MIN_STEP = 1e-14

#: step attempts, accepted or rejected, after which a run stops
MAX_STEPS = 5_000_000

#: christoffel/rhs refuse points closer to the equator than this
DEGENERACY_TOL = 1e-13


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
    return state.xidot, -christoffel(state.xi) * state.xidot * state.xidot


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


def state_from_integrals(
    i1: float, i2: float, r0: float, theta0: float = 0.0, outward: bool = True
) -> GeodesicState:
    """Construct an upper-hemisphere state at radius ``r0`` realising the
    integrals (I1, I2).

    The angular velocity is fixed by I2 and the radial velocity (up to the
    ``outward`` sign) by the energy relation
    I1 - U(R) I2^2 = (1-R^2)/(1+R^2)^3 Rdot^2, with U the
    ``analysis.effective_potential``.  With I2 != 0 the
    radius must lie in the annulus [R_min, R_max] of
    ``analysis.turning_points``, so every radius that function reports
    is a valid launch radius (with Rdot = 0 where rounding makes Rdot^2
    slightly negative), and the two share one no-orbit threshold.

    Raises
    ------
    NoOrbitError
        If I2 != 0 and I1/I2^2 lies below the potential minimum 6*sqrt(3),
        so no radius admits real radial motion.
    DomainError
        If the requested radius lies outside the orbit annulus, or
        I1/I2^2 is not a finite double.
    """
    if not (0.0 < r0 < 1.0):
        raise DomainError(f"launch radius must lie in (0, 1), got {r0}")
    if i1 <= 0.0:
        raise DomainError(f"I1 must be positive on the upper hemisphere, got {i1}")
    disc = i1
    if i2 != 0.0:
        from .analysis import effective_potential, turning_points

        tp = turning_points(i1, i2)
        if not tp.R_min <= r0 <= tp.R_max:
            raise DomainError(
                f"radius {r0} is outside the orbit annulus [{tp.R_min!r}, {tp.R_max!r}] "
                f"for I1={i1}, I2={i2}"
            )
        disc = i1 - effective_potential(r0) * i2 * i2
    r2 = r0 * r0
    f = (1.0 - r2) / (1.0 + r2) ** 3
    thetadot = i2 / (f * r2)
    rdot = math.sqrt(max(disc / f, 0.0))
    if not outward:
        rdot = -rdot
    return PolarState(r0, theta0, rdot, thetadot).to_state()


class Trajectory(Record):
    """An integrated geodesic: per-step samples plus diagnostics.

    ``t``, ``xi``, ``xidot`` are aligned sequences of floats and complex
    numbers with one entry per accepted step (including the initial
    state), and ``integral_series()`` gives the first integrals at those
    samples.
    ``chart`` names the coordinate of the samples: ``"xi"`` for an
    upper-hemisphere start, ``"zeta"`` (zeta = 1/xi) for a lower one,
    so ``radius`` is in that chart too, while ``final_state()`` is in
    xi.  The first integrals are in the xi sense on either chart: a
    lower-hemisphere orbit has I1 < 0.
    ``max_drift`` is the peak relative deviation of (I1, I2) from their
    initial values, with a 1e-30 floor on the normalisation; with I2 = 0
    at the start, I2's is relative to sqrt|I1|, its natural scale
    (|I2| <= sqrt(|I1|/(6 sqrt 3)), equality on the circular orbit).
    ``rejected_steps`` counts the step attempts the error control rejected.
    """

    __slots__ = (
        "sphere", "t", "xi", "xidot", "integrals0", "max_drift", "termination", "_integrals",
        "t_hit", "rejected_steps", "chart",
    )

    def __init__(self, sphere, t, xi, xidot, integrals0, max_drift, termination, _integrals,
                 t_hit=None, rejected_steps=0, chart="xi"):
        self._init_fields(sphere, t, xi, xidot, integrals0, max_drift, termination, _integrals,
                          t_hit, rejected_steps, chart)

    def __len__(self):
        return len(self.t)

    @property
    def radius(self) -> list[float]:
        return [abs(xi) for xi in self.xi]

    def integral_series(self) -> tuple[Sequence[float], Sequence[float]]:
        """(I1, I2) along the samples."""
        return self._integrals

    def final_state(self) -> GeodesicState:
        """The last sample in xi, from which ``integrate`` can continue the
        run; DomainError when it is not finite, as at zeta = 0."""
        t, z, zdot = self.t[-1], self.xi[-1], self.xidot[-1]
        if self.chart == "zeta":
            if z == 0.0:
                raise DomainError("the run ends at the south pole, where xi is infinite")
            z, zdot = 1.0 / z, -zdot / z / z
        return GeodesicState(t, z, zdot)

    @property
    def stats(self) -> dict:
        """What the run cost: accepted and rejected step attempts, and
        right-hand-side evaluations (one at the start and
        RHS_EVALS_PER_STEP per attempt; an attempt cut short by a stage
        exactly on the equator counts in full)."""
        accepted = len(self.t) - 1
        return {
            "accepted_steps": accepted,
            "rejected_steps": self.rejected_steps,
            "rhs_evals": 1 + RHS_EVALS_PER_STEP * (accepted + self.rejected_steps),
        }


# -- the adaptive stepper -----------------------------------------------------

# Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, section II.10, and Hairer's dop853.f).
# _Ai_j is the weight of stage j in stage i, _Bj the eighth-order weight of
# stage j, _E5_j the weight of stage j in the fifth-order error estimate, and
# _BHHj that of the third-order pair, whose estimate is sum_j (_Bj - _BHHj) k_j.
# Omitted weights are zero.  The flow is autonomous, so the nodes are not
# needed; they are the row sums of the stage weights.
_A2_1 = 5.26001519587677318785587544488e-2
_A3_1 = 1.97250569845378994544595329183e-2
_A3_2 = 5.91751709536136983633785987549e-2
_A4_1 = 2.95875854768068491816892993775e-2
_A4_3 = 8.87627564304205475450678981324e-2
_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1
_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1
_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2
_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3
_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1
_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2
_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022
_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1
_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2
_E5_1 = 1.312004499419488073250102996e-2
_E5_6 = -1.225156446376204440720569753
_E5_7 = -4.957589496572501915214079952e-1
_E5_8 = 1.664377182454986536961530415
_E5_9 = -3.503288487499736816886487290e-1
_E5_10 = 3.341791187130174790297318841e-1
_E5_11 = 8.192320648511571246570742613e-2
_E5_12 = -2.235530786388629525884427845e-2
_BHH1 = 2.44094488188976377952755905512e-1
_BHH9 = 7.33846688281611857341361741547e-1
_BHH12 = 2.20588235294117647058823529412e-2

#: step-size control: safety factor on the optimal step (0.9 rejects about
#: a fifth of the attempts on long orbits at tol 1e-10, 0.8 about 4%), and
#: the bounds on the factor by which one attempt changes the step
_SAFETY = 0.8
_FAC_MIN = 1.0 / 3.0
_FAC_MAX = 6.0

#: right-hand-side evaluations per step attempt: 11 new stages and the 13th
#: at the proposed point, which becomes stage 1 of the next step
RHS_EVALS_PER_STEP = 12


def _christoffel(xi):
    """Gamma^xi_xixi of the induced metric, d/dxi of ln[(1-xi xibar)/(1+xi xibar)^3].

    Complex NaN exactly on the equator |xi| = 1.  The stepper inlines
    this expression in real arithmetic, which divides by zero there.
    """
    xb = xi.conjugate()
    m = (xi * xb).real
    if m == 1.0:
        return complex(math.nan, math.nan)
    return -xb * (1.0 / (1.0 - m) + 3.0 / (1.0 + m))


def geod_integrate(xi0, xidot0, t_span, tol, equator_cut, h_min, max_steps):
    """Adaptive Dormand-Prince 8(5,3) integration of the geodesic system.

    Integrates from t=0 to t=t_span, recording every accepted step;
    ``max_steps`` caps the step attempts, accepted or rejected.
    Returns (t, xi, xidot, termination, t_hit, rejected): the samples as
    lists, ``termination`` a ``Termination``, ``t_hit`` the linear
    interpolation of the equator crossing 1-|xi|^2 = 0 (None unless the
    equator was reached) and ``rejected`` the number of rejected step
    attempts.  Each attempt evaluates the right-hand side
    RHS_EVALS_PER_STEP times, after one evaluation at the start.

    The error of a step is the fifth-order estimate e5 damped by the
    third-order one e3, err = h e5^2 / sqrt(e5^2 + 0.01 e3^2) / tol, with
    both estimates the max-norm over the 4 real components, each scaled
    by 1 + max(|y|, |y_new|).  The step is accepted when err <= 1.
    After each attempt the step is scaled by
    min(6, max(1/3, 0.8 err^(-1/8))) (``_FAC_MAX``, ``_FAC_MIN``,
    ``_SAFETY``), by 6 when err = 0, and by at most 1 after a rejection.

    The stages are written out by hand with the Christoffel symbol
    inlined, in real arithmetic: xi = a0 + i b0, xidot = a1 + i b1, and
    stage i is (p_i, q_i) = (pir + i pii, qir + i qii).  Each complex
    product is (ac - bd, ad + bc), the formula and operand order of
    CPython's complex multiply, and each weighted sum takes its nonzero
    terms in tableau order.  The one rewrite folds the conjugate's sign
    into a product (x x - y (-y) = x x + y y, and likewise u pr - (-v) pi
    = u pr + v pi), which IEEE arithmetic does exactly.  So every float
    equals the one the same stepper computes on complex scalars (the
    generic loop over the tableau rows in the tests), and so do the
    steps, the termination and ``t_hit``.  That stepper promotes a float
    coefficient c to c + 0i before it multiplies a complex number, and
    adds cross products with that zero; they are zeros, so leaving them
    out changes no value, only possibly the sign of a component that is
    itself exactly zero.  Those signs agree for starts on the axes and
    at the pole, signed zeros included; they can differ only when every
    term of a weighted sum underflows to zero, as with subnormal
    components.  On floats CPython runs each operation as a specialised
    instruction and skips the promotion, which makes a step about a
    quarter cheaper.  A stage exactly on the equator divides by zero;
    the attempt is then rejected and the step shrinks fivefold.
    """
    t = 0.0
    y0, y1 = complex(xi0), complex(xidot0)
    ts = [0.0]
    xis = [y0]
    xds = [y1]

    # modest initial step; the controller adapts within a few steps
    h = min(1e-2, 1e-2 * (1.0 + abs(y0)) / (1.0 + abs(y1)), t_span)
    facmax = _FAC_MAX

    # stage k_i = (p_i, q_i) = rhs(xi, xidot) = (xidot, -Gamma(xi) xidot^2),
    # with p_i = pir + i pii and q_i = qir + i qii
    a0, b0, a1, b1 = y0.real, y0.imag, y1.real, y1.imag
    p1r, p1i = a1, b1
    q1 = -_christoffel(y0) * y1 * y1
    q1r, q1i = q1.real, q1.imag
    status = Termination.MAX_STEPS
    t_hit = None
    rejected = 0

    for _ in range(max_steps):
        clipped = t + h >= t_span
        if clipped:
            h = t_span - t
        try:
            # each stage point is x + i y, with m = |x + i y|^2 and
            # s = 1/(1-m) + 3/(1+m); then q_i = (u - i v) p_i p_i with
            # u, v = x s, y s, the sign of -i v folded into the first product
            x = a0 + h * (_A2_1 * p1r)
            y = b0 + h * (_A2_1 * p1i)
            p2r = a1 + h * (_A2_1 * q1r)
            p2i = b1 + h * (_A2_1 * q1i)
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p2r + v * p2i, u * p2i - v * p2r
            q2r = u * p2r - v * p2i
            q2i = u * p2i + v * p2r
            x = a0 + h * (_A3_1 * p1r + _A3_2 * p2r)
            y = b0 + h * (_A3_1 * p1i + _A3_2 * p2i)
            p3r = a1 + h * (_A3_1 * q1r + _A3_2 * q2r)
            p3i = b1 + h * (_A3_1 * q1i + _A3_2 * q2i)
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p3r + v * p3i, u * p3i - v * p3r
            q3r = u * p3r - v * p3i
            q3i = u * p3i + v * p3r
            x = a0 + h * (_A4_1 * p1r + _A4_3 * p3r)
            y = b0 + h * (_A4_1 * p1i + _A4_3 * p3i)
            p4r = a1 + h * (_A4_1 * q1r + _A4_3 * q3r)
            p4i = b1 + h * (_A4_1 * q1i + _A4_3 * q3i)
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p4r + v * p4i, u * p4i - v * p4r
            q4r = u * p4r - v * p4i
            q4i = u * p4i + v * p4r
            x = a0 + h * (_A5_1 * p1r + _A5_3 * p3r + _A5_4 * p4r)
            y = b0 + h * (_A5_1 * p1i + _A5_3 * p3i + _A5_4 * p4i)
            p5r = a1 + h * (_A5_1 * q1r + _A5_3 * q3r + _A5_4 * q4r)
            p5i = b1 + h * (_A5_1 * q1i + _A5_3 * q3i + _A5_4 * q4i)
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p5r + v * p5i, u * p5i - v * p5r
            q5r = u * p5r - v * p5i
            q5i = u * p5i + v * p5r
            x = a0 + h * (_A6_1 * p1r + _A6_4 * p4r + _A6_5 * p5r)
            y = b0 + h * (_A6_1 * p1i + _A6_4 * p4i + _A6_5 * p5i)
            p6r = a1 + h * (_A6_1 * q1r + _A6_4 * q4r + _A6_5 * q5r)
            p6i = b1 + h * (_A6_1 * q1i + _A6_4 * q4i + _A6_5 * q5i)
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p6r + v * p6i, u * p6i - v * p6r
            q6r = u * p6r - v * p6i
            q6i = u * p6i + v * p6r
            x = a0 + h * (_A7_1 * p1r + _A7_4 * p4r + _A7_5 * p5r + _A7_6 * p6r)
            y = b0 + h * (_A7_1 * p1i + _A7_4 * p4i + _A7_5 * p5i + _A7_6 * p6i)
            p7r = a1 + h * (_A7_1 * q1r + _A7_4 * q4r + _A7_5 * q5r + _A7_6 * q6r)
            p7i = b1 + h * (_A7_1 * q1i + _A7_4 * q4i + _A7_5 * q5i + _A7_6 * q6i)
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p7r + v * p7i, u * p7i - v * p7r
            q7r = u * p7r - v * p7i
            q7i = u * p7i + v * p7r
            x = a0 + h * (_A8_1 * p1r + _A8_4 * p4r + _A8_5 * p5r + _A8_6 * p6r + _A8_7 * p7r)
            y = b0 + h * (_A8_1 * p1i + _A8_4 * p4i + _A8_5 * p5i + _A8_6 * p6i + _A8_7 * p7i)
            p8r = a1 + h * (_A8_1 * q1r + _A8_4 * q4r + _A8_5 * q5r + _A8_6 * q6r + _A8_7 * q7r)
            p8i = b1 + h * (_A8_1 * q1i + _A8_4 * q4i + _A8_5 * q5i + _A8_6 * q6i + _A8_7 * q7i)
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p8r + v * p8i, u * p8i - v * p8r
            q8r = u * p8r - v * p8i
            q8i = u * p8i + v * p8r
            x = a0 + h * (
                _A9_1 * p1r + _A9_4 * p4r + _A9_5 * p5r + _A9_6 * p6r + _A9_7 * p7r + _A9_8 * p8r
            )
            y = b0 + h * (
                _A9_1 * p1i + _A9_4 * p4i + _A9_5 * p5i + _A9_6 * p6i + _A9_7 * p7i + _A9_8 * p8i
            )
            p9r = a1 + h * (
                _A9_1 * q1r + _A9_4 * q4r + _A9_5 * q5r + _A9_6 * q6r + _A9_7 * q7r + _A9_8 * q8r
            )
            p9i = b1 + h * (
                _A9_1 * q1i + _A9_4 * q4i + _A9_5 * q5i + _A9_6 * q6i + _A9_7 * q7i + _A9_8 * q8i
            )
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p9r + v * p9i, u * p9i - v * p9r
            q9r = u * p9r - v * p9i
            q9i = u * p9i + v * p9r
            x = a0 + h * (
                _A10_1 * p1r + _A10_4 * p4r + _A10_5 * p5r + _A10_6 * p6r + _A10_7 * p7r
                + _A10_8 * p8r + _A10_9 * p9r
            )
            y = b0 + h * (
                _A10_1 * p1i + _A10_4 * p4i + _A10_5 * p5i + _A10_6 * p6i + _A10_7 * p7i
                + _A10_8 * p8i + _A10_9 * p9i
            )
            p10r = a1 + h * (
                _A10_1 * q1r + _A10_4 * q4r + _A10_5 * q5r + _A10_6 * q6r + _A10_7 * q7r
                + _A10_8 * q8r + _A10_9 * q9r
            )
            p10i = b1 + h * (
                _A10_1 * q1i + _A10_4 * q4i + _A10_5 * q5i + _A10_6 * q6i + _A10_7 * q7i
                + _A10_8 * q8i + _A10_9 * q9i
            )
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p10r + v * p10i, u * p10i - v * p10r
            q10r = u * p10r - v * p10i
            q10i = u * p10i + v * p10r
            x = a0 + h * (
                _A11_1 * p1r + _A11_4 * p4r + _A11_5 * p5r + _A11_6 * p6r + _A11_7 * p7r
                + _A11_8 * p8r + _A11_9 * p9r + _A11_10 * p10r
            )
            y = b0 + h * (
                _A11_1 * p1i + _A11_4 * p4i + _A11_5 * p5i + _A11_6 * p6i + _A11_7 * p7i
                + _A11_8 * p8i + _A11_9 * p9i + _A11_10 * p10i
            )
            p11r = a1 + h * (
                _A11_1 * q1r + _A11_4 * q4r + _A11_5 * q5r + _A11_6 * q6r + _A11_7 * q7r
                + _A11_8 * q8r + _A11_9 * q9r + _A11_10 * q10r
            )
            p11i = b1 + h * (
                _A11_1 * q1i + _A11_4 * q4i + _A11_5 * q5i + _A11_6 * q6i + _A11_7 * q7i
                + _A11_8 * q8i + _A11_9 * q9i + _A11_10 * q10i
            )
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p11r + v * p11i, u * p11i - v * p11r
            q11r = u * p11r - v * p11i
            q11i = u * p11i + v * p11r
            x = a0 + h * (
                _A12_1 * p1r + _A12_4 * p4r + _A12_5 * p5r + _A12_6 * p6r + _A12_7 * p7r
                + _A12_8 * p8r + _A12_9 * p9r + _A12_10 * p10r + _A12_11 * p11r
            )
            y = b0 + h * (
                _A12_1 * p1i + _A12_4 * p4i + _A12_5 * p5i + _A12_6 * p6i + _A12_7 * p7i
                + _A12_8 * p8i + _A12_9 * p9i + _A12_10 * p10i + _A12_11 * p11i
            )
            p12r = a1 + h * (
                _A12_1 * q1r + _A12_4 * q4r + _A12_5 * q5r + _A12_6 * q6r + _A12_7 * q7r
                + _A12_8 * q8r + _A12_9 * q9r + _A12_10 * q10r + _A12_11 * q11r
            )
            p12i = b1 + h * (
                _A12_1 * q1i + _A12_4 * q4i + _A12_5 * q5i + _A12_6 * q6i + _A12_7 * q7i
                + _A12_8 * q8i + _A12_9 * q9i + _A12_10 * q10i + _A12_11 * q11i
            )
            m = x * x + y * y
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = x * s, y * s
            u, v = u * p12r + v * p12i, u * p12i - v * p12r
            q12r = u * p12r - v * p12i
            q12i = u * p12i + v * p12r
            s0r = (
                _B1 * p1r + _B6 * p6r + _B7 * p7r + _B8 * p8r + _B9 * p9r + _B10 * p10r
                + _B11 * p11r + _B12 * p12r
            )
            s0i = (
                _B1 * p1i + _B6 * p6i + _B7 * p7i + _B8 * p8i + _B9 * p9i + _B10 * p10i
                + _B11 * p11i + _B12 * p12i
            )
            s1r = (
                _B1 * q1r + _B6 * q6r + _B7 * q7r + _B8 * q8r + _B9 * q9r + _B10 * q10r
                + _B11 * q11r + _B12 * q12r
            )
            s1i = (
                _B1 * q1i + _B6 * q6i + _B7 * q7i + _B8 * q8i + _B9 * q9i + _B10 * q10i
                + _B11 * q11i + _B12 * q12i
            )
            a0n = a0 + h * s0r
            b0n = b0 + h * s0i
            a1n = a1 + h * s1r
            b1n = b1 + h * s1i
            # the 13th evaluation, at the proposed point: stage 1 of the next step
            m = a0n * a0n + b0n * b0n
            s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)
            u, v = a0n * s, b0n * s
            u, v = u * a1n + v * b1n, u * b1n - v * a1n
            q13r = u * a1n - v * b1n
            q13i = u * b1n + v * a1n
        except ZeroDivisionError:  # a stage exactly on the equator
            err = math.nan
        else:
            e50r = (
                _E5_1 * p1r + _E5_6 * p6r + _E5_7 * p7r + _E5_8 * p8r + _E5_9 * p9r + _E5_10 * p10r
                + _E5_11 * p11r + _E5_12 * p12r
            )
            e50i = (
                _E5_1 * p1i + _E5_6 * p6i + _E5_7 * p7i + _E5_8 * p8i + _E5_9 * p9i + _E5_10 * p10i
                + _E5_11 * p11i + _E5_12 * p12i
            )
            e51r = (
                _E5_1 * q1r + _E5_6 * q6r + _E5_7 * q7r + _E5_8 * q8r + _E5_9 * q9r + _E5_10 * q10r
                + _E5_11 * q11r + _E5_12 * q12r
            )
            e51i = (
                _E5_1 * q1i + _E5_6 * q6i + _E5_7 * q7i + _E5_8 * q8i + _E5_9 * q9i + _E5_10 * q10i
                + _E5_11 * q11i + _E5_12 * q12i
            )
            e30r = s0r - (_BHH1 * p1r + _BHH9 * p9r + _BHH12 * p12r)
            e30i = s0i - (_BHH1 * p1i + _BHH9 * p9i + _BHH12 * p12i)
            e31r = s1r - (_BHH1 * q1r + _BHH9 * q9r + _BHH12 * q12r)
            e31i = s1i - (_BHH1 * q1i + _BHH9 * q9i + _BHH12 * q12i)
            # max over the 4 real components, each scaled by 1 + its larger
            # magnitude; `d if d > c else c` is max(c, d) without a call
            c, d = abs(a0), abs(a0n)
            w = 1.0 + (d if d > c else c)
            e5 = abs(e50r) / w
            e3 = abs(e30r) / w
            c, d = abs(b0), abs(b0n)
            w = 1.0 + (d if d > c else c)
            c = abs(e50i) / w
            e5 = c if c > e5 else e5
            c = abs(e30i) / w
            e3 = c if c > e3 else e3
            c, d = abs(a1), abs(a1n)
            w = 1.0 + (d if d > c else c)
            c = abs(e51r) / w
            e5 = c if c > e5 else e5
            c = abs(e31r) / w
            e3 = c if c > e3 else e3
            c, d = abs(b1), abs(b1n)
            w = 1.0 + (d if d > c else c)
            c = abs(e51i) / w
            e5 = c if c > e5 else e5
            c = abs(e31i) / w
            e3 = c if c > e3 else e3
            e5 *= e5
            deno = e5 + 0.01 * e3 * e3
            err = h * e5 / math.sqrt(deno) / tol if deno else 0.0

        if err <= 1.0:
            t = t_span if clipped else t + h
            ts.append(t)
            xis.append(complex(a0n, b0n))
            xds.append(complex(a1n, b1n))
            s_new = 1.0 - m  # m = |xi|^2 at the new point, from the 13th evaluation
            if abs(s_new) <= equator_cut:
                s_old = 1.0 - (a0 * a0 + b0 * b0)
                t_hit = t + s_new * (ts[-1] - ts[-2]) / (s_old - s_new)
                status = Termination.EQUATOR_REACHED
                break
            if t >= t_span:
                status = Termination.TIME_LIMIT
                break
            a0, b0, a1, b1 = a0n, b0n, a1n, b1n
            p1r, p1i, q1r, q1i = a1n, b1n, q13r, q13i
            fac = facmax if err == 0.0 else min(facmax, max(_FAC_MIN, _SAFETY * err**-0.125))
            facmax = _FAC_MAX
        else:
            rejected += 1
            if math.isnan(err):  # a stage hit the degeneracy exactly
                fac = 0.2
            else:
                fac = max(_FAC_MIN, _SAFETY * err**-0.125)
            facmax = 1.0  # the step after a rejection does not grow
        h *= fac
        if h < h_min:
            status = Termination.STEP_UNDERFLOW
            break

    return ts, xis, xds, status, t_hit, rejected


def integrate(
    initial: GeodesicState, sphere: StandardSphere, t_max: float, tol: float
) -> Trajectory:
    """Integrate the geodesic flow from ``initial`` until ``t_max``.

    The chart is chosen once, at launch: xi for |xi0| < 1, else
    zeta = 1/xi from zeta = 1/xi0 and zetadot = -xidot0 zeta^2.  The
    substitution only flips the sign of the conformal factor, so the
    equation is the same in zeta, with (I1, I2) -> (-I1, I2), and an
    orbit through the south pole passes zeta = 0 like any other point.

    Uses the adaptive Dormand-Prince 8(5,3) pair (``geod_integrate``)
    with per-step relative error bounded by ``tol``.  Every accepted step
    is recorded; ``Trajectory.stats`` reports accepted and rejected steps
    and right-hand-side evaluations.  Termination, with z the chart
    coordinate:

    * ``TIME_LIMIT`` -- reached ``t_max``;
    * ``EQUATOR_REACHED`` -- ``1 - |z|^2`` crossed ``EQUATOR_CUTOFF``;
      the trajectory's ``t_hit`` linearly interpolates the parameter
      value of the actual degeneracy 1 - |z|^2 = 0 (the remaining gap is
      of order cutoff^{3/2}, far below the interpolation error);
    * ``STEP_UNDERFLOW`` -- error control pushed the step below
      ``MIN_STEP``.  Near the blow-up the controller shrinks steps
      roughly in proportion to the remaining parameter span, so at tight
      tolerances the step may underflow just before the cutoff band is
      reached: from the pole at speed 1 the run reaches the equator at
      tol 1e-10 and underflows at 1e-12, and at speeds 0.5 .. 3 some
      runs underflow from 1e-8 down; use a moderate tolerance
      (1e-6 .. 1e-7) when the goal is the hit time;
    * ``MAX_STEPS`` -- ``MAX_STEPS`` step attempts (accepted or rejected)
      ran out first; the trajectory holds the steps accepted until then.

    The three limits are the module constants, read at each call.

    Raises
    ------
    DomainError
        If the sphere is not twisting (c <= 0), tol is not positive and
        finite, t_max is not finite, t_max <= initial.t, the initial I1
        or I2 is not a finite double in the run's chart, or the initial
        point sits inside the cutoff band of its chart.
    """
    if sphere.c <= 0.0:
        raise DomainError("geodesic flow requires a twisting sphere (c > 0)")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    if t_max <= initial.t:
        raise DomainError(f"t_max = {t_max} does not exceed initial time {initial.t}")
    z0, zdot0, chart = initial.xi, initial.xidot, "xi"
    if (z0 * z0.conjugate()).real > 1.0:  # |xi|^2, which may overflow to inf
        z0 = 1.0 / z0
        zdot0, chart = -zdot0 * z0 * z0, "zeta"  # -xidot/xi^2 without forming xi^2
    # DomainError unless I1 and I2 are finite doubles in the run's chart
    first_integrals(GeodesicState(initial.t, z0, zdot0))
    s0 = 1.0 - abs(z0) ** 2
    if abs(s0) <= EQUATOR_CUTOFF:
        raise DomainError(
            f"initial point is within the equator cutoff band (1-|{chart}|^2 = {s0:.3e})"
        )

    ts, zs, zds, termination, t_hit, rejected = geod_integrate(
        z0, zdot0, t_max - initial.t, tol, EQUATOR_CUTOFF, MIN_STEP, MAX_STEPS
    )
    i1s, i2s = first_integrals_arrays(zs, zds)
    if chart == "zeta":
        i1s = [-i1 for i1 in i1s]
    i10, i20 = i1s[0], i2s[0]
    # I2 = 0 has no relative scale; sqrt|I1| bounds |I2| (see Trajectory)
    i2_scale = abs(i20) if i20 != 0.0 else math.sqrt(abs(i10))
    drift = (
        max([abs(i1 - i10) for i1 in i1s]) / max(abs(i10), 1e-30),
        max([abs(i2 - i20) for i2 in i2s]) / max(i2_scale, 1e-30),
    )
    return Trajectory(
        sphere=sphere,
        t=[t + initial.t for t in ts],
        xi=zs,
        xidot=zds,
        integrals0=FirstIntegrals(i10, i20),
        max_drift=drift,
        termination=termination,
        _integrals=(i1s, i2s),
        t_hit=None if t_hit is None else t_hit + initial.t,
        rejected_steps=rejected,
        chart=chart,
    )


#: the CSV header of a run in the xi chart; a run in the zeta chart names
#: its coordinate columns zeta_re, zeta_im, zetadot_re and zetadot_im
CSV_HEADER = "t,R,theta,xi_re,xi_im,xidot_re,xidot_im,I1,I2"


#: rows formatted and written at a time; bounds what the export holds
CSV_CHUNK_ROWS = 1024

_CSV_ROW = ",".join(["%.17g"] * 9) + "\n"


def write_csv(traj: Trajectory, stream):
    """Write the trajectory CSV to a file-like object.

    One header line, then one row per sample with the columns of
    ``CSV_HEADER``, every value to 17 significant digits (round-trips).
    R, theta and the coordinate columns are those of the trajectory's
    chart, which the header names; I1 and I2 are in the xi sense.
    Rows are formatted and written a chunk at a time, R and theta
    included, so the export never holds a copy of the whole table.
    """
    i1s, i2s = traj.integral_series()
    phase = cmath.phase
    stream.write(CSV_HEADER.replace("xi", traj.chart) + "\n")
    for lo in range(0, len(traj), CSV_CHUNK_ROWS):
        hi = lo + CSV_CHUNK_ROWS
        rows = zip(traj.t[lo:hi], traj.xi[lo:hi], traj.xidot[lo:hi], i1s[lo:hi], i2s[lo:hi])
        stream.write("".join([
            _CSV_ROW % (t, abs(xi), phase(xi), xi.real, xi.imag, xidot.real, xidot.imag, i1, i2)
            for t, xi, xidot, i1, i2 in rows
        ]))
