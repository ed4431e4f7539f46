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
adaptive steps, on real and imaginary parts as floats; its step is
generated once per process from the tableau, with the weights compiled
in as constants, and it returns the first integrals at every sample.
``first_integrals_arrays`` and the conformal factor
f = (1-|xi|^2)/(1+|xi|^2)^3 are generated with it from the same lines
of source, so Gamma, f and (I1, I2) are each written once.
``integrate`` validates its input and wraps the result in a
``Trajectory``, which carries those integrals, their drift and the
count of rejected steps.  All value types here are immutable
``errors.Record``s; a trajectory's sample lists are not copied and are
read-only by convention.  The closed forms of the radial motion (travel
time, effective potential, turning radii) are in ``analysis``;
``oscillation_check`` compares a trajectory's radial extremes with them.
"""

import cmath
import enum
import linecache
import math

from .errors import DomainError, Record, finite_complex, write_table

#: integration stops once |1 - |xi|^2| falls below this
EQUATOR_CUTOFF = 1e-8

#: an adaptive step below this terminates the run
MIN_STEP = 1e-14

#: step attempts, accepted or rejected, after which a run stops
MAX_STEPS = 5_000_000


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
        t = float(t)
        if not math.isfinite(t):
            raise DomainError(f"t must be finite, got {t!r}")
        self._init_fields(t, finite_complex("xi", xi), finite_complex("xidot", xidot))


class FirstIntegrals(Record):
    """The conserved pair: I1 the squared speed, I2 the angular momentum."""

    __slots__ = ("I1", "I2")

    def __init__(self, I1: float, I2: float):
        if not (math.isfinite(I1) and math.isfinite(I2)):
            raise DomainError(
                f"first integrals must be finite doubles, got I1 = {I1!r}, I2 = {I2!r}"
            )
        self._init_fields(I1, I2)


def _in_chart(state: GeodesicState) -> tuple[complex, complex, str]:
    """(z, zdot, chart) of ``state`` in the chart a run from it keeps: xi
    for |xi| <= 1, else zeta = 1/xi with zetadot = -xidot zeta^2."""
    z, zdot = state.xi, state.xidot
    if (z * z.conjugate()).real > 1.0:  # |xi|^2, which may overflow to inf
        z = 1.0 / z
        return z, -zdot * z * z, "zeta"  # -xidot/xi^2 without forming xi^2
    return z, zdot, "xi"


def first_integrals(state: GeodesicState) -> FirstIntegrals:
    """Evaluate both conserved quantities at a state, in the chart that
    ``integrate`` runs it in, so that they equal a run's ``integrals0``;
    I1 is in the xi sense, negated in zeta.

    Raises DomainError when either is not a finite double.
    """
    z, zdot, chart = _in_chart(state)
    (i1,), (i2,) = first_integrals_arrays((z,), (zdot,))
    return FirstIntegrals(-i1 if chart == "zeta" else i1, i2)


def state_from_polar(R: float, theta: float, Rdot: float, thetadot: float) -> GeodesicState:
    """The state at t = 0 with xi = R e^{i theta} and polar velocity
    (Rdot, thetadot); DomainError unless all four are finite and R >= 0."""
    values = []
    for name, v in (("R", R), ("theta", theta), ("Rdot", Rdot), ("thetadot", thetadot)):
        v = float(v)
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
        values.append(v)
    R, theta, Rdot, thetadot = values
    if R < 0.0:
        raise DomainError(f"radius must be >= 0, got {R}")
    phase = cmath.exp(1j * theta)
    return GeodesicState(0.0, R * phase, (Rdot + 1j * R * thetadot) * phase)


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
    is a valid launch radius, and the two share one no-orbit threshold.
    A launch at a reported radius has Rdot = 0, as at any turning point;
    elsewhere Rdot = 0 where rounding makes Rdot^2 slightly negative.

    Raises
    ------
    NoOrbitError
        If I2 != 0 and I1/I2^2 lies below the potential minimum 6*sqrt(3),
        so no radius admits real radial motion.
    DomainError
        If I1 or I2 is not finite, the requested radius lies outside the
        orbit annulus, or I1/I2^2 is not a finite double.
    """
    FirstIntegrals(i1, i2)  # DomainError unless both are finite doubles
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
        # at a turning radius the rounding of U(r0) would leave Rdot != 0
        disc = 0.0 if r0 in (tp.R_min, tp.R_max) else i1 - effective_potential(r0) * i2 * i2
    r2 = r0 * r0
    f = _conformal(r2)
    thetadot = i2 / (f * r2) if i2 != 0.0 else i2  # r0^2 may underflow to 0
    rdot = math.sqrt(max(disc / f, 0.0))
    if not outward:
        rdot = -rdot
    return state_from_polar(r0, theta0, rdot, thetadot)


class Trajectory(Record):
    """An integrated geodesic: per-step samples plus diagnostics.

    ``t``, ``xi``, ``xidot`` are aligned sequences of floats and complex
    numbers with one entry per accepted step (including the initial
    state), and ``integrals`` holds the lists (I1, I2) of the first
    integrals at those samples.
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
        "t", "xi", "xidot", "integrals0", "max_drift", "termination", "integrals",
        "t_hit", "rejected_steps", "chart",
    )

    def __init__(self, t, xi, xidot, integrals0, max_drift, termination, integrals,
                 t_hit=None, rejected_steps=0, chart="xi"):
        self._init_fields(t, xi, xidot, integrals0, max_drift, termination, integrals,
                          t_hit, rejected_steps, chart)

    def __len__(self):
        return len(self.t)

    @property
    def radius(self) -> list[float]:
        return [abs(xi) for xi in self.xi]

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


class OscillationReport(Record):
    """Observed radial extremes of a trajectory against the predicted
    annulus.  ``conclusive`` is False when the trajectory span did not
    cover a full radial sweep, so an extreme may not have been attained."""

    __slots__ = (
        "observed_min", "observed_max", "predicted", "discrepancy_min", "discrepancy_max",
        "radial_turnings", "conclusive",
    )

    def __init__(self, observed_min, observed_max, predicted, discrepancy_min, discrepancy_max,
                 radial_turnings, conclusive):
        self._init_fields(observed_min, observed_max, predicted, discrepancy_min,
                          discrepancy_max, radial_turnings, conclusive)


def oscillation_check(traj: Trajectory) -> OscillationReport:
    """Compare a trajectory's radial extremes to the potential's roots.

    Counts interior sign changes of Rdot along the samples; fewer than
    two means the orbit has not visited both edges of the annulus and
    the report is flagged inconclusive (a near-circular orbit with a
    collapsed annulus is treated as conclusive directly).
    """
    from .analysis import turning_points

    i1, i2 = traj.integrals0.I1, traj.integrals0.I2
    if i2 == 0.0:
        raise DomainError("oscillation check requires nonzero angular momentum")
    # the radii are those of the run's chart, which its own integrals bound:
    # in zeta = 1/xi those are (-I1, I2)
    predicted = turning_points(-i1 if traj.chart == "zeta" else i1, i2)

    big_r = traj.radius
    obs_min, obs_max = min(big_r), max(big_r)

    # Rdot = Re(conj(xi) xidot)/R has the sign of its numerator; R > 0
    # along orbits with I2 != 0
    rdots = [(xi.conjugate() * xidot).real for xi, xidot in zip(traj.xi, traj.xidot)]
    signs = [rdot > 0.0 for rdot in rdots if rdot != 0.0]
    turnings = sum(a != b for a, b in zip(signs, signs[1:]))

    collapsed = predicted.R_max - predicted.R_min < 1e-6 and obs_max - obs_min < 1e-6
    conclusive = turnings >= 2 or collapsed
    if traj.termination is not Termination.TIME_LIMIT:
        conclusive = False  # the orbit was cut short by the integrator

    return OscillationReport(
        observed_min=obs_min,
        observed_max=obs_max,
        predicted=predicted,
        discrepancy_min=abs(obs_min - predicted.R_min),
        discrepancy_max=abs(obs_max - predicted.R_max),
        radial_turnings=turnings,
        conclusive=conclusive,
    )


# -- the adaptive stepper -----------------------------------------------------

# Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, section II.10, and Hairer's dop853.f),
# as rows of stage weights, zeros included: _A[i-1][j-1] is the weight of
# stage j in stage i, _B[j-1] the eighth-order weight of stage j, _E5[j-1]
# its weight in the fifth-order error estimate, and _BHH[j-1] that of the
# third-order pair, whose estimate is sum_j (_B[j-1] - _BHH[j-1]) k_j.  The
# flow is autonomous, so the nodes are not needed; they are the row sums of _A.
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
      1.89151789931450038304281599044, -5.8012039600105847814672114227,
      3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
      2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
_E5 = (1.312004499419488073250102996e-2, 0.0, 0.0, 0.0, 0.0, -1.225156446376204440720569753,
       -4.957589496572501915214079952e-1, 1.664377182454986536961530415,
       -3.503288487499736816886487290e-1, 3.341791187130174790297318841e-1,
       8.192320648511571246570742613e-2, -2.235530786388629525884427845e-2)
_BHH = (2.44094488188976377952755905512e-1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        7.33846688281611857341361741547e-1, 0.0, 0.0, 2.20588235294117647058823529412e-2)

#: step-size control: safety factor on the optimal step (0.9 rejects about
#: a fifth of the attempts on long orbits at tol 1e-10, 0.8 about 4%), and
#: the bounds on the factor by which one attempt changes the step
_SAFETY = 0.8
_FAC_MIN = 1.0 / 3.0
_FAC_MAX = 6.0

#: right-hand-side evaluations per step attempt: 11 new stages and the 13th
#: at the proposed point, which becomes stage 1 of the next step
RHS_EVALS_PER_STEP = 12


# The source of _conformal, first_integrals_arrays and geod_integrate,
# less what _generate_kernel writes out from the tableau rows, _rhs and
# _integrals.
_KERNEL = '''\
def _conformal(m):
    """The conformal factor f = (1-m)/(1+m)^3 at m = |xi|^2: the induced
    metric of the sphere eta = c i xi is -4c f dxi dxibar."""
    {f}
    return f


def first_integrals_arrays(xis, xidots):
    """First integrals along samples: the lists (I1, I2), one entry per
    (xi, xidot) pair.

    Raises OverflowError when a float power overflows.
    """
    i1s, i2s = [], []
    for xi, xidot in zip(xis, xidots):
        a0, b0, a1, b1 = xi.real, xi.imag, xidot.real, xidot.imag
        {integrals_loop}
    return i1s, i2s


def geod_integrate(xi0, xidot0, t_span, tol):
    """Adaptive Dormand-Prince 8(5,3) integration of the geodesic system.

    Integrates from xi0 in the unit disk, t=0, to t=t_span, recording every
    accepted step; ``MAX_STEPS`` caps the step attempts.  Returns
    (t, xi, xidot, termination, t_hit, rejected, I1, I2): the samples as
    lists, ``termination`` a ``Termination``, ``t_hit`` the linear
    interpolation of the equator crossing 1-|xi|^2 = 0 (None unless the
    equator was reached), ``rejected`` the count of rejected attempts,
    and the first integrals at the samples, each the float that
    ``first_integrals_arrays`` gives, from the |xi|^2 of stage 1 at the
    start and of the 13th evaluation after each step.  Each attempt
    evaluates the right-hand side RHS_EVALS_PER_STEP times, after one
    evaluation at the start.

    The error of a step is the fifth-order estimate e5 damped by the
    third-order one e3, err = h e5^2 / sqrt(e5^2 + 0.01 e3^2) / tol, both
    the max-norm over the 4 real components, each scaled by
    1 + max(|y|, |y_new|); the step is accepted when err <= 1.  After
    each attempt the step is scaled by min(facmax, max(1/3, 0.8 err^(-1/8)))
    (``_FAC_MIN``, ``_SAFETY``), or by facmax when err = 0, with facmax
    6 (``_FAC_MAX``) and 1 after a rejection.  An attempt is rejected,
    and the step shrinks fivefold, when a stage lands exactly on the
    equator, which divides by zero, or when its proposed point lies
    outside the unit disk past the cutoff band.  So no sample leaves the
    disk at any tol: a loose tol costs rejections, not a crossing.  A
    start on the equator raises ZeroDivisionError; ``integrate`` refuses
    starts in the cutoff band, and runs one outside the disk in zeta.

    ``_generate_kernel`` writes this function once per process.  The
    stages come from the tableau rows, each nonzero weight as the literal
    of its double, which compiles to a constant.  Every right-hand side,
    stage 1 included, is the source of ``_rhs`` (the Christoffel symbol
    in real arithmetic) and every sample's integrals that of
    ``_integrals``: xi = a0 + i b0, xidot = a1 + i b1, and stage i is
    (pir + i pii, qir + i qii).  Each complex product is
    (ac - bd, ad + bc), CPython's formula and operand order, and each
    weighted sum takes its nonzero terms in tableau order; folding a
    conjugate's sign into a product (x x - y (-y) = x x + y y) is exact.
    So from every start inside the unit disk each float, step,
    termination and ``t_hit`` equals that of the same stepper on complex
    scalars (the tableau loop in the tests), up to the sign of a
    component that is exactly zero, which that stepper's c + 0i weights
    can flip only when every term of a weighted sum underflows.  In the
    norm and the controller |x|, max and min are conditional
    expressions, not calls; a signed zero or a NaN leaves err unchanged.
    """
    equator_cut, h_min, max_steps = EQUATOR_CUTOFF, MIN_STEP, MAX_STEPS
    t = 0.0
    y0, y1 = complex(xi0), complex(xidot0)
    ts, xis, xds = [0.0], [y0], [y1]
    # modest initial step; the controller adapts within a few steps
    h = min(1e-2, 1e-2 * (1.0 + abs(y0)) / (1.0 + abs(y1)), t_span)
    facmax = {fac_max!r}
    # stage k_i = (p_i, q_i) = rhs(xi, xidot) = (xidot, -Gamma(xi) xidot^2),
    # with p_i = pir + i pii and q_i = qir + i qii
    a0, b0, a1, b1 = y0.real, y0.imag, y1.real, y1.imag
    p1r, p1i = a1, b1
    {stage1}
    i1s, i2s = [], []
    {integrals0}
    status, t_hit, rejected = Termination.MAX_STEPS, None, 0

    for _ in range(max_steps):
        clipped = t + h >= t_span
        if clipped:
            h = t_span - t
        try:
            {stages}
        except ZeroDivisionError:  # a stage exactly on the equator
            err = math.nan
        else:
            {errors}
            e5 *= e5
            deno = e5 + 0.01 * e3 * e3
            err = h * e5 / math.sqrt(deno) / tol if deno else 0.0
            if 1.0 - m < -equator_cut:  # outside the disk, past the band
                err = math.nan

        if err <= 1.0:
            t = t_span if clipped else t + h
            ts.append(t)
            xis.append(complex(a0n, b0n))
            xds.append(complex(a1n, b1n))
            # m = |xi|^2 at the new point, from the 13th evaluation
            {integrals}
            s_new = 1.0 - m
            if s_new <= equator_cut:  # no accepted point lies below -equator_cut
                s_old = 1.0 - (a0 * a0 + b0 * b0)
                t_hit = t + s_new * (ts[-1] - ts[-2]) / (s_old - s_new)
                status = Termination.EQUATOR_REACHED
                break
            if t >= t_span:
                status = Termination.TIME_LIMIT
                break
            a0, b0, a1, b1 = a0n, b0n, a1n, b1n
            p1r, p1i, q1r, q1i = a1n, b1n, q13r, q13i
            next_facmax = {fac_max!r}
        else:
            rejected += 1
            next_facmax = 1.0  # the step after a rejection does not grow
        if err != err:  # NaN: a stage on the equator, or a proposed point outside the disk
            fac = 0.2
        elif err == 0.0:
            fac = facmax
        else:
            fac = {safety!r} * err ** -0.125
            fac = fac if fac > {fac_min!r} else {fac_min!r}
            fac = fac if fac < facmax else facmax
        facmax = next_facmax
        h *= fac
        if h < h_min:
            status = Termination.STEP_UNDERFLOW
            break

    return ts, xis, xds, status, t_hit, rejected, i1s, i2s
'''

#: the real components of the state, by the suffix of their sums: the name
#: of each, and the stage list and the part of it that its sums run over
_COMPONENTS = {"0r": ("a0", "p", "r"), "0i": ("b0", "p", "i"),
               "1r": ("a1", "q", "r"), "1i": ("b1", "q", "i")}


def _rhs(x, y, pr, pi, qr, qi):
    """Source of q = qr + i qi, the rhs at x + i y with velocity pr + i pi:
    with m = |x + i y|^2 and s = 1/(1-m) + 3/(1+m), q = (u - i v) p p for
    u, v = x s, y s, the sign of -i v folded into the first product."""
    return [f"m = {x} * {x} + {y} * {y}", "s = 1.0 / (1.0 - m) + 3.0 / (1.0 + m)",
            f"u, v = {x} * s, {y} * s", f"u, v = u * {pr} + v * {pi}, u * {pi} - v * {pr}",
            f"{qr} = u * {pr} - v * {pi}", f"{qi} = u * {pi} + v * {pr}"]


def _integrals(x, y, pr, pi):
    """Source appending I1 = f |p|^2 and I2 = f Im(conj(x + i y) p), for
    f = (1-m)/(1+m)^3 with the m that ``_rhs`` left at x + i y."""
    return ["f = (1.0 - m) / (1.0 + m) ** 3", f"i1s.append(f * ({pr} * {pr} + {pi} * {pi}))",
            f"i2s.append(f * ({x} * {pi} - {y} * {pr}))"]


def _generate_kernel():
    """Compile ``_conformal``, ``first_integrals_arrays`` and
    ``geod_integrate`` from ``_KERNEL``, registering the source with
    ``linecache`` for tracebacks, profilers and ``inspect``.  The stepper's
    stages and error estimates are written out from the tableau rows;
    its stage 1 (``_rhs``) and integrals (``_integrals``) give the others."""
    def weighted(row, k):  # sum_j w_j k_j over the nonzero weights w_j of row
        _, stage, part = _COMPONENTS[k]
        return " + ".join(f"{w!r} * {stage}{j}{part}" for j, w in enumerate(row, 1) if w)

    def mag(x):  # |x| without a call
        return f"(-{x} if {x} < 0.0 else {x})"

    stages = []
    for i, row in enumerate(_A[1:], 2):
        for k, target in zip(_COMPONENTS, ("x", "y", f"p{i}r", f"p{i}i")):
            stages.append(f"{target} = {_COMPONENTS[k][0]} + h * ({weighted(row, k)})")
        stages += _rhs("x", "y", f"p{i}r", f"p{i}i", f"q{i}r", f"q{i}i")
    stages += [f"s{k} = {weighted(_B, k)}" for k in _COMPONENTS]
    stages += [f"{y}n = {y} + h * s{k}" for k, (y, _, _) in _COMPONENTS.items()]
    stages.append("# the 13th evaluation, at the proposed point: stage 1 of the next step")
    stages += _rhs("a0n", "b0n", "a1n", "b1n", "q13r", "q13i")
    errors = [f"e5{k} = {weighted(_E5, k)}" for k in _COMPONENTS]
    errors += [f"e3{k} = s{k} - ({weighted(_BHH, k)})" for k in _COMPONENTS]
    errors.append("# max over the 4 real components, each scaled by 1 + its larger magnitude")
    for k, (y, _, _) in _COMPONENTS.items():
        errors += [f"c = {mag(y)}", f"d = {mag(y + 'n')}", "w = 1.0 + (d if d > c else c)"]
        for e in ("e5", "e3"):
            if k == "0r":
                errors.append(f"{e} = {mag(e + k)} / w")
            else:
                errors += [f"c = {mag(e + k)} / w", f"{e} = c if c > {e} else {e}"]

    start, step = "\n    ", "\n" + " " * 12  # the indents of the kernel's start and loop
    stage1 = _rhs("a0", "b0", "a1", "b1", "q1r", "q1i")
    integrals0 = _integrals("a0", "b0", "a1", "b1")
    source = _KERNEL.format(
        f=integrals0[0],
        integrals_loop=(start + "    ").join([stage1[0], *integrals0]),
        stage1=start.join(stage1), integrals0=start.join(integrals0),
        integrals=step.join(_integrals("a0n", "b0n", "a1n", "b1n")),
        stages=step.join(stages), errors=step.join(errors),
        safety=_SAFETY, fac_min=_FAC_MIN, fac_max=_FAC_MAX)
    filename = "<linegeo.geodesics: generated source>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return tuple(namespace[name] for name in
                 ("_conformal", "first_integrals_arrays", "geod_integrate"))


_conformal, first_integrals_arrays, geod_integrate = _generate_kernel()


def integrate(initial: GeodesicState, t_max: float, tol: float) -> Trajectory:
    """Integrate the geodesic flow from ``initial`` until ``t_max``.

    The flow is that of every twisting sphere eta = c i xi: c > 0 scales
    the induced metric -4c f dxi dxibar by a constant, which leaves the
    geodesics and their parameter unchanged.

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
      (1e-6 .. 1e-7) when the goal is the hit time.  ``MIN_STEP`` is
      absolute while a launch at speed v runs in time 1/v, so the
      outcome also depends on the speed: from the pole at speed 1e3 the
      run underflows at tol 1e-6 too;
    * ``MAX_STEPS`` -- ``MAX_STEPS`` step attempts (accepted or rejected)
      ran out first; the trajectory holds the steps accepted until then.

    The three limits are the module constants, which the stepper reads at
    each call.  No tol carries the run across the equator: the stepper
    rejects a proposed point outside the unit disk past the cutoff band,
    so every sample keeps 1 - |z|^2 >= -``EQUATOR_CUTOFF``, and a loose
    tol shows in ``max_drift`` and the rejected steps instead.

    Raises
    ------
    DomainError
        If tol is not positive and finite, t_max is not finite,
        t_max <= initial.t, t_max - initial.t overflows, the initial point
        sits inside the cutoff band of its chart, or I1 or I2 is not a
        finite double at some sample, the first included.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    if t_max <= initial.t:
        raise DomainError(f"t_max = {t_max} does not exceed initial time {initial.t}")
    if not math.isfinite(t_max - initial.t):
        raise DomainError(f"the span from t = {initial.t} to t_max = {t_max} overflows")
    z0, zdot0, chart = _in_chart(initial)
    s0 = 1.0 - abs(z0) ** 2
    if abs(s0) <= EQUATOR_CUTOFF:
        raise DomainError(
            f"initial point is within the equator cutoff band (1-|{chart}|^2 = {s0:.3e})"
        )

    ts, zs, zds, termination, t_hit, rejected, i1s, i2s = geod_integrate(
        z0, zdot0, t_max - initial.t, tol)
    if chart == "zeta":
        i1s = [-i1 for i1 in i1s]
    if not (all(map(math.isfinite, i1s)) and all(map(math.isfinite, i2s))):
        k = next(k for k, i in enumerate(zip(i1s, i2s)) if not all(map(math.isfinite, i)))
        raise DomainError(f"first integrals must be finite doubles along the run, got "
                          f"I1 = {i1s[k]!r}, I2 = {i2s[k]!r} at t = {ts[k] + initial.t!r}")
    i10, i20 = i1s[0], i2s[0]
    # I2 = 0 has no relative scale; sqrt|I1| bounds |I2| (see Trajectory)
    i2_scale = abs(i20) if i20 != 0.0 else math.sqrt(abs(i10))
    drift = (
        max([abs(i1 - i10) for i1 in i1s]) / max(abs(i10), 1e-30),
        max([abs(i2 - i20) for i2 in i2s]) / max(i2_scale, 1e-30),
    )
    return Trajectory(
        t=[t + initial.t for t in ts],
        xi=zs,
        xidot=zds,
        integrals0=FirstIntegrals(i10, i20),
        max_drift=drift,
        termination=termination,
        integrals=(i1s, i2s),
        t_hit=None if t_hit is None else t_hit + initial.t,
        rejected_steps=rejected,
        chart=chart,
    )


#: the CSV header of a run in the xi chart; a run in the zeta chart names
#: its coordinate columns zeta_re, zeta_im, zetadot_re and zetadot_im
CSV_HEADER = "t,R,theta,xi_re,xi_im,xidot_re,xidot_im,I1,I2"


def write_csv(traj: Trajectory, stream):
    """Write the trajectory CSV to a file-like object.

    One header line, then one row per sample with the columns of
    ``CSV_HEADER``, every value to 17 significant digits (round-trips).
    R, theta and the coordinate columns are those of the trajectory's
    chart, which the header names; I1 and I2 are in the xi sense.
    Each row is formatted as the stream takes it, R and theta included,
    so the export never holds a copy of the table.
    """
    i1s, i2s = traj.integrals
    phase = cmath.phase
    write_table(CSV_HEADER.replace("xi", traj.chart), (
        (t, abs(xi), phase(xi), xi.real, xi.imag, xidot.real, xidot.imag, i1, i2)
        for t, xi, xidot, i1, i2 in zip(traj.t, traj.xi, traj.xidot, i1s, i2s)
    ), stream)
