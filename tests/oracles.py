"""Test-only oracles: the action of a motion of either kind on a point
and on a sphere, a pointwise route to a moved sphere, a least-squares
refit of its coefficients, the inverse and the composite rotation, a
bit-for-bit copy of the push-forward, the wedge and symmetrised
expressions of the two pairings and their 4x4 matrices, the numeric
pullback of the metric to the standard sphere, the check suite's
sampling loops one helper call per draw, the Christoffel symbol, the
right-hand side and the first integrals as written out in complex
arithmetic before the stepper's source became their one definition, the
polar coordinates of a state, the check suite's orbit pass with the
conformal factor written inline, the oriented line in R^3 that a chart
point names and the two forms as the lines see them, the JSON readers
of the section and certificate wire format (the CLI only writes it), and
the table of the paper's numbers that the README quotes."""

import random
from cmath import exp, phase, rect
from math import atan, cos, log, pi, sqrt

import mpmath
import numpy as np

from linegeo import (
    ChartExitError,
    ComplexPair,
    DomainError,
    NormalizationCertificate,
    QuadraticSection,
    Rotation,
    StandardSphere,
    TangentVector,
    Translation,
    apply_rotation,
    apply_translation,
    evaluate,
    induced_metric_factor,
)
from linegeo import analysis, checks, geodesics, line_space, sections
from linegeo.errors import finite_complex


def inverse_rotation(m: Rotation) -> Rotation:
    """The inverse rotation."""
    return Rotation(m.alpha2.conjugate(), -m.alpha3)


def compose_rotations(outer: Rotation, inner: Rotation) -> Rotation:
    """The rotation acting as ``inner`` followed by ``outer`` (unit-spinor
    product)."""
    p, q = outer.alpha2, outer.alpha3
    r, s = inner.alpha2, inner.alpha3
    return Rotation(p * r - q * s.conjugate(), p * s + q * r.conjugate())


def refit_quadratic(points) -> tuple[QuadraticSection, float]:
    """Fit eta = b1 + b2 xi + b3 xi^2 through sampled points of a sphere.

    ``points`` is an iterable of (xi, eta) pairs; five samples at
    xi in {0, 1, -1, i, -i} overdetermine the quadratic, and the returned
    residual is the largest fit deviation (a consistency check that the
    samples really lie on a quadratic).
    """
    pts = [(complex(x), complex(e)) for x, e in points]
    if len(pts) < 3:
        raise DomainError("need at least three samples to determine a quadratic")
    xs = np.array([x for x, _ in pts])
    es = np.array([e for _, e in pts])
    vand = np.column_stack([np.ones_like(xs), xs, xs * xs])
    coef, *_ = np.linalg.lstsq(vand, es, rcond=None)
    residual = float(np.max(np.abs(vand @ coef - es)))
    return QuadraticSection(coef[0], coef[1], coef[2]), residual


def apply_motion(m, p: ComplexPair) -> ComplexPair:
    """Apply a Translation or Rotation to a point."""
    if isinstance(m, Translation):
        return apply_translation(m, p)
    if isinstance(m, Rotation):
        return apply_rotation(m, p)
    raise DomainError(f"not a Euclidean motion: {m!r}")


def transform_section(s: QuadraticSection, motion) -> QuadraticSection:
    """Transform a sphere by a Translation or Rotation."""
    if isinstance(motion, Translation):
        return sections.translate_section(s, motion)
    if isinstance(motion, Rotation):
        return sections.rotate_section(s, motion)
    raise DomainError(f"not a Euclidean motion: {motion!r}")


REFIT_SAMPLE_DIRECTIONS = (0.0, 1.0, -1.0, 1.0j, -1.0j)


def transform_pointwise(s: QuadraticSection, motions, xi_samples=REFIT_SAMPLE_DIRECTIONS):
    """Image points of a sphere under a sequence of motions, evaluated
    pointwise (independent of the coefficient transformation rules).

    Sample directions that a rotation sends out of the chart are
    skipped; the default five directions leave at least three points,
    which still determine the quadratic.
    """
    out = []
    for xi in xi_samples:
        p = evaluate(s, xi)
        try:
            for m in motions:
                p = apply_motion(m, p)
        except ChartExitError:
            continue
        out.append((p.xi, p.eta))
    if len(out) < 3:
        raise DomainError("fewer than three sample directions stayed in the chart")
    return out


# -- push-forward and pairings, operation for operation -----------------------
#
# Each expression written out on its own, in the operation order of its
# formula (the rotation's denominator evaluated again for the Jacobian, the
# metric's symmetrised products through a helper).  line_space's push-forward
# shares intermediates and is held to push_forward_terms with ==; its two
# forms come from one Hermitian pairing and agree with the wedge and
# symmetrised expressions here to rounding.


def push_forward_terms(m, u) -> tuple[complex, complex, complex, complex]:
    """(xi', eta', dxi', deta') of the push-forward of ``u`` by ``m``."""
    p = u.base
    if isinstance(m, Translation):
        xi = p.xi
        eta = p.eta + m.alpha1 - m.a1 * xi - m.alpha1.conjugate() * xi * xi
        deta = u.deta + (-m.a1 - 2.0 * m.alpha1.conjugate() * p.xi) * u.dxi
        return xi, eta, u.dxi, deta
    d = -m.alpha3.conjugate() * p.xi + m.alpha2.conjugate()
    xi = (m.alpha2 * p.xi + m.alpha3) / d
    eta = p.eta / (d * d)
    d = -m.alpha3.conjugate() * p.xi + m.alpha2.conjugate()
    d2 = d * d
    dxi = u.dxi / d2
    deta = u.deta / d2 + 2.0 * m.alpha3.conjugate() * p.eta * u.dxi / (d2 * d)
    return xi, eta, dxi, deta


def symplectic_form_terms(u, v) -> float:
    xi, eta = u.base.xi, u.base.eta
    pp = 1.0 + (xi * xi.conjugate()).real
    du_xi, du_eta = u.dxi, u.deta
    dv_xi, dv_eta = v.dxi, v.deta
    wedge_eta_xibar = du_eta * dv_xi.conjugate() - dv_eta * du_xi.conjugate()
    wedge_etabar_xi = du_eta.conjugate() * dv_xi - dv_eta.conjugate() * du_xi
    wedge_xi_xibar = du_xi * dv_xi.conjugate() - dv_xi * du_xi.conjugate()
    twist = 2.0 * (xi * eta.conjugate() - xi.conjugate() * eta) / pp
    value = (2.0 / pp**2) * (wedge_eta_xibar + wedge_etabar_xi + twist * wedge_xi_xibar)
    return value.real


def metric_terms(u, v) -> float:
    xi, eta = u.base.xi, u.base.eta
    pp = 1.0 + (xi * xi.conjugate()).real
    du_xi, du_eta = u.dxi, u.deta
    dv_xi, dv_eta = v.dxi, v.deta

    def sym(a_u, b_v, a_v, b_u):
        return 0.5 * (a_u * b_v + a_v * b_u)

    s_eta_xibar = sym(du_eta, dv_xi.conjugate(), dv_eta, du_xi.conjugate())
    s_etabar_xi = sym(du_eta.conjugate(), dv_xi, dv_eta.conjugate(), du_xi)
    s_xi_xibar = sym(du_xi, dv_xi.conjugate(), dv_xi, du_xi.conjugate())
    twist = 2.0 * (xi * eta.conjugate() - xi.conjugate() * eta) / pp
    value = (2.0j / pp**2) * (s_eta_xibar - s_etabar_xi + twist * s_xi_xibar)
    return value.real


def coordinate_frame(p: ComplexPair):
    """Real coordinate frame (d/dx1, d/dy1, d/dx2, d/dy2) for
    xi = x1 + i y1, eta = x2 + i y2, in complex components."""
    return (
        TangentVector(p, 1.0, 0.0),
        TangentVector(p, 1.0j, 0.0),
        TangentVector(p, 0.0, 1.0),
        TangentVector(p, 0.0, 1.0j),
    )


def symplectic_matrix(p: ComplexPair) -> tuple[tuple[float, ...], ...]:
    """4x4 real antisymmetric matrix of the symplectic form at ``p`` in the
    coordinate frame (Re xi, Im xi, Re eta, Im eta), as rows."""
    frame = coordinate_frame(p)
    return tuple(tuple(line_space.symplectic_form(a, b) for b in frame) for a in frame)


def metric_matrix(p: ComplexPair) -> tuple[tuple[float, ...], ...]:
    """4x4 real symmetric matrix of the metric at ``p`` in the coordinate
    frame (Re xi, Im xi, Re eta, Im eta), as rows; its eigenvalue signs
    are (2,2)."""
    frame = coordinate_frame(p)
    return tuple(tuple(line_space.metric(a, b) for b in frame) for a in frame)


def pullback_consistency_check(s: StandardSphere, xi: complex) -> float:
    """|closed-form induced metric factor - numeric pullback| at xi.

    The numeric route embeds xi -> (xi, c i xi), pushes the frame vector
    d/dxi through the embedding and evaluates the ambient metric on it.
    Contract: below 1e-9 everywhere.
    """
    xi = finite_complex("xi", xi)
    base = ComplexPair(xi, 1j * s.c * xi)
    tangent = TangentVector(base, 1.0, 1j * s.c)  # d(eta) = c i d(xi) along the sphere
    numeric = line_space.metric(tangent, tangent)
    return abs(induced_metric_factor(s, xi) - numeric)


# -- the check suite's sampling loops, one helper call per draw ---------------
#
# The invariance and normalization checks as they were written before their
# loops were inlined: each draw through a helper, each worst value through
# max().  checks' loops must give equal results and leave the seeded stream
# in an equal state.


def normal_pair(rng):
    """A complex number with independent standard normal parts, by one
    Box-Muller draw: a Rayleigh modulus at a uniform angle."""
    draw = rng.random
    return rect(sqrt(-2.0 * log(1.0 - draw())), 2.0 * pi * draw())


def random_motion(rng):
    if rng.random() < 0.5:
        return Translation(normal_pair(rng), rng.gauss(0.0, 1.0))
    return Rotation(normal_pair(rng), normal_pair(rng))


def invariance_checks(samples, rng, threshold):
    metric, omega, push = line_space.metric, line_space.symplectic_form, line_space.push_forward
    worst_g = worst_w = 0.0
    for _ in range(samples):
        base = ComplexPair(normal_pair(rng), normal_pair(rng))
        u = TangentVector(base, normal_pair(rng), normal_pair(rng))
        v = TangentVector(base, normal_pair(rng), normal_pair(rng))
        m = random_motion(rng)
        pu, pv = push(m, u), push(m, v)
        scale = checks._pairing_scale(u, v)
        before = metric(u, v)
        worst_g = max(worst_g, abs(metric(pu, pv) - before) / max(abs(before), scale))
        before = omega(u, v)
        worst_w = max(worst_w, abs(omega(pu, pv) - before) / max(abs(before), scale))
    return [checks.CheckResult(name, worst < threshold, threshold, worst, f"{samples} samples")
            for name, worst in (("isometry_metric", worst_g), ("symplectomorphism", worst_w))]


def normalization_check(samples, rng, threshold_resid, threshold_inv):
    worst_resid = 0.0
    worst_inv = 0.0
    for _ in range(samples):
        z = [rng.uniform(-10.0, 10.0) for _ in range(6)]
        sec = QuadraticSection(complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5]))
        cert = sections.normalize(sec)
        moved = transform_section(transform_section(sec, cert.translation), cert.rotation)
        worst_resid = max(
            worst_resid,
            abs(moved.beta1),
            abs(moved.beta3),
            abs(moved.beta2.real),
            abs(moved.beta2.imag - cert.result.c),
        )
        invariant = sqrt(sec.beta2.imag ** 2 + abs(sec.beta1 + sec.beta3.conjugate()) ** 2)
        worst_inv = max(worst_inv, abs(cert.result.c - invariant))
    passed = worst_resid < threshold_resid and worst_inv < threshold_inv
    return checks.CheckResult(
        "normalization_residual",
        passed,
        threshold_resid,
        max(worst_resid, worst_inv),
        f"{samples} sections; invariant worst {worst_inv:.3e} (limit {threshold_inv:g})",
    )


def sampling_loops(seed, samples, invariance, normalization):
    """The invariance checks of ``samples`` draws and then the
    normalization check of ``samples // 5`` sections (the suite's count
    at ``checks.SAMPLES``), at least 10, with the suite's thresholds, from
    ``random.Random(seed)``: their results and the stream's state after
    them."""
    rng = random.Random(seed)
    results = [
        *invariance(samples, rng, 1e-10),
        normalization(max(samples // 5, 10), rng, 1e-9, 1e-10),
    ]
    return results, rng.getstate()


# -- the flow's formulas in complex arithmetic --------------------------------
#
# As each was written before _rhs and _integrals became the package's one
# source of Gamma, f and (I1, I2).  The tests' reference right-hand side,
# which the stepper matches bit for bit, is -Gamma here at unit velocity;
# the first integrals and the energy-identity check agree bit for bit.


def christoffel(xi: complex) -> complex:
    """The single nonzero Christoffel symbol of the induced metric,
    Gamma(xi) = -conj(xi) (1/(1-|xi|^2) + 3/(1+|xi|^2)): the xi-derivative,
    with xibar held fixed, of ln[(1-|xi|^2)/(1+|xi|^2)^3].  Exactly on the
    equator it divides by zero."""
    xi = finite_complex("xi", xi)
    xb = xi.conjugate()
    m = (xi * xb).real
    return -xb * (1.0 / (1.0 - m) + 3.0 / (1.0 + m))


def rhs(state: geodesics.GeodesicState) -> tuple[complex, complex]:
    """Time derivative (xidot, xiddot) of the state."""
    return state.xidot, -christoffel(state.xi) * state.xidot * state.xidot


def polar(state: geodesics.GeodesicState) -> tuple[float, float, float, float]:
    """(R, theta, Rdot, thetadot) of a state with xi != 0, which
    ``geodesics.state_from_polar`` maps back to the state."""
    big_r = abs(state.xi)
    theta = phase(state.xi)
    w = state.xidot * exp(-1j * theta)
    return big_r, theta, w.real, w.imag / big_r


def first_integrals_arrays(xis, xidots):
    """(I1, I2) = (f |xidot|^2, f Im(conj(xi) xidot)) along samples, for
    f = (1-|xi|^2)/(1+|xi|^2)^3."""
    i1s, i2s = [], []
    for xi, xidot in zip(xis, xidots):
        xb = xi.conjugate()
        m = (xi * xb).real
        f = (1.0 - m) / (1.0 + m) ** 3
        i1s.append(f * (xidot * xidot.conjugate()).real)
        i2s.append(f * (xb * xidot).imag)
    return i1s, i2s


def orbit_checks(trajectories, tol, t_span, rng, threshold):
    """The orbit pass (drift and energy identity) with the conformal
    factor written inline."""
    worst_drift = worst_energy = 0.0
    kept = 0
    for _ in range(trajectories):
        traj = geodesics.integrate(checks.sample_orbit_state(rng), t_span, tol)
        worst_drift = max(worst_drift, *traj.max_drift)
        for xi, xidot, i1, i2 in zip(traj.xi, traj.xidot, *traj.integrals):
            big_r = abs(xi)
            if not 1e-3 <= big_r <= 1.0 - 1e-3:
                continue
            u = analysis.effective_potential(big_r)
            r2 = big_r * big_r
            f = (1.0 - r2) / (1.0 + r2) ** 3
            rdot = (xi.conjugate() * xidot).real / big_r
            worst_energy = max(worst_energy, abs(i1 - u * i2**2 - f * rdot**2))
            kept += 1
    return [
        checks.CheckResult("conservation_drift", worst_drift < threshold, threshold, worst_drift,
                           f"{trajectories} trajectories, tol={tol:g}, span={t_span:g}"),
        checks.CheckResult("energy_identity", worst_energy < threshold, threshold, worst_energy,
                           f"{kept} samples"),
    ]


# -- the oriented line in R^3 -------------------------------------------------
#
# Guilfoyle-Klingenberg's map from chart coordinates to the line itself
# (J. London Math. Soc. 72 (2005) 497-509), in Plucker coordinates (D, M):
# the unit direction D and the moment M = P x D of a point P on the line
# (Pottmann-Wallner, Computational Line Geometry, Ch. 2).  A motion of R^3
# acts on them as a rigid motion: a shift by v keeps D and adds v x D to
# M, and a rotation turns both.


def line_point(p: ComplexPair) -> tuple[np.ndarray, np.ndarray]:
    """The unit direction D = (2 xi, 1-|xi|^2)/(1+|xi|^2) of the line
    (xi, eta) and its point P: z = x1 + i x2 = 2(eta - conj(eta) xi^2)/(1+|xi|^2)^2
    and x3 = -4 Re(eta conj(xi))/(1+|xi|^2)^2, the foot of the
    perpendicular from the origin."""
    xi, eta = p.xi, p.eta
    r2 = (xi * xi.conjugate()).real
    pp = 1.0 + r2
    z = 2.0 * (eta - eta.conjugate() * xi * xi) / pp**2
    direction = np.array([2.0 * xi.real, 2.0 * xi.imag, 1.0 - r2]) / pp
    return direction, np.array([z.real, z.imag, -4.0 * (eta * xi.conjugate()).real / pp**2])


def line(p: ComplexPair) -> tuple[np.ndarray, np.ndarray]:
    """The Plucker coordinates (D, M = P x D) of the line (xi, eta)."""
    direction, point = line_point(p)
    return direction, np.cross(point, direction)


def line_velocity(u: TangentVector, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D', M', P') of the lines along the chart curve base + s (dxi, deta)
    at s = 0, each by the five-point central difference of step h."""
    def at(s):
        p = ComplexPair(u.base.xi + s * u.dxi, u.base.eta + s * u.deta)
        return np.concatenate([*line(p), line_point(p)[1]])

    w = (at(-2.0 * h) - 8.0 * at(-h) + 8.0 * at(h) - at(2.0 * h)) / (12.0 * h)
    return w[:3], w[3:6], w[6:]


def plucker_forms(u: TangentVector, v: TangentVector, h: float = 1e-3) -> tuple[float, float]:
    """The two forms as the lines in R^3 see them: the polarised Klein
    quadric -1/2 (D'_u . M'_v + D'_v . M'_u), which ``metric`` is, and the
    canonical form P'_u . D'_v - P'_v . D'_u of T*S^2, with P the foot of
    the perpendicular, which ``symplectic_form`` is."""
    d_u, m_u, p_u = line_velocity(u, h)
    d_v, m_v, p_v = line_velocity(v, h)
    return -0.5 * (d_u @ m_v + d_v @ m_u), p_u @ d_v - p_v @ d_u


# -- JSON wire format -------------------------------------------------------


def _c2j(z: complex):
    return [z.real, z.imag]


def _j2c(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise DomainError(f"expected [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def section_to_dict(s: QuadraticSection) -> dict:
    return {"beta1": _c2j(s.beta1), "beta2": _c2j(s.beta2), "beta3": _c2j(s.beta3)}


def section_from_dict(d: dict) -> QuadraticSection:
    try:
        return QuadraticSection(_j2c(d["beta1"]), _j2c(d["beta2"]), _j2c(d["beta3"]))
    except KeyError as missing:
        raise DomainError(f"section object lacks field {missing}") from None


def certificate_from_dict(d: dict) -> NormalizationCertificate:
    try:
        return NormalizationCertificate(
            translation=Translation(_j2c(d["translation"]["alpha1"]), float(d["translation"]["a1"])),
            rotation=Rotation(_j2c(d["rotation"]["alpha2"]), _j2c(d["rotation"]["alpha3"])),
            result=StandardSphere(float(d["result"]["c"])),
            intermediate_gamma=_j2c(d["intermediate_gamma"]),
            intermediate_c=float(d["intermediate_c"]),
        )
    except KeyError as missing:
        raise DomainError(f"certificate object lacks field {missing}") from None


# -- the paper's numbers -----------------------------------------------------


#: each headline number of the paper: its name, which is the library call
#: as the README's "The paper's numbers" table names it, the call, the
#: exact value as an mpmath expression (evaluated at 30 digits) and the
#: bound on the call's error in ulps of the value
PAPER_NUMBERS = (
    ("blowup_time(1.0)", lambda: analysis.blowup_time(1.0),
     lambda: mpmath.ellipe(-1) - mpmath.ellipk(-1), 1),
    ("radial_quadrature(1.0)", lambda: analysis.radial_quadrature(1.0),
     lambda: mpmath.ellipe(-1) - mpmath.ellipk(-1), 1),
    ("MIN_ORBIT_RATIO", lambda: analysis.MIN_ORBIT_RATIO, lambda: 6 * mpmath.sqrt(3), 1),
    ("effective_potential(CRITICAL_RADIUS)",
     lambda: analysis.effective_potential(analysis.CRITICAL_RADIUS),
     lambda: 6 * mpmath.sqrt(3), 2),
    ("CRITICAL_RADIUS", lambda: analysis.CRITICAL_RADIUS,
     lambda: mpmath.sqrt(2 - mpmath.sqrt(3)), 1),
    ("cos(2 atan CRITICAL_RADIUS)", lambda: cos(2.0 * atan(analysis.CRITICAL_RADIUS)),
     lambda: 1 / mpmath.sqrt(3), 2),
    ("normalize(1, 2i, 3).c",
     lambda: sections.normalize(QuadraticSection(1.0, 2.0j, 3.0)).result.c,
     lambda: mpmath.sqrt(20), 1),
)
