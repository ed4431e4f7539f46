"""The space of oriented lines in R^3 as a complex surface.

An oriented line is a point (xi, eta): xi is the direction of the line
under stereographic projection from the south pole, eta the fibre
coordinate of the tangent bundle of the unit sphere.  This module
provides the chart data types, the action of Euclidean translations and
rotations in these coordinates, exact push-forwards of tangent vectors,
and pointwise evaluation of the canonical symplectic form and the
neutral (signature (2,2)) Kahler metric.

All functions are pure and all types immutable ``errors.Record``s;
concurrent use needs no locking.
"""

from .errors import ChartExitError, DomainError, Record, finite_complex

#: |xi| beyond this is treated as having left the chart
CHART_BOUND = 1e8

#: rotation denominators smaller than this map to the south pole
SOUTH_POLE_TOL = 1e-14

#: imaginary residue allowed when a real-valued tensor is evaluated
#: through complex arithmetic
_IMAG_TOL = 1e-12


class ComplexPair(Record):
    """An oriented line in chart coordinates (xi, eta)."""

    __slots__ = ("xi", "eta")

    def __init__(self, xi: complex, eta: complex):
        object.__setattr__(self, "xi", finite_complex("xi", xi))
        object.__setattr__(self, "eta", finite_complex("eta", eta))


class Translation(Record):
    """Euclidean translation, split into a horizontal complex part and a
    vertical real part."""

    __slots__ = ("alpha1", "a1")

    def __init__(self, alpha1: complex, a1: float):
        a1 = finite_complex("a1", a1)
        if a1.imag != 0.0:
            raise DomainError("translation component a1 must be real")
        object.__setattr__(self, "alpha1", finite_complex("alpha1", alpha1))
        object.__setattr__(self, "a1", a1.real)


class Rotation(Record):
    """Euclidean rotation, parameterised by a unit spinor (alpha2, alpha3).

    The pair is normalised to |alpha2|^2 + |alpha3|^2 = 1 at construction.
    """

    __slots__ = ("alpha2", "alpha3")

    def __init__(self, alpha2: complex, alpha3: complex):
        a2 = finite_complex("alpha2", alpha2)
        a3 = finite_complex("alpha3", alpha3)
        n = abs(a2) ** 2 + abs(a3) ** 2
        if n < 1e-12:
            raise DomainError("rotation spinor is numerically zero")
        scale = n ** -0.5
        object.__setattr__(self, "alpha2", a2 * scale)
        object.__setattr__(self, "alpha3", a3 * scale)


class TangentVector(Record):
    """A real tangent vector at ``base``, stored through its complex
    components (dxi, deta); the conjugate components are implied."""

    __slots__ = ("base", "dxi", "deta")

    def __init__(self, base: ComplexPair, dxi: complex, deta: complex):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dxi", finite_complex("dxi", dxi))
        object.__setattr__(self, "deta", finite_complex("deta", deta))


def apply_translation(m: Translation, p: ComplexPair) -> ComplexPair:
    """Translate an oriented line: xi is fixed, eta gains a quadratic
    polynomial in xi."""
    xi = p.xi
    return ComplexPair(xi, p.eta + m.alpha1 - m.a1 * xi - m.alpha1.conjugate() * xi * xi)


def apply_rotation(m: Rotation, p: ComplexPair) -> ComplexPair:
    """Rotate an oriented line.

    The direction transforms by the Mobius map
    xi' = (alpha2 xi + alpha3) / (-conj(alpha3) xi + conj(alpha2)) and
    eta picks up the square of the denominator.

    Raises
    ------
    ChartExitError
        If the image direction is (numerically) the south pole, or |xi'|
        exceeds the chart bound.
    """
    d = -m.alpha3.conjugate() * p.xi + m.alpha2.conjugate()
    if abs(d) < SOUTH_POLE_TOL:
        raise ChartExitError(
            f"rotation sends direction {p.xi!r} to the south pole (denominator {d!r})"
        )
    xi = (m.alpha2 * p.xi + m.alpha3) / d
    if abs(xi) > CHART_BOUND:
        raise ChartExitError(f"rotated direction |xi'| = {abs(xi):.3e} leaves the chart")
    return ComplexPair(xi, p.eta / (d * d))


def apply_motion(m, p: ComplexPair) -> ComplexPair:
    """Apply a Translation or Rotation to a point."""
    if isinstance(m, Translation):
        return apply_translation(m, p)
    if isinstance(m, Rotation):
        return apply_rotation(m, p)
    raise DomainError(f"not a Euclidean motion: {m!r}")


def push_forward(m, u: TangentVector) -> TangentVector:
    """Push a tangent vector forward through a motion, using the exact
    holomorphic Jacobian of the action (both actions are holomorphic in
    (xi, eta), so d(xi'), d(eta') are complex-linear in (dxi, deta))."""
    p = u.base
    if isinstance(m, Translation):
        new_base = apply_translation(m, p)
        deta = u.deta + (-m.a1 - 2.0 * m.alpha1.conjugate() * p.xi) * u.dxi
        return TangentVector(new_base, u.dxi, deta)
    if isinstance(m, Rotation):
        new_base = apply_rotation(m, p)  # validates the denominator
        d = -m.alpha3.conjugate() * p.xi + m.alpha2.conjugate()
        d2 = d * d
        dxi = u.dxi / d2
        deta = u.deta / d2 + 2.0 * m.alpha3.conjugate() * p.eta * u.dxi / (d2 * d)
        return TangentVector(new_base, dxi, deta)
    raise DomainError(f"not a Euclidean motion: {m!r}")


def compose_rotations(outer: Rotation, inner: Rotation) -> Rotation:
    """The rotation acting as ``inner`` followed by ``outer`` (unit-spinor
    product)."""
    p, q = outer.alpha2, outer.alpha3
    r, s = inner.alpha2, inner.alpha3
    return Rotation(p * r - q * s.conjugate(), p * s + q * r.conjugate())


def _check_same_base(u: TangentVector, v: TangentVector):
    if u.base.xi != v.base.xi or u.base.eta != v.base.eta:
        raise DomainError(
            f"tangent vectors live at different points: {u.base!r} vs {v.base!r}"
        )


def _real_part(value: complex, what: str) -> float:
    # the coordinate expressions are real only after cancellation;
    # enforce that the cancellation actually happened
    if abs(value.imag) > _IMAG_TOL * max(1.0, abs(value.real)):
        raise ArithmeticError(f"{what} evaluated to non-real value {value!r}")
    return value.real


def symplectic_form(u: TangentVector, v: TangentVector) -> float:
    """Evaluate the canonical symplectic form on two tangent vectors.

    In chart coordinates the form is
    2/(1+|xi|^2)^2 [ deta ^ dxibar + detabar ^ dxi
                     + 2(xi etabar - xibar eta)/(1+|xi|^2) dxi ^ dxibar ].

    Parameters
    ----------
    u, v : TangentVector
        Vectors at the same base point.

    Returns
    -------
    float
        Antisymmetric, real-valued pairing.
    """
    _check_same_base(u, v)
    xi, eta = u.base.xi, u.base.eta
    pp = 1.0 + (xi * xi.conjugate()).real
    du_xi, du_eta = u.dxi, u.deta
    dv_xi, dv_eta = v.dxi, v.deta
    wedge_eta_xibar = du_eta * dv_xi.conjugate() - dv_eta * du_xi.conjugate()
    wedge_etabar_xi = du_eta.conjugate() * dv_xi - dv_eta.conjugate() * du_xi
    wedge_xi_xibar = du_xi * dv_xi.conjugate() - dv_xi * du_xi.conjugate()
    twist = 2.0 * (xi * eta.conjugate() - xi.conjugate() * eta) / pp
    value = (2.0 / pp**2) * (wedge_eta_xibar + wedge_etabar_xi + twist * wedge_xi_xibar)
    return _real_part(value, "symplectic form")


def metric(u: TangentVector, v: TangentVector) -> float:
    """Evaluate the neutral Kahler metric on two tangent vectors.

    In chart coordinates the metric is the symmetrised tensor
    2i/(1+|xi|^2)^2 [ deta . dxibar - detabar . dxi
                      + 2(xi etabar - xibar eta)/(1+|xi|^2) dxi . dxibar ],
    a real symmetric form of signature (2,2) on the 4-real-dimensional
    tangent space.

    Parameters
    ----------
    u, v : TangentVector
        Vectors at the same base point.

    Returns
    -------
    float
        Symmetric, real-valued pairing.
    """
    _check_same_base(u, v)
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
    return _real_part(value, "metric")


def _coordinate_frame(p: ComplexPair):
    # real coordinate frame (d/dx1, d/dy1, d/dx2, d/dy2) for
    # xi = x1 + i y1, eta = x2 + i y2, in complex components
    return (
        TangentVector(p, 1.0, 0.0),
        TangentVector(p, 1.0j, 0.0),
        TangentVector(p, 0.0, 1.0),
        TangentVector(p, 0.0, 1.0j),
    )


def symplectic_matrix(p: ComplexPair) -> tuple[tuple[float, ...], ...]:
    """4x4 real antisymmetric matrix of the symplectic form at ``p`` in the
    coordinate frame (Re xi, Im xi, Re eta, Im eta), as rows."""
    frame = _coordinate_frame(p)
    return tuple(tuple(symplectic_form(a, b) for b in frame) for a in frame)


def metric_matrix(p: ComplexPair) -> tuple[tuple[float, ...], ...]:
    """4x4 real symmetric matrix of the metric at ``p`` in the coordinate
    frame (Re xi, Im xi, Re eta, Im eta), as rows; its eigenvalue signs
    are (2,2)."""
    frame = _coordinate_frame(p)
    return tuple(tuple(metric(a, b) for b in frame) for a in frame)
