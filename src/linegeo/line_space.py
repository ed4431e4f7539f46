"""The space of oriented lines in R^3 as a complex surface.

An oriented line is a point (xi, eta): xi is the direction of the line
under stereographic projection from the south pole, eta the fibre
coordinate of the tangent bundle of the unit sphere.  This module
provides the chart data types, the action of Euclidean translations and
rotations in these coordinates, exact push-forwards of tangent vectors,
and pointwise evaluation of the canonical symplectic form and the
neutral (signature (2,2)) Kahler metric, as the two real parts of one
Hermitian pairing h: omega = 4 Re h and g = -2 Im h.

All functions are pure and all types immutable ``errors.Record``s;
concurrent use needs no locking.
"""

from cmath import inf, isfinite

from .errors import ChartExitError, DomainError, Record, finite_complex

#: |xi| beyond this is treated as having left the chart
CHART_BOUND = 1e8


class ComplexPair(Record):
    """An oriented line in chart coordinates (xi, eta)."""

    __slots__ = ("xi", "eta")

    def __init__(self, xi: complex, eta: complex):
        xi, eta = complex(xi), complex(eta)
        if not (isfinite(xi) and isfinite(eta)):
            finite_complex("xi", xi)
            finite_complex("eta", eta)
        set_xi, set_eta = self._setters
        set_xi(self, xi)
        set_eta(self, eta)


class Translation(Record):
    """Euclidean translation by v = (2 Re alpha1, 2 Im alpha1, a1), split
    into a horizontal complex part and a vertical real part."""

    __slots__ = ("alpha1", "a1")

    def __init__(self, alpha1: complex, a1: float):
        a1, alpha1 = complex(a1), complex(alpha1)
        if not (isfinite(a1) and a1.imag == 0.0 and isfinite(alpha1)):
            finite_complex("a1", a1)
            if a1.imag != 0.0:
                raise DomainError("translation component a1 must be real")
            finite_complex("alpha1", alpha1)
        set_alpha1, set_a1 = self._setters
        set_alpha1(self, alpha1)
        set_a1(self, a1.real)


class Rotation(Record):
    """Euclidean rotation, parameterised by a unit spinor (alpha2, alpha3).

    The pair is normalised to |alpha2|^2 + |alpha3|^2 = 1 at construction,
    after division by its largest component if that sum overflows or is
    below 1e-12; only the zero spinor is refused.
    """

    __slots__ = ("alpha2", "alpha3")

    def __init__(self, alpha2: complex, alpha3: complex):
        a2, a3 = complex(alpha2), complex(alpha3)
        if not (isfinite(a2) and isfinite(a3)):
            finite_complex("alpha2", a2)
            finite_complex("alpha3", a3)
        try:
            n = abs(a2) ** 2 + abs(a3) ** 2
        except OverflowError:
            n = inf
        if n == inf or n < 1e-12:
            big = max(abs(a2.real), abs(a2.imag), abs(a3.real), abs(a3.imag))
            if big == 0.0:
                raise DomainError("rotation spinor is zero")
            a2, a3 = a2 / big, a3 / big
            n = abs(a2) ** 2 + abs(a3) ** 2
        scale = n ** -0.5
        set_alpha2, set_alpha3 = self._setters
        set_alpha2(self, a2 * scale)
        set_alpha3(self, a3 * scale)


class TangentVector(Record):
    """A real tangent vector at ``base``, stored through its complex
    components (dxi, deta); the conjugate components are implied."""

    __slots__ = ("base", "dxi", "deta")

    def __init__(self, base: ComplexPair, dxi: complex, deta: complex):
        dxi, deta = complex(dxi), complex(deta)
        if not (isfinite(dxi) and isfinite(deta)):
            finite_complex("dxi", dxi)
            finite_complex("deta", deta)
        set_base, set_dxi, set_deta = self._setters
        set_base(self, base)
        set_dxi(self, dxi)
        set_deta(self, deta)


def apply_translation(m: Translation, p: ComplexPair) -> ComplexPair:
    """Translate an oriented line: xi is fixed, eta gains a quadratic
    polynomial in xi."""
    xi = p.xi
    return ComplexPair(xi, p.eta + m.alpha1 - m.a1 * xi - m.alpha1.conjugate() * xi * xi)


def _rotate(m: Rotation, p: ComplexPair):
    # the rotated point and its Mobius denominator d, which push_forward reuses
    # xi' = n / d; for a unit spinor |n|^2 + |d|^2 = 1 + |xi|^2, so one test,
    # without a division, also refuses the south pole d = 0
    n = m.alpha2 * p.xi + m.alpha3
    d = -m.alpha3.conjugate() * p.xi + m.alpha2.conjugate()
    if abs(n) > CHART_BOUND * abs(d):
        raise ChartExitError(
            f"rotation sends direction {p.xi!r} out of the chart |xi'| <= {CHART_BOUND:g}"
        )
    return ComplexPair(n / d, p.eta / (d * d)), d


def apply_rotation(m: Rotation, p: ComplexPair) -> ComplexPair:
    """Rotate an oriented line.

    The direction transforms by the Mobius map
    xi' = (alpha2 xi + alpha3) / (-conj(alpha3) xi + conj(alpha2)) and
    eta picks up the square of the denominator.

    Raises
    ------
    ChartExitError
        If |xi'| exceeds the chart bound ``CHART_BOUND``, the south pole
        included.
    """
    return _rotate(m, p)[0]


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
        new_base, d = _rotate(m, p)
        d2 = d * d
        dxi = u.dxi / d2
        deta = u.deta / d2 + 2.0 * m.alpha3.conjugate() * p.eta * u.dxi / (d2 * d)
        return TangentVector(new_base, dxi, deta)
    raise DomainError(f"not a Euclidean motion: {m!r}")


def _pairing(u: TangentVector, v: TangentVector) -> complex:
    # the Hermitian pairing h whose real and imaginary parts are the
    # symplectic form and the metric:
    # h = [deta_u conj(dxi_v) - conj(deta_v) dxi_u
    #      + i 4 Im(xi conj(eta))/(1+|xi|^2) dxi_u conj(dxi_v)] / (1+|xi|^2)^2
    base, v_base = u.base, v.base
    if base is not v_base and (base.xi != v_base.xi or base.eta != v_base.eta):
        raise DomainError(f"tangent vectors live at different points: {base!r} vs {v_base!r}")
    xi, eta = base.xi, base.eta
    pp = 1.0 + (xi * xi.conjugate()).real
    twist = 4.0 * (xi * eta.conjugate()).imag / pp
    dxi_vb = v.dxi.conjugate()
    value = u.deta * dxi_vb - v.deta.conjugate() * u.dxi + 1j * twist * (u.dxi * dxi_vb)
    return value / (pp * pp)


def symplectic_form(u: TangentVector, v: TangentVector) -> float:
    """Evaluate the canonical symplectic form on two tangent vectors.

    In chart coordinates the form is
    2/(1+|xi|^2)^2 [ deta ^ dxibar + detabar ^ dxi
                     + 2(xi etabar - xibar eta)/(1+|xi|^2) dxi ^ dxibar ],
    the real part 4 Re h of the Hermitian pairing h that also gives the
    metric.

    Parameters
    ----------
    u, v : TangentVector
        Vectors at the same base point.

    Returns
    -------
    float
        Antisymmetric, real-valued pairing.
    """
    return 4.0 * _pairing(u, v).real


def metric(u: TangentVector, v: TangentVector) -> float:
    """Evaluate the neutral Kahler metric on two tangent vectors.

    In chart coordinates the metric is the symmetrised tensor
    2i/(1+|xi|^2)^2 [ deta . dxibar - detabar . dxi
                      + 2(xi etabar - xibar eta)/(1+|xi|^2) dxi . dxibar ],
    a real symmetric form of signature (2,2) on the 4-real-dimensional
    tangent space.  It is the part -2 Im h of the Hermitian pairing h
    whose part 4 Re h is the symplectic form, so that
    g(u, v) = -1/2 omega(u, J v) with J the complex structure.

    Parameters
    ----------
    u, v : TangentVector
        Vectors at the same base point.

    Returns
    -------
    float
        Symmetric, real-valued pairing.
    """
    return -2.0 * _pairing(u, v).imag

