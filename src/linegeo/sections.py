"""Global holomorphic spheres of oriented lines.

A global holomorphic section of the line space assigns to every
direction xi the line (xi, eta(xi)) with eta quadratic:
eta = beta1 + beta2 xi + beta3 xi^2.  Every such sphere can be moved by
a Euclidean translation and rotation into the one-parameter standard
form eta = c i xi with c >= 0; ``normalize`` produces the motions and
the invariant c.  For c > 0 the sphere is twisting: the pulled-back
symplectic form vanishes only on the equator |xi| = 1, where the induced
metric degenerates as well.
"""

import math
from cmath import isfinite

from .errors import DomainError, Record, finite_complex
from .line_space import ComplexPair, Rotation, Translation


class QuadraticSection(Record):
    """Coefficients of the sphere eta(xi) = beta1 + beta2 xi + beta3 xi^2."""

    __slots__ = ("beta1", "beta2", "beta3")

    def __init__(self, beta1: complex, beta2: complex, beta3: complex):
        beta1, beta2, beta3 = complex(beta1), complex(beta2), complex(beta3)
        if not (isfinite(beta1) and isfinite(beta2) and isfinite(beta3)):
            for name, value in zip(self.__slots__, (beta1, beta2, beta3)):
                finite_complex(name, value)
        set_beta1, set_beta2, set_beta3 = self._setters
        set_beta1(self, beta1)
        set_beta2(self, beta2)
        set_beta3(self, beta3)


class StandardSphere(Record):
    """The normal form eta = c i xi; c = 0 is the non-twisting case (the
    oriented lines through the origin)."""

    __slots__ = ("c",)

    def __init__(self, c: float):
        c = float(c)
        if not math.isfinite(c) or c < 0.0:
            raise DomainError(f"standard-form coefficient must be finite and >= 0, got {c!r}")
        self._init_fields(c)


class NormalizationCertificate(Record):
    """The motions that carry a quadratic sphere to standard form.

    Applying ``translation`` then ``rotation`` to the input section gives
    eta' = result.c * i * xi'.  ``intermediate_gamma`` and
    ``intermediate_c`` are the constant coefficient and the imaginary
    linear part after the translation alone.
    """

    __slots__ = ("translation", "rotation", "result", "intermediate_gamma", "intermediate_c")

    def __init__(self, translation, rotation, result, intermediate_gamma, intermediate_c):
        self._init_fields(translation, rotation, result, intermediate_gamma, intermediate_c)


def evaluate(s: QuadraticSection, xi: complex) -> ComplexPair:
    """The point of the sphere over the direction xi."""
    xi = finite_complex("xi", xi)
    return ComplexPair(xi, s.beta1 + s.beta2 * xi + s.beta3 * xi * xi)


def translate_section(s: QuadraticSection, m: Translation) -> QuadraticSection:
    """Coefficients of the translated sphere (xi is unchanged, so the
    polynomial just shifts)."""
    return QuadraticSection(
        s.beta1 + m.alpha1,
        s.beta2 - m.a1,
        s.beta3 - m.alpha1.conjugate(),
    )


def rotate_section(s: QuadraticSection, m: Rotation) -> QuadraticSection:
    """Coefficients of the rotated sphere.

    Substituting the inverse Mobius map into eta and multiplying by the
    squared cocycle leaves a quadratic; the coefficients transform
    linearly:

        beta1' = beta1 a2^2        - beta2 a2 a3          + beta3 a3^2
        beta2' = 2 beta1 cj(a3) a2 + beta2 (|a2|^2-|a3|^2) - 2 beta3 cj(a2) a3
        beta3' = beta1 cj(a3)^2    + beta2 cj(a2) cj(a3)   + beta3 cj(a2)^2
    """
    a2, a3 = m.alpha2, m.alpha3
    b1, b2, b3 = s.beta1, s.beta2, s.beta3
    a2c, a3c = a2.conjugate(), a3.conjugate()
    return QuadraticSection(
        b1 * a2 * a2 - b2 * a2 * a3 + b3 * a3 * a3,
        2.0 * b1 * a3c * a2 + b2 * ((a2 * a2c).real - (a3 * a3c).real) - 2.0 * b3 * a2c * a3,
        b1 * a3c * a3c + b2 * a2c * a3c + b3 * a2c * a2c,
    )


_IDENTITY = Rotation(1.0, 0.0)
_HALF_TURN = Rotation(0.0, 1.0)  # maps eta = c i xi to eta = -c i xi


def normalize(s: QuadraticSection) -> NormalizationCertificate:
    """Carry a quadratic sphere to the standard form eta = c i xi, c >= 0.

    The translation with alpha1 = (conj(beta3) - beta1)/2 and
    a1 = Re(beta2) reduces the section to
    eta = gamma + c_mid i xi + conj(gamma) xi^2 with gamma =
    (beta1 + conj(beta3))/2 and c_mid = Im(beta2).  The rotation with
    spinor (1, -xi0), xi0 = (c_mid - c)/(2 i conj(gamma)), then leaves
    eta = c i xi with c = sqrt(c_mid^2 + 4 |gamma|^2).  Rescaled, that
    spinor is (c_mid + c, -2 i gamma), or (2 |gamma|,
    -i (gamma/|gamma|)(c - c_mid)) when c_mid < 0, so that no sum
    cancels; if gamma vanishes the rotation is the identity, or a
    half-turn about a horizontal axis when c_mid < 0.

    The rotation does not depend on the scale of the section, so c and
    the spinor are formed from 2 gamma and c_mid scaled by the power of
    two that brings the larger to unit size, and only c is scaled back:
    no square overflows or underflows, whatever the magnitudes.
    DomainError if c exceeds the largest double.
    """
    b1, b2, b3 = s.beta1, s.beta2, s.beta3
    c_mid = b2.imag
    two_gamma = b1 + b3.conjugate()  # overflows only where c does
    e = math.frexp(max(abs(c_mid), abs(two_gamma.real), abs(two_gamma.imag)))[1]
    m = math.ldexp(c_mid, -e)
    g = complex(math.ldexp(two_gamma.real, -e), math.ldexp(two_gamma.imag, -e))
    c = math.sqrt(m * m + (g.real * g.real + g.imag * g.imag))
    try:  # ldexp overflows, or StandardSphere refuses c = inf from an infinite 2 gamma
        result = StandardSphere(math.ldexp(c, e))
    except (OverflowError, DomainError):
        raise DomainError("the standard form does not fit in doubles: c overflows") from None

    if g == 0.0:
        rotation = _IDENTITY if m >= 0.0 else _HALF_TURN
    elif m >= 0.0:
        rotation = Rotation(m + c, -1j * g)
    else:
        rotation = Rotation(abs(g), -1j * (g / abs(g)) * (c - m))
    return NormalizationCertificate(
        # halved before the subtraction, which can overflow; 1.0 * gives the
        # zero signs of 0.5 * (conj(beta3) - beta1)
        translation=Translation(
            1.0 * complex(0.5 * b3.real - 0.5 * b1.real, -0.5 * b3.imag - 0.5 * b1.imag), b2.real),
        rotation=rotation,
        result=result,
        intermediate_gamma=0.5 * two_gamma,
        intermediate_c=c_mid,
    )


def lagrangian_defect(s: StandardSphere, xi: complex) -> float:
    """Scalar multiplying i dxi ^ dxibar in the symplectic form pulled
    back to the sphere: 4c(1-|xi|^2)/(1+|xi|^2)^3.  Zero exactly at the
    points where the sphere is Lagrangian."""
    from . import geodesics  # here, so that normalize loads no stepper

    xi = finite_complex("xi", xi)
    return 4.0 * s.c * geodesics._conformal((xi * xi.conjugate()).real)


def induced_metric_factor(s: StandardSphere, xi: complex) -> float:
    """Conformal factor g of the induced metric ds^2 = g dxi dxibar:
    -4c(1-|xi|^2)/(1+|xi|^2)^3.  Negative inside the equator, zero on it,
    positive outside: the Lagrangian defect with the opposite sign."""
    return -lagrangian_defect(s, xi)

