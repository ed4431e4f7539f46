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

from .errors import DomainError, Record, finite_complex
from .line_space import (
    ComplexPair,
    Rotation,
    TangentVector,
    Translation,
    compose_rotations,
    metric,
)

#: below this, the post-translation constant coefficient is treated as zero
#: and no rotation is needed
GAMMA_TOL = 1e-13


class QuadraticSection(Record):
    """Coefficients of the sphere eta(xi) = beta1 + beta2 xi + beta3 xi^2."""

    __slots__ = ("beta1", "beta2", "beta3")

    def __init__(self, beta1: complex, beta2: complex, beta3: complex):
        for name, value in zip(self.__slots__, (beta1, beta2, beta3)):
            object.__setattr__(self, name, finite_complex(name, value))


class StandardSphere(Record):
    """The normal form eta = c i xi; c = 0 is the non-twisting case (the
    oriented lines through the origin)."""

    __slots__ = ("c",)

    def __init__(self, c: float):
        c = float(c)
        if not math.isfinite(c) or c < 0.0:
            raise DomainError(f"standard-form coefficient must be finite and >= 0, got {c!r}")
        object.__setattr__(self, "c", c)

    def as_section(self) -> QuadraticSection:
        return QuadraticSection(0.0, 1j * self.c, 0.0)


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


def transform_section(s: QuadraticSection, motion) -> QuadraticSection:
    """Transform a sphere by a Translation or Rotation."""
    if isinstance(motion, Translation):
        return translate_section(s, motion)
    if isinstance(motion, Rotation):
        return rotate_section(s, motion)
    raise DomainError(f"not a Euclidean motion: {motion!r}")


_HALF_TURN = Rotation(0.0, 1.0)  # maps eta = c i xi to eta = -c i xi


def normalize(s: QuadraticSection) -> NormalizationCertificate:
    """Carry a quadratic sphere to the standard form eta = c i xi, c >= 0.

    The translation with alpha1 = (conj(beta3) - beta1)/2 and
    a1 = Re(beta2) reduces the section to
    eta = gamma + c i xi + conj(gamma) xi^2 with gamma =
    (beta1 + conj(beta3))/2 and c = Im(beta2).  If gamma is nonzero, the
    rotation built from the direction

        xi0 = (c - sqrt(c^2 + 4 |gamma|^2)) / (2 i conj(gamma))

    removes the constant and quadratic parts, leaving
    eta = sqrt(c^2 + 4 |gamma|^2) i xi.  If gamma vanishes the rotation
    is the identity, except that a negative c is flipped by a half-turn
    about a horizontal axis so the result always has c >= 0.
    """
    translation = Translation(
        0.5 * (s.beta3.conjugate() - s.beta1),
        s.beta2.real,  # (conj(beta2) + beta2)/2
    )
    gamma = 0.5 * (s.beta1 + s.beta3.conjugate())
    c_mid = s.beta2.imag
    c_final = math.sqrt(c_mid * c_mid + 4.0 * (gamma * gamma.conjugate()).real)

    if abs(gamma) > GAMMA_TOL:
        xi0 = (c_mid - c_final) / (2.0j * gamma.conjugate())
        norm = (1.0 + (xi0 * xi0.conjugate()).real) ** -0.5
        rotation = Rotation(norm, -xi0 * norm)
    elif c_mid < 0.0:
        rotation = _HALF_TURN  # c_final = sqrt(c_mid^2) = -c_mid already
    else:
        rotation = Rotation(1.0, 0.0)

    # guard: if the rotated linear coefficient came out negative,
    # compose a half-turn to land in c >= 0
    final = rotate_section(translate_section(s, translation), rotation)
    if final.beta2.imag < 0.0:
        rotation = compose_rotations(_HALF_TURN, rotation)
        c_final = -final.beta2.imag

    return NormalizationCertificate(
        translation=translation,
        rotation=rotation,
        result=StandardSphere(c_final),
        intermediate_gamma=gamma,
        intermediate_c=c_mid,
    )


def lagrangian_defect(s: StandardSphere, xi: complex) -> float:
    """Scalar multiplying i dxi ^ dxibar in the symplectic form pulled
    back to the sphere: 4c(1-|xi|^2)/(1+|xi|^2)^3.  Zero exactly at the
    points where the sphere is Lagrangian."""
    xi = finite_complex("xi", xi)
    m = (xi * xi.conjugate()).real
    return 4.0 * s.c * (1.0 - m) / (1.0 + m) ** 3


def induced_metric_factor(s: StandardSphere, xi: complex) -> float:
    """Conformal factor g of the induced metric ds^2 = g dxi dxibar:
    -4c(1-|xi|^2)/(1+|xi|^2)^3.  Negative inside the equator, zero on it,
    positive outside: the Lagrangian defect with the opposite sign."""
    return -lagrangian_defect(s, xi)


def pullback_consistency_check(s: StandardSphere, xi: complex) -> float:
    """|closed-form induced metric factor - numeric pullback| at xi.

    The numeric route embeds xi -> (xi, c i xi), pushes the frame vector
    d/dxi through the embedding and evaluates the ambient metric on it.
    Contract: below 1e-9 everywhere.
    """
    xi = finite_complex("xi", xi)
    base = ComplexPair(xi, 1j * s.c * xi)
    tangent = TangentVector(base, 1.0, 1j * s.c)  # d(eta) = c i d(xi) along the sphere
    numeric = metric(tangent, tangent)
    return abs(induced_metric_factor(s, xi) - numeric)


# -- JSON wire format -------------------------------------------------------


def _c2j(z: complex):
    return [z.real, z.imag]


def certificate_to_dict(cert: NormalizationCertificate) -> dict:
    return {
        "translation": {"alpha1": _c2j(cert.translation.alpha1), "a1": cert.translation.a1},
        "rotation": {"alpha2": _c2j(cert.rotation.alpha2), "alpha3": _c2j(cert.rotation.alpha3)},
        "result": {"c": cert.result.c},
        "intermediate_gamma": _c2j(cert.intermediate_gamma),
        "intermediate_c": cert.intermediate_c,
    }
