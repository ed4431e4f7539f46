"""Test-only oracles: a pointwise route to a moved sphere, a least-squares
refit of its coefficients, the inverse rotation, a bit-for-bit copy of
the push-forward, the wedge and symmetrised expressions of the two
pairings, the DOP853 tableau as rows of
stage weights, and the JSON readers of the section and certificate wire
format (the CLI only writes it)."""

import re

import numpy as np

from linegeo import (
    ChartExitError,
    DomainError,
    NormalizationCertificate,
    QuadraticSection,
    Rotation,
    StandardSphere,
    Translation,
    apply_motion,
    evaluate,
)
from linegeo import geodesics
from linegeo.sections import _c2j


def inverse_rotation(m: Rotation) -> Rotation:
    """The inverse rotation."""
    return Rotation(m.alpha2.conjugate(), -m.alpha3)


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


# -- the DOP853 tableau as rows ----------------------------------------------


def _dop853_rows():
    """(A, B, E5, BHH): the stepper's named literals _Ai_j, _Bj, _E5_j and
    _BHHj as rows of stage weights, zeros included.  A[i-1] holds the
    weights of stages 1 .. i-1 in stage i; the others have 12 entries."""
    a = [[0.0] * i for i in range(12)]
    b, e5, bhh = [0.0] * 12, [0.0] * 12, [0.0] * 12
    for name, value in vars(geodesics).items():
        if m := re.fullmatch(r"_A(\d+)_(\d+)", name):
            a[int(m[1]) - 1][int(m[2]) - 1] = value
        elif m := re.fullmatch(r"_(B|E5_|BHH)(\d+)", name):
            {"B": b, "E5_": e5, "BHH": bhh}[m[1]][int(m[2]) - 1] = value
    return tuple(map(tuple, a)), tuple(b), tuple(e5), tuple(bhh)


DOP853_A, DOP853_B, DOP853_E5, DOP853_BHH = _dop853_rows()


# -- JSON wire format -------------------------------------------------------


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
