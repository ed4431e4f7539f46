"""Quadratic spheres: evaluation, normalisation, induced structures."""

import cmath
import json
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linegeo import (
    DomainError,
    QuadraticSection,
    Rotation,
    StandardSphere,
    Translation,
    evaluate,
    induced_metric_factor,
    lagrangian_defect,
    normalize,
)
from linegeo import cli
from oracles import (
    apply_motion,
    certificate_from_dict,
    pullback_consistency_check,
    refit_quadratic,
    transform_pointwise,
    transform_section,
)

RNG = np.random.default_rng(91002)


def random_section(scale=10.0):
    z = RNG.uniform(-scale, scale, size=6)
    return QuadraticSection(complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5]))


def normalization_residuals(sec, cert):
    """Residual coefficients after applying the certificate's motions,
    via the pointwise-evaluation + refit oracle (independent of the
    coefficient transformation rules)."""
    pts = transform_pointwise(sec, [cert.translation, cert.rotation])
    fitted, fit_resid = refit_quadratic(pts)
    return (
        abs(fitted.beta1),
        abs(fitted.beta3),
        abs(fitted.beta2.real),
        abs(fitted.beta2.imag - cert.result.c),
        fit_resid,
    )


# -- evaluate -----------------------------------------------------------------


def test_evaluate_zero_section():
    p = evaluate(QuadraticSection(0, 0, 0), 5)
    assert p.xi == 5 and p.eta == 0


def test_evaluate_standard_form():
    c = 1.25
    p = evaluate(QuadraticSection(0.0, 1j * c, 0.0), 1)
    assert p.eta == 1j * c


def test_evaluate_direct_arithmetic():
    # 1 + 2i*i + 3*i^2 = 1 - 2 - 3 = -4
    p = evaluate(QuadraticSection(1, 2j, 3), 1j)
    assert abs(p.eta - (-4)) < 1e-15


# -- transformation rules vs pointwise action ----------------------------------


def test_coefficient_transforms_match_pointwise_action():
    for _ in range(50):
        sec = random_section(3.0)
        z = RNG.normal(size=7)
        motion = (
            Translation(complex(z[0], z[1]), z[2])
            if RNG.uniform() < 0.5
            else Rotation(complex(z[3], z[4]), complex(z[5], z[6]))
        )
        direct = transform_section(sec, motion)
        for xi in (0.0, 1.0, -1.0, 1j, 0.5 - 0.25j):
            p = apply_motion(motion, evaluate(sec, xi))
            expected = evaluate(direct, p.xi)
            assert abs(expected.eta - p.eta) < 1e-9 * max(1.0, abs(p.eta))


# -- normalize ----------------------------------------------------------------


def test_normalize_already_standard():
    cert = normalize(QuadraticSection(0, 2j, 0))
    assert cert.result.c == 2.0
    assert cert.rotation.alpha2 == 1.0 and cert.rotation.alpha3 == 0.0
    assert cert.translation.alpha1 == 0.0 and cert.translation.a1 == 0.0


def test_normalize_example_sqrt20():
    cert = normalize(QuadraticSection(1, 2j, 3))
    assert abs(cert.intermediate_gamma - 2.0) < 1e-15
    assert abs(cert.intermediate_c - 2.0) < 1e-15
    assert abs(cert.result.c - math.sqrt(20.0)) < 1e-12
    for r in normalization_residuals(QuadraticSection(1, 2j, 3), cert):
        assert r < 1e-12


def test_normalize_pure_gamma():
    # beta = (1, 0, 1): gamma = 1, c = 0, final c = sqrt(4) = 2
    cert = normalize(QuadraticSection(1, 0, 1))
    assert abs(cert.result.c - 2.0) < 1e-12


def test_normalize_negative_c_half_turn():
    cert = normalize(QuadraticSection(0, -2j, 0))
    assert abs(cert.result.c - 2.0) < 1e-12
    for r in normalization_residuals(QuadraticSection(0, -2j, 0), cert):
        assert r < 1e-12


def test_normalize_idempotent_on_standard_spheres():
    for c in (0.0, 0.5, 3.0):
        cert = normalize(QuadraticSection(0.0, 1j * c, 0.0))
        assert abs(cert.result.c - c) < 1e-14
        assert cert.translation.alpha1 == 0 and cert.translation.a1 == 0
        assert cert.rotation.alpha3 == 0  # identity up to phase


def test_normalize_random_sections_residuals():
    worst_resid = 0.0
    worst_inv = 0.0
    for _ in range(200):
        sec = random_section()
        cert = normalize(sec)
        rs = normalization_residuals(sec, cert)
        worst_resid = max(worst_resid, *rs)
        invariant = math.sqrt(
            sec.beta2.imag ** 2 + abs(sec.beta1 + sec.beta3.conjugate()) ** 2
        )
        worst_inv = max(worst_inv, abs(cert.result.c - invariant))
    assert worst_resid < 1e-9
    assert worst_inv < 1e-10


def test_normalize_total_on_degenerate_inputs():
    assert normalize(QuadraticSection(0, 0, 0)).result.c == 0.0
    cert = normalize(QuadraticSection(1e-14, 1j * 1e-14, 0))  # a section of size 1e-14
    assert cert.result.c >= 0.0


@pytest.mark.parametrize("sec", [
    QuadraticSection(1e155, 1j, 0),  # c^2 + 4|gamma|^2 overflows
    QuadraticSection(0, 1e155j, 0),
    QuadraticSection(1e308, 1j, -1e308),  # conj(beta3) - beta1 overflows
    QuadraticSection(2e-5, -1e150j, 0),  # |xi0|^2 overflows
    QuadraticSection(2e-13, -1e300j, 0),  # xi0 overflows
], ids=repr)
def test_normalize_a_section_on_which_a_step_overflows(sec):
    cert = normalize(sec)
    c = cert.result.c
    assert c == pytest.approx(math.hypot(sec.beta2.imag, abs(sec.beta1 + sec.beta3.conjugate())),
                              rel=1e-15)
    moved = transform_section(transform_section(sec, cert.translation), cert.rotation)
    assert max(abs(moved.beta1), abs(moved.beta3), abs(moved.beta2 - 1j * c)) <= 1e-15 * c


@pytest.mark.parametrize("sec", [
    QuadraticSection(0, 0, -1.1233609679946154e-268),  # c^2 + 4|gamma|^2 underflows to 0
    QuadraticSection(1e-160, 0, 0),  # ... to a subnormal
    QuadraticSection(6.324555320336758e-08, 7.3j, 0),  # c_mid - c cancels
    QuadraticSection(1e-14, 1e-14j, 0),
], ids=repr)
def test_normalize_keeps_full_precision_at_any_scale(sec):
    cert = normalize(sec)
    c = cert.result.c
    if sec.beta2 == 0:  # c = |beta1 + conj(beta3)|, a double
        assert c == abs(sec.beta1 + sec.beta3.conjugate())
    moved = transform_section(transform_section(sec, cert.translation), cert.rotation)
    assert max(abs(moved.beta1), abs(moved.beta3), abs(moved.beta2 - 1j * c)) <= 1e-15 * c


def _scaled(z, j):
    return complex(math.ldexp(z.real, j), math.ldexp(z.imag, j))


def test_normalize_commutes_with_power_of_two_scaling():
    # alpha1, a1, gamma and both c's are linear in the section and the
    # rotation is scale-free, so scaling by 2^j moves only exponents, also
    # where c^2 + 4|gamma|^2 would overflow (2^600 and up) or underflow
    # (2^-600 and down)
    rng = random.Random(4711)
    for _ in range(100):
        sec = QuadraticSection(*[complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
                                 for _ in range(3)])
        cert = normalize(sec)
        for j in (300, 600, 1015, -300, -600, -1000):
            big = normalize(QuadraticSection(*[_scaled(b, j) for b in (sec.beta1, sec.beta2,
                                                                        sec.beta3)]))
            assert big.rotation == cert.rotation
            assert big.translation.alpha1 == _scaled(cert.translation.alpha1, j)
            assert big.translation.a1 == math.ldexp(cert.translation.a1, j)
            assert big.result.c == math.ldexp(cert.result.c, j)
            assert big.intermediate_gamma == _scaled(cert.intermediate_gamma, j)
            assert big.intermediate_c == math.ldexp(cert.intermediate_c, j)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6))
@example([5e-324, 0.0, 0.0, 0.0, 5e-324, 0.0])  # c = 2 gamma = 2^-1073, two subnormal steps
@example([2.588231963885125e-309, 1.96844693824274e-309, 1.850900823135115e-308,  # 1.09 steps off
          -4.94228513363418e-309, -2.184106563322341e-308, -3.12974309033922e-309])
@example([1e308, 0.0, 0.0, 1.0, 1e308, 0.0])  # c = 2e308
def test_normalize_over_the_whole_double_range(parts):
    sec = QuadraticSection(*[complex(parts[k], parts[k + 1]) for k in (0, 2, 4)])
    with mpmath.workprec(200):
        b1, b3 = mpmath.mpc(sec.beta1), mpmath.mpc(sec.beta3)
        invariant = mpmath.sqrt(mpmath.mpf(sec.beta2.imag) ** 2 + abs(b1 + mpmath.conj(b3)) ** 2)
        try:
            cert = normalize(sec)
        except DomainError:
            assert invariant > sys.float_info.max
            return
        c = cert.result.c
        error = abs(mpmath.mpf(c) - invariant)
        # a subnormal c is rounded twice: from the unit scale, then to its grid
        if invariant >= sys.float_info.min:
            assert error <= 4e-16 * invariant
        else:
            assert error <= 2 * 2.0 ** -1074
    assert c >= 0.0
    a2, a3 = cert.rotation.alpha2, cert.rotation.alpha3
    assert a2.imag == 0.0 and a2.real >= 0.0
    assert abs(abs(a2) ** 2 + abs(a3) ** 2 - 1.0) <= 1e-15


# -- induced structures on the standard sphere ---------------------------------


def test_lagrangian_defect_examples():
    assert lagrangian_defect(StandardSphere(0.0), 0.3 + 0.2j) == 0.0
    assert abs(lagrangian_defect(StandardSphere(1.0), 1.0)) < 1e-15
    assert abs(lagrangian_defect(StandardSphere(1.0), 0.0) - 4.0) < 1e-15


def test_induced_metric_factor_examples():
    assert abs(induced_metric_factor(StandardSphere(1.0), 0.0) - (-4.0)) < 1e-15
    assert abs(induced_metric_factor(StandardSphere(1.0), 1.0)) < 1e-15
    assert abs(induced_metric_factor(StandardSphere(1.0), 2.0) - 12.0 / 125.0) < 1e-15


def test_sign_structure():
    c = 1.5
    s = StandardSphere(c)
    for _ in range(300):
        z = RNG.normal(size=2)
        xi = complex(z[0], z[1])
        g = induced_metric_factor(s, xi)
        expected_sign = -math.copysign(1.0, c * (1.0 - abs(xi) ** 2))
        if g != 0.0:
            assert math.copysign(1.0, g) == expected_sign


def test_defect_and_factor_vanish_together():
    s = StandardSphere(2.0)
    for _ in range(300):
        z = RNG.normal(size=2)
        xi = complex(z[0], z[1])
        assert induced_metric_factor(s, xi) == -lagrangian_defect(s, xi)
    # bit for bit on a polar grid over both hemispheres and the equator, for
    # a flat and three twisting spheres; negation is exact, so the factor
    # also equals its closed form -4c f, f = (1-|xi|^2)/(1+|xi|^2)^3,
    # signed zeros included
    for c in (0.0, 0.5, 1.5, 2.0):
        s = StandardSphere(c)
        for big_r in (0.0, 0.25, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0, 1e8):
            for k in range(12):
                xi = big_r * cmath.exp(1j * math.pi * k / 6.0)
                m = (xi * xi.conjugate()).real
                g = induced_metric_factor(s, xi)
                closed_form = -4.0 * c * ((1.0 - m) / (1.0 + m) ** 3)
                assert g == -lagrangian_defect(s, xi) == closed_form
                assert math.copysign(1.0, g) == math.copysign(1.0, closed_form)


def test_pullback_consistency():
    for c in (0.5, 1.0, 2.0):
        s = StandardSphere(c)
        for _ in range(50):
            z = RNG.normal(size=2)
            assert pullback_consistency_check(s, complex(z[0], z[1])) < 1e-9
    # spec'd spot values
    assert pullback_consistency_check(StandardSphere(1.0), 0.3 + 0.4j) < 1e-9
    assert pullback_consistency_check(StandardSphere(0.0), 0.7 - 0.1j) < 1e-15
    assert pullback_consistency_check(StandardSphere(2.0), 1.0) < 1e-12


# -- construction validation ----------------------------------------------------


def test_standard_sphere_rejects_negative_c():
    for c in (-1.0, math.nan, math.inf):  # negative or not finite
        with pytest.raises(DomainError):
            StandardSphere(c)


def test_section_rejects_non_finite():
    with pytest.raises(DomainError):
        QuadraticSection(complex("inf"), 0, 0)


def test_refit_recovers_known_quadratic():
    sec = QuadraticSection(1 - 2j, 0.5j, -3)
    pts = [(xi, evaluate(sec, xi).eta) for xi in (0, 1, -1, 1j, -1j)]
    fitted, resid = refit_quadratic(pts)
    assert resid < 1e-12
    assert abs(fitted.beta1 - sec.beta1) < 1e-12
    assert abs(fitted.beta2 - sec.beta2) < 1e-12
    assert abs(fitted.beta3 - sec.beta3) < 1e-12


# -- JSON wire format -----------------------------------------------------------


def test_certificate_json_round_trip():
    cert = normalize(random_section())
    d = json.loads(json.dumps(cert, default=cli._fields))
    back = certificate_from_dict(d)
    assert abs(back.result.c - cert.result.c) < 1e-15
    assert abs(back.rotation.alpha2 - cert.rotation.alpha2) < 1e-15
    assert abs(back.rotation.alpha3 - cert.rotation.alpha3) < 1e-15
    assert abs(back.translation.alpha1 - cert.translation.alpha1) < 1e-15
    assert back.translation.a1 == cert.translation.a1
    assert abs(back.intermediate_gamma - cert.intermediate_gamma) < 1e-15

