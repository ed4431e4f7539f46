"""Chart actions, symplectic form and neutral metric."""

import cmath
import math

import numpy as np
import pytest

from linegeo import (
    ChartExitError,
    ComplexPair,
    DomainError,
    Rotation,
    TangentVector,
    Translation,
    apply_rotation,
    apply_translation,
    metric,
    push_forward,
    symplectic_form,
)
from linegeo import line_space
from linegeo.checks import _pairing_scale
from oracles import (
    apply_motion,
    compose_rotations,
    inverse_rotation,
    line,
    line_point,
    metric_matrix,
    metric_terms,
    push_forward_terms,
    symplectic_form_terms,
    symplectic_matrix,
)

RNG = np.random.default_rng(91001)


def random_pair(scale=1.0):
    z = RNG.normal(scale=scale, size=4)
    return ComplexPair(complex(z[0], z[1]), complex(z[2], z[3]))


def random_tangent(base):
    z = RNG.normal(size=4)
    return TangentVector(base, complex(z[0], z[1]), complex(z[2], z[3]))


def random_motion():
    if RNG.uniform() < 0.5:
        z = RNG.normal(size=3)
        return Translation(complex(z[0], z[1]), z[2])
    z = RNG.normal(size=4)
    return Rotation(complex(z[0], z[1]), complex(z[2], z[3]))


# independent oracles: the analytically cancelled real expressions
# (the implementation takes parts of one complex Hermitian pairing)


def omega_oracle(u, v):
    xi, eta = u.base.xi, u.base.eta
    p = 1.0 + abs(xi) ** 2
    t12 = 2.0 * (u.deta * v.dxi.conjugate()).real - 2.0 * (v.deta * u.dxi.conjugate()).real
    t3 = 8.0 * (xi.conjugate() * eta).imag * (u.dxi * v.dxi.conjugate()).imag / p
    return (2.0 / p**2) * (t12 + t3)


def metric_oracle(u, v):
    xi, eta = u.base.xi, u.base.eta
    p = 1.0 + abs(xi) ** 2
    t12 = -(u.deta * v.dxi.conjugate()).imag - (v.deta * u.dxi.conjugate()).imag
    t3 = 4.0 * (xi.conjugate() * eta).imag * (u.dxi * v.dxi.conjugate()).real / p
    return (2.0 / p**2) * (t12 + t3)


# -- group actions ------------------------------------------------------------


def test_translation_identity():
    p = ComplexPair(1 + 1j, 2)
    q = apply_translation(Translation(0, 0), p)
    assert q == p


def test_translation_at_origin_direction():
    q = apply_translation(Translation(1, 0), ComplexPair(0, 0))
    assert q.xi == 0 and q.eta == 1


def test_translation_direct_arithmetic():
    # eta' = eta + alpha1 - a1 xi - conj(alpha1) xi^2 at xi = 1:
    # (1+i) - 2 - (1-i) = -2 + 2i
    q = apply_translation(Translation(1 + 1j, 2), ComplexPair(1, 0))
    assert q.xi == 1
    assert abs(q.eta - (-2 + 2j)) < 1e-15


def test_rotation_identity():
    p = ComplexPair(0.3 - 0.7j, 1.5 + 0.25j)
    q = apply_rotation(Rotation(1, 0), p)
    assert abs(q.xi - p.xi) < 1e-15 and abs(q.eta - p.eta) < 1e-15


def test_rotation_half_turn():
    q = apply_rotation(Rotation(0, 1), ComplexPair(1, 1))
    assert abs(q.xi - (-1)) < 1e-15
    assert abs(q.eta - 1) < 1e-15


def test_rotation_to_pole_direction():
    s = 1 / math.sqrt(2)
    q = apply_rotation(Rotation(s, -s), ComplexPair(1, 0))
    assert abs(q.xi) < 1e-15 and abs(q.eta) < 1e-15


def test_rotation_south_pole_exit():
    # denominator -conj(a3) xi + conj(a2) = 0 at xi = conj(a2)/conj(a3)
    rot = Rotation(1, 1)
    with pytest.raises(ChartExitError):
        apply_rotation(rot, ComplexPair(1.0, 0.5))


def test_rotation_chart_bound_exit():
    with pytest.raises(ChartExitError):
        apply_rotation(Rotation(1, 0), ComplexPair(1e9, 0.0))


def test_rotation_normalised_at_construction():
    rot = Rotation(2, 0)
    assert abs(rot.alpha2 - 1) < 1e-15 and rot.alpha3 == 0
    with pytest.raises(DomainError):
        Rotation(0, 0)


@pytest.mark.parametrize(
    "alpha2, alpha3",
    [(1.2e154, 1.2e154), (1e200, 0.0), (0.5j, -1e200), (1e308 + 1e308j, 1e308), (1e150, -1e308j)],
)
def test_rotation_normalises_a_spinor_whose_square_overflows(alpha2, alpha3):
    assert_unit_spinor_along(Rotation(alpha2, alpha3), alpha2, alpha3)


@pytest.mark.parametrize(
    "alpha2, alpha3", [(1e-7, 1e-7j), (1e-200, 0.0), (5e-324, 0.0), (0.0, -1e-170j)]
)
def test_rotation_normalises_a_spinor_whose_square_is_tiny(alpha2, alpha3):
    assert_unit_spinor_along(Rotation(alpha2, alpha3), alpha2, alpha3)


def assert_unit_spinor_along(rot, alpha2, alpha3):
    n = abs(rot.alpha2) ** 2 + abs(rot.alpha3) ** 2
    assert abs(n - 1.0) <= 4 * math.ulp(min(n, 1.0))
    # the same direction as the unscaled pair
    assert cmath.isclose(rot.alpha2 * alpha3, rot.alpha3 * alpha2, rel_tol=1e-15)
    apply_rotation(rot, ComplexPair(0.3, 0.0))


def test_rotation_normalises_ordinary_spinors_bit_for_bit_as_before():
    rng = np.random.default_rng(4747)
    for _ in range(2000):
        a2, a3 = (
            complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-5.0, 153.0) for _ in range(2)
        )
        n = abs(a2) ** 2 + abs(a3) ** 2
        rot = Rotation(a2, a3)
        assert repr((rot.alpha2, rot.alpha3)) == repr((a2 * n**-0.5, a3 * n**-0.5))


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        ComplexPair(complex("inf"), 0)
    with pytest.raises(DomainError):
        Translation(complex("nan"), 0)
    with pytest.raises(DomainError):
        Translation(1j, 1j)  # a1 must be real


def test_rotation_group_law():
    for _ in range(100):
        z = RNG.normal(size=8)
        m1 = Rotation(complex(z[0], z[1]), complex(z[2], z[3]))
        m2 = Rotation(complex(z[4], z[5]), complex(z[6], z[7]))
        p = random_pair(0.5)
        seq = apply_rotation(m2, apply_rotation(m1, p))
        combined = apply_rotation(compose_rotations(m2, m1), p)
        assert abs(seq.xi - combined.xi) < 1e-12
        assert abs(seq.eta - combined.eta) < 1e-12


def test_rotation_inverse():
    for _ in range(20):
        z = RNG.normal(size=4)
        m = Rotation(complex(z[0], z[1]), complex(z[2], z[3]))
        p = random_pair()
        q = apply_rotation(inverse_rotation(m), apply_rotation(m, p))
        assert abs(q.xi - p.xi) < 1e-12
        assert abs(q.eta - p.eta) < 1e-12


# -- the two tensors ----------------------------------------------------------


def test_omega_vanishes_on_equal_vectors():
    base = random_pair()
    u = random_tangent(base)
    assert symplectic_form(u, u) == 0.0


def test_omega_frozen_coordinate_pairing():
    # frozen from the oracle expansion at (xi, eta) = (0, 0)
    base = ComplexPair(0, 0)
    u = TangentVector(base, 1, 0)
    v = TangentVector(base, 0, 1)
    assert abs(symplectic_form(u, v) - (-4.0)) < 1e-14
    assert abs(omega_oracle(u, v) - (-4.0)) < 1e-14


def test_omega_matches_oracle_on_random_vectors():
    for _ in range(200):
        base = random_pair()
        u, v = random_tangent(base), random_tangent(base)
        assert abs(symplectic_form(u, v) - omega_oracle(u, v)) < 1e-12


def test_omega_section_pullback_coefficient():
    # on the sphere eta = c i xi the pulled-back form is
    # 4c(1-|xi|^2)/(1+|xi|^2)^3 * i dxi^dxibar
    c = 1.7
    for xi in (0.0, 0.3 + 0.4j, 0.9j, 1.0, 2.0 - 1.0j):
        xi = complex(xi)
        base = ComplexPair(xi, 1j * c * xi)
        dxis = (1.0, 1.0j)
        u = TangentVector(base, dxis[0], 1j * c * dxis[0])
        v = TangentVector(base, dxis[1], 1j * c * dxis[1])
        m = abs(xi) ** 2
        coeff = 4.0 * c * (1.0 - m) / (1.0 + m) ** 3
        pairing = (
            1j * (dxis[0] * dxis[1].conjugate() - dxis[1] * dxis[0].conjugate())
        ).real
        assert abs(symplectic_form(u, v) - coeff * pairing) < 1e-12


def random_pair_of_magnitudes():
    """Two tangent vectors at one base point, each complex component of
    magnitude between 1e-3 and 1e3 (log-uniform)."""
    def component():
        return complex(*RNG.normal(size=2)) * 10.0 ** RNG.uniform(-3.0, 3.0)

    base = ComplexPair(component(), component())
    return (TangentVector(base, component(), component()),
            TangentVector(base, component(), component()))


def test_omega_antisymmetry():
    for _ in range(1000):
        u, v = random_pair_of_magnitudes()
        assert symplectic_form(u, v) == -symplectic_form(v, u)


def test_metric_symmetry():
    for _ in range(1000):
        u, v = random_pair_of_magnitudes()
        assert metric(u, v) == metric(v, u)


def test_metric_is_omega_composed_with_the_complex_structure():
    # Kahler compatibility g(u, v) = -1/2 omega(u, J v), J v = (i dxi, i deta):
    # both forms are parts of one Hermitian pairing, so it holds exactly
    for _ in range(1000):
        u, v = random_pair_of_magnitudes()
        jv = TangentVector(v.base, 1j * v.dxi, 1j * v.deta)
        assert metric(u, v) == -0.5 * symplectic_form(u, jv)


def test_metric_matches_oracle_on_random_vectors():
    for _ in range(200):
        base = random_pair()
        u, v = random_tangent(base), random_tangent(base)
        assert abs(metric(u, v) - metric_oracle(u, v)) < 1e-12


def test_metric_section_pullback_factor():
    # induced line element on eta = c i xi is -4c(1-|xi|^2)/(1+|xi|^2)^3 |dxi|^2
    c = 0.8
    for xi in (0.0, 0.5, 0.3 - 0.6j, 1.2 + 0.1j):
        xi = complex(xi)
        base = ComplexPair(xi, 1j * c * xi)
        t = TangentVector(base, 1.0, 1j * c)
        m = abs(xi) ** 2
        expected = -4.0 * c * (1.0 - m) / (1.0 + m) ** 3
        assert abs(metric(t, t) - expected) < 1e-13


def test_metric_degenerates_on_equator():
    c = 2.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        xi = cmath.exp(1j * theta)
        base = ComplexPair(xi, 1j * c * xi)
        u = TangentVector(base, 1.0, 1j * c)
        v = TangentVector(base, 1.0j, -c)
        for w in (u, v):
            assert abs(metric(w, w)) < 1e-14
        assert abs(metric(u, v)) < 1e-14


def test_mismatched_base_points_rejected():
    u = TangentVector(ComplexPair(0, 0), 1, 0)
    v = TangentVector(ComplexPair(1, 0), 1, 0)
    with pytest.raises(DomainError):
        symplectic_form(u, v)
    with pytest.raises(DomainError):
        metric(u, v)


# -- matrices -----------------------------------------------------------------


def test_matrices_structure_and_signature():
    for _ in range(25):
        p = random_pair()
        g = np.asarray(metric_matrix(p))
        w = np.asarray(symplectic_matrix(p))
        assert np.allclose(g, g.T, atol=1e-13)
        assert np.allclose(w, -w.T, atol=1e-13)
        eig = np.linalg.eigvalsh(g)
        assert np.sum(eig > 0) == 2 and np.sum(eig < 0) == 2  # signature (2,2)
        # the symplectic matrix is nondegenerate
        assert abs(np.linalg.det(w)) > 1e-12


def test_matrices_agree_with_evaluators():
    p = random_pair()
    frame = [
        TangentVector(p, 1, 0),
        TangentVector(p, 1j, 0),
        TangentVector(p, 0, 1),
        TangentVector(p, 0, 1j),
    ]
    g = np.asarray(metric_matrix(p))
    w = np.asarray(symplectic_matrix(p))
    for i in range(4):
        for j in range(4):
            assert abs(g[i, j] - metric(frame[i], frame[j])) < 1e-14
            assert abs(w[i, j] - symplectic_form(frame[i], frame[j])) < 1e-14


# -- push-forward and invariance ----------------------------------------------


def numeric_push_forward(m, u, eps=1e-6):
    """Central-difference Jacobian of the action (oracle for the exact one)."""

    def action(pair):
        q = apply_motion(m, pair)
        return q.xi, q.eta

    p = u.base
    xp = action(ComplexPair(p.xi + eps * u.dxi, p.eta + eps * u.deta))
    xm = action(ComplexPair(p.xi - eps * u.dxi, p.eta - eps * u.deta))
    return (xp[0] - xm[0]) / (2 * eps), (xp[1] - xm[1]) / (2 * eps)


def test_push_forward_matches_numeric_jacobian():
    for _ in range(40):
        base = random_pair(0.5)
        u = random_tangent(base)
        m = random_motion()
        try:
            exact = push_forward(m, u)
        except ChartExitError:
            continue
        dxi, deta = numeric_push_forward(m, u)
        assert abs(exact.dxi - dxi) < 1e-6
        assert abs(exact.deta - deta) < 1e-6


@pytest.mark.parametrize("form", [metric, symplectic_form], ids=["metric", "omega"])
def test_invariance_under_motions(form):
    worst = 0.0
    n = 0
    while n < 300:
        base = random_pair()
        u, v = random_tangent(base), random_tangent(base)
        m = random_motion()
        try:
            pu, pv = push_forward(m, u), push_forward(m, v)
        except ChartExitError:
            continue
        n += 1
        before = form(u, v)
        after = form(pu, pv)
        worst = max(worst, abs(after - before) / max(abs(before), 1e-30))
    assert worst < 1e-10


def test_push_forward_and_pairings_match_their_expressions_bit_for_bit():
    # the push-forward to the bit; the two forms, evaluated as parts of one
    # Hermitian pairing, agree with the wedge and symmetrised expressions
    # to rounding of the terms they sum
    kinds = set()
    for _ in range(400):
        base = random_pair()
        u, v = random_tangent(base), random_tangent(base)
        m = random_motion()
        kinds.add(type(m))
        for w in (u, v):
            pw = push_forward(m, w)
            assert (pw.base.xi, pw.base.eta, pw.dxi, pw.deta) == push_forward_terms(m, w)
        scale = _pairing_scale(u, v)
        assert abs(metric(u, v) - metric_terms(u, v)) <= 2e-15 * scale
        assert abs(symplectic_form(u, v) - symplectic_form_terms(u, v)) <= 2e-15 * scale
    assert kinds == {Translation, Rotation}


# -- the motions as rigid motions of the lines in R^3 ---------------------------


def _normal_complex(rng):
    return complex(*rng.normal(size=2))


def _turn(axis, phi):
    """The matrix that turns R^3 by phi about e3 or e2, right-handed."""
    c, s = math.cos(phi), math.sin(phi)
    if axis == "e3":
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def translation_error(draws):
    """Worst deviation of ``line_space.apply_translation`` from the rigid
    shift by v = (2 Re alpha1, 2 Im alpha1, a1), which keeps D and takes
    M to M + v x D, over seeded draws."""
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(draws):
        p = ComplexPair(_normal_complex(rng), _normal_complex(rng))
        alpha1, a1 = _normal_complex(rng), rng.normal()
        d, m = line(p)
        d_moved, m_moved = line(line_space.apply_translation(Translation(alpha1, a1), p))
        v = np.array([2.0 * alpha1.real, 2.0 * alpha1.imag, a1])
        worst = max(worst, *abs(d_moved - d), *abs(m_moved - m - np.cross(v, d)))
    return worst


def rotation_error(draws):
    """Worst deviation of ``line_space.apply_rotation`` from turning D and
    M by phi, about e3 for the spinor (e^{i phi/2}, 0) and about e2 for
    (cos phi/2, sin phi/2), over seeded draws."""
    rng = np.random.default_rng(5151)
    worst = 0.0
    for _ in range(draws):
        p = ComplexPair(_normal_complex(rng), _normal_complex(rng))
        phi = rng.uniform(-math.pi, math.pi)
        d, m = line(p)
        for rot, axis in ((Rotation(cmath.exp(0.5j * phi), 0.0), "e3"),
                          (Rotation(math.cos(phi / 2), math.sin(phi / 2)), "e2")):
            turn = _turn(axis, phi)
            d_moved, m_moved = line(line_space.apply_rotation(rot, p))
            worst = max(worst, *abs(d_moved - turn @ d), *abs(m_moved - turn @ m))
    return worst


def test_line_point_is_the_foot_of_the_perpendicular():
    rng = np.random.default_rng(5152)
    for _ in range(200):
        p = ComplexPair(_normal_complex(rng), _normal_complex(rng))
        d, point = line_point(p)
        assert abs(d @ d - 1.0) <= 1e-15
        assert abs(point @ d) <= 1e-15 * (1.0 + np.linalg.norm(point))


def test_translation_is_the_rigid_shift_by_twice_alpha1_and_a1():
    assert translation_error(200) <= 1e-14


def test_rotation_turns_the_line_about_its_axis():
    # a quarter turn takes e1 to e2 about e3, and e3 to e1 about e2
    assert np.allclose(_turn("e3", math.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-16)
    assert np.allclose(_turn("e2", math.pi / 2) @ [0, 0, 1], [1, 0, 0], atol=1e-16)
    assert rotation_error(300) <= 1e-14


def _halved_alpha1(exact):
    return lambda m, p: exact(Translation(m.alpha1 / 2.0, m.a1), p)


def _inverse_spinor(exact):
    return lambda m, p: exact(inverse_rotation(m), p)


@pytest.mark.parametrize("name, tamper, error", [
    ("apply_translation", _halved_alpha1, translation_error),
    ("apply_rotation", _inverse_spinor, rotation_error),
], ids=["translation-without-factor-2", "inverse-rotation"])
def test_the_r3_picture_detects_a_tampered_motion(monkeypatch, name, tamper, error):
    monkeypatch.setattr(line_space, name, tamper(getattr(line_space, name)))
    assert error(50) > 0.1
