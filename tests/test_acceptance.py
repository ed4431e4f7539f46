"""Acceptance criteria, one test per criterion.

Each test enforces the stated numeric tolerance and runtime budget and
prints a PASS line (run with ``pytest -s`` to see them).
"""

import math
import time

import numpy as np

from linegeo import (
    CRITICAL_RADIUS,
    MIN_ORBIT_RATIO,
    ComplexPair,
    GeodesicState,
    QuadraticSection,
    Rotation,
    StandardSphere,
    TangentVector,
    Termination,
    Translation,
    appell_f1_series,
    blowup_time,
    first_integrals_arrays,
    induced_metric_factor,
    integrate,
    lagrangian_defect,
    metric,
    normalize,
    oscillation_check,
    push_forward,
    radial_quadrature,
    state_from_integrals,
    symplectic_form,
    turning_points,
)
from linegeo.checks import sample_orbit_state


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.1f}s, budget {self.seconds}s"
            )
        return False


def test_criterion_1_blowup_constant():
    with Budget("criterion 1", 1.0) as b:
        value = radial_quadrature(1.0)
    assert abs(value - 0.599070) < 5e-6
    print(
        f"\nACCEPTANCE 1 (blow-up constant): PASS  "
        f"quadrature(1) = {value:.12f}, |dev from 0.599070| = "
        f"{abs(value - 0.599070):.2e} < 5e-6, {b.elapsed:.2f}s"
    )


def test_criterion_2_triple_agreement():
    with Budget("criterion 2", 30.0) as b:
        worst_pair = 0.0
        for big_r in np.linspace(0.0, 0.95, 96):
            worst_pair = max(
                worst_pair, abs(appell_f1_series(big_r) - radial_quadrature(big_r))
            )
        assert worst_pair < 1e-10

        worst_ode = 0.0
        for i1 in (0.25, 1.0, 4.0):
            traj = integrate(
                GeodesicState(0.0, 0.0, math.sqrt(i1)), 10.0, 1e-6
            )
            assert traj.termination is Termination.EQUATOR_REACHED
            predicted = blowup_time(i1)
            rel = abs(traj.t_hit - predicted) / predicted
            worst_ode = max(worst_ode, rel)
        assert worst_ode < 1e-4
    print(
        f"ACCEPTANCE 2 (triple agreement): PASS  series-vs-quadrature worst "
        f"{worst_pair:.2e} < 1e-10; ODE-vs-closed-form worst {worst_ode:.2e} "
        f"< 1e-4, {b.elapsed:.1f}s"
    )


def test_criterion_3_conservation():
    rng = np.random.default_rng(20260809)
    with Budget("criterion 3", 60.0) as b:
        worst = 0.0
        for _ in range(50):
            state = sample_orbit_state(rng)
            traj = integrate(state, 10.0, 1e-10)
            worst = max(worst, *traj.max_drift)
        assert worst < 1e-8
    print(
        f"ACCEPTANCE 3 (conservation): PASS  worst relative drift of I1/I2 over "
        f"50 random orbits (t=10, tol=1e-10) = {worst:.2e} < 1e-8, {b.elapsed:.1f}s"
    )


def test_criterion_4_oscillation_bounds():
    with Budget("criterion 4", 60.0) as b:
        worst = 0.0
        for scale in np.linspace(1.05, 5.0, 10):
            ratio = scale * MIN_ORBIT_RATIO
            i1 = 1.0
            i2 = math.sqrt(i1 / ratio)
            tp = turning_points(i1, i2)
            state = state_from_integrals(i1, i2, tp.R_min)
            traj = integrate(state, 20.0, 1e-10)
            report = oscillation_check(traj)
            assert report.conclusive, f"ratio {ratio}: {report}"
            worst = max(worst, report.discrepancy_min, report.discrepancy_max)
        assert worst < 1e-4

        # circular orbit exactly at the potential minimum
        i2c = math.sqrt(1.0 / MIN_ORBIT_RATIO)
        state = state_from_integrals(1.0, i2c, CRITICAL_RADIUS)
        traj = integrate(state, 10.0, 1e-10)
        circular_dev = float(np.max(np.abs(np.asarray(traj.radius) - CRITICAL_RADIUS)))
        assert circular_dev < 1e-6
    print(
        f"ACCEPTANCE 4 (oscillation bounds): PASS  worst turning-point "
        f"discrepancy over 10 ratios = {worst:.2e} < 1e-4; circular-orbit radius "
        f"deviation {circular_dev:.2e} < 1e-6, {b.elapsed:.1f}s"
    )


def test_criterion_5_normalization():
    from oracles import refit_quadratic, transform_pointwise

    rng = np.random.default_rng(20260810)
    with Budget("criterion 5", 5.0) as b:
        worst_resid = 0.0
        worst_inv = 0.0
        for _ in range(1000):
            z = rng.uniform(-10.0, 10.0, size=6)
            sec = QuadraticSection(
                complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5])
            )
            cert = normalize(sec)
            # independent route: move the sphere pointwise, refit coefficients
            fitted, _ = refit_quadratic(
                transform_pointwise(sec, [cert.translation, cert.rotation])
            )
            worst_resid = max(
                worst_resid,
                abs(fitted.beta1),
                abs(fitted.beta3),
                abs(fitted.beta2.real),
            )
            invariant = math.sqrt(
                sec.beta2.imag ** 2 + abs(sec.beta1 + sec.beta3.conjugate()) ** 2
            )
            worst_inv = max(worst_inv, abs(cert.result.c - invariant))
        assert worst_resid < 1e-9
        assert worst_inv < 1e-10
    print(
        f"ACCEPTANCE 5 (normalization): PASS  worst residual over 1000 sections "
        f"= {worst_resid:.2e} < 1e-9; worst invariant deviation = "
        f"{worst_inv:.2e} < 1e-10, {b.elapsed:.1f}s"
    )


def test_criterion_6_isometry_suite():
    rng = np.random.default_rng(20260811)
    with Budget("criterion 6", 5.0) as b:
        worst = 0.0
        count = 0
        while count < 1000:
            z = rng.normal(size=12)
            base = ComplexPair(complex(z[0], z[1]), complex(z[2], z[3]))
            u = TangentVector(base, complex(z[4], z[5]), complex(z[6], z[7]))
            v = TangentVector(base, complex(z[8], z[9]), complex(z[10], z[11]))
            if rng.uniform() < 0.5:
                w = rng.normal(size=3)
                motion = Translation(complex(w[0], w[1]), w[2])
            else:
                w = rng.normal(size=4)
                motion = Rotation(complex(w[0], w[1]), complex(w[2], w[3]))
            try:
                pu, pv = push_forward(motion, u), push_forward(motion, v)
            except Exception:
                continue  # rare chart exits are resampled
            count += 1
            for form in (metric, symplectic_form):
                before = form(u, v)
                after = form(pu, pv)
                worst = max(worst, abs(after - before) / max(abs(before), 1e-30))
        assert worst < 1e-10
    print(
        f"ACCEPTANCE 6 (isometry/symplectomorphism): PASS  worst relative change "
        f"over 1000 samples = {worst:.2e} < 1e-10, {b.elapsed:.1f}s"
    )


def test_criterion_7_degeneracy_locus():
    rng = np.random.default_rng(20260812)
    worst_on = 0.0
    for c in (0.5, 1.0, 2.0):
        sphere = StandardSphere(c)
        # on the equator both quantities vanish
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=1000):
            xi = complex(math.cos(theta), math.sin(theta))
            worst_on = max(
                worst_on,
                abs(induced_metric_factor(sphere, xi)),
                abs(lagrangian_defect(sphere, xi)),
            )
        assert worst_on < 1e-12
        # off the equator (radial distance >= 0.01, bounded region) both exceed 1e-4*c
        smallest = math.inf
        for _ in range(1000):
            big_r = rng.uniform(0.0, 0.99) if rng.uniform() < 0.5 else rng.uniform(1.01, 2.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            xi = big_r * complex(math.cos(theta), math.sin(theta))
            smallest = min(
                smallest,
                abs(induced_metric_factor(sphere, xi)),
                abs(lagrangian_defect(sphere, xi)),
            )
        assert smallest > 1e-4 * c
    print(
        f"ACCEPTANCE 7 (degeneracy locus): PASS  worst on-equator magnitude "
        f"{worst_on:.2e} < 1e-12; off-equator values stay above 1e-4*c"
    )


def test_criterion_8_energy_identity():
    rng = np.random.default_rng(20260813)
    worst = 0.0
    total = 0
    trajectories = [
        integrate(GeodesicState(0.0, 0.0, 1.0), 10.0, 1e-6)  # radial sweep
    ]
    for _ in range(4):
        trajectories.append(integrate(sample_orbit_state(rng), 10.0, 1e-10))
    for traj in trajectories:
        xi, xidot = np.asarray(traj.xi), np.asarray(traj.xidot)
        i1s, i2s = map(np.asarray, first_integrals_arrays(traj.xi, traj.xidot))
        big_r = np.abs(xi)
        keep = (big_r >= 1e-3) & (big_r <= 1.0 - 1e-3)
        r2 = big_r[keep] ** 2
        u_eff = (1.0 + r2) ** 3 / ((1.0 - r2) * r2)
        f = (1.0 - r2) / (1.0 + r2) ** 3
        rdot = (xi[keep].conjugate() * xidot[keep]).real / big_r[keep]
        resid = i1s[keep] - u_eff * i2s[keep] ** 2 - f * rdot**2
        worst = max(worst, float(np.max(np.abs(resid))))
        total += int(np.count_nonzero(keep))
    assert worst < 1e-8
    print(
        f"ACCEPTANCE 8 (energy identity): PASS  worst residual over {total} "
        f"samples = {worst:.2e} < 1e-8"
    )
