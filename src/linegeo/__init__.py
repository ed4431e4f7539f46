"""Neutral Kahler geometry on the space of oriented lines in R^3.

The space of oriented affine lines carries complex coordinates
(xi, eta) -- direction and moment -- a Euclidean group action, a
symplectic form and a neutral Kahler metric.  This package evaluates
those structures, normalises quadratic holomorphic spheres of lines to
the standard form eta = c i xi, and integrates the completely
integrable geodesic flow the metric induces on twisting (c > 0)
spheres: conserved speed and angular momentum, finite-time equator
blow-up for radial motion, and bounded radial oscillation otherwise.

The names below are re-exported from their modules on first access
(PEP 562), so ``import linegeo`` loads no submodule and a CLI call
loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: the stepper's implementation, read by the benchmark's cold-start child
BACKEND = "python"

#: the re-exported names of each submodule
_EXPORTS = {
    "analysis": (
        "CRITICAL_RADIUS", "MIN_ORBIT_RATIO", "TurningPoints", "appell_f1_series",
        "blowup_time", "effective_potential", "potential_curve", "radial_quadrature",
        "series_quadrature_table", "turning_points",
    ),
    "errors": (
        "ChartExitError", "ConvergenceError", "DomainError", "LineGeoError", "NoOrbitError",
    ),
    "geodesics": (
        "EQUATOR_CUTOFF", "FirstIntegrals", "GeodesicState", "OscillationReport", "Termination",
        "Trajectory", "first_integrals", "first_integrals_arrays", "integrate",
        "oscillation_check", "state_from_integrals", "state_from_polar", "write_csv",
    ),
    "line_space": (
        "ComplexPair", "Rotation", "TangentVector", "Translation", "apply_rotation",
        "apply_translation", "metric", "push_forward", "symplectic_form",
    ),
    "sections": (
        "NormalizationCertificate", "QuadraticSection", "StandardSphere", "evaluate",
        "induced_metric_factor", "lagrangian_defect", "normalize",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["BACKEND", *_MODULE_OF])


def __getattr__(name):
    """Import a re-exported name's module (or a submodule) on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
