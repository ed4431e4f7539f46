"""Neutral Kahler geometry on the space of oriented lines in R^3.

The space of oriented affine lines carries complex coordinates
(xi, eta) -- direction and moment -- a Euclidean group action, a
symplectic form and a neutral Kahler metric.  This package evaluates
those structures, normalises quadratic holomorphic spheres of lines to
the standard form eta = c i xi, and integrates the completely
integrable geodesic flow the metric induces on twisting (c > 0)
spheres: conserved speed and angular momentum, finite-time equator
blow-up for radial motion, and bounded radial oscillation otherwise.
"""

from ._backend import BACKEND
from .analysis import (
    CRITICAL_RADIUS,
    OscillationReport,
    TurningPoints,
    appell_f1_series,
    blowup_time,
    oscillation_check,
    potential_curve,
    radial_quadrature,
    series_quadrature_table,
    turning_points,
)
from .errors import (
    ChartExitError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    LineGeoError,
    NoOrbitError,
)
from .geodesics import (
    EQUATOR_CUTOFF,
    MIN_ORBIT_RATIO,
    FirstIntegrals,
    GeodesicState,
    PolarState,
    Termination,
    Trajectory,
    christoffel,
    effective_potential,
    first_integrals,
    first_integrals_arrays,
    integrate,
    rhs,
    state_from_integrals,
    write_csv,
)
from .line_space import (
    ComplexPair,
    Rotation,
    TangentVector,
    Translation,
    apply_motion,
    apply_rotation,
    apply_translation,
    compose_rotations,
    metric,
    metric_matrix,
    push_forward,
    symplectic_form,
    symplectic_matrix,
)
from .sections import (
    NormalizationCertificate,
    QuadraticSection,
    StandardSphere,
    certificate_to_dict,
    evaluate,
    induced_metric_factor,
    lagrangian_defect,
    normalize,
    pullback_consistency_check,
    transform_section,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CRITICAL_RADIUS",
    "EQUATOR_CUTOFF",
    "MIN_ORBIT_RATIO",
    "ChartExitError",
    "ComplexPair",
    "ConvergenceError",
    "DegeneracyError",
    "DomainError",
    "FirstIntegrals",
    "GeodesicState",
    "LineGeoError",
    "NoOrbitError",
    "NormalizationCertificate",
    "OscillationReport",
    "PolarState",
    "QuadraticSection",
    "Rotation",
    "StandardSphere",
    "TangentVector",
    "Termination",
    "Trajectory",
    "Translation",
    "TurningPoints",
    "appell_f1_series",
    "apply_motion",
    "apply_rotation",
    "apply_translation",
    "blowup_time",
    "certificate_to_dict",
    "christoffel",
    "compose_rotations",
    "effective_potential",
    "evaluate",
    "first_integrals",
    "first_integrals_arrays",
    "induced_metric_factor",
    "integrate",
    "lagrangian_defect",
    "metric",
    "metric_matrix",
    "normalize",
    "oscillation_check",
    "potential_curve",
    "pullback_consistency_check",
    "push_forward",
    "radial_quadrature",
    "rhs",
    "series_quadrature_table",
    "state_from_integrals",
    "symplectic_form",
    "symplectic_matrix",
    "transform_section",
    "turning_points",
    "write_csv",
]
