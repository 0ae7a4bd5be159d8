"""Semi-analytical field solutions and design studies for slotless
double-sided linear PM motors with Halbach arrays.

The surface is small on purpose: configure a design, expand its
magnetization into harmonics, solve the layer coefficients, then ask for
fields, machine quantities, or design-studio metrics.  Everything else
lives in the submodules.
"""

from .config import (
    MU0,
    HarmonicTruncation,
    MotorDesign,
    load_design,
)
from .errors import HalmotorError
from .halbach import HarmonicSource, fourier_coefficients
from .laplace import (
    FieldCoefficients,
    FieldMap,
    FieldSample,
    airgap_B_y,
    closed_form_coefficients,
    evaluate_fields,
    field_map,
    solve_coefficients,
)
from .poisson import solve_scalar, solve_vector, vector_from_hybrid
from .quantities import (
    attraction_force,
    back_emf,
    emf_thd,
    emf_time_series,
    force_angle_sweep,
    misalignment_force,
    power_balance,
    thrust,
    thrust_time_series,
)
from .studio import (
    ObjectiveConfig,
    StageSpec,
    initial_sizing,
    optimize,
    stage_metrics,
    sweep,
)
from .verify import format_report, verify_design, verify_suite

__version__ = "0.1.0"

__all__ = [
    "MU0",
    "HarmonicTruncation",
    "MotorDesign",
    "load_design",
    "HalmotorError",
    "HarmonicSource",
    "fourier_coefficients",
    "FieldCoefficients",
    "FieldMap",
    "FieldSample",
    "airgap_B_y",
    "closed_form_coefficients",
    "evaluate_fields",
    "field_map",
    "solve_coefficients",
    "solve_scalar",
    "solve_vector",
    "vector_from_hybrid",
    "attraction_force",
    "back_emf",
    "emf_thd",
    "emf_time_series",
    "force_angle_sweep",
    "misalignment_force",
    "power_balance",
    "thrust",
    "thrust_time_series",
    "ObjectiveConfig",
    "StageSpec",
    "initial_sizing",
    "optimize",
    "stage_metrics",
    "sweep",
    "verify_design",
    "verify_suite",
    "format_report",
    "__version__",
]
