"""Geometric and elastostatic calibration of serial manipulators.

Identification of kinematic deviations and joint compliances from laser
tracker measurements whose noise varies strongly across the workspace, using
dispersion-aware weighted least squares with honest sandwich covariances.
"""

from .errors import (
    BucketMatchError,
    CalibrationError,
    MeasurementFormatError,
    MissingNoiseError,
    ModelFormatError,
    NoiseFormatError,
    RankDeficientError,
    ReplicateCountError,
)
from .estimator import (
    EstimationResult,
    IterationSnapshot,
    irls,
    ols_estimate,
    optimal_weights,
    robust_weights,
    wls_estimate,
)
from .kinematics import (
    Joint,
    ManipulatorModel,
    Pose,
    forward_kinematics,
    joint_jacobian,
    parameter_jacobian,
    perturbed,
    transform,
)
from .noise import (
    DEFAULT_SIGMA0,
    NoiseModel,
    build_sigma,
)
from .regressor import (
    ComplianceParameterMap,
    StackedSystem,
    Study,
    elastostatic_regressor,
    stack_system,
)
from .simulator import (
    ComplianceVector,
    MonteCarloReport,
    StudyDesign,
    monte_carlo_compare,
    simulate_measurements,
)

__version__ = "0.1.0"

__all__ = [
    "BucketMatchError",
    "CalibrationError",
    "ComplianceParameterMap",
    "ComplianceVector",
    "DEFAULT_SIGMA0",
    "EstimationResult",
    "IterationSnapshot",
    "Joint",
    "ManipulatorModel",
    "MeasurementFormatError",
    "MissingNoiseError",
    "ModelFormatError",
    "MonteCarloReport",
    "NoiseFormatError",
    "NoiseModel",
    "Pose",
    "RankDeficientError",
    "ReplicateCountError",
    "StackedSystem",
    "Study",
    "StudyDesign",
    "build_sigma",
    "elastostatic_regressor",
    "forward_kinematics",
    "irls",
    "joint_jacobian",
    "monte_carlo_compare",
    "ols_estimate",
    "optimal_weights",
    "parameter_jacobian",
    "perturbed",
    "robust_weights",
    "simulate_measurements",
    "stack_system",
    "transform",
    "wls_estimate",
]
