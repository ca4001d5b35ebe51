"""The public API: ``armcal.__all__`` is spelled out here so any change shows in a diff."""

import armcal

PUBLIC_API = [
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
    "UnderDeterminedError",
    "build_sigma",
    "deflection_dispersions",
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


def test_public_names_are_exactly_the_listed_ones():
    assert len(PUBLIC_API) == 38
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(armcal.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in armcal.__all__:
        assert getattr(armcal, name, None) is not None, name
