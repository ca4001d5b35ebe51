"""Bundled reference study: robot model, configurations, noise, ground truth.

These fixtures describe a heavy 6R industrial arm (KR-270 class) and the
deflection study shipped with the package: 15 measurement configurations
whose second-joint angle takes 5 distinct values (3 configurations each),
observed at 3 tool-plate markers with 6 repetitions, under a dead weight of
roughly 265 kg.  Noise levels are per-configuration, per-axis dispersions of
the deflection observable in micrometers.

The geometry itself is fixture data: representative, not a statement about
any particular serial number.
"""

from __future__ import annotations

import numpy as np

from .kinematics import REVOLUTE, Joint, ManipulatorModel, transform
from .noise import NoiseModel
from .regressor import ComplianceParameterMap
from .simulator import ComplianceVector, StudyDesign

#: The bundled arm, one modified-DH revolute joint per row: a (m), alpha (deg), d (m), theta offset (deg).
_DH_TABLE = (
    (0.0, 0.0, 0.675, 0.0),
    (0.350, -90.0, 0.0, 0.0),
    (1.150, 0.0, 0.0, -90.0),
    (0.041, -90.0, 1.200, 0.0),
    (0.0, 90.0, 0.0, 0.0),
    (0.0, -90.0, 0.240, 180.0),
)
#: The tool frame sits 100 mm along the flange axis.  Markers (m, tool frame) sit on a 200 mm-radius
#: tool plate, 50 mm proud of the flange; the load hangs at marker 0.
_TOOL_XYZ = (0.0, 0.0, 0.100)
_MARKERS = ((0.200, 0.0, 0.050), (-0.100, 0.173205, 0.050), (-0.100, -0.173205, 0.050))

#: Joint vectors of the bundled study, degrees, one row per configuration.
#: Rows group into 5 blocks of 3 sharing the same second-joint angle.
CONFIGURATIONS_DEG = np.array(
    [
        [79.20, -0.01, -5.57, 51.00, -97.52, -91.67],
        [63.00, -0.01, -12.22, -56.49, 41.42, 150.55],
        [63.00, -0.01, -47.98, -70.04, -61.55, 177.16],
        [95.00, -25.24, 33.00, 129.69, -98.10, 90.57],
        [95.00, -25.24, -107.01, 109.95, -61.19, 174.21],
        [105.00, -25.24, 14.30, 55.21, 41.26, -152.97],
        [56.60, -56.90, 44.54, -55.11, 41.90, 152.06],
        [56.60, -56.90, 64.73, -129.65, -98.26, -90.55],
        [144.80, -56.90, 104.49, -69.41, 61.67, -6.33],
        [-41.00, -99.85, -91.68, 55.12, 41.53, -152.48],
        [-143.00, -99.85, -32.64, 110.31, -61.47, -6.29],
        [-143.00, -99.85, -72.01, 129.65, -98.09, 90.82],
        [133.00, -140.00, 147.68, 129.64, -97.90, 90.99],
        [-60.00, -140.00, 7.59, -110.09, -61.36, -174.09],
        [-60.00, -140.00, -52.00, -124.89, -41.62, 27.78],
    ]
)

#: Deflection dispersions (sigma_x, sigma_y, sigma_z) per configuration, um.
NOISE_UM = np.array(
    [
        [150.0, 64.0, 33.0],
        [57.0, 86.0, 118.0],
        [97.0, 70.0, 44.0],
        [28.0, 19.0, 35.0],
        [72.0, 48.0, 17.0],
        [153.0, 46.0, 22.0],
        [112.0, 66.0, 53.0],
        [74.0, 55.0, 59.0],
        [80.0, 63.0, 102.0],
        [69.0, 73.0, 79.0],
        [80.0, 36.0, 26.0],
        [53.0, 39.0, 29.0],
        [26.0, 29.0, 29.0],
        [88.0, 121.0, 42.0],
        [90.0, 52.0, 50.0],
    ]
)

#: Standard errors of the dispersion estimates above, um.
NOISE_SE_UM = np.array(
    [
        [1.0, 1.0, 1.0],
        [4.0, 8.0, 15.0],
        [9.0, 5.0, 8.0],
        [1.0, 1.0, 1.0],
        [3.0, 4.0, 1.0],
        [8.0, 3.0, 1.0],
        [6.0, 3.0, 4.0],
        [5.0, 3.0, 1.0],
        [9.0, 7.0, 15.0],
        [2.0, 1.0, 1.0],
        [3.0, 1.0, 3.0],
        [4.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [4.0, 1.0, 1.0],
        [6.0, 3.0, 1.0],
    ]
)

#: Reference joint compliances in micro-rad/(N m): five second-joint buckets
#: (one per posture level, in ascending angle order) then joints 3..6.
COMPLIANCES_REPORT_UNITS = np.array(
    [0.246, 0.293, 0.302, 0.277, 0.287, 0.416, 2.786, 3.483, 2.074]
)

DEFAULT_MASS_KG = 265.0
DEFAULT_MARKERS = 3
DEFAULT_REPETITIONS = 6


def nominal_model() -> ManipulatorModel:
    """The bundled 6R model (KR-270 class), built from ``_DH_TABLE``, ``_TOOL_XYZ`` and ``_MARKERS``."""
    joints = tuple(Joint(REVOLUTE, a, float(np.deg2rad(alpha)), d, float(np.deg2rad(theta)))
                   for a, alpha, d, theta in _DH_TABLE)
    return ManipulatorModel(joints=joints, base=transform(), tool=transform(_TOOL_XYZ), markers=_MARKERS)


def configurations_rad() -> tuple[np.ndarray, ...]:
    return tuple(np.deg2rad(row) for row in CONFIGURATIONS_DEG)


def compliance_map() -> ComplianceParameterMap:
    """Bucketed second joint (5 levels from the study) plus tail joints 3..6."""
    return ComplianceParameterMap.from_configurations(configurations_rad())


def noise_model() -> NoiseModel:
    return NoiseModel(config=np.arange(1, len(NOISE_UM) + 1), sigma=NOISE_UM * 1e-6,
                      se=NOISE_SE_UM * 1e-6)


def ground_truth() -> ComplianceVector:
    return ComplianceVector.from_report_units(COMPLIANCES_REPORT_UNITS)


def study_design(
    seed: int = 0,
    markers: int = DEFAULT_MARKERS,
    repetitions: int = DEFAULT_REPETITIONS,
    mass_kg: float = DEFAULT_MASS_KG,
    noise: NoiseModel | None = None,
) -> StudyDesign:
    """The bundled study design, ready for the simulator."""
    return StudyDesign(
        configurations=configurations_rad(),
        cmap=compliance_map(),
        noise=noise if noise is not None else noise_model(),
        ground_truth=ground_truth(),
        markers=markers,
        repetitions=repetitions,
        mass_range_kg=(mass_kg, mass_kg),
        seed=seed,
    )
