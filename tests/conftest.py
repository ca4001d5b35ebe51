"""Shared fixtures: bundled study objects and random-model factories."""

import numpy as np
import pytest

from armcal import reference
from armcal.kinematics import (
    Joint,
    ManipulatorModel,
    PRISMATIC,
    REVOLUTE,
    transform,
)
from armcal.regressor import ComplianceParameterMap, stack_system
from armcal.simulator import simulate_measurements


@pytest.fixture(scope="session")
def nominal_model():
    return reference.nominal_model()


@pytest.fixture(scope="session")
def bundled_design():
    return reference.study_design(seed=0)


@pytest.fixture(scope="session")
def bundled_study(bundled_design, nominal_model):
    return simulate_measurements(bundled_design, nominal_model)


@pytest.fixture(scope="session")
def bundled_system(bundled_study, nominal_model, bundled_design):
    return stack_system(
        bundled_study, nominal_model, bundled_design.cmap, bundled_design.noise
    )


def _random_chain(rng, n_joints=6, prismatic_prob=0.0, n_markers=2):
    """Random serial chain with a generic base/tool and a couple of markers."""
    joints = []
    for _ in range(n_joints):
        kind = PRISMATIC if rng.uniform() < prismatic_prob else REVOLUTE
        joints.append(
            Joint(
                kind=kind,
                a=float(rng.uniform(-0.5, 0.5)),
                alpha=float(rng.uniform(-np.pi, np.pi)),
                d=float(rng.uniform(-0.5, 0.5)),
                theta=float(rng.uniform(-np.pi, np.pi)),
            )
        )
    base = transform(rng.uniform(-0.2, 0.2, size=3), rng.uniform(-0.5, 0.5, size=3))
    tool = transform(rng.uniform(-0.2, 0.2, size=3), rng.uniform(-0.5, 0.5, size=3))
    markers = tuple(rng.uniform(-0.3, 0.3, size=3) for _ in range(n_markers))
    return ManipulatorModel(joints=tuple(joints), base=base, tool=tool, markers=markers)


@pytest.fixture(scope="session")
def make_chain():
    """Factory for random serial chains, parameterized by an injected rng."""
    return _random_chain


@pytest.fixture()
def link1():
    """One revolute joint, 1 m link along x carried by the tool transform."""
    return ManipulatorModel(
        joints=(Joint(kind=REVOLUTE, a=0.0, alpha=0.0, d=0.0, theta=0.0),),
        base=np.eye(4),
        tool=transform(xyz=(1.0, 0.0, 0.0)),
        markers=(np.zeros(3),),
    )


@pytest.fixture()
def link1_cmap():
    return ComplianceParameterMap(tail_joints=(0,))
