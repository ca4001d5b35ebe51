"""Scalar, one-posture kinematics: the reference for the batched kernels.

This is the loop form of the chain: one 4x4 joint transform per joint built
from Python floats and multiplied onto the previous frame, Jacobian columns
assembled one at a time, and the bucket level found by a linear search.  It
does the same floating-point operations in the same order as the batched
kernels of ``armcal.kinematics`` and ``armcal.regressor``, so their results
must equal these bit for bit.
"""

import math

import numpy as np

from armcal.errors import BucketMatchError
from armcal.kinematics import PRISMATIC, REVOLUTE, _TOOL_PARAMS, _parse_param
from armcal.regressor import BUCKET_TOL


def joint_transform(joint, q):
    theta = joint.theta + (q if joint.kind == REVOLUTE else 0.0)
    d = joint.d + (q if joint.kind == PRISMATIC else 0.0)
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(joint.alpha), math.sin(joint.alpha)
    return np.array(
        [
            [ct, -st, 0.0, joint.a],
            [st * ca, ct * ca, -sa, -sa * d],
            [st * sa, ct * sa, ca, ca * d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def frames(model, q):
    """Cumulative transforms T_0^i for i = 0..n (frame 0 is the base)."""
    out = [np.asarray(model.base, dtype=float)]
    for joint, qi in zip(model.joints, q):
        out.append(out[-1] @ joint_transform(joint, qi))
    return out


def tool_pose(model, q, marker):
    """Tool-frame rotation and world position of ``marker``."""
    T = frames(model, q)[-1] @ model.tool
    return T[:3, :3], T[:3, :3] @ model.markers[marker] + T[:3, 3]


def joint_jacobian(model, q, marker):
    """Column j is z x (p - o) and z (revolute) or z and 0 (prismatic)."""
    F = frames(model, q)
    p = tool_pose(model, q, marker)[1]
    J = np.zeros((6, model.n_joints))
    for j, joint in enumerate(model.joints):
        z, o = F[j + 1][:3, 2], F[j + 1][:3, 3]
        if joint.kind == REVOLUTE:
            J[:3, j] = np.cross(z, p - o)
            J[3:, j] = z
        else:
            J[:3, j] = z
    return J


def parameter_jacobian(model, q, marker, params):
    F = frames(model, q)
    p = tool_pose(model, q, marker)[1]
    out = np.zeros((3, len(params)))
    for c, param in enumerate(params):
        field, j = _parse_param(model, param)
        if j < 0:
            out[:, c] = F[-1][:3, _TOOL_PARAMS.index(field)]
        elif field == "alpha":
            out[:, c] = np.cross(F[j][:3, 0], p - F[j][:3, 3])
        elif field == "a":
            out[:, c] = F[j][:3, 0]
        elif field == "theta":
            out[:, c] = np.cross(F[j + 1][:3, 2], p - F[j + 1][:3, 3])
        else:  # d
            out[:, c] = F[j + 1][:3, 2]
    return out


def column_of(cmap, joint, angle):
    if cmap.bucket_levels and joint == cmap.bucket_joint:
        for i, level in enumerate(cmap.bucket_levels):
            if abs(angle - level) <= BUCKET_TOL:
                return i
        raise BucketMatchError(f"joint angle {angle:.8f} rad matches no declared bucket level")
    if joint in cmap.tail_joints:
        return len(cmap.bucket_levels) + cmap.tail_joints.index(joint)
    return None


def elastostatic_regressor(model, q, wrench, fmarker, cmap, marker):
    J_obs = joint_jacobian(model, q, marker)
    torques = joint_jacobian(model, q, fmarker).T @ np.asarray(wrench, dtype=float)
    A = np.zeros((3, cmap.n_parameters))
    for j in range(model.n_joints):
        col = column_of(cmap, j, q[j])
        if col is not None:
            A[:, col] += J_obs[:3, j] * torques[j]
    return A
