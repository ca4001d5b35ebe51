"""Serial-chain forward kinematics and calibration Jacobians.

The chain uses modified Denavit-Hartenberg parameters: the transform carried
by joint ``i`` (all angles in radians, lengths in meters) is

    A_i = Rx(alpha_i) @ Tx(a_i) @ Rz(theta_i + q_i) @ Tz(d_i)   revolute
    A_i = Rx(alpha_i) @ Tx(a_i) @ Rz(theta_i) @ Tz(d_i + q_i)   prismatic

composed left to right behind a fixed base transform and followed by a fixed
tool transform.  Markers are fixed points of the tool frame; all public
positions are marker positions in the world (base/measurement) frame.
The base and tool rotation blocks and a :class:`Pose` rotation pass one rule,
:func:`_check_rotation`: finite, |R'R - I| <= 1e-9 (``_ROTATION_TOL``), det R > 0.
Every checked constructor of the package stores its arrays through :func:`_frozen`: no write
through an array its caller held reaches them, unless one is made writeable again on purpose.

The private kernels take P postures at once (``_kinematics`` advances every
chain by one stacked product per joint); the public functions are their P = 1
case, and a batch equals its postures computed one at a time, bit for bit.

Geometric parameters are addressed by string ids: ``a3``, ``alpha3``, ``d3``,
``theta3`` for joint 3 (1-based numbering) plus ``tool_x``/``tool_y``/``tool_z``
for the tool-frame translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

_TOOL_PARAMS = ("tool_x", "tool_y", "tool_z")
_JOINT_FIELDS = ("a", "alpha", "d", "theta")

#: Orthonormality tolerance of the one rotation rule, :func:`_check_rotation`.
_ROTATION_TOL = 1e-9


def _frozen(a, dtype=float, shape=None) -> np.ndarray:
    """``a`` (reshaped to ``shape``, if given) as a read-only ``dtype`` array, shared only when it and the array
    that owns its memory are both read-only ndarrays, else copied.  So no write through an array the caller held
    reaches it, unless someone makes the owner writeable again on purpose, which numpy allows."""
    if shape is not None:
        a = np.reshape(a, shape)
    owner = a.base if isinstance(a, np.ndarray) and a.base is not None else a
    shared = isinstance(owner, np.ndarray) and not (a.flags.writeable or owner.flags.writeable)
    a = np.array(a, dtype=dtype, copy=None if shared else True)
    a.setflags(write=False)
    return a


def _check_rotation(R, what: str) -> np.ndarray:
    """``R`` through :func:`_frozen`; raise unless it is a 3x3 proper rotation (the module's one rule)."""
    R = _frozen(R)
    if R.shape != (3, 3):
        raise ValueError(f"{what} rotation must be 3x3, got {R.shape}")
    with np.errstate(invalid="ignore"):  # a non-finite R reads NaN or inf in both and is refused
        err = np.max(np.abs(R.T @ R - np.eye(3)))
        det = np.linalg.det(R)
    if not (err <= _ROTATION_TOL and det > 0.0):
        raise ValueError(f"{what} rotation is not a proper rotation (|R'R - I| = {err:.3e}, det R = {det:.3e})")
    return R


def _check_rigid(T, what: str) -> np.ndarray:
    """``T`` through :func:`_frozen`; raise unless a 4x4 rigid transform (rotation: :func:`_check_rotation`)."""
    T = _frozen(T)
    if T.shape != (4, 4):
        raise ValueError(f"{what} transform must be 4x4, got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError(f"{what} transform contains non-finite entries")
    _check_rotation(T[:3, :3], what)
    if np.max(np.abs(T[3] - (0.0, 0.0, 0.0, 1.0))) > 0.0:
        raise ValueError(f"{what} transform has a non-trivial last row")
    return T


@dataclass(frozen=True)
class Joint:
    """One modified-DH joint record.  ``theta`` is the fixed offset angle."""

    kind: str
    a: float
    alpha: float
    d: float
    theta: float

    def __post_init__(self):
        if self.kind not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        for name in _JOINT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"joint parameter {name!r} is not finite")


@dataclass(frozen=True)
class ManipulatorModel:
    """Kinematic description: base, DH joints, tool transform, tool markers.

    ``markers`` are fixed 3-vector offsets expressed in the tool frame.
    """

    joints: tuple[Joint, ...]
    base: np.ndarray
    tool: np.ndarray
    markers: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.joints) < 1:
            raise ValueError("model needs at least one joint")
        base = _check_rigid(self.base, "base")
        tool = _check_rigid(self.tool, "tool")
        if len(self.markers) < 1:
            raise ValueError("model needs at least one marker")
        markers = tuple(_frozen(m, float, 3) for m in self.markers)
        for i, m in enumerate(markers):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"marker {i} offset is not finite")
        for name, value in (("joints", tuple(self.joints)), ("base", base), ("tool", tool), ("markers", markers)):
            object.__setattr__(self, name, value)

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    def parameter_ids(self) -> tuple[str, ...]:
        """All identifiable geometric parameter ids, joints first, then tool."""
        ids = []
        for i in range(1, self.n_joints + 1):
            ids.extend(f"{field}{i}" for field in _JOINT_FIELDS)
        ids.extend(_TOOL_PARAMS)
        return tuple(ids)


@dataclass(frozen=True)
class Pose:
    """Rigid pose: marker position (m) and rotation of the tool frame."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        p = _frozen(self.position, float, 3)
        if not np.all(np.isfinite(p)):
            raise ValueError("pose position is not finite")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "rotation", _check_rotation(self.rotation, "pose"))


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis x-y-z rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def transform(xyz: Sequence[float] = (0.0, 0.0, 0.0), rpy: Sequence[float] = (0.0, 0.0, 0.0)) -> np.ndarray:
    """Homogeneous transform from a translation and fixed-axis rpy angles (radians)."""
    T = np.eye(4)
    T[:3, :3] = rpy_matrix(*rpy)
    T[:3, 3] = np.asarray(xyz, dtype=float)
    return T


def _check_q(model: ManipulatorModel, q) -> np.ndarray:
    """Joint vectors as a (P, n) float array, one posture per row."""
    q = np.asarray(q, dtype=float)
    if q.shape[1] != model.n_joints:
        raise ValueError(f"expected {model.n_joints} joint values, got {q.shape[1]}")
    if not np.all(np.isfinite(q)):
        raise ValueError("joint vector contains non-finite values")
    return q


def _check_marker(model: ManipulatorModel, marker) -> np.ndarray:
    """Marker indices as an array; the first one outside the model, in row-major order, raises."""
    marker = np.asarray(marker)
    outside = (marker < 0) | (marker >= len(model.markers))
    if np.any(outside):
        raise ValueError(f"marker index {marker[outside][0]} out of range 0..{len(model.markers) - 1}")
    return marker


def _kinematics(model: ManipulatorModel, q, marker) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames T_0^i, i = 0..n (P, n + 1, 4, 4; frame 0 is the base), tool rotations (P, 3, 3)
    and world positions (P, m, 3) of markers ``marker`` (P, m) at joint vectors ``q`` (P, n)."""
    q = _check_q(model, q)
    marker = _check_marker(model, marker)
    revolute = np.array([joint.kind == REVOLUTE for joint in model.joints])
    a, alpha, d, theta = (np.array([getattr(joint, f) for joint in model.joints]) for f in _JOINT_FIELDS)
    theta = theta + np.where(revolute, q, 0.0)
    d = d + np.where(revolute, 0.0, q)
    ct, st, ca, sa = np.cos(theta), np.sin(theta), np.cos(alpha), np.sin(alpha)
    A = np.zeros(q.shape + (4, 4))  # the joint transforms A_i of every posture
    A[..., 0, 0], A[..., 0, 1], A[..., 0, 3] = ct, -st, a
    A[..., 1, 0], A[..., 1, 1], A[..., 1, 2], A[..., 1, 3] = st * ca, ct * ca, -sa, -sa * d
    A[..., 2, 0], A[..., 2, 1], A[..., 2, 2], A[..., 2, 3] = st * sa, ct * sa, ca, ca * d
    A[..., 3, 3] = 1.0
    frames = np.empty((len(q), model.n_joints + 1, 4, 4))
    frames[:, 0] = model.base
    for i in range(model.n_joints):
        np.matmul(frames[:, i], A[:, i], out=frames[:, i + 1])
    T = frames[:, -1] @ model.tool
    R = T[:, :3, :3]
    p = (R[:, None] @ np.asarray(model.markers)[marker][..., None])[..., 0] + T[:, None, :3, 3]
    return frames, R, p


def forward_kinematics(model: ManipulatorModel, q, marker: int = 0) -> Pose:
    """Pose of a tool marker: world position plus the tool-frame rotation."""
    _, R, p = _kinematics(model, np.reshape(q, (1, -1)), [[marker]])
    pose = object.__new__(Pose)  # unchecked: a checked base and tool may compose to just past the tolerance
    for name, arr in (("position", p[0, 0]), ("rotation", R[0])):
        object.__setattr__(pose, name, _frozen(arr))
    return pose


def _joint_jacobians(model: ManipulatorModel, frames: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(P, 6, n) joint Jacobians at the marker positions ``p`` (P, 3) of :func:`_kinematics` frames."""
    z, o = frames[:, 1:, :3, 2], frames[:, 1:, :3, 3]
    revolute = np.array([[joint.kind == REVOLUTE] for joint in model.joints])
    J = np.zeros((len(p), 6, model.n_joints))
    J[:, :3] = np.swapaxes(np.where(revolute, np.cross(z, p[:, None] - o), z), 1, 2)
    J[:, 3:] = np.swapaxes(np.where(revolute, z, 0.0), 1, 2)
    return J


def joint_jacobian(model: ManipulatorModel, q, marker: int = 0) -> np.ndarray:
    """6 x n jacobian of the marker twist w.r.t. joint motion.

    Rows 0..2 are the linear part (marker velocity), rows 3..5 the angular
    part.  Column j uses the joint-j axis line: for a revolute joint the
    linear block is z_j x (p - o_j), for a prismatic joint it is z_j.
    """
    frames, _, p = _kinematics(model, np.reshape(q, (1, -1)), [[marker]])
    return _joint_jacobians(model, frames, p[:, 0])[0]


def _parse_param(model: ManipulatorModel, param: str) -> tuple[str, int]:
    """Split a parameter id into (field, joint index).  Tool ids map to joint -1."""
    if param in _TOOL_PARAMS:
        return param, -1
    for field in _JOINT_FIELDS:
        if param.startswith(field):
            suffix = param[len(field):]
            if suffix.isdigit():
                idx = int(suffix) - 1
                if 0 <= idx < model.n_joints:
                    return field, idx
    raise ValueError(f"unknown geometric parameter id {param!r}")


def _parameter_jacobians(model: ManipulatorModel, frames: np.ndarray, p: np.ndarray,
                         params: Sequence[str]) -> np.ndarray:
    """(P, 3, k) parameter Jacobians at the positions ``p`` (P, 3) of :func:`_kinematics` frames."""
    out = np.zeros((len(p), 3, len(params)))
    for c, (field, j) in enumerate([_parse_param(model, param) for param in params]):
        if j < 0:
            out[:, :, c] = frames[:, -1, :3, _TOOL_PARAMS.index(field)]
        elif field in ("alpha", "a"):
            x = frames[:, j, :3, 0]
            out[:, :, c] = np.cross(x, p - frames[:, j, :3, 3]) if field == "alpha" else x
        else:  # theta, d
            z = frames[:, j + 1, :3, 2]
            out[:, :, c] = np.cross(z, p - frames[:, j + 1, :3, 3]) if field == "theta" else z
    return out


def parameter_jacobian(model: ManipulatorModel, q, marker: int, params: Sequence[str]) -> np.ndarray:
    """3 x len(params) derivative of the marker position w.r.t. geometric parameters.

    Derivatives follow from the screw geometry of the modified-DH factors:

    * ``alpha_i``: rotation about the x axis of frame i-1 -> x_{i-1} x (p - o_{i-1})
    * ``a_i``:     translation along that same x axis      -> x_{i-1}
    * ``theta_i``: rotation about the joint-i axis line    -> z_i x (p - o_i)
    * ``d_i``:     translation along the joint-i axis      -> z_i
    * ``tool_*``:  translation of the tool frame           -> flange rotation column
    """
    params = list(params)
    if not params:
        raise ValueError("parameter selection is empty")
    frames, _, p = _kinematics(model, np.reshape(q, (1, -1)), [[marker]])
    return _parameter_jacobians(model, frames, p[:, 0], params)[0]


def perturbed(model: ManipulatorModel, deltas: Mapping[str, float]) -> ManipulatorModel:
    """Copy of ``model`` with geometric parameters shifted by ``deltas``."""
    joints = list(model.joints)
    tool = np.array(model.tool)
    for param, delta in deltas.items():
        field, j = _parse_param(model, param)
        if j < 0:
            tool[_TOOL_PARAMS.index(field), 3] += delta
        else:
            joints[j] = replace(joints[j], **{field: getattr(joints[j], field) + delta})
    return ManipulatorModel(joints=tuple(joints), base=model.base, tool=tool, markers=model.markers)

