"""Forward kinematics and Jacobians against independent oracles.

The oracles here deliberately avoid the library's own composition code:
poses are rebuilt by multiplying elementary rotation/translation matrices
one by one, and every Jacobian is checked against central finite
differences of the forward kinematics.  The batched kernels, and the public
one-posture functions built on them, are also held bit for bit to the scalar
loop form of the chain in ``scalar_chain``.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scalar_chain
from armcal import reference
from armcal.kinematics import (
    Joint,
    ManipulatorModel,
    Pose,
    PRISMATIC,
    REVOLUTE,
    _joint_jacobians,
    _kinematics,
    _parameter_jacobians,
    forward_kinematics,
    joint_jacobian,
    parameter_jacobian,
    perturbed,
    rpy_matrix,
    transform,
)


# --- independent straight-line pose oracle ---------------------------------

def _rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    T = np.eye(4)
    T[1, 1], T[1, 2], T[2, 1], T[2, 2] = c, -s, s, c
    return T


def _rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    T = np.eye(4)
    T[0, 0], T[0, 1], T[1, 0], T[1, 1] = c, -s, s, c
    return T


def _trans(x=0.0, y=0.0, z=0.0):
    T = np.eye(4)
    T[:3, 3] = (x, y, z)
    return T


def oracle_marker_position(model, q, marker):
    """Marker position from an elementary-matrix product, factor by factor."""
    T = np.array(model.base)
    for joint, qi in zip(model.joints, q):
        theta = joint.theta + (qi if joint.kind == REVOLUTE else 0.0)
        d = joint.d + (qi if joint.kind == PRISMATIC else 0.0)
        T = T @ _rot_x(joint.alpha) @ _trans(x=joint.a) @ _rot_z(theta) @ _trans(z=d)
    T = T @ model.tool @ _trans(*model.markers[marker])
    return T[:3, 3]


def fd_joint_jacobian(model, q, marker, h=1e-6):
    q = np.asarray(q, dtype=float)
    cols = []
    for j in range(model.n_joints):
        dq = np.zeros_like(q)
        dq[j] = h
        hi = forward_kinematics(model, q + dq, marker).position
        lo = forward_kinematics(model, q - dq, marker).position
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols)


def fd_parameter_jacobian(model, q, marker, params, h=1e-6):
    cols = []
    for param in params:
        hi = forward_kinematics(perturbed(model, {param: +h}), q, marker).position
        lo = forward_kinematics(perturbed(model, {param: -h}), q, marker).position
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols)


def rel_norm_error(approx, exact):
    return np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-300)


class TestForwardKinematics:
    def test_single_link_zero_angle(self, link1):
        pose = forward_kinematics(link1, [0.0])
        assert_allclose(pose.position, [1.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(pose.rotation, np.eye(3), atol=1e-15)

    def test_single_link_quarter_turn(self, link1):
        pose = forward_kinematics(link1, [math.pi / 2.0])
        assert_allclose(pose.position, [0.0, 1.0, 0.0], atol=1e-12)

    def test_bundled_model_matches_transform_product_oracle(self, nominal_model):
        for q in reference.configurations_rad():
            for marker in range(len(nominal_model.markers)):
                pose = forward_kinematics(nominal_model, q, marker)
                assert_allclose(
                    pose.position,
                    oracle_marker_position(nominal_model, q, marker),
                    rtol=1e-12,
                    atol=1e-12,
                )

    def test_random_chains_match_oracle(self, make_chain):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model = make_chain(rng, prismatic_prob=0.3)
            for _ in range(3):
                q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
                marker = int(rng.integers(len(model.markers)))
                pose = forward_kinematics(model, q, marker)
                assert_allclose(
                    pose.position,
                    oracle_marker_position(model, q, marker),
                    rtol=1e-12,
                    atol=1e-12,
                )

    def test_appending_identity_link_keeps_pose(self, make_chain):
        rng = np.random.default_rng(7)
        model = make_chain(rng)
        extended = ManipulatorModel(
            joints=model.joints + (Joint(kind=REVOLUTE, a=0.0, alpha=0.0, d=0.0, theta=0.0),),
            base=model.base,
            tool=model.tool,
            markers=model.markers,
        )
        q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
        pose = forward_kinematics(model, q)
        pose_ext = forward_kinematics(extended, np.append(q, 0.0))
        assert_allclose(pose_ext.position, pose.position, atol=1e-12)
        assert_allclose(pose_ext.rotation, pose.rotation, atol=1e-12)

    def test_rotation_stays_orthonormal_along_chains(self, make_chain):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = make_chain(rng, n_joints=8, prismatic_prob=0.2)
            q = rng.uniform(-np.pi, np.pi, size=8)
            R = forward_kinematics(model, q).rotation
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
            assert np.linalg.det(R) > 0.0

    def test_marker_index_out_of_range(self, link1):
        with pytest.raises(ValueError, match="marker index"):
            forward_kinematics(link1, [0.0], marker=1)

    def test_rejects_non_finite_joint_vector(self, link1):
        with pytest.raises(ValueError, match="non-finite"):
            forward_kinematics(link1, [np.nan])

    def test_rejects_wrong_joint_count(self, link1):
        with pytest.raises(ValueError, match="expected 1 joint"):
            forward_kinematics(link1, [0.0, 0.0])


class TestJointJacobian:
    def test_planar_revolute_column(self, link1):
        J = joint_jacobian(link1, [0.0])
        assert_allclose(J[:3, 0], [0.0, 1.0, 0.0], atol=1e-15)
        assert_allclose(J[3:, 0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_prismatic_column_along_z(self):
        model = ManipulatorModel(
            joints=(Joint(kind=PRISMATIC, a=0.0, alpha=0.0, d=0.0, theta=0.0),),
            base=np.eye(4),
            tool=np.eye(4),
            markers=(np.zeros(3),),
        )
        J = joint_jacobian(model, [0.3])
        assert_allclose(J[:3, 0], [0.0, 0.0, 1.0], atol=1e-15)
        assert_allclose(J[3:, 0], np.zeros(3), atol=1e-15)

    def test_matches_finite_differences_on_random_chains(self, make_chain):
        rng = np.random.default_rng(42)
        for _ in range(15):
            model = make_chain(rng, prismatic_prob=0.25)
            q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
            marker = int(rng.integers(len(model.markers)))
            J = joint_jacobian(model, q, marker)
            J_fd = fd_joint_jacobian(model, q, marker)
            assert rel_norm_error(J_fd, J[:3]) < 1e-6

    def test_matches_finite_differences_on_bundled_model(self, nominal_model):
        for q in reference.configurations_rad()[:5]:
            J = joint_jacobian(nominal_model, q, marker=2)
            J_fd = fd_joint_jacobian(nominal_model, q, marker=2)
            assert rel_norm_error(J_fd, J[:3]) < 1e-6

    def test_bit_equal_to_per_column_formula(self, make_chain):
        """Each column is z x (p - o) and z (revolute) or z and 0 (prismatic), exactly."""
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(20):
            model = make_chain(rng, prismatic_prob=0.3)
            q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
            marker = int(rng.integers(len(model.markers)))
            kinds.update(joint.kind for joint in model.joints)
            assert np.array_equal(joint_jacobian(model, q, marker),
                                  scalar_chain.joint_jacobian(model, q, marker))
        assert kinds == {REVOLUTE, PRISMATIC}


def random_postures(model, rng, P):
    """``P`` joint vectors and (P, 2) marker index pairs of ``model``."""
    q = rng.uniform(-np.pi, np.pi, size=(P, model.n_joints))
    return q, rng.integers(len(model.markers), size=(P, 2))


class TestBatchedKernels:
    """Every posture of a batch equals the scalar chain, bit for bit."""

    @pytest.mark.parametrize("P", [1, 9])
    def test_frames_rotations_and_positions(self, make_chain, P):
        rng = np.random.default_rng(31 + P)
        kinds = set()
        for _ in range(8):
            model = make_chain(rng, prismatic_prob=0.3)
            kinds.update(joint.kind for joint in model.joints)
            q, markers = random_postures(model, rng, P)
            frames, R, p = _kinematics(model, q, markers)
            assert frames.shape == (P, model.n_joints + 1, 4, 4) and p.shape == (P, 2, 3)
            for i in range(P):
                assert np.array_equal(frames[i], np.array(scalar_chain.frames(model, q[i])))
                for k, marker in enumerate(markers[i]):
                    R_ref, p_ref = scalar_chain.tool_pose(model, q[i], marker)
                    assert np.array_equal(R[i], R_ref) and np.array_equal(p[i, k], p_ref)
                pose = forward_kinematics(model, q[i], markers[i, 0])
                assert np.array_equal(pose.position, p[i, 0]) and np.array_equal(pose.rotation, R[i])
        assert kinds == {REVOLUTE, PRISMATIC}

    @pytest.mark.parametrize("P", [1, 9])
    def test_joint_and_parameter_jacobians(self, make_chain, P):
        rng = np.random.default_rng(41 + P)
        for _ in range(8):
            model = make_chain(rng, prismatic_prob=0.3)
            params = list(rng.permutation(model.parameter_ids()))
            q, markers = random_postures(model, rng, P)
            frames, _, p = _kinematics(model, q, markers[:, :1])
            J = _joint_jacobians(model, frames, p[:, 0])
            Jp = _parameter_jacobians(model, frames, p[:, 0], params)
            assert J.shape == (P, 6, model.n_joints) and Jp.shape == (P, 3, len(params))
            for i, marker in enumerate(markers[:, 0]):
                assert np.array_equal(J[i], scalar_chain.joint_jacobian(model, q[i], marker))
                assert np.array_equal(Jp[i], scalar_chain.parameter_jacobian(model, q[i], marker, params))
                assert np.array_equal(parameter_jacobian(model, q[i], marker, params), Jp[i])

    def test_first_bad_posture_is_reported(self, make_chain):
        model = make_chain(np.random.default_rng(5))  # two markers
        q = np.zeros((3, model.n_joints))
        with pytest.raises(ValueError, match=r"marker index 4 out of range 0\.\.1"):
            _kinematics(model, q, [[0, 1], [4, -1], [2, 0]])
        with pytest.raises(ValueError, match=r"marker index -1 out of range"):
            _kinematics(model, q, [[0, 1], [1, -1], [2, 0]])
        q[1, 2] = np.inf
        with pytest.raises(ValueError, match="joint vector contains non-finite values"):
            _kinematics(model, q, [[0], [0], [0]])
        with pytest.raises(ValueError, match=f"expected {model.n_joints} joint values, got 2"):
            _kinematics(model, np.zeros((3, 2)), [[0], [0], [0]])


class TestParameterJacobian:
    def test_link_length_derivative_is_link_axis(self, link1):
        J = parameter_jacobian(link1, [0.0], 0, ["a1"])
        assert_allclose(J[:, 0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_theta_offset_column_equals_joint_column(self, make_chain):
        rng = np.random.default_rng(11)
        for _ in range(5):
            model = make_chain(rng)
            q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
            params = [f"theta{i}" for i in range(1, model.n_joints + 1)]
            Jp = parameter_jacobian(model, q, 0, params)
            Jq = joint_jacobian(model, q, 0)
            assert_allclose(Jp, Jq[:3], atol=1e-12)

    def test_tool_offset_columns_are_flange_axes(self, make_chain):
        rng = np.random.default_rng(13)
        model = make_chain(rng)
        q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
        J = parameter_jacobian(model, q, 1, ["tool_x", "tool_y", "tool_z"])
        J_fd = fd_parameter_jacobian(model, q, 1, ["tool_x", "tool_y", "tool_z"])
        assert rel_norm_error(J_fd, J) < 1e-6
        # columns are unit length: pure translations of the tool frame
        assert_allclose(np.linalg.norm(J, axis=0), np.ones(3), atol=1e-12)

    def test_matches_finite_differences_on_random_chains(self, make_chain):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model = make_chain(rng, prismatic_prob=0.25)
            params = model.parameter_ids()
            for _ in range(3):
                q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
                marker = int(rng.integers(len(model.markers)))
                J = parameter_jacobian(model, q, marker, params)
                J_fd = fd_parameter_jacobian(model, q, marker, params)
                assert rel_norm_error(J_fd, J) < 1e-6

    def test_empty_selection_rejected(self, link1):
        with pytest.raises(ValueError, match="empty"):
            parameter_jacobian(link1, [0.0], 0, [])

    @pytest.mark.parametrize("param", ["a7", "beta1", "tool_w", "theta0", ""])
    def test_unknown_parameter_rejected(self, link1, param):
        with pytest.raises(ValueError, match="unknown geometric parameter"):
            parameter_jacobian(link1, [0.0], 0, [param])

    def test_parameter_ids_cover_joints_and_tool(self, nominal_model):
        ids = nominal_model.parameter_ids()
        assert len(ids) == 4 * 6 + 3
        assert ids[:4] == ("a1", "alpha1", "d1", "theta1")
        assert ids[-3:] == ("tool_x", "tool_y", "tool_z")


class TestPerturbed:
    def test_shifts_named_parameters(self, link1):
        shifted = perturbed(link1, {"a1": 0.25, "theta1": 0.1, "tool_z": -0.05})
        assert shifted.joints[0].a == pytest.approx(0.25)
        assert shifted.joints[0].theta == pytest.approx(0.1)
        assert shifted.tool[2, 3] == pytest.approx(-0.05)
        # the source model is untouched
        assert link1.joints[0].a == 0.0
        assert link1.tool[2, 3] == 0.0

    def test_zero_deltas_reproduce_positions(self, make_chain):
        rng = np.random.default_rng(5)
        model = make_chain(rng)
        q = rng.uniform(-np.pi, np.pi, size=model.n_joints)
        same = perturbed(model, {})
        assert_allclose(
            forward_kinematics(same, q).position,
            forward_kinematics(model, q).position,
            atol=1e-15,
        )


class TestValidation:
    def test_bad_rotation_block_rejected(self):
        T = np.eye(4)
        T[0, 0] = 1.1
        with pytest.raises(ValueError, match=r"base rotation is not a proper rotation \(\|R'R - I\| = 2\.100e-01, "):
            ManipulatorModel(
                joints=(Joint(kind=REVOLUTE, a=0, alpha=0, d=0, theta=0),),
                base=T,
                tool=np.eye(4),
                markers=(np.zeros(3),),
            )

    def test_left_handed_rotation_rejected(self):
        T = np.eye(4)
        T[0, 0] = -1.0
        with pytest.raises(ValueError, match=r"tool rotation is not a proper rotation "
                                             r"\(\|R'R - I\| = 0\.000e\+00, det R = -1\.000e\+00\)"):
            ManipulatorModel(
                joints=(Joint(kind=REVOLUTE, a=0, alpha=0, d=0, theta=0),),
                base=np.eye(4),
                tool=T,
                markers=(np.zeros(3),),
            )

    @pytest.mark.parametrize("base, message", [
        (np.eye(3), r"base transform must be 4x4, got \(3, 3\)"),
        (np.vstack([[1.0, 0.0, 0.0, np.nan], np.eye(4)[1:]]), "base transform contains non-finite entries"),
        (np.vstack([np.eye(4)[:3], [0.5, 0.0, 0.0, 1.0]]), "base transform has a non-trivial last row"),
    ], ids=["shape", "non-finite", "last-row"])
    def test_base_that_is_no_rigid_transform_rejected(self, base, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ManipulatorModel(joints=(Joint(kind=REVOLUTE, a=0, alpha=0, d=0, theta=0),), base=base, tool=np.eye(4),
                             markers=(np.zeros(3),))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one joint"):
            ManipulatorModel(joints=(), base=np.eye(4), tool=np.eye(4), markers=(np.zeros(3),))

    def test_model_without_markers_rejected(self):
        with pytest.raises(ValueError, match="at least one marker"):
            ManipulatorModel(
                joints=(Joint(kind=REVOLUTE, a=0, alpha=0, d=0, theta=0),),
                base=np.eye(4),
                tool=np.eye(4),
                markers=(),
            )

    def test_non_finite_marker_rejected(self):
        with pytest.raises(ValueError, match="marker 0"):
            ManipulatorModel(
                joints=(Joint(kind=REVOLUTE, a=0, alpha=0, d=0, theta=0),),
                base=np.eye(4),
                tool=np.eye(4),
                markers=(np.array([np.inf, 0.0, 0.0]),),
            )

    def test_unknown_joint_kind_rejected(self):
        with pytest.raises(ValueError, match="joint kind"):
            Joint(kind="helical", a=0, alpha=0, d=0, theta=0)

    def test_non_finite_joint_parameter_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            Joint(kind=REVOLUTE, a=np.nan, alpha=0, d=0, theta=0)

    def test_pose_requires_proper_rotation(self):
        with pytest.raises(ValueError, match="pose rotation is not a proper rotation"):
            Pose(position=np.zeros(3), rotation=np.eye(3) * 2.0)
        with pytest.raises(ValueError, match=r"\(\|R'R - I\| = 0\.000e\+00, det R = -1\.000e\+00\)"):
            Pose(position=np.zeros(3), rotation=np.diag([1.0, 1.0, -1.0]))
        R = np.eye(3)
        R[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError, match=r"\|R'R - I\| = 2\.000e-06, det R = 1\.000e\+00"):
            Pose(position=np.zeros(3), rotation=R)
        with pytest.raises(ValueError, match=r"pose rotation must be 3x3, got \(2, 2\)"):
            Pose(position=np.zeros(3), rotation=np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pose_refuses_non_finite_values(self, bad):
        # refused as ValueErrors, with no RuntimeWarning from the determinant on the way
        with pytest.raises(ValueError, match=r"pose rotation is not a proper rotation \(\|R'R - I\| = (nan|inf)"):
            Pose(position=np.zeros(3), rotation=np.full((3, 3), bad))
        R = np.eye(3)
        R[1, 2] = bad
        with pytest.raises(ValueError, match="pose rotation is not a proper rotation"):
            Pose(position=np.zeros(3), rotation=R)
        with pytest.raises(ValueError, match="pose position is not finite"):
            Pose(position=[0.0, 0.0, bad], rotation=np.eye(3))

    def test_rpy_matrix_is_composed_rotation(self):
        rng = np.random.default_rng(2)
        roll, pitch, yaw = rng.uniform(-np.pi, np.pi, size=3)
        R = rpy_matrix(roll, pitch, yaw)
        Rz = _rot_z(yaw)[:3, :3]
        Ry = np.array(
            [
                [math.cos(pitch), 0.0, math.sin(pitch)],
                [0.0, 1.0, 0.0],
                [-math.sin(pitch), 0.0, math.cos(pitch)],
            ]
        )
        Rx = _rot_x(roll)[:3, :3]
        assert_allclose(R, Rz @ Ry @ Rx, atol=1e-15)

    def test_transform_places_translation(self):
        T = transform(xyz=(1.0, 2.0, 3.0))
        assert_allclose(T[:3, 3], [1.0, 2.0, 3.0], atol=0)
        assert_allclose(T[:3, :3], np.eye(3), atol=0)
