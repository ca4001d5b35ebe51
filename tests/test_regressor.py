"""Observation-equation construction: compliance/geometry columns and stacking."""

import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import scalar_chain
from row_level import residuals, row_std, unfolded
from armcal import estimator, kinematics, reference, regressor
from armcal.errors import BucketMatchError, MissingNoiseError, RankDeficientError
from armcal.estimator import irls, ols_estimate, optimal_weights, robust_weights, wls_estimate
from armcal.kinematics import (
    PRISMATIC,
    REVOLUTE,
    forward_kinematics,
    joint_jacobian,
    parameter_jacobian,
    perturbed,
)
from armcal.noise import DEFAULT_SIGMA0, NoiseModel, build_sigma
from armcal.regressor import (
    ComplianceParameterMap,
    StackedSystem,
    Study,
    elastostatic_regressor,
    stack_system,
)
from armcal.simulator import simulate_measurements


def one_row_study(force=(0.0, 0.0, -1.0), p0=(1.0, 2.0, 3.0), p=(1.5, 1.5, 3.25), n_joints=6):
    return Study(config=[1], marker=[0], rep=[1], q=np.zeros((1, n_joints)), force=[force],
                 fmarker=[0], p0=[p0], p=[p])


class TestWrench:
    """The wrench of ``elastostatic_regressor``: a 6-vector, force then torque."""

    def test_vector_layout(self, link1, link1_cmap):
        # the marker sits 1 m along x of a joint about z: a force of 10 N
        # along y and a torque of 10 N m about z load the joint alike
        by_force = elastostatic_regressor(link1, [0.0], [0.0, 10.0, 0.0, 0.0, 0.0, 0.0], 0, link1_cmap, 0)
        by_torque = elastostatic_regressor(link1, [0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 10.0], 0, link1_cmap, 0)
        assert_allclose(by_torque, by_force, atol=1e-12)
        assert_allclose(by_torque[:, 0], [0.0, 10.0, 0.0], atol=1e-12)

    def test_default_torque_is_zero(self, link1, link1_cmap):
        # a study has no torque column: its force is applied with zero torque
        study = one_row_study(force=(0.0, 10.0, 0.0), n_joints=1)
        sys = stack_system(study, link1, link1_cmap, NoiseModel.uniform([1], 1e-5))
        expected = elastostatic_regressor(link1, [0.0], [0.0, 10.0, 0.0, 0.0, 0.0, 0.0], 0, link1_cmap, 0)
        assert_array_equal(sys.B, expected)

    def test_rejects_non_finite_force(self, link1, link1_cmap):
        with pytest.raises(ValueError, match="finite"):
            elastostatic_regressor(link1, [0.0], [np.inf, 0.0, 0.0, 0.0, 0.0, 0.0], 0, link1_cmap, 0)


class TestComplianceParameterMap:
    def test_parameter_names_buckets_then_tails(self):
        cmap = ComplianceParameterMap(bucket_levels=(-1.0, 0.5), tail_joints=(2, 3))
        assert cmap.parameter_names == ("k2_1", "k2_2", "k3", "k4")
        assert cmap.n_parameters == 4

    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ComplianceParameterMap(bucket_levels=(0.5, -1.0), tail_joints=(2,))

    def test_near_duplicate_levels_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ComplianceParameterMap(bucket_levels=(0.0, 1e-8), tail_joints=(2,))

    def test_duplicate_tail_joints_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ComplianceParameterMap(tail_joints=(2, 2))

    def test_bucket_joint_cannot_be_tail(self):
        with pytest.raises(ValueError, match="cannot also"):
            ComplianceParameterMap(bucket_levels=(0.0,), tail_joints=(ComplianceParameterMap.bucket_joint,))

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ComplianceParameterMap()

    def test_bucket_index_matches_within_tolerance(self):
        cmap = ComplianceParameterMap(bucket_levels=(-1.0, 0.5), tail_joints=(2,))
        assert cmap.bucket_index(-1.0 + 5e-7) == 0
        assert cmap.bucket_index(0.5) == 1

    def test_bucket_index_rejects_unmatched_angle(self):
        cmap = ComplianceParameterMap(bucket_levels=(-1.0, 0.5), tail_joints=(2,))
        with pytest.raises(BucketMatchError, match="matches no declared bucket"):
            cmap.bucket_index(0.4999)

    def test_bucket_index_of_an_array_names_the_first_unmatched_angle(self):
        cmap = ComplianceParameterMap(bucket_levels=(-1.0, 0.5), tail_joints=(2,))
        assert_array_equal(cmap.bucket_index([0.5, -1.0 + 5e-7, 0.5 - 5e-7]), [1, 0, 1])
        assert_array_equal(cmap.column_of(1, np.array([-1.0, 0.5])), [0, 1])
        with pytest.raises(BucketMatchError, match="joint angle 0.40000000 rad"):
            cmap.bucket_index([0.5, 0.4, 0.3])

    def test_column_of_routes_joints(self):
        cmap = ComplianceParameterMap(bucket_levels=(-1.0, 0.5), tail_joints=(2, 4))
        assert cmap.column_of(1, 0.5) == 1
        assert cmap.column_of(2, 123.0) == 2
        assert cmap.column_of(4, 0.0) == 3
        assert cmap.column_of(0, 0.0) is None  # unmapped joint stays rigid

    def test_from_configurations_collects_sorted_levels(self):
        cmap = ComplianceParameterMap.from_configurations(reference.configurations_rad())
        expected = np.deg2rad([-140.0, -99.85, -56.9, -25.24, -0.01])
        assert_allclose(cmap.bucket_levels, expected, rtol=1e-12)
        assert cmap.tail_joints == (2, 3, 4, 5)
        assert cmap.parameter_names == (
            "k2_1", "k2_2", "k2_3", "k2_4", "k2_5", "k3", "k4", "k5", "k6",
        )

    @pytest.mark.parametrize("q", [np.zeros((3, 1)), np.zeros(6)])
    def test_from_configurations_needs_rows_of_two_joints(self, q):
        with pytest.raises(ValueError, match="at least two joints"):
            ComplianceParameterMap.from_configurations(q)


class TestElastostaticRegressor:
    def test_single_joint_column(self, link1, link1_cmap):
        A = elastostatic_regressor(link1, [0.0], [0.0, 10.0, 0.0, 0.0, 0.0, 0.0], 0, link1_cmap, marker=0)
        assert A.shape == (3, 1)
        assert_allclose(A[:, 0], [0.0, 10.0, 0.0], atol=1e-12)

    def test_zero_force_gives_zero_matrix(self, link1, link1_cmap):
        A = elastostatic_regressor(link1, [0.7], np.zeros(6), 0, link1_cmap, 0)
        assert_array_equal(A, np.zeros((3, 1)))

    def test_term_by_term_oracle(self, make_chain):
        rng = np.random.default_rng(42)
        for _ in range(5):
            model = make_chain(rng)
            n = model.n_joints
            cmap = ComplianceParameterMap(tail_joints=tuple(range(n)))
            q = rng.uniform(-np.pi, np.pi, size=n)
            wrench = np.concatenate([rng.uniform(-500.0, 500.0, size=3),  # force, then torque
                                     rng.uniform(-50.0, 50.0, size=3)])
            k = rng.uniform(1e-7, 5e-6, size=n)
            A = elastostatic_regressor(model, q, wrench, 0, cmap, marker=0)
            J = joint_jacobian(model, q, 0)
            expected = np.zeros(3)
            for j in range(n):
                expected += k[j] * J[:3, j] * float(J[:, j] @ wrench)
            assert_allclose(A @ k, expected, rtol=1e-12, atol=1e-18)

    def test_linear_in_the_wrench(self, link1, link1_cmap):
        base = elastostatic_regressor(link1, [0.3], [0.0, 10.0, 0.0, 0.0, 0.0, 0.0], 0, link1_cmap, 0)
        doubled = elastostatic_regressor(link1, [0.3], [0.0, 20.0, 0.0, 0.0, 0.0, 0.0], 0, link1_cmap, 0)
        assert_array_equal(doubled, 2.0 * base)

    def test_torques_taken_at_application_marker(self, nominal_model):
        cmap = reference.compliance_map()
        q = reference.configurations_rad()[0]
        wrench = np.array([0.0, 0.0, -2600.0, 0.0, 0.0, 0.0])
        A = elastostatic_regressor(nominal_model, q, wrench, 0, cmap, marker=2)
        J_obs = joint_jacobian(nominal_model, q, 2)
        J_app = joint_jacobian(nominal_model, q, 0)
        torques = J_app.T @ wrench
        expected = np.zeros_like(A)
        for j in range(nominal_model.n_joints):
            col = cmap.column_of(j, q[j])
            if col is not None:
                expected[:, col] += J_obs[:3, j] * torques[j]
        assert_array_equal(A, expected)

    def test_bucket_exclusivity(self, nominal_model):
        cmap = reference.compliance_map()
        wrench = np.array([0.0, 0.0, -2600.0, 0.0, 0.0, 0.0])
        n_buckets = len(cmap.bucket_levels)
        for q in reference.configurations_rad():
            A = elastostatic_regressor(nominal_model, q, wrench, 0, cmap, marker=0)
            bucket_cols = A[:, :n_buckets]
            nonzero = [c for c in range(n_buckets) if np.any(bucket_cols[:, c] != 0.0)]
            assert len(nonzero) == 1
            assert nonzero[0] == cmap.bucket_index(q[cmap.bucket_joint])

    @pytest.mark.parametrize("P", [1, 9])
    def test_batched_regressors_equal_scalar_reference(self, make_chain, P):
        rng = np.random.default_rng(53 + P)
        for _ in range(6):
            model = make_chain(rng, prismatic_prob=0.3, n_markers=3)
            q = rng.uniform(-np.pi, np.pi, size=(P, model.n_joints))
            q[:, 1] = rng.choice([-1.2, 0.1, 0.9], size=P)  # on the bucket levels
            cmap = ComplianceParameterMap(bucket_levels=(-1.2, 0.1, 0.9), tail_joints=(0, 3, 4))
            wrench = np.concatenate([rng.uniform(-500.0, 500.0, size=(P, 3)),
                                     rng.uniform(-50.0, 50.0, size=(P, 3))], axis=1)
            markers = rng.integers(3, size=(P, 2))  # observed, loaded
            frames, _, p = kinematics._kinematics(model, q, markers)
            A = regressor._regressors(model, q, frames, p, wrench, cmap)
            assert A.shape == (P, 3, cmap.n_parameters)
            for i, (marker, fmarker) in enumerate(markers):
                expected = scalar_chain.elastostatic_regressor(model, q[i], wrench[i], fmarker, cmap, marker)
                assert np.array_equal(A[i], expected)
                assert np.array_equal(elastostatic_regressor(model, q[i], wrench[i], fmarker, cmap, marker),
                                      expected)

    def test_unmatched_bucket_angle_raises(self, nominal_model):
        cmap = reference.compliance_map()
        q = np.array(reference.configurations_rad()[0])
        q[1] += 0.01  # off every declared level
        with pytest.raises(BucketMatchError):
            elastostatic_regressor(nominal_model, q, [0.0, 0.0, -1.0, 0.0, 0.0, 0.0], 0, cmap, 0)


class TestGeometricRegressor:
    """The geometric regressor block of a record is ``parameter_jacobian``."""

    def test_zero_deviation_predicts_zero_shift(self, nominal_model):
        q = reference.configurations_rad()[0]
        J = parameter_jacobian(nominal_model, q, 0, list(nominal_model.parameter_ids()))
        assert_array_equal(J @ np.zeros(J.shape[1]), np.zeros(3))

    def test_first_order_prediction_matches_fk_difference(self, nominal_model):
        delta = 1e-5
        q = reference.configurations_rad()[2]
        J = parameter_jacobian(nominal_model, q, 0, ["a2"])
        predicted = J[:, 0] * delta
        shifted = perturbed(nominal_model, {"a2": delta})
        actual = (
            forward_kinematics(shifted, q).position
            - forward_kinematics(nominal_model, q).position
        )
        assert np.linalg.norm(predicted - actual) <= 1e-3 * np.linalg.norm(actual)


class TestStackSystem:
    def test_bundled_study_dimensions(self, bundled_system):
        row_class = bundled_system.row_class
        assert bundled_system.n_equations == 810
        assert bundled_system.n_parameters == 9
        assert bundled_system.B[row_class].shape == (810, 9)
        for per_class in (bundled_system.config, bundled_system.marker, bundled_system.axis,
                          bundled_system.class_group_plan.label):
            assert per_class[row_class].shape == (810,)
        assert bundled_system.columns == (
            "k2_1", "k2_2", "k2_3", "k2_4", "k2_5", "k3", "k4", "k5", "k6",
        )

    def test_single_record_rows_and_tags(self, nominal_model):
        design = reference.study_design(seed=1, markers=1, repetitions=1)
        first = simulate_measurements(design, nominal_model).take([0])
        sys = stack_system(
            first,
            nominal_model,
            ComplianceParameterMap(tail_joints=(2, 3, 4)),
            design.noise,
        )
        assert sys.n_equations == 3
        assert_array_equal(sys.config, [1, 1, 1])
        assert_array_equal(sys.marker, [0, 0, 0])
        assert_array_equal(sys.axis, [0, 1, 2])  # x, y, z

    def test_group_numbers_config_axis_pairs(self, bundled_system):
        sys = bundled_system
        group, config, axis = (a[sys.row_class] for a in (sys.class_group_plan.label, sys.config, sys.axis))
        # configuration 1 (rows 0..53): 3 markers x 6 repetitions per axis
        assert_array_equal(np.bincount(group), np.full(45, 18))
        pairs = {(c, a): g for c, a, g in zip(config, axis, group)}
        assert len(pairs) == len(set(pairs.values())) == 45
        assert group[0] == group[3 * 6]  # marker 1, same axis
        assert group[0] != group[1]  # same record, next axis

    def test_replace_shares_row_metadata(self, bundled_system):
        sys2 = replace(bundled_system, dp=np.zeros(810))
        for name in ("config", "marker", "axis"):
            assert np.shares_memory(getattr(sys2, name), getattr(bundled_system, name))
            assert not getattr(sys2, name).flags.writeable
        assert_array_equal(sys2.class_group_plan.label, bundled_system.class_group_plan.label)

    def test_row_order_independent_of_input_order(
        self, bundled_study, nominal_model, bundled_design, bundled_system
    ):
        rng = np.random.default_rng(42)
        shuffled = bundled_study.take(rng.permutation(len(bundled_study)))
        sys2 = stack_system(
            shuffled, nominal_model, bundled_design.cmap, bundled_design.noise
        )
        assert_array_equal(sys2.B, bundled_system.B)
        assert_array_equal(sys2.dp, bundled_system.dp)
        assert_array_equal(sys2.sigma, bundled_system.sigma)
        for name in ("config", "marker", "axis", "row_class"):
            assert_array_equal(getattr(sys2, name), getattr(bundled_system, name))
        assert_array_equal(sys2.class_group_plan.label, bundled_system.class_group_plan.label)
        x1 = ols_estimate(bundled_system).x_hat
        x2 = ols_estimate(sys2).x_hat
        assert_allclose(x2, x1, rtol=1e-12)

    def test_under_determined_stack_refused_by_every_solver(self, nominal_model, bundled_design):
        design = reference.study_design(seed=1, markers=1, repetitions=1)
        records = simulate_measurements(design, nominal_model).take(slice(2))  # 6 rows < 9 params
        sys = stack_system(records, nominal_model, bundled_design.cmap, design.noise)
        assert (sys.n_equations, sys.n_parameters) == (6, 9)
        for solve in (ols_estimate, lambda s: wls_estimate(s, robust_weights(s.sigma)), irls):
            with pytest.raises(RankDeficientError, match=r"rank deficient \(\d/9\)") as err:
                solve(sys)
            assert err.value.directions

    def test_missing_noise_entry_rejected(
        self, bundled_study, nominal_model, bundled_design
    ):
        partial = NoiseModel(config=[1], sigma=np.full((1, 3), 1e-5))
        with pytest.raises(MissingNoiseError, match="configuration 2"):
            stack_system(bundled_study, nominal_model, bundled_design.cmap, partial)

    def test_sigma_rows_follow_configuration_and_axis(self, bundled_system):
        # configuration 1 carries dispersions (150, 64, 33) um on x, y, z
        first = bundled_system.sigma[bundled_system.row_class][:3]
        assert_allclose(first, np.array([150.0, 64.0, 33.0]) * 1e-6, rtol=1e-12)

    def test_zero_sigma_floored(self, nominal_model):
        design = reference.study_design(
            seed=2, markers=1, repetitions=3,
            noise=NoiseModel.uniform(range(1, 16), 0.0),
        )
        records = simulate_measurements(design, nominal_model)
        sys = stack_system(records, nominal_model, design.cmap, design.noise)
        assert_array_equal(sys.sigma[sys.row_class], np.full(sys.n_equations, 10e-6))
        custom = stack_system(
            records, nominal_model, design.cmap, design.noise, sigma_floor=5e-6
        )
        assert_array_equal(custom.sigma[custom.row_class], np.full(sys.n_equations, 5e-6))

    def test_geometric_mode_observations(self, nominal_model, bundled_design):
        design = reference.study_design(seed=3, markers=2, repetitions=2)
        records = simulate_measurements(design, nominal_model)
        params = ["a2", "d4", "tool_x"]
        sys = stack_system(
            records, nominal_model, None, design.noise, mode="geometric", params=params
        )
        assert sys.columns == ("a2", "d4", "tool_x")
        assert sys.n_equations == 3 * len(records)
        first = np.lexsort((records.rep, records.marker, records.config))[0]
        fk = forward_kinematics(nominal_model, records.q[first], records.marker[first]).position
        assert_allclose(sys.dp[:3], records.p0[first] - fk, atol=1e-18)

    def test_combined_mode_layout(self, nominal_model):
        design = reference.study_design(seed=4, markers=1, repetitions=2)
        records = simulate_measurements(design, nominal_model)
        params = ["a2", "d3"]
        sys = stack_system(
            records, nominal_model, design.cmap, design.noise,
            mode="combined", params=params,
        )
        assert sys.columns[:2] == ("a2", "d3")
        assert sys.columns[2:] == design.cmap.parameter_names
        # two 3-row blocks (unloaded, loaded) per record
        assert sys.n_equations == 6 * len(records)
        # unloaded block: compliance columns are identically zero
        B = sys.B[sys.row_class]
        assert_array_equal(B[:3, 2:], np.zeros((3, 9)))
        assert np.any(B[3:6, 2:] != 0.0)

    def test_modes_validated(self, bundled_study, nominal_model, bundled_design):
        with pytest.raises(ValueError, match="unknown stacking mode"):
            stack_system(
                bundled_study, nominal_model, bundled_design.cmap,
                bundled_design.noise, mode="mixed",
            )
        with pytest.raises(ValueError, match="geometric parameter selection"):
            stack_system(
                bundled_study, nominal_model, bundled_design.cmap,
                bundled_design.noise, mode="geometric",
            )
        with pytest.raises(ValueError, match="compliance parameter map"):
            stack_system(
                bundled_study, nominal_model, None, bundled_design.noise,
                mode="elastostatic",
            )
        with pytest.raises(ValueError, match="no records"):
            stack_system(
                bundled_study.take(slice(0)), nominal_model, bundled_design.cmap,
                bundled_design.noise,
            )

    def test_stacked_system_validation(self):
        good = dict(
            B=np.ones((3, 1)),
            dp=np.zeros(3),
            sigma=np.ones(3),
            config=[1, 1, 1],
            marker=[0, 0, 0],
            axis=[0, 1, 2],
            columns=("k1",),
        )
        StackedSystem(**good)
        with pytest.raises(ValueError, match="row count"):
            StackedSystem(**{**good, "dp": np.zeros(2)})
        with pytest.raises(ValueError, match="row count"):
            StackedSystem(**{**good, "axis": [0, 1]})
        with pytest.raises(ValueError, match="axis entries"):
            StackedSystem(**{**good, "axis": [0, 1, 3]})
        with pytest.raises(ValueError, match="strictly positive"):
            StackedSystem(**{**good, "sigma": np.array([1.0, 0.0, 1.0])})
        with pytest.raises(ValueError, match="name every parameter"):
            StackedSystem(**{**good, "columns": ("k1", "k2")})
        with pytest.raises(ValueError, match="non-finite"):
            StackedSystem(**{**good, "dp": np.array([0.0, np.nan, 0.0])})


GEOMETRIC_PARAMS = ["a2", "d3", "theta4", "tool_x"]


def per_record_reference(study, model, cmap, noise, mode, params):
    """The stacked rows built record by record from the scalar chain."""
    ordered = sorted(range(len(study)),
                     key=lambda i: (study.config[i], study.marker[i], study.rep[i]))
    blocks, obs = [], []
    for i in ordered:
        q, marker, p0, p = study.q[i], int(study.marker[i]), study.p0[i], study.p[i]
        if mode != "elastostatic":
            fk = scalar_chain.tool_pose(model, q, marker)[1]
            J = scalar_chain.parameter_jacobian(model, q, marker, params)
        if mode != "geometric":
            wrench = np.concatenate([study.force[i], np.zeros(3)])
            A = scalar_chain.elastostatic_regressor(model, q, wrench, int(study.fmarker[i]), cmap, marker)
        if mode == "elastostatic":
            blocks.append(A)
            obs.append(p - p0)
        elif mode == "geometric":
            blocks.append(J)
            obs.append(p0 - fk)
        else:
            blocks += [np.hstack([J, np.zeros_like(A)]), np.hstack([J, A])]
            obs += [p0 - fk, p - fk]
    rows_per_record = 6 if mode == "combined" else 3
    config = np.repeat(study.config[ordered], rows_per_record)
    marker = np.repeat(study.marker[ordered], rows_per_record)
    axis = np.tile([0, 1, 2], len(blocks))
    sigma = build_sigma(noise, config, axis, floor=DEFAULT_SIGMA0)
    return dict(B=np.vstack(blocks), dp=np.concatenate(obs), sigma=sigma,
                config=config, marker=marker, axis=axis)


def shared_posture_study(model, rng):
    """Records whose postures repeat across configuration ids, loads and markers.

    Configurations 1-3 share one joint vector: 2 carries a lighter load than
    1, and 3 the same force as 1 applied at another marker.  Configuration 4
    changes its load between repetitions.  Every configuration is observed
    at two markers, so a posture key that dropped the joint vector, the
    observed marker, the wrench or its application marker would reuse a
    wrong block.
    """
    q_a, q_b = (rng.uniform(-1.0, 1.0, size=model.n_joints) for _ in range(2))
    heavy = ([0.0, 0.0, -2600.0], 0)  # (force, application marker)
    light = ([0.0, 0.0, -900.0], 0)
    elsewhere = ([0.0, 0.0, -2600.0], 1)
    layout = {1: (q_a, [heavy] * 3), 2: (q_a, [light] * 3), 3: (q_a, [elsewhere] * 3),
              4: (q_b, [heavy, light, heavy])}
    rows = []
    for cfg, (q, loads) in layout.items():
        for marker in (0, 1):
            for rep, (force, fmarker) in enumerate(loads, start=1):
                p0 = rng.normal(size=3)
                rows.append((cfg, marker, rep, q, force, fmarker, p0,
                             p0 + rng.normal(scale=1e-4, size=3)))
    study = Study(*map(np.array, zip(*rows)))
    cmap = ComplianceParameterMap.from_configurations([q_a, q_b])
    noise = NoiseModel(config=list(layout), sigma=rng.uniform(5e-6, 2e-5, size=(len(layout), 3)))
    return study, cmap, noise


class TestPostureReuse:
    """stack_system builds each posture's blocks once; rows must not change."""

    @pytest.fixture(params=["bundled", "shared-nominal", "shared-prismatic", "no-repetitions"])
    def study(self, request, bundled_study, bundled_design, nominal_model, make_chain):
        rng = np.random.default_rng(23)
        if request.param == "bundled":
            records, cmap, noise, model = (bundled_study, bundled_design.cmap,
                                           bundled_design.noise, nominal_model)
        elif request.param == "no-repetitions":  # every row its own posture
            design = reference.study_design(seed=9, repetitions=1)
            records, cmap, noise, model = (simulate_measurements(design, nominal_model), design.cmap,
                                           design.noise, nominal_model)
        elif request.param == "shared-nominal":
            model = nominal_model
            records, cmap, noise = shared_posture_study(model, rng)
        else:
            model = make_chain(rng, prismatic_prob=0.3)
            assert {j.kind for j in model.joints} == {REVOLUTE, PRISMATIC}
            records, cmap, noise = shared_posture_study(model, rng)
        shuffled = records.take(rng.permutation(len(records)))
        return shuffled, model, cmap, noise

    @pytest.mark.parametrize("mode", ["elastostatic", "geometric", "combined"])
    def test_rows_equal_per_record_reference(self, study, mode):
        records, model, cmap, noise = study
        params = None if mode == "elastostatic" else GEOMETRIC_PARAMS
        sys = unfolded(stack_system(records, model, cmap, noise, mode=mode, params=params))
        expected = per_record_reference(records, model, cmap, noise, mode, params)
        for name, value in expected.items():
            assert np.array_equal(getattr(sys, name), value), name

    @pytest.mark.parametrize(
        "mode, params, expected",
        [
            ("elastostatic", None, dict(_kinematics=1, _regressors=1, _parameter_jacobians=0)),
            ("combined", GEOMETRIC_PARAMS, dict(_kinematics=1, _regressors=1, _parameter_jacobians=1)),
        ],
    )
    def test_bundled_study_builds_each_posture_once(
        self, mode, params, expected, bundled_study, nominal_model, bundled_design, monkeypatch
    ):
        # every batched kernel runs once (or never), over one posture per class run: the 45 of
        # 15 configurations x 3 markers at 6 repetitions (270 rows) and at 60 (2,700 rows), and
        # the 6 of the crossing study, whose posture shared by configurations 1 and 2 is built
        # once for each; no per-posture public function runs
        postures = {name: [] for name in expected}
        public = Counter()

        def sized(name, fn):
            def wrapper(model, batch, *args):  # batch: the joint vectors or frames of the postures
                postures[name].append(len(batch))
                return fn(model, batch, *args)
            return wrapper

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                public[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in expected:
            monkeypatch.setattr(regressor, name, sized(name, getattr(regressor, name)))
        for module in (kinematics, regressor):
            for name in ("forward_kinematics", "joint_jacobian", "parameter_jacobian", "elastostatic_regressor"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        long_study = simulate_measurements(reference.study_design(seed=0, repetitions=60), nominal_model)
        bundled = (bundled_design.cmap, bundled_design.noise)
        studies = [(bundled_study, *bundled, 45), (long_study, *bundled, 45),
                   (*crossing_study(nominal_model, np.random.default_rng(5)), 6)]
        for study, cmap, noise, runs in studies:
            for sizes in postures.values():
                sizes.clear()
            sys = stack_system(study, nominal_model, cmap, noise, mode=mode, params=params)
            assert sys.row_class.max() + 1 == runs * (6 if mode == "combined" else 3)  # the class runs
            assert postures == {name: [runs] * calls for name, calls in expected.items()}
        assert sum(public.values()) == 0


def test_rotations_are_checked_where_they_enter(nominal_model, bundled_design):
    # a base and a tool each 0.45e-9 off orthonormal pass the model's check, and the tool rotation
    # they compose to, 1.8e-9 off, is not checked again: only a Pose built by hand checks its rotation
    off = np.diag([1.0 + 0.45e-9] * 3 + [1.0])
    model = replace(nominal_model, base=nominal_model.base @ off, tool=nominal_model.tool @ off)
    study = simulate_measurements(bundled_design, model)
    for mode, params in (("elastostatic", None), ("geometric", GEOMETRIC_PARAMS), ("combined", GEOMETRIC_PARAMS)):
        sys = stack_system(study, model, bundled_design.cmap, bundled_design.noise, mode=mode, params=params)
        assert sys.n_equations == (6 if mode == "combined" else 3) * len(study)
    pose = forward_kinematics(model, bundled_design.configurations[0])
    assert isinstance(pose, kinematics.Pose)
    with pytest.raises(ValueError, match="not a proper rotation"):
        kinematics.Pose(pose.position, pose.rotation)


def unfolded_fit(sys, w, sigma):
    """Estimate and sandwich covariance under per-class weights ``w`` and sigmas ``sigma``,
    from every row of ``w B``."""
    w, sigma = w[sys.row_class], sigma[sys.row_class]
    A = unfolded(sys).B * w[:, None]
    G = np.linalg.pinv(A)
    return np.linalg.lstsq(A, sys.dp * w, rcond=None)[0], (G * (w * sigma) ** 2) @ G.T


def assert_close_to_largest(actual, expected, rtol=1e-10):
    """Every entry within ``rtol`` of the largest entry of ``expected``."""
    assert_allclose(actual, expected, rtol=0.0, atol=rtol * np.max(np.abs(expected)))


def crossing_study(model, rng):
    """The shared-posture study at marker 0 with configuration 2 loaded as 1: one posture's
    sorted rows run on from configuration 1 into 2, under another sigma."""
    study, cmap, noise = shared_posture_study(model, rng)
    study = study.take(study.marker == 0)
    heavy = np.where((study.config == 2)[:, None], [0.0, 0.0, -2600.0], study.force)
    return replace(study, force=heavy), cmap, noise


def prefold_solve(sys, w):
    """Estimate and covariance by the QR of every row of ``w B``, in the solver's order of operations
    (the pseudo-inverse G = R^-1 Q' first, then G times the weighted observations)."""
    sys = unfolded(sys)
    Q, R = np.linalg.qr(sys.B * w[:, None])
    G = np.linalg.inv(R) @ Q.T
    x = G @ (sys.dp * w)
    cov = (G * (w * sys.sigma) ** 2) @ G.T
    return x, 0.5 * (cov + cov.T)


class TestRowClasses:
    """Solving on the distinct rows, each class of identical rows folded into one."""

    MODES = [("elastostatic", None), ("geometric", GEOMETRIC_PARAMS), ("combined", GEOMETRIC_PARAMS)]

    @pytest.fixture(params=["bundled", "shared", "crossing"])
    def study(self, request, bundled_study, bundled_design, nominal_model):
        if request.param == "bundled":
            return bundled_study, bundled_design.cmap, bundled_design.noise
        make = shared_posture_study if request.param == "shared" else crossing_study
        return make(nominal_model, np.random.default_rng(5))

    @pytest.mark.parametrize("mode, params", MODES, ids=[m for m, _ in MODES])
    def test_solves_match_unfolded_reference(self, study, mode, params, nominal_model):
        records, cmap, noise = study
        sys = stack_system(records, nominal_model, cmap, noise, mode=mode, params=params)
        # each posture run of one configuration, block kind and axis is one class
        kinds = 2 if mode == "combined" else 1
        runs = np.diff(sys.row_class[::3 * kinds]) > 0
        assert sys.row_class.max() + 1 == 3 * kinds * (1 + np.count_nonzero(runs)) < sys.n_equations
        assert np.all(np.diff(sys.config[sys.row_class][::3 * kinds])[~runs] == 0)
        full_sys = unfolded(sys)
        assert_array_equal(full_sys.row_class, np.arange(sys.n_equations))
        w_opt = optimal_weights(sys.sigma)
        for res, w in ((ols_estimate(sys), np.ones(len(sys.B))),
                       (wls_estimate(sys, w_opt), w_opt),
                       (irls(sys), None)):
            w = res.weights if w is None else w
            x, cov = unfolded_fit(sys, w, res.sigma)
            assert_close_to_largest(res.x_hat, x)
            assert_close_to_largest(res.covariance, cov)
        # the reweighting loop takes the same steps folded and unfolded
        folded, full = irls(sys), irls(full_sys)
        assert (folded.stop_reason, len(folded.iterations)) == (full.stop_reason, len(full.iterations))
        for a, b in zip(folded.iterations, full.iterations):
            assert_close_to_largest(a.x_hat, b.x_hat)
            assert_close_to_largest(a.ci3, b.ci3)
        assert_close_to_largest(residuals(sys, folded), residuals(full_sys, full))

    @pytest.mark.parametrize("mode, params", MODES, ids=[m for m, _ in MODES])
    def test_unreplicated_system_keeps_prefold_bits(self, mode, params, nominal_model):
        design = reference.study_design(seed=9, repetitions=1)
        sys = stack_system(simulate_measurements(design, nominal_model), nominal_model, design.cmap,
                           design.noise, mode=mode, params=params)
        assert_array_equal(sys.row_class, np.arange(sys.n_equations))  # 3 markers, no two rows alike
        for res, w in ((ols_estimate(sys), np.ones(sys.n_equations)),
                       (wls_estimate(sys, optimal_weights(sys.sigma)), optimal_weights(sys.sigma))):
            x, cov = prefold_solve(sys, w)
            assert_array_equal(res.x_hat, x)
            assert_array_equal(res.covariance, cov)
        # the reweighting loop, one solve per iteration; from iteration 2 on the sigmas are the
        # library's re-estimate from class moments, which rounds apart from the row-level std
        res = irls(sys)
        sigma = sys.sigma
        mean, scatter = sys.class_plan.moments(sys.dp[None])
        for snap in res.iterations:
            w = robust_weights(sigma)
            x, cov = prefold_solve(replace(sys, sigma=sigma), w)
            assert_array_equal(snap.x_hat, x)
            assert_array_equal(snap.ci3, 3.0 * np.sqrt(np.diag(cov)))
            sigma = estimator._dispersions(sys, (sys.B @ x)[None], mean, scatter, DEFAULT_SIGMA0)[0]
            group = sys.class_group_plan.label[sys.row_class]
            expected = np.maximum(row_std((sys.B @ x)[sys.row_class] - sys.dp, group)[group], DEFAULT_SIGMA0)
            assert_allclose(sigma, expected, rtol=1e-13, atol=0.0)
        assert_array_equal(res.weights, w)

    def test_per_class_arrays_must_match_the_classes(self):
        # four rows in two classes: B, sigma, config, marker and axis hold one entry per class
        good = dict(B=np.array([[3.0, 1.0], [1.0, 2.0]]), dp=np.zeros(4), sigma=np.ones(2), config=[1, 1],
                    marker=[0, 1], axis=[1, 0], columns=("k1", "k2"), row_class=[1, 1, 0, 0])
        sys = StackedSystem(**good)
        assert_array_equal(sys.row_class, [1, 1, 0, 0])
        assert (sys.n_equations, sys.class_plan.counts.tolist()) == (4, [2, 2])
        three = dict(B=np.ones((3, 2)), sigma=np.ones(3), config=[1] * 3, marker=[0] * 3, axis=[0] * 3)
        with pytest.raises(ValueError, match="B has a row count of 3 for 2 row classes"):
            StackedSystem(**{**good, **three})
        for name in ("sigma", "config", "marker", "axis"):
            with pytest.raises(ValueError, match="disagree on the row count"):
                StackedSystem(**{**good, name: [1, 1, 1]})
        with pytest.raises(ValueError, match="row_class disagrees with dp"):
            StackedSystem(**{**good, "dp": np.zeros(3)})
        for row_class in ([0, 0, 2, 2], [-1, -1, 0, 0]):  # a gap, a negative
            with pytest.raises(ValueError, match="without gaps"):
                StackedSystem(**{**good, "row_class": row_class})

    @pytest.mark.parametrize("mode, params, shape", [("elastostatic", None, (135, 9)),
                                                     ("combined", GEOMETRIC_PARAMS, (270, 13))])
    def test_regressor_size_does_not_grow_with_repetitions(self, mode, params, shape, nominal_model):
        for repetitions in (6, 60):
            design = reference.study_design(seed=0, repetitions=repetitions)
            sys = stack_system(simulate_measurements(design, nominal_model), nominal_model, design.cmap,
                               design.noise, mode=mode, params=params)
            assert sys.B.shape == shape
            assert sys.n_equations == 45 * 3 * repetitions * shape[0] // 135


class TestStackSystemChecks:
    """A faulty row ends in the error that building its posture alone raises."""

    MODES = [("elastostatic", None), ("geometric", GEOMETRIC_PARAMS), ("combined", GEOMETRIC_PARAMS)]

    @staticmethod
    def stack(study, design, model, mode, params, cmap=None):
        shuffled = study.take(np.random.default_rng(3).permutation(len(study)))
        return stack_system(shuffled, model, cmap or design.cmap, design.noise, mode=mode, params=params)

    @pytest.mark.parametrize("mode, params", [MODES[0], MODES[2]])
    def test_first_unmatched_bucket_angle_in_row_order(self, mode, params, bundled_study,
                                                       bundled_design, nominal_model):
        levels = bundled_design.cmap.bucket_levels
        cmap = replace(bundled_design.cmap, bucket_levels=levels[1:-1])
        rows = np.lexsort((bundled_study.rep, bundled_study.marker, bundled_study.config))
        angles = bundled_study.q[rows, 1]
        first = angles[np.isin(angles, (levels[0], levels[-1]))][0]
        with pytest.raises(BucketMatchError, match=rf"^joint angle {first:.8f} rad matches no declared"):
            self.stack(bundled_study, bundled_design, nominal_model, mode, params, cmap)

    @pytest.mark.parametrize("mode, params, bad", [(*MODES[0], 5), (*MODES[1], 7), (*MODES[2], 5)])
    def test_first_marker_outside_the_model(self, mode, params, bad, bundled_study,
                                            bundled_design, nominal_model):
        # config 2 loads a missing marker, config 4 observes one; geometric
        # rows carry no load, so only the observed marker is checked there
        study = replace(bundled_study,
                        marker=np.where(bundled_study.config == 4, 7, bundled_study.marker),
                        fmarker=np.where(bundled_study.config == 2, 5, bundled_study.fmarker))
        with pytest.raises(ValueError, match=rf"^marker index {bad} out of range 0\.\.2$"):
            self.stack(study, bundled_design, nominal_model, mode, params)

    @pytest.mark.parametrize("mode, params", MODES)
    def test_non_finite_or_short_joint_vectors(self, mode, params, bundled_study,
                                               bundled_design, nominal_model):
        short = replace(bundled_study, q=bundled_study.q[:, :5])
        with pytest.raises(ValueError, match="^expected 6 joint values, got 5$"):
            self.stack(short, bundled_design, nominal_model, mode, params)
        planted = bundled_study.take(slice(None))
        q = bundled_study.q.copy()
        q[100, 3] = np.nan
        object.__setattr__(planted, "q", q)  # past the Study check, as a caller could
        with pytest.raises(ValueError, match="^joint vector contains non-finite values$"):
            stack_system(planted, nominal_model, bundled_design.cmap, bundled_design.noise,
                         mode=mode, params=params)


@pytest.mark.parametrize("mode, params, limit", [("elastostatic", None, 4e6),
                                                  ("combined", GEOMETRIC_PARAMS, 6e6)])
def test_stacking_reads_the_study_in_place(mode, params, limit, nominal_model):
    # on a 600-repetition study (27,000 rows) stack_system neither sorts nor copies the study's
    # columns: it peaks at its own per-row arrays, under 4 MB (elastostatic) and 6 MB (combined)
    design = reference.study_design(seed=0, repetitions=600)
    study = simulate_measurements(design, nominal_model)
    tracemalloc.start()
    try:
        sys = stack_system(study, nominal_model, design.cmap, design.noise, mode=mode, params=params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys.n_equations == 3 * len(study) * (2 if mode == "combined" else 1)
    assert peak < limit


class TestStudy:
    def test_deflection_is_loaded_minus_unloaded(self):
        assert_allclose(one_row_study().deflection, [[0.5, -0.5, 0.25]], atol=0)

    def test_rejects_non_finite_positions(self):
        with pytest.raises(ValueError, match="p0"):
            one_row_study(p0=(np.nan, 0.0, 0.0))

    def test_rejects_columns_of_another_length(self):
        study = one_row_study()
        with pytest.raises(ValueError, match="force"):
            replace(study, force=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="q"):
            replace(study, q=np.zeros(6))

    def test_columns_are_read_only_copies(self):
        p = np.array([[1.5, 1.5, 3.25]])
        study = replace(one_row_study(), p=p)
        p[0, 0] = 0.0
        assert study.p[0, 0] == 1.5
        assert not study.p.flags.writeable
        assert study.config.dtype == study.fmarker.dtype == np.int64

    def test_take_selects_rows_and_keeps_key_order(self, bundled_study):
        part = bundled_study.take(np.array([5, 0, 3]))
        assert len(part) == 3
        for name in ("config", "marker", "rep", "q", "force", "fmarker", "p0", "p"):
            assert_array_equal(getattr(part, name), getattr(bundled_study, name)[[0, 3, 5]])

    def test_rows_are_kept_in_key_order(self, bundled_study, assert_same_study):
        # a shuffled, writable input is gathered into (config, marker, rep) order; a key-ordered,
        # read-only one is shared
        order = np.random.default_rng(5).permutation(len(bundled_study))
        shuffled = Study(**{f.name: getattr(bundled_study, f.name)[order] for f in fields(Study)})
        assert_same_study(shuffled, bundled_study)
        assert not any(getattr(shuffled, f.name).flags.writeable for f in fields(Study))
        again = Study(**{f.name: getattr(bundled_study, f.name) for f in fields(Study)})
        for f in fields(Study):
            assert np.shares_memory(getattr(again, f.name), getattr(bundled_study, f.name)), f.name

    def test_take_gathers_each_column_once(self, nominal_model, assert_same_study):
        # a reordered 600-repetition study (27,000 rows) peaks at its gathered columns, not
        # at a second copy of them; only the float columns' finiteness masks come on top
        study = simulate_measurements(reference.study_design(seed=0, repetitions=600), nominal_model)
        order = np.lexsort((study.rep, study.marker, study.config))
        columns = sum(getattr(study, f.name).nbytes for f in fields(study))
        tracemalloc.start()
        try:
            part = study.take(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * columns
        assert_same_study(part, Study(**{f.name: getattr(study, f.name)[order] for f in fields(study)}))
        assert not any(getattr(part, f.name).flags.writeable for f in fields(study))
