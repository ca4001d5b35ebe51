"""Dispersion estimation and the stacked sigma vector."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from armcal import reference
from armcal.errors import MissingNoiseError, ReplicateCountError
from armcal.estimator import _replicate_sigma
from armcal.noise import (
    DEFAULT_SIGMA0,
    NoiseModel,
    build_sigma,
    _Groups,
)
from armcal.regressor import StackedSystem, stack_system
from armcal.simulator import simulate_measurements

UM = 1e-6


def dispersions_of(values, posture=None, config=(1,)):
    """Unfloored dispersions of a run without a table, estimated from the rows ``values`` (n, 3)
    of posture ``posture[i]`` (numbered 0, 1, ...; default: one posture) of configuration
    ``config[posture[i]]``, as a (configurations, 3) array in ascending configuration order."""
    values = np.asarray(values, dtype=float)
    posture = np.zeros(len(values), dtype=int) if posture is None else np.asarray(posture)
    classes = 3 * len(config)
    sys = StackedSystem(B=np.ones((classes, 1)), dp=values, sigma=np.ones(classes), config=np.repeat(config, 3),
                        marker=np.zeros(classes), axis=np.tile(np.arange(3), len(config)), columns=("k",),
                        row_class=posture[:, None] * 3 + np.arange(3))
    ids = np.unique(config)
    table = np.empty((ids.size, 3))
    table[np.searchsorted(ids, sys.config), sys.axis] = _replicate_sigma(sys, 0.0)
    return table


class TestEstimateDispersions:
    """Dispersions estimated from the scatter within repeated postures (``estimator._replicate_sigma``)."""

    def test_identical_replicates_give_zero(self):
        assert_array_equal(dispersions_of(np.tile([1.0, -2.0, 0.5], (6, 1))), np.zeros((1, 3)))
        # values whose sum over the three replicates does not divide back to them exactly
        assert_array_equal(dispersions_of(np.tile([0.1, 0.7, 1e-5 / 3], (3, 1))), np.zeros((1, 3)))

    def test_two_point_hand_computed_std(self):
        # sample std of {0, 2} um about the mean 1 um is sqrt(2) um
        sigma = dispersions_of(np.array([[0.0, 0.0, 0.0], [2 * UM, 0.0, 0.0]]))
        assert_allclose(sigma[0], [math.sqrt(2.0) * UM, 0.0, 0.0], rtol=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=(12, 3)) * 50 * UM
        offset = np.array([0.125, -0.25, 0.5])  # exactly representable shifts
        assert_allclose(dispersions_of(values + offset), dispersions_of(values), rtol=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(9, 3))
        assert_array_equal(dispersions_of(values * 2.0), 2.0 * dispersions_of(values))

    def test_single_replicate_rejected(self):
        with pytest.raises(ReplicateCountError, match="configuration 1 has no repeated posture on axis x.*--noise"):
            dispersions_of(np.zeros((1, 3)))

    def test_overflowing_dispersion_is_refused_by_the_system(self):
        # finite deflections far outside the numeric domain, whose squared spread exceeds the
        # float range: the dispersion reads infinite, and no stacked system takes it
        with np.errstate(over="ignore"):
            sigma = dispersions_of(np.array([[1e300, 0.0, 0.0], [-1e300, 0.0, 0.0]]))[0]
        assert sigma[0] == np.inf
        with pytest.raises(ValueError, match="non-finite"):
            StackedSystem(B=np.ones((3, 1)), dp=np.zeros(3), sigma=np.maximum(sigma, 1.0), config=np.ones(3),
                          marker=np.zeros(3), axis=np.arange(3), columns=("k",))
        assert dispersions_of(np.array([[1e150, 0.0, 0.0], [-1e150, 0.0, 0.0]]))[0, 0] > 0.0

    def test_estimate_concentrates_within_chi_standard_error(self):
        # true sigma 150 um, 18 replicates: the large-sample standard error is
        # 150/sqrt(2*17) um, and the +/-3 se band should cover ~99.7% of draws
        true = 150.0 * UM
        band = 3.0 * true / math.sqrt(34.0)
        rng = np.random.default_rng(42)
        hits = 0
        trials = 300
        for _ in range(trials):
            draws = rng.normal(size=(18, 3)) * true
            est = dispersions_of(draws)[0]
            hits += np.all(np.abs(est - true) <= band)
        assert hits / trials >= 0.99

    def test_groups_follow_configuration_and_axis(self):
        # six postures of three configurations, each posture about its own mean, rows shuffled
        rng = np.random.default_rng(3)
        config, sizes = (7, 7, 2, 5, 5, 5), [2, 2, 2, 3, 4, 2]
        posture = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        values = rng.normal(size=(len(posture), 3)) * 50 * UM + rng.normal(size=(len(sizes), 3))[posture]
        sigma = dispersions_of(values, posture, config)
        for k, cfg in enumerate((2, 5, 7)):
            own = [p for p in range(len(sizes)) if config[p] == cfg]
            scatter = sum((sizes[p] - 1) * np.var(values[posture == p], axis=0, ddof=1) for p in own)
            dof = sum(sizes[p] - 1 for p in own)  # each posture spends one degree of freedom on its mean
            assert_allclose(sigma[k], np.sqrt(scatter / dof), rtol=1e-12)


class TestNoiseModel:
    def test_lookup_and_missing_entry(self):
        model = NoiseModel(config=[3], sigma=np.array([[1.0, 2.0, 3.0]]) * UM)
        assert_allclose(model.sigma[model.rows(3)], np.array([1.0, 2.0, 3.0]) * UM)
        assert model.config.tolist() == [3]
        with pytest.raises(MissingNoiseError, match="configuration 4"):
            model.rows(4)

    def test_rows_of_many_ids(self):
        model = NoiseModel(config=[9, 2, 5], sigma=np.arange(9.0).reshape(3, 3))
        assert model.config.tolist() == [2, 5, 9]  # stored ascending, rows kept with their id
        assert_array_equal(model.sigma[model.rows(9)], [0.0, 1.0, 2.0])
        assert_array_equal(model.rows([[5, 9], [2, 2]]), [[1, 2], [0, 0]])
        for absent in (1, 3, 10):
            with pytest.raises(MissingNoiseError, match=f"configuration {absent}$"):
                model.rows([2, absent, 9])

    def test_uniform_constructor(self):
        model = NoiseModel.uniform(range(1, 4), 25 * UM)
        for cfg in (1, 2, 3):
            assert_array_equal(model.sigma[model.rows(cfg)], np.full(3, 25 * UM))
        assert model.se is None

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            NoiseModel(config=[1], sigma=[[-1.0, 0.0, 0.0]])

    def test_bad_standard_error_rejected(self):
        for se in ([[np.nan, 0.0, 0.0]], [[0.0, -1.0, 0.0]], [[0.0, 0.0, np.inf]]):
            with pytest.raises(ValueError, match="se must be finite and >= 0"):
                NoiseModel(config=[1], sigma=np.ones((1, 3)), se=se)

    def test_columns_validated(self):
        with pytest.raises(ValueError, match="listed twice"):
            NoiseModel(config=[1, 2, 1], sigma=np.ones((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            NoiseModel(config=[1, 2], sigma=np.ones((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            NoiseModel(config=[1, 2], sigma=np.ones((2, 3)), se=np.ones(6))
        with pytest.raises(ValueError, match="no configurations"):
            NoiseModel(config=[], sigma=np.ones((0, 3)))

    def test_entries_frozen(self):
        model = NoiseModel(config=[1], sigma=np.ones((1, 3)), se=np.ones((1, 3)))
        for column in (model.config, model.sigma, model.se):
            with pytest.raises(ValueError):
                column[0] = 2


class TestBuildSigma:
    def test_rows_follow_config_and_axis(self):
        noise = reference.noise_model()
        sigma = build_sigma(noise, [1, 1, 1, 2, 2, 2], [0, 1, 2, 0, 1, 2])
        assert_allclose(sigma[:3], np.array([150.0, 64.0, 33.0]) * UM, rtol=1e-12)
        assert_allclose(sigma[3:], np.array([57.0, 86.0, 118.0]) * UM, rtol=1e-12)

    def test_uniform_model_collapses_to_constant_diagonal(self):
        noise = NoiseModel.uniform([1, 2], 40 * UM)
        config = np.repeat([1, 2], 3)
        axis = np.tile(np.arange(3), 2)
        assert_array_equal(build_sigma(noise, config, axis), np.full(6, 40 * UM))

    def test_zero_entries_floored_at_default(self):
        noise = NoiseModel.uniform([1], 0.0)
        sigma = build_sigma(noise, [1], [0])
        assert_array_equal(sigma, np.array([DEFAULT_SIGMA0]))
        assert DEFAULT_SIGMA0 == 1e-5  # the 10 um precision floor

    def test_custom_floor(self):
        noise = NoiseModel(config=[1], sigma=np.array([[5.0, 80.0, 0.0]]) * UM)
        sigma = build_sigma(noise, [1, 1, 1], [0, 1, 2], floor=20 * UM)
        assert_allclose(sigma, np.array([20.0, 80.0, 20.0]) * UM, rtol=1e-12)

    def test_floor_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            build_sigma(NoiseModel.uniform([1], UM), [1], [0], floor=0.0)

    def test_missing_tag_propagates(self):
        with pytest.raises(MissingNoiseError, match="configuration 9"):
            build_sigma(NoiseModel.uniform([1], UM), [1, 9], [0, 0])

    def test_interleaved_configurations_keep_row_order(self):
        noise = reference.noise_model()
        sigma = build_sigma(noise, [3, 1, 3, 1], [2, 0, 0, 2])
        expected = np.array([44.0, 150.0, 97.0, 33.0]) * UM
        assert_allclose(sigma, expected, rtol=1e-12)


class TestGroupedDispersions:
    def test_rows_pool_markers_within_config_axis(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=12)
        # config 1 x-axis rows from two markers pool into one group
        sys = StackedSystem(
            B=np.ones((12, 1)),
            dp=values,
            sigma=np.ones(12),
            config=[1] * 6 + [2] * 6,
            marker=[0, 0, 0, 1, 1, 1] + [0] * 6,
            axis=[0] * 6 + [1] * 6,
            columns=("k",),
        )
        assert_array_equal(sys.class_group_plan.label[sys.row_class], np.repeat([0, 1], 6))
        # the pooled std of each (configuration, axis) group, read from the class moments
        std = sys.class_group_plan.pooled_std(sys.class_plan.counts, *sys.class_plan.moments(values))
        assert_allclose(std, [np.std(values[:6], ddof=1), np.std(values[6:], ddof=1)], rtol=1e-12)

    def test_unequal_group_sizes_match_per_group_std(self):
        # moments of groups of six sizes, their rows scattered, on a (2, rows) stack
        rng = np.random.default_rng(7)
        sizes = [2, 5, 18, 3, 18, 40]
        group = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        values = rng.normal(size=(2, group.shape[0])) * 50 * UM + np.array([[0.0], [1e-3]])
        mean, scatter = _Groups(group).moments(values)
        assert mean.shape == scatter.shape == (2, len(sizes))
        for g, n in enumerate(sizes):
            rows = values[:, group == g]
            assert_allclose(mean[:, g], np.mean(rows, axis=1), rtol=1e-12)
            assert_allclose(np.sqrt(scatter[:, g] / (n - 1)), np.std(rows, axis=1, ddof=1), rtol=1e-12)

    def test_single_row_group_rejected(self):
        # configuration 2's one row repeats no posture
        with pytest.raises(ReplicateCountError, match="configuration 2 has no repeated posture"):
            dispersions_of(np.zeros((3, 3)), np.array([0, 0, 1]), (1, 2))

    def test_replicate_dispersions_pool_within_postures(self, nominal_model):
        # two markers of four repetitions: each marker's deflections scatter about their own mean
        design = reference.study_design(seed=5, markers=2, repetitions=4)
        study = simulate_measurements(design, nominal_model)
        sys = stack_system(study, nominal_model, design.cmap, NoiseModel.uniform(design.config_ids, 1.0))
        sigma = _replicate_sigma(sys, 0.0)
        for cfg in (1, 8, 15):
            rows = [study.deflection[(study.config == cfg) & (study.marker == m)] for m in (0, 1)]
            assert rows[0].shape == rows[1].shape == (4, 3)
            manual = np.sqrt(sum(3 * np.var(r, axis=0, ddof=1) for r in rows) / 6)
            assert_allclose(sigma[sys.config == cfg], np.tile(manual, 2), rtol=1e-12)

    def test_deflection_dispersions_need_replicates(self, nominal_model):
        # three markers of one repetition: markers are distinct postures, not replicates
        design = reference.study_design(seed=5, repetitions=1)
        study = simulate_measurements(design, nominal_model)
        sys = stack_system(study, nominal_model, design.cmap, NoiseModel.uniform(design.config_ids, 1.0))
        with pytest.raises(ReplicateCountError, match="--noise"):
            _replicate_sigma(sys, DEFAULT_SIGMA0)
