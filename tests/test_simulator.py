"""Synthetic-study generation and the Monte Carlo method comparison."""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import armcal.estimator as estimator_mod
import armcal.noise as noise_mod
import armcal.simulator as simulator_mod
from row_level import unfolded
from armcal import reference
from armcal.errors import CalibrationError, MissingNoiseError, RankDeficientError, ReplicateCountError
from armcal.estimator import irls, ols_estimate, optimal_weights, wls_estimate
from armcal.kinematics import forward_kinematics, parameter_jacobian
from armcal.noise import DEFAULT_SIGMA0, NoiseModel
from armcal.regressor import elastostatic_regressor, stack_system
from armcal.simulator import (
    ComplianceVector,
    STANDARD_GRAVITY,
    StudyDesign,
    monte_carlo_compare,
    noise_free_system,
    simulate_measurements,
)

UM = 1e-6


def quiet_design(**overrides):
    base = dict(seed=0)
    base.update({k: v for k, v in overrides.items() if k in ("seed", "markers", "repetitions")})
    design = reference.study_design(**base)
    changes = {k: v for k, v in overrides.items() if k not in base}
    if changes:
        from dataclasses import replace

        design = replace(design, **changes)
    return design


class TestComplianceVector:
    def test_report_unit_round_trip(self):
        vec = ComplianceVector.from_report_units([0.25, 3.5])
        assert_allclose(vec.values, [0.25e-6, 3.5e-6], rtol=1e-15)
        assert_allclose(vec.report_units(), [0.25, 3.5], rtol=1e-15)
        assert ComplianceVector.REPORT_UNIT == "urad/(N.m)"

    def test_compliances_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ComplianceVector(np.array([1e-6, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            ComplianceVector(np.array([-1e-6]))
        with pytest.raises(ValueError, match="finite"):
            ComplianceVector(np.array([np.nan]))


class TestStudyDesignValidation:
    def test_counts_validated(self):
        with pytest.raises(ValueError, match="markers and repetitions"):
            quiet_design(markers=0)

    def test_mass_range_validated(self):
        with pytest.raises(ValueError, match="mass range"):
            quiet_design(mass_range_kg=(-1.0, 10.0))
        with pytest.raises(ValueError, match="mass range"):
            quiet_design(mass_range_kg=(300.0, 200.0))

    def test_noise_must_cover_every_configuration(self):
        with pytest.raises(MissingNoiseError):
            quiet_design(noise=NoiseModel.uniform(range(1, 10), 50 * UM))

    def test_ground_truth_length_checked(self):
        with pytest.raises(ValueError, match="ground truth length"):
            quiet_design(ground_truth=ComplianceVector(np.full(4, 1e-6)))

    def test_configurations_share_one_joint_count(self, bundled_design):
        # refused where the design is made, not later as numpy's inhomogeneous-shape error
        with pytest.raises(ValueError, match=r"configurations differ in joint count \(5, 6\)"):
            replace(bundled_design, configurations=(np.zeros(6), np.zeros(5)))

    def test_at_least_one_configuration(self, bundled_design):
        with pytest.raises(ValueError, match="^study needs at least one configuration$"):
            replace(bundled_design, configurations=())

    def test_config_ids_are_one_based(self, bundled_design):
        assert bundled_design.config_ids == tuple(range(1, 16))


class TestSimulateMeasurements:
    @pytest.mark.parametrize("mass", [1e307, 1e308])  # the positions, then the force itself, would overflow
    def test_overflowing_load_raises_overflow_error(self, mass, nominal_model):
        # Such a load lies beyond the numeric domain's 1e6 kg, so the design refuses it
        # before any position is simulated.
        with pytest.raises(ValueError, match="mass range must satisfy 0 <= lo <= hi <= 1e\\+06 kg"):
            simulate_measurements(quiet_design(mass_range_kg=(mass, mass)), nominal_model)

    def test_default_study_counts(self, bundled_study):
        study = bundled_study
        assert len(study) == 270
        keys = set(zip(study.config.tolist(), study.marker.tolist(), study.rep.tolist()))
        assert len(keys) == 270
        assert set(study.config.tolist()) == set(range(1, 16))
        assert set(study.marker.tolist()) == {0, 1, 2}
        assert set(study.rep.tolist()) == {1, 2, 3, 4, 5, 6}

    def test_records_sorted_and_config_geometry_consistent(
        self, bundled_study, bundled_design
    ):
        study = bundled_study
        keys = list(zip(study.config.tolist(), study.marker.tolist(), study.rep.tolist()))
        assert keys == sorted(keys)
        for i in range(20):
            assert_array_equal(study.q[i], bundled_design.configurations[study.config[i] - 1])

    def test_zero_noise_zero_load_collapses(self, nominal_model):
        design = quiet_design(
            noise=NoiseModel.uniform(range(1, 16), 0.0),
            mass_range_kg=(0.0, 0.0),
        )
        study = simulate_measurements(design, nominal_model)
        assert_array_equal(study.p, study.p0)

    def test_zero_noise_loaded_recovers_truth(self, nominal_model):
        design = quiet_design(noise=NoiseModel.uniform(range(1, 16), 0.0))
        records = simulate_measurements(design, nominal_model)
        sys = stack_system(records, nominal_model, design.cmap, reference.noise_model())
        res = ols_estimate(sys)
        assert_allclose(res.x_hat, design.ground_truth.values, rtol=1e-10)

    def test_same_seed_bitwise_identical(self, nominal_model):
        a = simulate_measurements(reference.study_design(seed=123), nominal_model)
        b = simulate_measurements(reference.study_design(seed=123), nominal_model)
        assert_array_equal(a.p0, b.p0)
        assert_array_equal(a.p, b.p)
        assert_array_equal(a.force, b.force)

    def test_different_seeds_differ(self, nominal_model):
        a = simulate_measurements(reference.study_design(seed=1), nominal_model)
        b = simulate_measurements(reference.study_design(seed=2), nominal_model)
        assert np.any(a.p0 != b.p0)

    def test_load_is_vertical_gravity_within_mass_range(self, nominal_model):
        design = quiet_design(mass_range_kg=(250.0, 280.0), repetitions=2)
        study = simulate_measurements(design, nominal_model)
        by_config = {}
        for cfg, force in zip(study.config.tolist(), study.force.tolist()):
            by_config.setdefault(cfg, set()).add(tuple(force))
        assert np.all(study.force[:, :2] == 0.0)
        mass = -study.force[:, 2] / STANDARD_GRAVITY
        assert np.all((250.0 <= mass) & (mass <= 280.0))
        assert_array_equal(study.fmarker, np.zeros(len(study)))
        # one mass draw per configuration, shared across markers/repetitions
        assert all(len(forces) == 1 for forces in by_config.values())

    def test_geometry_error_shifts_both_positions_not_deflection(self, nominal_model):
        clean = quiet_design(noise=NoiseModel.uniform(range(1, 16), 0.0))
        from dataclasses import replace

        shifted_design = replace(clean, geometry_error={"a2": 2e-4, "d3": -1e-4})
        study = simulate_measurements(clean, nominal_model)
        study_g = simulate_measurements(shifted_design, nominal_model)
        assert_array_equal(study_g.p - study_g.p0, study.p - study.p0)
        for i in range(len(study)):
            shift = study_g.p0[i] - study.p0[i]
            J = parameter_jacobian(nominal_model, study.q[i], study.marker[i], ["a2", "d3"])
            assert_allclose(shift, J @ np.array([2e-4, -1e-4]), atol=1e-18)

    def test_combined_mode_recovers_geometry_and_compliance(self, nominal_model):
        from dataclasses import replace

        design = replace(
            quiet_design(noise=NoiseModel.uniform(range(1, 16), 0.0)),
            geometry_error={"a2": 2e-4, "d3": -1e-4},
        )
        records = simulate_measurements(design, nominal_model)
        sys = stack_system(
            records, nominal_model, design.cmap, reference.noise_model(),
            mode="combined", params=["a2", "d3"],
        )
        res = ols_estimate(sys)
        assert_allclose(res.x_hat[:2], [2e-4, -1e-4], rtol=1e-9)
        assert_allclose(res.x_hat[2:], design.ground_truth.values, rtol=1e-9)

    def test_draws_mutually_independent(self, nominal_model):
        # zero mass: p0 - fk and p - fk expose the raw per-draw noise
        design = StudyDesign(
            configurations=reference.configurations_rad()[:1],
            cmap=reference.compliance_map(),
            noise=NoiseModel.uniform([1], 100 * UM),
            ground_truth=reference.ground_truth(),
            markers=1,
            repetitions=10_000,
            mass_range_kg=(0.0, 0.0),
            seed=42,
        )
        study = simulate_measurements(design, nominal_model)
        fk = forward_kinematics(nominal_model, design.configurations[0], 0).position
        eps = np.hstack([study.p0 - fk, study.p - fk])
        corr = np.corrcoef(eps, rowvar=False)
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.1
        # successive repetitions are independent too
        lag1 = np.corrcoef(eps[:-1, 0], eps[1:, 0])[0, 1]
        assert abs(lag1) < 0.1

    def test_noise_scale_matches_declared_dispersion(self, nominal_model):
        design = StudyDesign(
            configurations=reference.configurations_rad()[:1],
            cmap=reference.compliance_map(),
            noise=NoiseModel(config=[1], sigma=np.array([[150.0, 64.0, 33.0]]) * UM),
            ground_truth=reference.ground_truth(),
            markers=1,
            repetitions=20_000,
            mass_range_kg=(0.0, 0.0),
            seed=3,
        )
        study = simulate_measurements(design, nominal_model)
        deflections = study.p - study.p0
        observed = np.std(deflections, axis=0, ddof=1)
        assert_allclose(observed, np.array([150.0, 64.0, 33.0]) * UM, rtol=0.03)

    def test_draws_follow_the_row_order(self, nominal_model):
        # reference: per row, the unloaded then the loaded noise 3-vector,
        # after each configuration's load-mass draw
        design = replace(quiet_design(markers=2, repetitions=3, seed=9),
                         mass_range_kg=(200.0, 300.0), geometry_error={"a2": 1e-4})
        study = simulate_measurements(design, nominal_model)
        rng = np.random.default_rng(design.seed)
        k, i = design.ground_truth.values, 0
        for cfg, q in zip(design.config_ids, design.configurations):
            mass = 200.0 + 100.0 * rng.uniform()
            wrench = np.array([0.0, 0.0, -mass * STANDARD_GRAVITY, 0.0, 0.0, 0.0])
            half_sigma = design.noise.sigma[design.noise.rows(cfg)] / np.sqrt(2.0)
            for marker in range(design.markers):
                shift = parameter_jacobian(nominal_model, q, marker, ["a2"]) @ np.array([1e-4])
                fk = forward_kinematics(nominal_model, q, marker).position
                deflection = elastostatic_regressor(nominal_model, q, wrench, 0, design.cmap, marker) @ k
                for rep in range(1, design.repetitions + 1):
                    eps0 = rng.normal(size=3) * half_sigma
                    eps1 = rng.normal(size=3) * half_sigma
                    assert (study.config[i], study.marker[i], study.rep[i]) == (cfg, marker, rep)
                    assert_array_equal(study.force[i], wrench[:3])
                    assert_array_equal(study.p0[i], fk + shift + eps0)
                    assert_array_equal(study.p[i], fk + shift + deflection + eps1)
                    i += 1
        assert i == len(study)

    def test_marker_budget_validated(self, nominal_model):
        with pytest.raises(ValueError, match="markers"):
            simulate_measurements(quiet_design(markers=4), nominal_model)


class TestNoiseFreeSystem:
    def test_observations_are_clean_deflections(self, nominal_model, bundled_design):
        sys = noise_free_system(bundled_design, nominal_model)
        assert sys.n_equations == 810
        x = ols_estimate(sys).x_hat
        assert_allclose(x, bundled_design.ground_truth.values, rtol=1e-10)
        # sigma column still carries the study's declared noise
        assert_allclose(sys.sigma[sys.row_class][:3], np.array([150.0, 64.0, 33.0]) * UM, rtol=1e-12)

    def test_unbiasedness_with_zero_geometry_error(self, nominal_model, bundled_design):
        mc = monte_carlo_compare(bundled_design, nominal_model, trials=200)
        for method in ("ols", "wls"):
            mean = mc.empirical_mean(method)
            se = mc.empirical_std(method) / np.sqrt(mc.trials)
            assert np.all(np.abs(mean - mc.truth) <= 3.0 * se)


@pytest.fixture(scope="module")
def report(bundled_design, nominal_model):
    return monte_carlo_compare(bundled_design, nominal_model, trials=150)


class TestMonteCarloCompare:
    def test_report_shapes(self, report):
        assert report.trials == 150
        assert report.n_failed == 0
        for method in ("ols", "wls", "irls"):
            assert report.estimates[method].shape == (150, 9)
            assert report.ci3[method].shape == (150, 9)
            assert np.all(report.ci3[method] > 0.0)
        assert report.parameters == (
            "k2_1", "k2_2", "k2_3", "k2_4", "k2_5", "k3", "k4", "k5", "k6",
        )
        assert len(report.irls_ci_traces) == 150
        assert np.all(report.irls_iterations >= 1)
        assert report.nested_per_param.shape == (9,)
        assert 0.0 <= report.nested_all_fraction <= 1.0

    def test_accessors_match_numpy(self, report):
        est = report.estimates["wls"]
        assert_allclose(report.empirical_mean("wls"), est.mean(axis=0), rtol=1e-12)
        assert_allclose(report.empirical_std("wls"), est.std(axis=0, ddof=1), rtol=1e-12)
        assert_allclose(
            report.empirical_cov("wls"), np.cov(est, rowvar=False, ddof=1), rtol=1e-12
        )
        assert_allclose(
            report.ci_ratio(), report.mean_ci3("ols") / report.mean_ci3("wls"), rtol=1e-12
        )

    def test_weighted_errors_beat_unweighted(self, report):
        assert np.all(report.ci_ratio() > 1.0)
        rms_o = np.sqrt(np.mean((report.estimates["ols"] - report.truth) ** 2, axis=0))
        rms_w = np.sqrt(np.mean((report.estimates["wls"] - report.truth) ** 2, axis=0))
        assert np.all(rms_w < rms_o)

    def test_determinism_across_runs(self, report, bundled_design, nominal_model):
        again = monte_carlo_compare(bundled_design, nominal_model, trials=150)
        assert_array_equal(again.estimates["wls"], report.estimates["wls"])
        assert_array_equal(again.estimates["irls"], report.estimates["irls"])

    def test_homoscedastic_noise_makes_methods_agree(self, nominal_model):
        design = quiet_design(seed=4, noise=NoiseModel.uniform(range(1, 16), 60 * UM))
        mc = monte_carlo_compare(design, nominal_model, trials=300)
        std_o = mc.empirical_std("ols")
        std_w = mc.empirical_std("wls")
        assert_allclose(std_w, std_o, rtol=0.05)

    def test_predicted_covariances_are_the_closed_forms(
        self, report, bundled_design, nominal_model, monkeypatch
    ):
        base = noise_free_system(bundled_design, nominal_model)
        full = unfolded(base)
        reduced = np.linalg.inv(full.B.T @ (full.B / full.sigma[:, None] ** 2))
        assert_allclose(report.predicted_cov["wls"], reduced, rtol=1e-8)
        # the fixed weightings' factorizations give the public solvers' bits
        for name, res in (("ols", ols_estimate(base)),
                          ("wls", wls_estimate(base, optimal_weights(base.sigma)))):
            assert np.array_equal(report.predicted_cov[name], res.covariance)
            assert np.array_equal(report.ci3[name], np.tile(res.ci3, (len(report.ci3[name]), 1)))

        # one factorization per fixed weighting, none through the public solvers
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(simulator_mod, "_factor", counted("_factor", simulator_mod._factor))
        monkeypatch.setattr(estimator_mod, "_weighted_solve",
                            counted("_weighted_solve", estimator_mod._weighted_solve))
        monte_carlo_compare(bundled_design, nominal_model, trials=4)
        assert calls == {"_factor": 2}

    def test_failed_trials_recorded_up_to_the_abort_threshold(
        self, bundled_design, nominal_model, monkeypatch
    ):
        # trials fail where each trial's own IRLS outcome is read: trials 0
        # and 1 come back as exceptions from the block whose class means
        # hold them
        real = simulator_mod._irls_stack
        first_two = trial_class_means(bundled_design, nominal_model, range(2))

        def flaky(sys, mean, *args):
            fits = real(sys, mean, *args)
            if np.array_equal(mean[:2], first_two):
                fits[:2] = [CalibrationError("synthetic trial failure")] * 2
            return fits

        monkeypatch.setattr(simulator_mod, "_irls_stack", flaky)
        mc = monte_carlo_compare(bundled_design, nominal_model, trials=50)
        assert mc.n_failed == 2
        assert mc.estimates["ols"].shape == (48, 9)
        assert mc.failures == (
            (0, "CalibrationError", "synthetic trial failure"),
            (1, "CalibrationError", "synthetic trial failure"),
        )

    def test_too_many_failures_abort(self, bundled_design, nominal_model, monkeypatch):
        real = simulator_mod._irls_stack

        def broken(*args):
            return [CalibrationError("synthetic trial failure") for _ in real(*args)]

        monkeypatch.setattr(simulator_mod, "_irls_stack", broken)
        with pytest.raises(RuntimeError, match="trials failed"):
            monte_carlo_compare(bundled_design, nominal_model, trials=50)

    def test_unloaded_design_raises_before_any_trial(self, nominal_model, monkeypatch):
        # the fixed OLS factorization sees an identically zero regressor
        monkeypatch.setattr(simulator_mod, "_irls_stack", lambda *args: pytest.fail("a trial was solved"))
        with pytest.raises(RankDeficientError, match="weighted regressor is identically zero"):
            monte_carlo_compare(reference.study_design(mass_kg=0.0), nominal_model, trials=3)

    def test_trial_count_validated(self, bundled_design, nominal_model):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_compare(bundled_design, nominal_model, trials=1)


def assert_other_trials_kept(mc, unpatched, failing):
    """Every trial of ``unpatched`` but ``failing`` is in ``mc`` with the same bits, in trial order."""
    kept = [t for t in range(unpatched.trials) if t != failing]
    for method in ("ols", "wls", "irls"):
        assert_array_equal(mc.estimates[method], unpatched.estimates[method][kept])
        assert_array_equal(mc.ci3[method], unpatched.ci3[method][kept])
    assert_array_equal(mc.irls_iterations, unpatched.irls_iterations[kept])
    assert_array_equal(mc.irls_converged, unpatched.irls_converged[kept])
    assert len(mc.irls_ci_traces) == len(kept)
    for trace, t in zip(mc.irls_ci_traces, kept):
        assert_array_equal(trace, unpatched.irls_ci_traces[t])


def trial_class_means(design, model, trials):
    """The per-class means of the observations the Monte Carlo comparison draws for each of ``trials``."""
    base = noise_free_system(design, model)
    observations = np.array([base.dp + np.random.default_rng((design.seed, t)).normal(size=base.dp.shape)
                             * base.sigma[base.row_class] for t in trials])
    return base.class_plan.moments(observations)[0]


def per_trial_reference(design, model, trials, sigma0=DEFAULT_SIGMA0, **irls_kw):
    """Each trial solved on its own through the public one-trial estimators."""
    base = noise_free_system(design, model)
    w_opt = optimal_weights(base.sigma)
    fits = []
    for t in range(trials):
        rng = np.random.default_rng((design.seed, t))
        sys_t = replace(base, dp=base.dp + rng.normal(size=base.dp.shape) * base.sigma[base.row_class])
        # the raw start: the dispersion re-estimate at a zero prediction
        sigma_raw = estimator_mod._dispersions(sys_t, 0.0, *sys_t.class_plan.moments(sys_t.dp[None]), sigma0)[0]
        fits.append((
            ols_estimate(sys_t),
            wls_estimate(sys_t, w_opt),
            irls(replace(sys_t, sigma=sigma_raw), sigma0=sigma0, **irls_kw),
        ))
    return fits


class TestBatchedEquivalence:
    """The blocked Monte Carlo solves equal per-trial public solves bit for bit."""

    TRIALS = 10

    @pytest.mark.parametrize(
        "irls_kw",
        [{}, {"max_iter": 1}],
        ids=["default", "max_iter=1"],
    )
    def test_matches_per_trial_solves(self, irls_kw, bundled_design, nominal_model):
        base = noise_free_system(bundled_design, nominal_model)
        # the last block is a partial one
        assert self.TRIALS % simulator_mod._block_trials(base) != 0
        mc = monte_carlo_compare(bundled_design, nominal_model, trials=self.TRIALS, **irls_kw)
        ref = per_trial_reference(bundled_design, nominal_model, self.TRIALS, **irls_kw)
        assert mc.failures == ()
        for k, method in enumerate(("ols", "wls", "irls")):
            assert_array_equal(mc.estimates[method], np.array([r[k].x_hat for r in ref]))
            assert_array_equal(mc.ci3[method], np.array([r[k].ci3 for r in ref]))
        irls_ref = [r[2] for r in ref]
        assert_array_equal(mc.irls_iterations, [len(r.iterations) for r in irls_ref])
        assert_array_equal(mc.irls_converged, [r.converged for r in irls_ref])
        for trace, r in zip(mc.irls_ci_traces, irls_ref):
            assert_array_equal(trace, np.array([snap.ci3 for snap in r.iterations]))
        nested = [np.abs(w.x_hat - o.x_hat) + w.ci3 <= o.ci3 for o, w, _ in ref]
        assert_array_equal(mc.nested_per_param, np.mean(nested, axis=0))
        if not irls_kw:
            assert len(set(mc.irls_iterations.tolist())) > 1  # trials stop at different iterations
        else:
            assert np.all(mc.irls_iterations == 1)
            assert {r.stop_reason for r in irls_ref} == {"max_iter"}

    def test_blocks_merge_in_trial_order(self, bundled_design, nominal_model, monkeypatch):
        # a trial of the last, partial block fails: it is recorded under its
        # own index, and every other trial keeps its unpatched bits, in trial order
        base = noise_free_system(bundled_design, nominal_model)
        block = simulator_mod._block_trials(base)
        trials = 3 * block + block // 2
        failing = trials - 2
        assert trials % block and failing >= trials - trials % block
        unpatched = monte_carlo_compare(bundled_design, nominal_model, trials=trials)
        means = trial_class_means(bundled_design, nominal_model, range(trials))
        real = simulator_mod._irls_stack

        def failing_late(sys, mean, *args):
            fits = real(sys, mean, *args)
            for j, row in enumerate(mean):
                if np.array_equal(row, means[failing]):
                    fits[j] = CalibrationError("synthetic late failure")
            return fits

        monkeypatch.setattr(simulator_mod, "_irls_stack", failing_late)
        mc = monte_carlo_compare(bundled_design, nominal_model, trials=trials)
        assert mc.failures == ((failing, "CalibrationError", "synthetic late failure"),)
        assert_other_trials_kept(mc, unpatched, failing)

    def test_failed_stacked_svd_fails_only_its_trial(self, bundled_design, nominal_model, monkeypatch):
        # a failed SVD enters as its trial's error in the stacked solve record: only that
        # trial is recorded as failed, and every other trial keeps its unpatched bits
        base = noise_free_system(bundled_design, nominal_model)
        trials, failing = 2 * simulator_mod._block_trials(base), 5
        unpatched = monte_carlo_compare(bundled_design, nominal_model, trials=trials)
        dp = base.dp + np.random.default_rng((bundled_design.seed, failing)).normal(size=base.dp.shape) \
            * base.sigma[base.row_class]
        start = estimator_mod._dispersions(base, 0.0, *base.class_plan.moments(dp[None]), DEFAULT_SIGMA0)[0]
        message = "weighted regressor could not be factored (SVD did not converge)"
        real = estimator_mod._factor

        def svd_fails(sys, w, sigma):
            f = real(sys, w, sigma)
            for j in np.flatnonzero((sigma == start).all(axis=1)):  # the failing trial's first solve
                f.G[j], f.errors[j] = 0.0, RankDeficientError(message)
            return f

        monkeypatch.setattr(estimator_mod, "_factor", svd_fails)
        mc = monte_carlo_compare(bundled_design, nominal_model, trials=trials)
        assert mc.failures == ((failing, "RankDeficientError", message),)
        assert_other_trials_kept(mc, unpatched, failing)

    def test_replicate_starved_design_raises_before_any_trial(
        self, nominal_model, monkeypatch
    ):
        calls = {"n": 0}
        real = simulator_mod._irls_stack

        def counted(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(simulator_mod, "_irls_stack", counted)
        design = quiet_design(markers=1, repetitions=1)
        with pytest.raises(ReplicateCountError, match=">= 2 rows"):
            monte_carlo_compare(design, nominal_model, trials=10)
        assert calls["n"] == 0


def test_groupings_are_planned_once_per_system(bundled_design, nominal_model, bundled_system,
                                                monkeypatch):
    # row groupings belong to the system: none per block, per solve or per iteration
    made = Counter()
    real_init = noise_mod._Groups.__init__

    def counted(self, label):
        made["plans"] += 1
        real_init(self, label)

    def plans(run):
        made.clear()
        run()
        return made["plans"]

    block = simulator_mod._block_trials(noise_free_system(bundled_design, nominal_model))
    assert len(irls(bundled_system).iterations) > 2
    monkeypatch.setattr(noise_mod._Groups, "__init__", counted)
    few, many = (plans(lambda: monte_carlo_compare(bundled_design, nominal_model, trials=trials))
                 for trials in (3, 2 * block + 1))
    assert few > 0
    assert few == many
    assert plans(lambda: irls(bundled_system, max_iter=1)) == plans(lambda: irls(bundled_system))


def test_monte_carlo_memory_scales_with_one_block(bundled_design, nominal_model):
    # the working set is one block of trials: 100 trials peak under 2.3 MB of Python
    # allocations, and a run of three full blocks and a one-trial fourth stays within 10 % of that
    def peak_mb(trials):
        tracemalloc.start()
        try:
            monte_carlo_compare(bundled_design, nominal_model, trials=trials)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    monte_carlo_compare(bundled_design, nominal_model, trials=2)  # one-time set-up off the books
    block = simulator_mod._block_trials(noise_free_system(bundled_design, nominal_model))
    hundred = peak_mb(100)
    assert hundred <= 2.3
    assert peak_mb(3 * block + 1) <= 1.1 * hundred


class TestReferenceStudy:
    def test_bundled_model_shape(self, nominal_model):
        assert nominal_model.n_joints == 6
        assert len(nominal_model.markers) == 3

    def test_configurations_and_noise_tables_align(self):
        assert reference.CONFIGURATIONS_DEG.shape == (15, 6)
        assert reference.NOISE_UM.shape == (15, 3)
        assert reference.NOISE_SE_UM.shape == (15, 3)
        noise = reference.noise_model()
        assert noise.config.tolist() == list(range(1, 16))
        assert_allclose(noise.sigma[noise.rows(1)], np.array([150.0, 64.0, 33.0]) * UM, rtol=1e-12)
        assert_allclose(
            noise.se[noise.rows(1)], np.array([1.0, 1.0, 1.0]) * UM, rtol=1e-12
        )

    def test_five_posture_blocks_of_three(self):
        q2 = reference.CONFIGURATIONS_DEG[:, 1]
        levels, counts = np.unique(q2, return_counts=True)
        assert len(levels) == 5
        assert_array_equal(counts, np.full(5, 3))

    def test_ground_truth_is_positive_and_ordered(self):
        truth = reference.ground_truth()
        assert truth.values.shape == (9,)
        assert np.all(truth.values > 0.0)
        cmap = reference.compliance_map()
        assert cmap.parameter_names[:5] == ("k2_1", "k2_2", "k2_3", "k2_4", "k2_5")
        # second-joint compliances sit well below the wrist-joint ones here
        assert np.max(truth.values[:5]) < np.min(truth.values[6:])

    def test_study_design_wiring(self, bundled_design):
        assert len(bundled_design.configurations) == 15
        assert bundled_design.markers == 3
        assert bundled_design.repetitions == 6
        assert bundled_design.mass_range_kg == (265.0, 265.0)
        assert bundled_design.cmap.n_parameters == 9
