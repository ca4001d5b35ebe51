"""Least-squares solvers, weighting rules, covariances and the reweighting loop."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import armcal.estimator as estimator_mod
from armcal import reference
from armcal.errors import RankDeficientError, ReplicateCountError
from armcal.estimator import (
    DEFAULT_LAMBDA,
    DEFAULT_MAX_ITER,
    DEFAULT_REL_TOL,
    DEFAULT_SIGMA0,
    irls,
    ols_estimate,
    optimal_weights,
    robust_weights,
    wls_estimate,
)
from armcal.noise import NoiseModel
from armcal.regressor import StackedSystem, stack_system
from armcal.reports import write_residual_report
from armcal.simulator import monte_carlo_compare, noise_free_system, simulate_measurements
from row_level import residuals, row_std, unfolded

UM = 1e-6


def make_system(B, dp, sigma, columns=None):
    B = np.atleast_2d(np.asarray(B, dtype=float))
    rows = np.arange(B.shape[0])
    if columns is None:
        columns = tuple(f"c{j}" for j in range(B.shape[1]))
    return StackedSystem(B=B, dp=np.asarray(dp, float), sigma=np.asarray(sigma, float),
                         config=1 + rows // 3, marker=np.zeros_like(rows), axis=rows % 3,
                         columns=columns)


def random_system(rng, m=20, n=4, sigma_range=(0.5, 3.0)):
    B = rng.normal(size=(m, n))
    sigma = rng.uniform(*sigma_range, size=m)
    x_true = rng.normal(size=n)
    dp = B @ x_true + rng.normal(size=m) * sigma
    return make_system(B, dp, sigma)


class TestScalarOracle:
    """Single-regressor model y = beta * x with x = (1, 1), sigma = (1, 2)."""

    def setup_method(self):
        self.sys = make_system([[1.0], [1.0]], [1.0, 2.0], [1.0, 2.0], columns=("beta",))

    def test_ols_estimate_is_average(self):
        res = ols_estimate(self.sys)
        assert res.x_hat[0] == pytest.approx(1.5, rel=1e-12)

    def test_ols_variance_closed_form(self):
        # (sum x^2 sigma^2) / (sum x^2)^2 = (1 + 4) / 4 = 5/4
        res = ols_estimate(self.sys)
        assert res.covariance[0, 0] == pytest.approx(1.25, rel=1e-12)
        assert res.ci3[0] == pytest.approx(3.0 * math.sqrt(1.25), rel=1e-12)

    def test_wls_estimate_weighted_mean(self):
        res = wls_estimate(self.sys, optimal_weights(self.sys.sigma))
        assert res.x_hat[0] == pytest.approx(1.2, rel=1e-12)

    def test_wls_variance_closed_form(self):
        # 1 / sum(x^2 / sigma^2) = 1 / (1 + 1/4) = 0.8
        res = wls_estimate(self.sys, optimal_weights(self.sys.sigma))
        assert res.covariance[0, 0] == pytest.approx(0.8, rel=1e-12)


class TestWeightRules:
    def test_optimal_weights_formula(self):
        assert_allclose(optimal_weights(np.array([1.0, 2.0])), [1.0, 0.5], rtol=0)

    def test_optimal_weights_may_exceed_one(self):
        w = optimal_weights(np.array([0.25]))
        assert w[0] == 4.0

    def test_optimal_weights_validation(self):
        with pytest.raises(ValueError, match="positive sigmas"):
            optimal_weights(np.array([1.0, 0.0]))

    def test_estimate_independent_of_weight_scale_a(self):
        rng = np.random.default_rng(42)
        sys = random_system(rng)
        x1 = wls_estimate(sys, optimal_weights(sys.sigma)).x_hat
        x2 = wls_estimate(sys, 37.5 * optimal_weights(sys.sigma)).x_hat
        assert_allclose(x2, x1, rtol=1e-12)

    def test_robust_weights_reference_value(self):
        w = robust_weights(np.array([150.0 * UM]), sigma0=10 * UM, lam=1.0)
        assert w[0] == pytest.approx(10.0 / 160.0, rel=1e-15)

    def test_robust_weights_cap_at_one(self):
        w = robust_weights(np.array([0.0, 10 * UM, 1.0]), sigma0=10 * UM, lam=1.0)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(0.5, rel=1e-15)
        assert np.all((w > 0.0) & (w <= 1.0))

    def test_robust_weights_monotone_in_sigma(self):
        sigma = np.linspace(0.0, 500.0, 50) * UM
        w = robust_weights(sigma, sigma0=10 * UM, lam=1.0)
        assert np.all(np.diff(w) < 0.0)

    def test_lambda_zero_switches_weighting_off(self):
        w = robust_weights(np.array([17.0, 90.0, 1500.0]) * UM, sigma0=10 * UM, lam=0.0)
        assert_array_equal(w, np.ones(3))

    def test_robust_weights_validation(self):
        with pytest.raises(ValueError, match="sigma0"):
            robust_weights(np.array([1.0]), sigma0=0.0)
        with pytest.raises(ValueError, match="lambda"):
            robust_weights(np.array([1.0]), lam=-0.5)
        with pytest.raises(ValueError, match="non-negative"):
            robust_weights(np.array([-1.0]))


class TestCollapseIdentities:
    def test_unit_weights_reproduce_ols(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            sys = random_system(rng)
            res_o = ols_estimate(sys)
            res_w = wls_estimate(sys, np.ones(sys.n_equations))
            assert_allclose(res_w.x_hat, res_o.x_hat, rtol=1e-12)
            assert_allclose(res_w.covariance, res_o.covariance, rtol=1e-12)

    def test_iid_sandwich_collapses_to_scaled_inverse(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(15, 3))
        sigma_bar = 0.7
        sys = make_system(B, rng.normal(size=15), np.full(15, sigma_bar))
        res = ols_estimate(sys)
        classic = sigma_bar**2 * np.linalg.inv(B.T @ B)
        assert_allclose(res.covariance, classic, rtol=1e-12)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng)
        w = rng.uniform(0.2, 1.0, size=sys.n_equations)
        res1 = wls_estimate(sys, w)
        res2 = wls_estimate(sys, 3.7 * w)
        assert_allclose(res2.x_hat, res1.x_hat, rtol=1e-12)
        assert_allclose(res2.covariance, res1.covariance, rtol=1e-12)


class TestCovariance:
    def test_optimal_weighting_matches_reduced_form(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            sys = random_system(rng)
            res = wls_estimate(sys, optimal_weights(sys.sigma))
            reduced = np.linalg.inv(sys.B.T @ (sys.B / sys.sigma[:, None] ** 2))
            assert_allclose(res.covariance, reduced, rtol=1e-10)

    def test_optimal_weighting_minimizes_trace(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            sys = random_system(rng)
            best = np.trace(wls_estimate(sys, optimal_weights(sys.sigma)).covariance)
            for _ in range(20):
                w = rng.uniform(0.05, 2.0, size=sys.n_equations)
                alt = np.trace(wls_estimate(sys, w).covariance)
                assert best <= alt * (1.0 + 1e-10)

    def test_covariance_symmetric_positive(self):
        rng = np.random.default_rng(8)
        sys = random_system(rng)
        res = wls_estimate(sys, robust_weights(sys.sigma, sigma0=0.5))
        assert_array_equal(res.covariance, res.covariance.T)
        assert np.all(np.linalg.eigvalsh(res.covariance) > 0.0)
        assert_allclose(res.ci3, 3.0 * np.sqrt(np.diag(res.covariance)), rtol=1e-15)

    def test_weighted_residual_orthogonality(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            sys = random_system(rng, m=40, n=5)
            w = rng.uniform(0.1, 1.0, size=40)
            res = wls_estimate(sys, w)
            Bw = sys.B * w[:, None]
            rw = w * residuals(sys, res)
            scale = np.linalg.norm(Bw) * np.linalg.norm(w * sys.dp)
            assert np.linalg.norm(Bw.T @ rw) <= 1e-10 * scale

    def test_empirical_covariance_matches_prediction(self):
        # 2000 redraws of a small heteroscedastic system: the scatter of the
        # weighted estimates should reproduce the analytic covariance trace
        rng = np.random.default_rng(42)
        B = rng.normal(size=(30, 3))
        sigma = rng.uniform(0.5, 3.0, size=30)
        x_true = np.array([1.0, -2.0, 0.5])
        clean = B @ x_true
        w = optimal_weights(sigma)
        estimates = []
        for _ in range(2000):
            sys = make_system(B, clean + rng.normal(size=30) * sigma, sigma)
            estimates.append(wls_estimate(sys, w).x_hat)
        empirical = np.cov(np.asarray(estimates), rowvar=False, ddof=1)
        predicted = np.linalg.inv(B.T @ (B / sigma[:, None] ** 2))
        assert np.trace(empirical) == pytest.approx(np.trace(predicted), rel=0.15)


class TestRankHandling:
    def test_duplicate_column_raises_named_direction(self):
        B = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        sys = make_system(B, np.zeros(3), np.ones(3), columns=("ka", "kb"))
        with pytest.raises(RankDeficientError, match="unidentifiable") as exc:
            ols_estimate(sys)
        assert exc.value.code == "E_RANK_DEFICIENT"
        assert len(exc.value.directions) == 1
        assert "ka" in exc.value.directions[0]
        assert "kb" in exc.value.directions[0]

    def test_fewer_classes_than_parameters(self):
        # six rows in two classes of identical rows cannot identify three parameters: no QR is
        # taken, and the SVD fills every trial's pseudo-inverse, zero for a rank-deficient trial
        sys = StackedSystem(B=[[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]], dp=np.arange(6.0), sigma=[1.0, 2.0],
                            config=[1, 1], marker=[0, 0], axis=[0, 1], columns=("ka", "kb", "kc"),
                            row_class=[0, 0, 0, 1, 1, 1])
        f = estimator_mod._factor(sys, np.ones((2, 2)), np.ones((2, 2)))
        assert all(str(e).startswith("information matrix is rank deficient (2/3)") for e in f.errors)
        assert_array_equal(f.G, 0.0)
        with pytest.raises(RankDeficientError, match=r"\(2/3\)"):
            ols_estimate(sys)

    def test_near_deficiency_warns_with_weakest_direction(self):
        B = np.array([[1.0, 0.0], [0.0, 5e-9], [0.0, 0.0]])
        sys = make_system(B, np.zeros(3), np.ones(3), columns=("ka", "kb"))
        with pytest.warns(RuntimeWarning, match="weakest direction"):
            res = ols_estimate(sys)
        assert res.x_hat.shape == (2,)

    def test_zero_weight_rows_drop_out(self):
        rng = np.random.default_rng(4)
        B = rng.normal(size=(6, 2))
        dp = rng.normal(size=6)
        sigma = rng.uniform(0.5, 1.5, size=6)
        full = make_system(B, dp, sigma)
        w = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        res = wls_estimate(full, w)
        reduced = make_system(B[:4], dp[:4], sigma[:4])
        res_reduced = wls_estimate(reduced, np.ones(4))
        assert_allclose(res.x_hat, res_reduced.x_hat, rtol=1e-12)

    def test_all_zero_weights_rejected(self, bundled_system):
        # the solver's one rank check refuses them, as for any other rank fault
        for sys in (make_system(np.ones((3, 1)), np.zeros(3), np.ones(3)), bundled_system):
            with pytest.raises(RankDeficientError, match="weighted regressor is identically zero") as exc:
                wls_estimate(sys, np.zeros(len(sys.B)))
            assert exc.value.code == "E_RANK_DEFICIENT"

    def test_weight_vector_validated(self):
        sys = make_system(np.ones((3, 1)), np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="length"):
            wls_estimate(sys, np.ones(2))
        with pytest.raises(ValueError, match="finite and non-negative"):
            wls_estimate(sys, np.array([1.0, -1.0, 1.0]))

    def test_weights_are_one_per_class(self, bundled_system):
        # a replicated system takes one weight per class of identical rows, not one per row
        sys = bundled_system
        assert len(sys.B) < sys.n_equations
        with pytest.raises(ValueError, match="length"):
            wls_estimate(sys, np.ones(sys.n_equations))
        assert_array_equal(wls_estimate(sys, np.ones(len(sys.B))).x_hat, ols_estimate(sys).x_hat)

    @pytest.mark.parametrize("mode, params", [("elastostatic", None), ("geometric", ["a2", "d3", "theta4", "tool_x"]),
                                              ("combined", ["a2", "d3", "theta4", "tool_x"])])
    def test_bundled_design_never_reaches_the_svd(self, mode, params, bundled_study, bundled_design, nominal_model,
                                                  monkeypatch):
        # the QR bound certifies every bundled solve as full rank, so none runs the SVD
        real_svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(args[0].shape) or real_svd(*args, **kw))
        sys = stack_system(bundled_study, nominal_model, bundled_design.cmap, bundled_design.noise, mode=mode,
                           params=params)
        ols_estimate(sys)
        wls_estimate(sys, robust_weights(sys.sigma))
        wls_estimate(sys, optimal_weights(sys.sigma))
        irls(sys)
        if mode == "elastostatic":
            monte_carlo_compare(bundled_design, nominal_model, 40)
        assert calls == []
        with pytest.warns(RuntimeWarning, match="near rank deficiency"):  # the count sees a solve that needs it
            ols_estimate(make_system(np.array([[1.0, 0.0], [0.0, 5e-9], [0.0, 0.0]]), np.zeros(3), np.ones(3)))
        assert calls == [(3, 2)]  # the trial's own matrix, not a stack

    @staticmethod
    def mixed_stack():
        """(system, w, sigma, mean) of five trials: only the rows of axis 1 inform kb, so down-weighting
        them in trial 0 leaves it near rank deficiency, and trial 4 weights every row zero, so its R is
        exactly singular; both take the SVD in one stack with the QR factors of the other trials."""
        rng = np.random.default_rng(11)
        sys = make_system(rng.normal(size=(12, 3)), np.zeros(12), np.ones(12), columns=("ka", "kb", "kc"))
        sys = replace(sys, B=np.where((sys.axis == 1)[:, None] | (np.arange(3) != 1), sys.B, 0.0))
        w = rng.uniform(0.5, 2.0, size=(5, 12))
        w[0, sys.axis == 1] *= 1e-9
        w[4] = 0.0
        sigma, mean = rng.uniform(0.5, 2.0, size=(5, 12)), rng.normal(size=(5, 12))
        return sys, w, sigma, mean

    def test_near_deficient_trial_among_certified_ones(self):
        sys, w, sigma, mean = self.mixed_stack()
        s = np.linalg.svd(sys.B * w[0, :, None], compute_uv=False)
        assert estimator_mod.RANK_CUTOFF < s[-1] / s[0] < estimator_mod.RANK_WARN
        with pytest.warns(RuntimeWarning, match="near rank deficiency") as caught:
            f = estimator_mod._factor(sys, w, sigma)
        assert len(caught) == 1
        assert f.errors[:4] == [None] * 4
        assert str(f.errors[4]) == "weighted regressor is identically zero"
        x = estimator_mod._solve(f, mean)
        assert_array_equal(x[4], 0.0)
        for t in range(5):
            with warnings.catch_warnings(record=True) as one:
                warnings.simplefilter("always")
                f_t = estimator_mod._factor(sys, w[t:t + 1], sigma[t:t + 1])
            assert len(one) == (t == 0)
            assert_array_equal(f.G[t], f_t.G[0])  # each trial's pseudo-inverse, QR or SVD, as it is alone
            assert_array_equal(x[t], estimator_mod._solve(f_t, mean[t:t + 1])[0])
            assert_array_equal(f.cov[t], f_t.cov[0])

    def test_failed_svd_is_its_trials_error(self, monkeypatch):
        # an SVD that raises fails its own trial only: the trial gets a coded error and a zero
        # pseudo-inverse, and every other trial is the solve record of the stack without it
        sys, w, sigma, _ = self.mixed_stack()
        real_svd, failing = np.linalg.svd, sys.B * w[0, :, None]

        def svd(a, *args, **kw):
            if any(np.array_equal(m, failing) for m in a.reshape(-1, *a.shape[-2:])):  # alone or in a stack
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", svd)
        f = estimator_mod._factor(sys, w, sigma)
        assert isinstance(f.errors[0], RankDeficientError)
        assert str(f.errors[0]) == "weighted regressor could not be factored (SVD did not converge)"
        assert_array_equal(f.G[0], 0.0)
        rest = estimator_mod._factor(sys, w[1:], sigma[1:])
        assert [(type(e), str(e)) for e in f.errors[1:]] == [(type(e), str(e)) for e in rest.errors]
        assert f.G[1:].tobytes() == rest.G.tobytes()

    def test_stack_record_is_its_one_trial_records(self, monkeypatch):
        # one inverse serves the whole stack, the exactly singular R included, and each trial's
        # weights, sigmas, pseudo-inverse, covariance, half-widths and error are its one-trial ones
        sys, w, sigma, _ = self.mixed_stack()
        real_inv, calls = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or real_inv(a))
        with pytest.warns(RuntimeWarning, match="near rank deficiency"):
            f = estimator_mod._factor(sys, w, sigma)
        assert calls == [(5, 3, 3)]
        for t in range(5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                f_t = estimator_mod._factor(sys, w[t:t + 1], sigma[t:t + 1])
            for name in ("w", "sigma", "G", "cov", "ci3"):
                assert getattr(f, name)[t].tobytes() == getattr(f_t, name)[0].tobytes(), (t, name)
            e, e_t = f.errors[t], f_t.errors[0]
            assert (type(e), str(e)) == (type(e_t), str(e_t))
        assert_array_equal(f.ci3, 3.0 * np.sqrt(np.diagonal(f.cov, axis1=1, axis2=2)))
        assert (f.ci3[4] == 0.0).all() and (f.ci3[:4] > 0.0).all()


class TestEstimationResult:
    def test_predicted_definition(self):
        rng = np.random.default_rng(17)
        sys = random_system(rng)
        res = ols_estimate(sys)
        for r in (res, wls_estimate(sys, robust_weights(sys.sigma))):
            assert_array_equal(r.predicted, sys.B @ r.x_hat)
            assert_allclose(residuals(sys, r), sys.B @ r.x_hat - sys.dp, atol=1e-15)
        assert res.method == "ols"
        assert_array_equal(res.weights, np.ones(sys.n_equations))

    def test_result_keeps_its_own_weights(self, bundled_system, tmp_path):
        # changing the caller's weight array after the solve changes neither the result
        # nor the weight column its residual report writes
        sys = bundled_system
        w = robust_weights(sys.sigma)
        res = wls_estimate(sys, w)
        expected = w.copy()
        w[:] = 5.0
        assert_array_equal(res.weights, expected)
        lines = write_residual_report(tmp_path, sys, res).read_text().splitlines()[1:]
        assert [line.split("\t")[4] for line in lines] == [repr(float(v)) for v in expected[sys.row_class]]

    @pytest.mark.parametrize("mode", ["elastostatic", "geometric", "combined"])
    def test_weights_and_sigma_are_per_class(self, mode, bundled_study, bundled_design, nominal_model):
        params = None if mode == "elastostatic" else ["a2", "d3", "theta4", "tool_x"]
        sys = stack_system(bundled_study, nominal_model, bundled_design.cmap, bundled_design.noise,
                           mode=mode, params=params)
        assert len(sys.B) < sys.n_equations
        for res in (ols_estimate(sys), wls_estimate(sys, robust_weights(sys.sigma)), irls(sys)):
            assert res.weights.shape == res.sigma.shape == res.predicted.shape == (len(sys.B),)
            # nothing in a result is per row
            assert not [f.name for f in fields(res) if np.shape(getattr(res, f.name))[:1] == (sys.n_equations,)]


class TestNoiseFreeRecovery:
    def test_ols_recovers_truth_exactly(self, nominal_model):
        design = reference.study_design(seed=0)
        sys = noise_free_system(design, nominal_model)
        res = ols_estimate(sys)
        assert_allclose(res.x_hat, design.ground_truth.values, rtol=1e-10)
        assert np.max(np.abs(residuals(sys, res))) < 1e-15


@pytest.fixture(scope="module")
def noisy_system(nominal_model):
    design = reference.study_design(seed=6)
    records = simulate_measurements(design, nominal_model)
    return stack_system(records, nominal_model, design.cmap, design.noise)


class TestIRLS:
    def test_single_pass_equals_robust_wls(self, noisy_system):
        res = irls(noisy_system, max_iter=1)
        direct = wls_estimate(
            noisy_system, robust_weights(noisy_system.sigma, DEFAULT_SIGMA0, DEFAULT_LAMBDA)
        )
        assert_array_equal(res.x_hat, direct.x_hat)
        assert_array_equal(res.covariance, direct.covariance)
        assert res.method == "irls"
        assert not res.converged
        assert res.stop_reason == "max_iter"
        assert len(res.iterations) == 1

    def test_converges_on_bundled_study(self, noisy_system):
        res = irls(noisy_system)
        assert res.converged
        assert res.stop_reason == "tolerance"
        assert len(res.iterations) <= 10
        snaps = res.iterations
        assert [s.index for s in snaps] == list(range(1, len(snaps) + 1))
        assert_array_equal(snaps[-1].x_hat, res.x_hat)
        assert np.all(snaps[-1].ci3 > 0.0)
        # stopping rule: the last recorded step moved less than rel_tol
        prev, last = snaps[-2], snaps[-1]
        change = np.max(np.abs(last.x_hat - prev.x_hat) / np.abs(prev.x_hat))
        assert change < DEFAULT_REL_TOL

    def test_homoscedastic_second_iteration_is_quiet(self, nominal_model):
        # noise at the instrument's claimed precision on every axis: the
        # re-learnt weights are nearly uniform and barely move the estimate
        uniform = NoiseModel.uniform(range(1, 16), 10 * UM)
        design = reference.study_design(seed=9, noise=uniform)
        records = simulate_measurements(design, nominal_model)
        sys = stack_system(records, nominal_model, design.cmap, design.noise)
        res = irls(sys, rel_tol=0.0, max_iter=2)  # force exactly two iterations
        first, second = res.iterations
        change = np.max(np.abs(second.x_hat - first.x_hat) / np.abs(first.x_hat))
        assert change < 1e-3
        w2 = res.weights
        assert np.max(w2) / np.min(w2) < 2.0  # no row dominates

    def test_max_iter_flagged(self, noisy_system):
        res = irls(noisy_system, rel_tol=0.0, max_iter=3)
        assert len(res.iterations) == 3
        assert not res.converged
        assert res.stop_reason == "max_iter"

    def test_rank_loss_returns_last_valid_iterate(self, noisy_system, monkeypatch):
        # irls factors every iteration's weighted regressor through _factor,
        # which reports a rank failure per trial instead of raising it
        real_factor = estimator_mod._factor
        calls = {"n": 0}

        def failing_factor(sys, w, sigma):
            calls["n"] += 1
            factors = real_factor(sys, w, sigma)
            if calls["n"] >= 2:
                factors = factors._replace(
                    errors=[RankDeficientError("synthetic rank collapse")] * len(factors.errors))
            return factors

        monkeypatch.setattr(estimator_mod, "_factor", failing_factor)
        res = irls(noisy_system, rel_tol=0.0, max_iter=5)
        assert len(res.iterations) == 1
        assert not res.converged
        assert res.stop_reason == "rank_loss"

    def test_first_iteration_rank_failure_propagates(self):
        B = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [2.0, 2.0]])
        sys = StackedSystem(
            B=B,
            dp=np.zeros(4),
            sigma=np.ones(4),
            config=[1, 1, 1, 1],
            marker=[0, 0, 0, 0],
            axis=[0, 0, 1, 1],
            columns=("ka", "kb"),
        )
        with pytest.raises(RankDeficientError):
            irls(sys)

    def test_replicate_starved_groups_rejected(self):
        # each (config, axis) group holds a single row: nothing to re-estimate
        sys = make_system(np.ones((3, 1)), np.zeros(3), np.ones(3))
        with pytest.raises(ReplicateCountError, match=">= 2 rows"):
            irls(sys)

    def test_last_iteration_skips_the_re_estimate(self):
        # one-row groups cannot be re-estimated, but max_iter=1 needs no re-estimate
        sys = make_system(np.ones((3, 1)), np.zeros(3), np.ones(3))
        fit = irls(sys, max_iter=1)
        assert fit.stop_reason == "max_iter"
        assert not fit.converged
        assert len(fit.iterations) == 1
        direct = wls_estimate(sys, robust_weights(sys.sigma, DEFAULT_SIGMA0, DEFAULT_LAMBDA))
        assert_array_equal(fit.x_hat, direct.x_hat)

    def test_stacked_trials_keep_their_own_stop(self):
        # Three (configuration, axis) groups of six rows; only the middle group
        # informs kb.  In trial 0 that group's rows disagree by +-1e11, so its
        # re-learnt dispersion drives its weights to ~1e-11 and a later
        # iteration loses rank, while the other trials reweight on.
        axis = np.repeat([0, 1, 2], 6)
        B = np.random.default_rng(3).normal(size=(18, 3))
        B[axis != 1, 1] = 0.0
        sys = StackedSystem(B=B, dp=np.zeros(18), sigma=np.ones(18), config=[1] * 18,
                            marker=[0] * 18, axis=axis, columns=("ka", "kb", "kc"))
        rng = np.random.default_rng(3)
        scale = np.array([0.3, 1.0, 3.0])[axis] * np.array([[1.0], [1.0], [4.0], [0.2]])
        y = B @ np.array([2.0, -1.0, 0.5]) + rng.normal(size=(4, 18)) * scale
        y[0, axis == 1] = 1e11 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        kw = dict(sigma0=0.1, lam=1.0, rel_tol=1e-6, max_iter=20)
        fits = estimator_mod._irls_stack(sys, *sys.class_plan.moments(y), np.ones((4, 18)), **kw)
        assert [f.stop_reason for f in fits] == ["rank_loss", "max_iter", "tolerance", "tolerance"]
        assert [len(f.iterations) for f in fits] == [4, 20, 9, 5]
        for t, fit in enumerate(fits):
            sys_t = replace(sys, dp=y[t])
            ref = irls(sys_t, **kw)
            assert (fit.method, fit.parameters) == ("irls", sys.columns)
            assert (fit.stop_reason, fit.converged) == (ref.stop_reason, ref.converged)
            for name in ("x_hat", "covariance", "ci3"):
                assert_array_equal(getattr(fit, name), getattr(ref, name))
            # the stacked fit keeps one prediction, weight and sigma per class of identical rows
            assert_array_equal(fit.predicted, ref.predicted)
            assert_array_equal(residuals(sys_t, fit), residuals(sys_t, ref))
            assert_array_equal(fit.weights, ref.weights)
            assert_array_equal(fit.sigma, ref.sigma)
            assert len(fit.iterations) == len(ref.iterations)
            for a, b in zip(fit.iterations, ref.iterations):
                assert a.index == b.index
                assert_array_equal(a.x_hat, b.x_hat)
                assert_array_equal(a.ci3, b.ci3)

    @staticmethod
    def unequal_system(rng):
        # groups of 5, 7 and 5 rows (two group sizes) made of classes of 1 to 4 identical rows,
        # the rows of each class scattered over the system
        sizes, axes = [3, 2, 1, 4, 2, 2, 3], [0, 0, 1, 1, 1, 2, 2]
        row_class = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        B = rng.normal(size=(len(sizes), 3))
        return StackedSystem(B=B, dp=np.zeros(len(row_class)), sigma=np.ones(len(sizes)),
                             config=np.ones(len(sizes)), marker=np.zeros(len(sizes)),
                             axis=axes, columns=("ka", "kb", "kc"), row_class=row_class)

    @pytest.mark.parametrize("kind", ["bundled", "unequal", "one_row_classes"])
    def test_re_estimate_matches_row_level_std(self, kind, bundled_system):
        # the pooled std of class moments equals the row-level std of the residuals up to
        # rounding, and at a zero prediction (the raw start) that of the observations
        rng = np.random.default_rng(8)
        sys = {"bundled": bundled_system, "unequal": self.unequal_system(rng),
               "one_row_classes": unfolded(bundled_system)}[kind]
        truth = ols_estimate(bundled_system).x_hat if kind != "unequal" else np.array([1.0, -2.0, 0.5])
        clean = (sys.B @ truth)[sys.row_class]
        y = clean + rng.normal(size=(4, sys.n_equations)) * 0.3 * np.sqrt(np.mean(clean ** 2))
        x = truth * (1.0 + 0.05 * rng.normal(size=(4, sys.n_parameters)))  # one estimate per trial
        row_group = sys.class_group_plan.label[sys.row_class]
        assert np.unique(np.bincount(row_group)).size == (2 if kind == "unequal" else 1)  # group sizes
        assert np.unique(sys.class_plan.counts).size == (4 if kind == "unequal" else 1)  # class sizes
        moments = sys.class_plan.moments(y)
        for predicted in ((sys.B @ x[:, :, None])[:, :, 0], np.zeros((4, len(sys.B)))):
            got = estimator_mod._dispersions(sys, predicted, *moments, sigma0=1e-300)
            expected = row_std(predicted[:, sys.row_class] - y, row_group)[:, sys.class_group_plan.label]
            assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_max_iter_validated(self, noisy_system):
        with pytest.raises(ValueError, match="max_iter"):
            irls(noisy_system, max_iter=0)

    def test_default_constants(self):
        assert DEFAULT_LAMBDA == 1.0
        assert DEFAULT_REL_TOL == 1e-3
        assert DEFAULT_MAX_ITER == 20


class TestReplicateSigma:
    """The dispersions of a run without a noise table, from the scatter within repeated postures."""

    def test_pure_error_of_the_bundled_design(self, bundled_system):
        # three markers of six repetitions: 3 x (6 - 1) degrees of freedom per (configuration, axis)
        scatter, dof = estimator_mod._pure_error(bundled_system)
        assert_array_equal(dof, np.full(45, 15))
        sys = bundled_system
        own_mean = (sys.class_plan.sum(sys.dp) / sys.class_plan.counts)[sys.row_class]
        expected = np.bincount(sys.class_group_plan.label[sys.row_class], (sys.dp - own_mean) ** 2)
        assert_allclose(scatter, expected, rtol=1e-12)

    def test_stated_std_matches_monte_carlo_scatter(self, nominal_model):
        # 200 bundled elastostatic studies, each solved with its own table-less sigmas: the mean
        # stated std of every parameter is within 15 % of the spread of its estimates
        estimates, stated = {}, {}
        for seed in range(1000, 1200):
            design = reference.study_design(seed=seed)
            study = simulate_measurements(design, nominal_model)
            sys = stack_system(study, nominal_model, design.cmap, NoiseModel.uniform(design.config_ids, 1.0))
            sys = replace(sys, sigma=estimator_mod._replicate_sigma(sys, DEFAULT_SIGMA0))
            for res in (ols_estimate(sys), wls_estimate(sys, robust_weights(sys.sigma)), irls(sys)):
                estimates.setdefault(res.method, []).append(res.x_hat)
                stated.setdefault(res.method, []).append(res.ci3 / 3.0)
        for method in ("ols", "wls", "irls"):
            ratio = np.mean(stated[method], axis=0) / np.std(estimates[method], axis=0, ddof=1)
            assert np.all(np.abs(ratio - 1.0) <= 0.15), (method, ratio)
