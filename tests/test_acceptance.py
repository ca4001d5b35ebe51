"""Release gate: one check per delivery criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
``[PASS]``/``[FAIL]`` lines on the terminal.  Every check recomputes its
reference independently (finite differences, closed-form covariances, fresh
Monte Carlo statistics) rather than trusting library internals.
"""

import math
import time

import numpy as np
import pytest

from armcal import reference
from armcal.cli import main as cli_main
from armcal.estimator import (
    irls,
    ols_estimate,
    optimal_weights,
    robust_weights,
    wls_estimate,
)
from armcal.kinematics import forward_kinematics, joint_jacobian, parameter_jacobian, perturbed
from armcal.regressor import StackedSystem, stack_system
from armcal.simulator import monte_carlo_compare, noise_free_system, simulate_measurements


def verdict(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {number:02d} {name}{suffix}")
    return ok


def rel_norm(approx, exact):
    return np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-300)


def make_system(B, dp, sigma, columns=None):
    B = np.atleast_2d(np.asarray(B, dtype=float))
    rows = np.arange(B.shape[0])
    if columns is None:
        columns = tuple(f"c{j}" for j in range(B.shape[1]))
    return StackedSystem(B=B, dp=np.asarray(dp, float), sigma=np.asarray(sigma, float),
                         config=1 + rows // 3, marker=np.zeros_like(rows), axis=rows % 3,
                         columns=columns)


def random_system(rng, m=12, n=3):
    B = rng.normal(size=(m, n))
    sigma = rng.uniform(0.5, 3.0, size=m)
    dp = B @ rng.normal(size=n) + rng.normal(size=m) * sigma
    return make_system(B, dp, sigma)


@pytest.fixture(scope="module")
def mc_study():
    """The shared 2000-trial Monte Carlo run over the bundled study design."""
    start = time.perf_counter()
    mc = monte_carlo_compare(
        reference.study_design(seed=0), reference.nominal_model(), trials=2000
    )
    return mc, time.perf_counter() - start


def test_01_jacobians_match_central_differences(make_chain):
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    h, worst = 1e-6, 0.0
    for _ in range(100):
        model = make_chain(rng, prismatic_prob=0.2)
        q = rng.uniform(-np.pi, np.pi, size=model.n_joints)

        fd_joint = np.column_stack([
            (forward_kinematics(model, q + dq, 0).position
             - forward_kinematics(model, q - dq, 0).position) / (2.0 * h)
            for dq in np.eye(model.n_joints) * h
        ])
        worst = max(worst, rel_norm(joint_jacobian(model, q, 0)[:3], fd_joint))

        params = model.parameter_ids()
        fd_param = np.column_stack([
            (forward_kinematics(perturbed(model, {p: +h}), q, 0).position
             - forward_kinematics(perturbed(model, {p: -h}), q, 0).position) / (2.0 * h)
            for p in params
        ])
        worst = max(worst, rel_norm(parameter_jacobian(model, q, 0, params), fd_param))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    assert verdict(1, "analytic Jacobians match central differences",
                   ok, f"max rel err {worst:.2e}, {elapsed:.1f} s")


def test_02_noise_free_study_recovers_compliances_exactly():
    start = time.perf_counter()
    design = reference.study_design(seed=0)
    sys = noise_free_system(design, reference.nominal_model())
    res = ols_estimate(sys)
    truth = design.ground_truth.values
    rel = float(np.max(np.abs(res.x_hat - truth) / np.abs(truth)))
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-10 and elapsed < 5.0
    assert verdict(2, "noise-free study recovers the 9 compliances",
                   ok, f"max rel err {rel:.2e}, {elapsed:.1f} s")


def test_03_scalar_variance_oracle():
    sys = make_system([[1.0], [1.0]], [1.0, 2.0], [1.0, 2.0], columns=("beta",))
    ols = ols_estimate(sys)
    wls = wls_estimate(sys, optimal_weights(sys.sigma))
    checks = (
        abs(ols.covariance[0, 0] - 1.25) <= 1e-12 * 1.25,
        abs(wls.covariance[0, 0] - 0.8) <= 1e-12 * 0.8,
        abs(ols.x_hat[0] - 1.5) <= 1e-12 * 1.5,
        abs(wls.x_hat[0] - 1.2) <= 1e-12 * 1.2,
    )
    ok = all(checks)
    assert verdict(3, "scalar two-point oracle (var 5/4 vs 0.8)", ok,
                   f"ols var {ols.covariance[0, 0]!r}, wls var {wls.covariance[0, 0]!r}")


def test_04_inverse_dispersion_weighting_is_optimal():
    rng = np.random.default_rng(42)
    worst_eq, dominated = 0.0, True
    for _ in range(100):
        sys = random_system(rng)
        res = wls_estimate(sys, 1.0 / sys.sigma)
        closed_form = np.linalg.inv(sys.B.T @ np.diag(sys.sigma ** -2.0) @ sys.B)
        worst_eq = max(worst_eq, rel_norm(res.covariance, closed_form))
        best_trace = np.trace(res.covariance)
        for _ in range(100):
            alt = wls_estimate(sys, rng.uniform(0.1, 10.0, size=sys.n_equations))
            dominated &= best_trace <= np.trace(alt.covariance) + 1e-10
    ok = worst_eq <= 1e-10 and dominated
    assert verdict(4, "inverse-dispersion weights beat 100 alternatives per system",
                   ok, f"max closed-form mismatch {worst_eq:.2e}")


def test_05_monte_carlo_covariance_consistency(mc_study):
    mc, elapsed = mc_study
    rels = {
        method: abs(np.trace(mc.empirical_cov(method)) - np.trace(mc.predicted_cov[method]))
        / np.trace(mc.predicted_cov[method])
        for method in ("ols", "wls")
    }
    ok = all(r <= 0.15 for r in rels.values()) and elapsed < 120.0
    assert verdict(5, "2000-trial empirical covariances match predictions", ok,
                   f"ols {rels['ols']:.1%}, wls {rels['wls']:.1%}, {elapsed:.0f} s")


def test_06_weighted_intervals_narrower_and_nested(mc_study):
    """Weighted CIs are narrower and nest as an efficient estimator predicts.

    For the best linear unbiased estimator, x_ols - x_wls ~ N(0, C_ols - C_wls).
    A trial nests parameter j (|x_ols - x_wls| + c_wls <= c_ols, c the 3-sigma
    half-width) with probability 2 Phi(3 sqrt((r - 1) / (r + 1))) - 1, where r
    is the OLS/WLS CI ratio.  That is 0.69-0.87 per parameter on this design
    and about 0.25 for all nine at once; nesting in >= 95 % of trials would
    need ratios of about 5-10.  The predictions come from B and sigma alone.
    """
    mc, _ = mc_study
    ratio = mc.ci_ratio()
    ratio_ok = bool(np.all(ratio > 1.0))

    sys = noise_free_system(reference.study_design(seed=0), reference.nominal_model())
    pinv = np.linalg.pinv(sys.B)
    c_ols = (pinv * sys.sigma ** 2) @ pinv.T
    c_wls = np.linalg.inv(sys.B.T @ (sys.B / sys.sigma[:, None] ** 2))

    # Generalized eigenvalues of (C_ols, C_wls): all >= 1 iff the ellipsoids nest.
    min_eig = float(np.min(np.linalg.eigvals(np.linalg.solve(c_wls, c_ols)).real))
    ellipsoids_ok = min_eig >= 1.0 - 1e-9

    s_ols, s_wls = np.sqrt(np.diag(c_ols)), np.sqrt(np.diag(c_wls))
    z = 3.0 * np.sqrt((s_ols - s_wls) / (s_ols + s_wls))
    predicted_per = np.array([math.erf(v / math.sqrt(2.0)) for v in z])
    evals, evecs = np.linalg.eigh(c_ols - c_wls)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    gaps = np.random.default_rng(42).standard_normal((200_000, len(z))) @ root.T
    predicted_all = float(np.mean(np.all(np.abs(gaps) <= 3.0 * (s_ols - s_wls), axis=1)))

    n = mc.trials - mc.n_failed
    tol_all = 4.0 * math.sqrt(predicted_all * (1.0 - predicted_all) / n)
    se_per = np.sqrt(predicted_per * (1.0 - predicted_per) / n)
    worst_per = float(np.max(np.abs(mc.nested_per_param - predicted_per) / se_per))
    fractions_ok = abs(mc.nested_all_fraction - predicted_all) <= tol_all and worst_per <= 4.0

    ok = ratio_ok and ellipsoids_ok and fractions_ok
    assert verdict(
        6, "weighted CIs narrower (all 9) and nested as an efficient estimator predicts", ok,
        f"ratio>1 for {int(np.sum(ratio > 1.0))}/9, "
        f"min generalized eigenvalue {min_eig:.2f}, "
        f"nested fraction {mc.nested_all_fraction:.4f} vs predicted {predicted_all:.4f} "
        f"+/- {tol_all:.4f}, worst per-parameter gap {worst_per:.1f} SE",
    )


def test_07_estimates_insensitive_to_weight_saturation_strength():
    design = reference.study_design(seed=3)
    model = reference.nominal_model()
    records = simulate_measurements(design, model)
    sys = stack_system(records, model, design.cmap, design.noise)
    results = {lam: irls(sys, lam=lam) for lam in (0.5, 1.0, 2.0)}
    ok = True
    worst = 0.0
    values = list(results.values())
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            diff = np.abs(a.x_hat - b.x_hat)
            ok &= bool(np.all(diff <= a.ci3) and np.all(diff <= b.ci3))
            worst = max(worst, float(np.max(diff / np.minimum(a.ci3, b.ci3))))
    assert verdict(7, "lambda in {0.5, 1, 2} agrees within every run's 3-sigma",
                   ok, f"worst |diff|/ci3 {worst:.2f}")


def test_08_reweighting_converges_with_shrinking_intervals(mc_study):
    design = reference.study_design(seed=0)
    model = reference.nominal_model()
    sys = stack_system(simulate_measurements(design, model), model, design.cmap, design.noise)
    res = irls(sys)
    converged = res.converged and res.stop_reason == "tolerance" and len(res.iterations) <= 10
    last_change = float(np.max(
        np.abs(res.iterations[-1].x_hat - res.iterations[-2].x_hat)
        / np.abs(res.iterations[-2].x_hat)
    ))

    mc, _ = mc_study
    traces = mc.irls_ci_traces[:100]
    shrinking = sum(
        bool(np.all(t[1:] <= 1.05 * t[:-1]) and np.all(t[-1] <= t[0]))
        for t in traces
    )
    ok = converged and last_change < 1e-3 and len(traces) == 100 and shrinking >= 90
    assert verdict(8, "reweighting settles within 10 iterations, CI traces shrink",
                   ok, f"last change {last_change:.2e}, shrinking {shrinking}/100")


def test_09_collapse_identities():
    rng = np.random.default_rng(42)
    sys = random_system(rng, m=30, n=5)
    ols = ols_estimate(sys)
    unit = wls_estimate(sys, np.ones(sys.n_equations))
    iid = make_system(sys.B, sys.dp, np.full(sys.n_equations, 1.7))
    iid_cov = ols_estimate(iid).covariance
    iid_ref = 1.7 ** 2 * np.linalg.inv(sys.B.T @ sys.B)
    checks = (
        rel_norm(unit.x_hat, ols.x_hat) <= 1e-12,
        rel_norm(unit.covariance, ols.covariance) <= 1e-12,
        rel_norm(iid_cov, iid_ref) <= 1e-12,
        np.array_equal(robust_weights(sys.sigma, 1e-5, 0.0), np.ones(sys.n_equations)),
    )
    ok = all(checks)
    assert verdict(9, "unit weights = OLS, iid sandwich collapses, lambda=0 = no weighting",
                   ok, f"{sum(checks)}/4 identities hold")


def test_10_pipeline_counts_and_byte_determinism(tmp_path):
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["simulate", "--seed", "9", "--out", str(out)]) == 0
        cal = tmp_path / f"{name}_cal"
        assert cli_main([
            "calibrate",
            "--measurements", str(out / "measurements.tsv"),
            "--noise", str(out / "noise.tsv"),
            "--method", "irls",
            "--out", str(cal),
        ]) == 0
        dirs.append((out, cal))

    from armcal.fileio import load_measurements, load_noise_table
    from armcal.regressor import ComplianceParameterMap

    records = load_measurements(dirs[0][0] / "measurements.tsv")
    cmap = ComplianceParameterMap.from_configurations(records.q)
    sys = stack_system(records, reference.nominal_model(), cmap,
                       load_noise_table(dirs[0][0] / "noise.tsv"))

    identical = all(
        (dirs[0][0] / f).read_bytes() == (dirs[1][0] / f).read_bytes()
        for f in ("measurements.tsv", "noise.tsv", "ground_truth.tsv")
    ) and all(
        (dirs[0][1] / f).read_bytes() == (dirs[1][1] / f).read_bytes()
        for f in ("parameters.tsv", "ratios.tsv", "trace.tsv", "residuals.tsv")
    )
    ok = len(records) == 270 and sys.n_equations == 810 and identical
    assert verdict(10, "270 records / 810 equations, byte-identical reruns",
                   ok, f"{len(records)} records, {sys.n_equations} equations")
