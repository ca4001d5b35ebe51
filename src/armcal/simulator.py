"""Synthetic deflection studies with controllable noise and ground truth.

The generative model is the same linear one the identification stage fits:
marker deflection ``A(q) k`` under the applied wrench, plus an optional
first-order geometric shift ``J dPi`` applied to the loaded and unloaded
positions alike (a real geometric error moves both, and cancels from the
deflection).  Per-axis tracker noise follows the study's noise model, which
specifies the dispersion of the loaded-minus-unloaded *difference*; the two
individual draws therefore each carry ``sigma / sqrt(2)``.

Everything is deterministic given the design seed.  Monte Carlo trials derive
per-trial generators by seeding with the (seed, trial-index) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import CalibrationError
from .estimator import (
    DEFAULT_LAMBDA,
    DEFAULT_MAX_ITER,
    DEFAULT_REL_TOL,
    irls,
    ols_estimate,
    optimal_weights,
    wls_estimate,
)
from .kinematics import ManipulatorModel, forward_kinematics, parameter_jacobian
from .noise import DEFAULT_SIGMA0, NoiseModel, grouped_std
from .regressor import (
    ComplianceParameterMap,
    ExperimentRecord,
    StackedSystem,
    Wrench,
    elastostatic_regressor,
    stack_system,
)

STANDARD_GRAVITY = 9.80665  # m/s^2


@dataclass(frozen=True)
class ComplianceVector:
    """Joint compliances in SI rad/(N m); reports use micro-rad/(N m)."""

    values: np.ndarray

    REPORT_UNIT = "urad/(N.m)"
    REPORT_SCALE = 1e6  # SI -> report units

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("compliances must be finite")
        if np.any(v <= 0.0):
            raise ValueError("compliances must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_report_units(cls, values) -> "ComplianceVector":
        return cls(np.asarray(values, dtype=float) / cls.REPORT_SCALE)

    def report_units(self) -> np.ndarray:
        return self.values * self.REPORT_SCALE


@dataclass(frozen=True)
class StudyDesign:
    """Everything needed to run one synthetic deflection study.

    ``configurations`` are joint vectors in radians; configuration ids are
    their 1-based positions and the noise model must cover all of them.  The
    load is a dead weight drawn uniformly from ``mass_range_kg`` per
    configuration and hangs at ``attachment_marker`` (pure vertical force, no
    torque); a zero mass means an unloaded study.
    """

    configurations: tuple[np.ndarray, ...]
    cmap: ComplianceParameterMap
    noise: NoiseModel
    ground_truth: ComplianceVector
    markers: int = 3
    repetitions: int = 6
    mass_range_kg: tuple[float, float] = (265.0, 265.0)
    attachment_marker: int = 0
    geometry_error: Mapping[str, float] | None = None
    seed: int = 0

    def __post_init__(self):
        configs = []
        for q in self.configurations:
            q = np.asarray(q, dtype=float).reshape(-1)
            q.setflags(write=False)
            configs.append(q)
        if not configs:
            raise ValueError("study needs at least one configuration")
        if self.markers < 1 or self.repetitions < 1:
            raise ValueError("markers and repetitions must be at least 1")
        lo, hi = self.mass_range_kg
        if not (0.0 <= lo <= hi):
            raise ValueError("mass range must satisfy 0 <= lo <= hi")
        if len(self.ground_truth.values) != self.cmap.n_parameters:
            raise ValueError("ground truth length does not match the compliance map")
        object.__setattr__(self, "configurations", tuple(configs))
        for cfg_id in range(1, len(configs) + 1):
            self.noise.sigma(cfg_id)  # raises MissingNoiseError on gaps
        if self.geometry_error is not None:
            object.__setattr__(self, "geometry_error", dict(self.geometry_error))

    @property
    def config_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.configurations) + 1))


def simulate_measurements(design: StudyDesign, model: ManipulatorModel) -> list[ExperimentRecord]:
    """Generate one full study: (config x marker x repetition) records.

    With all sigmas zero and zero compliances the loaded and unloaded
    positions coincide exactly.  Records come out sorted by (config, marker,
    repetition); draws are consumed in that fixed order, so identical seeds
    reproduce identical records bit for bit.
    """
    if design.markers > len(model.markers):
        raise ValueError(f"design asks for {design.markers} markers, model has {len(model.markers)}")
    if not (0 <= design.attachment_marker < len(model.markers)):
        raise ValueError("attachment marker index out of range")

    rng = np.random.default_rng(design.seed)
    k = design.ground_truth.values
    geo = design.geometry_error
    geo_params = sorted(geo) if geo else None
    records: list[ExperimentRecord] = []
    for cfg_id, q in zip(design.config_ids, design.configurations):
        lo, hi = design.mass_range_kg
        mass = lo + (hi - lo) * rng.uniform()
        load = Wrench(
            force=np.array([0.0, 0.0, -mass * STANDARD_GRAVITY]),
            application_marker=design.attachment_marker,
        )
        half_sigma = design.noise.sigma(cfg_id) / math.sqrt(2.0)
        for marker in range(design.markers):
            fk = forward_kinematics(model, q, marker).position
            shift = np.zeros(3)
            if geo_params:
                J = parameter_jacobian(model, q, marker, geo_params)
                shift = J @ np.array([geo[p] for p in geo_params])
            deflection = elastostatic_regressor(model, q, load, design.cmap, marker) @ k
            for rep in range(1, design.repetitions + 1):
                eps0 = rng.normal(size=3) * half_sigma
                eps1 = rng.normal(size=3) * half_sigma
                records.append(
                    ExperimentRecord(
                        config=cfg_id,
                        q=q,
                        load=load,
                        marker=marker,
                        repetition=rep,
                        p0=fk + shift + eps0,
                        p=fk + shift + deflection + eps1,
                    )
                )
    return records


def noise_free_system(design: StudyDesign, model: ManipulatorModel) -> StackedSystem:
    """Stacked elastostatic system with clean deflections but the design's sigmas."""
    silent = replace(design, noise=NoiseModel.uniform(design.config_ids, 0.0))
    records = simulate_measurements(silent, model)
    return stack_system(records, model, design.cmap, design.noise)


@dataclass(frozen=True)
class MonteCarloReport:
    """Per-method estimate clouds plus the analytic references.

    ``estimates[m]`` is a (successful trials, n) array; ``ci3`` holds the
    per-trial analytic half-widths with matching shape.  ``predicted_cov``
    carries the closed-form covariances evaluated with the design's true
    noise: the unweighted sandwich for OLS, the reduced inverse-dispersion
    form for WLS.

    A trial nests parameter j when ``|x_wls - x_ols| + ci3_wls <= ci3_ols``,
    i.e. the WLS 3-sigma interval lies inside the OLS one.
    ``nested_per_param`` is the share of successful trials nesting each
    parameter; ``nested_all_fraction`` the share nesting all of them at once.
    Both solves use the design's sigmas, so the OLS and WLS half-widths are
    the same in every trial; only the estimates move.
    """

    parameters: tuple[str, ...]
    truth: np.ndarray
    trials: int
    n_failed: int
    estimates: Mapping[str, np.ndarray]
    ci3: Mapping[str, np.ndarray]
    predicted_cov: Mapping[str, np.ndarray]
    irls_ci_traces: tuple[np.ndarray, ...]
    irls_iterations: np.ndarray
    irls_converged: np.ndarray
    nested_per_param: np.ndarray
    nested_all_fraction: float

    def empirical_mean(self, method: str) -> np.ndarray:
        return np.mean(self.estimates[method], axis=0)

    def empirical_std(self, method: str) -> np.ndarray:
        return np.std(self.estimates[method], axis=0, ddof=1)

    def empirical_cov(self, method: str) -> np.ndarray:
        return np.cov(self.estimates[method], rowvar=False, ddof=1)

    def mean_ci3(self, method: str) -> np.ndarray:
        return np.mean(self.ci3[method], axis=0)

    def ci_ratio(self) -> np.ndarray:
        """Per-parameter OLS / WLS analytic CI ratio."""
        return self.mean_ci3("ols") / self.mean_ci3("wls")


def monte_carlo_compare(
    design: StudyDesign,
    model: ManipulatorModel,
    trials: int,
    sigma0: float = DEFAULT_SIGMA0,
    lam: float = DEFAULT_LAMBDA,
    rel_tol: float = DEFAULT_REL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MonteCarloReport:
    """Repeat the study ``trials`` times and compare OLS, WLS and IRLS.

    The regressor depends only on geometry and configurations, so it is built
    once; each trial redraws the deflection noise (std = the design sigmas,
    matching the two-draw difference of :func:`simulate_measurements`) and
    re-solves.  WLS uses inverse-dispersion weights from the design's true
    noise; IRLS starts blind, from the raw per-configuration scatter of that
    trial's deflections.  Failed trials are recorded; more than 5% aborts.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    base = noise_free_system(design, model)
    dp_clean = base.dp
    sigma_true = base.sigma
    w_opt = optimal_weights(sigma_true)

    ref_ols = ols_estimate(base)
    ref_wls = wls_estimate(base, w_opt)

    collected: dict[str, list[np.ndarray]] = {"ols": [], "wls": [], "irls": []}
    ci_collected: dict[str, list[np.ndarray]] = {"ols": [], "wls": [], "irls": []}
    traces: list[np.ndarray] = []
    iteration_counts: list[int] = []
    converged_flags: list[bool] = []
    nested_rows: list[np.ndarray] = []
    n_failed = 0
    for t in range(trials):
        rng = np.random.default_rng((design.seed, t))
        dp = dp_clean + rng.normal(size=dp_clean.shape) * sigma_true
        try:
            sys_t = replace(base, dp=dp)
            res_o = ols_estimate(sys_t)
            res_w = wls_estimate(sys_t, w_opt)
            sigma_raw = np.maximum(grouped_std(dp, base.group)[base.group], sigma0)
            res_i = irls(
                replace(sys_t, sigma=sigma_raw),
                sigma0=sigma0,
                lam=lam,
                rel_tol=rel_tol,
                max_iter=max_iter,
            )
        except (CalibrationError, RuntimeError, np.linalg.LinAlgError):
            n_failed += 1
            continue
        for name, res in (("ols", res_o), ("wls", res_w), ("irls", res_i)):
            collected[name].append(res.x_hat)
            ci_collected[name].append(res.ci3)
        traces.append(np.array([snap.ci3 for snap in res_i.iterations]))
        iteration_counts.append(len(res_i.iterations))
        converged_flags.append(res_i.converged)
        nested_rows.append(
            np.abs(res_w.x_hat - res_o.x_hat) + res_w.ci3 <= res_o.ci3
        )
    if n_failed > 0.05 * trials:
        raise RuntimeError(f"{n_failed}/{trials} Monte Carlo trials failed; aborting")

    nested = np.asarray(nested_rows)
    return MonteCarloReport(
        parameters=base.columns,
        truth=np.array(design.ground_truth.values),
        trials=trials,
        n_failed=n_failed,
        estimates={k: np.asarray(v) for k, v in collected.items()},
        ci3={k: np.asarray(v) for k, v in ci_collected.items()},
        predicted_cov={"ols": ref_ols.covariance, "wls": ref_wls.covariance},
        irls_ci_traces=tuple(traces),
        irls_iterations=np.asarray(iteration_counts),
        irls_converged=np.asarray(converged_flags),
        nested_per_param=nested.mean(axis=0),
        nested_all_fraction=float(nested.all(axis=1).mean()),
    )
