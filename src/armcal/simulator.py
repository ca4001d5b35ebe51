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

from .estimator import (
    DEFAULT_LAMBDA,
    DEFAULT_MAX_ITER,
    DEFAULT_REL_TOL,
    _DOMAIN,
    _dispersions,
    _factor,
    _irls_stack,
    _solve,
    optimal_weights,
)
from .kinematics import ManipulatorModel, _frozen, _kinematics, _parameter_jacobians
from .noise import DEFAULT_SIGMA0, NoiseModel
from .regressor import (
    ComplianceParameterMap,
    StackedSystem,
    Study,
    _regressors,
    stack_system,
)

STANDARD_GRAVITY = 9.80665  # m/s^2

#: Byte budget of one block of trials in the Monte Carlo comparison, counted
#: as a weighted copy of the system's (classes, parameters) regressor plus a
#: row of observations per trial (:func:`_block_trials`); it sets how many
#: trials are solved together, 20 on the bundled design.  The working memory
#: scales with this block, not with the trial count.  It is the largest block
#: whose Python allocations at 100 trials peak no higher than 2.1 MB.
_BLOCK_BYTES = 5 << 16


@dataclass(frozen=True)
class ComplianceVector:
    """Joint compliances in SI rad/(N m); reports use micro-rad/(N m)."""

    values: np.ndarray

    REPORT_UNIT = "urad/(N.m)"
    REPORT_SCALE = 1e6  # SI -> report units

    def __post_init__(self):
        v = _frozen(self.values, float, -1)
        if not np.all(np.isfinite(v)):
            raise ValueError("compliances must be finite")
        if np.any(v <= 0.0):
            raise ValueError("compliances must be strictly positive")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_report_units(cls, values) -> "ComplianceVector":
        return cls(np.asarray(values, dtype=float) / cls.REPORT_SCALE)

    def report_units(self) -> np.ndarray:
        return self.values * self.REPORT_SCALE


@dataclass(frozen=True)
class StudyDesign:
    """Everything needed to run one synthetic deflection study.

    ``configurations`` are joint vectors in radians, all of one length; configuration ids are
    their 1-based positions and the noise model must cover all of them.  The
    load is a dead weight drawn uniformly from ``mass_range_kg`` per
    configuration, at most the ``_DOMAIN`` mass, and hangs at marker 0 (pure
    vertical force, no torque); a zero mass means an unloaded study.
    """

    configurations: tuple[np.ndarray, ...]
    cmap: ComplianceParameterMap
    noise: NoiseModel
    ground_truth: ComplianceVector
    markers: int = 3
    repetitions: int = 6
    mass_range_kg: tuple[float, float] = (265.0, 265.0)
    geometry_error: Mapping[str, float] | None = None
    seed: int = 0

    def __post_init__(self):
        configs = tuple(_frozen(q, float, -1) for q in self.configurations)
        if not configs:
            raise ValueError("study needs at least one configuration")
        counts = sorted({q.size for q in configs})
        if len(counts) > 1:
            raise ValueError(f"configurations differ in joint count ({', '.join(map(str, counts))}); all need the same")
        if self.markers < 1 or self.repetitions < 1:
            raise ValueError("markers and repetitions must be at least 1")
        lo, hi = self.mass_range_kg
        if not (0.0 <= lo <= hi <= _DOMAIN["mass"][1]):
            raise ValueError(f"mass range must satisfy 0 <= lo <= hi <= {_DOMAIN['mass'][1]:g} kg")
        if len(self.ground_truth.values) != self.cmap.n_parameters:
            raise ValueError("ground truth length does not match the compliance map")
        object.__setattr__(self, "configurations", configs)
        self.noise.rows(self.config_ids)  # raises MissingNoiseError on gaps
        if self.geometry_error is not None:
            object.__setattr__(self, "geometry_error", dict(self.geometry_error))

    @property
    def config_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.configurations) + 1))


def simulate_measurements(design: StudyDesign, model: ManipulatorModel) -> Study:
    """Generate one full study: a row per (config, marker, repetition).

    With all sigmas zero and zero compliances the loaded and unloaded
    positions coincide exactly.  Rows are made in the (config, marker, rep)
    order a study keeps, so it shares them; draws are consumed in that order
    (per configuration the load mass, then the unloaded and loaded noise
    3-vectors of each row), so identical seeds give identical studies bit for bit.
    """
    if design.markers > len(model.markers):
        raise ValueError(f"design asks for {design.markers} markers, model has {len(model.markers)}")

    rng = np.random.default_rng(design.seed)
    lo, hi = design.mass_range_kg
    masses, eps = [], []
    for _ in design.configurations:  # per configuration the load mass, then its rows' noise
        masses.append(lo + (hi - lo) * rng.uniform())
        # one draw equals the row-by-row 3-vectors (unloaded, then loaded) in order
        eps.append(rng.normal(size=(design.markers, design.repetitions, 2, 3)))
    eps = np.array(eps) * (design.noise.sigma[design.noise.rows(design.config_ids)]
                           / math.sqrt(2.0))[:, None, None, None]
    forces = np.zeros((len(masses), 3))
    forces[:, 2] = -np.array(masses) * STANDARD_GRAVITY

    # kinematics once over the (configuration, marker) pairs; the load hangs at marker 0
    pair_cfg, pair_marker = np.indices((len(forces), design.markers)).reshape(2, -1)
    q = np.asarray(design.configurations)[pair_cfg]
    markers = np.stack([pair_marker, np.zeros_like(pair_marker)], axis=1)
    frames, _, p = _kinematics(model, q, markers)
    geo = sorted(design.geometry_error or {})
    delta = [design.geometry_error[name] for name in geo]
    shift = _parameter_jacobians(model, frames, p[:, 0], geo) @ delta if geo else 0.0
    unloaded = (p[:, 0] + shift).reshape(len(forces), design.markers, 1, 3)
    wrench = np.concatenate([forces[pair_cfg], np.zeros((len(q), 3))], axis=1)
    p0 = unloaded + eps[..., 0, :]
    deflection = _regressors(model, q, frames, p, wrench, design.cmap) @ design.ground_truth.values
    p = unloaded + deflection.reshape(unloaded.shape) + eps[..., 1, :]
    cfg, marker, rep = np.indices((len(forces), design.markers, design.repetitions)).reshape(3, -1)
    q, force = np.asarray(design.configurations)[cfg], forces[cfg]
    for a in (q, force, p0, p):  # frozen here, so the study shares them
        a.setflags(write=False)
    return Study(config=np.asarray(design.config_ids)[cfg], marker=marker, rep=rep + 1, q=q, force=force,
                 fmarker=np.zeros_like(cfg), p0=np.reshape(p0, (-1, 3)), p=np.reshape(p, (-1, 3)))


def noise_free_system(design: StudyDesign, model: ManipulatorModel) -> StackedSystem:
    """Stacked elastostatic system with clean deflections but the design's sigmas."""
    silent = replace(design, noise=NoiseModel.uniform(design.config_ids, 0.0))
    return stack_system(simulate_measurements(silent, model), model, design.cmap, design.noise)


def _block_trials(sys: StackedSystem) -> int:
    """Trials per Monte Carlo block of ``sys`` (20 on the bundled design): ``_BLOCK_BYTES``
    over one trial's weighted copy of ``sys.B`` (a row per class of identical rows) and its
    row of observations; the IRLS loop's other per-trial arrays are per class."""
    return max(1, _BLOCK_BYTES // (sys.B.itemsize * (sys.B.size + sys.n_equations)))


@dataclass(frozen=True)
class MonteCarloReport:
    """Per-method estimate clouds plus the analytic references.

    ``estimates[m]`` is a (successful trials, n) array; ``ci3`` holds the
    per-trial analytic half-widths with matching shape.  ``predicted_cov``
    carries the closed-form covariances evaluated with the design's true
    noise: the unweighted sandwich for OLS, the reduced inverse-dispersion
    form for WLS.  ``failures`` lists each failed trial as (trial index,
    exception class name, message); ``n_failed`` is its length.  The IRLS
    arrays hold each successful trial's own iteration count, stop and trace.

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
    failures: tuple[tuple[int, str, str], ...]
    estimates: Mapping[str, np.ndarray]
    ci3: Mapping[str, np.ndarray]
    predicted_cov: Mapping[str, np.ndarray]
    irls_ci_traces: tuple[np.ndarray, ...]
    irls_iterations: np.ndarray
    irls_converged: np.ndarray
    nested_per_param: np.ndarray
    nested_all_fraction: float

    @property
    def n_failed(self) -> int:
        return len(self.failures)

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
    matching the two-draw difference of :func:`simulate_measurements`) from
    its own ``default_rng((seed, trial))`` stream and re-solves.  WLS uses
    inverse-dispersion weights from the design's true noise; IRLS starts
    blind, from the raw per-(configuration, axis) scatter of that trial's
    deflections.

    Trials are solved together in fixed blocks (20 trials each on the
    bundled design, sized by :func:`_block_trials`), each trial's noise drawn
    in place into its row of the block.  The block's observations are then
    read once, as per-class means and scatters, which every solve and every
    dispersion estimate of the block reads: the IRLS start is the
    re-estimate at a zero prediction.  Every solve factors the distinct
    rows only, one per class of a posture's identical repetitions (see
    :mod:`armcal.estimator`).  OLS and WLS share ``B`` and their weights
    across trials, so each is one pseudo-inverse, made before any block, plus
    its product with the block's folded class means, and that pseudo-inverse
    also gives the method's predicted covariance and CIs; IRLS runs one stacked
    factorization per iteration over the block's still-running trials
    (a QR, and its own SVD for each trial the QR cannot certify as full
    rank), each ending as its own ``irls``
    :class:`~armcal.estimator.EstimationResult` with its own stop iteration
    and reason.
    Blocks are drawn and solved one after another, in trial order, so
    working memory scales with the block size, not with ``trials``.  Every
    estimate equals the one-trial solve of that trial bit for bit.  Failed
    trials are recorded with their reason: a solve fault, a failed SVD
    included, is its own trial's error in the solve record, so it fails
    that trial only.  More than 5% failed trials abort.  A design with a
    one-row (configuration, axis) group raises ``ReplicateCountError``
    before any trial is solved.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    base = noise_free_system(design, model)
    dp_clean, sigma_true = base.dp, base.sigma[base.row_class]

    fixed = {}  # per method, its solve record, shared by every trial
    for name, w in (("ols", np.ones_like(base.sigma)), ("wls", optimal_weights(base.sigma))):
        fixed[name] = f = _factor(base, w[None], base.sigma[None])
        if f.errors[0] is not None:
            raise f.errors[0]

    block, irls_args = _block_trials(base), (sigma0, lam, rel_tol, max_iter)
    failures: list[tuple[int, str, str]] = []
    solved: list[tuple] = []  # per solved trial, its OLS, WLS and IRLS outcomes
    for start in range(0, trials, block):
        block_trials = range(start, min(start + block, trials))
        dp = np.empty((len(block_trials), dp_clean.shape[0]))
        for j, t in enumerate(block_trials):  # the same stream as normal(size=), drawn in place
            np.random.default_rng((design.seed, t)).standard_normal(out=dp[j])
        dp *= sigma_true
        dp += dp_clean
        mean, scatter = base.class_plan.moments(dp)
        sigma_raw = _dispersions(base, 0.0, mean, scatter, sigma0)  # a one-row group raises here
        x = {name: _solve(f, mean) for name, f in fixed.items()}
        fits = _irls_stack(base, mean, scatter, sigma_raw, *irls_args)
        for j, (t, fit) in enumerate(zip(block_trials, fits)):
            if isinstance(fit, Exception):
                failures.append((t, type(fit).__name__, str(fit)))
            else:
                solved.append((x["ols"][j], x["wls"][j], fit.x_hat, fit.ci3,
                               np.array([snap.ci3 for snap in fit.iterations]), fit.converged))
    if len(failures) > 0.05 * trials:
        t, kind, message = failures[0]
        raise RuntimeError(f"{len(failures)}/{trials} Monte Carlo trials failed; aborting "
                           f"(first: trial {t}, {kind}: {message})")

    x_ols, x_wls, x_irls, ci3_irls, traces, converged = zip(*solved)
    estimates = {"ols": np.asarray(x_ols), "wls": np.asarray(x_wls), "irls": np.asarray(x_irls)}
    n_ok = len(solved)
    nested = np.abs(estimates["wls"] - estimates["ols"]) + fixed["wls"].ci3[0] <= fixed["ols"].ci3[0]
    return MonteCarloReport(
        parameters=base.columns,
        truth=np.array(design.ground_truth.values),
        trials=trials,
        failures=tuple(failures),
        estimates=estimates,
        ci3={**{name: np.tile(f.ci3[0], (n_ok, 1)) for name, f in fixed.items()}, "irls": np.asarray(ci3_irls)},
        predicted_cov={name: f.cov[0] for name, f in fixed.items()},
        irls_ci_traces=traces,
        irls_iterations=np.array([len(trace) for trace in traces]),
        irls_converged=np.asarray(converged),
        nested_per_param=nested.mean(axis=0),
        nested_all_fraction=float(nested.all(axis=1).mean()),
    )
