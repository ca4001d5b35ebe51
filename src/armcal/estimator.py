"""Ordinary, weighted and iteratively reweighted least-squares identification.

All solvers go through one singular-value decomposition of the (weighted)
regressor, never through explicitly formed normal equations, and report the
heteroscedasticity-aware sandwich covariance

    cov(x) = (B' W^2 B)^-1  B' W^2 S^2 W^2 B  (B' W^2 B)^-1

with S = diag(sigma).  With the optimal weighting W = S^-1 this collapses to
the reduced form (B' S^-2 B)^-1.  Confidence intervals are plus/minus three
standard deviations throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import RankDeficientError
from .noise import DEFAULT_SIGMA0, grouped_std
from .regressor import StackedSystem

#: Relative singular-value cutoff below which a direction counts as collapsed.
RANK_CUTOFF = 1e-10
#: Relative singular-value level that triggers a near-deficiency warning.
RANK_WARN = 1e-8

DEFAULT_LAMBDA = 1.0
DEFAULT_REL_TOL = 1e-3
DEFAULT_MAX_ITER = 20


@dataclass(frozen=True)
class IterationSnapshot:
    """One reweighting step: estimate and CI half-widths after solving."""

    index: int
    x_hat: np.ndarray
    ci3: np.ndarray


@dataclass(frozen=True)
class EstimationResult:
    """Solved system: estimate, sandwich covariance and diagnostics.

    ``residuals`` are ``B @ x_hat - dp`` on the unweighted scale; ``weights``
    and ``sigma`` are the per-row values used by the final solve.
    """

    parameters: tuple[str, ...]
    x_hat: np.ndarray
    covariance: np.ndarray
    ci3: np.ndarray
    residuals: np.ndarray
    method: str
    weights: np.ndarray
    sigma: np.ndarray
    iterations: tuple[IterationSnapshot, ...] = ()
    converged: bool = True
    stop_reason: str = ""


def confidence_intervals(result: EstimationResult) -> np.ndarray:
    """(n, 2) array of [low, high] three-sigma bounds per parameter."""
    return np.column_stack([result.x_hat - result.ci3, result.x_hat + result.ci3])


def optimal_weights(sigma: np.ndarray, a: float = 1.0) -> np.ndarray:
    """Inverse-dispersion weights w_i = a / sigma_i (a > 0 is a free scale)."""
    sigma = np.asarray(sigma, dtype=float)
    if a <= 0.0 or not math.isfinite(a):
        raise ValueError("weight scale a must be positive and finite")
    if np.any(sigma <= 0.0):
        raise ValueError("optimal weights need strictly positive sigmas")
    return a / sigma


def robust_weights(sigma: np.ndarray, sigma0: float = DEFAULT_SIGMA0, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Saturating weights w_i = sigma0 / (sigma0 + lam * sigma_i).

    ``sigma0`` is the claimed precision of the measurement system; the rule
    tends to 1 for rows at or below that precision instead of blowing up,
    and ``lam = 0`` switches weighting off entirely.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma0 <= 0.0 or not math.isfinite(sigma0):
        raise ValueError("sigma0 must be positive and finite")
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError("lambda must be non-negative and finite")
    if np.any(sigma < 0.0):
        raise ValueError("sigmas must be non-negative")
    return sigma0 / (sigma0 + lam * sigma)


def _describe_direction(v: np.ndarray, names: Sequence[str]) -> str:
    order = np.argsort(-np.abs(v))
    keep = [i for i in order if abs(v[i]) >= 0.25 * abs(v[order[0]])][:4]
    return " ".join(f"{v[i]:+.2f}*{names[i]}" for i in keep)


def _weighted_solve(
    sys: StackedSystem, weights: np.ndarray, method: str
) -> EstimationResult:
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != sys.n_equations:
        raise ValueError("weight vector length does not match the system")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if not np.any(w > 0.0):
        raise ValueError("all rows have zero weight")

    Bw = sys.B * w[:, None]
    yw = sys.dp * w
    U, s, Vt = np.linalg.svd(Bw, full_matrices=False)
    if s[0] == 0.0:
        raise RankDeficientError("weighted regressor is identically zero")
    rel = s / s[0]
    n = sys.n_parameters
    rank = int(np.count_nonzero(rel > RANK_CUTOFF))
    if rank < n:
        directions = tuple(_describe_direction(Vt[i], sys.columns) for i in range(rank, n))
        raise RankDeficientError(
            f"information matrix is rank deficient ({rank}/{n}); "
            f"unidentifiable: {'; '.join(directions)}",
            directions=directions,
        )
    if rel[-1] < RANK_WARN:
        warnings.warn(
            "information matrix is near rank deficiency "
            f"(relative singular value {rel[-1]:.2e}); weakest direction: "
            f"{_describe_direction(Vt[-1], sys.columns)}",
            RuntimeWarning,
            stacklevel=3,
        )

    x = Vt.T @ ((U.T @ yw) / s)
    G = Vt.T @ (U.T / s[:, None])  # pinv of the weighted regressor
    ws = w * sys.sigma
    cov = (G * ws[None, :] ** 2) @ G.T
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov)
    if np.any(diag < 0.0):
        raise RuntimeError("covariance diagonal went negative; system is numerically unusable")
    return EstimationResult(
        parameters=sys.columns,
        x_hat=x,
        covariance=cov,
        ci3=3.0 * np.sqrt(diag),
        residuals=sys.B @ x - sys.dp,
        method=method,
        weights=w,
        sigma=np.array(sys.sigma),
    )


def ols_estimate(sys: StackedSystem) -> EstimationResult:
    """Unweighted solve; the covariance still honours per-row dispersions."""
    return _weighted_solve(sys, np.ones(sys.n_equations), "ols")


def wls_estimate(sys: StackedSystem, weights: np.ndarray) -> EstimationResult:
    """Weighted solve with a caller-supplied diagonal weighting."""
    return _weighted_solve(sys, weights, "wls")


def irls(
    sys: StackedSystem,
    sigma0: float = DEFAULT_SIGMA0,
    lam: float = DEFAULT_LAMBDA,
    rel_tol: float = DEFAULT_REL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EstimationResult:
    """Iteratively reweighted solve with dispersions re-learnt from residuals.

    Iteration 1 weights come from the system's own sigma vector.  Every later
    iteration re-estimates the per-(configuration, axis) dispersions from the
    previous residuals (sample std over that group's markers x repetitions,
    floored at ``sigma0``; a one-row group raises ``ValueError``), rebuilds
    the saturating weights and re-solves.

    Stops when the largest per-parameter relative change drops below
    ``rel_tol`` or after ``max_iter`` iterations; a non-finite ``rel_tol``
    requests a single weighted pass.  If a later iteration loses rank, the
    last valid iterate is returned flagged (``converged=False``,
    ``stop_reason='rank_loss'``).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    sigma_t = np.array(sys.sigma)
    trace: list[IterationSnapshot] = []
    result: EstimationResult | None = None
    converged = False
    reason = "max_iter"
    for t in range(1, max_iter + 1):
        weights = robust_weights(sigma_t, sigma0, lam)
        try:
            step = _weighted_solve(replace(sys, sigma=sigma_t), weights, "irls")
        except RankDeficientError:
            if result is None:
                raise
            reason = "rank_loss"
            break
        prev = result
        result = step
        trace.append(IterationSnapshot(index=t, x_hat=step.x_hat, ci3=step.ci3))
        if not math.isfinite(rel_tol):
            converged = True
            reason = "single_pass"
            break
        if prev is not None:
            denom = np.maximum(np.abs(prev.x_hat), 1e-300)
            change = float(np.max(np.abs(step.x_hat - prev.x_hat) / denom))
            if change < rel_tol:
                converged = True
                reason = "tolerance"
                break
        sigma_t = np.maximum(grouped_std(result.residuals, sys.group)[sys.group], sigma0)

    assert result is not None
    return replace(result, iterations=tuple(trace), converged=converged, stop_reason=reason)
