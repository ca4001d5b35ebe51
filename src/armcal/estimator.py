"""Ordinary, weighted and iteratively reweighted least-squares identification.

All solvers factor the (weighted) regressor by a Householder QR, never
through explicitly formed normal equations; a solve whose R cannot certify
full rank is factored by a singular-value decomposition instead, which
counts the rank and names the weak directions.  Either way a solve keeps one
matrix, the pseudo-inverse G of W B (R^-1 Q' of the QR, or (V / s) U' of the
SVD): the estimate is G W y, and all solvers report the
heteroscedasticity-aware sandwich covariance

    cov(x) = G (W S)^2 G' = (B' W^2 B)^-1  B' W^2 S^2 W^2 B  (B' W^2 B)^-1

with S = diag(sigma).  With the optimal weighting W = S^-1 this collapses to
the reduced form (B' S^-2 B)^-1.  Confidence intervals are plus/minus three
standard deviations throughout.

The repetitions of a posture are identical rows with one weight and one
sigma, and a :class:`StackedSystem` stores each class of r identical rows
(``row_class``) once, so the solve runs on the distinct rows: each class
becomes its row ``B_c`` scaled by sqrt(r).  With E the orthonormal expansion
of classes to rows, W B = E (sqrt(r) W_c B_c) exactly, so the QR's R (up
to the signs of its rows), the singular values and V are those of the full
system and the condition number is not squared, as it would be by the
normal equations.  The observations enter only through their per-class
means, read once per solve: every solve folds them to
E' W y = w_c sqrt(r) mean_c and multiplies them by the folded matrix's G
(:func:`_solve`), and the reweighting stage re-estimates its dispersions
from the same means and the per-class scatters (:meth:`_Groups.moments`).
Weights, sigmas and predictions are given and reported per class, one per
row of ``B``; nothing is kept per row.  A stack of T solves is one record,
:class:`_Factors`: per trial its weights, sigmas, G, covariance and 3-sigma
half-widths, and every result is one row of it (:func:`_result`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import RankDeficientError, ReplicateCountError
from .noise import AXES, DEFAULT_SIGMA0, _Groups
from .regressor import StackedSystem

#: Relative singular-value cutoff below which a direction counts as collapsed.
RANK_CUTOFF = 1e-10
#: Relative singular-value level that triggers a near-deficiency warning.
RANK_WARN = 1e-8

DEFAULT_LAMBDA = 1.0
DEFAULT_REL_TOL = 1e-3
DEFAULT_MAX_ITER = 20

#: The numeric domain: per kind of value read, its smallest nonzero and largest magnitude in SI (:func:`_inside`).
_DOMAIN = {"length": (1e-30, 1e3), "joint": (0.0, 1e3), "position": (0.0, 1e3), "force": (1e-30, 1e7),
           "mass": (1e-30, 1e6), "sigma": (0.0, 1.0), "sigma0": (1e-12, 1.0), "lambda": (0.0, 1e6)}


def _inside(kind: str, values) -> np.ndarray:
    """Whether each of ``values`` is 0 or has a magnitude within the ``_DOMAIN[kind]`` limits.

    The domain: model lengths (a, d, xyz) 0 or 1e-30..1e3 m; measured joint values (rad, or m
    for a prismatic joint) and marker positions within 1e3, the positions ``simulate`` writes
    included (a model or mass that moves one outside is refused); force components 0 or 1e-30..1e7 N;
    the simulated mass 0 or 1e-30..1e6 kg; noise-table sigmas 0..1 m; sigma0 1e-12..1 m;
    lambda 0..1e6.  It is wide of any robot, and keeps every value of a solve finite and
    every 3-sigma half-width positive.  For a model of n joints:

    * markers lie within rho <= (3 sqrt(3) + 3 n) km of the base, so levers are below 2 rho
      and observations below rho + 2 km; the scatter within a posture comes from measured
      positions alone, so every dispersion lies in [sigma0, 3 km];
    * weights w = sigma0 / (sigma0 + lam sigma) lie in [3e-22, 1], w sigma above
      sigma0 / (1 + lam) >= 1e-18 m, and (w sigma)_max / w_min <= 2 sigma_max, since
      w sigma < sigma0 / lam wherever lam sigma exceeds sigma0;
    * the largest regressor entry b, a lever times a lever times a force (or 1, or a lever,
      in geometric columns), is below (2 rho)^2 sqrt(3) 1e7 N < 1e19 for n <= 40, and the
      floors keep it above (1e-30)^2 1e-30 = 1e-90 unless no lever is as long as the
      shortest length;
    * a solve that passes the rank check has s_min(A) >= 1e-10 w_min b, A = sqrt(r) W B, so the
      entries of its pseudo-inverse G and of R^-1 are below 1e122, and ci3_i = 3 |G_i diag(w sigma)|
      lies in (3e-37 / sqrt(rows n), 6e10 sigma_max / b < 2e104): their squares are finite and positive.

    This bounds the first solve of each method; an IRLS re-estimate reads the residuals of a
    least-squares fit, which stay near the scale of the observations (the edge tests run it).
    """
    lo, hi = _DOMAIN[kind]
    size = np.abs(values)
    return (size <= hi) & ((size >= lo) | (size == 0.0))


def _span(kind: str, unit: str, scale: float = 1.0) -> str:
    """The rule :func:`_inside` applies to ``kind``, for values in ``unit``, ``scale`` per SI unit."""
    lo, hi = (limit * scale for limit in _DOMAIN[kind])
    return f"0 or {lo:g}..{hi:g} {unit} in magnitude" if lo else f"at most {hi:g} {unit} in magnitude"


@dataclass(frozen=True)
class IterationSnapshot:
    """One reweighting step: estimate and CI half-widths after solving."""

    index: int
    x_hat: np.ndarray
    ci3: np.ndarray


@dataclass(frozen=True)
class EstimationResult:
    """Solved system: estimate, sandwich covariance and diagnostics.

    ``predicted`` holds each class's prediction ``B[k] @ x_hat``; ``weights``
    and ``sigma`` are those of the final solve.  All three are per class
    (row of ``B``), so ``predicted[row_class] - dp`` are the row residuals
    and ``weights[row_class]`` the per-row weights.  An IRLS solve that hit
    ``max_iter`` or lost rank has not converged.
    """

    parameters: tuple[str, ...]
    x_hat: np.ndarray
    covariance: np.ndarray
    ci3: np.ndarray
    predicted: np.ndarray
    method: str
    weights: np.ndarray
    sigma: np.ndarray
    iterations: tuple[IterationSnapshot, ...] = ()
    stop_reason: str = ""

    @property
    def converged(self) -> bool:
        return self.stop_reason not in ("max_iter", "rank_loss")


def optimal_weights(sigma: np.ndarray) -> np.ndarray:
    """Inverse-dispersion weights w_i = 1 / sigma_i; WLS does not depend on their scale."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0):
        raise ValueError("optimal weights need strictly positive sigmas")
    return 1.0 / sigma


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


class _Factors(NamedTuple):
    """The solve of T trials of folded weighted regressors, from :func:`_factor`: per trial t its (c,)
    weights ``w[t]`` and sigmas ``sigma[t]``, its (n, c) pseudo-inverse ``G[t]`` (``R^-1 Q'`` of a QR that
    certifies full rank, or ``(V / s) U'`` of an SVD), its sandwich covariance ``cov[t]``, the half-widths
    ``ci3[t] = 3 sqrt(diag(cov[t]))`` and ``errors[t]``, the ``RankDeficientError`` it raises or None.
    """

    classes: _Groups
    w: np.ndarray
    sigma: np.ndarray
    G: np.ndarray
    cov: np.ndarray
    ci3: np.ndarray
    errors: list


def _factor(sys: StackedSystem, w: np.ndarray, sigma: np.ndarray) -> _Factors:
    """The solve record of the weighted regressors ``(w[t, :, None] * sys.B)[sys.row_class]``.

    ``w`` and ``sigma`` are (T, c) stacks, one row per trial and one column
    per class of the system.  The (c, n) matrix ``A = sqrt(r) w_c B_c`` of
    the distinct rows is factored in place of the (m, n) one: the full
    matrix is its product with an orthonormal matrix, so its QR has the same
    R (up to the signs of its rows) and its SVD the same singular values and
    V.  The pseudo-inverse G and the sandwich ``G diag((w_c sigma_c)^2) G'``
    have c columns.

    One ``np.linalg.qr`` call factors all trials, and one ``np.linalg.inv``
    inverts their n x n R (the identity in place of an R with a zero on its
    diagonal, which is exactly singular), so ``G = R^-1 Q'``.  Since
    ``1 / (|R|_F |R^-1|_F) <= s_min / s_max``, a trial whose bound exceeds
    ``RANK_WARN`` has full rank and is not near deficiency.  Every other
    trial (a smaller or non-finite bound, a singular R, or fewer classes
    than parameters) is factored alone by its own ``np.linalg.svd`` call,
    which counts its rank and warns of a near deficiency, and its G is
    ``(V / s) U'``.  Each trial's G is its own product, so each trial solves
    as it would alone, whichever branch its neighbours take.  A trial whose
    regressor is identically zero or rank deficient, or whose SVD fails
    (``LinAlgError``, as on a non-finite regressor), gets its error and a
    zero G, so its solution reads zero.  Neither the QR nor the inverse of
    an R with no zero on its diagonal raises, so no stack fails as a whole.
    """
    n = sys.n_parameters
    classes = sys.class_plan
    A = sys.B * (np.sqrt(classes.counts) * w)[:, :, None]
    certified = np.zeros(len(A), dtype=bool)
    if len(sys.B) >= n:  # R is square
        with np.errstate(all="ignore"):
            Q, R = np.linalg.qr(A)
            nonsingular = np.diagonal(R, axis1=1, axis2=2).all(axis=1)
            Rinv = np.linalg.inv(np.where(nonsingular[:, None, None], R, np.eye(n)))
            bound = 1.0 / (np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(Rinv, axis=(1, 2)))
            certified = nonsingular & (bound > RANK_WARN)
            G = Rinv @ Q.transpose(0, 2, 1)
    else:  # every trial takes the SVD, which fills G
        G = np.empty((len(A), n, len(sys.B)))
    errors: list[RankDeficientError | None] = [None] * len(A)
    for t in np.flatnonzero(~certified):  # each trial the QR bound cannot certify, alone
        G[t] = 0.0  # a trial with an error solves to zero
        try:
            U, s, Vt = np.linalg.svd(A[t], full_matrices=len(sys.B) < n)  # V spans all n directions, c < n too
        except np.linalg.LinAlgError as exc:
            errors[t] = RankDeficientError(f"weighted regressor could not be factored ({exc})")
            continue
        rel = s / max(s[0], np.finfo(float).tiny)
        rank = np.count_nonzero(rel > RANK_CUTOFF)
        if s[0] == 0.0:
            errors[t] = RankDeficientError("weighted regressor is identically zero")
        elif rank < n:
            directions = tuple(_describe_direction(v, sys.columns) for v in Vt[rank:])
            errors[t] = RankDeficientError(f"information matrix is rank deficient ({rank}/{n}); "
                                           f"unidentifiable: {'; '.join(directions)}", directions=directions)
        else:
            if rel[-1] < RANK_WARN:
                warnings.warn("information matrix is near rank deficiency "
                              f"(relative singular value {rel[-1]:.2e}); weakest direction: "
                              f"{_describe_direction(Vt[-1], sys.columns)}", RuntimeWarning, stacklevel=4)
            G[t] = (Vt.T / s) @ U.T

    ws = w * sigma
    cov = (G * ws[:, None, :] ** 2) @ G.transpose(0, 2, 1)
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    ci3 = 3.0 * np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    return _Factors(classes, w, sigma, G, cov, ci3, errors)


def _solve(f: _Factors, mean: np.ndarray) -> np.ndarray:
    """Solutions ``G[t] q[t]`` of a (T, c) stack of per-class observation means.

    ``q[t] = f.w[t] sqrt(r) mean[t]`` are the folded observations, one per
    class of r rows.  ``f`` may hold one trial, shared by every row of
    ``mean``.  Each trial is its own matrix-vector product, so a stacked
    solve equals the one-trial solve bit for bit.
    """
    q = f.w * (np.sqrt(f.classes.counts) * mean)
    return (f.G @ q[:, :, None])[:, :, 0]


def _result(sys: StackedSystem, method: str, f: _Factors, x: np.ndarray, predicted: np.ndarray, j: int,
            iterations: tuple = (), stop_reason: str = "") -> EstimationResult:
    """Trial ``j`` of the solve record ``f``, with row ``j`` of its estimates ``x`` and predictions ``predicted``."""
    return EstimationResult(sys.columns, x[j], f.cov[j], f.ci3[j], predicted[j], method, f.w[j], f.sigma[j],
                            iterations, stop_reason)


def _weighted_solve(
    sys: StackedSystem, weights: np.ndarray, method: str
) -> EstimationResult:
    w = np.array(weights, dtype=float).reshape(-1)
    if w.shape[0] != len(sys.B):
        raise ValueError("weight vector length does not match the system")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")

    f = _factor(sys, w[None], sys.sigma[None])
    if f.errors[0] is not None:
        raise f.errors[0]
    x = _solve(f, sys.class_plan.moments(sys.dp)[0])
    return _result(sys, method, f, x, (sys.B @ x[:, :, None])[:, :, 0], 0)


def ols_estimate(sys: StackedSystem) -> EstimationResult:
    """Unweighted solve; the covariance still honours per-row dispersions."""
    return _weighted_solve(sys, np.ones(len(sys.B)), "ols")


def wls_estimate(sys: StackedSystem, weights: np.ndarray) -> EstimationResult:
    """Weighted solve with a caller-supplied diagonal weighting, one weight per class (row of
    ``sys.B``) as ``sys.sigma`` has, such as ``robust_weights(sys.sigma)``; a class's rows share it."""
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
    floored at ``sigma0``; a one-row group raises ``ReplicateCountError``),
    rebuilds the saturating weights and re-solves.  Solves and re-estimates
    read each class of identical rows through its mean observation and
    scatter, taken once, and the re-estimate through its one prediction; it
    equals the sample std of the row residuals up to rounding.  The result's
    final predictions, weights and dispersions are per class, as the loop
    keeps them.

    Stops when the largest per-parameter relative change, compared with
    ``rel_tol`` as given from iteration 2 on, drops below it, or after
    ``max_iter`` iterations; ``max_iter=1`` is one weighted pass, equal to
    :func:`wls_estimate` with the rule's weights.  If a later iteration loses
    rank, the last valid iterate is returned flagged (``converged=False``,
    ``stop_reason='rank_loss'``).

    This is the one-trial case of the stacked loop the Monte Carlo comparison
    runs over blocks of trials, and returns that loop's result unchanged;
    there every trial keeps its own stop iteration and stop reason.
    """
    fit = _irls_stack(sys, *sys.class_plan.moments(sys.dp[None]), sys.sigma[None], sigma0, lam, rel_tol,
                      max_iter)[0]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _dispersions(sys: StackedSystem, predicted: np.ndarray, mean: np.ndarray, scatter: np.ndarray,
                 sigma0: float) -> np.ndarray:
    """Per-class dispersions, floored at ``sigma0``, re-learnt from the residuals ``B x - y``.

    ``predicted`` holds each class's prediction ``B_k x``; a class's residuals
    then have the mean ``predicted - mean`` and the scatter ``scatter`` of its
    observations (``sys.class_plan.moments``), which the pooled std of each
    (configuration, axis) group reads in place of the rows.  A zero
    ``predicted`` gives the raw scatter of the observations themselves.
    The first group of one row raises ``ReplicateCountError`` naming it.
    """
    plan, counts = sys.class_group_plan, sys.class_plan.counts
    lone = np.flatnonzero((counts == 1) & (plan.counts[plan.label] == 1))  # a one-row class alone in its group
    if lone.size:
        raise ReplicateCountError(f"configuration {sys.config[lone[0]]} has one row on axis {AXES[sys.axis[lone[0]]]}; "
                                  "every (configuration, axis) group needs >= 2 rows to estimate a dispersion")
    std = plan.pooled_std(counts, predicted - mean, scatter)
    return np.maximum(std[:, plan.label], sigma0)


def _pure_error(sys: StackedSystem) -> tuple[np.ndarray, np.ndarray]:
    """Each (configuration, axis) group's pure error, one entry per group of ``sys.class_group_plan``:
    the scatter ``sum_k Q_k`` of its rows about their own class means (``sys.class_plan.moments``)
    and its degrees of freedom ``sum_k (r_k - 1)``.  Neither depends on a fit."""
    plan = sys.class_group_plan
    return plan.sum(sys.class_plan.moments(sys.dp)[1]), plan.sum(sys.class_plan.counts - 1)


def _replicate_sigma(sys: StackedSystem, sigma0: float) -> np.ndarray:
    """Per-class dispersions, floored at ``sigma0``, each its group's ``sqrt(scatter / dof)``
    (:func:`_pure_error`), so differences between postures never count as noise.  A group without
    a repeated posture raises ``ReplicateCountError``."""
    scatter, dof = (a[sys.class_group_plan.label] for a in _pure_error(sys))  # per class
    if not dof.all():
        k = np.argmin(dof)
        raise ReplicateCountError(f"configuration {sys.config[k]} has no repeated posture on axis {AXES[sys.axis[k]]} "
                                  "to estimate its dispersion from; give the dispersions with --noise")
    return np.maximum(np.sqrt(scatter / dof), sigma0)


def _irls_stack(
    sys: StackedSystem,
    mean: np.ndarray,
    scatter: np.ndarray,
    sigma: np.ndarray,
    sigma0: float,
    lam: float,
    rel_tol: float,
    max_iter: int,
) -> list[EstimationResult | Exception]:
    """:func:`irls` for T trials' observations in place of ``sys.dp``, read as their class moments.

    ``mean`` and ``scatter`` (T, c) are each trial's per-class observation
    means and scatters (``sys.class_plan.moments``), and ``sigma`` holds its
    starting dispersions, one per class (T, c).  Weights and dispersions are
    kept per class through the loop.  Each iteration solves the trials still
    running with one stacked :func:`_factor` call, folding the class means as
    :func:`wls_estimate` does (so ``max_iter=1`` equals it bit for bit), and
    predicts each class once; the re-estimate reads those predictions and
    the moments (:func:`_dispersions`).  A trial leaves the stack when it
    stops.  Returns per trial its ``"irls"`` :class:`EstimationResult`,
    which :func:`irls` returns as it is, or the ``RankDeficientError`` its
    first solve raised; a later rank loss returns the last valid iterate.
    The solves and the re-estimates use the system's own class and group
    plans; a one-row group raises only at a re-estimate, so ``max_iter=1``
    needs no replicates.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    final: list[EstimationResult | Exception | None] = [None] * mean.shape[0]
    trace: list[list[IterationSnapshot]] = [[] for _ in final]
    last: list[tuple | None] = [None] * mean.shape[0]  # a running trial's latest iterate: (f, x, predicted, j)
    live = np.arange(mean.shape[0])  # trials still iterating
    prev = None  # their estimates from the previous iteration
    for it in range(1, max_iter + 1):
        f = _factor(sys, robust_weights(sigma, sigma0, lam), sigma)
        x = _solve(f, mean[live])
        predicted = (sys.B @ x[:, :, None])[:, :, 0]  # one row per class
        if prev is not None:
            change = np.max(np.abs(x - prev) / np.maximum(np.abs(prev), 1e-300), axis=1)
        keep = np.zeros(live.shape[0], dtype=bool)
        for j, t in enumerate(live):
            if f.errors[j] is not None:
                final[t] = f.errors[j] if prev is None else _result(sys, "irls", *last[t], tuple(trace[t]),
                                                                     "rank_loss")
                continue
            trace[t].append(IterationSnapshot(index=it, x_hat=x[j], ci3=f.ci3[j]))
            if prev is not None and change[j] < rel_tol:
                reason = "tolerance"
            elif it < max_iter:
                keep[j] = True
                last[t] = (f, x, predicted, j)
                continue
            else:
                reason = "max_iter"
            final[t] = _result(sys, "irls", f, x, predicted, j, tuple(trace[t]), reason)
        live, prev = live[keep], x[keep]
        if not live.size:  # no iteration follows: skip the re-estimate
            break
        sigma = _dispersions(sys, predicted[keep], mean[live], scatter[live], sigma0)
    return final

