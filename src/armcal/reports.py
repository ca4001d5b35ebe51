"""Result rendering: human-readable tables plus machine-readable columns.

Every report is written twice: a fixed-width ``.txt`` table in report units
(compliances in micro-rad/(N m), lengths in mm, angles in deg) and a ``.tsv``
with SI values and ``repr`` floats for lossless downstream parsing.  Each
writer hands its columns to ``fileio``'s one table renderer: the short
reports as whole columns of strings, ``residuals.tsv`` as a function that
formats one chunk of rows, so that file is formatted and written a chunk at
a time.  The cells a class of identical rows shares (its origin, sigma and
weight, which the system and the result store per class) are formatted once
per class; a row's residual is its class's prediction minus its
observation.  ``repr`` is the only float formatter, and identical inputs give
byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .estimator import EstimationResult
from .fileio import _UM, _per_class, _render, _reprs, _whole, write_text
from .noise import AXES
from .regressor import StackedSystem
from .simulator import ComplianceVector, MonteCarloReport


def parameter_unit(name: str) -> tuple[float, str]:
    """(scale from SI, label) for one parameter's report unit."""
    if name.startswith("k"):
        return ComplianceVector.REPORT_SCALE, ComplianceVector.REPORT_UNIT
    if name.startswith(("alpha", "theta")):
        return float(np.rad2deg(1.0)), "deg"
    return 1e3, "mm"  # a*, d*, tool_*


def _units(names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """The :func:`parameter_unit` scales and labels of ``names``, as two columns."""
    scales, labels = zip(*map(parameter_unit, names))
    return np.array(scales), list(labels)


def _fixed(values: np.ndarray, digits: int = 6) -> list[str]:
    return [f"{v:.{digits}f}" for v in np.ravel(values).tolist()]


def _table(header: Sequence[str], columns: Sequence[Sequence[str]], comments: Sequence[str]) -> str:
    """Fixed-width text: each column left-aligned to its widest cell, over a dashed rule."""
    columns = [[h, "-" * max(map(len, [h, *col])), *col] for h, col in zip(header, columns)]
    # the last column stays unpadded, so no line ends in spaces
    padded = [[c.ljust(len(col[1])) for c in col] for col in columns[:-1]] + columns[-1:]
    return "".join(_render([col[0] for col in padded], *_whole([col[1:] for col in padded]), "  ", comments))


def write_parameter_report(out_dir: Path, results: Sequence[EstimationResult]) -> list[Path]:
    """Estimates with three-sigma half-widths, one column pair per method."""
    names = results[0].parameters
    scale, labels = _units(names)
    header, columns = ["parameter", "unit"], [names, labels]
    for res in results:
        header += [f"{res.method}_estimate", f"{res.method}_ci3"]
        columns += [_fixed(res.x_hat * scale), _fixed(res.ci3 * scale)]
    txt = _table(header, columns, ["parameter estimates with +/-3 sigma half-widths (report units)"])
    methods = np.repeat([res.method for res in results], len(names)).tolist()
    si = np.hstack([[res.x_hat, res.ci3] for res in results]).T  # method by method
    tsv = _render(["method", "parameter", "estimate_si", "ci3_si"],
                  *_whole([methods, list(names) * len(results), *_reprs(si)]), "\t")
    return [write_text(out_dir / "parameters.txt", txt), write_text(out_dir / "parameters.tsv", tsv)]


def write_ratio_report(out_dir: Path, baseline: EstimationResult, refined: EstimationResult) -> list[Path]:
    """CI-width comparison of an unweighted baseline vs a weighted refinement."""
    names = baseline.parameters
    scale, labels = _units(names)
    ratio = baseline.ci3 / refined.ci3
    txt = _table(
        ["parameter", "unit", baseline.method, refined.method, "ratio"],
        [names, labels, _fixed(baseline.ci3 * scale), _fixed(refined.ci3 * scale), _fixed(ratio, 3)],
        [f"three-sigma CI half-widths: {baseline.method} baseline vs {refined.method}"],
    )
    tsv = _render(["parameter", "ci3_baseline_si", "ci3_refined_si", "ratio"],
                  *_whole([names, *_reprs(baseline.ci3, refined.ci3, ratio)]), "\t")
    return [write_text(out_dir / "ratios.txt", txt), write_text(out_dir / "ratios.tsv", tsv)]


def write_residual_report(out_dir: Path, sys: StackedSystem, result: EstimationResult) -> Path:
    """Per-row diagnostics for the final solve (residuals in um), streamed a chunk of rows at a time.
    A chunk formats config..weight once per ``row_class`` class, each read per class as the system
    and the result store them, and its residuals ``predicted[row_class] - dp`` from the result's
    per-class predictions."""
    def cells(rows: slice) -> list[list[str]]:
        classes, inverse = np.unique(sys.row_class[rows], return_inverse=True)
        config, marker, sigma, weight = _reprs(sys.config[classes], sys.marker[classes],
                                               result.sigma[classes] / _UM, result.weights[classes])
        axis = list(map(AXES.__getitem__, sys.axis[classes].tolist()))
        prefix = _per_class(inverse, [config, marker, axis, sigma, weight], "\t")
        return [prefix, *_reprs((result.predicted[sys.row_class[rows]] - sys.dp[rows]) / _UM)]

    header = ["config", "marker", "axis", "sigma_um", "weight", "residual_um"]
    return write_text(out_dir / "residuals.tsv", _render(header, sys.n_equations, cells, "\t"))


def write_trace_report(out_dir: Path, result: EstimationResult) -> list[Path]:
    """One row per reweighting iteration, plot-ready value/CI columns."""
    names = result.parameters
    scale, labels = _units(names)
    index = [str(snap.index) for snap in result.iterations]
    shape = (len(index), len(names))
    x_hat = np.reshape([snap.x_hat for snap in result.iterations], shape)
    ci3 = np.reshape([snap.ci3 for snap in result.iterations], shape)
    txt = _table(
        ["iteration", "parameter", "unit", "estimate", "ci3"],
        [np.repeat(index, len(names)).tolist(), list(names) * len(index), labels * len(index),
         _fixed(x_hat * scale), _fixed(ci3 * scale)],
        [f"reweighting trace: {len(index)} iterations, converged={result.converged} ({result.stop_reason})"],
    )
    values = np.stack([x_hat, x_hat - ci3, x_hat + ci3], axis=2).reshape(len(index), 3 * len(names))
    header = ["iteration", *(f"{k}:{n}" for n in names for k in ("value", "ci_lo", "ci_hi"))]
    tsv = _render(header, *_whole([index, *_reprs(values)]), "\t")
    return [write_text(out_dir / "trace.txt", txt), write_text(out_dir / "trace.tsv", tsv)]


def write_compare_report(out_dir: Path, mc: MonteCarloReport) -> list[Path]:
    """Monte Carlo comparison: empirical scatter vs analytic CIs per method."""
    names = mc.parameters
    scale, labels = _units(names)
    stats = [(f"{m}_{stat}", f(m)) for m in ("ols", "wls", "irls")
             for stat, f in (("mean", mc.empirical_mean), ("std", mc.empirical_std), ("ci3", mc.mean_ci3))]
    ratio = mc.ci_ratio()
    comments = [
        f"{mc.trials} trials, {mc.n_failed} failed; "
        f"WLS CI nested in OLS CI in {mc.nested_all_fraction * 100.0:.1f}% of trials",
        *(f"failed trial {t}: {kind}: {message}" for t, kind, message in mc.failures),
    ]
    txt = _table(
        ["parameter", "unit", "truth", *(name for name, _ in stats), "ci_ratio"],
        [names, labels, _fixed(mc.truth * scale), *(_fixed(v * scale) for _, v in stats), _fixed(ratio, 3)],
        comments,
    )
    tsv = _render(["parameter", "truth_si", *(f"{name}_si" for name, _ in stats), "ci_ratio"],
                  *_whole([names, *_reprs(mc.truth, *(v for _, v in stats), ratio)]), "\t")
    # average convergence trace across trials (truncated to the shortest run)
    min_len = min((t.shape[0] for t in mc.irls_ci_traces), default=0)
    traces = [t[:min_len] for t in mc.irls_ci_traces] or [np.empty((0, len(names)))]
    trace = _render(["iteration", *(f"mean_ci3:{n}" for n in names)],
                    *_whole([list(map(str, range(1, min_len + 1))), *_reprs(np.stack(traces).mean(axis=0))]), "\t")
    return [
        write_text(out_dir / "comparison.txt", txt),
        write_text(out_dir / "comparison.tsv", tsv),
        write_text(out_dir / "trace_mean.tsv", trace),
    ]
