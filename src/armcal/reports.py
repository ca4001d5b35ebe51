"""Result rendering: human-readable tables plus machine-readable columns.

Every report is written twice: a fixed-width ``.txt`` table in report units
(compliances in micro-rad/(N m), lengths in mm, angles in deg) and a ``.tsv``
with SI values and ``repr`` floats for lossless downstream parsing.  Output
is deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .estimator import EstimationResult
from .fileio import _fmt, _repr_columns, write_text
from .noise import AXES
from .regressor import StackedSystem
from .simulator import ComplianceVector, MonteCarloReport

_UM = 1e-6


def parameter_unit(name: str) -> tuple[float, str]:
    """(scale from SI, label) for one parameter's report unit."""
    if name.startswith("k"):
        return ComplianceVector.REPORT_SCALE, ComplianceVector.REPORT_UNIT
    if name.startswith(("alpha", "theta")):
        return float(np.rad2deg(1.0)), "deg"
    return 1e3, "mm"  # a*, d*, tool_*


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    fmt_row = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt_row(header), fmt_row(["-" * w for w in widths])]
    lines += [fmt_row(r) for r in rows]
    return "\n".join(lines) + "\n"


def write_parameter_report(out_dir: Path, results: Sequence[EstimationResult]) -> list[Path]:
    """Estimates with three-sigma half-widths, one column pair per method."""
    names = results[0].parameters
    header = ["parameter", "unit"]
    for res in results:
        header += [f"{res.method}_estimate", f"{res.method}_ci3"]
    rows = []
    for i, name in enumerate(names):
        scale, label = parameter_unit(name)
        row = [name, label]
        for res in results:
            row += [f"{res.x_hat[i] * scale:.6f}", f"{res.ci3[i] * scale:.6f}"]
        rows.append(row)
    txt = "# parameter estimates with +/-3 sigma half-widths (report units)\n" + _table(header, rows)

    tsv_lines = ["method\tparameter\testimate_si\tci3_si"]
    for res in results:
        for i, name in enumerate(names):
            tsv_lines.append(f"{res.method}\t{name}\t{_fmt(res.x_hat[i])}\t{_fmt(res.ci3[i])}")
    paths = [
        write_text(out_dir / "parameters.txt", txt),
        write_text(out_dir / "parameters.tsv", "\n".join(tsv_lines) + "\n"),
    ]
    return paths


def write_ratio_report(out_dir: Path, baseline: EstimationResult, refined: EstimationResult) -> list[Path]:
    """CI-width comparison of an unweighted baseline vs a weighted refinement."""
    names = baseline.parameters
    rows = []
    tsv_lines = ["parameter\tci3_baseline_si\tci3_refined_si\tratio"]
    for i, name in enumerate(names):
        scale, label = parameter_unit(name)
        ratio = baseline.ci3[i] / refined.ci3[i]
        rows.append(
            [name, label, f"{baseline.ci3[i] * scale:.6f}", f"{refined.ci3[i] * scale:.6f}", f"{ratio:.3f}"]
        )
        tsv_lines.append(
            f"{name}\t{_fmt(baseline.ci3[i])}\t{_fmt(refined.ci3[i])}\t{_fmt(ratio)}"
        )
    txt = (
        f"# three-sigma CI half-widths: {baseline.method} baseline vs {refined.method}\n"
        + _table(["parameter", "unit", baseline.method, refined.method, "ratio"], rows)
    )
    return [
        write_text(out_dir / "ratios.txt", txt),
        write_text(out_dir / "ratios.tsv", "\n".join(tsv_lines) + "\n"),
    ]


def write_residual_report(out_dir: Path, sys: StackedSystem, result: EstimationResult) -> Path:
    """Per-row diagnostics for the final solve (residuals in um)."""
    columns = [
        *_repr_columns(sys.config, sys.marker),
        map(AXES.__getitem__, sys.axis.tolist()),
        *_repr_columns(result.sigma / _UM, result.weights, result.residuals / _UM),
    ]
    lines = ["config\tmarker\taxis\tsigma_um\tweight\tresidual_um", *map("\t".join, zip(*columns))]
    return write_text(out_dir / "residuals.tsv", "\n".join(lines) + "\n")


def _trace_header(names: Sequence[str]) -> str:
    cols = ["iteration"]
    for name in names:
        cols += [f"value:{name}", f"ci_lo:{name}", f"ci_hi:{name}"]
    return "\t".join(cols)


def write_trace_report(out_dir: Path, result: EstimationResult) -> list[Path]:
    """One row per reweighting iteration, plot-ready value/CI columns."""
    names = result.parameters
    tsv = [_trace_header(names)]
    for snap in result.iterations:
        cells = [str(snap.index)]
        for i in range(len(names)):
            lo = snap.x_hat[i] - snap.ci3[i]
            hi = snap.x_hat[i] + snap.ci3[i]
            cells += [_fmt(snap.x_hat[i]), _fmt(lo), _fmt(hi)]
        tsv.append("\t".join(cells))

    rows = []
    for snap in result.iterations:
        for i, name in enumerate(names):
            scale, label = parameter_unit(name)
            rows.append(
                [str(snap.index), name, label, f"{snap.x_hat[i] * scale:.6f}", f"{snap.ci3[i] * scale:.6f}"]
            )
    txt = (
        f"# reweighting trace: {len(result.iterations)} iterations, "
        f"converged={result.converged} ({result.stop_reason})\n"
        + _table(["iteration", "parameter", "unit", "estimate", "ci3"], rows)
    )
    return [
        write_text(out_dir / "trace.txt", txt),
        write_text(out_dir / "trace.tsv", "\n".join(tsv) + "\n"),
    ]


def write_compare_report(out_dir: Path, mc: MonteCarloReport) -> list[Path]:
    """Monte Carlo comparison: empirical scatter vs analytic CIs per method."""
    methods = ("ols", "wls", "irls")
    rows = []
    tsv_lines = [
        "parameter\ttruth_si\t"
        + "\t".join(f"{m}_mean_si\t{m}_std_si\t{m}_ci3_si" for m in methods)
        + "\tci_ratio"
    ]
    ratio = mc.ci_ratio()
    for i, name in enumerate(mc.parameters):
        scale, label = parameter_unit(name)
        row = [name, label, f"{mc.truth[i] * scale:.6f}"]
        tsv_cells = [name, _fmt(mc.truth[i])]
        for m in methods:
            mean = mc.empirical_mean(m)[i]
            std = mc.empirical_std(m)[i]
            ci = mc.mean_ci3(m)[i]
            row += [f"{mean * scale:.6f}", f"{std * scale:.6f}", f"{ci * scale:.6f}"]
            tsv_cells += [_fmt(mean), _fmt(std), _fmt(ci)]
        row.append(f"{ratio[i]:.3f}")
        tsv_cells.append(_fmt(ratio[i]))
        rows.append(row)
        tsv_lines.append("\t".join(tsv_cells))
    header = ["parameter", "unit", "truth"]
    for m in methods:
        header += [f"{m}_mean", f"{m}_std", f"{m}_ci3"]
    header.append("ci_ratio")
    summary = (
        f"# {mc.trials} trials, {mc.n_failed} failed; "
        f"WLS CI nested in OLS CI in {mc.nested_all_fraction * 100.0:.1f}% of trials\n"
    )
    failed = "".join(f"# failed trial {t}: {kind}: {message}\n" for t, kind, message in mc.failures)
    txt = summary + failed + _table(header, rows)

    # average convergence trace across trials (truncated to the shortest run)
    min_len = min((t.shape[0] for t in mc.irls_ci_traces), default=0)
    trace_lines = ["iteration\t" + "\t".join(f"mean_ci3:{n}" for n in mc.parameters)]
    if min_len:
        stackable = np.stack([t[:min_len] for t in mc.irls_ci_traces])
        mean_trace = stackable.mean(axis=0)
        for it in range(min_len):
            trace_lines.append(
                str(it + 1) + "\t" + "\t".join(_fmt(v) for v in mean_trace[it])
            )
    return [
        write_text(out_dir / "comparison.txt", txt),
        write_text(out_dir / "comparison.tsv", "\n".join(tsv_lines) + "\n"),
        write_text(out_dir / "trace_mean.tsv", "\n".join(trace_lines) + "\n"),
    ]
