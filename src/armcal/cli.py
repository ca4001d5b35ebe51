"""Command line front end: ``armcal calibrate | simulate | compare``.

Units at this boundary are the public ones: joint angles in degrees,
positions in micrometers, sigma levels in micrometers, load mass in
kilograms.  Outputs are written atomically (write-then-rename), so a failed
run never leaves partial files.  Errors print one machine-parsable line to
stderr, ``ERROR <CODE>: message``, and exit nonzero; a warning prints one
line, ``WARNING <Category>: message``.

Each number is checked against the numeric domain (``estimator._DOMAIN``) where
it is read, the flags here and the files in :mod:`armcal.fileio`.  Inside it every
half-width is finite and positive, so no result of a solve is checked after the
fact; ``simulate`` holds the positions it is about to write to the same domain.

:func:`main` keeps no state between calls.  It builds the parser of the
subcommand its argv names, not all three, and reads the model on every call.
``calibrate`` runs in three steps, load, fit (:func:`_fit`) and write, so a failed fit makes no directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import reference, reports
from .errors import CalibrationError, MeasurementFormatError
from .estimator import (
    DEFAULT_LAMBDA,
    DEFAULT_MAX_ITER,
    DEFAULT_REL_TOL,
    _DOMAIN,
    _inside,
    _replicate_sigma,
    _span,
    irls,
    ols_estimate,
    robust_weights,
    wls_estimate,
)
from .fileio import (
    _UM,
    load_measurements,
    load_model,
    load_noise_table,
    write_ground_truth,
    write_measurements,
    write_noise_table,
)
from .noise import DEFAULT_SIGMA0, NoiseModel
from .regressor import ComplianceParameterMap, stack_system
from .simulator import monte_carlo_compare, simulate_measurements

OUT_ENV = "ARMCAL_OUT"


def _add_common_estimator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma0", type=float, help="measurement-system precision floor, um (default 10)")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
                   help="weight saturation strength (default 1)")
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                   help="reweighting stop tolerance on parameter change (default 1e-3)")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="reweighting iteration cap (default 20)")


class _UsageError(Exception):
    """An invalid flag value or combination: reported as E_USAGE, exit 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors become one coded E_USAGE line, not a usage block."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _require(ok: bool, flag: str, rule: str, value) -> None:
    if not ok:
        raise _UsageError(f"{flag} must be {rule}, got {value}")


def _estimator_settings(args) -> dict:
    """The checked ``sigma0``, ``lam``, ``rel_tol`` and ``max_iter`` keywords that :func:`irls` and
    :func:`monte_carlo_compare` share, with --sigma0 in meters (exactly ``DEFAULT_SIGMA0`` when the
    flag is not given).  --sigma0 and --lambda must lie in the ``_DOMAIN``, and --rel-tol must be
    non-negative (``inf`` stops at the first comparison, iteration 2; NaN is refused)."""
    sigma0 = DEFAULT_SIGMA0 if args.sigma0 is None else args.sigma0 * _UM
    (lo, hi), lam_max = _DOMAIN["sigma0"], _DOMAIN["lambda"][1]
    _require(lo <= sigma0 <= hi, "--sigma0", f"in {lo / _UM:g}..{hi / _UM:g} um and finite", args.sigma0)
    _require(0.0 <= args.lam <= lam_max, "--lambda", f"in 0..{lam_max:g} and finite", args.lam)
    _require(args.max_iter >= 1, "--max-iter", "at least 1", args.max_iter)
    _require(args.rel_tol >= 0.0, "--rel-tol", "non-negative", args.rel_tol)
    return dict(sigma0=sigma0, lam=args.lam, rel_tol=args.rel_tol, max_iter=args.max_iter)


def _check_study(study, model, source) -> None:
    """Reject rows naming joints or markers that the model does not have."""
    where = lambda i: f"{source}: config {study.config[i]}, marker {study.marker[i]}, rep {study.rep[i]}"
    n_markers = len(model.markers)
    if study.q.shape[1] != model.n_joints:
        raise MeasurementFormatError(f"{where(0)}: {study.q.shape[1]} angles for {model.n_joints} joints")
    outside = (study.marker < 0) | (study.marker >= n_markers)
    index = np.where(outside, study.marker, study.fmarker)  # the first bad index of each row
    bad = np.flatnonzero((index < 0) | (index >= n_markers))
    if bad.size:
        i = bad[0]
        raise MeasurementFormatError(f"{where(i)}: marker {index[i]} not in the model's 0..{n_markers - 1}")


def _check_design_model(model, design) -> None:
    """Reject a --model whose joints or markers the bundled design does not fit; reading it bounded its reach."""
    n, m = len(design.configurations[0]), design.markers
    _require(model.n_joints == n, "--model", f"a {n}-joint model for the bundled design", model.n_joints)
    _require(len(model.markers) >= m, "--model", f"a model with {m} or more markers", len(model.markers))


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else os.environ.get(OUT_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(args):
    return load_model(args.model) if args.model else reference.nominal_model()


def _calibrate_flags(cal: argparse.ArgumentParser) -> None:
    cal.add_argument("--measurements", required=True, help="measurement file path")
    cal.add_argument("--model", help="model file (default: bundled 6R model)")
    cal.add_argument("--noise", help="noise table; omit to estimate from repeated postures")
    cal.add_argument("--method", choices=("ols", "wls", "irls"), default="wls")
    cal.add_argument("--mode", choices=("elastostatic", "geometric", "combined"),
                     default="elastostatic")
    cal.add_argument("--params", help="comma-separated geometric parameter ids "
                     "(required for geometric/combined modes)")
    cal.add_argument("--out", help=f"output directory (default: ${OUT_ENV} or .)")
    _add_common_estimator_args(cal)


def _simulate_flags(sim: argparse.ArgumentParser) -> None:
    sim.add_argument("--model", help="model file (default: bundled 6R model)")
    sim.add_argument("--noise", help="noise table (default: bundled study levels)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--markers", type=int, default=reference.DEFAULT_MARKERS)
    sim.add_argument("--repetitions", type=int, default=reference.DEFAULT_REPETITIONS)
    sim.add_argument("--mass", type=float, default=reference.DEFAULT_MASS_KG,
                     help="load mass, kg (default 265)")
    sim.add_argument("--out", help=f"output directory (default: ${OUT_ENV} or .)")


def _compare_flags(cmp_: argparse.ArgumentParser) -> None:
    cmp_.add_argument("--model", help="model file (default: bundled 6R model)")
    cmp_.add_argument("--trials", type=int, default=200)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--out", help=f"output directory (default: ${OUT_ENV} or .)")
    _add_common_estimator_args(cmp_)


def _fit(study, model, noise, mode, params, method, settings):
    """``(system, results)`` of a loaded study: OLS, then ``method`` unless it is ols.  With ``noise`` None,
    each sigma is the scatter within repeated postures.  ``settings`` come from :func:`_estimator_settings`."""
    cmap = None if mode == "geometric" else ComplianceParameterMap.from_configurations(study.q)
    table = NoiseModel.uniform(np.unique(study.config), 1.0) if noise is None else noise
    sys_ = stack_system(study, model, cmap, table, mode=mode, params=params, sigma_floor=settings["sigma0"])
    if noise is None:
        sys_ = replace(sys_, sigma=_replicate_sigma(sys_, settings["sigma0"]))
    results = [ols_estimate(sys_)]
    if method == "wls":
        results.append(wls_estimate(sys_, robust_weights(sys_.sigma, settings["sigma0"], settings["lam"])))
    elif method == "irls":
        results.append(irls(sys_, **settings))
    return sys_, tuple(results)


def _cmd_calibrate(args) -> int:
    settings = _estimator_settings(args)
    params = args.params.split(",") if args.params else None
    if args.mode == "elastostatic":
        _require(args.params is None, "--params", "omitted in elastostatic mode", args.params)
    elif not params:
        raise _UsageError(f"--mode {args.mode} requires --params")
    model = _load_model(args)
    _require(args.mode == "geometric" or model.n_joints >= 2, "--model",
             f"a model of 2 or more joints in {args.mode} mode", model.n_joints)
    ids = params or ()
    ids_ok = set(model.parameter_ids()).issuperset(ids) and len(set(ids)) == len(ids)
    _require(ids_ok, "--params", "distinct parameter ids of the model, e.g. a2,theta4,tool_x", args.params)
    study = load_measurements(args.measurements)
    _check_study(study, model, args.measurements)
    noise = load_noise_table(args.noise) if args.noise else None
    sys_, results = _fit(study, model, noise, args.mode, params, args.method, settings)
    final = results[-1]
    out = _out_dir(args)
    written = reports.write_parameter_report(out, results)
    if len(results) > 1:
        written += reports.write_ratio_report(out, results[0], final)
    written.append(reports.write_residual_report(out, sys_, final))
    if final.iterations:
        written += reports.write_trace_report(out, final)
    for path in written:
        print(f"wrote {path}")
    if not final.converged:
        print(f"note: reweighting stopped early ({final.stop_reason})")
    return 0


def _cmd_simulate(args) -> int:
    model = _load_model(args)
    n_markers = len(model.markers)
    _require(1 <= args.markers <= n_markers, "--markers", f"in 1..{n_markers}", args.markers)
    _require(args.repetitions >= 1, "--repetitions", "at least 1", args.repetitions)
    _require(args.seed >= 0, "--seed", "non-negative", args.seed)
    lo, hi = _DOMAIN["mass"]
    _require(args.mass == 0.0 or lo <= args.mass <= hi, "--mass", f"0 or in {lo:g}..{hi:g} kg and finite", args.mass)
    noise = load_noise_table(args.noise) if args.noise else None
    design = reference.study_design(
        seed=args.seed,
        markers=args.markers,
        repetitions=args.repetitions,
        mass_kg=args.mass,
        noise=noise,
    )
    _check_design_model(model, design)
    study = simulate_measurements(design, model)
    positions = np.hstack([study.p0, study.p]).ravel()  # in the file's order: p0 then p, row by row
    outside = positions[~_inside("position", positions)]
    if outside.size:
        raise _UsageError(f"--model/--mass must keep every simulated position {_span('position', 'um', 1.0 / _UM)}, "
                          f"got {outside[0] / _UM:g} um")
    out = _out_dir(args)
    written = [
        write_measurements(out / "measurements.tsv", study),
        write_noise_table(out / "noise.tsv", design.noise),
        write_ground_truth(
            out / "ground_truth.tsv", design.cmap.parameter_names, design.ground_truth.values
        ),
    ]
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    settings = _estimator_settings(args)
    _require(args.trials >= 2, "--trials", "at least 2", args.trials)
    _require(args.seed >= 0, "--seed", "non-negative", args.seed)
    model = _load_model(args)
    design = reference.study_design(seed=args.seed)
    _check_design_model(model, design)
    mc = monte_carlo_compare(design, model, trials=args.trials, **settings)
    out = _out_dir(args)
    for path in reports.write_compare_report(out, mc):
        print(f"wrote {path}")
    return 0


#: Each subcommand's help line, the function that adds its flags and its handler.
_COMMANDS = {
    "calibrate": ("identify parameters from a measurement file", _calibrate_flags, _cmd_calibrate),
    "simulate": ("generate a synthetic deflection study", _simulate_flags, _cmd_simulate),
    "compare": ("Monte Carlo comparison of OLS/WLS/IRLS", _compare_flags, _cmd_compare),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``armcal`` argument parser, with every subcommand or with ``command`` alone.

    The subcommand an argv names parses the rest of it, so the parser with that
    subcommand alone parses such an argv exactly as the full one does, at under half
    the cost of building the full one.  Its parsers share one help width, looked up once."""
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="armcal",
        description="Geometric and elastostatic calibration of serial manipulators "
        "with dispersion-aware weighted least squares.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_flags, _) in _COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help_, formatter_class=formatter))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *_: f"WARNING {category.__name__}: {message}\n"
    try:
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except _UsageError as exc:
        print(f"ERROR E_USAGE: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR E_IO: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ERROR E_MEMORY: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
