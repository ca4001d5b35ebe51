"""End-to-end command line behavior: workflows, determinism, error paths."""

import argparse
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import armcal
from armcal.cli import OUT_ENV, _estimator_settings, _fit, build_parser, main
from armcal.estimator import _replicate_sigma, irls, ols_estimate, robust_weights, wls_estimate
from armcal.fileio import format_model, load_measurements, load_noise_table, write_measurements, write_text
from armcal.noise import DEFAULT_SIGMA0, NoiseModel
from armcal.regressor import ComplianceParameterMap, stack_system
from armcal.reports import parameter_unit
from armcal.simulator import simulate_measurements
from armcal import reference
from row_level import residuals


def run_cli(*argv):
    return main(list(argv))


def stacked_from_files(measurements, noise_path):
    """Rebuild the calibrate subcommand's stacked system from its inputs."""
    study = load_measurements(measurements)
    noise = load_noise_table(noise_path)
    cmap = ComplianceParameterMap.from_configurations(study.q)
    return stack_system(
        study, reference.nominal_model(), cmap, noise, sigma_floor=DEFAULT_SIGMA0
    )


def model_file(directory, name):
    """The bundled model cut to five joints, to one joint or to one marker, or with its first two links
    ``a`` = 1e308 or 1.5e308 m long, written to ``directory / name``."""
    model = reference.nominal_model()
    long = lambda a: replace(model, joints=tuple(replace(j, a=a) for j in model.joints[:2]) + model.joints[2:])
    cut = {"five-joint.model": replace(model, joints=model.joints[:5]),
           "one-joint.model": replace(model, joints=model.joints[:1]),
           "one-marker.model": replace(model, markers=model.markers[:1]),
           "long-1e308.model": long(1e308), "long-1.5e308.model": long(1.5e308)}[name]
    return str(write_text(directory / name, format_model(cut)))


@pytest.fixture(scope="module")
def near_study(tmp_path_factory):
    """The ``calibrate`` arguments, without ``--out``, that warn of a near rank deficiency: a study of the
    bundled model with joint 3 tilted by 1e-6 deg, so that d2 and d3 are nearly the same parameter."""
    out = tmp_path_factory.mktemp("near")
    model = reference.nominal_model()
    joints = list(model.joints)
    joints[2] = replace(joints[2], alpha=math.radians(1e-6))
    path = str(write_text(out / "near.model", format_model(replace(model, joints=tuple(joints)))))
    assert run_cli("simulate", "--model", path, "--out", str(out)) == 0
    measurements = str(out / "measurements.tsv")
    return ["calibrate", "--model", path, "--measurements", measurements, "--mode", "geometric",
            "--params", "d2,d3,a2", "--method", "ols"]


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    """One simulated study on disk, shared by the calibrate tests."""
    out = tmp_path_factory.mktemp("study")
    assert run_cli("simulate", "--seed", "5", "--out", str(out)) == 0
    return out


def read_estimates(tsv_path, method):
    rows = {}
    for line in tsv_path.read_text().splitlines()[1:]:
        m, name, est, ci3 = line.split("\t")
        if m == method:
            rows[name] = (float(est), float(ci3))
    return rows


class TestSimulate:
    def test_writes_study_files(self, study_dir):
        names = {p.name for p in study_dir.iterdir()}
        assert names == {"measurements.tsv", "noise.tsv", "ground_truth.tsv"}
        records = load_measurements(study_dir / "measurements.tsv")
        assert len(records) == 270

    def test_identical_seeds_give_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--seed", "7", "--out", str(a)) == 0
        assert run_cli("simulate", "--seed", "7", "--out", str(b)) == 0
        for name in ("measurements.tsv", "noise.tsv", "ground_truth.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_small_design_counts(self, tmp_path):
        assert (
            run_cli(
                "simulate", "--repetitions", "1", "--markers", "1",
                "--out", str(tmp_path),
            )
            == 0
        )
        records = load_measurements(tmp_path / "measurements.tsv")
        assert len(records) == 15

    def test_mass_flag_scales_the_load(self, tmp_path):
        assert run_cli("simulate", "--mass", "100", "--out", str(tmp_path)) == 0
        study = load_measurements(tmp_path / "measurements.tsv")
        assert study.force[0, 2] == pytest.approx(-100.0 * 9.80665, rel=1e-12)


class TestCalibrate:
    def test_wls_matches_in_process_computation(self, study_dir, tmp_path):
        assert (
            run_cli(
                "calibrate",
                "--measurements", str(study_dir / "measurements.tsv"),
                "--noise", str(study_dir / "noise.tsv"),
                "--method", "wls",
                "--out", str(tmp_path),
            )
            == 0
        )
        reported = read_estimates(tmp_path / "parameters.tsv", "wls")

        sys = stacked_from_files(
            study_dir / "measurements.tsv", study_dir / "noise.tsv"
        )
        res = wls_estimate(sys, robust_weights(sys.sigma, DEFAULT_SIGMA0, 1.0))
        for i, name in enumerate(res.parameters):
            est, ci3 = reported[name]
            assert est == res.x_hat[i]  # byte-for-byte repr round trip
            assert ci3 == res.ci3[i]

    def test_ratio_report_only_with_a_weighted_method(self, study_dir, tmp_path):
        ols_dir = tmp_path / "ols"
        wls_dir = tmp_path / "wls"
        for method, out in (("ols", ols_dir), ("wls", wls_dir)):
            assert (
                run_cli(
                    "calibrate",
                    "--measurements", str(study_dir / "measurements.tsv"),
                    "--noise", str(study_dir / "noise.tsv"),
                    "--method", method,
                    "--out", str(out),
                )
                == 0
            )
        assert not (ols_dir / "ratios.txt").exists()
        assert (wls_dir / "ratios.txt").exists()
        ratios = [
            float(line.split("\t")[3])
            for line in (wls_dir / "ratios.tsv").read_text().splitlines()[1:]
        ]
        assert len(ratios) == 9
        assert all(r > 1.0 for r in ratios)

    def test_irls_writes_requested_trace_length(self, study_dir, tmp_path):
        assert (
            run_cli(
                "calibrate",
                "--measurements", str(study_dir / "measurements.tsv"),
                "--noise", str(study_dir / "noise.tsv"),
                "--method", "irls",
                "--rel-tol", "0", "--max-iter", "10",
                "--out", str(tmp_path),
            )
            == 0
        )
        trace = (tmp_path / "trace.tsv").read_text().splitlines()
        assert len(trace) == 1 + 10  # header + one row per iteration
        assert trace[0].split("\t")[0] == "iteration"
        assert (tmp_path / "trace.txt").exists()

    @pytest.mark.parametrize("argv, stopped", [(("--rel-tol", "0", "--max-iter", "2"), True), ((), False)],
                             ids=["max-iter", "converged"])
    def test_early_stop_note(self, argv, stopped, study_dir, tmp_path, capsys):
        assert run_cli("calibrate", "--measurements", str(study_dir / "measurements.tsv"),
                       "--noise", str(study_dir / "noise.tsv"), "--method", "irls", *argv,
                       "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out.splitlines()
        assert (out[-1] == "note: reweighting stopped early (max_iter)") is stopped
        assert not any(line.startswith("note:") for line in out[:-1])

    @pytest.mark.parametrize("rel_tol", ["inf", "-inf", "nan"])
    def test_rel_tol_is_compared_as_given(self, rel_tol, study_dir, tmp_path, capsys):
        # inf stops at the first comparison, iteration 2; a tolerance below zero or NaN is refused
        code = run_cli(
            "calibrate",
            "--measurements", str(study_dir / "measurements.tsv"),
            "--noise", str(study_dir / "noise.tsv"),
            "--method", "irls",
            f"--rel-tol={rel_tol}",
            "--out", str(tmp_path),
        )
        err = capsys.readouterr().err
        if rel_tol == "inf":
            assert (code, err) == (0, "")
            assert len((tmp_path / "trace.tsv").read_text().splitlines()) == 1 + 2
            assert "converged=True (tolerance)" in (tmp_path / "trace.txt").read_text()
        else:
            assert code == 2
            assert err == f"ERROR E_USAGE: --rel-tol must be non-negative, got {rel_tol}\n"
            assert not any(tmp_path.iterdir())

    def test_irls_defaults_match_in_process(self, study_dir, tmp_path):
        assert (
            run_cli(
                "calibrate",
                "--measurements", str(study_dir / "measurements.tsv"),
                "--noise", str(study_dir / "noise.tsv"),
                "--method", "irls",
                "--out", str(tmp_path),
            )
            == 0
        )
        reported = read_estimates(tmp_path / "parameters.tsv", "irls")
        sys = stacked_from_files(
            study_dir / "measurements.tsv", study_dir / "noise.tsv"
        )
        res = irls(sys, sigma0=DEFAULT_SIGMA0)
        for i, name in enumerate(res.parameters):
            assert reported[name][0] == res.x_hat[i]

    def test_estimates_from_replicates_when_no_noise_table(self, study_dir, tmp_path):
        assert (
            run_cli(
                "calibrate",
                "--measurements", str(study_dir / "measurements.tsv"),
                "--method", "wls",
                "--out", str(tmp_path),
            )
            == 0
        )
        assert (tmp_path / "parameters.tsv").exists()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_replicate_dispersions_match_the_true_table(self, seed, tmp_path):
        # the scatter within repeated postures stands in for the study's own noise table
        study = tmp_path / "study"
        assert run_cli("simulate", "--seed", str(seed), "--out", str(study)) == 0
        measurements, noise = str(study / "measurements.tsv"), str(study / "noise.tsv")

        def calibrate(out, *argv):
            assert run_cli("calibrate", "--measurements", measurements, "--out", str(tmp_path / out), *argv) == 0
            return tmp_path / out

        blind, told = calibrate("blind"), calibrate("told", "--noise", noise)
        for method in ("ols", "wls"):
            table = read_estimates(told / "parameters.tsv", method)
            estimates = read_estimates(blind / "parameters.tsv", method)
            ratio = [ci3 / table[name][1] for name, (_, ci3) in estimates.items()]
            assert len(ratio) == 9 and 0.7 <= min(ratio) and max(ratio) <= 1.4, (method, ratio)

        # a geometric row observes one position, whose dispersion is the table's over sqrt(2)
        geometric = ("--mode", "geometric", "--params", "a2,d3,theta4,tool_x")
        blind = calibrate("blind-geometric", *geometric)
        told = calibrate("told-geometric", "--noise", noise, *geometric)
        sigma = lambda out: [float(row.split("\t")[3]) for row in (out / "residuals.tsv").read_text().splitlines()[1:]]
        ratio = statistics.median(b / t for b, t in zip(sigma(blind), sigma(told)))
        assert 0.6 <= ratio <= 0.8, ratio

    def test_residual_report_row_count(self, study_dir, tmp_path):
        assert (
            run_cli(
                "calibrate",
                "--measurements", str(study_dir / "measurements.tsv"),
                "--noise", str(study_dir / "noise.tsv"),
                "--out", str(tmp_path),
            )
            == 0
        )
        lines = (tmp_path / "residuals.tsv").read_text().splitlines()
        assert len(lines) == 1 + 810

    def test_repeat_runs_byte_identical(self, study_dir, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert (
                run_cli(
                    "calibrate",
                    "--measurements", str(study_dir / "measurements.tsv"),
                    "--noise", str(study_dir / "noise.tsv"),
                    "--method", "irls",
                    "--out", str(out),
                )
                == 0
            )
            outs.append(out)
        for name in ("parameters.tsv", "parameters.txt", "ratios.tsv", "trace.tsv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("mode", ["elastostatic", "combined"])
    def test_file_row_order_changes_no_output(self, mode, study_dir, tmp_path):
        lines = (study_dir / "measurements.tsv").read_text().splitlines(keepends=True)
        rows = [lines[i] for i in 2 + np.random.default_rng(4).permutation(len(lines) - 2)]
        shuffled = write_text(tmp_path / "shuffled.tsv", lines[:2] + rows)
        params = ["--params", "a2,d3,theta4,tool_x"] if mode == "combined" else []
        outputs = []
        for name, measurements in (("sorted", study_dir / "measurements.tsv"), ("shuffled", shuffled)):
            assert run_cli("calibrate", "--measurements", str(measurements), "--noise", str(study_dir / "noise.tsv"),
                           "--method", "irls", "--mode", mode, *params, "--out", str(tmp_path / name)) == 0
            outputs.append(output_bytes(tmp_path / name))
        assert len(outputs[0]) == 7 and outputs[0] == outputs[1]

    def test_jittered_repetitions_are_one_posture(self, study_dir, tmp_path):
        # repetitions 2.. of each configuration shifted in q1 by (rep - 1) * 1e-7 deg, within the
        # loader's 1e-6 rad: every row reads its configuration's first row's angles, as in the source
        lines = (study_dir / "measurements.tsv").read_text().splitlines(keepends=True)
        rows = [line.split() for line in lines[2:]]
        for row in rows:
            row[3] = repr(float(row[3]) + (int(row[2]) - 1) * 1e-7)
        jittered = write_text(tmp_path / "jittered.tsv", "".join(lines[:2] + [" ".join(row) + "\n" for row in rows]))
        assert jittered.read_text() != (study_dir / "measurements.tsv").read_text()
        assert len(stacked_from_files(jittered, study_dir / "noise.tsv").B) == 135
        outputs = []
        for name, measurements in (("source", study_dir / "measurements.tsv"), ("jittered", jittered)):
            assert run_cli("calibrate", "--measurements", str(measurements), "--method", "irls",
                           "--out", str(tmp_path / name)) == 0
            outputs.append(output_bytes(tmp_path / name))
        assert len(outputs[0]) == 7 and outputs[0] == outputs[1]


class TestFit:
    """``_fit``, the stack and solve of ``calibrate``, on a study in memory."""

    @pytest.mark.parametrize("method", ["ols", "wls", "irls"])
    @pytest.mark.parametrize("table", [True, False], ids=["noise", "replicates"])
    @pytest.mark.parametrize("mode, params", [("elastostatic", None), ("combined", ["a2", "d3", "theta4", "tool_x"])])
    def test_matches_the_direct_calls(self, mode, params, table, method, bundled_design, bundled_study,
                                      nominal_model):
        settings = _estimator_settings(build_parser("calibrate").parse_args(["calibrate", "--measurements", "-"]))
        sigma0 = settings["sigma0"]
        noise = bundled_design.noise if table else NoiseModel.uniform(np.unique(bundled_study.config), 1.0)
        cmap = ComplianceParameterMap.from_configurations(bundled_study.q)
        expected = stack_system(bundled_study, nominal_model, cmap, noise, mode=mode, params=params, sigma_floor=sigma0)
        if not table:
            expected = replace(expected, sigma=_replicate_sigma(expected, sigma0))
        solves = {"ols": (), "wls": (lambda s: wls_estimate(s, robust_weights(s.sigma, sigma0, settings["lam"])),),
                  "irls": (lambda s: irls(s, **settings),)}[method]
        expected_results = [solve(expected) for solve in (ols_estimate, *solves)]

        sys_, results = _fit(bundled_study, nominal_model, noise if table else None, mode, params, method, settings)
        for name in ("B", "dp", "sigma"):
            assert np.array_equal(getattr(sys_, name), getattr(expected, name)), name
        assert isinstance(results, tuple) and [r.method for r in results] == [r.method for r in expected_results]
        for res, want in zip(results, expected_results):
            for name in ("x_hat", "covariance", "predicted"):
                assert np.array_equal(getattr(res, name), getattr(want, name)), (res.method, name)


@pytest.fixture(scope="module")
def short_models(tmp_path_factory):
    """``calibrate`` arguments, without ``--mode`` and ``--out``, of the bundled model and study
    cut to their first 1 and 3 joints, by joint count."""
    out = tmp_path_factory.mktemp("short")
    model = reference.nominal_model()
    study = simulate_measurements(reference.study_design(seed=0), model)
    argv = {}
    for n in (1, 3):
        path = write_text(out / f"{n}-joint.model", format_model(replace(model, joints=model.joints[:n])))
        measurements = write_measurements(out / f"{n}-joint.tsv", replace(study, q=study.q[:, :n]))
        argv[n] = ["calibrate", "--model", str(path), "--measurements", str(measurements)]
    return argv


class TestShortModels:
    """Models of fewer than six joints: the compliance map keeps the joints they have, and a
    1-joint model, which has none to keep, calibrates in geometric mode."""

    def test_three_joint_model_keeps_its_tail_joint(self, short_models, tmp_path):
        assert run_cli(*short_models[3], "--out", str(tmp_path)) == 0
        names = list(read_estimates(tmp_path / "parameters.tsv", "wls"))
        assert [n for n in names if not n.startswith("k2_")] == ["k3"]  # after joint 2's bucket levels

    def test_one_joint_model_in_geometric_mode(self, short_models, tmp_path):
        argv = ["--mode", "geometric", "--params", "a1,d1,tool_x", "--out", str(tmp_path)]
        assert run_cli(*short_models[1], *argv) == 0
        assert list(read_estimates(tmp_path / "parameters.tsv", "wls")) == ["a1", "d1", "tool_x"]


class TestErrorPaths:
    def test_malformed_measurement_row(self, study_dir, tmp_path, capsys):
        broken = tmp_path / "broken.tsv"
        lines = (study_dir / "measurements.tsv").read_text().splitlines()
        lines[10] = lines[10] + " stray"
        broken.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run_cli(
            "calibrate", "--measurements", str(broken), "--out", str(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_MEASUREMENT_FORMAT:")
        assert ":11:" in err  # the offending line number
        assert not out.exists()  # failure leaves no partial outputs

    def test_missing_noise_entry(self, study_dir, tmp_path, capsys):
        pruned = tmp_path / "pruned.tsv"
        lines = (study_dir / "noise.tsv").read_text().splitlines()
        pruned.write_text("\n".join(lines[:-1]) + "\n")  # drop configuration 15
        code = run_cli(
            "calibrate",
            "--measurements", str(study_dir / "measurements.tsv"),
            "--noise", str(pruned),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "ERROR E_NOISE_MISSING:" in capsys.readouterr().err

    def test_geometric_mode_needs_params(self, study_dir, tmp_path, capsys):
        code = run_cli(
            "calibrate",
            "--measurements", str(study_dir / "measurements.tsv"),
            "--mode", "geometric",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "ERROR E_USAGE:" in capsys.readouterr().err

    def test_missing_measurement_file(self, tmp_path, capsys):
        code = run_cli(
            "calibrate", "--measurements", str(tmp_path / "nope.tsv"),
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "ERROR E_MEASUREMENT_FORMAT:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, error", [
        ("calibrate", "--measurements", "E_MEASUREMENT_FORMAT"),
        ("calibrate", "--noise", "E_NOISE_FORMAT"),
        ("calibrate", "--model", "E_MODEL_FORMAT"),
        ("simulate", "--noise", "E_NOISE_FORMAT"),
    ])
    def test_non_utf8_input_file(self, command, flag, error, study_dir, tmp_path, capsys):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfe" + "config sigma_x".encode("utf-16-le"))
        inputs = {"--measurements": study_dir / "measurements.tsv", "--noise": study_dir / "noise.tsv"}
        args = {**(inputs if command == "calibrate" else {}), flag: bad}
        out = tmp_path / "out"
        code = run_cli(command, *(str(x) for pair in args.items() for x in pair), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"ERROR {error}: cannot read ")
        assert str(bad) in err
        assert err.count("\n") == 1  # one line, no traceback
        assert not out.exists()

    @pytest.mark.parametrize("rpy", ["inf,0,0", "1e400,0,0"])
    @pytest.mark.parametrize("pose", ["base", "tool"])
    def test_infinite_model_angle_is_one_coded_line(self, pose, rpy, study_dir, tmp_path, capsys):
        path = tmp_path / "m.model"
        lines = format_model(reference.nominal_model()).splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(pose))
        lines[lineno - 1] = f"{pose} xyz=0,0,0 rpy={rpy}"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli("calibrate", "--measurements", str(study_dir / "measurements.tsv"),
                       "--model", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            f"ERROR E_MODEL_FORMAT: {path}:{lineno}: non-finite vector component in '{rpy}'\n"
        assert not out.exists()

    def test_unwritable_output_directory(self, study_dir, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        code = run_cli(
            "calibrate",
            "--measurements", str(study_dir / "measurements.tsv"),
            "--out", str(blocker / "sub"),
        )
        assert code == 1
        assert "ERROR E_IO:" in capsys.readouterr().err

    def test_rank_deficiency_surfaces_code(self, study_dir, tmp_path, capsys):
        # joint axes 2 and 3 are parallel, so d2 and d3 move the marker alike: exactly singular
        study = load_measurements(study_dir / "measurements.tsv")
        one = tmp_path / "one.tsv"
        write_measurements(one, study.take(slice(2)))
        code = run_cli(
            "calibrate",
            "--measurements", str(one),
            "--noise", str(study_dir / "noise.tsv"),
            "--mode", "geometric",
            "--params", "d2,d3",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "ERROR E_RANK_DEFICIENT:" in capsys.readouterr().err

    def test_fewer_distinct_rows_than_parameters(self, study_dir, tmp_path, capsys):
        # one marker in one configuration: 36 rows, but 3 distinct ones for 8 parameters
        study = load_measurements(study_dir / "measurements.tsv")
        one = write_measurements(tmp_path / "one.tsv", study.take((study.config == 1) & (study.marker == 0)))
        out = tmp_path / "out"
        code = run_cli("calibrate", "--measurements", str(one), "--noise", str(study_dir / "noise.tsv"),
                       "--mode", "geometric", "--params", "a2,a3,a4,d2,d3,d4,theta2,theta3", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ERROR E_RANK_DEFICIENT: information matrix is rank deficient (3/8)")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_fewer_equations_than_parameters(self, study_dir, tmp_path, capsys):
        # one row: 3 scalar equations for 5 parameters (one bucket level and k3..k6)
        study = load_measurements(study_dir / "measurements.tsv")
        one = write_measurements(tmp_path / "one.tsv", study.take(slice(1)))
        out = tmp_path / "out"
        code = run_cli("calibrate", "--measurements", str(one), "--noise", str(study_dir / "noise.tsv"),
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ERROR E_RANK_DEFICIENT: information matrix is rank deficient (3/5); unidentifiable: ")
        assert err.count("\n") == 1 and err.count("ERROR") == 1
        assert not out.exists()

    def test_replicate_starved_study_under_irls(self, tmp_path, capsys):
        # one marker, one repetition: every (configuration, axis) group is one row
        study = tmp_path / "study"
        assert run_cli("simulate", "--markers", "1", "--repetitions", "1",
                       "--out", str(study)) == 0
        capsys.readouterr()
        code = run_cli(
            "calibrate",
            "--measurements", str(study / "measurements.tsv"),
            "--noise", str(study / "noise.tsv"),
            "--method", "irls",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert capsys.readouterr().err == (  # one line naming the first one-row group, no traceback
            "ERROR E_REPLICATES: configuration 1 has one row on axis x; "
            "every (configuration, axis) group needs >= 2 rows to estimate a dispersion\n")
        assert not (tmp_path / "out").exists()

    def test_single_irls_pass_needs_no_replicates(self, tmp_path, capsys):
        # the same starved study solves when no re-estimate follows the one iteration
        study = tmp_path / "study"
        assert run_cli("simulate", "--markers", "1", "--repetitions", "1",
                       "--out", str(study)) == 0
        code = run_cli(
            "calibrate",
            "--measurements", str(study / "measurements.tsv"),
            "--noise", str(study / "noise.tsv"),
            "--method", "irls",
            "--max-iter", "1",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "trace.tsv").read_text().count("\n") == 2  # header + 1

    def test_unrepeated_postures_need_a_noise_table(self, tmp_path, capsys):
        # three markers but one repetition: no posture repeats, so no dispersion is estimable
        study = tmp_path / "study"
        assert run_cli("simulate", "--repetitions", "1", "--out", str(study)) == 0
        capsys.readouterr()
        measurements = str(study / "measurements.tsv")
        code = run_cli("calibrate", "--measurements", measurements, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ERROR E_REPLICATES:") and err.count("\n") == 1
        assert "--noise" in err
        assert not (tmp_path / "out").exists()
        code = run_cli("calibrate", "--measurements", measurements, "--noise", str(study / "noise.tsv"),
                       "--out", str(tmp_path / "out"))
        assert code == 0, capsys.readouterr().err

    def test_overflowing_dispersions_without_noise(self, study_dir, tmp_path, capsys):
        # a finite position of 1e305 um, whose squared spread would overflow, is refused at read
        edited = self._with_token(study_dir, tmp_path, 2, 16, "1e305")  # px of the first data line
        out = tmp_path / "out"
        code = run_cli("calibrate", "--measurements", str(edited), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (f"ERROR E_MEASUREMENT_FORMAT: {edited}:3: px 1e305 "
                                           "must be at most 1e+09 um in magnitude\n")
        assert not out.exists()

    def test_overflowing_dispersions_in_noise_table(self, study_dir, tmp_path, capsys):
        # a finite sigma of 1e200 um, whose square in the half-widths would overflow, is refused at read
        lines = (study_dir / "noise.tsv").read_text().splitlines()
        tokens = lines[2].split()
        tokens[1] = "1e200"
        lines[2] = " ".join(tokens)
        noise = write_text(tmp_path / "noise.tsv", "\n".join(lines) + "\n")
        out = tmp_path / "out"
        measurements = study_dir / "measurements.tsv"
        code = run_cli("calibrate", "--measurements", str(measurements), "--noise", str(noise), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"ERROR E_NOISE_FORMAT: {noise}:3: sigma_x 1e200 must be finite and >= 0, "
                       "at most 1e+06 um in magnitude\n")
        assert not out.exists()

    def test_overflowing_dispersions_refused_by_simulate(self, study_dir, tmp_path, capsys):
        # sigmas of 1e308 um, whose draws would overflow the measurement file, are refused at read
        lines = (study_dir / "noise.tsv").read_text().splitlines()
        lines[2:] = [" ".join([line.split()[0], "1e308", "1e308", "1e308", *line.split()[4:]]) for line in lines[2:]]
        noise = write_text(tmp_path / "noise.tsv", "\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run_cli("simulate", "--noise", str(noise), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (f"ERROR E_NOISE_FORMAT: {noise}:3: sigma_x 1e308 must be finite and "
                                           ">= 0, at most 1e+06 um in magnitude\n")
        assert not (out / "measurements.tsv").exists()

    @pytest.mark.parametrize("joint, mass", [(2, None), (2, "1e6"), (0, None)], ids=["a3", "a3-mass-max", "a1"])
    def test_simulated_positions_outside_the_domain(self, joint, mass, tmp_path, capsys):
        # a 1000 m link is a valid model length, but the markers it carries (and, for joint 3, their
        # deflection) leave the 1e9 um position limit that calibrate reads the study file under
        model = reference.nominal_model()
        joints = list(model.joints)
        joints[joint] = replace(joints[joint], a=1000.0)
        model = replace(model, joints=tuple(joints))
        path = str(write_text(tmp_path / "long.model", format_model(model)))
        out = tmp_path / "out"
        code = run_cli("simulate", "--model", path, *(["--mass", mass] if mass else []), "--out", str(out))
        design = reference.study_design(seed=0, **({"mass_kg": float(mass)} if mass else {}))
        study = simulate_measurements(design, model)
        positions = np.hstack([study.p0, study.p]).ravel()
        first = positions[np.abs(positions) > 1e3][0]  # in the order the file would hold them
        assert code == 2
        assert capsys.readouterr().err == ("ERROR E_USAGE: --model/--mass must keep every simulated position at most "
                                           f"1e+09 um in magnitude, got {first / 1e-6:g} um\n")
        assert not out.exists()

    def test_unloaded_study_is_rank_deficient(self, tmp_path, capsys):
        # with no load every elastostatic regressor row is zero
        study = tmp_path / "study"
        assert run_cli("simulate", "--mass", "0", "--out", str(study)) == 0
        capsys.readouterr()
        code = run_cli("calibrate", "--measurements", str(study / "measurements.tsv"), "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == "ERROR E_RANK_DEFICIENT: weighted regressor is identically zero\n"

    def test_joint_count_unlike_the_model(self, study_dir, tmp_path, capsys):
        study = load_measurements(study_dir / "measurements.tsv")
        five = write_measurements(tmp_path / "five.tsv", replace(study, q=study.q[:, :5]))
        code, err = self._calibrate_error(five, study_dir, tmp_path, capsys)
        assert code == 1
        assert err == f"ERROR E_MEASUREMENT_FORMAT: {five}: config 1, marker 0, rep 1: 5 angles for 6 joints\n"

    @staticmethod
    def _with_token(study_dir, tmp_path, row, column, value):
        """Copy of the study's measurement file with one data-row field replaced."""
        lines = (study_dir / "measurements.tsv").read_text().splitlines()
        tokens = lines[row].split()
        tokens[column] = value
        lines[row] = " ".join(tokens)
        path = tmp_path / "edited.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _calibrate_error(self, measurements, study_dir, tmp_path, capsys):
        code = run_cli(
            "calibrate", "--measurements", str(measurements),
            "--noise", str(study_dir / "noise.tsv"), "--out", str(tmp_path / "out"),
        )
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, no traceback
        return code, err

    def test_fractional_fmarker(self, study_dir, tmp_path, capsys):
        # line 5 of the file: columns config marker rep q1..q6 fx fy fz fmarker ...
        edited = self._with_token(study_dir, tmp_path, 4, 12, "0.5")
        code, err = self._calibrate_error(edited, study_dir, tmp_path, capsys)
        assert code == 1
        assert err.startswith("ERROR E_MEASUREMENT_FORMAT:")
        assert ":5:" in err

    @pytest.mark.parametrize("row, column, value", [(40, 13, "nan"), (50, 11, "1e400")])
    def test_non_finite_measurement_value(self, row, column, value, study_dir, tmp_path, capsys):
        # columns 13 and 11 are p0x and fz; data row k sits on line k + 1
        edited = self._with_token(study_dir, tmp_path, row, column, value)
        code, err = self._calibrate_error(edited, study_dir, tmp_path, capsys)
        assert code == 1
        assert err.startswith("ERROR E_MEASUREMENT_FORMAT:")
        assert f":{row + 1}:" in err
        assert "not finite" in err

    def test_marker_absent_from_model(self, study_dir, tmp_path, capsys):
        edited = self._with_token(study_dir, tmp_path, 4, 1, "7")  # 3-marker model
        code, err = self._calibrate_error(edited, study_dir, tmp_path, capsys)
        assert code == 1
        assert err.startswith("ERROR E_MEASUREMENT_FORMAT:")
        assert "marker 7 not in the model's 0..2" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("simulate", "--markers", "7"), "--markers"),
            (("simulate", "--markers", "0"), "--markers"),
            (("simulate", "--repetitions", "0"), "--repetitions"),
            (("simulate", "--mass", "-1"), "--mass"),
            (("simulate", "--seed", "-1"), "--seed"),
            (("compare", "--seed", "-1"), "--seed"),
            (("compare", "--trials", "1"), "--trials"),
            (("compare", "--max-iter", "0"), "--max-iter"),
            (("compare", "--sigma0", "0"), "--sigma0"),
            (("compare", "--lambda", "-1"), "--lambda"),
            (("compare", "--rel-tol", "-1"), "--rel-tol"),
            # model files the bundled design does not fit
            (("simulate", "--model", "five-joint.model"), "--model"),
            (("compare", "--model", "five-joint.model"), "--model"),
            (("compare", "--model", "one-marker.model"), "--model"),
            # --params checks run before the measurement file is read
            (("calibrate", "--measurements", "absent.tsv", "--mode", "geometric", "--params", "a2,a2"),
             "--params"),
            (("calibrate", "--measurements", "absent.tsv", "--params", "a2"), "--params"),
            # non-finite values name the finiteness rule
            (("simulate", "--mass", "inf"), "--mass"),
            (("simulate", "--mass", "nan"), "--mass"),
            (("compare", "--sigma0", "inf"), "--sigma0"),
            (("compare", "--sigma0", "nan"), "--sigma0"),
            (("compare", "--lambda", "inf"), "--lambda"),
            (("compare", "--lambda", "nan"), "--lambda"),
            # finite masses beyond the 1e6 kg of the numeric domain, whose load would overflow
            (("simulate", "--mass", "5e306"), "--mass"),
            (("simulate", "--mass", "1e307"), "--mass"),
            (("simulate", "--mass", "2e307"), "--mass"),
            (("simulate", "--mass", "1e308"), "--mass"),
            # link lengths beyond the domain's 1 km, refused on the model line that gives them
            pytest.param(("simulate", "--model", "long-1e308.model"), "E_MODEL_FORMAT", id="argv26---model"),
            pytest.param(("simulate", "--model", "long-1.5e308.model"), "E_MODEL_FORMAT", id="argv27---model"),
            # a sigma0 floor or a lambda outside the domain, whose half-widths would overflow or underflow to 0
            (("calibrate", "--measurements", "measurements.tsv", "--noise", "noise.tsv", "--sigma0", "1e300"),
             "--sigma0"),
            (("calibrate", "--measurements", "measurements.tsv", "--noise", "noise.tsv", "--method", "irls",
              "--sigma0", "1e-300"), "--sigma0"),
            (("calibrate", "--measurements", "measurements.tsv", "--noise", "noise.tsv", "--lambda", "1e300"),
             "--lambda"),
            (("compare", "--trials", "3", "--sigma0", "1e-300"), "--sigma0"),
            (("compare", "--trials", "3", "--sigma0", "1e300"), "--sigma0"),
            (("compare", "--trials", "3", "--lambda", "1e300"), "--lambda"),
            # rows naming the domain's rule after the flag: a subnormal sigma0 floor in meters, and one
            # whose meters underflow to zero
            (("calibrate", "--measurements", "measurements.tsv", "--noise", "noise.tsv", "--sigma0", "5e-318"),
             "--sigma0 in 1e-06..1e+06 um"),
            (("compare", "--trials", "3", "--sigma0", "5e-318"), "--sigma0 in 1e-06..1e+06 um"),
            (("calibrate", "--measurements", "measurements.tsv", "--noise", "noise.tsv", "--method", "ols",
              "--sigma0", "1e-320"), "--sigma0 in 1e-06..1e+06 um"),
            (("calibrate", "--measurements", "measurements.tsv", "--noise", "noise.tsv", "--method", "irls",
              "--sigma0", "1e-320"), "--sigma0 in 1e-06..1e+06 um"),
            (("compare", "--sigma0", "1e-320"), "--sigma0 in 1e-06..1e+06 um"),
            # compliances need joint 2, which a 1-joint model lacks; checked before the measurement file is read
            (("calibrate", "--model", "one-joint.model", "--measurements", "absent.tsv"),
             "--model a model of 2 or more joints in elastostatic mode, got 1"),
            (("calibrate", "--model", "one-joint.model", "--measurements", "absent.tsv", "--mode", "combined",
              "--params", "tool_x"), "--model a model of 2 or more joints in combined mode, got 1"),
        ],
    )
    def test_invalid_flag_value(self, argv, flag, study_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [model_file(tmp_path, a) if a.endswith(".model") else
                str(study_dir / a) if a in ("measurements.tsv", "noise.tsv") else a for a in argv]
        if flag == "E_MODEL_FORMAT":  # refused as the model file is read, naming the line of the first joint
            assert run_cli(*argv, "--out", str(out)) == 1
            assert capsys.readouterr().err.startswith(f"ERROR E_MODEL_FORMAT: {argv[-1]}:4: joint a=")
            assert not out.exists()
            return
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        flag, _, rule = flag.partition(" ")
        assert err.startswith(f"ERROR E_USAGE: {flag} must be {rule}")
        if argv[-1] in ("inf", "nan"):
            assert f" and finite, got {argv[-1]}\n" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("compare", "--trials", "abc"), "armcal compare: argument --trials: invalid int value: 'abc'"),
            (("calibrate", "--bogus"),
             "armcal calibrate: the following arguments are required: --measurements"),
            (("calibrate", "--measurements", "m.tsv", "--bogus"), "armcal: unrecognized arguments: --bogus"),
            ((), "armcal: the following arguments are required: command"),
        ],
        ids=["non-integer", "missing-required", "unknown-flag", "no-command"],
    )
    def test_parser_errors_are_one_coded_line(self, argv, message, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"ERROR E_USAGE: {message}\n"
        assert captured.out == ""

    def test_solver_warnings_of_an_accepted_run_are_issued(self, near_study, tmp_path):
        formatwarning = warnings.formatwarning
        with pytest.warns(RuntimeWarning, match="near rank deficiency") as caught:
            code = run_cli(*near_study, "--out", str(tmp_path / "out"))
        assert code == 0
        assert caught[0].filename.endswith("cli.py")  # named where the CLI solved, as the solver names it
        assert (tmp_path / "out" / "parameters.tsv").exists()
        assert warnings.formatwarning is formatwarning  # main restores the format it replaced

    def test_solver_warning_is_one_stderr_line(self, near_study, tmp_path):
        # a fresh interpreter shows the warning as the user sees it: its category and message,
        # with no file, line number or source text
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", OUT_ENV)}
        env["PYTHONPATH"] = str(Path(armcal.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "armcal.cli", *near_study, "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0
        assert re.fullmatch(r"WARNING RuntimeWarning: information matrix is near rank deficiency "
                            r"\(relative singular value [0-9.e+-]+\); weakest direction: [^\n]*d2[^\n]*\n", done.stderr)

    def test_failed_svd_is_one_coded_line(self, near_study, tmp_path, capsys, monkeypatch):
        # the near-deficient solve takes the SVD, and an SVD that fails is a rank fault of that solve
        def svd(*args, **kw):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        out = tmp_path / "out"
        assert run_cli(*near_study, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == ("ERROR E_RANK_DEFICIENT: weighted regressor could not be factored "
                                "(SVD did not converge)\n")
        assert captured.out == ""
        assert not out.exists()

    def test_allocation_failure_is_one_coded_line(self, tmp_path, capsys, monkeypatch):
        # a stand-in for a study too large to allocate; the real allocation is never made here
        def too_large(*args):
            raise MemoryError("Unable to allocate 13.1 TiB for an array")

        monkeypatch.setattr(armcal.cli, "simulate_measurements", too_large)
        out = tmp_path / "out"
        assert run_cli("simulate", "--repetitions", "100000000000", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == "ERROR E_MEMORY: Unable to allocate 13.1 TiB for an array\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_geometric_parameter(self, study_dir, tmp_path, capsys):
        code = run_cli(
            "calibrate", "--measurements", str(study_dir / "measurements.tsv"),
            "--mode", "geometric", "--params", "a2,foo", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_USAGE: --params ")
        assert err.count("\n") == 1

    def test_invalid_estimator_flag_on_calibrate(self, study_dir, tmp_path, capsys):
        code = run_cli(
            "calibrate", "--measurements", str(study_dir / "measurements.tsv"),
            "--max-iter", "0", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR E_USAGE: --max-iter ")


#: Each limit of the numeric domain: (argv, what the value sets, a value just inside, one just outside).
#: A flag takes the value; ``<file>:<column>`` sets that column of every data line of the study's file;
#: ``model:<kind>:<field>`` sets the last component of that field on the model's first such line.
DOMAIN_EDGES = [
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "--sigma0", "1e-6", "9.99e-7"),
    (("calibrate", "--method", "irls"), "--sigma0", "1e6", "1.000001e6"),
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "--lambda", "1e6", "1.000001e6"),
    (("compare", "--trials", "3"), "--sigma0", "1e-6", "9.99e-7"),
    (("compare", "--trials", "3"), "--lambda", "1e6", "1.000001e6"),
    (("simulate",), "--mass", "1e6", "1.000001e6"),
    (("simulate",), "--mass", "1e-30", "9.99e-31"),
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "model:joint:a", "1000", "1000.000001"),
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "model:marker:xyz", "1e-30", "9.99e-31"),
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "noise.tsv:1", "1e6", "1.000001e6"),  # sigma_x
    (("calibrate", "--method", "irls"), "measurements.tsv:16", "-1e9", "1.000001e9"),  # px
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "measurements.tsv:11", "-1e7", "-1.000001e7"),  # fz
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "measurements.tsv:11", "-1e-30", "-9.99e-31"),
    (("calibrate", "--method", "irls"), "measurements.tsv:11", "-1e-30", "-9.99e-31"),
    (("calibrate", "--method", "irls", "--noise", "noise.tsv"), "measurements.tsv:3", "57295.7", "57295.8"),  # q1
]


def _domain_cases():
    """One case per side of each limit, then the bundled study with every force scaled by 1e-300."""
    cases = [(argv, target, value, side == "inside") for argv, target, *values in DOMAIN_EDGES
             for side, value in zip(("inside", "outside"), values)]
    calibrate = ("calibrate", "--method", "irls")
    cases += [(argv, "measurements.tsv:11", "-2.598762249999999e-297", False)
              for argv in (calibrate, (*calibrate, "--noise", "noise.tsv"))]
    return [pytest.param(*case, id="-".join([case[0][0], *(["noise"] if "noise.tsv" in case[0] else []), *case[1:3]]))
            for case in cases]


class TestNumericDomain:
    @pytest.mark.parametrize("argv, target, value, inside", _domain_cases())
    def test_limits(self, argv, target, value, inside, study_dir, tmp_path, capsys):
        files = {name: study_dir / name for name in ("measurements.tsv", "noise.tsv")}
        edit = []
        if target.startswith("--"):
            edit = [target, value]
        elif target.startswith("model:"):
            _, kind, field = target.split(":")
            lines = format_model(reference.nominal_model()).splitlines()
            i = next(i for i, line in enumerate(lines) if line.startswith(kind))
            key, text = field + "=", next(t for t in lines[i].split() if t.startswith(field + "="))
            lines[i] = lines[i].replace(text, key + ",".join([*text[len(key):].split(",")[:-1], value]))
            edit = ["--model", str(write_text(tmp_path / "edge.model", "\n".join(lines) + "\n"))]
        else:
            name, column = target.split(":")
            lines = files[name].read_text().splitlines()
            for i in range(2, len(lines)):  # a comment and the header, then the data lines
                tokens = lines[i].split()
                tokens[int(column)] = value
                lines[i] = " ".join(tokens)
            files[name] = write_text(tmp_path / name, "\n".join(lines) + "\n")
        if argv[0] == "calibrate":
            argv = [*argv, "--measurements", "measurements.tsv"]
        out = tmp_path / "out"
        code = run_cli(*(str(files.get(a, a)) for a in argv), *edit, "--out", str(out))
        err = capsys.readouterr().err
        if not inside:
            assert code != 0 and err.startswith("ERROR E_") and err.count("\n") == 1, err
            quoted = repr(float(value)) if target.startswith("--") else value  # a flag as argparse read it
            assert quoted in err and "--noise" not in err and (target == "--sigma0") == ("--sigma0" in err)
            assert not out.exists()
            return
        assert code == 0, err
        for path in out.iterdir():
            for token in path.read_text().split():
                try:
                    assert math.isfinite(float(token)), path.name
                except ValueError:  # not a number
                    pass
        if (out / "parameters.tsv").exists():
            assert all(float(line.split("\t")[3]) > 0.0
                       for line in (out / "parameters.tsv").read_text().splitlines()[1:])


class TestCompare:
    def test_smoke_run_writes_reports(self, tmp_path):
        assert run_cli("compare", "--trials", "20", "--out", str(tmp_path)) == 0
        for name in ("comparison.txt", "comparison.tsv", "trace_mean.tsv"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "comparison.tsv").read_text().splitlines()[0]
        assert header.split("\t")[0] == "parameter"
        body = (tmp_path / "comparison.tsv").read_text().splitlines()[1:]
        assert len(body) == 9
        ratios = [float(line.split("\t")[-1]) for line in body]
        assert all(r > 1.0 for r in ratios)


class TestPlumbing:
    def test_output_directory_from_environment(self, study_dir, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv(OUT_ENV, str(env_dir))
        assert (
            run_cli(
                "calibrate",
                "--measurements", str(study_dir / "measurements.tsv"),
                "--noise", str(study_dir / "noise.tsv"),
            )
            == 0
        )
        assert (env_dir / "parameters.tsv").exists()

    def test_help_wraps_as_the_default_formatter(self, capsys, monkeypatch):
        lookups = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: lookups.append(a) or size(*a))
        texts = {}
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in (["-h"], ["calibrate", "-h"]):
                lookups.clear()
                with pytest.raises(SystemExit) as exc:
                    run_cli(*argv)
                assert exc.value.code == 0 and len(lookups) == 1
                texts[columns, argv[0]] = capsys.readouterr().out
                # the same parser, formatting through argparse's own formatter, which looks
                # the width up each time it is built
                parser = build_parser(None if argv[0] == "-h" else argv[0])
                if argv[0] == "calibrate":
                    parser = parser._subparsers._group_actions[0].choices["calibrate"]
                parser.formatter_class = argparse.HelpFormatter
                assert texts[columns, argv[0]] == parser.format_help()
        for argv0 in ("-h", "calibrate"):
            narrow, wide = texts["60", argv0], texts["200", argv0]
            assert len(narrow.splitlines()) > len(wide.splitlines())

    def test_top_level_help_lists_subcommands(self):
        text = build_parser().format_help()
        for sub in ("calibrate", "simulate", "compare"):
            assert sub in text

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("calibrate", ("--measurements", "--model", "--noise", "--method",
                           "--mode", "--params", "--sigma0", "--lambda",
                           "--rel-tol", "--max-iter", "--out")),
            ("simulate", ("--seed", "--markers", "--repetitions", "--mass",
                          "--out")),
            ("compare", ("--trials", "--seed", "--sigma0", "--lambda", "--out")),
        ],
    )
    def test_subcommand_help_documents_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text


def output_bytes(directory):
    """Every file under ``directory`` by its relative path, as bytes."""
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


class TestInProcessReuse:
    """``main`` keeps no state between calls, and parses with the named subcommand alone."""

    @staticmethod
    def default_commands(out):
        study = out / "study"
        assert run_cli("simulate", "--out", str(study)) == 0
        assert run_cli("calibrate", "--measurements", str(study / "measurements.tsv"),
                       "--noise", str(study / "noise.tsv"), "--out", str(out / "calibrate")) == 0
        assert run_cli("compare", "--out", str(out / "compare")) == 0
        return output_bytes(out)

    def test_main_is_reentrant(self, tmp_path, capsys):
        first = self.default_commands(tmp_path / "first")
        study = tmp_path / "flags" / "study"
        assert run_cli("simulate", "--seed", "3", "--repetitions", "4", "--mass", "200",
                       "--out", str(study)) == 0
        measured = ("--measurements", str(study / "measurements.tsv"), "--noise", str(study / "noise.tsv"))
        assert run_cli("calibrate", *measured, "--method", "wls", "--lambda", "2", "--sigma0", "20",
                       "--out", str(tmp_path / "flags" / "wls")) == 0
        assert run_cli("calibrate", *measured, "--method", "irls", "--mode", "combined",
                       "--params", "a2,d3,theta4,tool_x", "--out", str(tmp_path / "flags" / "combined")) == 0
        assert run_cli("compare", "--trials", "3", "--seed", "4", "--out", str(tmp_path / "flags" / "compare")) == 0
        capsys.readouterr()
        assert run_cli("compare", "--trials", "1") == 2
        assert capsys.readouterr().err.startswith("ERROR E_USAGE: --trials ")
        assert len(first) == 11  # 3 study files, 5 calibrate reports, 3 compare reports
        assert self.default_commands(tmp_path / "again") == first

    @pytest.mark.parametrize(
        "argv",
        [
            ("calibrate", "--measurements", "m.tsv", "--method", "irls", "--mode", "combined",
             "--params", "a2,d3", "--lambda", "2", "--max-iter", "5"),
            ("simulate", "--seed", "3", "--markers", "2", "--mass", "200", "--out", "s"),
            ("compare", "--trials", "5", "--sigma0", "20", "--rel-tol", "1e-4"),
        ],
        ids=["calibrate", "simulate", "compare"],
    )
    def test_named_subcommand_alone_parses_like_the_full_parser(self, argv):
        alone = build_parser(argv[0])
        assert alone.format_usage() == f"usage: armcal [-h] {{{argv[0]}}} ...\n"
        assert vars(alone.parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_model_file_is_read_on_every_call(self, study_dir, tmp_path, capsys):
        path = tmp_path / "m.model"
        text = format_model(reference.nominal_model())
        assert text.count(" a=1.15 ") == 1
        calibrate = ("calibrate", "--measurements", str(study_dir / "measurements.tsv"),
                     "--noise", str(study_dir / "noise.tsv"), "--model", str(path))
        estimates = []
        for out, edited in (("nominal", text), ("longer", text.replace(" a=1.15 ", " a=1.25 "))):
            path.write_text(edited)
            assert run_cli(*calibrate, "--out", str(tmp_path / out)) == 0
            estimates.append(read_estimates(tmp_path / out / "parameters.tsv", "wls"))
        assert estimates[0] != estimates[1]
        capsys.readouterr()
        path.write_text(text.replace(" a=1.15 ", " a=oops "))
        assert run_cli(*calibrate, "--out", str(tmp_path / "broken")) == 1
        assert capsys.readouterr().err.startswith("ERROR E_MODEL_FORMAT: ")


class TestReportHelpers:
    def test_parameter_units(self):
        scale, unit = parameter_unit("k2_3")
        assert (scale, unit) == (1e6, "urad/(N.m)")
        assert parameter_unit("alpha2")[1] == "deg"
        assert parameter_unit("theta5")[1] == "deg"
        assert parameter_unit("a1") == (1e3, "mm")
        assert parameter_unit("d4") == (1e3, "mm")
        assert parameter_unit("tool_z") == (1e3, "mm")

    def test_parameter_table_lists_compliances_in_report_units(
        self, study_dir, tmp_path
    ):
        assert (
            run_cli(
                "calibrate",
                "--measurements", str(study_dir / "measurements.tsv"),
                "--noise", str(study_dir / "noise.tsv"),
                "--out", str(tmp_path),
            )
            == 0
        )
        txt = (tmp_path / "parameters.txt").read_text()
        assert "urad/(N.m)" in txt
        # the wls estimates in the tsv land near the bundled ground truth
        reported = read_estimates(tmp_path / "parameters.tsv", "wls")
        truth = dict(
            zip(reference.compliance_map().parameter_names,
                reference.ground_truth().values)
        )
        for name, (est, _) in reported.items():
            assert est == pytest.approx(truth[name], rel=0.2)

    def test_residual_report_matches_per_row_formatting(
        self, bundled_system, bundled_study, bundled_design, nominal_model, tmp_path
    ):
        from armcal.reports import write_residual_report

        # combined mode: each record gives an unloaded then a loaded triple, so the
        # sigma and weight columns repeat across two row kinds; IRLS re-estimates its
        # sigmas and weights per class of identical rows, as the CLI writes them
        combined = stack_system(bundled_study, nominal_model, bundled_design.cmap, bundled_design.noise,
                                mode="combined", params=["a2", "d3", "theta4", "tool_x"])
        for sys, estimate in [(s, e) for s in (bundled_system, combined)
                              for e in (lambda s: wls_estimate(s, robust_weights(s.sigma)), irls)]:
            res = estimate(sys)
            row_residuals = residuals(sys, res)
            # reference: one row at a time, every float through repr(float(.))
            expected = ["config\tmarker\taxis\tsigma_um\tweight\tresidual_um"]
            for i in range(sys.n_equations):
                k = sys.row_class[i]
                expected.append("\t".join([
                    str(sys.config[k]), str(sys.marker[k]), "xyz"[sys.axis[k]],
                    repr(float(res.sigma[k] / 1e-6)), repr(float(res.weights[k])),
                    repr(float(row_residuals[i] / 1e-6)),
                ]))
            path = write_residual_report(tmp_path, sys, res)
            assert path.read_text() == "\n".join(expected) + "\n"

    def test_compare_report_lists_failed_trials_only_when_any(self, tmp_path):
        from dataclasses import replace

        from armcal.reports import write_compare_report
        from armcal.simulator import monte_carlo_compare

        mc = monte_carlo_compare(reference.study_design(seed=0), reference.nominal_model(),
                                 trials=4)
        (tmp_path / "clean").mkdir()
        (tmp_path / "failed").mkdir()
        write_compare_report(tmp_path / "clean", mc)
        clean = (tmp_path / "clean" / "comparison.txt").read_text()
        assert "failed trial" not in clean
        failed = replace(mc, failures=((2, "RankDeficientError", "rank deficient (8/9)"),))
        write_compare_report(tmp_path / "failed", failed)
        lines = (tmp_path / "failed" / "comparison.txt").read_text().splitlines()
        assert lines[0].startswith("# 4 trials, 1 failed;")
        assert lines[1] == "# failed trial 2: RankDeficientError: rank deficient (8/9)"
        assert lines[2:] == clean.splitlines()[1:]
