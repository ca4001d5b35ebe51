"""Tests of the benchmark harness itself; run with ``python -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Workload, calibration_op, check_calibration, check_compare

ROOT = Path(__file__).resolve().parents[2]


# --- tail percentile -------------------------------------------------------

@pytest.mark.parametrize("n", [40, 42, 100, 137])
def test_tail_has_exactly_ten_samples_beyond_from_40_samples(n):
    samples = [float(v) for v in range(n, 0, -1)]  # distinct, reversed order
    pct, value, beyond = run.tail_percentile(samples)
    assert beyond == 10
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


@pytest.mark.parametrize("n, value, beyond", [(12, 9.0, 3), (14, 11.0, 3), (39, 30.0, 9)])
def test_tail_is_p75_or_above_below_40_samples(n, value, beyond):
    pct, got, got_beyond = run.tail_percentile([float(v) for v in range(1, n + 1)])
    assert (got, got_beyond) == (value, beyond)
    assert pct == pytest.approx(100.0 * value / n) and pct >= 75.0


def test_tail_of_one_sample_is_that_sample():
    assert run.tail_percentile([3.0]) == (100.0, 3.0, 0)


@pytest.mark.parametrize("n_ops", [1, 2, 12, 100])
def test_every_setup_sample_has_a_slot_after_a_timed_op(n_ops):
    slots = run.setup_slots(n_ops)
    assert sum(slots.values()) == run.SETUP_REPEATS
    assert set(slots) <= set(range(n_ops))


def test_setup_samples_are_spread_over_the_run():
    assert sorted(run.setup_slots(100).items()) == [(19, 5), (39, 5), (59, 5), (79, 5), (99, 5)]


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_only_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["b.inner", 5.0, 7.0, 2],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["op", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 6.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_nested_self_time_in_layer_metrics():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 1.0, -1],
        ["regressor.stack_system", 0.1, 0.6, 0],
        ["regressor.elastostatic_regressor", 0.2, 0.3, 1],
        ["kinematics.joint_jacobian", 0.22, 0.28, 2],
        ["noise.build_sigma", 0.4, 0.5, 1],
    ]
    m = tracing.layer_metrics(tracer, ops=2)
    assert m["regressor.stack_system_ms"] == pytest.approx(250.0)
    assert m["regressor.stack_system_self_ms"] == pytest.approx(150.0)
    assert m["cli.self_ms"] == pytest.approx(250.0)
    assert m["kinematics.ms"] == pytest.approx(30.0)


# --- wrappers --------------------------------------------------------------

def test_a_missing_target_stops_the_traced_run(monkeypatch):
    import armcal.noise

    monkeypatch.delattr(armcal.noise, "build_sigma")
    with pytest.raises(AttributeError, match="armcal.noise.build_sigma"):
        with tracing.Tracer().installed():
            pass

def test_wrappers_reach_importing_modules_and_are_restored(tmp_path):
    import armcal.kinematics
    import armcal.regressor

    original = armcal.kinematics.joint_jacobian
    tracer = tracing.Tracer()
    with tracer.installed():
        assert armcal.regressor.joint_jacobian is not original
        assert calibration_op(tmp_path, seed=5) == [0, 0]
    assert armcal.regressor.joint_jacobian is original
    assert armcal.kinematics.joint_jacobian is original
    m = tracing.layer_metrics(tracer, ops=1)
    assert m["kinematics.joint_jacobian_calls"] == 525  # 75 in simulate, 450 in stack_system
    assert m["regressor.rows"] == 810
    assert m["estimator.solve_calls"] == 1 + m["estimator.irls_iterations_mean"]
    assert m["reports.bytes_written"] > 0
    assert not check_calibration(tmp_path, [0, 0])[0]


# --- output checks and failure accounting ----------------------------------

def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_calibration_check_flags_an_estimate_outside_two_ci3(tmp_path):
    _write(tmp_path / "study" / "ground_truth.tsv", "parameter value\nk3 1.0\nk4 2.0\n")
    _write(tmp_path / "results" / "parameters.tsv",
           "method\tparameter\testimate_si\tci3_si\n"
           "irls\tk3\t1.1\t0.1\nirls\tk4\t2.3\t0.1\nols\tk4\t9.0\t0.1\n")
    problems, _ = check_calibration(tmp_path, [0, 0])
    assert len(problems) == 1 and problems[0].startswith("k4:")


def test_compare_check_flags_a_ratio_not_above_one(tmp_path):
    rows = "".join(f"k{i}\t{1.5 if i else 1.0}\n" for i in range(9))
    _write(tmp_path / "comparison.tsv", "parameter\tci_ratio\n" + rows)
    _write(tmp_path / "comparison.txt", "# 100 trials, 0 failed; WLS CI nested in OLS CI in 26.0% of trials\n")
    problems, observed = check_compare(tmp_path, [0])
    assert problems == ["CI ratio not above 1 for k0"]
    assert observed == {"nested_all_fraction": pytest.approx(0.26)}


def _seed_file(out, seed):
    (out / "seed.txt").write_text(str(seed))
    return [0]


def _every_third_seed_fails(out, codes):
    seed = int((out / "seed.txt").read_text())
    return (["seed divisible by 3"] if seed % 3 == 0 else []), {}


def test_failed_checks_are_counted_not_dropped(monkeypatch, tmp_path):
    monkeypatch.setitem(WORKLOADS, "fake", Workload(_seed_file, _every_third_seed_fails, planned_op_s=0.01))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result, details = run.run("fake", seed=7, seconds=0.2, trace=False, work=tmp_path)
    failed, attempted = result["failed"], result["attempted"]
    assert attempted == 22  # 20 timed ops, the warm-up and the repeated seed
    assert 0 < failed < attempted
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1.0 - failed / attempted)
    assert details["problems"] == ["seed divisible by 3"]


def test_op_times_are_scaled_by_the_kernel_times_around_them(monkeypatch, tmp_path):
    monkeypatch.setitem(WORKLOADS, "fake", Workload(_seed_file, lambda out, codes: ([], {})))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "reference_kernel", lambda: 2.0 * run.REF_NOMINAL_S)  # half speed
    result, details = run.run("fake", seed=1, seconds=0.05, trace=False, work=tmp_path)
    assert result["metrics"]["op_p50_ms"]["value"] == pytest.approx(details["raw_op_p50_ms"] / 2.0)


def _sleepy(out, seed):
    time.sleep(0.02)
    return [0]


def test_the_timed_op_count_does_not_depend_on_the_ops_speed(monkeypatch, tmp_path):
    counts = []
    for op in (_seed_file, _sleepy):
        monkeypatch.setitem(WORKLOADS, "fake", Workload(op, lambda out, codes: ([], {}), planned_op_s=0.01))
        monkeypatch.setattr(run, "SETUP_REPEATS", 1)
        _, details = run.run("fake", seed=1, seconds=0.12, trace=False, work=tmp_path / op.__name__)
        counts.append((details["timed_ops"], details["tail_percentile"]))
    assert counts == [(12, pytest.approx(75.0))] * 2


def _nondeterministic(out, seed):
    (out / "clock.txt").write_text(repr(time.perf_counter()))
    return [0]


def test_repeated_seed_with_different_bytes_fails(monkeypatch, tmp_path):
    monkeypatch.setitem(WORKLOADS, "fake", Workload(_nondeterministic, lambda out, codes: ([], {})))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result, details = run.run("fake", seed=1, seconds=0.05, trace=False, work=tmp_path)
    assert result["failed"] == 1
    assert details["problems"] == ["outputs differ from the first run of the same seed"]


# --- contract --------------------------------------------------------------

def test_benchmark_json_matches_what_the_runs_emit(monkeypatch, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    monkeypatch.setitem(WORKLOADS, "fake", Workload(_seed_file, lambda out, codes: ([], {})))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result, _ = run.run("fake", seed=1, seconds=0.05, trace=False, work=tmp_path)
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calib-bundled", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
