"""The benchmark's workloads and their output checks.

Every operation goes through the public entry point ``armcal.cli.main``,
resolved at call time so that tracing wrappers installed on it are seen.
``bench/README.md`` says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

#: Monte Carlo trials per ``mc-compare`` operation; sets that workload's op length.
MC_TRIALS = 100
#: Geometric parameters identified by ``calib-combined-10x``.  The simulator
#: applies no geometry error, so their ground truth is zero.
COMBINED_PARAMS = ("a2", "d3", "theta4", "tool_x")
#: Compliance parameters of the bundled study.
BUNDLED_PARAMETERS = 9
#: Repetitions per (configuration, marker) of the elastostatic scaling studies.
SCALES = {"x1": 6, "x10": 60, "x100": 600}

_NESTED_RE = re.compile(r"nested in OLS CI in ([0-9.]+)% of trials")


def call_cli(argv: Sequence[str]) -> int:
    """Exit code of ``armcal.cli.main(argv)``, with its console output swallowed."""
    from armcal import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1


def calibration_op(out: Path, seed: int, sim_args: Sequence[str] = (),
                   cal_args: Sequence[str] = ()) -> list[int]:
    """``simulate --seed`` a study, then ``calibrate --method irls`` it."""
    study, results = out / "study", out / "results"
    codes = [call_cli(["simulate", "--seed", str(seed), "--out", str(study), *sim_args])]
    if codes[0] == 0:
        codes.append(call_cli([
            "calibrate",
            "--measurements", str(study / "measurements.tsv"),
            "--noise", str(study / "noise.tsv"),
            "--method", "irls",
            "--out", str(results),
            *cal_args,
        ]))
    return codes


def compare_op(out: Path, seed: int) -> list[int]:
    return [call_cli(["compare", "--trials", str(MC_TRIALS), "--seed", str(seed), "--out", str(out)])]


def _data_rows(path: Path) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def _tsv(path: Path) -> list[dict[str, str]]:
    header, *rows = _data_rows(path)
    return [dict(zip(header, row)) for row in rows]


def check_calibration(out: Path, codes: list[int],
                      zero_truth: Sequence[str] = ()) -> tuple[list[str], dict]:
    """Every IRLS estimate is finite and within 2 x ci3 of the simulated truth."""
    if codes != [0, 0]:
        return [f"simulate/calibrate exit codes {codes}, expected [0, 0]"], {}
    truth = {name: 0.0 for name in zero_truth}
    for name, value in _data_rows(out / "study" / "ground_truth.tsv")[1:]:
        truth[name] = float(value)
    irls = {r["parameter"]: r for r in _tsv(out / "results" / "parameters.tsv")
            if r["method"] == "irls"}
    problems = []
    if set(irls) != set(truth):
        problems.append(f"IRLS estimated {sorted(irls)}, expected {sorted(truth)}")
    for name in sorted(set(irls) & set(truth)):
        est, ci3 = float(irls[name]["estimate_si"]), float(irls[name]["ci3_si"])
        if not (math.isfinite(est) and math.isfinite(ci3) and abs(est - truth[name]) <= 2.0 * ci3):
            problems.append(f"{name}: IRLS estimate {est!r} (ci3 {ci3!r}) is not within "
                            f"2 x ci3 of the truth {truth[name]!r}")
    return problems, {}


def check_compare(out: Path, codes: list[int]) -> tuple[list[str], dict]:
    """The OLS/WLS CI ratio exceeds 1 for every parameter; the nested fraction is recorded."""
    if codes != [0]:
        return [f"compare exit code {codes}, expected [0]"], {}
    ratios = {r["parameter"]: float(r["ci_ratio"]) for r in _tsv(out / "comparison.tsv")}
    problems = []
    if len(ratios) != BUNDLED_PARAMETERS:
        problems.append(f"{len(ratios)} parameters compared, expected {BUNDLED_PARAMETERS}")
    narrow = sorted(name for name, r in ratios.items() if not r > 1.0)
    if narrow:
        problems.append(f"CI ratio not above 1 for {', '.join(narrow)}")
    found = _NESTED_RE.search((out / "comparison.txt").read_text(encoding="utf-8"))
    observed = {"nested_all_fraction": float(found.group(1)) / 100.0} if found else {}
    return problems, observed


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by its path relative to ``out``."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


@dataclass(frozen=True)
class Workload:
    run: Callable[[Path, int], list[int]]  # (output dir, op seed) -> exit codes
    check: Callable[[Path, list[int]], tuple[list[str], dict]] = field(default=check_calibration)
    #: Seconds planned per timed op: a run times ``round(seconds / planned_op_s)``
    #: ops, a count fixed by the arguments and not by the program's speed, so
    #: every commit is measured on as many ops.  Set near the op's raw time at
    #: commit 1e36b2c on the reference machine (see README.md).
    planned_op_s: float = 1.0


WORKLOADS: dict[str, Workload] = {
    "calib-bundled": Workload(calibration_op, planned_op_s=0.25),
    "calib-combined-10x": Workload(
        partial(calibration_op, sim_args=("--repetitions", "60"),
                cal_args=("--mode", "combined", "--params", ",".join(COMBINED_PARAMS))),
        partial(check_calibration, zero_truth=COMBINED_PARAMS),
        planned_op_s=2.1,
    ),
    "mc-compare": Workload(compare_op, check_compare, planned_op_s=0.6),
}


def scaling_workload(repetitions: int) -> Workload:
    """Elastostatic ``calib-bundled`` op on a study with ``repetitions`` per posture."""
    return Workload(partial(calibration_op, sim_args=("--repetitions", str(repetitions))))
