"""Run one checkout's armcal CLI over a fixed matrix of commands into a directory.

Two checkouts write byte-identical outputs when ``diff -r`` of their directories
prints nothing::

    python tools/outputs.py <other checkout> a
    python tools/outputs.py . b
    diff -r a b

The matrix:

- ``simulate`` at seeds 0 and 7, with 1, 6 and 60 repetitions, into ``sim-s<seed>-r<reps>/``;
- on each of those six studies, ``calibrate --method ols|wls|irls`` in elastostatic,
  geometric and combined mode (``--params a2,d3,theta4,tool_x`` in the last two), with and
  without the study's ``--noise`` table, into ``sim-s<seed>-r<reps>/<method>-<mode>[-noise]/``;
- ``compare --trials 200`` into ``compare/``;
- a few valid non-default estimator settings (:data:`SETTINGS`): ``calibrate`` on ``sim-s0-r6``
  into ``sim-s0-r6/settings-<name>/`` and ``compare`` into ``compare-settings/``.

Each command runs as ``python -m armcal.cli`` in a fresh interpreter with the checkout's
``src`` as ``PYTHONPATH``, from inside the output directory with relative paths, so
no absolute path enters a file.  Its exit code, standard output and standard error are
written to ``run.txt`` beside its output files.  Uses the standard library only; the
checkout's own program needs numpy.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 7)
REPETITIONS = (1, 6, 60)
METHODS = ("ols", "wls", "irls")
PARAMS = ("--params", "a2,d3,theta4,tool_x")
MODES = {"elastostatic": (), "geometric": PARAMS, "combined": PARAMS}
#: Non-default --sigma0, --lambda, --rel-tol and --max-iter runs: (subdirectory, CLI arguments).
SETTINGS = (
    ("sim-s0-r6/settings-irls", ["calibrate", "--measurements", "../measurements.tsv", "--method", "irls",
                                 "--sigma0", "5", "--lambda", "2", "--rel-tol", "1e-4", "--max-iter", "7"]),
    ("sim-s0-r6/settings-wls", ["calibrate", "--measurements", "../measurements.tsv", "--method", "wls",
                                "--sigma0", "25", "--lambda", "0.5"]),
    ("sim-s0-r6/settings-wls-noise", ["calibrate", "--measurements", "../measurements.tsv", "--method", "wls",
                                      "--sigma0", "25", "--lambda", "0.5", "--noise", "../noise.tsv"]),
    ("compare-settings", ["compare", "--trials", "200", "--sigma0", "5", "--lambda", "2", "--max-iter", "7"]),
)


def commands() -> list[tuple[str, list[str]]]:
    """(output subdirectory, CLI arguments) of every run, in order: a study before its calibrations."""
    runs = []
    for seed in SEEDS:
        for reps in REPETITIONS:
            study = f"sim-s{seed}-r{reps}"
            runs.append((study, ["simulate", "--seed", str(seed), "--repetitions", str(reps)]))
            for method in METHODS:
                for mode, params in MODES.items():
                    for noise in (False, True):
                        argv = ["calibrate", "--measurements", "../measurements.tsv", "--method", method,
                                "--mode", mode, *params, *(["--noise", "../noise.tsv"] if noise else [])]
                        runs.append((f"{study}/{method}-{mode}{'-noise' if noise else ''}", argv))
    runs.append(("compare", ["compare", "--trials", "200"]))
    return runs + list(SETTINGS)


def run(checkout: Path, out: Path) -> int:
    """Run every command of :func:`commands` with ``checkout``'s CLI into ``out``; the count that failed."""
    env = {k: v for k, v in os.environ.items() if k != "ARMCAL_OUT"}
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    failed = 0
    for subdir, argv in commands():
        where = out / subdir
        where.mkdir(parents=True, exist_ok=True)
        done = subprocess.run([sys.executable, "-m", "armcal.cli", *argv, "--out", "."], cwd=where, env=env,
                              capture_output=True, text=True)
        (where / "run.txt").write_text(f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}")
        failed += done.returncode != 0
        print(f"{done.returncode} {subdir}: armcal {' '.join(argv)}", flush=True)
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="repository root whose src/armcal runs")
    parser.add_argument("out", type=Path, help="directory to write into; must not exist")
    args = parser.parse_args(argv)
    if not (args.checkout / "src" / "armcal" / "cli.py").is_file():
        parser.error(f"{args.checkout} has no src/armcal/cli.py")
    if args.out.exists():
        parser.error(f"{args.out} exists")
    args.out.mkdir(parents=True)
    failed = run(args.checkout, args.out)
    print(f"{len(commands())} commands, {failed} exited non-zero", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
