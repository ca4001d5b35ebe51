"""Run one checkout's armcal CLI over a fixed matrix of commands into a directory.

Two checkouts write byte-identical outputs when ``diff -r`` of their directories
prints nothing::

    python tools/outputs.py <other checkout> a
    python tools/outputs.py . b
    diff -r a b

and ``python tools/outputs.py --diff a b`` reports how they differ, per output file
name (``trace.tsv``, ``run.txt``, ...): how many of its files differ, the largest
numeric drift of a cell (its |difference| over the largest |value| in its column of
that file), and every difference that is not numeric, such as a changed message or
line count.  It exits 1 when any file differs.

The matrix:

- ``simulate`` at seeds 0 and 7, with 1, 6 and 60 repetitions, into ``sim-s<seed>-r<reps>/``;
- on each of those six studies, ``calibrate --method ols|wls|irls`` in elastostatic,
  geometric and combined mode (``--params a2,d3,theta4,tool_x`` in the last two), with and
  without the study's ``--noise`` table, into ``sim-s<seed>-r<reps>/<method>-<mode>[-noise]/``;
- ``compare --trials 200`` into ``compare/``;
- a few valid non-default estimator settings (:data:`SETTINGS`): ``calibrate`` on ``sim-s0-r6``
  into ``sim-s0-r6/settings-<name>/`` (``settings-irls-max-iter`` stops reweighting at
  ``--max-iter 2`` and prints its early-stop note) and ``compare`` into ``compare-settings/``, then the
  edges of the numeric domain: ``--sigma0`` at 1e-6 and 1e6 um, ``--lambda`` at 1e6, and a
  study simulated at the largest ``--mass`` (1e6 kg) into ``sim-mass-max/``, calibrated there;
- the solves a QR cannot certify, which take the SVD: the exactly deficient ``--params d2,d3`` on
  ``sim-s0-r6`` (``E_RANK_DEFICIENT``), and a study of the near-deficient model :data:`NEAR_MODEL`
  simulated into ``sim-near/`` and calibrated there in geometric mode with ``--params d2,d3,a2``
  by each method (a near-rank warning).

Each command runs as ``python -m armcal.cli`` in a fresh interpreter with the checkout's
``src`` as ``PYTHONPATH``, from inside the output directory with relative paths, so
no absolute path enters a file.  The CLI prints a warning as one line, ``WARNING <Category>:
message``, with no location; an older checkout that prints a warning's location is shown
with its file name alone, without directory or line number.  Each command's exit code,
standard output and standard error are written to ``run.txt`` beside its output files.
Uses the standard library only; the checkout's own program needs numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 7)
REPETITIONS = (1, 6, 60)
METHODS = ("ols", "wls", "irls")
PARAMS = ("--params", "a2,d3,theta4,tool_x")
MODES = {"elastostatic": (), "geometric": PARAMS, "combined": PARAMS}
#: The bundled model with joint 3 tilted by 1e-6 deg, so that d2 and d3 are nearly the same parameter.
NEAR_MODEL = """\
# armcal manipulator model
convention modified-dh
base xyz=0.0,0.0,0.0 rpy=0.0,0.0,0.0
joint type=revolute a=0.0 alpha=0.0 d=0.675 theta_offset=0.0
joint type=revolute a=0.35 alpha=-90.0 d=0.0 theta_offset=0.0
joint type=revolute a=1.15 alpha=1e-06 d=0.0 theta_offset=-90.0
joint type=revolute a=0.041 alpha=-90.0 d=1.2 theta_offset=0.0
joint type=revolute a=0.0 alpha=90.0 d=0.0 theta_offset=0.0
joint type=revolute a=0.0 alpha=-90.0 d=0.24 theta_offset=180.0
tool xyz=0.0,0.0,0.1 rpy=0.0,0.0,0.0
marker xyz=0.2,0.0,0.05
marker xyz=-0.1,0.173205,0.05
marker xyz=-0.1,-0.173205,0.05
"""
#: Non-default --sigma0, --lambda, --rel-tol and --max-iter runs, then the edges of the numeric domain:
#: (subdirectory, CLI arguments).
SETTINGS = (
    ("sim-s0-r6/settings-irls", ["calibrate", "--measurements", "../measurements.tsv", "--method", "irls",
                                 "--sigma0", "5", "--lambda", "2", "--rel-tol", "1e-4", "--max-iter", "7"]),
    ("sim-s0-r6/settings-wls", ["calibrate", "--measurements", "../measurements.tsv", "--method", "wls",
                                "--sigma0", "25", "--lambda", "0.5"]),
    ("sim-s0-r6/settings-wls-noise", ["calibrate", "--measurements", "../measurements.tsv", "--method", "wls",
                                      "--sigma0", "25", "--lambda", "0.5", "--noise", "../noise.tsv"]),
    ("sim-s0-r6/settings-irls-max-iter", ["calibrate", "--measurements", "../measurements.tsv", "--method", "irls",
                                          "--noise", "../noise.tsv", "--rel-tol", "0", "--max-iter", "2"]),
    ("compare-settings", ["compare", "--trials", "200", "--sigma0", "5", "--lambda", "2", "--max-iter", "7"]),
    ("sim-s0-r6/settings-sigma0-min", ["calibrate", "--measurements", "../measurements.tsv", "--method", "irls",
                                       "--sigma0", "1e-6", "--noise", "../noise.tsv"]),
    ("sim-s0-r6/settings-sigma0-max", ["calibrate", "--measurements", "../measurements.tsv", "--method", "irls",
                                       "--sigma0", "1e6"]),
    ("sim-s0-r6/settings-lambda-max", ["calibrate", "--measurements", "../measurements.tsv", "--method", "irls",
                                       "--lambda", "1e6", "--noise", "../noise.tsv"]),
    ("sim-mass-max", ["simulate", "--mass", "1e6"]),
    ("sim-mass-max/irls-noise", ["calibrate", "--measurements", "../measurements.tsv", "--method", "irls",
                                 "--noise", "../noise.tsv"]),
)
#: The solves that take the SVD: (subdirectory, CLI arguments); ``sim-near/near.model`` holds :data:`NEAR_MODEL`.
RANK = (
    ("sim-s0-r6/deficient-ols", ["calibrate", "--measurements", "../measurements.tsv", "--method", "ols",
                                 "--mode", "geometric", "--params", "d2,d3"]),
    ("sim-near", ["simulate", "--model", "near.model"]),
    *((f"sim-near/{method}-geometric", ["calibrate", "--model", "../near.model", "--measurements",
                                        "../measurements.tsv", "--method", method, "--mode", "geometric",
                                        "--params", "d2,d3,a2"]) for method in METHODS),
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
    return runs + list(SETTINGS) + list(RANK)


def run(checkout: Path, out: Path) -> int:
    """Run every command of :func:`commands` with ``checkout``'s CLI into ``out``; the count that failed."""
    env = {k: v for k, v in os.environ.items() if k != "ARMCAL_OUT"}
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    src = re.escape(env["PYTHONPATH"])
    (out / "sim-near").mkdir(parents=True)
    (out / "sim-near" / "near.model").write_text(NEAR_MODEL)
    failed = 0
    for subdir, argv in commands():
        where = out / subdir
        where.mkdir(parents=True, exist_ok=True)
        done = subprocess.run([sys.executable, "-m", "armcal.cli", *argv, "--out", "."], cwd=where, env=env,
                              capture_output=True, text=True)
        stderr = re.sub(rf"^{src}/\S*?(\w+\.py):\d+:", r"\1:", done.stderr, flags=re.M)
        (where / "run.txt").write_text(f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{stderr}")
        failed += done.returncode != 0
        print(f"{done.returncode} {subdir}: armcal {' '.join(argv)}", flush=True)
    return failed


def _cells(path: Path) -> list[list[str]]:
    """The lines of ``path`` split into cells: at tabs in a ``.tsv``, at runs of blanks elsewhere."""
    sep = "\t" if path.suffix == ".tsv" else None
    return [line.split(sep) for line in path.read_text().splitlines()]


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _file_drift(a: list[list[str]], b: list[list[str]]) -> tuple[float, str, list[str]]:
    """(largest relative numeric drift, where, non-numeric differences) of two files' cells."""
    if len(a) != len(b):
        return 0.0, "", [f"{len(a)} lines != {len(b)} lines"]
    scale: dict[int, float] = {}  # per column, the largest |value| in either file
    for row in a + b:
        for j, cell in enumerate(row):
            value = _number(cell)
            if value is not None:
                scale[j] = max(scale.get(j, 0.0), abs(value))
    worst, where, notes = 0.0, "", []
    for i, (x, y) in enumerate(zip(a, b), 1):
        if x == y:
            continue
        if len(x) != len(y):
            notes.append(f"line {i}: {' '.join(x)!r} != {' '.join(y)!r}")
            continue
        for j, (u, v) in enumerate(zip(x, y)):
            if u == v:
                continue
            nu, nv = _number(u), _number(v)
            if nu is None or nv is None:
                notes.append(f"line {i} column {j + 1}: {u!r} != {v!r}")
            elif scale[j] and abs(nu - nv) / scale[j] > worst:
                worst, where = abs(nu - nv) / scale[j], f"line {i} column {j + 1}"
    return worst, where, notes


def drift(a: Path, b: Path) -> int:
    """Print, per output file name, how the files under ``a`` and ``b`` differ; 1 if any does, else 0."""
    paths = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    names: dict[str, list] = {}  # file name -> [files, differing, worst drift, where]
    notes = []
    for rel in paths:
        stat = names.setdefault(rel.name, [0, 0, 0.0, ""])
        stat[0] += 1
        if not ((a / rel).is_file() and (b / rel).is_file()):
            stat[1] += 1
            notes.append(f"{rel}: only under {a if (a / rel).is_file() else b}")
            continue
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            continue
        stat[1] += 1
        worst, where, file_notes = _file_drift(_cells(a / rel), _cells(b / rel))
        if worst > stat[2]:
            stat[2:] = [worst, f"{rel} {where}"]
        notes += [f"{rel}: {note}" for note in file_notes]
    for name, (files, differ, worst, where) in sorted(names.items()):
        numeric = f"; largest drift {worst:.3g} of its column, at {where}" if worst else ""
        print(f"{name}: {differ} of {files} files differ{numeric}")
    if notes:
        print("non-numeric differences:")
        print("\n".join(f"  {note}" for note in notes))
    return int(any(stat[1] for stat in names.values()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?", help="repository root whose src/armcal runs")
    parser.add_argument("out", type=Path, nargs="?", help="directory to write into; must not exist")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("A", "B"),
                        help="report how two output directories differ instead of running the matrix")
    args = parser.parse_args(argv)
    if args.diff:
        if args.checkout:
            parser.error("--diff takes no checkout or output directory")
        for root in args.diff:
            if not root.is_dir():
                parser.error(f"{root} is not a directory")
        return drift(*args.diff)
    if args.out is None:
        parser.error("need a checkout and an output directory")
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
