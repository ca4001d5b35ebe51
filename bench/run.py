"""armcal benchmark: one workload, in process, one client, closed loop.

    python3 bench/run.py --workload calib-bundled --seed 1 --seconds 25 --trace 0

Run from the repository root; armcal is imported from ``src/``.  The next
operation starts when the previous one returns.  ``--seconds`` fixes how many
operations are timed: ``round(seconds / planned_op_s)`` of the workload.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates traced and
untraced operations, adds one traced op per scaling study, and reports the
per-layer metrics (``bench/README.md`` maps each to the end-to-end metric it
should move).  End-to-end times are scaled by a fixed reference kernel timed
around each op, so the machine's own speed changes cancel out.  Earlier
stdout lines carry the environment and run details (raw times included);
the last line is the result JSON.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import SCALES, WORKLOADS, Workload, digests, scaling_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"
#: Fresh interpreters timed per run for ``setup_s``, in blocks of
#: ``SETUP_BLOCK`` spread evenly over the timed ops; the median is reported.
SETUP_REPEATS = 25
SETUP_BLOCK = 5
#: The reference kernel run between ops, and the time it is defined to take.
#: Op times are reported scaled by nominal / measured kernel time, which
#: cancels the slow and fast phases of a shared machine (see README.md).
REF_ITERATIONS = 60
REF_NOMINAL_S = 0.010
#: Per-layer metrics also reported for each elastostatic scaling study.
SCALED_METRICS = (
    "regressor.stack_system_ms",
    "fileio.load_measurements_ms",
    "estimator.ols_ms",
    "estimator.irls_ms",
    "reports.write_ms",
)

_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import armcal.cli
from armcal import reference
reference.nominal_model()
reference.study_design(seed=0)
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    elapsed: float
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


def run_op(workload: Workload, out: Path, seed: int, tracer: tracing.Tracer | None = None) -> Outcome:
    """Run and time one operation, then check its outputs; failures are recorded, not raised."""
    out.mkdir(parents=True)
    gc.collect()  # start every op from a clean heap, as a fresh CLI process would
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span(tracing.ROOT_SPAN))
        t0 = time.perf_counter()
        try:
            codes = workload.run(out, seed)
        except Exception:  # the loop must go on; the op counts as failed
            codes = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
    if codes is None:
        outcome = Outcome(elapsed, [f"op raised: {error.strip().splitlines()[-1]}"])
        print(error, file=sys.stderr)
    else:
        try:
            problems, observed = workload.check(out, codes)
        except (OSError, KeyError, ValueError) as exc:
            problems, observed = [f"output check could not read the outputs: {exc!r}"], {}
        outcome = Outcome(elapsed, problems, observed, digests(out))
    shutil.rmtree(out)
    return outcome


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, 3-vector numpy and text work.

    The mix resembles armcal's own (small-array kinematics, float
    formatting and parsing) but uses none of its code, so a change to the
    program leaves the kernel's work unchanged.
    """
    t0 = time.perf_counter()
    acc = 0.0
    z = np.array([0.0, 0.0, 1.0])
    for k in range(REF_ITERATIONS):
        p = np.array([0.1 * k, 0.2, 0.3])
        for j in range(6):
            c, s = math.cos(0.1 * j + k), math.sin(0.1 * j + k)
            p = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ p + z
            acc += float(np.cross(z, p)[0])
        acc += sum(float(v) for v in "\t".join(repr(float(v)) for v in p).split("\t"))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite checksum")
    return elapsed


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the highest percentile with ten samples beyond it, but at least p75.

    Nearest-rank definition: the value of rank ``k`` of ``n`` is the
    ``100 k / n``-th percentile.  From 40 samples on, ``k = n - 10``;
    below that ``k = ceil(0.75 n)``, which leaves fewer than ten beyond but
    keeps the value above the median.  Since a run times a fixed number of
    ops, this is the same percentile in every commit.
    """
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 10, -(-3 * n // 4))
    return 100.0 * k / n, xs[k - 1], n - k


def setup_once() -> float:
    """Seconds a fresh interpreter takes to import armcal and load the bundled study."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_slots(n_ops: int) -> Counter:
    """How many ``setup_s`` samples to take after each timed op, by op index.

    Samples come in blocks spread evenly over the run, so the median sees
    the whole run and not one phase of the machine.
    """
    blocks = -(-SETUP_REPEATS // SETUP_BLOCK)
    return Counter(max(0, (j // SETUP_BLOCK + 1) * n_ops // blocks - 1) for j in range(SETUP_REPEATS))


def environment() -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # mode="dicts" needs numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


def declared_units() -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares, end-to-end and per layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def per_layer_names() -> list[str]:
    names = list(tracing.layer_metrics(tracing.Tracer(), 1)) + ["trace.overhead_ms"]
    return names + [f"{key}.{tag}" for key in SCALED_METRICS for tag in SCALES]


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    outcomes: list[Outcome] = []

    def op(label: str, op_seed: int, tracer=None, wl: Workload = workload) -> Outcome:
        outcome = run_op(wl, work / f"{len(outcomes)}-{label}", op_seed, tracer)
        outcomes.append(outcome)
        return outcome

    first_seed = rng.randrange(2**31)
    reference = op("warmup", first_seed)
    tracer = tracing.Tracer()
    timed: list[tuple[bool, Outcome]] = []
    refs = [reference_kernel()]

    def scaled(elapsed: float) -> float:
        """``elapsed`` scaled by the mean of the kernel times just before and after it."""
        refs.append(reference_kernel())
        return elapsed * 2.0 * REF_NOMINAL_S / (refs[-2] + refs[-1])

    n_ops = max(2 if trace else 1, round(seconds / workload.planned_op_s))
    slots = Counter() if trace else setup_slots(n_ops)
    durations, setup_times = [], []
    for i in range(n_ops):
        traced = trace and i % 2 == 1
        timed.append((traced, op("op", rng.randrange(2**31), tracer if traced else None)))
        durations.append(scaled(timed[-1][1].elapsed))
        setup_times += [scaled(setup_once()) for _ in range(slots[i])]
    repeat = op("repeat", first_seed)
    if repeat.digests != reference.digests:
        repeat.problems.append("outputs differ from the first run of the same seed")

    scale_tracers = {}
    for tag, reps in SCALES.items() if trace else ():
        scale_tracers[tag] = tracing.Tracer()
        op(f"scale-{tag}", rng.randrange(2**31), scale_tracers[tag], scaling_workload(reps))

    failed = [o for o in outcomes if o.problems]
    details: dict = {"workload": name, "seed": seed}
    if trace:
        metrics = tracing.layer_metrics(tracer, sum(t for t, _ in timed))
        p50 = {k: statistics.median(o.elapsed for t, o in timed if t == k) for k in (False, True)}
        metrics["trace.overhead_ms"] = (p50[True] - p50[False]) * 1e3
        for tag, scale_tracer in scale_tracers.items():
            at_scale = tracing.layer_metrics(scale_tracer, 1)
            for key in SCALED_METRICS:
                metrics[f"{key}.{tag}"] = at_scale[key]
        trace_path = WORK_DIR / f"trace-{name}.json"
        tracing.write_traces(trace_path, {"ops": tracer, **scale_tracers})
        details.update(traced_ops=sum(t for t, _ in timed), untraced_ops=sum(not t for t, _ in timed),
                       trace_file=str(trace_path.relative_to(ROOT)))
    else:
        ok = [o for _, o in timed if not o.problems]
        pct, tail, beyond = tail_percentile(durations)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": statistics.median(durations) * 1e3,
            "op_tail_ms": tail * 1e3,
            "ops_per_s": len(ok) / sum(durations),
            "ok_frac": 1.0 - len(failed) / len(outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details.update(
            timed_ops=len(durations), tail_percentile=pct, tail_samples_beyond=beyond,
            raw_op_p50_ms=statistics.median(o.elapsed for _, o in timed) * 1e3,
            ref_kernel_p50_ms=statistics.median(refs) * 1e3,
            op_ms=[round(d * 1e3, 2) for d in durations],
        )

    nested = [o.observed["nested_all_fraction"] for o in outcomes if "nested_all_fraction" in o.observed]
    if nested:
        details["mc_nested_all_fraction_median"] = statistics.median(nested)
    details["problems"] = sorted({p for o in failed for p in o.problems})[:10]
    units = declared_units()
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "armcal" / "cli.py").is_file():
        print(f"error: armcal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(environment()))
    print("details " + json.dumps(details))
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
