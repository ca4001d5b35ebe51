"""Run every workload named in BENCHMARK.json, interleaved, and summarise them.

    python3 bench/suite.py                      # one round: every workload once
    python3 bench/suite.py --rounds 10 --traced-runs 2 --write bench/results/<commit>.json
    python3 bench/suite.py --rounds 10 --against bench/results/<commit>.json

Each run is its own ``bench/run.py`` process, so peak memory is per workload.
Round ``r`` uses seed ``--seed + r`` and starts at a different workload, so a
slow phase of the machine falls on every workload alike instead of on one.
For each workload and end-to-end metric the summary prints the median, the
quartiles and their distance as a share of the median, next to the bound
from BENCHMARK.json.  ``--against`` adds the change of each median against
an earlier results file and flags every one worse than its bound.  The exit
code is 1 when a run failed an output check or a median regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``run.py`` process; its result, environment and details."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode} without a result:\n"
                           f"{done.stderr[-2000:]}")
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1]
              if line.startswith(("env ", "details "))}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "result": json.loads(lines[-1]),
        "env": json.loads(tagged.get("env", "{}")),
        "details": json.loads(tagged.get("details", "{}")),
    }


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def worse_share(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old`` (negative: better)."""
    if not old:
        return 0.0
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first round")
    parser.add_argument("--traced-runs", type=int, default=0,
                        help="traced runs per workload after the untraced rounds")
    parser.add_argument("--write", type=Path, help="save every run and the summary as JSON")
    parser.add_argument("--against", type=Path, help="earlier results file to compare medians with")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    plan = []
    for r in range(args.rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        plan += [(w, args.seed + r, False) for w in order]
    for k in range(args.traced_runs):
        plan += [(w, args.seed + args.rounds + k, True) for w in names]

    runs = []
    for i, (workload, seed, trace) in enumerate(plan, 1):
        run = run_once(workload, seed, seconds, trace)
        runs.append(run)
        res = run["result"]
        print(f"[{i}/{len(plan)}] {workload} seed {seed} trace {int(trace)}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr, flush=True)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    end_to_end: dict = {}
    per_layer: dict = {}
    for workload in names:
        for trace, table in ((False, end_to_end), (True, per_layer)):
            mine = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not mine:
                continue
            table[workload] = {}
            for metric, first in mine[0]["result"]["metrics"].items():
                row = summary([r["result"]["metrics"][metric]["value"] for r in mine])
                row["unit"] = first["unit"]
                table[workload][metric] = row

    against = json.loads(args.against.read_text(encoding="utf-8"))["end_to_end"] if args.against else {}
    regressed = []
    print(f"{'workload':20} {'metric':12} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}" + (f" {'old':>12} {'worse':>7}" if against else ""))
    for workload, metrics in end_to_end.items():
        for metric, row in metrics.items():
            line = (f"{workload:20} {metric:12} {row['unit']:9} {row['median']:12.6g} "
                    f"{row['q1']:12.6g} {row['q3']:12.6g} {row['spread']:7.3f} {bounds[metric]['bound']:6.2f}")
            old = against.get(workload, {}).get(metric)
            if old is not None:
                worse = worse_share(old["median"], row["median"], bounds[metric]["better"])
                flag = "  REGRESSED" if worse > bounds[metric]["bound"] else ""
                if flag:
                    regressed.append((workload, metric))
                line += f" {old['median']:12.6g} {worse:+7.3f}{flag}"
            print(line)
    for workload, metrics in per_layer.items():
        traced = sum(1 for r in runs if r["workload"] == workload and r["trace"])
        print(f"\n{workload} per layer (median of {traced} traced runs)")
        for metric, row in metrics.items():
            exact = "" if len(set(row["values"])) == 1 else "  (varies)"
            print(f"  {metric:44} {row['median']:14.6g} {row['unit']}{exact}")

    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "commit": runs[0]["env"].get("git_commit", "unknown"),
            "env": runs[0]["env"],
            "run_seconds": seconds,
            "rounds": args.rounds,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "runs": runs,
        }
        args.write.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    failed = [r for r in runs if not r["result"]["correct"]]
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
