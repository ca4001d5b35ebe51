"""Span tracing of armcal's public functions, installed from outside the package.

A ``Tracer`` replaces selected module attributes with timing wrappers for the
duration of a ``with tracer.installed():`` block and restores the originals
afterwards.  Each function is replaced on every ``armcal`` module that holds
it, because callers resolve names in their own module: ``stack_system`` calls
``armcal.regressor.joint_jacobian`` and ``compare`` calls
``armcal.simulator.irls``, not the attributes of the defining modules.

Spans (name, start, end, parent) are kept in memory.  Call counts are taken
at the same wrappers, and a few wrappers also record a quantity read from
the call's arguments or result (rows stacked, bytes written, IRLS
iterations).  ``layer_metrics`` turns the spans of a set of operations into
the per-layer metrics named in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

ROOT_SPAN = "op"


def _written(result) -> int:
    paths = result if isinstance(result, (list, tuple)) else [result]
    return sum(os.path.getsize(p) for p in paths)


#: Public functions wrapped per armcal module.  A name the module no longer
#: has stops the traced run with an error: its metrics would otherwise read
#: zero and look like an improvement.
TARGETS: dict[str, tuple[str, ...]] = {
    "kinematics": ("forward_kinematics", "joint_jacobian", "parameter_jacobian"),
    "regressor": ("stack_system", "elastostatic_regressor"),
    "noise": ("build_sigma",),
    "estimator": ("ols_estimate", "wls_estimate", "irls"),
    "simulator": ("simulate_measurements", "noise_free_system", "monte_carlo_compare"),
    "fileio": (
        "load_measurements",
        "load_noise_table",
        "write_measurements",
        "write_noise_table",
        "write_ground_truth",
    ),
    "reports": (
        "write_parameter_report",
        "write_ratio_report",
        "write_residual_report",
        "write_trace_report",
        "write_compare_report",
    ),
    "cli": ("main",),
}


def _observe_irls(t, args, result):
    t.add("estimator.irls_iterations", len(result.iterations))
    t.add("estimator.irls_converged", int(bool(result.converged)))


def _observe_compare(t, args, result):
    t.add("simulator.mc_trials", result.trials)
    t.add("simulator.mc_trials_failed", result.n_failed)
    t.add("simulator.mc_nested_all_fraction", result.nested_all_fraction)


def _bytes_read(t, args, result):
    t.add("fileio.bytes_read", os.path.getsize(args[0]))


def _bytes_written(key):
    return lambda t, args, result: t.add(key, _written(result))


#: (module, function) -> observer(tracer, args, result) recording derived quantities.
_OBSERVERS: dict[tuple[str, str], Callable] = {
    ("regressor", "stack_system"): lambda t, args, result: t.add("regressor.rows", result.B.shape[0]),
    ("estimator", "irls"): _observe_irls,
    ("simulator", "monte_carlo_compare"): _observe_compare,
    ("fileio", "load_measurements"): _bytes_read,
    ("fileio", "load_noise_table"): _bytes_read,
    **{("fileio", f): _bytes_written("fileio.bytes_written") for f in TARGETS["fileio"] if f.startswith("write_")},
    **{("reports", f): _bytes_written("reports.bytes_written") for f in TARGETS["reports"]},
}


class Tracer:
    """In-memory spans, call counts and observed quantities."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(float)
        self._stack: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.values[key] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent]
        self.spans.append(record)
        self.counts[name] += 1
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target on every loaded armcal module; restore on exit."""
        owners = {short: importlib.import_module(f"armcal.{short}") for short in TARGETS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "armcal" or n.startswith("armcal."))]
        replaced: list[tuple[object, str, object]] = []
        try:
            for short, names in TARGETS.items():
                owner = owners[short]
                for fname in names:
                    original = getattr(owner, fname, None)
                    if original is None:
                        raise AttributeError(f"armcal.{short}.{fname} no longer exists; update "
                                             "tracing.TARGETS and the per-layer metrics read from it")
                    wrapper = self._wrap(f"{short}.{fname}", original, _OBSERVERS.get((short, fname)))
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def as_dict(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": dict(self.values),
        }


def write_traces(path: Path, tracers: dict[str, Tracer]) -> None:
    """Write every recorded span and counter once, as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {name: tracer.as_dict() for name, tracer in tracers.items()}
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer metrics from everything ``tracer`` recorded over ``ops`` ops."""
    total_ms: Counter = Counter()
    self_ms: Counter = Counter()
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        total_ms[name] += (end - start) * 1e3
        self_ms[name] += own * 1e3
    calls, val = tracer.counts, tracer.values

    def per_op(x: float) -> float:
        return x / ops

    def sum_ms(prefix: str) -> float:
        return sum(v for k, v in total_ms.items() if k.startswith(prefix))

    irls_calls = calls["estimator.irls"]
    mc_calls = calls["simulator.monte_carlo_compare"]
    return {
        "kinematics.joint_jacobian_calls": per_op(calls["kinematics.joint_jacobian"]),
        "kinematics.forward_kinematics_calls": per_op(calls["kinematics.forward_kinematics"]),
        "kinematics.parameter_jacobian_calls": per_op(calls["kinematics.parameter_jacobian"]),
        "kinematics.ms": per_op(sum_ms("kinematics.")),
        "regressor.stack_system_ms": per_op(total_ms["regressor.stack_system"]),
        "regressor.stack_system_self_ms": per_op(self_ms["regressor.stack_system"]),
        "regressor.elastostatic_regressor_calls": per_op(calls["regressor.elastostatic_regressor"]),
        "regressor.rows": per_op(val["regressor.rows"]),
        "noise.build_sigma_ms": per_op(total_ms["noise.build_sigma"]),
        "estimator.ols_ms": per_op(total_ms["estimator.ols_estimate"]),
        "estimator.wls_ms": per_op(total_ms["estimator.wls_estimate"]),
        "estimator.irls_ms": per_op(total_ms["estimator.irls"]),
        # one SVD solve per OLS/WLS call and per IRLS iteration
        "estimator.solve_calls": per_op(
            calls["estimator.ols_estimate"] + calls["estimator.wls_estimate"]
            + val["estimator.irls_iterations"]
        ),
        "estimator.irls_iterations_mean": _ratio(val["estimator.irls_iterations"], irls_calls),
        "estimator.irls_converged_frac": _ratio(val["estimator.irls_converged"], irls_calls),
        "simulator.simulate_measurements_ms": per_op(total_ms["simulator.simulate_measurements"]),
        "simulator.monte_carlo_compare_self_ms": per_op(self_ms["simulator.monte_carlo_compare"]),
        "simulator.mc_trials_failed_frac": _ratio(
            val["simulator.mc_trials_failed"], val["simulator.mc_trials"]
        ),
        "simulator.mc_nested_all_fraction": _ratio(val["simulator.mc_nested_all_fraction"], mc_calls),
        "fileio.write_measurements_ms": per_op(total_ms["fileio.write_measurements"]),
        "fileio.load_measurements_ms": per_op(total_ms["fileio.load_measurements"]),
        "fileio.load_noise_table_ms": per_op(total_ms["fileio.load_noise_table"]),
        "fileio.bytes_read": per_op(val["fileio.bytes_read"]),
        "fileio.bytes_written": per_op(val["fileio.bytes_written"]),
        "reports.write_ms": per_op(sum_ms("reports.")),
        "reports.bytes_written": per_op(val["reports.bytes_written"]),
        "cli.self_ms": per_op(self_ms["cli.main"]),
    }

