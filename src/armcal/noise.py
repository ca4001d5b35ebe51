"""Per-configuration, per-axis dispersion estimation for tracker measurements.

The laser tracker's error level depends strongly on where the reflector sits
in the work cell, so dispersions are kept per (configuration, axis) rather
than pooled.  A :class:`NoiseModel` maps configuration ids to per-axis
standard deviations of one stacked observation row (for deflection studies
that is the dispersion of the loaded-minus-unloaded difference, which is what
gets regressed).

Stacked rows carry int arrays of configuration ids and axes (0..2, indexing
:data:`AXES`); :func:`grouped_std` estimates one dispersion per group of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import MissingNoiseError, ReplicateCountError

AXES = ("x", "y", "z")

#: Default dispersion floor: the tracker's claimed precision, 10 um.
DEFAULT_SIGMA0 = 10e-6


@dataclass(frozen=True)
class NoiseModel:
    """Per-configuration, per-axis standard deviations, in meters.

    ``uncertainty`` optionally carries the standard error of each sigma
    estimate (same shape), from the chi-distribution large-sample formula
    se(sigma) = sigma / sqrt(2 (n - 1)).
    """

    entries: Mapping[int, np.ndarray]
    uncertainty: Mapping[int, np.ndarray] | None = None

    def __post_init__(self):
        frozen = {}
        for cfg, sig in self.entries.items():
            s = np.asarray(sig, dtype=float).reshape(3)
            if not np.all(np.isfinite(s)) or np.any(s < 0.0):
                raise ValueError(f"noise entry for configuration {cfg!r} must be finite and >= 0")
            s.setflags(write=False)
            frozen[cfg] = s
        object.__setattr__(self, "entries", frozen)
        if self.uncertainty is not None:
            frozen_u = {}
            for cfg, u in self.uncertainty.items():
                a = np.asarray(u, dtype=float).reshape(3)
                a.setflags(write=False)
                frozen_u[cfg] = a
            object.__setattr__(self, "uncertainty", frozen_u)

    def sigma(self, config: int) -> np.ndarray:
        try:
            return self.entries[config]
        except KeyError:
            raise MissingNoiseError(f"no noise entry for configuration {config!r}") from None

    @property
    def configurations(self) -> tuple[int, ...]:
        return tuple(self.entries)

    @classmethod
    def uniform(cls, configs: Iterable[int], sigma: float) -> "NoiseModel":
        """One common sigma on every axis of every listed configuration."""
        s = np.full(3, float(sigma))
        return cls(entries={cfg: s.copy() for cfg in configs})


def estimate_dispersions(groups: Mapping[int, np.ndarray]) -> NoiseModel:
    """Unbiased per-axis sample dispersions from replicate groups.

    ``groups`` maps a configuration id to an (n_i, 3) array of replicate
    3-vectors (meters).  Replicates are differenced about their own group
    mean, so a constant offset common to a group does not contribute.
    """
    entries: dict[int, np.ndarray] = {}
    uncert: dict[int, np.ndarray] = {}
    for cfg, values in groups.items():
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 3:
            raise ValueError(f"group {cfg!r}: replicates must form an (n, 3) array")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"group {cfg!r}: replicates contain non-finite values")
        n = values.shape[0]
        if n < 2:
            raise ReplicateCountError(f"need at least 2 replicates to estimate a dispersion, got {n}")
        entries[cfg] = np.std(values, axis=0, ddof=1)
        uncert[cfg] = entries[cfg] / math.sqrt(2.0 * (n - 1))
    if not entries:
        raise ValueError("no replicate groups supplied")
    return NoiseModel(entries=entries, uncertainty=uncert)


def deflection_dispersions(config: np.ndarray, deflection: np.ndarray) -> NoiseModel:
    """Noise model from raw deflection replicates of an experiment.

    Pools the loaded-minus-unloaded differences ``deflection[i]`` (meters) of
    all rows of each configuration ``config[i]``.  Before any fit has been
    run this is the non-compensated dispersion (marker-to-marker signal
    spread included), which is the usual starting point when the tracker
    noise is unknown.
    """
    config = np.asarray(config, dtype=int).reshape(-1)
    deflection = np.asarray(deflection, dtype=float)
    return estimate_dispersions({c: deflection[config == c] for c in sorted(set(config.tolist()))})


def build_sigma(
    noise: NoiseModel, config: np.ndarray, axis: np.ndarray, floor: float = DEFAULT_SIGMA0
) -> np.ndarray:
    """Per-row sigma of configuration ``config[i]`` on axis ``axis[i]``, floored at ``floor``.

    The floor (default 10 um, the tracker's claimed precision) guarantees
    strictly positive entries so downstream weight rules never divide by zero.
    """
    if floor <= 0.0:
        raise ValueError("sigma floor must be positive")
    ids, row_cfg = np.unique(np.asarray(config, dtype=int), return_inverse=True)
    table = np.array([noise.sigma(int(c)) for c in ids]).reshape(-1, 3)
    return np.maximum(table[row_cfg.reshape(-1), np.asarray(axis, dtype=int)], floor)


def grouped_std(values: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Sample std (ddof=1) of the ``values`` in each group, along the last axis.

    ``group[i]`` numbers the group of ``values[..., i]``; the result's last
    axis is indexed by group, and entry g is 0.0 if no ``group[i]`` equals g.
    A group of one row raises :class:`ReplicateCountError`.  Groups of one
    size share one ``np.std`` call over a contiguous gather, so each entry
    equals ``np.std`` of its group bit for bit.
    """
    values = np.asarray(values, dtype=float)
    group = np.asarray(group).reshape(-1)
    if values.shape[-1:] != group.shape:
        raise ValueError("values and group length mismatch")
    counts = np.bincount(group)
    if np.any(counts == 1):
        raise ReplicateCountError(
            "every (configuration, axis) group needs >= 2 rows to estimate a dispersion"
        )
    order = np.argsort(group, kind="stable")
    size_of = counts[group[order]]  # group size of each row, in group order
    out = np.zeros(values.shape[:-1] + counts.shape)
    for size in set(counts[counts > 0].tolist()):
        ids = np.flatnonzero(counts == size)
        rows = order[size_of == size].reshape(ids.shape[0], size)
        out[..., ids] = np.std(np.take(values, rows, axis=-1), axis=-1, ddof=1)
    return out
