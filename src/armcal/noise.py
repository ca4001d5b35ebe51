"""Per-configuration, per-axis dispersion estimation for tracker measurements.

The laser tracker's error level depends strongly on where the reflector sits
in the work cell, so dispersions are kept per (configuration, axis) rather
than pooled.  A :class:`NoiseModel` is a table of per-axis standard
deviations of one stacked observation row per configuration id (for
deflection studies that is the dispersion of the loaded-minus-unloaded
difference, which is what gets regressed).

A stacked system carries, per class of identical rows, int arrays of
configuration ids and axes (0..2, indexing :data:`AXES`).  Observations are
reduced in one place, :meth:`_Groups.moments`, to per-group means and
scatters, which the estimate from repeated postures and the reweighting
stage's pooled std (:meth:`_Groups.pooled_std`) both read dispersions from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import MissingNoiseError
from .kinematics import _frozen

AXES = ("x", "y", "z")

#: Default dispersion floor: the tracker's claimed precision, 10 um.
DEFAULT_SIGMA0 = 10e-6


@dataclass(frozen=True)
class NoiseModel:
    """Per-configuration, per-axis standard deviations as one read-only table.

    Row i holds configuration ``config[i]`` (distinct int ids, stored in
    ascending order), its per-axis standard deviations ``sigma[i]`` and
    optionally ``se[i]``, the standard error of each estimate from the
    chi-distribution large-sample formula se(sigma) = sigma / sqrt(2 (n - 1)).
    ``sigma`` and ``se`` are (K, 3) arrays in meters, finite and >= 0.
    """

    config: np.ndarray
    sigma: np.ndarray
    se: np.ndarray | None = None

    def __post_init__(self):
        config = _frozen(self.config, int, -1)
        order = np.argsort(config) if np.any(config[1:] < config[:-1]) else slice(None)  # sorted rows are shared
        config = _frozen(config[order], int)
        if not config.size:
            raise ValueError("noise table has no configurations")
        repeated = config[1:][config[1:] == config[:-1]]
        if repeated.size:
            raise ValueError(f"configuration {repeated[0]} is listed twice")
        object.__setattr__(self, "config", config)
        for name in ("sigma", "se"):
            if getattr(self, name) is None:
                continue
            arr = _frozen(getattr(self, name))
            if arr.shape != (config.size, 3):
                raise ValueError(f"noise column {name} has shape {arr.shape} for {config.size} configurations")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValueError(f"noise column {name} must be finite and >= 0")
            object.__setattr__(self, name, _frozen(arr[order]))

    def rows(self, config) -> np.ndarray:
        """Table row of each configuration id in ``config`` (same shape)."""
        ids = np.asarray(config, dtype=int)
        k = np.minimum(np.searchsorted(self.config, ids), self.config.size - 1)
        missing = self.config[k] != ids
        if np.any(missing):
            raise MissingNoiseError(f"no noise entry for configuration {ids[missing].flat[0]}")
        return k

    @classmethod
    def uniform(cls, configs: Iterable[int], sigma: float) -> "NoiseModel":
        """One common sigma on every axis of every listed configuration."""
        config = np.array(configs, dtype=int).reshape(-1)
        return cls(config=config, sigma=np.full((config.size, 3), float(sigma)))


def build_sigma(
    noise: NoiseModel, config: np.ndarray, axis: np.ndarray, floor: float = DEFAULT_SIGMA0
) -> np.ndarray:
    """Per-row sigma of configuration ``config[i]`` on axis ``axis[i]``, floored at ``floor``.

    The floor (default 10 um, the tracker's claimed precision) guarantees
    strictly positive entries so downstream weight rules never divide by zero.
    """
    if floor <= 0.0:
        raise ValueError("sigma floor must be positive")
    return np.maximum(noise.sigma[noise.rows(config), axis], floor)


class _Groups:
    """Rows grouped by an integer label without gaps, planned once per label vector.

    ``label[i]`` numbers row i's group, and ``label`` is kept to spread
    per-group values back over the rows.  Rows are taken in a stable order by
    group: ``counts[g]`` is group g's row count and ``starts[g]`` its offset
    in that order, so repeated reductions over one grouping (the IRLS
    iterations, the Monte Carlo's trial blocks) pay for the counting and
    sorting once.
    """

    def __init__(self, label: np.ndarray):
        self.label = label
        self.counts = np.bincount(label)
        self.order = np.argsort(label, kind="stable")
        self.starts = np.cumsum(self.counts) - self.counts

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of ``values`` (..., rows) as (..., groups), for labels without gaps.

        Each group adds its rows in row order, so a one-row group returns its
        row bit for bit.
        """
        return np.add.reduceat(values[..., self.order], self.starts, axis=-1)

    def moments(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-group means and scatters (summed squared deviations from the mean) of ``values`` (..., rows),
        each (..., groups), taken about each group's first value in two passes: a group of equal values
        reads that value and a zero scatter exactly."""
        first = values[..., self.order[self.starts]]
        shifted = values - first[..., self.label]
        offset = self.sum(shifted) / self.counts
        return first + offset, self.sum((shifted - offset[..., self.label]) ** 2)

    def pooled_std(self, counts: np.ndarray, mean: np.ndarray, scatter: np.ndarray) -> np.ndarray:
        """Grouped sample stds (ddof=1) of values known only through per-row statistics.

        Row i stands for ``counts[i]`` values with mean ``mean[..., i]`` and
        scatter ``scatter[..., i]``, their summed squared deviations from
        that mean.  A group of n values with mean c has the scatter
        ``sum(scatter + counts * (mean - c)**2)`` over its rows, the exact
        algebra of the sample variance, so the values themselves are never
        read.  Returns (..., groups), for labels without gaps; every group
        must hold two values or more (``estimator._dispersions`` checks).
        """
        n = self.sum(counts)
        centre = self.sum(counts * mean) / n
        return np.sqrt(self.sum(scatter + counts * (mean - centre[..., self.label]) ** 2) / (n - 1))

