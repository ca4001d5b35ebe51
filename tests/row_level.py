"""Row-level references for the class-level library: one ``np.std`` call per group of rows, a
stacked system expanded to one class per row, and a result's residuals on every row."""

from dataclasses import replace

import numpy as np


def row_std(values, group):
    """Sample std (ddof=1) of the ``values`` (..., rows) of each group, as (..., groups).

    ``group[i]`` numbers row i's group, 0, 1, ... without gaps.
    """
    values = np.asarray(values, dtype=float)
    group = np.asarray(group)
    return np.stack([np.std(values[..., group == g], axis=-1, ddof=1) for g in range(group.max() + 1)],
                    axis=-1)


def residuals(sys, res):
    """The row residuals of ``res`` on ``sys``: each row's class prediction minus its observation."""
    return res.predicted[sys.row_class] - sys.dp


def unfolded(sys):
    """``sys`` with one class per row: each row's class entries gathered by ``row_class``."""
    rows = sys.row_class
    return replace(sys, B=sys.B[rows], sigma=sys.sigma[rows], config=sys.config[rows],
                   marker=sys.marker[rows], axis=sys.axis[rows], row_class=None)
