"""Row-level reference for the dispersion tests: one ``np.std`` call per group of rows."""

import numpy as np


def row_std(values, group):
    """Sample std (ddof=1) of the ``values`` (..., rows) of each group, as (..., groups).

    ``group[i]`` numbers row i's group, 0, 1, ... without gaps.
    """
    values = np.asarray(values, dtype=float)
    group = np.asarray(group)
    return np.stack([np.std(values[..., group == g], axis=-1, ddof=1) for g in range(group.max() + 1)],
                    axis=-1)
