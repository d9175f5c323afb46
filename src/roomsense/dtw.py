"""Dynamic time warping distance between two 1-D signal sequences."""

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WarpResult:
    """Optimal alignment: total cost plus the index-pair path realizing it."""

    distance: float
    path: tuple[tuple[int, int], ...]


def dtw_distance(x, y) -> WarpResult:
    """Minimum cumulative alignment cost between sequences x and y.

    Local cost is |x_i - y_j|.  The alignment may stretch either sequence,
    so a single element of one can map to several elements of the other and
    the inputs may have different lengths.  Backtracking ties are resolved
    diagonal first, then vertical (advance i), then horizontal (advance j),
    which makes the returned path deterministic.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("dtw_distance expects 1-D sequences")
    if x.size == 0 or y.size == 0:
        raise ValueError("dtw_distance requires nonempty sequences")

    # Cumulative cost by cell; a cell off the grid reads as inf, and the
    # corner before (0, 0) as 0.
    acc = defaultdict(lambda: math.inf, {(-1, -1): 0.0})
    ys = y.tolist()
    for i, x_i in enumerate(x.tolist()):
        for j, y_j in enumerate(ys):
            acc[i, j] = abs(x_i - y_j) + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])

    # Every path visits every row and column, so a NaN or inf value, or a
    # cost past the float range, leaves the last cell non-finite.
    i, j = x.size - 1, y.size - 1
    distance = acc[i, j]
    if not math.isfinite(distance):
        raise ValueError(f"dtw_distance requires finite values and costs, got distance {distance}")

    path = [(i, j)]
    while (i, j) != (0, 0):
        # min keeps the first minimum: diagonal, then vertical, then horizontal
        i, j = min(((i - 1, j - 1), (i - 1, j), (i, j - 1)), key=acc.__getitem__)
        path.append((i, j))
    path.reverse()

    return WarpResult(distance=distance, path=tuple(path))
