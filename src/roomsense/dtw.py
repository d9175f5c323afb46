"""Dynamic time warping distance between two 1-D signal sequences.

The cumulative-cost grid is filled one Python list per row, in plain Python
floats.  Row 0 and column 0 are a border that holds 0.0 at the corner and
inf elsewhere, so cell (i, j) of the sequences sits at rows[i + 1][j + 1].
Each cell adds |x_i - y_j| to the first minimum of its diagonal, up and left
neighbours, found with two `<` comparisons in that order: the result is
exactly builtin `min`'s, ties and NaN included (a NaN taken first stays, a
later NaN never replaces a number).  The path is backtracked by reading the
rows directly with the same first-minimum rule.
"""

import math
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

    ys = y.tolist()
    row = [0.0] + [math.inf] * len(ys)
    rows = [row]
    for x_i in x.tolist():
        above, row = row, [math.inf]
        left = math.inf
        # best starts at the diagonal neighbour
        for best, up, y_j in zip(above, above[1:], ys):
            if up < best:
                best = up
            if left < best:
                best = left
            left = abs(x_i - y_j) + best
            row.append(left)
        rows.append(row)

    # Every path visits every row and column, so a NaN or inf value, or a
    # cost past the float range, leaves the last cell non-finite.
    i, j = x.size, y.size
    distance = row[j]
    if not math.isfinite(distance):
        raise ValueError(f"dtw_distance requires finite values and costs, got distance {distance}")

    path = [(i - 1, j - 1)]
    while i > 1 or j > 1:
        above = rows[i - 1]
        diag, up, left = above[j - 1], above[j], rows[i][j - 1]
        # the fill's first minimum: diagonal, then vertical, then horizontal
        if up < diag:
            if left < up:
                j -= 1
            else:
                i -= 1
        elif left < diag:
            j -= 1
        else:
            i -= 1
            j -= 1
        path.append((i - 1, j - 1))
    path.reverse()

    return WarpResult(distance=distance, path=tuple(path))
