"""Dynamic time warping distance between two 1-D signal sequences.

The cumulative-cost grid is filled one Python list per row, in plain Python
floats.  Row 0 and column 0 are a border that holds 0.0 at the corner and
inf elsewhere, so cell (i, j) of the sequences sits at rows[i + 1][j + 1].
Each cell adds |x_i - y_j| to the first minimum of its diagonal, up and left
neighbours, found with two `<` comparisons in that order: the result is
exactly builtin `min`'s, ties and NaN included (a NaN taken first stays, a
later NaN never replaces a number).  `dtw_distance` reads the last cell;
`dtw_path` also backtracks the path from the rows with the same
first-minimum rule.
"""

import math

_NOT_1D = "dtw_distance expects 1-D sequences"
_TEXT = (str, bytes)


def _fill(x, y) -> list[list[float]]:
    """The cumulative-cost rows of x against y, border included; refuses bad input."""
    # float() refuses a row and iteration refuses a scalar, so nested lists,
    # (n, k) arrays and scalars raise TypeError.  The tests before it stop
    # (n, 1) arrays, which numpy before 2.4 converts with only a warning, and
    # text, whose characters float() would read as digits.
    if (getattr(x, "ndim", 1) != 1 or getattr(y, "ndim", 1) != 1
            or isinstance(x, _TEXT) or isinstance(y, _TEXT)):
        raise ValueError(_NOT_1D)
    try:
        xs, ys = list(map(float, x)), list(map(float, y))
    except TypeError:
        raise ValueError(_NOT_1D) from None
    if not xs or not ys:
        raise ValueError("dtw_distance requires nonempty sequences")

    row = [0.0] + [math.inf] * len(ys)
    rows = [row]
    for x_i in xs:
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
    distance = row[-1]
    if not math.isfinite(distance):
        raise ValueError(f"dtw_distance requires finite values and costs, got distance {distance}")
    return rows


def dtw_distance(x, y) -> float:
    """Minimum cumulative alignment cost between sequences x and y.

    Local cost is |x_i - y_j|.  The alignment may stretch either sequence,
    so a single element of one can map to several elements of the other and
    the inputs may have different lengths.
    """
    return _fill(x, y)[-1][-1]


def dtw_path(x, y) -> tuple[float, tuple[tuple[int, int], ...]]:
    """(dtw_distance(x, y), the (i, j) index pairs of an alignment realizing it).

    Backtracking ties are resolved diagonal first, then vertical (advance i),
    then horizontal (advance j), which makes the path deterministic.
    """
    rows = _fill(x, y)
    i, j = len(rows) - 1, len(rows[0]) - 1
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
    return rows[-1][-1], tuple(path)
