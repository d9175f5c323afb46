"""Six per-access-point features for a pair of device points.

`ap_features` computes all six from the two points' unique-RSSI sequences for
one AP.  Statistical features work on absolute dBm magnitudes (so "minimum
strength" names the strongest observed signal); the ratio features count
values at or below the -50 dBm (high) and -70 dBm (average) marks over the
deduplicated union; signal similarity is the DTW distance between the ordered
sequences.  Concatenating the six features over the three APs yields the
18-value vector, which is symmetric in the two points.
"""

import math
import sys
from array import array
from bisect import bisect_right

import numpy as np

from ._schema import InputError
from .dataset import AP_IDS, PointRecord, csv_reader, csv_writer
from .dtw import dtw_distance

HIGH_STRENGTH_DBM = -50
AVG_STRENGTH_DBM = -70

AP_FEATURE_NAMES = ("md", "savg", "smin", "high", "avg", "dtw")
FEATURE_NAMES = tuple(f"{name}_{ap}" for ap in AP_IDS for name in AP_FEATURE_NAMES)
FEATURE_CSV_HEADER = "label," + ",".join(FEATURE_NAMES)


def ap_features(u, v) -> tuple[float, ...]:
    """The six features for one AP from two unique-value sequences, in AP_FEATURE_NAMES order.

    md is the gap between the two points' mean absolute RSSI; savg and smin
    are the mean and smallest absolute RSSI over the union of both points'
    values; high and avg are the fractions of that union at or below -50 and
    -70 dBm; dtw is the DTW distance between u and v.
    """
    if len(u) == 0 or len(v) == 0:
        raise ValueError("feature inputs must be nonempty")
    union = set(u) | set(v)
    # summed in the set's own order; the sorted copy only counts the marks
    strengths = list(map(abs, union))
    ordered = sorted(union)
    n = len(union)
    return (
        float(abs(sum(map(abs, u)) / len(u) - sum(map(abs, v)) / len(v))),
        float(sum(strengths) / n),
        float(min(strengths)),
        bisect_right(ordered, HIGH_STRENGTH_DBM) / n,
        bisect_right(ordered, AVG_STRENGTH_DBM) / n,
        dtw_distance(u, v),
    )


def featurize_pair(a: PointRecord, b: PointRecord, trial_a: int, trial_b: int) -> np.ndarray:
    """18-value feature vector, AP-major in the order md, savg, smin, high, avg, dtw,
    of a at trial_a against b at trial_b."""
    values = []
    for ap_id in AP_IDS:
        try:
            trace_a = a.traces[(ap_id, trial_a)]
            trace_b = b.traces[(ap_id, trial_b)]
        except KeyError as exc:
            raise ValueError(f"missing trace for (ap_id, trial) {exc.args[0]}") from None
        values += ap_features(trace_a.unique, trace_b.unique)
    return np.array(values, dtype=float)


# ---------------------------------------------------------------------------
# Feature matrix file: CSV with header `label,md_1,...,dtw_3`, one sample per
# row of finite values, '#'-prefixed comment lines ignored.


def write_feature_matrix(X, y, dest, comments=None):
    """Write a labeled feature matrix as CSV (deterministic float repr)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"expected an n x {len(FEATURE_NAMES)} matrix, got {X.shape}")
    if len(y) != len(X):
        raise ValueError("label count does not match row count")
    with csv_writer(dest, FEATURE_CSV_HEADER, comments) as out:
        # one row of Python floats at a time: boxing the whole matrix at once
        # raised the paper-default run's peak RSS
        for label, row in zip(y.tolist(), X):
            out.write(f"{label}," + ",".join(map(repr, row.tolist())) + "\n")


def read_feature_matrix(source):
    """Read a feature-matrix CSV back into (X, y).

    Rows are parsed one at a time into flat buffers, so X is a writable view
    of the parsed doubles, not a copy of a list of rows.
    """
    width = len(FEATURE_NAMES)
    values, labels = array("d"), array("b")
    with csv_reader(source, FEATURE_CSV_HEADER) as lines:
        for line_no, fields in lines:
            if len(fields) != 1 + width:
                raise InputError(line_no, f"expected {1 + width} fields, got {len(fields)}")
            try:
                label = int(fields[0])
                row = list(map(float, fields[1:]))
            except ValueError as exc:
                raise InputError(line_no, f"unparseable field ({exc})") from None
            if label not in (0, 1):
                raise InputError(line_no, f"label must be 0 or 1, got {label}")
            if not all(map(math.isfinite, row)):
                raise InputError(line_no, "non-finite feature value")
            labels.append(label)
            values.extend(row)
    if not labels:
        raise InputError(1, "no samples in the file")
    X = np.frombuffer(values).reshape(-1, width)
    # a standardizer sums the squared deviations of up to len(X) rows; keep that sum finite
    limit = math.sqrt(sys.float_info.max / len(X)) / 4
    if max(X.max(), -X.min()) >= limit:  # whole-matrix reductions: no n x 18 temporary
        row = np.flatnonzero(np.abs(X).max(axis=1) >= limit)[0]
        raise InputError(None, f"sample {row + 1}: a feature value of magnitude "
                               f">= {limit:.3g} is too large to standardize")
    return X, np.frombuffer(labels, dtype=np.int8).astype(int)
