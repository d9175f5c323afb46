"""Six per-access-point features for pairs of device points.

`featurize_samples` computes them for every (i, j, trial_a, trial_b) row of
a pair dataset from the two points' unique-RSSI sequences per AP.
Statistical features work on absolute dBm magnitudes (so "minimum strength"
names the strongest observed signal); the ratio features count values at or
below the -50 dBm (high) and -70 dBm (average) marks over the deduplicated
union; signal similarity is the DTW distance between the ordered sequences.
Concatenating the six features over the three APs yields the 18-value
vector, which is symmetric in the two points.  The feature-matrix file's
row rules, `_FEATURE_RULES`, bind its writer as well as its reader.
"""

import math
import sys
from array import array
from itertools import chain

import numpy as np

from ._schema import InputError
from .dataset import (
    AP_IDS, CSV_CHUNK_LINES, READING_DTYPE, PointRecord, csv_writer, read_csv_chunks,
)
from .dtw import dtw_distance

HIGH_STRENGTH_DBM = -50
AVG_STRENGTH_DBM = -70

AP_FEATURE_NAMES = ("md", "savg", "smin", "high", "avg", "dtw")
FEATURE_NAMES = tuple(f"{name}_{ap}" for ap in AP_IDS for name in AP_FEATURE_NAMES)
FEATURE_CSV_HEADER = "label," + ",".join(FEATURE_NAMES)

# Padded readings per side in one chunk of rows: 341 rows (1,023 (pair, AP)
# items) when the longest unique-value sequence holds 8.  It bounds the
# chunk's temporaries whatever the traces' lengths.
_CHUNK_READINGS = 1 << 13


def _trace_table(points, trials):
    """The unique-value tuples of the points' traces at `trials`, and the
    points x APs x trials array of each trace's index in them (-1: none)."""
    column = {trial: c for c, trial in enumerate(trials.tolist())}
    numbers = np.full((len(points), len(AP_IDS), len(trials)), -1, dtype=np.int32)
    uniques = []
    for p, record in enumerate(points):
        for (ap_id, trial), trace in record.traces.items():
            if ap_id in AP_IDS and trial in column:
                numbers[p, AP_IDS.index(ap_id), column[trial]] = len(uniques)
                uniques.append(trace.unique)
    return uniques, numbers


def featurize_samples(points, samples) -> np.ndarray:
    """The n x 18 feature matrix of the (i, j, trial_a, trial_b) `samples`
    rows into `points`: row k compares points[i] at trial_a with points[j] at
    trial_b, AP-major in the order md, savg, smin, high, avg, dtw.

    md is the gap between the two points' mean absolute RSSI.  It and the
    union's four statistics are integer sums and counts, each divided once,
    as array operations over chunks of rows; dtw is one `dtw_distance` call
    per (pair, AP), in row-then-AP order.  A missing trace raises ValueError.
    """
    samples = np.asarray(samples, dtype=np.int64)
    if len(samples) and not 0 <= samples[:, :2].min() <= samples[:, :2].max() < len(points):
        raise IndexError(f"sample rows must index the {len(points)} points")
    trials = np.unique(samples[:, 2:])
    uniques, numbers = _trace_table(points, trials)
    lengths = np.fromiter(map(len, uniques), np.int64, len(uniques))
    values = np.fromiter(chain.from_iterable(uniques), READING_DTYPE, int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    means = np.add.reduceat(np.abs(values, dtype=np.int64), starts) / lengths

    X = np.empty((len(samples), len(FEATURE_NAMES)))
    width = int(lengths.max(initial=1))
    columns = np.arange(width)
    step = max(1, _CHUNK_READINGS // (len(AP_IDS) * width))
    for lo in range(0, len(samples), step):
        rows = samples[lo:lo + step]
        # each row's trace numbers per AP for its (i, trial_a) and (j, trial_b)
        pair = np.stack([numbers[rows[:, k], :, np.searchsorted(trials, rows[:, k + 2])]
                         for k in (0, 1)], axis=-1)
        if pair.min() < 0:
            row, ap, side = np.argwhere(pair < 0)[0]
            key = (AP_IDS[ap], int(rows[row, 2 + side]))
            raise ValueError(f"missing trace for (ap_id, trial) {key}")
        a, b = pair.reshape(-1, 2).T  # row-then-AP
        out = X[lo:lo + step].reshape(-1, len(AP_FEATURE_NAMES))  # a view: one row per (pair, AP)
        # Both traces side by side, each padded to `width` by repeating its last
        # value, then sorted: each value of the union starts exactly one run.
        padded = [values[starts[t, None] + np.minimum(columns, lengths[t, None] - 1)]
                  for t in (a, b)]
        merged = np.sort(np.concatenate(padded, axis=1), axis=1)
        first = np.ones(merged.shape, dtype=bool)
        np.not_equal(merged[:, 1:], merged[:, :-1], out=first[:, 1:])
        strengths = np.abs(merged, dtype=np.int32)
        n = first.sum(axis=1)
        out[:, 0] = np.abs(means[a] - means[b])
        out[:, 1] = np.where(first, strengths, 0).sum(axis=1) / n
        out[:, 2] = strengths.min(axis=1)
        out[:, 3] = (first & (merged <= HIGH_STRENGTH_DBM)).sum(axis=1) / n
        out[:, 4] = (first & (merged <= AVG_STRENGTH_DBM)).sum(axis=1) / n
        out[:, 5] = [dtw_distance(uniques[p], uniques[q]) for p, q in zip(a.tolist(), b.tolist())]
    return X


def featurize_pair(a: PointRecord, b: PointRecord, trial_a: int, trial_b: int) -> np.ndarray:
    """`featurize_samples` of one row: a at trial_a against b at trial_b."""
    return featurize_samples((a, b), [(0, 1, trial_a, trial_b)])[0]


# ---------------------------------------------------------------------------
# Feature matrix file: CSV with header `label,md_1,...,dtw_3`, one sample per
# row of finite values, '#'-prefixed comment lines ignored.


_FEATURE_DTYPE = np.dtype([("label", np.int64), ("X", np.float64, (len(FEATURE_NAMES),))])
_FEATURE_RULES = (
    (lambda r: np.isin(r["label"], (0, 1)), lambda r: f"label must be 0 or 1, got {r['label']}"),
    (lambda r: np.isfinite(r["X"]).all(axis=-1), lambda r: "non-finite feature value"),
)


def write_feature_matrix(X, y, dest, comments=None):
    """Write a labeled feature matrix as CSV, each value as `repr` of its float.

    Only files that `read_feature_matrix` reads back are written: a sample
    that breaks a row rule (a label other than 0 or 1, a non-finite value)
    raises ValueError naming it before `dest` is opened.  Each chunk of rows
    formats every distinct float bit pattern once, so -0.0 and 0.0 keep their
    own text.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"expected an n x {len(FEATURE_NAMES)} matrix, got {X.shape}")
    if y.shape != (len(X),):
        raise ValueError("label count does not match row count")
    passed = np.array([check({"label": y, "X": X}) for check, _ in _FEATURE_RULES])
    if not passed.all():  # the first bad sample, by the first rule it breaks
        k = int(np.argmin(passed.all(axis=0)))
        _, message = _FEATURE_RULES[np.argmin(passed[:, k])]
        raise ValueError(f"sample {k + 1}: {message({'label': y[k].item(), 'X': X[k]})}")
    y = y.astype(int)
    with csv_writer(dest, FEATURE_CSV_HEADER, comments) as out:
        for lo in range(0, len(X), CSV_CHUNK_LINES):
            bits = np.ascontiguousarray(X[lo:lo + CSV_CHUNK_LINES]).view(np.int64)
            distinct, cell = np.unique(bits, return_inverse=True)
            text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
            rows = text[cell.reshape(bits.shape)].tolist()
            labels = y[lo:lo + CSV_CHUNK_LINES].tolist()
            out.write("".join([f"{label},{','.join(row)}\n" for label, row in zip(labels, rows)]))


def read_feature_matrix(source):
    """Read a feature-matrix CSV back into (X, y).

    Each chunk of rows is appended to flat buffers, so X is a writable view
    of the parsed doubles, not a copy of a list of chunks.
    """
    values, labels = array("d"), array("b")
    for _, rows in read_csv_chunks(source, FEATURE_CSV_HEADER, _FEATURE_DTYPE, _FEATURE_RULES):
        values.frombytes(rows["X"].tobytes())
        labels.frombytes(rows["label"].astype(np.int8).tobytes())
    if not labels:
        raise InputError(1, "no samples in the file")
    X = np.frombuffer(values).reshape(-1, len(FEATURE_NAMES))
    # a standardizer sums the squared deviations of up to len(X) rows; keep that sum finite
    limit = math.sqrt(sys.float_info.max / len(X)) / 4
    if max(X.max(), -X.min()) >= limit:  # whole-matrix reductions: no n x 18 temporary
        row = np.flatnonzero(np.abs(X).max(axis=1) >= limit)[0]
        raise InputError(None, f"sample {row + 1}: a feature value of magnitude "
                               f">= {limit:.3g} is too large to standardize")
    return X, np.frombuffer(labels, dtype=np.int8).astype(int)
