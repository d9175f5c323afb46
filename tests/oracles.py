"""Independent reference implementations used to derive expected test values.

Everything here deliberately avoids the library's code paths: warping paths
are enumerated explicitly, DTW with its backtrack also runs on an inf-bordered
numpy grid, features are recomputed with plain Python sets and
statistics, metrics are recounted from raw label pairs, and integrals use the
trapezoid rule over explicit grids.  The tree split search, SMO and tree
prediction keep their per-feature, per-check and per-row loop forms, logistic
regression takes one loss per gradient step, and pair
draws list every (pair, trial) combination before drawing from the list.
The simulator and per-AP feature oracles are the library's earlier loop
forms: one `sample_rssi` call per reading, and the union statistics taken
with generator expressions.  The trace and feature file oracles are the
earlier row-at-a-time readers: Python's int and float on each field, with
the library's `csv_reader` for decoding, header and comment lines.
"""

import itertools
import math
from fractions import Fraction
from statistics import mean

import numpy as np

from roomsense._schema import InputError
from roomsense._seeds import generator
from roomsense.dataset import AP_IDS, READING_RANGE, TRACE_HEADER, PointRecord, Trace, csv_reader
from roomsense.dtw import dtw_distance
from roomsense.features import FEATURE_CSV_HEADER, FEATURE_NAMES
from roomsense.simulator import _room_points, sample_rssi


def enumerate_warp_paths(n, m):
    """All monotone, continuous index paths from (0,0) to (n-1,m-1)."""
    paths = []

    def extend(path):
        i, j = path[-1]
        if (i, j) == (n - 1, m - 1):
            paths.append(list(path))
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < n and nj < m:
                path.append((ni, nj))
                extend(path)
                path.pop()

    extend([(0, 0)])
    return paths


def brute_force_dtw(x, y):
    """Minimum path cost over every enumerated warping path."""
    best = None
    for path in enumerate_warp_paths(len(x), len(y)):
        cost = sum(abs(x[i] - y[j]) for i, j in path)
        if best is None or cost < best:
            best = cost
    return best


def dtw_oracle(x, y):
    """(distance, path) of DTW filled on an inf-bordered numpy grid.

    Backtracking takes np.argmin's first minimum: diagonal, then vertical,
    then horizontal.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = x.size, y.size
    cost = np.abs(x[:, None] - y[None, :])
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc[i, j] = cost[i - 1, j - 1] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])

    path = [(n - 1, m - 1)]
    i, j = n, m
    while (i, j) != (1, 1):
        move = int(np.argmin((acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])))
        if move == 0:
            i, j = i - 1, j - 1
        elif move == 1:
            i = i - 1
        else:
            j = j - 1
        path.append((i - 1, j - 1))
    path.reverse()
    return float(acc[n, m]), tuple(path)


def path_cost_matrices(n, m):
    """0/1 visit matrix (flattened) per enumerated path, for vectorized oracles."""
    paths = enumerate_warp_paths(n, m)
    mats = np.zeros((len(paths), n * m))
    for p_idx, path in enumerate(paths):
        for i, j in path:
            mats[p_idx, i * m + j] = 1.0
    return mats


# ---------------------------------------------------------------------------
# Feature reference implementations (plain Python, no numpy)


def naive_unique(values):
    seen = []
    for v in values:
        if v not in seen:
            seen.append(v)
    return seen


def naive_features(x_values, y_values):
    """The six per-AP features from two raw traces, recomputed from scratch.

    Returns them in vector order: md, savg, smin, high, avg, dtw.
    """
    u = naive_unique(x_values)
    v = naive_unique(y_values)
    union = sorted(set(u) | set(v))
    md = abs(mean(abs(s) for s in u) - mean(abs(s) for s in v))
    savg = mean(abs(s) for s in union)
    smin = min(abs(s) for s in union)
    high = sum(1 for s in union if s <= -50) / len(union)
    avg = sum(1 for s in union if s <= -70) / len(union)
    dtw = brute_force_dtw(u, v)
    return [md, savg, smin, high, avg, float(dtw)]


def ap_features_oracle(u, v):
    """The six per-AP features in the library's earlier form: the union's
    absolute values from a list comprehension, its ratio counts from
    generator expressions, and md from two `map(abs, ...)` sums."""
    union = set(u) | set(v)
    strengths = [abs(s) for s in union]
    n = len(union)
    return (
        float(abs(sum(map(abs, u)) / len(u) - sum(map(abs, v)) / len(v))),
        float(sum(strengths) / n),
        float(min(strengths)),
        sum(1 for s in union if s <= -50) / n,
        sum(1 for s in union if s <= -70) / n,
        dtw_distance(u, v),
    )


# ---------------------------------------------------------------------------
# Simulation one reading at a time


def generate_oracle(cfg):
    """PointRecords with every reading drawn by its own `sample_rssi` call,
    from the same per-(point, AP, trial) streams as the library."""
    left_w, left_d = cfg.room_left
    right_w, right_d = cfg.room_right
    placements = _room_points(
        cfg.devices_per_room, -left_w, 0.0, left_d, generator(cfg.seed, "sim-place", "left")
    ) + _room_points(
        cfg.devices_per_room, 0.0, right_w, right_d, generator(cfg.seed, "sim-place", "right")
    )
    records = []
    for point_idx, point in enumerate(placements):
        traces = {}
        for ap_idx, ap in enumerate(cfg.ap_positions):
            for trial in range(cfg.trials):
                rng = generator(cfg.seed, "sim-read", point_idx, ap_idx + 1, trial)
                values = [sample_rssi(point, ap, cfg, rng) for _ in range(cfg.samples_per_trial)]
                traces[(ap_idx + 1, trial)] = Trace(values)
        records.append(PointRecord(point, traces))
    return records


# ---------------------------------------------------------------------------
# Pair draws from the listed combinations


def pair_rows_oracle(points, n_positive, n_negative, trial_matching, seed):
    """The drawn (i, j, trial_a, trial_b) rows, positives first.

    Every combination is listed as a tuple, by pair in combinations order and
    then by trial assignment, and each class draws from its own seeded
    generator without replacement.
    """
    points = sorted(points, key=lambda p: p.point)
    trials = [
        sorted(set.intersection(*({t for a, t in p.traces if a == ap} for ap in (1, 2, 3))))
        for p in points
    ]
    combos = {1: [], 0: []}
    for i, j in itertools.combinations(range(len(points)), 2):
        if trial_matching == "equal":
            assignments = [(t, t) for t in trials[i] if t in trials[j]]
        else:
            assignments = itertools.product(trials[i], trials[j])
        same_room = (points[i].point[0] < 0) == (points[j].point[0] < 0)
        combos[int(same_room)] += [(i, j, ta, tb) for ta, tb in assignments]
    rows = []
    for label, count in ((1, n_positive), (0, n_negative)):
        picks = generator(seed, "pairs", label).choice(len(combos[label]), size=count,
                                                      replace=False)
        rows += [list(combos[label][k]) for k in picks]
    return rows


# ---------------------------------------------------------------------------
# Trace and feature files, one row at a time


def _trace_row_oracle(line_no, fields):
    if len(fields) != 6:
        raise InputError(line_no, f"expected 6 fields, got {len(fields)}")
    try:
        x, y = float(fields[0]), float(fields[1])
        ap_id, trial, seq, rssi = map(int, fields[2:])
    except ValueError as exc:
        raise InputError(line_no, f"unparseable field ({exc})") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputError(line_no, f"non-finite coordinate ({x}, {y})")
    if x == 0:
        raise InputError(line_no, "point_x = 0 lies on the partition wall")
    if ap_id not in AP_IDS:
        raise InputError(line_no, f"ap_id must be one of {AP_IDS}, got {ap_id}")
    if trial < 0:
        raise InputError(line_no, f"trial must be >= 0, got {trial}")
    if seq < 0:
        raise InputError(line_no, f"seq must be >= 0, got {seq}")
    if rssi > 0:
        raise InputError(line_no, f"rssi is reported in negative dBm, got {rssi}")
    if rssi < READING_RANGE[0]:
        raise InputError(line_no, f"rssi must be >= {READING_RANGE[0]} dBm, got {rssi}")
    return (x, y), ap_id, trial, seq, rssi


def ingest_traces_oracle(source):
    """The row-level trace reader: Python's int and float per field, nested dicts
    keyed by point, then (ap_id, trial), then seq; the first bad row raises."""
    grouped = {}
    with csv_reader(source, TRACE_HEADER) as lines:
        for line_no, text in lines:
            point, ap_id, trial, seq, rssi = _trace_row_oracle(line_no, text.split(","))
            readings = grouped.setdefault(point, {}).setdefault((ap_id, trial), {})
            if seq in readings:
                key = (point, ap_id, trial, seq)
                raise InputError(line_no, f"duplicate reading key {key}")
            readings[seq] = rssi
    return [
        PointRecord(point, {key: Trace([by_seq[s] for s in sorted(by_seq)])
                            for key, by_seq in traces.items()})
        for point, traces in sorted(grouped.items())
    ]


def read_feature_matrix_oracle(source):
    """The row-level feature reader: (X, y) from one int and 18 float parses per row."""
    width = len(FEATURE_NAMES)
    rows, labels = [], []
    with csv_reader(source, FEATURE_CSV_HEADER) as lines:
        for line_no, text in lines:
            fields = text.split(",")
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
            rows.append(row)
    if not labels:
        raise InputError(1, "no samples in the file")
    return np.array(rows).reshape(-1, width), np.array(labels)


# ---------------------------------------------------------------------------
# Metric recount from raw (truth, prediction) pairs


def recount_confusion(y_true, y_pred):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
    return tp, fp, fn, tn


def recount_accuracy(y_true, y_pred):
    return Fraction(sum(1 for t, p in zip(y_true, y_pred) if t == p), len(y_true))


def recount_f1(y_true, y_pred, positive_class):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == positive_class and p == positive_class)
    pred_pos = sum(1 for p in y_pred if p == positive_class)
    actual_pos = sum(1 for t in y_true if t == positive_class)
    precision = Fraction(tp, pred_pos) if pred_pos else Fraction(0)
    recall = Fraction(tp, actual_pos) if actual_pos else Fraction(0)
    if precision + recall == 0:
        return Fraction(0)
    return 2 * precision * recall / (precision + recall)


def trapezoid(ys, xs):
    total = 0.0
    for k in range(1, len(xs)):
        total += (ys[k] + ys[k - 1]) * (xs[k] - xs[k - 1]) / 2.0
    return total


# ---------------------------------------------------------------------------
# Training kernels as loops: the forms the vectorized library code replaced.
# Same arithmetic in the same order, so results must match exactly.


def best_split_oracle(X, y, feature_indices, parent_impurity):
    """Best (feature, threshold, decrease) scanning one feature at a time."""
    n = len(y)
    best = None
    best_decrease = -np.inf
    for f in feature_indices:
        order = np.argsort(X[:, f], kind="stable")
        col = X[order, f]
        ones = np.cumsum(y[order])
        cut = np.nonzero(col[1:] > col[:-1])[0]  # split after these positions
        if cut.size == 0:
            continue
        n_left = cut + 1.0
        n_right = n - n_left
        p_left = ones[cut] / n_left
        p_right = (ones[-1] - ones[cut]) / n_right
        child_impurity = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
        decrease = parent_impurity - child_impurity
        k = int(np.argmax(decrease))  # first maximum: lowest threshold wins ties
        if decrease[k] > best_decrease:
            best_decrease = float(decrease[k])
            threshold = (col[cut[k]] + col[cut[k] + 1]) / 2.0
            best = (int(f), float(threshold), best_decrease)
    return best


def smo_oracle(K, y_signed, C, tol, max_passes, max_sweeps, rng):
    """(alphas, bias, sweeps, updates) of simplified SMO that recomputes
    alphas * y per check; updates counts the committed pair updates."""
    n = len(y_signed)
    alphas = np.zeros(n)
    b = 0.0

    def f(i):
        return float((alphas * y_signed) @ K[:, i] + b)

    passes = 0
    sweeps = 0
    updates = 0
    while passes < max_passes and sweeps < max_sweeps:
        changed = 0
        for i in range(n):
            E_i = f(i) - y_signed[i]
            r_i = y_signed[i] * E_i
            if not ((r_i < -tol and alphas[i] < C) or (r_i > tol and alphas[i] > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            E_j = f(j) - y_signed[j]
            a_i_old, a_j_old = alphas[i], alphas[j]
            if y_signed[i] != y_signed[j]:
                L = max(0.0, a_j_old - a_i_old)
                H = min(C, C + a_j_old - a_i_old)
            else:
                L = max(0.0, a_i_old + a_j_old - C)
                H = min(C, a_i_old + a_j_old)
            if L == H:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            a_j = a_j_old - y_signed[j] * (E_i - E_j) / eta
            a_j = min(H, max(L, a_j))
            if abs(a_j - a_j_old) < 1e-5:
                continue
            a_i = a_i_old + y_signed[i] * y_signed[j] * (a_j_old - a_j)
            b1 = (
                b
                - E_i
                - y_signed[i] * (a_i - a_i_old) * K[i, i]
                - y_signed[j] * (a_j - a_j_old) * K[i, j]
            )
            b2 = (
                b
                - E_j
                - y_signed[i] * (a_i - a_i_old) * K[i, j]
                - y_signed[j] * (a_j - a_j_old) * K[j, j]
            )
            if 0 < a_i < C:
                b = b1
            elif 0 < a_j < C:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            alphas[i], alphas[j] = a_i, a_j
            changed += 1
        passes = passes + 1 if changed == 0 else 0
        sweeps += 1
        updates += changed
    return alphas, float(b), sweeps, updates


def lr_oracle(X, y, learning_rate, iterations):
    """(weights, bias, loss history) of batch gradient descent that takes the
    mean cross-entropy of each step's z as it goes."""

    def loss(z):
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    y = np.asarray(y, dtype=float)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    history = []
    for _ in range(iterations):
        z = X @ w + b
        history.append(loss(z))
        residual = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))) - y
        w -= learning_rate * (X.T @ residual) / n
        b -= learning_rate * float(np.mean(residual))
    history.append(loss(X @ w + b))
    return w, b, np.array(history)


def tree_predict_oracle(root, X):
    """Class of each row by walking the tree one row at a time."""
    out = []
    for row in X:
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node.value)
    return np.array(out, dtype=int)
