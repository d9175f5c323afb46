"""Metrics, standardization, splitting, KDE, and the end-to-end harness."""

import io
import json
from collections import Counter

import numpy as np
import pytest

from oracles import recount_accuracy, recount_confusion, recount_f1, trapezoid
from roomsense import ml
from roomsense._seeds import derive_seed
from roomsense.evaluation import (
    ConfusionMatrix,
    accuracy,
    cross_validate,
    density_grid,
    evaluate,
    f1,
    kde,
    kfold,
    overlap_coefficient,
    plan,
    silverman_bandwidth,
    standardize_apply,
    standardize_fit,
    train_test_split,
    write_kde_csv,
)


def test_confusion_from_labels():
    cm = ConfusionMatrix.from_labels([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)
    assert cm.total == 5
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


def test_accuracy_examples():
    assert accuracy(ConfusionMatrix(2, 0, 0, 2)) == 1.0
    assert accuracy(ConfusionMatrix(0, 1, 1, 0)) == 0.0
    assert accuracy(ConfusionMatrix(48, 2, 1, 24)) == pytest.approx(0.96, abs=1e-12)
    with pytest.raises(ValueError):
        accuracy(ConfusionMatrix(0, 0, 0, 0))


def test_f1_examples():
    assert f1(ConfusionMatrix(10, 0, 0, 5)) == 1.0
    assert f1(ConfusionMatrix(5, 5, 5, 0)) == 0.5  # precision = recall = 0.5
    assert f1(ConfusionMatrix(8, 2, 4, 0)) == pytest.approx(8 / 11, abs=1e-12)
    assert f1(ConfusionMatrix(0, 0, 3, 7)) == 0.0  # no predicted positives
    with pytest.raises(ValueError):
        f1(ConfusionMatrix(1, 1, 1, 1), positive_class=2)


def test_metrics_match_recount_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        cm = ConfusionMatrix.from_labels(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == recount_confusion(y_true, y_pred)
        assert accuracy(cm) == float(recount_accuracy(y_true, y_pred))
        for cls in (0, 1):
            assert f1(cm, cls) == pytest.approx(
                float(recount_f1(y_true, y_pred, cls)), abs=1e-12
            )


def test_standardize_constant_column_maps_to_zero():
    X = np.array([[0.0, 1.0], [0.0, 3.0], [0.0, 5.0]])
    scaler = standardize_fit(X)
    out = standardize_apply(scaler, X)
    assert np.array_equal(out[:, 0], np.zeros(3))
    # unseen values of a constant feature also map to zero
    assert standardize_apply(scaler, np.array([[9.0, 3.0]]))[0, 0] == 0.0


def test_standardize_two_point_example():
    scaler = standardize_fit(np.array([[1.0], [3.0]]))
    assert scaler.mean == (2.0,)
    assert scaler.std == (1.0,)  # population std
    out = standardize_apply(scaler, np.array([[1.0], [3.0]]))
    assert out.tolist() == [[-1.0], [1.0]]


def test_standardize_normalizes_training_matrix():
    rng = np.random.default_rng(3)
    X = rng.normal(5.0, 3.0, size=(40, 6))
    out = standardize_apply(standardize_fit(X), X)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-9)
    # applying twice to the same input is identical (pure function of stats)
    again = standardize_apply(standardize_fit(X), X)
    assert np.array_equal(out, again)


def test_standardizer_ignores_test_data():
    rng = np.random.default_rng(4)
    X_train = rng.normal(size=(20, 3))
    X_test = rng.normal(size=(10, 3))
    scaler = standardize_fit(X_train)
    X_test[:] = 1e6  # mutating test data must not affect fitted statistics
    assert standardize_fit(X_train) == scaler


def test_standardize_errors():
    with pytest.raises(ValueError):
        standardize_fit(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        standardize_fit(np.array([[np.nan, 1.0], [0.0, 2.0]]))


def test_split_matches_benchmark_arithmetic():
    y = np.array([1] * 100 + [0] * 200)
    train_idx, test_idx = train_test_split(y, 0.75, seed=5)
    assert len(train_idx) == 225 and len(test_idx) == 75
    assert int(np.sum(y[test_idx] == 1)) == 25
    assert int(np.sum(y[test_idx] == 0)) == 50
    assert set(train_idx) | set(test_idx) == set(range(300))
    assert set(train_idx) & set(test_idx) == set()


def test_split_small_even_case():
    y = np.array([0, 0, 1, 1])
    train_idx, test_idx = train_test_split(y, 0.5, seed=1)
    assert sorted(y[test_idx]) == [0, 1]
    assert sorted(y[train_idx]) == [0, 1]


def test_split_deterministic_and_seed_sensitive():
    y = np.array([0] * 30 + [1] * 20)
    a = train_test_split(y, 0.75, seed=9)
    b = train_test_split(y, 0.75, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = train_test_split(y, 0.75, seed=10)
    assert not np.array_equal(a[1], c[1])


def test_split_errors():
    with pytest.raises(ValueError):
        train_test_split(np.array([0, 1, 1]), 0.75, seed=0)  # class 0 too small
    with pytest.raises(ValueError):
        train_test_split(np.array([0, 0, 1, 1]), 1.5, seed=0)
    with pytest.raises(ValueError, match="^no labels to split$"):
        train_test_split(np.array([], dtype=int), 0.75, seed=0)


def test_kfold_even_division():
    y = np.array([0, 1] * 10)
    folds = kfold(y, k=10, seed=2)
    assert len(folds) == 10
    assert all(len(val) == 2 for _, val in folds)


def test_kfold_remainder_distribution():
    y = np.array([0] * 13 + [1] * 10)
    folds = kfold(y, k=10, seed=3)
    sizes = sorted((len(val) for _, val in folds), reverse=True)
    assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_kfold_partition_and_stratification():
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=57)
    folds = kfold(y, k=10, seed=4)
    seen = np.concatenate([val for _, val in folds])
    assert sorted(seen) == list(range(57))  # disjoint and covering
    for train_idx, val_idx in folds:
        assert set(train_idx) & set(val_idx) == set()
        assert len(train_idx) + len(val_idx) == 57
        for cls in (0, 1):
            expected = np.sum(y == cls) / 10
            assert abs(np.sum(y[val_idx] == cls) - expected) <= 1.0


def test_kfold_errors():
    with pytest.raises(ValueError):
        kfold(np.array([0, 1, 0]), k=10, seed=0)
    with pytest.raises(ValueError):
        kfold(np.array([0, 1, 0]), k=1, seed=0)


def test_kde_degenerate_input():
    with pytest.raises(ValueError, match="zero spread"):
        kde([5.0, 5.0, 5.0], np.linspace(0, 10, 5))
    with pytest.raises(ValueError):
        kde([5.0], np.linspace(0, 10, 5))


def test_kde_symmetry():
    values = np.array([-1.0, 1.0])
    grid = np.linspace(-4, 4, 81)
    density = kde(values, grid)
    assert np.all(density >= 0)
    assert np.allclose(density, density[::-1], atol=1e-12)
    h = silverman_bandwidth(values)
    per_kernel = np.exp(-0.5 / h**2) / (2 * h * np.sqrt(2 * np.pi))
    assert density[40] == pytest.approx(2 * per_kernel, abs=1e-12)  # equal kernel shares at 0


def test_kde_integrates_to_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        values = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=50)
        grid = density_grid(values, points=2001)
        density = kde(values, grid)
        integral = trapezoid(list(density), list(grid))
        assert abs(integral - 1.0) <= 0.01


def test_overlap_coefficient_extremes():
    rng = np.random.default_rng(17)
    same = rng.normal(0, 1, size=200)
    assert overlap_coefficient(same, same) == pytest.approx(1.0, abs=0.01)
    far = rng.normal(100, 1, size=200)
    assert overlap_coefficient(same, far) < 0.01


def _oracle_dataset(n_pos=40, n_neg=80, seed=0):
    """Features that encode the label exactly in column 0."""
    rng = np.random.default_rng(seed)
    y = np.array([1] * n_pos + [0] * n_neg)
    X = rng.normal(size=(len(y), 18))
    X[:, 0] = y * 4.0 - 2.0
    return X, y


def test_evaluate_perfect_features():
    X, y = _oracle_dataset()
    cfg = ml.TrainConfig(algorithm="dt", seed=2)
    report = evaluate(X, y, cfg, plan(y, cfg))
    assert report.accuracy == 1.0
    assert report.f1_class0 == 1.0
    assert report.f1_class1 == 1.0
    assert report.confusion.total == 30
    assert len(report.cv_accuracies) == 10
    assert report.importance is None


def test_evaluate_label_shuffle_matches_majority_rate():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(300, 18))
    accuracies = []
    for seed in range(10):
        y = np.array([1] * 100 + [0] * 200)
        np.random.default_rng(seed).shuffle(y)
        cfg = ml.TrainConfig(algorithm="lr", seed=seed)
        report = evaluate(X, y, cfg, plan(y, cfg)[:1])
        accuracies.append(report.accuracy)
    assert abs(np.mean(accuracies) - 2 / 3) <= 0.1


def test_evaluate_rf_fills_importance():
    X, y = _oracle_dataset(seed=3)
    cfg = ml.TrainConfig(algorithm="rf", seed=4, rf=ml.RFParams(n_trees=15))
    report = evaluate(X, y, cfg, plan(y, cfg)[:1])
    assert report.importance is not None
    assert len(report.importance) == 18
    assert abs(sum(report.importance) - 1.0) <= 1e-9
    assert min(report.importance) >= 0


def test_evaluate_confusion_sums_to_test_size():
    X, y = _oracle_dataset(n_pos=30, n_neg=50, seed=5)
    for algorithm in ("lr", "knn", "dt"):
        cfg = ml.TrainConfig(algorithm=algorithm, seed=6)
        report = evaluate(X, y, cfg, plan(y, cfg)[:1])
        assert report.confusion.total == len(train_test_split(y, 0.75, 6)[1])


def test_cross_validate_shape():
    X, y = _oracle_dataset(seed=7)
    cfg = ml.TrainConfig(algorithm="knn", seed=8, cv_folds=5)
    jobs = plan(y, cfg)
    scores = cross_validate(X, y, cfg, jobs)
    assert scores.shape == (5,)
    assert np.all((0.0 <= scores) & (scores <= 1.0))
    assert tuple(scores.tolist()) == evaluate(X, y, cfg, jobs).cv_accuracies


@pytest.mark.parametrize("cv_folds", [3, 10])
def test_plan_is_the_split_then_its_folds(cv_folds):
    for seed in range(10):
        y = np.random.default_rng(seed).permutation([1] * 37 + [0] * 71)
        cfg = ml.TrainConfig(seed=seed, cv_folds=cv_folds)
        jobs = plan(y, cfg)
        train, test = train_test_split(y, cfg.train_fraction, cfg.seed)
        assert np.array_equal(jobs[0][0], train) and np.array_equal(jobs[0][1], test)
        folds = kfold(y[train], cfg.cv_folds, derive_seed(cfg.seed, "cv"))
        assert len(jobs) == 1 + cv_folds
        for (fit, scored), (fold_fit, fold_val) in zip(jobs[1:], folds):
            assert np.array_equal(fit, train[fold_fit]) and np.array_equal(scored, train[fold_val])
            assert not np.isin(scored, fit).any()
        # the folds' scored rows partition the training side
        assert np.array_equal(np.sort(np.concatenate([scored for _, scored in jobs[1:]])), train)


def test_report_json_round_trip():
    X, y = _oracle_dataset(seed=9)
    cfg = ml.TrainConfig(algorithm="rf", seed=10, rf=ml.RFParams(n_trees=10))
    report = evaluate(X, y, cfg, plan(y, cfg))
    extra = {"config": {"seed": "10"}}
    doc = json.loads(report.to_json(extra))
    assert set(doc) == {
        "algorithm", "seed", "confusion", "accuracy", "f1", "cv_accuracies", "importance",
        "config",
    }
    assert doc["confusion"].keys() == {"tp", "fp", "fn", "tn"}
    assert doc == report.to_dict() | extra  # lossless: every float survives the JSON text


def test_write_kde_csv_format():
    X, y = _oracle_dataset(seed=11)
    buf = io.StringIO()
    write_kde_csv(X, y, ("savg_1", "dtw_1"), buf, comments={"seed": 11})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1] == "feature,class,x,density"
    body = [line.split(",") for line in lines[2:]]
    assert len(body) == 2 * 2 * 256  # two features, two classes, 256 grid points
    assert Counter(row[0] for row in body) == {"savg_1": 512, "dtw_1": 512}
    for row in body:
        assert row[1] in ("0", "1")
        float(row[2]), float(row[3])
        assert float(row[3]) >= 0
