"""Classifier behavior: Gini, trees, forest, KNN, LR, SVM, and serialization."""

import json
import warnings

import numpy as np
import pytest
from oracles import best_split_oracle, smo_oracle, tree_predict_oracle

from roomsense import ml
from roomsense._seeds import generator
from roomsense._schema import build, flatten
from roomsense.evaluation import standardize_apply, standardize_fit
from roomsense.ml import (
    DecisionTree,
    DTParams,
    KNearestNeighbors,
    KNNParams,
    LogisticRegression,
    LRParams,
    RandomForest,
    RFParams,
    SupportVectorMachine,
    SVMParams,
    TrainConfig,
    gini,
    mdi_importance,
)
from roomsense.ml import svm
from roomsense.ml.svm import rbf_kernel
from roomsense.ml.tree import Node, _best_split


def separable_clusters(n=60, seed=0):
    """Two tight clusters in two features; margin > 2 after standardization."""
    rng = np.random.default_rng(seed)
    half = n // 2
    y = np.array([0] * half + [1] * (n - half))
    centers = np.where(y[:, None] == 1, 2.0, -2.0) * np.ones((n, 2))
    X = centers + rng.normal(0.0, 0.05, size=(n, 2))
    Xs = standardize_apply(standardize_fit(X), X)
    return Xs, y


def test_gini_examples():
    assert gini([1, 1, 1]) == 0.0
    assert gini([0, 0]) == 0.0
    assert gini([0, 1]) == 0.5
    assert gini([1, 1, 1, 0]) == pytest.approx(0.375, abs=1e-12)
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([0, 2])


def test_separable_margin_is_at_least_two():
    Xs, y = separable_clusters()
    gap = min(
        np.linalg.norm(a - b) for a in Xs[y == 0] for b in Xs[y == 1]
    )
    assert gap >= 2.0


@pytest.mark.parametrize("algorithm", ml.ALGORITHMS)
def test_all_classifiers_fit_separable_clusters(algorithm):
    Xs, y = separable_clusters()
    model = ml.train(Xs, y, TrainConfig(algorithm=algorithm, seed=1))
    assert np.array_equal(ml.predict(model, Xs), y)


def test_decision_tree_learns_xor():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = DecisionTree().fit(X, y)
    assert tree.depth() >= 2
    assert np.array_equal(tree.predict(X), y)
    # zero-gain root split resolves to the lowest feature index and threshold
    assert tree.root_.feature == 0
    assert tree.root_.threshold == 0.5


def test_decision_tree_memorizes_training_rows():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    tree = DecisionTree().fit(X, y)
    assert np.array_equal(tree.predict(X), y)


def test_decision_tree_splits_are_optimal_and_leaves_terminal():
    # every internal node must hold the max-decrease (feature, threshold),
    # ties to the lowest feature then lowest threshold; leaves are pure or
    # too small to split
    rng = np.random.default_rng(41)
    X = np.round(rng.normal(size=(60, 3)), 1)  # coarse values force threshold ties
    y = rng.integers(0, 2, size=60)
    tree = DecisionTree(DTParams(min_samples_split=5)).fit(X, y)

    def brute_best(Xn, yn):
        parent = gini(yn)
        best = None
        for f in range(Xn.shape[1]):
            values = np.unique(Xn[:, f])
            for lo, hi in zip(values, values[1:]):
                threshold = (lo + hi) / 2.0
                mask = Xn[:, f] <= threshold
                left, right = yn[mask], yn[~mask]
                weighted = (len(left) * gini(left) + len(right) * gini(right)) / len(yn)
                decrease = parent - weighted
                if best is None or decrease > best[2] + 1e-12:
                    best = (f, threshold, decrease)
        return best

    def walk(node, Xn, yn):
        if node.is_leaf:
            assert gini(yn) == 0.0 or len(yn) < 5
            return
        f, threshold, decrease = brute_best(Xn, yn)
        assert node.feature == f
        assert node.threshold == pytest.approx(threshold, abs=1e-12)
        assert node.impurity_decrease == pytest.approx(decrease, abs=1e-9)
        mask = Xn[:, node.feature] <= node.threshold
        walk(node.left, Xn[mask], yn[mask])
        walk(node.right, Xn[~mask], yn[~mask])

    walk(tree.root_, X, y)


def test_tree_and_forest_reject_non_binary_labels():
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        DecisionTree().fit(X, [0, 2, 1, 0])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        RandomForest(RFParams(n_trees=3)).fit(X, [0, 1, 2, 1])
    # the one bootstrap drawn with seed 4 misses row 2, whose label is bad
    assert 2 not in generator(4, "rf-tree", 0).integers(0, 4, size=4)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        RandomForest(RFParams(n_trees=1), seed=4).fit(X, [0, 1, 2, 1])


@pytest.mark.parametrize("algorithm", ml.ALGORITHMS)
def test_fit_rejects_bad_input(algorithm):
    X = np.arange(8.0).reshape(4, 2)
    cases = [
        (X, [0, 1, 0], "4 rows but 3 labels"),
        (X, [0, 2, 1, 0], "labels must be 0 or 1"),
        (np.where(X == 5.0, np.nan, X), [0, 1, 1, 0], "NaN"),
        (np.arange(4.0), [0, 1, 1, 0], "2-D"),
        (np.zeros((0, 2)), [], "empty label set"),
    ]
    for X_bad, y_bad, message in cases:
        with pytest.raises(ValueError, match=message):
            ml.MODELS[algorithm]().fit(X_bad, y_bad)


def test_svm_rejects_single_class():
    # lr, knn, dt and rf fit one class correctly; SMO would learn nothing and predict 0
    for label in (0, 1):
        with pytest.raises(ValueError, match="requires both classes"):
            SupportVectorMachine().fit([[0.0], [1.0], [2.0]], [label] * 3)


def _split_cases():
    """~500 seeded (X, y, feature_indices) nodes, including degenerate ones."""
    rng = np.random.default_rng(2024)
    for _ in range(420):
        n = int(rng.integers(2, 40))
        n_features = int(rng.integers(1, 19))
        X = np.round(rng.normal(size=(n, n_features)), 1)  # coarse values force ties
        if rng.random() < 0.2:
            X[:, rng.integers(n_features)] = 1.5  # one constant column
        y = rng.integers(0, 2, size=n)
        if rng.random() < 0.1:
            y[:] = rng.integers(0, 2)  # single-class node
        if n_features >= 4 and rng.random() < 0.5:
            features = np.sort(rng.choice(n_features, size=4, replace=False))
        else:
            features = np.arange(n_features)
        yield X, y, features
    for n in (2, 5, 30):
        for _ in range(20):
            y = rng.integers(0, 2, size=n)
            yield np.full((n, 6), -0.3), y, np.arange(6)  # every column constant
    for _ in range(20):
        yield np.round(rng.normal(size=(2, 5)), 1), np.array([0, 1]), np.arange(5)


def test_best_split_matches_per_feature_oracle():
    cases = list(_split_cases())
    assert len(cases) >= 500
    for X, y, features in cases:
        parent = gini(y)
        assert _best_split(X, y, features, parent) == best_split_oracle(X, y, features, parent)
    constant = [c for c in cases if np.all(c[0] == c[0][0])]
    assert constant and all(_best_split(X, y, f, gini(y)) is None for X, y, f in constant)


def test_tree_predict_matches_per_row_walk():
    rng = np.random.default_rng(17)
    X = np.round(rng.normal(size=(80, 4)), 1)
    y = rng.integers(0, 2, size=80)
    tree = DecisionTree().fit(X, y)
    thresholds = []

    def collect(node):
        if not node.is_leaf:
            thresholds.append((node.feature, node.threshold))
            collect(node.left)
            collect(node.right)

    collect(tree.root_)
    queries = np.round(rng.normal(size=(300, 4)), 2)
    for row, (feature, threshold) in zip(queries, thresholds * 2):
        row[feature] = threshold  # rows lying exactly on a split threshold
    assert len(thresholds) > 10
    assert np.array_equal(tree.predict(queries), tree_predict_oracle(tree.root_, queries))
    assert np.array_equal(tree.predict(X), tree_predict_oracle(tree.root_, X))
    assert tree.predict(np.zeros((0, 4))).shape == (0,)


def test_random_forest_trees_are_order_independent():
    # tree t's RNG stream depends only on (seed, t), so a one-tree forest
    # reproduces the first tree of a larger forest exactly
    Xs, y = separable_clusters(seed=33)
    small = RandomForest(RFParams(n_trees=1), seed=5).fit(Xs, y)
    large = RandomForest(RFParams(n_trees=4), seed=5).fit(Xs, y)
    to_dict = ml.model_to_dict
    assert to_dict(small)["params"]["trees"][0] == to_dict(large)["params"]["trees"][0]


def test_node_walk_is_pre_order_with_depths():
    root = Node(
        feature=1, threshold=0.0, n_samples=3,
        left=Node(feature=0, threshold=0.0, n_samples=2,
                  left=Node(value=0, n_samples=1), right=Node(value=1, n_samples=1)),
        right=Node(value=1, n_samples=1),
    )
    expected = [(root, 0), (root.left, 1), (root.left.left, 2), (root.left.right, 2),
                (root.right, 1)]
    walked = list(root.walk())
    assert len(walked) == len(expected)
    assert all(n is m and d == e for (n, d), (m, e) in zip(walked, expected))


def test_forest_predict_matches_per_tree_walk_fitted_and_loaded():
    rng = np.random.default_rng(23)
    X = np.round(rng.normal(size=(120, 6)), 1)
    y = rng.integers(0, 2, size=120)
    forest = RandomForest(RFParams(n_trees=9), seed=3).fit(X, y)
    loaded = ml.model_from_dict(json.loads(json.dumps(ml.model_to_dict(forest))))
    assert loaded.roots_ == forest.roots_
    queries = np.round(rng.normal(size=(200, 6)), 1)
    votes = sum(tree_predict_oracle(root, queries) for root in forest.roots_)
    assert ((0 < votes) & (votes < 9)).any()  # the trees disagree on some rows
    for model in (forest, loaded):
        assert np.array_equal(model.predict(queries), (2 * votes > 9).astype(int))


def test_decision_tree_respects_max_depth_and_min_samples_split():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 2))
    y = rng.integers(0, 2, size=50)
    assert DecisionTree(DTParams(max_depth=1)).fit(X, y).depth() <= 1
    assert DecisionTree(DTParams(min_samples_split=51)).fit(X, y).depth() == 0
    with pytest.raises(ValueError):
        DecisionTree(DTParams(min_samples_split=1))


def test_knn_k1_memorizes_training_set():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, size=30)
    model = KNearestNeighbors(KNNParams(k=1)).fit(X, y)
    assert np.array_equal(model.predict(X), y)


def test_knn_validation():
    with pytest.raises(ValueError):
        KNearestNeighbors(KNNParams(k=4))
    with pytest.raises(ValueError):
        KNearestNeighbors(KNNParams(k=0))
    with pytest.raises(ValueError):
        KNearestNeighbors(KNNParams(k=5)).fit(np.zeros((3, 1)), np.array([0, 1, 0]))


def test_knn_distance_tie_prefers_lower_row_index():
    X = np.array([[0.0], [1.0], [1.0]])
    y = np.array([1, 0, 1])
    model = KNearestNeighbors(KNNParams(k=1)).fit(X, y)
    assert model.predict(np.array([[1.0]]))[0] == 0  # rows 1 and 2 tie; row 1 wins


def test_knn_tolerates_single_class_training():
    X = np.arange(12.0).reshape(6, 2)
    y = np.ones(6, dtype=int)
    model = ml.train(X, y, TrainConfig(algorithm="knn", seed=0))
    assert np.array_equal(ml.predict(model, X), y)


def test_logistic_regression_tie_goes_to_class_one():
    model = LogisticRegression()
    model.weights_ = np.zeros(3)
    model.bias_ = 0.0
    assert model.predict(np.zeros((1, 3)))[0] == 1  # sigmoid(0) = 0.5 ties upward


def test_logistic_regression_loss_monotone_nonincreasing():
    Xs, y = separable_clusters()
    model = LogisticRegression(LRParams(learning_rate=0.1, iterations=1000)).fit(Xs, y)
    assert len(model.loss_history_) == 1001
    diffs = np.diff(model.loss_history_)
    assert np.all(diffs <= 1e-12)


def test_svm_zero_decision_maps_to_class_zero():
    model = SupportVectorMachine()
    model.X_ = np.zeros((0, 2))
    model.alphas_ = np.zeros(0)
    model.y_signed_ = np.zeros(0)
    model.bias_ = 0.0
    model.gamma_ = 1.0
    assert model.predict(np.zeros((1, 2)))[0] == 0


def test_svm_duals_bounded_and_kkt_satisfied():
    Xs, y = separable_clusters()
    model = SupportVectorMachine(SVMParams(c=1.0), seed=2).fit(Xs, y)
    assert np.all(model.alphas_ >= -1e-12)
    assert np.all(model.alphas_ <= model.params.c + 1e-12)
    decisions = model.decision_function(Xs)
    y_signed = np.where(y == 1, 1.0, -1.0)
    margins = y_signed * (decisions - y_signed)
    for alpha, margin in zip(model.alphas_, margins):
        if alpha < 1e-8:
            assert margin >= -model.params.tol
        elif alpha > model.params.c - 1e-8:
            assert margin <= model.params.tol
        else:
            assert abs(margin) <= model.params.tol


def _svm_matrix(seed):
    rng = np.random.default_rng(100 + seed)
    X = rng.normal(size=(120, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.normal(0.0, 0.7, size=120) > 0.5).astype(int)
    return standardize_apply(standardize_fit(X), X), y


def _duplicated_rows():
    Xs, y = _svm_matrix(3)
    return np.vstack([Xs[:60], Xs[:60]]), np.concatenate([y[:60], y[:60]])


def _three_positives():
    Xs, _ = _svm_matrix(4)
    y = np.zeros(120, dtype=int)
    y[[5, 50, 100]] = 1
    return Xs, y


# (X, y, params, seed) of fits the screened loop must reproduce exactly
SMO_CASES = {
    **{str(seed): lambda seed=seed: (*_svm_matrix(seed), SVMParams(), seed) for seed in range(10)},
    "tol-0": lambda: (*_svm_matrix(0), SVMParams(tol=0.0), 0),
    "c-1e-3": lambda: (*_svm_matrix(1), SVMParams(c=1e-3), 1),
    "c-1e3": lambda: (*_svm_matrix(2), SVMParams(c=1e3), 2),
    "gamma-1e-4": lambda: (*_svm_matrix(5), SVMParams(gamma=1e-4), 5),  # K ~ 1, eta ~ 0
    # eta ~ -1e-11: d / |eta| is wide enough that the dead-step screen must defer
    "gamma-1e-12": lambda: (*_svm_matrix(0), SVMParams(gamma=1e-12), 0),
    "gamma-1e3": lambda: (*_svm_matrix(6), SVMParams(gamma=1e3), 6),  # K ~ identity
    "duplicated-rows": lambda: (*_duplicated_rows(), SVMParams(), 3),
    "split-3-117": lambda: (*_three_positives(), SVMParams(), 4),
    "n-2": lambda: (_svm_matrix(7)[0][:2], np.array([0, 1]), SVMParams(), 7),
    "n-3": lambda: (_svm_matrix(8)[0][:3], np.array([1, 0, 1]), SVMParams(), 8),
}


@pytest.mark.parametrize("case", SMO_CASES)
def test_svm_fit_matches_smo_oracle(case):
    Xs, y, params, seed = SMO_CASES[case]()
    model = SupportVectorMachine(params, seed).fit(Xs, y)
    alphas, bias, sweeps, updates = smo_oracle(
        rbf_kernel(Xs, Xs, model.gamma_),
        np.where(y == 1, 1.0, -1.0),
        params.c,
        params.tol,
        params.max_passes,
        svm.MAX_SWEEPS,
        generator(seed, "svm"),
    )
    assert np.array_equal(model.alphas_, alphas)
    assert model.bias_ == bias
    assert (model.n_sweeps_, model.n_updates_) == (sweeps, updates)
    assert model.support_mask_.sum() > 0


def test_clip_matches_builtin_min_max():
    values = (-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, float("nan"))
    for x in values:
        for lo in values:
            for hi in values:
                assert repr(svm._clip(x, lo, hi)) == repr(min(hi, max(lo, x)))


def test_block_draws_equal_scalar_draws():
    """fit fetches its j draws in blocks; they must be the scalar calls' values."""
    for high in (1, 2, 119, 2**33):
        scalar, blocked = generator(3, "svm"), generator(3, "svm")
        expected = [int(scalar.integers(high)) for _ in range(2500)]
        draws = svm._draws(blocked, high)
        assert [next(draws) for _ in range(2500)] == expected


def test_decision_vector_bound_holds():
    """Random pair updates with C = 1e3 never push any g[k] past d from the exact f(k)."""
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    K = rbf_kernel(X, X, 0.5)
    y_signed = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    C = 1e3
    dv = svm.DecisionVector(K, y_signed, C)
    worst = 0.0
    for step in range(3000):
        if step == 1500:
            dv.refresh()
        i, j = rng.choice(40, size=2, replace=False)
        a_i, a_j = rng.choice([0.0, C, *rng.uniform(0.0, C, size=2)], size=2)
        dv.set(int(i), a_i, int(j), a_j, float(rng.normal(0.0, 300.0)))
        exact = np.array([float(dv.ay @ K[:, k] + dv.b) for k in range(40)])
        error = np.abs(dv.g - exact)
        assert (error <= dv.d).all(), step
        worst = max(worst, error.max())
    assert 0 < worst and dv.d < 1e-6


def test_svm_screen_settles_most_checks():
    Xs, y = _svm_matrix(0)
    model = SupportVectorMachine(seed=0).fit(Xs, y)
    assert model.n_updates_ > 0
    assert 2 * model.n_updates_ <= model.n_exact_ < model.n_sweeps_ * len(y) / 4


def test_svm_reports_convergence(monkeypatch):
    Xs, y = _svm_matrix(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = SupportVectorMachine(seed=0).fit(Xs, y)
    assert model.converged_ is True
    assert model.params.max_passes <= model.n_sweeps_ < svm.MAX_SWEEPS
    monkeypatch.setattr(svm, "MAX_SWEEPS", 1)
    with pytest.warns(RuntimeWarning, match="max_sweeps=1"):
        capped = SupportVectorMachine(seed=0).fit(Xs, y)
    assert capped.converged_ is False
    assert capped.n_sweeps_ == 1


def test_random_forest_even_vote_tie_goes_to_class_zero():
    forest = RandomForest(RFParams(n_trees=2))
    forest.n_features_ = 2
    forest.roots_ = [Node(value=0, n_samples=1), Node(value=1, n_samples=1)]
    assert forest.predict(np.zeros((1, 2)))[0] == 0


def test_random_forest_deterministic_per_seed():
    Xs, y = separable_clusters(seed=9)
    cfg = TrainConfig(algorithm="rf", seed=7, rf=ml.RFParams(n_trees=15))
    a = ml.model_to_dict(ml.train(Xs, y, cfg))
    b = ml.model_to_dict(ml.train(Xs, y, cfg))
    assert a == b
    other = ml.model_to_dict(
        ml.train(Xs, y, TrainConfig(algorithm="rf", seed=8, rf=ml.RFParams(n_trees=15)))
    )
    assert a != other


def test_mdi_single_split_is_one_hot():
    rng = np.random.default_rng(11)
    X = np.zeros((20, 5))
    X[:, 3] = np.concatenate([rng.uniform(0, 1, 10), rng.uniform(2, 3, 10)])
    y = np.array([0] * 10 + [1] * 10)
    forest = RandomForest(
        RFParams(n_trees=1, max_features=X.shape[1], bootstrap=False), seed=0
    ).fit(X, y)
    importance = mdi_importance(forest)
    expected = np.zeros(5)
    expected[3] = 1.0
    assert np.allclose(importance, expected, atol=1e-12)


def test_mdi_concentrates_on_single_informative_feature():
    rng = np.random.default_rng(13)
    n = 300
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, 18))
    X[:, 0] = 2.0 * y - 1.0
    # with every feature available per split the informative one takes all credit
    forest = RandomForest(RFParams(n_trees=100, max_features=X.shape[1]), seed=1).fit(X, y)
    importance = mdi_importance(forest)
    assert importance.shape == (18,)
    assert np.all(importance >= 0)
    assert abs(importance.sum() - 1.0) <= 1e-9
    assert importance[0] > 0.9
    # per-node feature sampling dilutes but never dethrones the signal feature
    diluted = mdi_importance(RandomForest(RFParams(n_trees=100), seed=1).fit(X, y))
    assert int(np.argmax(diluted)) == 0
    assert diluted[0] > 0.5


def test_mdi_of_forest_without_splits_is_all_zero():
    Xs, y = separable_clusters()
    forest = RandomForest(RFParams(n_trees=3), DTParams(max_depth=0), seed=0).fit(Xs, y)
    assert all(root.is_leaf for root in forest.roots_)
    importance = mdi_importance(forest)
    assert importance.shape == (Xs.shape[1],)
    assert not importance.any()


def test_mdi_rejects_other_models():
    Xs, y = separable_clusters()
    model = ml.train(Xs, y, TrainConfig(algorithm="dt"))
    with pytest.raises(ValueError):
        mdi_importance(model)


def test_train_input_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="NaN"):
        ml.train(np.array([[np.nan, 0.0]] * 4), np.array([0, 1, 0, 1]), TrainConfig("lr"))
    with pytest.raises(ValueError, match="labels"):
        ml.train(X, np.array([0, 2, 0, 1]), TrainConfig("lr"))
    with pytest.raises(ValueError, match="rows"):
        ml.train(X, np.array([0, 1]), TrainConfig("lr"))
    for algorithm in ("lr", "svm", "dt", "rf"):
        with pytest.raises(ValueError, match="both classes"):
            ml.train(X, np.zeros(4, dtype=int), TrainConfig(algorithm))


@pytest.mark.parametrize("algorithm", ml.ALGORITHMS)
def test_predict_rejects_bad_input(algorithm):
    Xs, y = separable_clusters()
    model = ml.train(Xs, y, TrainConfig(algorithm=algorithm, seed=1))
    cases = [
        (np.zeros((2, 5)), "expected 2 features, got 5"),
        (np.zeros(2), "2-D"),
        (np.array([[0.0, np.nan]]), "NaN"),
    ]
    for X_bad, message in cases:
        with pytest.raises(ValueError, match=message):
            ml.predict(model, X_bad)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(algorithm="mlp")
    with pytest.raises(ValueError):
        TrainConfig(knn=ml.KNNParams(k=4))
    with pytest.raises(ValueError):
        TrainConfig(rf=ml.RFParams(n_trees=0))
    with pytest.raises(ValueError):
        TrainConfig(svm=ml.SVMParams(c=0.0))
    with pytest.raises(ValueError):
        TrainConfig(lr=ml.LRParams(iterations=0))
    for max_features in (0, True, None):  # a bool is an int, but not a feature count
        with pytest.raises(ValueError, match="rf_max_features"):
            RFParams(max_features=max_features)


def test_train_config_hyperparams_round_trip():
    cfg = TrainConfig(
        algorithm="svm",
        seed=5,
        svm=ml.SVMParams(c=2.0, gamma=0.3, tol=1e-4, max_passes=7),
        dt=ml.DTParams(min_samples_split=4, max_depth=6, max_features=2),
    )
    assert build(TrainConfig, flatten(cfg), algorithm="svm", seed=5) == cfg


@pytest.mark.parametrize("algorithm", ml.ALGORITHMS)
def test_serialization_round_trip(tmp_path, algorithm):
    Xs, y = separable_clusters(seed=21)
    rng = np.random.default_rng(22)
    X_new = rng.normal(size=(25, 2))
    cfg = TrainConfig(algorithm=algorithm, seed=3, rf=ml.RFParams(n_trees=10))
    model = ml.train(Xs, y, cfg)
    path = tmp_path / f"model_{algorithm}.json"
    ml.save_model(model, path)
    loaded, doc = ml.load_model(path)
    assert doc["algorithm"] == algorithm
    assert np.array_equal(ml.predict(model, X_new), ml.predict(loaded, X_new))
    assert ml.model_to_dict(loaded) == ml.model_to_dict(model)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ml.ModelFormatError):
        ml.load_model(path)
    path.write_text('{"format_version": 99, "algorithm": "lr", "params": {}}', encoding="utf-8")
    with pytest.raises(ml.ModelFormatError):
        ml.load_model(path)
    Xs, y = separable_clusters(seed=21)
    for algorithm, key, bad in (("knn", "k", 4), ("svm", "gamma", "abc")):
        model = ml.train(Xs, y, TrainConfig(algorithm=algorithm, seed=1))
        doc = ml.model_to_dict(model)
        doc["params"][key] = bad
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ml.ModelFormatError, match="malformed"):
            ml.load_model(path)


def test_rf_importance_survives_serialization(tmp_path):
    rng = np.random.default_rng(31)
    y = rng.integers(0, 2, size=80)
    X = rng.normal(size=(80, 4))
    X[:, 2] += 3.0 * y
    forest = ml.train(X, y, TrainConfig(algorithm="rf", seed=2, rf=ml.RFParams(n_trees=10)))
    path = tmp_path / "rf.json"
    ml.save_model(forest, path)
    loaded, _ = ml.load_model(path)
    assert np.allclose(mdi_importance(forest), mdi_importance(loaded), atol=1e-12)
