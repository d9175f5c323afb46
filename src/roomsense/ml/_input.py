"""Input checks shared by every classifier's `fit`, `predict` and `from_params`,
and by the saved standardizer."""

import numpy as np

from .._schema import ConfigError


def check_labels(labels):
    """Reject an empty label set and any label other than 0 and 1."""
    if labels.size == 0:
        raise ValueError("empty label set")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")


def _matrix(X):
    """X as a 2-D float matrix, after the shape and NaN checks."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if np.isnan(X).any():
        raise ValueError("X contains NaN")
    return X


def check_fit_input(X, y):
    """(X, y) as a float matrix and int labels, after the shape, NaN and label checks."""
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows but {len(y)} labels")
    check_labels(y)
    return X, y


def check_trainable(y, algorithm, k=None):
    """Refuse labels y that `algorithm` cannot be fit on with a ConfigError naming
    the key: knn needs at least k rows, every other classifier both classes."""
    if algorithm == "knn" and k > len(y):
        raise ConfigError(f"knn_k: k={k} exceeds the {len(y)} training samples")
    if algorithm != "knn" and y.min() == y.max():
        raise ConfigError(f"algorithm: {algorithm} requires both classes in the training data, "
                          f"but a fit would see only class {y[0]}")


def check_predict_input(X, n_features):
    """X as a float matrix of n_features columns, after the shape and NaN checks."""
    X = _matrix(X)
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    return X


def check_finite(name, values, ndim):
    """A saved-model field as a finite float array of ndim dimensions."""
    values = np.asarray(values, dtype=float)
    if values.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimension(s)")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values
