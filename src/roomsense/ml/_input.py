"""Training-input checks shared by every classifier's `fit` and by `ml.train`."""

import numpy as np


def check_labels(labels):
    """Reject an empty label set and any label other than 0 and 1."""
    if labels.size == 0:
        raise ValueError("empty label set")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")


def check_fit_input(X, y):
    """(X, y) as a float matrix and int labels, after the shape, NaN and label checks."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows but {len(y)} labels")
    if np.isnan(X).any():
        raise ValueError("X contains NaN")
    check_labels(y)
    return X, y
