"""Standardization, splits, cross-validation, metrics, and KDE analysis.

The headline numbers come from a stratified 75/25 holdout; 10-fold
cross-validation runs inside its training portion as a stability measure.
The split and the folds come from one plan, drawn once per evaluation.
Standardization statistics are fit on training data only.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import ml
from ._schema import ConfigError
from ._seeds import derive_seed, generator
from .dataset import csv_writer
from .features import FEATURE_NAMES
from .ml._input import check_finite


# ---------------------------------------------------------------------------
# Confusion matrix and derived metrics


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be >= 0")

    @classmethod
    def from_labels(cls, y_true, y_pred) -> "ConfusionMatrix":
        y_true = np.asarray(y_true, dtype=int)
        y_pred = np.asarray(y_pred, dtype=int)
        if len(y_true) != len(y_pred):
            raise ValueError("label arrays differ in length")
        return cls(
            tp=int(np.sum((y_pred == 1) & (y_true == 1))),
            fp=int(np.sum((y_pred == 1) & (y_true == 0))),
            fn=int(np.sum((y_pred == 0) & (y_true == 1))),
            tn=int(np.sum((y_pred == 0) & (y_true == 0))),
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def accuracy(cm: ConfusionMatrix) -> float:
    """(tp + tn) / total."""
    if cm.total == 0:
        raise ValueError("accuracy of an empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total


def f1(cm: ConfusionMatrix, positive_class: int = 1) -> float:
    """Harmonic mean of precision and recall for the chosen class.

    Choosing class 0 swaps the matrix roles.  When precision and recall are
    both zero the score is defined as 0.
    """
    if positive_class == 1:
        tp, fp, fn = cm.tp, cm.fp, cm.fn
    elif positive_class == 0:
        tp, fp, fn = cm.tn, cm.fn, cm.fp
    else:
        raise ValueError(f"positive_class must be 0 or 1, got {positive_class}")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Standardization (population statistics, fit on training data only)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature mean and std: equal lengths, finite, std >= 0."""

    mean: tuple[float, ...]
    std: tuple[float, ...]

    def __post_init__(self):
        mean = check_finite("standardizer mean", self.mean, 1)
        std = check_finite("standardizer std", self.std, 1)
        if len(mean) != len(std):
            raise ValueError(f"standardizer has {len(mean)} means but {len(std)} stds")
        if (std < 0).any():
            raise ValueError("standardizer std must be >= 0")

    def to_dict(self):
        return {"mean": list(self.mean), "std": list(self.std)}

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d["mean"]), tuple(d["std"]))


def standardize_fit(X_train) -> Standardizer:
    """Per-feature mean and population standard deviation of training rows."""
    X_train = np.asarray(X_train, dtype=float)
    if X_train.ndim != 2 or len(X_train) < 2:
        raise ValueError("standardize_fit needs a 2-D matrix with >= 2 rows")
    if np.isnan(X_train).any():
        raise ValueError("X contains NaN")
    mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)  # population (ddof=0); documented, keeps tests exact
    return Standardizer(tuple(float(m) for m in mean), tuple(float(s) for s in std))


def standardize_apply(s: Standardizer, X) -> np.ndarray:
    """Apply fitted statistics; constant features map to all-zero columns."""
    X = np.asarray(X, dtype=float)
    mean = np.array(s.mean)
    std = np.array(s.std)
    if X.ndim != 2 or X.shape[1] != len(mean):
        raise ValueError(f"expected {len(mean)} columns, got {X.shape}")
    scale = np.where(std == 0, 1.0, std)
    out = (X - mean) / scale
    out[:, std == 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Stratified splitting


def train_test_split(y, train_fraction: float, seed: int):
    """Stratified holdout split; returns sorted (train_idx, test_idx).

    Each class lands in the test side in proportion to its frequency
    (within one sample, via rounding), so 100/200 labels at 75/25 give a
    25/50 test split.
    """
    y = np.asarray(y, dtype=int)
    if not len(y):
        raise ValueError("no labels to split")
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = generator(seed, "split")
    test_parts = []
    for cls in np.unique(y):
        members = np.nonzero(y == cls)[0]
        if len(members) < 2:
            raise ValueError(f"class {cls} has {len(members)} sample(s); need >= 2")
        n_test = int(round(len(members) * (1.0 - train_fraction)))
        n_test = min(max(n_test, 1), len(members) - 1)  # keep both sides populated
        shuffled = rng.permutation(members)
        test_parts.append(shuffled[:n_test])
    test = np.zeros(len(y), dtype=bool)
    test[np.concatenate(test_parts)] = True
    return np.flatnonzero(~test), np.flatnonzero(test)


def kfold(y, k: int, seed: int):
    """Stratified k folds; returns k (train_idx, validation_idx) pairs.

    Class-grouped indices are dealt round-robin, so folds are pairwise
    disjoint, cover everything, stay within one sample of each other in
    size, and preserve class ratios within one sample per class.
    """
    y = np.asarray(y, dtype=int)
    n = len(y)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} samples")
    rng = generator(seed, "kfold")
    ordered = np.concatenate(
        [rng.permutation(np.nonzero(y == cls)[0]) for cls in np.unique(y)]
    )
    pairs = []
    for f in range(k):
        val = np.zeros(n, dtype=bool)
        val[ordered[f::k]] = True
        pairs.append((np.flatnonzero(~val), np.flatnonzero(val)))
    return pairs


# ---------------------------------------------------------------------------
# Kernel density estimation (Gaussian kernel, Silverman bandwidth)


def silverman_bandwidth(values) -> float:
    values = np.asarray(values, dtype=float)
    sigma = float(values.std(ddof=1))
    if sigma == 0:
        raise ValueError("zero spread: density degenerates to a point mass")
    return 1.06 * sigma * len(values) ** (-0.2)


def kde(values, grid) -> np.ndarray:
    """Gaussian-kernel density of the samples evaluated at the grid points."""
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if len(values) < 2:
        raise ValueError("kde needs at least 2 samples")
    h = silverman_bandwidth(values)
    z = (grid[:, None] - values[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (len(values) * h * math.sqrt(2.0 * math.pi))


def density_grid(*value_sets, points: int) -> np.ndarray:
    """Shared evaluation grid spanning all samples plus 3 bandwidths of margin."""
    bandwidths = [silverman_bandwidth(v) for v in value_sets]
    lo = min(float(np.min(v)) for v in value_sets) - 3.0 * max(bandwidths)
    hi = max(float(np.max(v)) for v in value_sets) + 3.0 * max(bandwidths)
    return np.linspace(lo, hi, points)


def overlap_coefficient(values_a, values_b) -> float:
    """Integral of min(f_a, f_b) over a shared 512-point grid; 1 means identical densities."""
    grid = density_grid(values_a, values_b, points=512)
    fa = kde(values_a, grid)
    fb = kde(values_b, grid)
    return float(np.trapezoid(np.minimum(fa, fb), grid))


# ---------------------------------------------------------------------------
# End-to-end evaluation


@dataclass(frozen=True)
class EvalReport:
    algorithm: str
    seed: int
    confusion: ConfusionMatrix
    accuracy: float
    f1_class0: float
    f1_class1: float
    cv_accuracies: tuple[float, ...]
    importance: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "confusion": asdict(self.confusion),
            "accuracy": self.accuracy,
            "f1": {"class0": self.f1_class0, "class1": self.f1_class1},
            "cv_accuracies": list(self.cv_accuracies),
            "importance": None if self.importance is None else list(self.importance),
        }

    def to_json(self, extra: dict) -> str:
        return json.dumps(self.to_dict() | extra, indent=2, sort_keys=True, allow_nan=False) + "\n"


def holdout(y, cfg: ml.TrainConfig) -> tuple:
    """The (train, test) rows into y of cfg.seed's split: `plan`'s first job, and all
    that a saved model scores."""
    return train_test_split(np.asarray(y, dtype=int), cfg.train_fraction, cfg.seed)


def plan(y, cfg: ml.TrainConfig) -> list:
    """Every fit of one evaluation as (fit rows, scored rows) into y: the holdout
    (train, test) of cfg.seed's split, then each CV fold as (train[fit], train[val]).
    A cv_folds that the training side cannot meet is a ConfigError naming it."""
    y = np.asarray(y, dtype=int)
    train_idx, test_idx = holdout(y, cfg)
    try:
        folds = kfold(y[train_idx], k=cfg.cv_folds, seed=derive_seed(cfg.seed, "cv"))
    except ValueError as exc:
        raise ConfigError(f"cv_folds: {exc}") from None
    if min(len(fit) for fit, _ in folds) < 2:  # each fit's standardizer needs 2 rows
        raise ConfigError(f"cv_folds: {cfg.cv_folds} folds of {len(train_idx)} samples leave "
                          "a fit of 1 row; need >= 2")
    return [(train_idx, test_idx)] + [(train_idx[fit], train_idx[val]) for fit, val in folds]


def fit(X, y, rows, cfg: ml.TrainConfig):
    """(model, standardizer) fit on X[rows], y[rows]; `rows` are one job's fit rows of `plan`."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=int)
    scaler = standardize_fit(X[rows])
    return ml.train(standardize_apply(scaler, X[rows]), y[rows], cfg), scaler


def _confusion(fitted, X, y, rows) -> ConfusionMatrix:
    model, scaler = fitted
    return ConfusionMatrix.from_labels(y[rows], ml.predict(model, standardize_apply(scaler, X[rows])))


def cross_validate(X, y, cfg: ml.TrainConfig, jobs) -> np.ndarray:
    """Accuracies on the CV folds of `jobs`, `plan(y, cfg)`; each fold refits its scaler."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    return np.array([accuracy(_confusion(fit(X, y, rows, cfg), X, y, scored))
                     for rows, scored in jobs[1:]])


def evaluate(X, y, cfg: ml.TrainConfig, jobs, fitted=None) -> EvalReport:
    """Score one classifier on the held-out rows of the stratified split.

    cfg.seed is the one seed: it draws the plan (the split and the CV folds
    inside its training side; `jobs` is `plan(y, cfg)`) and the model's own
    randomness.  It scores `jobs[0]` and cross-validates `jobs[1:]`, so
    `[holdout(y, cfg)]` scores the holdout alone, with no CV accuracies.
    `fitted` is what `fit` returns for the holdout's fit rows, `jobs[0][0]`,
    e.g. a saved model; without it the classifier is fit here.
    Random forests also report impurity-based feature importance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    fitted = fit(X, y, jobs[0][0], cfg) if fitted is None else fitted
    cm = _confusion(fitted, X, y, jobs[0][1])
    cv = cross_validate(X, y, cfg, jobs)
    importance = None
    if cfg.algorithm == "rf":
        importance = tuple(float(v) for v in ml.mdi_importance(fitted[0]))
    return EvalReport(
        algorithm=cfg.algorithm,
        seed=cfg.seed,
        confusion=cm,
        accuracy=accuracy(cm),
        f1_class0=f1(cm, positive_class=0),
        f1_class1=f1(cm, positive_class=1),
        cv_accuracies=tuple(float(a) for a in cv),
        importance=importance,
    )


def write_kde_csv(X, y, names, dest, comments: dict | None = None):
    """Class-conditional KDE curves of the named FEATURE_NAMES columns of X, each
    on a 256-point grid, as CSV rows `feature,class,x,density`."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    with csv_writer(dest, "feature,class,x,density", comments) as out:
        for name in names:
            idx = FEATURE_NAMES.index(name)
            per_class = [X[y == cls, idx] for cls in (0, 1)]
            try:
                grid = density_grid(*per_class, points=256)
            except ValueError:
                # degenerate column: all values identical within a class
                for cls, values in zip((0, 1), per_class):
                    if len(values) and float(np.ptp(values)) == 0.0:
                        out.write(f"# {name} class {cls}: point mass at {float(values[0])!r}\n")
                continue
            for cls, values in zip((0, 1), per_class):
                for gx, d in zip(grid, kde(values, grid)):
                    out.write(f"{name},{cls},{float(gx)!r},{float(d)!r}\n")
