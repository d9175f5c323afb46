"""Five binary classifiers with a uniform train/predict contract.

The roster covers logistic regression (lr), k-nearest neighbors (knn),
a random forest (rf), an RBF-kernel SVM (svm), and a single decision tree
(dt).  Training is a pure function of (X, y, config, seed); models are
immutable once fitted and serialize to versioned JSON documents.  Each
classifier is built from its Params record (the forest from RFParams and
DTParams), which holds every hyperparameter's default and range;
`from_config` picks those records out of a TrainConfig.  Fitted state
converts to and from JSON-ready params (`to_params`/`from_params`, which
rejects params its `predict` cannot use); MODELS maps each algorithm tag to
its class.  Every fitted or loaded model reports its input width as
`n_features_`.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .._schema import InputError
from ._input import check_fit_input, check_trainable
from .forest import RandomForest, RFParams, mdi_importance
from .knn import KNearestNeighbors, KNNParams
from .logistic import LogisticRegression, LRParams
from .svm import SupportVectorMachine, SVMParams
from .tree import DecisionTree, DTParams, gini

MODELS = {
    "lr": LogisticRegression,
    "knn": KNearestNeighbors,
    "rf": RandomForest,
    "svm": SupportVectorMachine,
    "dt": DecisionTree,
}
ALGORITHMS = tuple(MODELS)

MODEL_FORMAT_VERSION = 1

__all__ = [
    "ALGORITHMS",
    "MODELS",
    "DecisionTree",
    "KNearestNeighbors",
    "LogisticRegression",
    "RandomForest",
    "SupportVectorMachine",
    "TrainConfig",
    "LRParams",
    "KNNParams",
    "DTParams",
    "RFParams",
    "SVMParams",
    "gini",
    "mdi_importance",
    "train",
    "check_trainable",
    "predict",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class TrainConfig:
    """Algorithm choice, per-algorithm hyperparameters, the seed, and the
    holdout fraction and CV fold count used to evaluate the classifier."""

    algorithm: str = "rf"
    seed: int = 0
    lr: LRParams = field(default_factory=LRParams)
    knn: KNNParams = field(default_factory=KNNParams)
    dt: DTParams = field(default_factory=DTParams)
    rf: RFParams = field(default_factory=RFParams)
    svm: SVMParams = field(default_factory=SVMParams)
    train_fraction: float = 0.75
    cv_folds: int = 10

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")


def train(X, y, cfg: TrainConfig):
    """Train the configured classifier; deterministic in (X, y, cfg, seed)."""
    X, y = check_fit_input(X, y)
    check_trainable(y, cfg.algorithm, cfg.knn.k)
    return MODELS[cfg.algorithm].from_config(cfg).fit(X, y)


def predict(model, X) -> np.ndarray:
    """One {0,1} label per row of X."""
    return model.predict(X)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON documents


def model_to_dict(model) -> dict:
    algorithm = next((tag for tag, cls in MODELS.items() if type(model) is cls), None)
    if algorithm is None:
        raise ValueError(f"unknown model type {type(model).__name__}")
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm": algorithm,
        "params": model.to_params(),
    }


def model_from_dict(doc: dict):
    try:
        version = doc["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise InputError(None, f"unsupported model format version {version}")
        algorithm = doc["algorithm"]
        if algorithm not in MODELS:
            raise InputError(None, f"unknown algorithm {algorithm!r}")
        return MODELS[algorithm].from_params(doc["params"])
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise InputError(None, f"malformed model document ({exc})") from None


def save_model(model, path, extra: dict | None = None):
    """Write the model (plus optional extra top-level keys) as JSON."""
    doc = model_to_dict(model)
    if extra:
        doc.update(extra)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)  # no NaN or Infinity
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path):
    """Load a model saved by save_model; returns (model, full document).  A path
    that is unreadable, not UTF-8 or not JSON (too deep included) raises InputError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise InputError(None, f"cannot read {path}: {exc}") from exc
    return model_from_dict(doc), doc
