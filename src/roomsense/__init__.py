"""roomsense: same-room vs different-room classification from Wi-Fi RSSI traces.

Pipeline: simulate (or ingest) RSSI traces -> build a labeled pair dataset
with six features per access point -> train one of five classifiers ->
evaluate with holdout metrics, cross-validation, feature importance, and
class-conditional densities.
"""

from . import dataset, dtw, evaluation, features, ml, simulator
from .dataset import (
    Dataset,
    PairingConfig,
    PointRecord,
    Trace,
    build_pairs,
    ingest_traces,
    write_traces,
)
from .dtw import dtw_distance, dtw_path
from .evaluation import ConfusionMatrix, EvalReport, Standardizer, evaluate
from .features import FEATURE_NAMES, featurize_pair
from .ml import TrainConfig, predict, train
from .simulator import SimConfig, generate, path_loss_db, sample_rssi

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "PairingConfig",
    "PointRecord",
    "Trace",
    "build_pairs",
    "ingest_traces",
    "write_traces",
    "dtw_distance",
    "dtw_path",
    "ConfusionMatrix",
    "EvalReport",
    "Standardizer",
    "evaluate",
    "FEATURE_NAMES",
    "featurize_pair",
    "TrainConfig",
    "predict",
    "train",
    "SimConfig",
    "generate",
    "path_loss_db",
    "sample_rssi",
    "dataset",
    "dtw",
    "evaluation",
    "features",
    "ml",
    "simulator",
]
