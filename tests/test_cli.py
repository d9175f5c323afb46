"""Command-line pipeline: stage outputs, composability, determinism, exit codes."""

import hashlib
import json
import random
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from roomsense import cli, dataset, evaluation, ml
from roomsense.dataset import ingest_traces
from roomsense.features import FEATURE_CSV_HEADER, read_feature_matrix, write_feature_matrix

SMALL_CONFIG = """\
# small geometry keeps the suite fast
devices_per_room=4
trials=3
samples_per_trial=4
n_positive=10
n_negative=14
rf_n_trees=5
lr_iterations=200
knn_k=3
cv_folds=3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return str(path)


def run(*argv):
    return cli.main(list(argv))


def read_bytes_by_name(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_simulate_writes_ingestible_traces(tmp_path, config_path):
    out = tmp_path / "out"
    assert run("simulate", "--config", config_path, "--seed", "42", "--out", str(out)) == 0
    records = ingest_traces(out / "traces.csv")
    assert len(records) == 8
    text = (out / "traces.csv").read_text()
    assert text.startswith("# seed=42\n")


def test_simulate_with_overflowing_path_loss_exits_0(tmp_path):
    # 10 * gamma overflows to inf: readings past the floor read -100 dBm
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG + "gamma=1e308\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("simulate", "--config", str(cfg), "--seed", "42", "--out", str(out)) == 0
    values = {v for p in ingest_traces(out / "traces.csv") for t in p.traces.values()
              for v in t.values}
    assert -100 in values and all(-100 <= v <= 0 for v in values)


def test_evaluate_svm_with_overflowing_gamma_exits_0(tmp_path, saved_models):
    # gamma * d^2 overflows to inf: the kernel takes its limit, 0 between distinct rows
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG + "svm_gamma=1e308\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evaluate", str(saved_models / "features.csv"), "--algorithm", "svm",
                   "--config", str(cfg), "--seed", "42", "--out", str(out)) == 0
    # each held-out row scores the bias alone, so all of them get one class
    confusion = json.loads((out / "report_svm.json").read_text())["confusion"]
    assert 0 in (confusion["tp"] + confusion["fp"], confusion["tn"] + confusion["fn"])


def test_featurize_produces_labeled_matrix(tmp_path, config_path):
    out = tmp_path / "out"
    run("simulate", "--config", config_path, "--seed", "42", "--out", str(out))
    assert run(
        "featurize", str(out / "traces.csv"),
        "--config", config_path, "--seed", "42", "--out", str(out),
    ) == 0
    X, y = read_feature_matrix(out / "features.csv")
    assert X.shape == (24, 18)
    assert int(np.sum(y == 1)) == 10 and int(np.sum(y == 0)) == 14
    data_lines = [
        line for line in (out / "features.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(data_lines) == 1 + 24  # header + samples
    assert all(len(line.split(",")) == 19 for line in data_lines)


def test_default_pipeline_emits_300_samples(tmp_path):
    out = tmp_path / "out"
    run("simulate", "--seed", "7", "--out", str(out))
    assert run("featurize", str(out / "traces.csv"), "--seed", "7", "--out", str(out)) == 0
    X, y = read_feature_matrix(out / "features.csv")
    assert X.shape == (300, 18)
    assert int(np.sum(y == 1)) == 100 and int(np.sum(y == 0)) == 200


def test_train_then_evaluate_model_matches_direct_evaluate(tmp_path, config_path):
    out = tmp_path / "out"
    run("simulate", "--config", config_path, "--seed", "42", "--out", str(out))
    run("featurize", str(out / "traces.csv"), "--config", config_path, "--seed", "42",
        "--out", str(out))
    assert run(
        "train", str(out / "features.csv"), "--config", config_path, "--seed", "42",
        "--out", str(out), "--algorithm", "rf",
    ) == 0
    model_doc = json.loads((out / "model_rf.json").read_text())
    assert model_doc["algorithm"] == "rf"
    assert "standardizer" in model_doc["pipeline"]

    direct = tmp_path / "direct"
    assert run(
        "evaluate", str(out / "features.csv"), "--config", config_path, "--seed", "42",
        "--out", str(direct), "--algorithm", "rf",
    ) == 0
    via_model = tmp_path / "via_model"
    assert run(
        "evaluate", str(out / "features.csv"), "--config", config_path, "--seed", "42",
        "--out", str(via_model), "--model", str(out / "model_rf.json"),
    ) == 0
    # the saved model scores the holdout alone: every field but the empty CV accuracies
    direct_report = json.loads((direct / "report_rf.json").read_text())
    assert len(direct_report["cv_accuracies"]) == 3
    assert json.loads((via_model / "report_rf.json").read_text()) == direct_report | {
        "cv_accuracies": []}


def test_evaluate_importance_and_kde_outputs(tmp_path, config_path):
    out = tmp_path / "out"
    run("simulate", "--config", config_path, "--seed", "3", "--out", str(out))
    run("featurize", str(out / "traces.csv"), "--config", config_path, "--seed", "3",
        "--out", str(out))
    assert run(
        "evaluate", str(out / "features.csv"), "--config", config_path, "--seed", "3",
        "--out", str(out), "--algorithm", "rf", "--importance", "--kde",
    ) == 0
    report = json.loads((out / "report_rf.json").read_text())
    assert len(report["importance"]) == 18
    assert abs(sum(report["importance"]) - 1.0) <= 1e-9
    importance_rows = [
        line for line in (out / "importance.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert importance_rows[0] == "feature,importance"
    assert len(importance_rows) == 19
    kde_rows = [
        line for line in (out / "kde.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert kde_rows[0] == "feature,class,x,density"
    names = {row.split(",")[0] for row in kde_rows[1:]}
    # degenerate (zero-spread) features are reported as point-mass comments
    assert names <= set(cli.KDE_EXPORT_FEATURES)
    assert names


def test_stage_outputs_match_pinned_digests(tmp_path):
    # these seed-42 files involve no BLAS and no exp: traces and features,
    # and the tree and kNN files (standardization, Gini arithmetic, sqrt and
    # sorts), so their digests hold on any CPU; the rest are pinned by perfbench only
    pinned = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text(encoding="utf-8")
    )["paper-default"]["*"]
    assert run("simulate", "--seed", "42", "--out", str(tmp_path)) == 0
    features = str(tmp_path / "features.csv")
    assert run("featurize", str(tmp_path / "traces.csv"), "--seed", "42",
               "--out", str(tmp_path)) == 0
    for algorithm in ("rf", "dt", "knn"):
        assert run("train", features, "--algorithm", algorithm, "--seed", "42",
                   "--out", str(tmp_path)) == 0
    assert run("evaluate", features, "--algorithm", "dt", "--seed", "42",
               "--out", str(tmp_path)) == 0
    names = ("traces.csv", "features.csv", "model_rf.json", "model_dt.json", "report_dt.json",
             "model_knn.json")
    for name in names:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned[name], name


# features.csv of a small run with trial_matching=random (seed 5); the
# pinned seed-42 digests above cover only the "equal" trial matching
RANDOM_MATCHING_CONFIG = """\
devices_per_room=4
trials=3
samples_per_trial=4
n_positive=40
n_negative=60
trial_matching=random
"""
RANDOM_MATCHING_FEATURES_SHA256 = "4d2d669ed9bde784b9de6a30a5f03ae2aff6832e19444b930365a4e05ef410b0"


def test_random_trial_matching_features_match_pinned_digest(tmp_path):
    cfg = tmp_path / "random.cfg"
    cfg.write_text(RANDOM_MATCHING_CONFIG, encoding="utf-8")
    assert run("simulate", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path)) == 0
    assert run("featurize", str(tmp_path / "traces.csv"), "--config", str(cfg),
               "--seed", "5", "--out", str(tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / "features.csv").read_bytes()).hexdigest()
    assert digest == RANDOM_MATCHING_FEATURES_SHA256


def test_benchmark_is_deterministic(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("benchmark", "--config", config_path, "--seed", "42", "--out", str(out_a)) == 0
    assert run("benchmark", "--config", config_path, "--seed", "42", "--out", str(out_b)) == 0
    files_a = read_bytes_by_name(out_a)
    files_b = read_bytes_by_name(out_b)
    assert set(files_a) == set(files_b)
    assert files_a == files_b
    expected = {"traces.csv", "features.csv", "benchmark.csv"}
    expected |= {f"model_{a}.json" for a in ("lr", "knn", "rf", "svm", "dt")}
    expected |= {f"report_{a}.json" for a in ("lr", "knn", "rf", "svm", "dt")}
    assert set(files_a) == expected


def test_benchmark_differs_across_seeds(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run("benchmark", "--config", config_path, "--seed", "1", "--out", str(out_a))
    run("benchmark", "--config", config_path, "--seed", "2", "--out", str(out_b))
    assert (out_a / "traces.csv").read_bytes() != (out_b / "traces.csv").read_bytes()


def test_benchmark_matches_stage_commands(tmp_path, config_path):
    bench = tmp_path / "bench"
    run("benchmark", "--config", config_path, "--seed", "42", "--out", str(bench))

    stages = tmp_path / "stages"
    run("simulate", "--config", config_path, "--seed", "42", "--out", str(stages))
    run("featurize", str(stages / "traces.csv"), "--config", config_path, "--seed", "42",
        "--out", str(stages))
    for algorithm in ("lr", "knn", "rf", "svm", "dt"):
        for command in ("train", "evaluate"):
            assert run(command, str(stages / "features.csv"), "--config", config_path,
                       "--seed", "42", "--out", str(stages), "--algorithm", algorithm) == 0

    # benchmark computes in memory what the stage commands pass through files
    assert set(read_bytes_by_name(stages)) == set(read_bytes_by_name(bench)) - {"benchmark.csv"}
    for name, content in read_bytes_by_name(stages).items():
        assert (bench / name).read_bytes() == content, name

    table = [
        line for line in (bench / "benchmark.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert table[0] == "algorithm,accuracy,f1_class0,f1_class1"
    assert [row.split(",")[0] for row in table[1:]] == ["lr", "knn", "rf", "svm", "dt"]
    svm_row = table[4].split(",")
    report = json.loads((bench / "report_svm.json").read_text())
    assert float(svm_row[1]) == report["accuracy"]


def test_flag_overrides_config_file(tmp_path, config_path):
    out = tmp_path / "out"
    run("simulate", "--config", config_path, "--seed", "5", "--out", str(out))
    run("featurize", str(out / "traces.csv"), "--config", config_path, "--seed", "5",
        "--out", str(out))
    cfg_with_algo = tmp_path / "algo.cfg"
    cfg_with_algo.write_text(SMALL_CONFIG + "algorithm=lr\n", encoding="utf-8")
    assert run(
        "evaluate", str(out / "features.csv"), "--config", str(cfg_with_algo),
        "--seed", "5", "--out", str(out), "--algorithm", "dt",
    ) == 0
    assert (out / "report_dt.json").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_algorithm_help_names_every_classifier(capsys, command):
    # --algorithm is parsed as the config key, so its help is the one list of choices
    with pytest.raises(SystemExit) as exited:
        run(command, "--help")
    assert exited.value.code == 0
    assert "lr, knn, rf, svm, dt (default: rf)" in " ".join(capsys.readouterr().out.split())


def _first_leaf(node):
    while "value" not in node:
        node = node["left"]
    return node


def _first_split(trees):
    return next(tree for tree in trees if "feature" in tree)


def _scaler(doc):
    return doc["pipeline"]["standardizer"]


def _drop_last_scaled_feature(doc):
    _scaler(doc)["mean"].pop()
    _scaler(doc)["std"].pop()


def _nested_tree_text(doc, depth):
    """The document's text with a tree of `depth` nested splits, deeper than `json`
    decodes or `Node.from_dict` recurses (`json.dumps` cannot write it either)."""
    doc["params"]["tree"] = None
    leaf = '{"value": 0, "n": 1}'
    split = f'{{"feature": 0, "threshold": 0.0, "decrease": 0.0, "n": 1, "right": {leaf}, "left": '
    tree = split * depth + leaf + "}" * depth
    return json.dumps(doc).replace('"tree": null', f'"tree": {tree}')


# saved-model edits that loading must reject: (algorithm, edit of the whole document,
# which returns the document's text when json.dumps cannot write it)
TAMPERED_MODELS = {
    "dt-split-feature-99": ("dt", lambda d: d["params"]["tree"].update(feature=99)),
    "rf-split-feature-negative":
        ("rf", lambda d: _first_split(d["params"]["trees"]).update(feature=-1)),
    "svm-gamma-negative": ("svm", lambda d: d["params"].update(gamma=-1.0)),
    "svm-alphas-one-short": ("svm", lambda d: d["params"]["alphas"].pop()),
    "knn-y-one-short": ("knn", lambda d: d["params"]["y"].pop()),
    "knn-y-all-2": ("knn", lambda d: d["params"].update(y=[2] * len(d["params"]["y"]))),
    "lr-weight-nan": ("lr", lambda d: d["params"]["weights"].__setitem__(0, float("nan"))),
    "dt-leaf-value-7": ("dt", lambda d: _first_leaf(d["params"]["tree"]).update(value=7)),
    "dt-threshold-nan": ("dt", lambda d: d["params"]["tree"].update(threshold=float("nan"))),
    "knn-k-float": ("knn", lambda d: d["params"].update(k=3.0)),
    "rf-decrease-nan":
        ("rf", lambda d: _first_split(d["params"]["trees"]).update(decrease=float("nan"))),
    "rf-root-n-zero": ("rf", lambda d: d["params"]["trees"][0].update(n=0)),
    "lr-std-one-short": ("lr", lambda d: _scaler(d)["std"].pop()),
    "lr-mean-abc": ("lr", lambda d: _scaler(d)["mean"].__setitem__(0, "abc")),
    "lr-mean-nan": ("lr", lambda d: _scaler(d)["mean"].__setitem__(0, float("nan"))),
    "lr-std-negative": ("lr", lambda d: _scaler(d)["std"].__setitem__(0, -1.0)),
    "lr-std-inf": ("lr", lambda d: _scaler(d)["std"].__setitem__(0, float("inf"))),
    "lr-scaler-one-feature-short": ("lr", _drop_last_scaled_feature),
    "svm-scaler-one-feature-short": ("svm", _drop_last_scaled_feature),
    "knn-scaler-one-feature-short": ("knn", _drop_last_scaled_feature),
    "lr-weight-400-digits": ("lr", lambda d: d["params"]["weights"].__setitem__(0, 10**400)),
    "lr-mean-400-digits": ("lr", lambda d: _scaler(d)["mean"].__setitem__(0, 10**400)),
    "knn-y-1e308": ("knn", lambda d: d["params"]["y"].__setitem__(0, 1e308)),
    "svm-n-features-inf": ("svm", lambda d: d["params"].update(n_features=float("inf"))),
    "dt-tree-5000-deep": ("dt", lambda d: _nested_tree_text(d, 5000)),
    "dt-echo-algorithm-lr": ("dt", lambda d: d["config"].update(algorithm="lr")),
}


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """A small benchmark's features and models; each model evaluates cleanly as saved."""
    out = tmp_path_factory.mktemp("saved")
    cfg = out / "run.cfg"
    cfg.write_text(SMALL_CONFIG, encoding="utf-8")
    assert run("benchmark", "--config", str(cfg), "--seed", "42", "--out", str(out)) == 0
    for algorithm in ("lr", "knn", "rf", "svm", "dt"):
        assert run("evaluate", str(out / "features.csv"), "--out", str(out / "check"),
                   "--model", str(out / f"model_{algorithm}.json")) == 0
    assert "feature" in json.loads((out / "model_dt.json").read_text())["params"]["tree"]
    return out


@pytest.mark.parametrize("case", TAMPERED_MODELS)
def test_tampered_model_exits_2(tmp_path, saved_models, capsys, case):
    algorithm, tamper = TAMPERED_MODELS[case]
    doc = json.loads((saved_models / f"model_{algorithm}.json").read_text())
    model = tmp_path / "model.json"
    text = tamper(doc)
    model.write_text(text if isinstance(text, str) else json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert run("evaluate", str(saved_models / "features.csv"), "--out", str(out),
               "--model", str(model)) == 2
    assert capsys.readouterr().err.startswith("error: input: ")
    assert not out.exists()


def test_scaler_width_mismatch_exits_2_naming_both_counts(tmp_path, saved_models, capsys):
    doc = json.loads((saved_models / "model_lr.json").read_text())
    _drop_last_scaled_feature(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert run("evaluate", str(saved_models / "features.csv"), "--out", str(out),
               "--model", str(model)) == 2
    assert "standardizer has 17 features but the model has 18" in capsys.readouterr().err
    assert not out.exists()  # rejected before any output is written


def test_saved_model_reports_match_benchmark_reports(saved_models):
    """`evaluate --model` runs and echoes the model's own config, as benchmark did, and
    scores the holdout alone: every field is benchmark's but the empty CV accuracies."""
    for algorithm in ("lr", "knn", "rf", "svm", "dt"):
        name = f"report_{algorithm}.json"
        benchmark = json.loads((saved_models / name).read_text())
        assert len(benchmark["cv_accuracies"]) == 3
        saved = json.loads((saved_models / "check" / name).read_text())
        assert saved == benchmark | {"cv_accuracies": []}, algorithm


def test_saved_model_is_scored_without_a_fit(tmp_path, saved_models, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("evaluate --model fit a classifier or drew CV folds")
    monkeypatch.setattr(ml, "train", no_fit)
    features = str(saved_models / "features.csv")
    for algorithm in ("lr", "knn", "rf", "svm", "dt"):
        out = tmp_path / algorithm
        assert run("evaluate", features, "--model", str(saved_models / f"model_{algorithm}.json"),
                   "--out", str(out)) == 0
        assert (out / f"report_{algorithm}.json").read_bytes() == (
            saved_models / "check" / f"report_{algorithm}.json").read_bytes()
    # one class is no refusal: no fit sees it, and the holdout holds 4 of its 14 rows
    X, y = read_feature_matrix(features)
    write_feature_matrix(X[y == 0], y[y == 0], tmp_path / "one-class.csv")
    out = tmp_path / "one-class"
    assert run("evaluate", str(tmp_path / "one-class.csv"),
               "--model", str(saved_models / "model_lr.json"), "--out", str(out)) == 0
    confusion = json.loads((out / "report_lr.json").read_text())["confusion"]
    assert confusion["tp"] == confusion["fn"] == 0 and confusion["fp"] + confusion["tn"] == 4
    # too few rows for the model's cv_folds=3 is no refusal either: no fold is drawn
    two_per_class = [*np.flatnonzero(y == 0)[:2], *np.flatnonzero(y == 1)[:2]]
    write_feature_matrix(X[two_per_class], y[two_per_class], tmp_path / "two-per-class.csv")
    monkeypatch.setattr(evaluation, "kfold", no_fit)
    out = tmp_path / "two-per-class"
    assert run("evaluate", str(tmp_path / "two-per-class.csv"),
               "--model", str(saved_models / "model_dt.json"), "--out", str(out)) == 0
    report = json.loads((out / "report_dt.json").read_text())
    assert report["cv_accuracies"] == [] and sum(report["confusion"].values()) == 2


# trace files for featurize, by name: the rows after the header
TRACE_FILES = {
    "header-only": "",
    "bad-row": "1,1,1,0,0,-50\n1,1,1,0,x,-50\n",
    "one-point-in-a-room": "".join(f"{x},1,{ap},0,0,-50\n" for x in (-1, 1) for ap in (1, 2, 3)),
    "no-trial-with-every-ap": "1,1,1,0,0,-50\n",
    "rssi-99": "1,1,1,0,0,99\n",
    "rssi-huge": f"1,1,1,0,0,{-10**30}\n",
    "point-x-nan": "nan,1,1,0,0,-50\n",
}

# (argv, config lines, exit code, stderr fragment) of runs refused before
# `--out` exists.  "features", "traces", "one-class", "no-rows" and "model"
# name input files, and so does each TRACE_FILES name.  "missing" names no
# file, "directory" a directory, and "non-utf-8-<kind>" the saved file of that
# kind with a 0xff byte near its end; "{tmp}" in a message is the directory of
# these files.  "two-per-class" holds 2 rows of each class.  The config
# lines' file is passed before the rest of argv, so an argv's own `--config`
# wins.  The saved features have 24 rows, 18 of them on the training side,
# and 16 in the smallest of 10 fold fits; the saved traces hold 36 positive
# (pair, trial) combinations.
REFUSED_RUNS = {
    "featurize-traces-missing": (
        ("featurize", "missing"), "", 2, "missing: [Errno 2] No such file or directory"),
    "featurize-traces-directory": (
        ("featurize", "directory"), "", 2, "directory: [Errno 21] Is a directory"),
    "featurize-traces-non-utf-8": (
        ("featurize", "non-utf-8-traces"), "", 2,
        "line 321: cannot read {tmp}/non-utf-8-traces: 'utf-8' codec can't decode byte 0xff "
        "in position 14234"),
    "train-features-missing": (
        ("train", "missing"), "", 2, "missing: [Errno 2] No such file or directory"),
    "train-features-directory": (
        ("train", "directory"), "", 2, "directory: [Errno 21] Is a directory"),
    "train-features-argument-missing": (
        ("train",), "", 3, "error: config: the following arguments are required: features\n"),
    "train-features-non-utf-8": (
        ("train", "non-utf-8-features"), "", 2,
        "line 57: cannot read {tmp}/non-utf-8-features: 'utf-8' codec can't decode byte 0xff "
        "in position 4009"),
    "evaluate-features-missing": (
        ("evaluate", "missing"), "", 2, "missing: [Errno 2] No such file or directory"),
    "evaluate-model-missing": (
        ("evaluate", "features", "--model", "missing"), "", 2,
        "missing: [Errno 2] No such file or directory"),
    "evaluate-model-directory": (
        ("evaluate", "features", "--model", "directory"), "", 2,
        "directory: [Errno 21] Is a directory"),
    "evaluate-model-non-utf-8": (
        ("evaluate", "features", "--model", "non-utf-8-model"), "", 2,
        "non-utf-8-model: 'utf-8' codec can't decode byte 0xff"),
    "simulate-config-missing": (
        ("simulate", "--config", "missing"), "", 3,
        "missing: [Errno 2] No such file or directory"),
    "simulate-config-directory": (
        ("simulate", "--config", "directory"), "", 3, "directory: [Errno 21] Is a directory"),
    "simulate-config-non-utf-8": (
        ("simulate", "--config", "non-utf-8-config"), "", 3,
        "non-utf-8-config: 'utf-8' codec can't decode byte 0xff"),
    "simulate-unknown-flag": (
        ("simulate", "--bogus"), "", 3, "error: config: unrecognized arguments: --bogus\n"),
    "simulate-one-device-per-room": (
        ("simulate",), "devices_per_room=1", 3,
        "error: config: devices_per_room: 1 device(s) per room leave no pair within a room"),
    "featurize-traces-header-only": (
        ("featurize", "header-only"), "", 2, "error: input: no points to pair"),
    "featurize-traces-bad-row": (
        ("featurize", "bad-row"), "", 2, "error: input: line 3: unparseable field"),
    "featurize-traces-one-point-in-a-room": (
        ("featurize", "one-point-in-a-room"), "", 2,
        "error: input: room 'left' has 1 point(s); need >= 2"),
    "featurize-traces-no-trial-with-every-ap": (
        ("featurize", "no-trial-with-every-ap"), "", 2,
        "error: input: point (1.0, 1.0) lacks a trace for every access point"),
    "featurize-traces-rssi-99": (
        ("featurize", "rssi-99"), "", 2, "rssi is reported in negative dBm, got 99"),
    "featurize-traces-rssi-huge": (
        ("featurize", "rssi-huge"), "", 2,
        "error: input: line 2: rssi must be >= -32768 dBm, got -1000000000000000000000000000000\n"),
    "featurize-traces-point-x-nan": (
        ("featurize", "point-x-nan"), "", 2, "non-finite coordinate (nan, 1.0)"),
    "featurize-no-samples": (
        ("featurize", "traces"), "n_positive=0\nn_negative=0", 3,
        "error: config: n_positive, n_negative: both are 0, so there is nothing to fit"),
    "featurize-pair-count-unreachable": (
        ("featurize", "traces"), "n_positive=100000", 3,
        "error: config: n_positive: 100000 samples requested but only 36 distinct (pair, trial)"),
    "train-features-without-rows": (
        ("train", "no-rows"), "", 2, "error: input: line 1: no samples in the file"),
    "evaluate-features-without-rows": (
        ("evaluate", "no-rows"), "", 2, "error: input: line 1: no samples in the file"),
    "train-algorithm-unknown": (
        ("train", "features", "--algorithm", "xyz"), "", 3,
        "error: config: algorithm must be one of ('lr', 'knn', 'rf', 'svm', 'dt'), got 'xyz'"),
    "evaluate-algorithm-unknown": (
        ("evaluate", "features", "--algorithm", "xyz"), "", 3,
        "error: config: algorithm must be one of ('lr', 'knn', 'rf', 'svm', 'dt'), got 'xyz'"),
    "train-cv-folds-over-samples": (
        ("train", "features"), "cv_folds=19", 3, "cv_folds: cannot make 19 folds from 18"),
    "evaluate-cv-folds-over-train-side": (
        ("evaluate", "features"), "cv_folds=19", 3, "cv_folds: cannot make 19 folds from 18"),
    "train-knn-k-over-samples": (
        ("train", "features", "--algorithm", "knn"), "knn_k=19", 3,
        "error: config: knn_k: k=19 exceeds the 18 training samples\n"),
    "evaluate-knn-k-over-samples": (
        ("evaluate", "features", "--algorithm", "knn"), "knn_k=19", 3,
        "error: config: knn_k: k=19 exceeds the 18 training samples\n"),
    "train-knn-k-over-cv-fold-samples": (
        ("train", "features", "--algorithm", "knn"), "knn_k=17", 3,
        "error: config: knn_k: k=17 exceeds the 16 training samples\n"),
    "evaluate-knn-k-over-cv-fold-samples": (
        ("evaluate", "features", "--algorithm", "knn"), "knn_k=17", 3,
        "error: config: knn_k: k=17 exceeds the 16 training samples\n"),
    "train-cv-fit-of-one-row": (
        ("train", "two-per-class", "--algorithm", "knn"), "cv_folds=2\nknn_k=1", 3,
        "error: config: cv_folds: 2 folds of 2 samples leave a fit of 1 row; need >= 2"),
    "evaluate-cv-fit-of-one-row": (
        ("evaluate", "two-per-class", "--algorithm", "knn"), "cv_folds=2\nknn_k=1", 3,
        "error: config: cv_folds: 2 folds of 2 samples leave a fit of 1 row; need >= 2"),
    "train-lr-diverges": (
        ("train", "features", "--algorithm", "lr"), "lr_learning_rate=1e308", 3,
        "error: config: lr_learning_rate: gradient descent at 1e+308 diverges to non-finite "
        "weights\n"),
    "train-lr-one-class": (
        ("train", "one-class", "--algorithm", "lr"), "", 3,
        "error: config: algorithm: lr requires both classes in the training data, "
        "but a fit would see only class 0"),
    "evaluate-lr-one-class": (
        ("evaluate", "one-class", "--algorithm", "lr"), "", 3,
        "error: config: algorithm: lr requires both classes in the training data"),
    "evaluate-importance-not-rf": (
        ("evaluate", "features", "--algorithm", "lr", "--importance"), "", 3,
        "error: config: --importance requires the rf algorithm\n"),
    "evaluate-kde-one-class": (
        ("evaluate", "one-class", "--algorithm", "knn", "--kde"), "", 3,
        "error: config: --kde requires both classes, but "),
    "evaluate-model-other-seed": (
        ("evaluate", "features", "--model", "model", "--seed", "7"), "", 3,
        "seed=7 contradicts the model's seed=42"),
    "evaluate-model-other-algorithm": (
        ("evaluate", "features", "--model", "model", "--algorithm", "lr"), "", 3,
        "algorithm=lr contradicts the model's algorithm=dt"),
    "evaluate-model-other-config": (
        ("evaluate", "features", "--model", "model"), "cv_folds=5", 3,
        "cv_folds=5 contradicts the model's cv_folds=3"),
    "benchmark-seed-not-an-integer": (
        ("benchmark", "--seed", "abc"), "", 3,
        "error: config: --seed: bad value for seed: invalid literal for int() with base 10: "
        "'abc'"),
    "benchmark-one-trial-two-devices": (
        ("benchmark",), "devices_per_room=2\ntrials=1", 3,
        "error: config: n_positive: 100 samples requested but only 2 distinct (pair, trial)"),
    "benchmark-one-device-per-room": (
        ("benchmark",), "devices_per_room=1", 3,
        "error: config: devices_per_room: 1 device(s) per room leave no pair within a room"),
    "benchmark-pair-count-unreachable": (
        ("benchmark",), "n_positive=100000", 3,
        "error: config: n_positive: 100000 samples requested but only 900 distinct (pair, trial)"),
    "benchmark-cv-folds-over-train-side": (
        ("benchmark",), "cv_folds=300", 3, "cv_folds: cannot make 300 folds from 225"),
    "benchmark-knn-k-over-cv-fold-samples": (
        ("benchmark",), "knn_k=203", 3,
        "error: config: knn_k: k=203 exceeds the 202 training samples\n"),
    "benchmark-lr-diverges": (
        ("benchmark",), "lr_learning_rate=1e308", 3,
        "error: config: lr_learning_rate: gradient descent at 1e+308 diverges to non-finite "
        "weights\n"),
    "benchmark-one-class": (
        ("benchmark",), "n_positive=0", 3,
        "error: config: algorithm: lr requires both classes in the training data"),
    "benchmark-one-positive-sample": (
        ("benchmark",), "n_positive=1", 3,
        "error: config: n_positive: 1 sample fits no split; need >= 2"),
    "benchmark-no-samples": (
        ("benchmark",), "n_positive=0\nn_negative=0", 3,
        "error: config: n_positive, n_negative: both are 0, so there is nothing to fit"),
    "train-features-one-class-1-row": (
        ("train", "one-positive", "--algorithm", "knn"), "", 2,
        "one-positive.csv: class 1 has 1 row; need >= 2"),
    "evaluate-features-one-class-1-row": (
        ("evaluate", "one-positive", "--algorithm", "knn"), "", 2,
        "one-positive.csv: class 1 has 1 row; need >= 2"),
}


@pytest.mark.parametrize("case", REFUSED_RUNS)
def test_refused_run_leaves_no_output(tmp_path, saved_models, capsys, case):
    argv, config, code, message = REFUSED_RUNS[case]
    X, y = read_feature_matrix(saved_models / "features.csv")
    write_feature_matrix(X[y == 0], y[y == 0], tmp_path / "one-class.csv")
    one_positive = np.flatnonzero(y == 0).tolist() + [int(np.flatnonzero(y == 1)[0])]
    write_feature_matrix(X[one_positive], y[one_positive], tmp_path / "one-positive.csv")
    two_per_class = [*np.flatnonzero(y == 0)[:2], *np.flatnonzero(y == 1)[:2]]
    write_feature_matrix(X[two_per_class], y[two_per_class], tmp_path / "two-per-class.csv")
    (tmp_path / "no-rows.csv").write_text(FEATURE_CSV_HEADER + "\n", encoding="utf-8")
    paths = {
        "features": saved_models / "features.csv",
        "traces": saved_models / "traces.csv",
        "one-class": tmp_path / "one-class.csv",
        "one-positive": tmp_path / "one-positive.csv",
        "two-per-class": tmp_path / "two-per-class.csv",
        "no-rows": tmp_path / "no-rows.csv",
        "model": saved_models / "model_dt.json",
        "missing": tmp_path / "missing",
        "directory": tmp_path / "directory",
    }
    paths["directory"].mkdir()
    (tmp_path / "run.cfg").write_text(config + "\n", encoding="utf-8")
    for kind, path in (("traces", paths["traces"]), ("features", paths["features"]),
                       ("model", paths["model"]), ("config", tmp_path / "run.cfg")):
        data = path.read_bytes()
        paths[f"non-utf-8-{kind}"] = tmp_path / f"non-utf-8-{kind}"
        paths[f"non-utf-8-{kind}"].write_bytes(data[:-10] + b"\xff" + data[-10:])
    for name, rows in TRACE_FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("point_x,point_y,ap_id,trial,seq,rssi_dbm\n" + rows,
                               encoding="utf-8")
    out = tmp_path / "out"
    argv = [str(paths.get(a, a)) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refused run warns of nothing
        assert run(argv[0], "--config", str(tmp_path / "run.cfg"), *argv[1:],
                   "--out", str(out)) == code
    err = capsys.readouterr().err
    # exit 2 is a bad input file and exit 3 a bad config; no refused run exits 1
    assert err.startswith({2: "error: input: ", 3: "error: config: "}[code])
    assert message.replace("{tmp}", str(tmp_path)) in err and "line None" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["file", "under-a-file", "dangling-symlink"])
@pytest.mark.parametrize("argv", [("simulate",), ("featurize", "traces.csv"),
                                  ("train", "features.csv"), ("evaluate", "features.csv"),
                                  ("benchmark",)], ids=lambda argv: argv[0])
def test_out_that_is_not_a_directory_exits_3_before_any_work(
        tmp_path, saved_models, capsys, monkeypatch, argv, kind):
    trained = []
    monkeypatch.setattr(ml, "train", lambda *args: trained.append(args))
    taken = tmp_path / "taken"
    if kind == "dangling-symlink":
        taken.symlink_to(tmp_path / "missing")
    else:
        taken.write_text("kept\n", encoding="utf-8")
    out = taken / "out" if kind == "under-a-file" else taken
    argv = [argv[0], *(str(saved_models / name) for name in argv[1:])]
    assert run(*argv, "--seed", "42", "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        f"error: config: --out: {taken} exists and is not a directory\n")
    assert [path.name for path in tmp_path.iterdir()] == ["taken"]
    assert taken.is_symlink() or taken.read_text(encoding="utf-8") == "kept\n"
    assert trained == []


def test_benchmark_draws_the_split_and_folds_once(tmp_path, config_path, monkeypatch):
    # one plan serves _check_fits and all five classifiers' holdout fits, scores and CV
    calls = dict.fromkeys(("train_test_split", "kfold"), 0)
    for name in calls:
        def counted(*args, _name=name, _draw=getattr(evaluation, name), **kwargs):
            calls[_name] += 1
            return _draw(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counted)
    assert run("benchmark", "--config", config_path, "--seed", "42",
               "--out", str(tmp_path / "out")) == 0
    assert calls == {"train_test_split": 1, "kfold": 1}


def test_featurize_and_benchmark_count_pairs_once(tmp_path, config_path, monkeypatch):
    # build_pairs alone decides whether the points pair and give the class counts
    calls = []
    pair_counts = dataset._pair_counts
    monkeypatch.setattr(dataset, "_pair_counts", lambda *a: calls.append(a) or pair_counts(*a))
    assert run("simulate", "--config", config_path, "--out", str(tmp_path)) == 0
    traces = str(tmp_path / "traces.csv")
    assert run("featurize", traces, "--config", config_path, "--out", str(tmp_path)) == 0
    assert len(calls) == 1
    too_many = tmp_path / "too-many.cfg"
    too_many.write_text(SMALL_CONFIG + "n_positive=100000\n", encoding="utf-8")
    assert run("featurize", traces, "--config", str(too_many), "--out", str(tmp_path / "x")) == 3
    assert len(calls) == 2
    assert run("benchmark", "--config", config_path, "--out", str(tmp_path / "bench")) == 0
    assert len(calls) == 3


def test_knn_k_at_the_smallest_fit_runs(tmp_path, saved_models):
    # 18 training rows in 10 folds: the smallest fold fit has 16 rows, so k=15 fits every fit
    (tmp_path / "run.cfg").write_text("knn_k=15\n", encoding="utf-8")
    assert run("evaluate", str(saved_models / "features.csv"), "--algorithm", "knn",
               "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")) == 0


@pytest.mark.parametrize("config", [f"knn_k={k}" for k in range(13, 20, 2)]
                         + [f"knn_k=3\ncv_folds={folds}" for folds in range(2, 19)])
def test_train_refuses_what_evaluate_refuses(tmp_path, saved_models, config):
    # train checks every fit of the plan, so it never saves a model evaluate would refuse
    (tmp_path / "run.cfg").write_text(config + "\n", encoding="utf-8")
    codes = []
    for command in ("train", "evaluate"):
        out = tmp_path / command
        codes.append(run(command, str(saved_models / "features.csv"), "--algorithm", "knn",
                         "--config", str(tmp_path / "run.cfg"), "--out", str(out)))
        assert out.exists() == (codes[-1] == 0)
    assert codes[0] == codes[1] and codes[0] in (0, 3)


def test_forest_without_splits_has_zero_importance(tmp_path):
    # dt_max_depth=0 grows every tree as one leaf, so no feature decreases impurity
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG + "dt_max_depth=0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("benchmark", "--config", str(cfg), "--seed", "42", "--out", str(out)) == 0
    assert len(list(out.iterdir())) == 13
    assert json.loads((out / "report_rf.json").read_text())["importance"] == [0.0] * 18
    assert run("evaluate", str(out / "features.csv"), "--config", str(cfg), "--seed", "42",
               "--out", str(out), "--algorithm", "rf", "--importance") == 0
    rows = [line.split(",") for line in (out / "importance.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == ["feature", "importance"]
    assert [value for _, value in rows[1:]] == ["0.0"] * 18


@pytest.mark.parametrize(
    "line",
    [
        "not_a_key=1",
        "gamma=-1",
        "noise_sigma_db=nan",
        "noise_sigma_db=inf",
        "interval_s=0",
        "svm_gamma=-1",
        "svm_gamma=0",
        "svm_tol=-1",
        "svm_tol=0",
        "svm_max_passes=0",
        "lr_learning_rate=-1",
        "cv_folds=1",
        "dt_min_samples_split=1",
        "dt_max_depth=-1",
        "dt_max_features=0",
        "rf_max_features=0",
    ],
)
def test_bad_config_exits_3(tmp_path, line):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("simulate", "--config", str(bad_cfg), "--out", str(out)) == 3
    assert not out.exists()  # rejected before any output is written


# a non-default value for every config key, in echo order
NON_DEFAULT_CONFIG = {
    "seed": "9",
    "ap_positions": "1.0,2.0;3.0,22.0;30.0,1.5",
    "room_left": "30.0,20.0",
    "room_right": "31.0,21.0",
    "devices_per_room": "6",
    "trials": "4",
    "samples_per_trial": "5",
    "interval_s": "2.0",
    "gamma": "3.0",
    "pl0_dbm": "-35.0",
    "d0_m": "2.0",
    "wall_loss_db": "6.5",
    "noise_sigma_db": "0.0",
    "n_positive": "20",
    "n_negative": "30",
    "trial_matching": "random",
    "algorithm": "svm",
    "lr_learning_rate": "0.05",
    "lr_iterations": "500",
    "knn_k": "3",
    "dt_min_samples_split": "4",
    "dt_max_depth": "6",
    "dt_max_features": "2",
    "rf_n_trees": "50",
    "rf_max_features": "3",
    "rf_bootstrap": "false",
    "svm_c": "2.0",
    "svm_gamma": "0.3",
    "svm_tol": "0.0001",
    "svm_max_passes": "7",
    "train_fraction": "0.5",
    "cv_folds": "5",
}


def _run_config(*flags):
    """The run config of `simulate` with these flags."""
    args = cli.build_parser().parse_args(["simulate", *flags])
    return cli.build_run_config(cli._config_values(args))


def test_parse_config_round_trip(tmp_path):
    cfg = _run_config("--seed", "9")
    echo = cfg.echo()
    path = tmp_path / "echo.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in echo.items()), encoding="utf-8")
    assert _run_config("--config", str(path)) == cfg

    defaults = _run_config().echo()
    assert list(NON_DEFAULT_CONFIG) == list(defaults)
    assert all(NON_DEFAULT_CONFIG[k] != defaults[k] for k in defaults)
    path.write_text("".join(f"{k}={v}\n" for k, v in NON_DEFAULT_CONFIG.items()))
    cfg = _run_config("--config", str(path))
    assert cfg.echo() == NON_DEFAULT_CONFIG
    assert cfg.train.svm.gamma == 0.3 and cfg.train.dt.max_depth == 6
    assert cfg.train.dt.max_features == 2 and cfg.train.rf.max_features == 3
    assert cfg.train.rf.bootstrap is False


def test_readme_keys_and_defaults_parse_as_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```")[1::2] if b.startswith("\nseed=0\n"))
    values = cli.parse_config(block.splitlines(), "README.md")
    assert set(values) == set(cli.CONFIG_KEYS)
    assert cli.build_run_config(values).echo() == cli.build_run_config({}).echo()


# field values a mutation writes: empty, not a number, not finite, signed zero,
# small, negative and huge
MUTANT_VALUES = ("", "x", "nan", "inf", "-inf", "none", "true", "0", "-0", "-1", "1", "2",
                 "3.5", "-100", "99999", "1e308")


def _mutate(text, rng, sep=","):
    """`text` with one seeded edit: a field (split on `sep`) replaced, dropped or
    doubled, a line dropped or doubled, the text cut short, or a lone surrogate
    inserted, which `surrogateescape` writes as the byte 0xff (not UTF-8)."""
    lines = text.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    edit = rng.choice(("replace", "replace", "drop-field", "double-field", "drop-line",
                       "double-line", "cut", "byte-ff"))
    if edit == "cut":
        return text[:rng.randrange(len(text))]
    if edit == "byte-ff":
        at = rng.randrange(len(text) + 1)
        return text[:at] + "\udcff" + text[at:]
    if edit == "drop-line":
        del lines[k]
    elif edit == "double-line":
        lines.insert(k, lines[k])
    else:
        fields = lines[k].rstrip("\n").split(sep)
        f = rng.randrange(len(fields))
        if edit == "replace":
            fields[f] = rng.choice(MUTANT_VALUES)
        elif edit == "drop-field":
            del fields[f]
        else:
            fields.insert(f, fields[f])
        lines[k] = sep.join(fields) + "\n"
    return "".join(lines)


def test_mutated_inputs_exit_0_2_or_3_and_leave_no_output_on_failure(
        tmp_path, saved_models, capsys):
    """Seeded edits of trace, feature and config files through featurize, train
    and evaluate --kde: each run succeeds, or is refused with exit 2 or 3 and no
    `--out`.  Case 0 is the unedited one-class feature file."""
    X, y = read_feature_matrix(saved_models / "features.csv")
    one_class = tmp_path / "one-class.csv"
    write_feature_matrix(X[y == 0], y[y == 0], one_class)
    base = {
        "traces": (saved_models / "traces.csv").read_text(encoding="utf-8"),
        "features": (saved_models / "features.csv").read_text(encoding="utf-8"),
        "one-class": one_class.read_text(encoding="utf-8"),
    }
    config_keys = ["seed", *cli.CONFIG_KEYS]
    runs = [("featurize", "traces"), ("train", "features", "--algorithm", "dt"),
            ("evaluate", "features", "--algorithm", "knn", "--kde")]
    failures = []
    for case in range(150):
        rng = random.Random(case)
        kind = "one-class" if case == 0 else rng.choice((*base, "config"))
        files = {"traces": base["traces"], "features": base["features"], "config": SMALL_CONFIG}
        if kind == "config" and rng.random() < 0.5:
            files["config"] += f"{rng.choice(config_keys)}={rng.choice(MUTANT_VALUES)}\n"
        elif kind == "config":
            files["config"] = _mutate(SMALL_CONFIG, rng, sep="=")
        else:
            files["traces" if kind == "traces" else "features"] = (
                _mutate(base[kind], rng) if case else base[kind])
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        for argv in {"traces": runs[:1], "config": runs}.get(kind, runs[1:]):
            out = tmp_path / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(*(str(tmp_path / a) if a in files else a for a in argv),
                           "--config", str(tmp_path / "config"), "--out", str(out))
            err = capsys.readouterr().err.strip()
            if code not in (0, 2, 3) or out.exists() != (code == 0):
                failures.append((case, kind, argv[0], code, out.exists(), err))
            shutil.rmtree(out, ignore_errors=True)
    assert failures == []
