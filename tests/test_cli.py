"""Command-line pipeline: stage outputs, composability, determinism, exit codes."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from roomsense import cli
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
svm_max_passes=3
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
    assert (direct / "report_rf.json").read_bytes() == (via_model / "report_rf.json").read_bytes()


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
    # traces.csv and features.csv involve no BLAS, so their seed-42 digests
    # hold on any CPU; the model and report files are pinned by perfbench only
    pinned = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text(encoding="utf-8")
    )["paper-default"]["*"]
    assert run("simulate", "--seed", "42", "--out", str(tmp_path)) == 0
    assert run("featurize", str(tmp_path / "traces.csv"), "--seed", "42",
               "--out", str(tmp_path)) == 0
    for name in ("traces.csv", "features.csv"):
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


def test_missing_input_file_exits_2(tmp_path):
    assert run("featurize", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2
    assert run("evaluate", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2


def test_malformed_trace_file_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("point_x,point_y,ap_id,trial,seq,rssi_dbm\n1,1,1,0,0,99\n")
    assert run("featurize", str(bad), "--out", str(tmp_path)) == 2
    bad.write_text("point_x,point_y,ap_id,trial,seq,rssi_dbm\nnan,1,1,0,0,-50\n")
    assert run("featurize", str(bad), "--out", str(tmp_path)) == 2


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


# saved-model edits that loading must reject: (algorithm, edit of the whole document)
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
def test_tampered_model_exits_2(tmp_path, saved_models, case):
    algorithm, tamper = TAMPERED_MODELS[case]
    doc = json.loads((saved_models / f"model_{algorithm}.json").read_text())
    tamper(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert run("evaluate", str(saved_models / "features.csv"), "--out", str(tmp_path),
               "--model", str(model)) == 2


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
    """`evaluate --model` runs and echoes the model's own config, as benchmark did."""
    for algorithm in ("lr", "knn", "rf", "svm", "dt"):
        name = f"report_{algorithm}.json"
        assert (saved_models / "check" / name).read_bytes() == (saved_models / name).read_bytes()


# trace files for featurize, by name: the rows after the header
TRACE_FILES = {
    "header-only": "",
    "bad-row": "1,1,1,0,0,-50\n1,1,1,0,x,-50\n",
    "one-point-in-a-room": "".join(f"{x},1,{ap},0,0,-50\n" for x in (-1, 1) for ap in (1, 2, 3)),
    "no-trial-with-every-ap": "1,1,1,0,0,-50\n",
}

# (argv, config lines, exit code, stderr fragment) of runs refused before
# `--out` exists.  "features", "traces", "one-class", "no-rows" and "model"
# name input files, and so does each TRACE_FILES name.  The saved features
# have 24 rows, 18 of them on the training side; the saved traces hold 36
# positive (pair, trial) combinations.
REFUSED_RUNS = {
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
    "featurize-pair-count-unreachable": (
        ("featurize", "traces"), "n_positive=100000", 1,
        "100000 positive samples requested but only 36 distinct (pair, trial) combinations"),
    "train-features-without-rows": (
        ("train", "no-rows"), "", 2, "error: input: line 1: no samples in the file"),
    "evaluate-features-without-rows": (
        ("evaluate", "no-rows"), "", 2, "error: input: line 1: no samples in the file"),
    "train-cv-folds-over-samples": (
        ("train", "features"), "cv_folds=19", 3, "cv_folds: cannot make 19 folds from 18"),
    "evaluate-cv-folds-over-train-side": (
        ("evaluate", "features"), "cv_folds=19", 3, "cv_folds: cannot make 19 folds from 18"),
    "train-knn-k-over-samples": (
        ("train", "features", "--algorithm", "knn"), "knn_k=19", 1, "k=19 exceeds the 18"),
    "evaluate-knn-k-over-samples": (
        ("evaluate", "features", "--algorithm", "knn"), "knn_k=19", 1, "k=19 exceeds the 18"),
    "train-lr-one-class": (
        ("train", "one-class", "--algorithm", "lr"), "", 1, "lr requires both classes"),
    "evaluate-lr-one-class": (
        ("evaluate", "one-class", "--algorithm", "lr"), "", 1, "lr requires both classes"),
    "evaluate-model-other-seed": (
        ("evaluate", "features", "--model", "model", "--seed", "7"), "", 3,
        "seed=7 contradicts the model's seed=42"),
    "evaluate-model-other-algorithm": (
        ("evaluate", "features", "--model", "model", "--algorithm", "lr"), "", 3,
        "algorithm=lr contradicts the model's algorithm=dt"),
    "evaluate-model-other-config": (
        ("evaluate", "features", "--model", "model"), "cv_folds=5", 3,
        "cv_folds=5 contradicts the model's cv_folds=3"),
    "benchmark-one-trial-two-devices": (
        ("benchmark",), "devices_per_room=2\ntrials=1", 1,
        "100 positive samples requested but only 2 distinct (pair, trial) combinations"),
    "benchmark-one-device-per-room": (
        ("benchmark",), "devices_per_room=1", 1, "room 'left' has 1 point(s); need >= 2"),
    "benchmark-cv-folds-over-train-side": (
        ("benchmark",), "cv_folds=300", 3, "cv_folds: cannot make 300 folds from 225"),
}


@pytest.mark.parametrize("case", REFUSED_RUNS)
def test_refused_run_leaves_no_output(tmp_path, saved_models, capsys, case):
    argv, config, code, message = REFUSED_RUNS[case]
    X, y = read_feature_matrix(saved_models / "features.csv")
    write_feature_matrix(X[y == 0], y[y == 0], tmp_path / "one-class.csv")
    (tmp_path / "no-rows.csv").write_text(FEATURE_CSV_HEADER + "\n", encoding="utf-8")
    paths = {
        "features": saved_models / "features.csv",
        "traces": saved_models / "traces.csv",
        "one-class": tmp_path / "one-class.csv",
        "no-rows": tmp_path / "no-rows.csv",
        "model": saved_models / "model_dt.json",
    }
    for name, rows in TRACE_FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("point_x,point_y,ap_id,trial,seq,rssi_dbm\n" + rows,
                               encoding="utf-8")
    (tmp_path / "run.cfg").write_text(config + "\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        # generate() warns before build_pairs refuses a room with one device
        warnings.filterwarnings("ignore", "devices_per_room < 2")
        assert run(*(str(paths.get(a, a)) for a in argv),
                   "--config", str(tmp_path / "run.cfg"), "--out", str(out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_importance_without_rf_exits_3(tmp_path, config_path):
    out = tmp_path / "out"
    run("simulate", "--config", config_path, "--seed", "5", "--out", str(out))
    run("featurize", str(out / "traces.csv"), "--config", config_path, "--seed", "5",
        "--out", str(out))
    code = run(
        "evaluate", str(out / "features.csv"), "--config", config_path, "--seed", "5",
        "--out", str(out), "--algorithm", "lr", "--importance",
    )
    assert code == 3


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


def test_parse_config_round_trip(tmp_path):
    cfg = cli.load_run_config(None, seed=9)
    echo = cfg.echo()
    path = tmp_path / "echo.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in echo.items()), encoding="utf-8")
    assert cli.load_run_config(str(path)) == cfg

    defaults = cli.load_run_config(None).echo()
    assert list(NON_DEFAULT_CONFIG) == list(defaults)
    assert all(NON_DEFAULT_CONFIG[k] != defaults[k] for k in defaults)
    path.write_text("".join(f"{k}={v}\n" for k, v in NON_DEFAULT_CONFIG.items()))
    cfg = cli.load_run_config(str(path))
    assert cfg.echo() == NON_DEFAULT_CONFIG
    assert cfg.train.svm.gamma == 0.3 and cfg.train.dt.max_depth == 6
    assert cfg.train.dt.max_features == 2 and cfg.train.rf.max_features == 3
    assert cfg.train.rf.bootstrap is False
