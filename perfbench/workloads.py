"""The benchmark's workloads: input set-up, one timed body, and output checks.

Each workload takes the benchmark seed and a private work directory.
`setup()` prepares the inputs the program receives; `body(index)` is the
timed call; `check(result)` runs afterwards, untimed, and returns the
operations attempted and failed plus the SHA-256 digests of the outputs.

Why these three:
- paper-default is `roomsense benchmark --seed 42`, the user-facing command;
  training and cross-validation do almost all of its work.
- building-featurize simulates 50 devices per room and featurizes 12,000
  pairs without training, so DTW, features and trace I/O dominate and the
  `ml` layer is bypassed.
- saved-model-scoring loads five saved models and scores resampled rows, so
  the `ml` layer is exercised by deserializing and predicting, not fitting.
"""

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from roomsense import cli, dataset, evaluation, features, ml, simulator

N_FEATURES = 18
ALGORITHMS = ml.ALGORITHMS


@dataclass
class Outcome:
    """Checked result of one body: operations attempted/failed and output digests."""

    attempted: int
    failures: dict = field(default_factory=dict)  # operation -> first failure message
    digests: dict = field(default_factory=dict)

    def fail(self, op, message):
        self.failures.setdefault(op, message)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def csv_rows(path):
    """Data rows of a roomsense CSV ('#' comments and the header skipped)."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_feature_rows(outcome, op, rows, n_pos, n_neg):
    """Finite 18-column features and the requested class counts."""
    if any(len(r) != 1 + N_FEATURES for r in rows):
        outcome.fail(op, "feature rows do not all have 18 columns")
        return
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    labels = [int(r[0]) for r in rows]
    if not np.isfinite(values).all():
        outcome.fail(op, "non-finite feature value")
    if (labels.count(1), labels.count(0)) != (n_pos, n_neg):
        outcome.fail(op, f"class counts {labels.count(1)}/{labels.count(0)}, want {n_pos}/{n_neg}")


def _quiet_cli(argv):
    """Run a roomsense command in-process; returns (exit code, printed text)."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = cli.main(argv)
    return code, printed.getvalue()


class PaperDefault:
    """`roomsense benchmark --seed 42` at the default configuration.

    The pipeline seed stays 42 whatever the benchmark seed: this is the
    paper's reference run, whose 13 outputs are pinned byte for byte and
    whose accuracy bounds hold at that seed.
    """

    name = "paper-default"
    pipeline_seed = 42
    samples = 300  # pair samples carried through per body
    seeded_outputs = False
    sentinels = {
        "simulator.readings": 4800,  # 20 devices x 3 APs x 10 trials x 8 samples
        "dtw.calls": 900,  # 300 pairs x 3 APs
        "evaluation.cv_fits": 50,  # 5 classifiers x 10 folds
        "ml.tree.fit_calls": 1111,  # (100 rf trees + 1 dt) x (1 holdout + 10 folds)
    }
    files = 13  # traces, features, 5 models, 5 reports, benchmark table
    ops = ("command", "simulate", "featurize", *(f"evaluate {alg}" for alg in ALGORITHMS))
    operations = len(ops)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def seeds(self):
        return {"benchmark": self.seed, "pipeline": self.pipeline_seed}

    def setup(self):
        pass

    def body(self, index):
        out = self.workdir / f"body{index}"
        code, printed = _quiet_cli(["benchmark", "--seed", str(self.pipeline_seed), "--out", str(out)])
        return out, code, printed

    def check(self, result):
        out = result[0]
        try:
            return self._check(*result)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out, code, printed):
        outcome = Outcome(attempted=self.operations)
        if code != 0:
            for op in self.ops:
                outcome.fail(op, f"command exited {code}")
            return outcome
        written = sorted(p.name for p in out.iterdir())
        if len(written) != self.files or printed.strip() != str(out / "benchmark.csv"):
            outcome.fail("command", f"wrote {len(written)} files, printed {printed.strip()!r}")
        outcome.digests = {name: sha256_file(out / name) for name in written}

        traces = csv_rows(out / "traces.csv")
        if len(traces) != self.sentinels["simulator.readings"]:
            outcome.fail("simulate", f"{len(traces)} readings")
        check_feature_rows(outcome, "featurize", csv_rows(out / "features.csv"), 100, 200)

        accuracy = {}
        for alg in ALGORITHMS:
            try:
                report = json.loads((out / f"report_{alg}.json").read_text(encoding="utf-8"))
                accuracy[alg] = report["accuracy"]
                cm = report["confusion"]
                ok = (0.0 <= accuracy[alg] <= 1.0 and len(report["cv_accuracies"]) == 10
                      and cm["tp"] + cm["fp"] + cm["fn"] + cm["tn"] == 75)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcome.fail(f"evaluate {alg}", repr(exc))
                continue
            if not ok:
                outcome.fail(f"evaluate {alg}", "malformed report")
        for alg in ("rf", "dt"):
            if alg in accuracy and "lr" in accuracy and not (
                accuracy[alg] >= 0.90 and accuracy[alg] >= accuracy["lr"]
            ):
                outcome.fail(f"evaluate {alg}", f"accuracy {accuracy[alg]} (lr {accuracy['lr']})")
        return outcome


class BuildingFeaturize:
    """simulate -> write_traces -> ingest_traces -> build_pairs -> feature CSV round trip."""

    name = "building-featurize"
    devices_per_room = 50
    n_positive = 4000
    n_negative = 8000
    samples = n_positive + n_negative
    operations = 5  # simulate, write_traces, ingest_traces, build_pairs, feature matrix
    seeded_outputs = True
    sentinels = {}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def seeds(self):
        return {"benchmark": self.seed, "simulate": self.seed, "pairs": self.seed}

    def setup(self):
        self.sim = simulator.SimConfig(devices_per_room=self.devices_per_room, seed=self.seed)
        self.pairing = dataset.PairingConfig(self.n_positive, self.n_negative)
        self.traces_path = self.workdir / "traces.csv"
        self.features_path = self.workdir / "features.csv"

    def body(self, index):
        # module attributes, not bound names, so a traced run sees every call
        points = simulator.generate(self.sim)
        dataset.write_traces(points, self.traces_path)
        ingested = dataset.ingest_traces(self.traces_path)
        pairs = dataset.build_pairs(ingested, self.pairing, seed=self.seed)
        X, y = pairs.feature_matrix(), pairs.labels()
        features.write_feature_matrix(X, y, self.features_path)
        X_read, y_read = features.read_feature_matrix(self.features_path)
        return points, ingested, pairs, X, y, X_read, y_read

    def check(self, result):
        points, ingested, pairs, X, y, X_read, y_read = result
        outcome = Outcome(attempted=self.operations)
        n_points = 2 * self.devices_per_room
        readings = n_points * 3 * self.sim.trials * self.sim.samples_per_trial
        got = sum(len(t.values) for p in points for t in p.traces.values())
        if len(points) != n_points or got != readings:
            outcome.fail("simulate", f"{len(points)} points, {got} readings")
        if len(csv_rows(self.traces_path)) != readings:
            outcome.fail("write_traces", "trace file row count")
        if ingested != sorted(points, key=lambda p: p.point):
            outcome.fail("ingest_traces", "ingested records differ from the simulated ones")
        if pairs.counts != (self.n_positive, self.n_negative):
            outcome.fail("build_pairs", f"class counts {pairs.counts}")
        check_feature_rows(outcome, "feature matrix", csv_rows(self.features_path),
                           self.n_positive, self.n_negative)
        if not (np.array_equal(X_read, X) and np.array_equal(y_read, y)):
            outcome.fail("feature matrix", "read-back differs from the written matrix")
        outcome.digests = {"features.csv": sha256_file(self.features_path)}
        return outcome


class SavedModelScoring:
    """Load five saved models and score resampled standardized rows with each.

    Set-up builds the paper-default features (seed 42), trains the five
    classifiers on their stratified 75% split, saves them with
    `ml.save_model`, and resamples the scoring rows from the benchmark seed.
    """

    name = "saved-model-scoring"
    pipeline_seed = 42
    rows = 6000
    samples = rows * len(ALGORITHMS)  # rows x models scored per body
    operations = len(ALGORITHMS)  # one score per model
    seeded_outputs = True
    sentinels = {}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self._reference = None

    def seeds(self):
        return {"benchmark": self.seed, "pipeline": self.pipeline_seed, "resample": self.seed}

    def setup(self):
        d = self.workdir
        seed = str(self.pipeline_seed)
        for argv in (["simulate", "--seed", seed, "--out", str(d)],
                     ["featurize", str(d / "traces.csv"), "--seed", seed, "--out", str(d)]):
            code, _ = _quiet_cli(argv)
            if code != 0:
                raise RuntimeError(f"roomsense {argv[0]} exited {code}")
        X, y = features.read_feature_matrix(d / "features.csv")
        train_idx, _ = evaluation.train_test_split(y, 0.75, self.pipeline_seed)
        scaler = evaluation.standardize_fit(X[train_idx])
        X_train = evaluation.standardize_apply(scaler, X[train_idx])
        self.models = {}
        self.paths = {}
        for alg in ALGORITHMS:
            cfg = ml.TrainConfig(algorithm=alg, seed=self.pipeline_seed)
            self.models[alg] = ml.train(X_train, y[train_idx], cfg)
            self.paths[alg] = d / f"model_{alg}.json"
            ml.save_model(self.models[alg], self.paths[alg])
        picked = np.random.default_rng(self.seed).integers(0, len(X), size=self.rows)
        self.X_rows = evaluation.standardize_apply(scaler, X[picked])

    def body(self, index):
        return {alg: ml.predict(ml.load_model(self.paths[alg])[0], self.X_rows)
                for alg in ALGORITHMS}

    def check(self, result):
        if self._reference is None:
            # the in-memory models' own predictions, computed once and untimed
            self._reference = {alg: m.predict(self.X_rows) for alg, m in self.models.items()}
        outcome = Outcome(attempted=self.operations)
        digest = hashlib.sha256()
        for alg in ALGORITHMS:
            pred = np.asarray(result[alg])
            if pred.shape != (self.rows,) or not np.array_equal(pred, self._reference[alg]):
                outcome.fail(f"score {alg}", "reloaded model predicts differently")
            digest.update(pred.astype(np.int8).tobytes())
        outcome.digests = {"predictions": digest.hexdigest()}
        return outcome


WORKLOADS = {w.name: w for w in (PaperDefault, BuildingFeaturize, SavedModelScoring)}
