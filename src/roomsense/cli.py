"""Command-line front end: simulate -> featurize -> train -> evaluate -> benchmark.

One top-level seed deterministically derives a sub-seed per pipeline stage
(simulate, featurize, train), so stages can be rerun independently and a
benchmark run, which keeps every stage in memory, is byte-identical to
running the stage commands by hand with the same config and seed.  Flags
override config-file keys, which override defaults; the effective config is
echoed into every output.  Every command computes all of its outputs before
`_write` makes `--out`, so a refused run leaves no `--out` behind.
"""

import argparse
import io
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import evaluation, ml
from ._schema import (
    ConfigError, InputError, build, field_specs, flatten, format_value, parse_value,
)
from ._seeds import derive_seed
from .dataset import PairingConfig, build_pairs, csv_writer, ingest_traces, write_traces
from .evaluation import EvalReport
from .features import FEATURE_NAMES, read_feature_matrix, write_feature_matrix
from .simulator import SimConfig, generate

KDE_EXPORT_FEATURES = ("dtw_1", "dtw_2", "dtw_3", "high_3")

EXIT_RUNTIME = 1
EXIT_BAD_FILE = 2
EXIT_BAD_CONFIG = 3


# ---------------------------------------------------------------------------
# Run configuration: flat key=value file, overridable by flags.  The keys,
# their types, defaults and ranges come from the stage-config dataclasses;
# `seed` is the run seed, from which each stage's seed derives.

CONFIG_KEYS = field_specs(SimConfig) | field_specs(PairingConfig) | field_specs(ml.TrainConfig)


@dataclass(frozen=True)
class RunConfig:
    """The run seed and the stage configs seeded from it."""

    seed: int
    sim: SimConfig
    pairing: PairingConfig
    train: ml.TrainConfig

    def echo(self) -> dict:
        """Effective configuration as ordered key=value strings."""
        values = {"seed": self.seed} | flatten(self.sim) | flatten(self.pairing)
        return {k: format_value(v) for k, v in (values | flatten(self.train)).items()}


def parse_config(lines, source) -> dict:
    """Typed values from key=value lines ('#' comments and blank lines ignored)."""
    values = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown config key {key!r}")
        values[key] = _parse_key(key, value, f"{source}:{line_no}")
    return values


def _parse_key(key, text, where):
    """The typed value of config `key` from `text`; a bad one is a ConfigError naming `where`."""
    try:
        return parse_value(text, CONFIG_KEYS[key])
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from None


def build_run_config(values: dict) -> RunConfig:
    """Every stage config, range-checked; absent keys take the dataclass defaults."""
    seed = values.get("seed", 0)
    return RunConfig(
        seed,
        build(SimConfig, values, seed=derive_seed(seed, "simulate")),
        build(PairingConfig, values),
        build(ml.TrainConfig, values, seed=derive_seed(seed, "train")),
    )


# ---------------------------------------------------------------------------
# Commands


def _write(args, outputs: dict, shown=None) -> int:
    """Make `--out` and write the outputs, a file name -> writer-of-a-path dict, in
    order; print the paths of the `shown` names (default: all of them)."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in outputs.items():
        write(out / name)
        if shown is None or name in shown:
            print(out / name)
    return 0


def _text(text):
    """A writer of one file holding `text`."""
    return lambda path: path.write_text(text, encoding="utf-8")


def _csv(header, rows, comments):
    """A writer of one CSV file: `# key=value` comments, the header, then the rows."""
    def write(path):
        with csv_writer(path, header, comments) as fh:
            fh.writelines(",".join(row) + "\n" for row in rows)
    return write


def _config_values(args) -> dict:
    """Typed values from the --config file, then from each flag given, parsed as its config key."""
    out = Path(args.out)  # refused before any work if `_write` could not make it a directory
    existing = next(path for path in (out, *out.parents) if path.is_symlink() or path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out: {existing} exists and is not a directory")
    values = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        values = parse_config(text.splitlines(), args.config)
    flags = {"seed": args.seed, "algorithm": getattr(args, "algorithm", None)}
    return values | {k: _parse_key(k, v, f"--{k}") for k, v in flags.items() if v is not None}


def _load_config(args) -> RunConfig:
    return build_run_config(_config_values(args))


def _pairs(cfg: RunConfig, points):
    """The featurize stage's pair dataset, drawn with its derived seed."""
    return build_pairs(points, cfg.pairing, seed=derive_seed(cfg.seed, "featurize"))


def _features_file(dataset, cfg: RunConfig) -> dict:
    write = partial(write_feature_matrix, dataset.X, dataset.y, comments=cfg.echo())
    return {"features.csv": write}


def _model_file(fitted, cfg: RunConfig) -> dict:
    model, scaler = fitted
    pipeline = {
        "seed": cfg.train.seed,
        "train_fraction": cfg.train.train_fraction,
        "cv_folds": cfg.train.cv_folds,
        "standardizer": scaler.to_dict(),
    }
    write = partial(ml.save_model, model, extra={"pipeline": pipeline, "config": cfg.echo()})
    return {f"model_{cfg.train.algorithm}.json": write}


def _report_file(report: EvalReport, cfg: RunConfig) -> dict:
    return {f"report_{report.algorithm}.json": _text(report.to_json(extra={"config": cfg.echo()}))}


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    points = generate(cfg.sim)
    return _write(args, {"traces.csv": partial(write_traces, points, comments=cfg.echo())})


def cmd_featurize(args) -> int:
    cfg = _load_config(args)
    return _write(args, _features_file(_pairs(cfg, ingest_traces(args.traces)), cfg))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    X, y = read_feature_matrix(args.features)
    jobs = _check_fits(y, cfg.train, (cfg.train.algorithm,), args.features)
    return _write(args, _model_file(evaluation.fit(X, y, jobs[0][0], cfg.train), cfg))


def _load_fitted(path):
    """A saved model, its standardizer, and the run config its echo records."""
    model, doc = ml.load_model(path)
    try:
        echo = (f"{key}={value}" for key, value in doc["config"].items())
        cfg = build_run_config(parse_config(echo, path))
        scaler = evaluation.Standardizer.from_dict(doc["pipeline"]["standardizer"])
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise InputError(None, f"bad pipeline info in model document ({exc})") from None
    if cfg.train.algorithm != doc["algorithm"]:
        raise InputError(None, f"model is {doc['algorithm']} but its config echo records "
                               f"algorithm={cfg.train.algorithm}")
    if len(scaler.mean) != model.n_features_:
        widths = f"{len(scaler.mean)} features but the model has {model.n_features_}"
        raise InputError(None, f"standardizer has {widths}")
    return (model, scaler), cfg


def _check_split(y, features=None):
    """Refuse labels `y` with a class of one row, which fits no split: bad input
    in a `features` file, else a bad n_positive or n_negative."""
    for cls in np.flatnonzero(np.bincount(y) == 1):
        if features:
            raise InputError(None, f"{features}: class {cls} has 1 row; need >= 2")
        raise ConfigError(f"{('n_negative', 'n_positive')[cls]}: 1 sample fits no split; need >= 2")


def _check_fits(y, train: ml.TrainConfig, algorithms, features=None):
    """The evaluation plan of labels `y`, refused before any fit if they cannot meet it.

    Beyond `_check_split`, `plan` refuses a cv_folds the training side cannot
    meet, and every algorithm must be trainable on every fit of the plan, the
    holdout's and each fold's (`ml.check_trainable`).
    """
    _check_split(y, features)
    jobs = evaluation.plan(y, train)
    for (rows, _), algorithm in product(jobs, algorithms):
        ml.check_trainable(y[rows], algorithm, train.knn.k)
    return jobs


def cmd_evaluate(args) -> int:
    given = _config_values(args)
    cfg = build_run_config(given)
    fitted = None
    if args.model:
        # its own config scores its holdout, with no fit; a given value may only repeat it
        fitted, saved = _load_fitted(args.model)
        wanted, recorded = cfg.echo(), saved.echo()
        for key in given:
            if wanted[key] != recorded[key]:
                raise ConfigError(
                    f"{key}={wanted[key]} contradicts the model's {key}={recorded[key]}"
                )
        cfg = saved
    if args.importance and cfg.train.algorithm != "rf":
        raise ConfigError("--importance requires the rf algorithm")
    X, y = read_feature_matrix(args.features)
    if fitted:  # nothing is fit: the plan is the holdout the model scores
        _check_split(y, args.features)
        jobs = [evaluation.holdout(y, cfg.train)]
    else:
        jobs = _check_fits(y, cfg.train, (cfg.train.algorithm,), args.features)
    if args.kde and len(set(y.tolist())) < 2:
        raise ConfigError(f"--kde requires both classes, but {args.features} has only class {y[0]}")

    report = evaluation.evaluate(X, y, cfg.train, jobs, fitted)
    outputs = _report_file(report, cfg)
    if args.importance:
        rows = [(name, repr(value)) for name, value in zip(FEATURE_NAMES, report.importance)]
        outputs["importance.csv"] = _csv("feature,importance", rows, cfg.echo())
    if args.kde:
        kde = io.StringIO()
        evaluation.write_kde_csv(X, y, KDE_EXPORT_FEATURES, kde, comments=cfg.echo())
        outputs["kde.csv"] = _text(kde.getvalue())
    return _write(args, outputs)


def cmd_benchmark(args) -> int:
    """Full pipeline over all five classifiers, in memory; writes every stage output."""
    cfg = _load_config(args)
    points = generate(cfg.sim)
    dataset = _pairs(cfg, points)
    X, y = dataset.X, dataset.y
    jobs = _check_fits(y, cfg.train, ml.ALGORITHMS)

    outputs = {"traces.csv": partial(write_traces, points, comments=cfg.echo())}
    outputs |= _features_file(dataset, cfg)
    rows = []
    for algorithm in ml.ALGORITHMS:
        run = replace(cfg, train=replace(cfg.train, algorithm=algorithm))
        fitted = evaluation.fit(X, y, jobs[0][0], run.train)
        report = evaluation.evaluate(X, y, run.train, jobs, fitted)
        outputs |= _model_file(fitted, run) | _report_file(report, run)
        rows.append([algorithm, *map(repr, (report.accuracy, report.f1_class0, report.f1_class1))])
    outputs["benchmark.csv"] = _csv("algorithm,accuracy,f1_class0,f1_class1", rows, cfg.echo())
    return _write(args, outputs, shown=("benchmark.csv",))


# ---------------------------------------------------------------------------
# Argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad config, exit 3
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roomsense",
        description="Same-room vs different-room classification from Wi-Fi RSSI traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *positional):
        """A subcommand with its (name, help) positional arguments and the common flags."""
        p = sub.add_parser(name, help=help_text)
        for arg, arg_help in positional:
            p.add_argument(arg, help=arg_help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", help="top-level seed (derives all stage seeds)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.set_defaults(func=func)
        return p

    features = ("features", "feature CSV produced by featurize")
    algorithm = f"classifier: {', '.join(ml.ALGORITHMS)} (default: {ml.TrainConfig.algorithm})"
    command("simulate", cmd_simulate, "generate synthetic RSSI traces")
    command("featurize", cmd_featurize, "build the labeled feature matrix from traces",
            ("traces", "trace CSV produced by simulate (or compatible)"))
    p = command("train", cmd_train, "train one classifier on a feature matrix", features)
    p.add_argument("--algorithm", help=algorithm)
    p = command("evaluate", cmd_evaluate, "evaluate a classifier on a feature matrix", features)
    p.add_argument("--algorithm", help=algorithm)
    p.add_argument("--model", help="evaluate a saved model JSON instead of retraining")
    p.add_argument("--importance", action="store_true", help="write importance.csv (rf only)")
    p.add_argument("--kde", action="store_true", help="write class-conditional KDE curves")
    command("benchmark", cmd_benchmark, "simulate, featurize, and evaluate all classifiers")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except InputError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
